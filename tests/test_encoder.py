"""Statement encoder behavior, checked against a per-statement oracle."""
import numpy as np
import pytest

import leo.autodiff as ad
from leo.autodiff import GraphError
from leo.config import TrainConfig
from leo.encoder import encode_batch, init_encoder_params
from leo.normalize import PAD_ID
from leo.optim import ParameterStore

from oracles import (
    encode_function_reference,
    encode_statement_reference,
    finite_difference_check,
    padded_encode_reference,
)


def make_params(vocab=9, dim=4, kernel=3, seed=0, retain=0.8):
    store = ParameterStore()
    params = init_encoder_params(store, vocab, dim, np.random.default_rng(seed),
                                 kernel_size=kernel, dropout_retain=retain)
    return store, params


def identity_params(vocab=9, dim=4, retain=0.8):
    """Kernel width 1, identity weights, zero bias: a statement's vector is
    the elementwise max of ReLU over its embedded rows."""
    store, params = make_params(vocab=vocab, dim=dim, kernel=1, retain=retain)
    params.conv_kernel.data = np.eye(dim)[None]
    params.conv_bias.data = np.zeros(dim)
    return store, params


def encode_one(statements, params, max_statements=None):
    """encode_batch on a batch of one function -> its statement matrix."""
    out, _ = encode_batch([statements], params,
                          max_statements or max(len(statements), 1))
    return out.data[0]


def oracle(statements, params, max_statements):
    return encode_function_reference(
        statements, params.embedding.data, params.conv_kernel.data,
        params.conv_bias.data, max_statements, PAD_ID)


# ---------------------------------------------------------------------------
# initialization


def test_init_shapes_and_groups():
    store, params = make_params(vocab=11, dim=5, kernel=3)
    assert params.embedding.data.shape == (11, 5)
    assert params.conv_kernel.data.shape == (3, 5, 5)
    assert params.conv_bias.data.shape == (5,)
    assert params.dim == 5
    names = [n for n in store.names() if n.startswith("encoder/")]
    assert set(names) == {"encoder/embedding", "encoder/conv_kernel",
                          "encoder/conv_bias"}


def test_init_pad_row_zero():
    _, params = make_params()
    assert np.all(params.embedding.data[PAD_ID] == 0.0)


def test_init_rejects_bad_arguments():
    store = ParameterStore()
    rng = np.random.default_rng(0)
    with pytest.raises(GraphError):
        init_encoder_params(store, 1, 4, rng)
    with pytest.raises(GraphError):
        init_encoder_params(store, 9, 0, rng)
    with pytest.raises(GraphError):
        init_encoder_params(store, 9, 4, rng, dropout_retain=0.0)


# ---------------------------------------------------------------------------
# embedding (through a width-1 identity convolution)


def test_embed_pad_only_is_zero_matrix():
    _, params = identity_params()
    params.embedding.data[PAD_ID] = 1.0  # the pad mask, not the row, zeroes it
    np.testing.assert_array_equal(encode_one([[PAD_ID, PAD_ID]], params),
                                  np.zeros((1, 4)))


def test_embed_single_token_eval_exact_row():
    _, params = identity_params()
    params.embedding.data[3] = np.array([0.5, 1.5, 0.25, 2.0])
    np.testing.assert_array_equal(encode_one([[3]], params)[0],
                                  params.embedding.data[3])


def test_embed_rejects_empty_and_out_of_range():
    _, params = make_params(vocab=5)
    with pytest.raises(GraphError):
        encode_batch([[[]]], params, max_statements=2)
    with pytest.raises(GraphError):
        encode_batch([[[7]]], params, max_statements=2)
    # without a dropout rng there is no dropout (retain is 0.8 here)
    out, _ = encode_batch([[[2]]], params, max_statements=2, rng=None)
    np.testing.assert_allclose(out.data[0], oracle([[2]], params, 2),
                               atol=1e-12, rtol=0)


def test_embed_dropout_monte_carlo_mean():
    _, params = identity_params(dim=4, retain=0.8)
    params.embedding.data[2] = np.array([0.5, 1.0, 2.0, 0.75])
    rng = np.random.default_rng(42)
    reference = encode_one([[2]], params)[0]
    # 200 one-token statements x 500 calls = 1e5 independent mask draws per column
    batch = [[[2]] * 200]
    total = np.zeros(4)
    for _ in range(500):
        out, _ = encode_batch(batch, params, 200, rng=rng)
        total += out.data[0].sum(axis=0)
    mean = total / (200 * 500)
    assert np.all(np.abs(mean - reference) <= 0.02 * np.abs(reference))


# ---------------------------------------------------------------------------
# convolution, ReLU and max over time


def test_encode_all_zero_input_gives_relu_bias():
    _, params = make_params(dim=4)
    params.conv_bias.data = np.array([0.3, -0.2, 0.0, 1.5])
    params.embedding.data[2] = 0.0
    out = encode_one([[2, 2, 2, 2, 2]], params)
    np.testing.assert_allclose(out[0], [0.3, 0.0, 0.0, 1.5], atol=0)


def test_encode_one_token_identity_kernel_hand_oracle():
    _, params = make_params(dim=4, kernel=3)
    params.conv_kernel.data = np.zeros((3, 4, 4))
    params.conv_kernel.data[0] = np.eye(4)
    params.conv_bias.data = np.zeros(4)
    row = np.array([0.7, -0.3, 0.0, 2.0])
    params.embedding.data[5] = row
    out = encode_one([[5]], params)
    # single window over [row; 0; 0]: conv = I @ row, then ReLU, then max of one
    np.testing.assert_allclose(out[0], np.maximum(row, 0.0), atol=0)


def test_encode_duplicated_max_window_unchanged():
    _, params = make_params(dim=3, kernel=2)
    params.conv_kernel.data = np.stack([np.eye(3), np.eye(3)])
    params.conv_bias.data = np.zeros(3)
    params.embedding.data[2] = [0.9, 0.4, 0.1]
    params.embedding.data[3] = [0.2, 0.5, 0.8]
    params.embedding.data[4] = 0.0
    base = [2, 3, 4, 4]
    o1 = encode_one([base], params)[0]
    o2 = encode_one([base + [2, 3]], params)[0]
    np.testing.assert_allclose(o1, params.embedding.data[2] + params.embedding.data[3],
                               atol=1e-15)
    np.testing.assert_allclose(o2, o1, atol=0)


def test_encode_short_statement_matches_manual_zero_pad():
    _, params = make_params(dim=4, kernel=3)
    params.embedding.data[7] = 0.0
    short = encode_one([[4, 6]], params)[0]
    manual = encode_one([[4, 6, 7]], params)[0]
    np.testing.assert_allclose(short, manual, atol=0)


# ---------------------------------------------------------------------------
# one function


def test_encode_function_padding_and_truncation():
    _, params = make_params(dim=4)
    m = encode_one([[2, 3], [4], [5, 6, 7]], params, max_statements=8)
    _, lengths = encode_batch([[[2, 3], [4], [5, 6, 7]]], params, 8)
    assert m.shape == (8, 4) and lengths.tolist() == [3]
    assert np.all(m[3:] == 0.0)
    assert np.any(m[:3] != 0.0)

    out, lengths = encode_batch([[[2, 3]] * 12], params, max_statements=8)
    assert lengths.tolist() == [8] and out.data.shape == (1, 8, 4)

    empty, lengths = encode_batch([[]], params, max_statements=8)
    assert lengths.tolist() == [0]
    assert np.all(empty.data == 0.0)


def test_encode_function_rows_match_statement_path():
    _, params = make_params(dim=4)
    statements = [[2, 3, 4, 5], [6], [7, 8]]
    m = encode_one(statements, params, max_statements=5)
    for i, s in enumerate(statements):
        one = encode_statement_reference(s, params.embedding.data,
                                         params.conv_kernel.data,
                                         params.conv_bias.data, PAD_ID)
        np.testing.assert_allclose(m[i], one, atol=1e-12, rtol=0)


# ---------------------------------------------------------------------------
# encode_batch


RAGGED_BATCH = [
    [[2, 3, 4, 5, 6], [7], [8, 2]],
    [],
    [[3, 3], [4, 5, 6], [7, 8, 2, 3, 4, 5], [6, 7]],
    [[5]],
]


def test_encode_batch_matches_per_function():
    for kernel in (1, 2, 3, 5):
        _, params = make_params(dim=4, kernel=kernel, seed=kernel)
        out, lengths = encode_batch(RAGGED_BATCH, params, max_statements=3)
        assert out.data.shape == (4, 3, 4)
        np.testing.assert_array_equal(lengths, [3, 0, 3, 1])
        for i, statements in enumerate(RAGGED_BATCH):
            np.testing.assert_allclose(out.data[i], oracle(statements, params, 3),
                                       atol=1e-12, rtol=0)


def test_encode_batch_zero_rows_past_true_length():
    _, params = make_params(dim=4)
    out, lengths = encode_batch(RAGGED_BATCH, params, max_statements=6)
    for i in range(len(RAGGED_BATCH)):
        assert np.all(out.data[i, lengths[i]:] == 0.0)


def test_encode_batch_empty_inputs():
    _, params = make_params(dim=4)
    out, lengths = encode_batch([], params, max_statements=3)
    assert out.data.shape == (0, 3, 4) and lengths.shape == (0,)
    out2, lengths2 = encode_batch([[], []], params, max_statements=3)
    assert np.all(out2.data == 0.0)
    np.testing.assert_array_equal(lengths2, [0, 0])


def test_encode_batch_packed_rows_are_the_live_rows_of_the_block():
    """Exact where both products are exact (kernel 1, identity weights); to
    rounding on random parameters, where the packed encoding sums the kernel
    taps in another order than the block's im2col product."""
    batch = RAGGED_BATCH + [[[2, 3]] * 5]
    for (_, params), rtol in ((identity_params(), 0.0), (make_params(dim=4), 1e-12)):
        block, lengths = encode_batch(batch, params, max_statements=3)
        rows, packed_lengths = encode_batch(batch, params, max_statements=3,
                                            packed=True)
        np.testing.assert_array_equal(packed_lengths, [3, 0, 3, 1, 3])
        np.testing.assert_array_equal(packed_lengths, lengths)
        live = np.arange(3)[None, :] < lengths[:, None]
        np.testing.assert_allclose(rows.data, block.data[live], rtol=rtol, atol=0)
    for batch in ([], [[], []]):
        empty, none = encode_batch(batch, params, max_statements=3, packed=True)
        assert empty.data.shape == (0, 4)
        np.testing.assert_array_equal(none, [0] * len(batch))


def test_folded_packed_encoder_matches_statement_oracle():
    """The packed (folded) encoding against the per-statement loop oracle:
    statements shorter than the kernel, one token repeated across many
    windows, a function past max_statements, and a non-zero PAD_ID row that
    the pad mask must still hide."""
    rng = np.random.default_rng(21)
    batch = [
        [[2, 3], [4], [5, 6, 7, 8, 9, 10]],
        [],
        [[3] * 40, [3, 4] * 9 + [3], [PAD_ID, 5, PAD_ID]],
        [list(rng.integers(1, 12, size=rng.integers(1, 9))) for _ in range(9)],
        [[7]],
    ]
    cap = 6
    for kernel in (1, 2, 3, 5):
        _, params = make_params(vocab=12, dim=5, kernel=kernel, seed=kernel)
        params.embedding.data[PAD_ID] = rng.normal(size=5)
        params.conv_bias.data = rng.normal(0.0, 0.1, size=5)
        rows, lengths = encode_batch(batch, params, cap, packed=True)
        np.testing.assert_array_equal(lengths, [3, 0, 3, 6, 1])
        kept = [s for fn in batch for s in fn[:cap]]
        assert rows.data.shape == (len(kept), 5)
        for row, s in zip(rows.data, kept):
            want = encode_statement_reference(s, params.embedding.data,
                                              params.conv_kernel.data,
                                              params.conv_bias.data, PAD_ID)
            np.testing.assert_allclose(row, want, rtol=1e-12, atol=0)
        for empty in ([], [[], []]):
            out, none = encode_batch(empty, params, cap, packed=True)
            assert out.data.shape == (0, 5)
            np.testing.assert_array_equal(none, [0] * len(empty))


def test_packed_encoding_is_inference_only_and_records_no_tape():
    _, params = make_params(dim=4)
    with pytest.raises(GraphError):
        encode_batch(RAGGED_BATCH, params, 3, rng=np.random.default_rng(0),
                     packed=True)
    assert params.embedding.requires_grad
    rows, _ = encode_batch(RAGGED_BATCH, params, 3, packed=True)
    assert not rows.requires_grad and rows._parents == () and rows._backward is None


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_packed_encoding_raises_on_a_non_finite_reached_row():
    _, params = make_params(dim=4)
    params.embedding.data[8, 1] = np.inf
    encode_batch([[[2, 3, 4, 5, 6]]], params, 1, packed=True)  # 8 not reached
    with pytest.raises(ad.NumericError):
        encode_batch(RAGGED_BATCH, params, 3, packed=True)


def test_encode_batch_statement_order_permutes_rows():
    _, params = make_params(dim=4)
    s1, s2, s3 = [2, 3], [4, 5, 6], [7]
    a, _ = encode_batch([[s1, s2, s3]], params, max_statements=4)
    b, _ = encode_batch([[s3, s1, s2]], params, max_statements=4)
    np.testing.assert_allclose(a.data[0, 0], b.data[0, 1], atol=1e-12, rtol=0)
    np.testing.assert_allclose(a.data[0, 1], b.data[0, 2], atol=1e-12, rtol=0)
    np.testing.assert_allclose(a.data[0, 2], b.data[0, 0], atol=1e-12, rtol=0)


def test_encode_batch_train_mode_deterministic_given_seed():
    _, params = make_params(dim=4)
    a, _ = encode_batch(RAGGED_BATCH, params, max_statements=3,
                        rng=np.random.default_rng(7))
    b, _ = encode_batch(RAGGED_BATCH, params, max_statements=3,
                        rng=np.random.default_rng(7))
    c, _ = encode_batch(RAGGED_BATCH, params, max_statements=3,
                        rng=np.random.default_rng(8))
    np.testing.assert_array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)


def test_encode_batch_convolves_only_valid_windows(monkeypatch):
    """One conv1d call whose output has one row per valid window:
    sum of max(L - k + 1, 1) over the kept statements."""
    windows = []
    real_conv = ad.conv1d

    def spy(*args):
        out = real_conv(*args)
        windows.append(int(np.prod(out.data.shape[:-1])))
        return out

    monkeypatch.setattr(ad, "conv1d", spy)
    for kernel in (1, 2, 3, 5):
        _, params = make_params(dim=4, kernel=kernel, seed=kernel)
        windows.clear()
        encode_batch(RAGGED_BATCH, params, max_statements=3)
        kept = [s for fn in RAGGED_BATCH for s in fn[:3]]
        assert windows == [sum(max(len(s) - kernel + 1, 1) for s in kept)]


def test_encode_batch_matches_padded_reference_and_rng_stream():
    """Train mode: the packed encoder equals the padded block path, whose
    dropout mask is drawn at the (statements x longest x dim) shape, and
    leaves the dropout rng where that path leaves it."""
    rng = np.random.default_rng(3)
    batch = [[list(rng.integers(1, 9, size=rng.integers(1, 9)))
              for _ in range(rng.integers(0, 6))] for _ in range(6)]
    for kernel in (1, 3, 5):
        _, params = make_params(dim=4, kernel=kernel, seed=kernel)
        for seed in (None, 11):
            ours = None if seed is None else np.random.default_rng(seed)
            theirs = None if seed is None else np.random.default_rng(seed)
            out, _ = encode_batch(batch, params, 4, rng=ours)
            want = padded_encode_reference(
                batch, params.embedding.data, params.conv_kernel.data,
                params.conv_bias.data, 4, params.dropout_retain, theirs, PAD_ID)
            np.testing.assert_allclose(out.data, want, rtol=1e-12, atol=0)
            if seed is not None:
                assert ours.bit_generator.state == theirs.bit_generator.state


def test_encode_batch_short_exact_and_capped_statements_in_one_batch():
    """Lengths 1, k - 1, k, k + 1 and the token cap side by side."""
    _, params = make_params(vocab=12, dim=4, kernel=3, seed=9)
    cap = TrainConfig(seed=0).stmt_token_cap
    rng = np.random.default_rng(5)
    statements = [list(rng.integers(1, 12, size=n)) for n in (1, 2, 3, 4, cap)]
    m = encode_one(statements, params)
    for i, s in enumerate(statements):
        one = encode_statement_reference(s, params.embedding.data,
                                         params.conv_kernel.data,
                                         params.conv_bias.data, PAD_ID)
        np.testing.assert_allclose(m[i], one, rtol=1e-12, atol=1e-15)


# ---------------------------------------------------------------------------
# gradients


def test_pad_embedding_row_gets_no_gradient():
    store, params = make_params(dim=4)
    out, _ = encode_batch(RAGGED_BATCH, params, max_statements=3)
    loss = ad.reduce_sum(ad.mul(out, out))
    ad.backward(loss)
    grad = params.embedding.grad
    assert grad is not None
    assert np.all(grad[PAD_ID] == 0.0)
    # token id 8 never appears with id > vocab range unused: unused rows stay 0
    used = {t for fn in RAGGED_BATCH for s in fn for t in s}
    for row in range(params.embedding.data.shape[0]):
        if row not in used and row != PAD_ID:
            assert np.all(grad[row] == 0.0)


def test_finite_difference_through_batched_encode():
    store, params = make_params(vocab=7, dim=3, kernel=3, seed=3)
    batch = [[[2, 3, 4, 5], [6]], [[3], [4, 5, 2]]]
    coeff = ad.constant(np.random.default_rng(11).normal(size=(2, 3, 3)))

    def loss_fn():
        out, _ = encode_batch(batch, params, max_statements=3)
        return ad.reduce_sum(ad.mul(out, coeff))

    report = finite_difference_check(loss_fn, dict(store.items()),
                                     rng=np.random.default_rng(0))
    assert report.ok(1e-4), report


def test_finite_difference_through_train_mode_encode():
    store, params = make_params(vocab=7, dim=3, kernel=3, seed=5)
    batch = [[[2, 3, 4, 5], [6]], [[3], [4, 5, 2]]]
    coeff = ad.constant(np.random.default_rng(12).normal(size=(2, 3, 3)))

    def loss_fn():
        out, _ = encode_batch(batch, params, max_statements=3,
                              rng=np.random.default_rng(99))
        return ad.reduce_sum(ad.mul(out, coeff))

    report = finite_difference_check(loss_fn, dict(store.items()),
                                     rng=np.random.default_rng(1))
    assert report.ok(1e-4), report
