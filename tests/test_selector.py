"""Selector MLP, Gumbel gates, and masking."""
import numpy as np
import pytest

import leo.autodiff as ad
from leo import losses
from leo.autodiff import GraphError
from leo.config import GATE_MODES
from leo.optim import ParameterStore
from leo.selector import (
    deterministic_mask,
    gumbel_from_uniform,
    init_selector_params,
    relax_gates,
    sample_gumbel,
    selector_forward,
    selector_presigmoid,
)

from oracles import finite_difference_check, padded_block, relaxed_bernoulli_reference

EULER_GAMMA = 0.5772156649015329


def logit(p):
    p = np.asarray(p, dtype=np.float64)
    return np.log(p) - np.log1p(-p)


def relax(p, a, b, nu):
    """relax_gates on the constant log-odds of keep probabilities p."""
    scores = np.broadcast_to(logit(p), np.broadcast(p, a, b).shape)
    a = np.broadcast_to(a, scores.shape)
    b = np.broadcast_to(b, scores.shape)
    return relax_gates(ad.constant(np.array(scores)), a, b, nu).data


def make_selector(dim=4, hidden=(6, 5, 4), seed=0):
    store = ParameterStore()
    params = init_selector_params(store, dim, np.random.default_rng(seed),
                                  hidden_sizes=hidden)
    return store, params


def zero_selector(store):
    for name, t in store.items():
        if name.startswith("selector/"):
            t.data = np.zeros_like(t.data)


# ---------------------------------------------------------------------------
# forward


def test_init_shapes_and_group():
    store, params = make_selector(dim=4, hidden=(6, 5, 4))
    shapes = [(w.data.shape, b.data.shape) for w, b in params.layers]
    assert shapes == [((4, 6), (6,)), ((6, 5), (5,)), ((5, 4), (4,))]
    assert params.head[0].data.shape == (4, 1)
    assert all(n.startswith("selector/") for n in store.names())


def test_zero_weights_give_half_probability():
    store, params = make_selector()
    zero_selector(store)
    x = ad.constant(np.random.default_rng(1).normal(size=(5, 4)))
    p = selector_forward(x, params)
    np.testing.assert_array_equal(p.data, np.full(5, 0.5))


def test_zero_rows_give_half_probability():
    _, params = make_selector()
    for _, b in params.layers:
        b.data[:] = 0.0
    params.head[1].data[:] = 0.0
    p = selector_forward(ad.constant(np.zeros((3, 4))), params)
    np.testing.assert_array_equal(p.data, np.full(3, 0.5))


def test_probabilities_strictly_inside_unit_interval():
    for seed in range(5):
        _, params = make_selector(seed=seed)
        x = ad.constant(np.random.default_rng(seed + 50).normal(size=(8, 4)) * 5)
        p = selector_forward(x, params).data
        assert np.all(p > 0.0) and np.all(p < 1.0)


def test_forward_shapes_and_batched_consistency():
    _, params = make_selector()
    rows = np.random.default_rng(2).normal(size=(15, 4))
    batched = selector_forward(ad.constant(rows), params)
    assert batched.data.shape == (15,)
    for i in range(0, 15, 5):
        part = selector_forward(ad.constant(rows[i:i + 5]), params)
        np.testing.assert_allclose(batched.data[i:i + 5], part.data, atol=1e-12, rtol=0)
    with pytest.raises(GraphError):
        selector_forward(ad.constant(rows.reshape(3, 5, 4)), params)


def test_rowwise_weight_sharing():
    _, params = make_selector()
    rows = np.random.default_rng(3).normal(size=(4, 4))
    p = selector_forward(ad.constant(rows), params).data
    swapped = selector_forward(ad.constant(rows[::-1].copy()), params).data
    np.testing.assert_allclose(swapped, p[::-1], atol=1e-12, rtol=0)


def test_train_mode_needs_rng_and_is_seed_deterministic():
    _, params = make_selector()
    x = ad.constant(np.random.default_rng(4).normal(size=(5, 4)))
    # without a dropout rng the MLP runs with no dropout
    h = x.data
    for w, b in params.layers:
        h = np.maximum(h @ w.data + b.data, 0.0)
    plain = 1.0 / (1.0 + np.exp(-(h @ params.head[0].data + params.head[1].data)))
    np.testing.assert_allclose(selector_forward(x, params, rng=None).data,
                               plain.reshape(5), atol=1e-12, rtol=0)
    a = selector_forward(x, params, rng=np.random.default_rng(9))
    b = selector_forward(x, params, rng=np.random.default_rng(9))
    np.testing.assert_array_equal(a.data, b.data)
    assert not np.allclose(a.data, plain.reshape(5))


# ---------------------------------------------------------------------------
# gumbel noise


def test_gumbel_analytic_point():
    assert gumbel_from_uniform(np.exp(-1.0)) == pytest.approx(0.0, abs=1e-12)


def test_gumbel_clamps_are_finite():
    lo = gumbel_from_uniform(0.0)
    hi = gumbel_from_uniform(1.0)
    assert np.isfinite(lo) and np.isfinite(hi)
    assert hi > 20.0  # clamp at the top end is a large positive value
    assert lo < 0.0


def test_gumbel_monotone_in_u():
    u = np.linspace(0.01, 0.99, 50)
    g = gumbel_from_uniform(u)
    assert np.all(np.diff(g) > 0)


def test_gumbel_mean_matches_euler_constant():
    rng = np.random.default_rng(123)
    draws = sample_gumbel(10**6, rng)
    assert abs(draws.mean() - EULER_GAMMA) < 0.01


# ---------------------------------------------------------------------------
# relaxed gates


def test_relax_symmetric_point():
    for nu in (0.1, 0.5, 1.0, 3.0):
        z = relax(np.array([0.5]), 0.7, 0.7, nu)
        assert z[0] == pytest.approx(0.5, abs=1e-12)


def test_relax_low_temperature_limit():
    rng = np.random.default_rng(5)
    p = rng.uniform(0.05, 0.95, size=200)
    a = sample_gumbel(200, rng)
    b = sample_gumbel(200, rng)
    z = relax(p, a, b, 1e-6)
    want = (np.log(p) + a > np.log1p(-p) + b).astype(float)
    np.testing.assert_allclose(z, want, atol=1e-9)


def test_relax_threshold_matches_keep_probability():
    rng = np.random.default_rng(6)
    n = 10**5
    a = sample_gumbel(n, rng)
    b = sample_gumbel(n, rng)
    z = relax(np.full(n, 0.7), a, b, 0.5)
    assert abs((z > 0.5).mean() - 0.7) < 0.01


def test_relax_monotone_in_p():
    rng = np.random.default_rng(7)
    a, b = 0.3, -0.8
    for nu in (0.5, 1.0):
        p = np.sort(rng.uniform(0.01, 0.99, size=30))
        z = relax(p, a, b, nu)
        assert np.all(np.diff(z) > 0)


def test_relax_extreme_inputs_stay_finite():
    z = relax(np.array([1e-9, 1 - 1e-9]), np.array([30.0, -30.0]),
              np.array([-30.0, 30.0]), 0.5)
    assert np.all(np.isfinite(z)) and np.all(z >= 0) and np.all(z <= 1)


def test_relax_gates_matches_plain_version():
    rng = np.random.default_rng(8)
    scores = rng.normal(size=(2, 7)) * 3
    a = sample_gumbel((2, 7), rng)
    b = sample_gumbel((2, 7), rng)
    for nu in (0.3, 0.5, 0.7, 1.0):
        graph = relax_gates(ad.constant(scores), a, b, nu).data
        p = 1.0 / (1.0 + np.exp(-scores))
        plain = relaxed_bernoulli_reference(p, a, b, nu)
        np.testing.assert_allclose(graph, plain, atol=1e-9, rtol=0)


def test_relax_gates_shape_check():
    with pytest.raises(GraphError):
        relax_gates(ad.constant(np.zeros(3)), np.zeros(4), np.zeros(4), 0.5)


# ---------------------------------------------------------------------------
# deterministic gates


def test_deterministic_mask_modes():
    p = np.array([0.9, 0.1])
    np.testing.assert_array_equal(deterministic_mask(p), [0.9, 0.1])
    np.testing.assert_array_equal(deterministic_mask(p, "hard"), [1.0, 0.0])
    np.testing.assert_array_equal(
        deterministic_mask(np.full(4, 0.5), "hard"), np.zeros(4))


def test_each_gate_mode_names_its_own_mask():
    # deterministic_mask trusts the config's mode list: every listed mode
    # must reach a distinct branch, not fall through to the default.
    p = np.array([0.9, 0.1, 0.5])
    masks = {mode: deterministic_mask(p, mode).tolist() for mode in GATE_MODES}
    assert masks == {"expected": [0.9, 0.1, 0.5], "hard": [1.0, 0.0, 0.0]}


# ---------------------------------------------------------------------------
# masking: losses.gated_block scales each statement row by its gate and
# places the rows in a zero (batch, longest, dim) block


def gated_block(rows, gates, lengths):
    return losses.gated_block(ad.constant(rows), ad.constant(gates), lengths).data


def test_apply_mask_identity_and_zero():
    x = np.random.default_rng(9).normal(size=(5, 3))
    np.testing.assert_array_equal(gated_block(x, np.ones(5), [5]), x[None])
    np.testing.assert_array_equal(gated_block(x, np.zeros(5), [5]), np.zeros((1, 5, 3)))


def test_apply_mask_pattern_zeroes_named_rows():
    x = np.arange(15, dtype=float).reshape(5, 3) + 1
    out = gated_block(x, np.array([0.0, 1.0, 1.0, 0.0, 1.0]), [5])[0]
    assert np.all(out[0] == 0.0) and np.all(out[3] == 0.0)
    np.testing.assert_array_equal(out[[1, 2, 4]], x[[1, 2, 4]])


def test_apply_mask_commutes_with_permutation():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(9, 3))
    z = rng.uniform(size=9)
    lengths = [2, 4, 0, 3]
    perm = np.array([0, 1, 5, 3, 2, 4, 6, 8, 7])  # within functions 1 and 3
    direct = gated_block(x, z, lengths)
    permuted = gated_block(x[perm], z[perm], lengths)
    np.testing.assert_array_equal(permuted[1], direct[1, [3, 1, 0, 2]])
    np.testing.assert_array_equal(permuted[3, :3], direct[3, [0, 2, 1]])


def test_apply_mask_batched_and_errors():
    rng = np.random.default_rng(11)
    lengths = [2, 4, 0, 3]
    x = rng.normal(size=(9, 3))
    z = rng.uniform(size=9)
    np.testing.assert_array_equal(gated_block(x, z, lengths),
                                  padded_block(x * z[:, None], lengths, 4))
    for rows, gates, lens in ((x, z[:8], lengths), (x, z, [2, 4, 0, 2]),
                              (x[None], z, lengths), (x, z[None], lengths)):
        with pytest.raises(GraphError):
            gated_block(rows, gates, lens)


def test_pad_gate_zeroes_rows_past_length():
    x = np.random.default_rng(12).normal(size=(6, 3)) + 2.0
    out = gated_block(x, np.ones(6), [2, 4])
    assert out.shape == (2, 4, 3)
    np.testing.assert_array_equal(out[0, 2:], np.zeros((2, 3)))
    assert np.all(out[0, :2] != 0.0) and np.all(out[1] != 0.0)
    single = gated_block(x[:3], np.ones(3), [3])
    assert single.shape == (1, 3, 3) and np.all(single != 0.0)
    with pytest.raises(GraphError):
        gated_block(x, np.ones(6), [2, 3])


# ---------------------------------------------------------------------------
# gradients


def test_finite_difference_through_gated_selector():
    store, params = make_selector(dim=3, hidden=(5, 4, 3), seed=13)
    rng = np.random.default_rng(14)
    x = ad.constant(rng.normal(size=(7, 3)))
    a = sample_gumbel(7, rng)
    b = sample_gumbel(7, rng)
    coeff = ad.constant(rng.normal(size=(7, 3)))

    def loss_fn():
        z = relax_gates(selector_presigmoid(x, params), a, b, 0.5)
        return ad.reduce_sum(ad.mul(ad.mul(x, ad.reshape(z, (7, 1))), coeff))

    report = finite_difference_check(loss_fn, dict(store.items()),
                                     rng=np.random.default_rng(2))
    assert report.ok(1e-4), report
