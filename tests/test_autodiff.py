"""Differentiation engine: analytic examples, finite-difference agreement,
optimizer and clipping behavior, determinism."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leo import autodiff as ad
from leo.optim import Adam, ParameterStore, clip_gradients

from oracles import (
    adam_reference_step,
    adam_reference_trace,
    central_difference,
    dense_affine_grads,
    finite_difference_check,
    one_blas_thread,
)


def t(data, grad=True, name="p"):
    return ad.Tensor(np.asarray(data, dtype=np.float64), requires_grad=grad, name=name)


# ---------------------------------------------------------------------------
# forward examples


def test_matmul_identity_column():
    out = ad.matmul(t([[1.0, 2.0], [3.0, 4.0]]), t([[1.0], [0.0]]))
    assert np.array_equal(out.data, [[1.0], [3.0]])


def test_softmax_symmetry():
    out = ad.softmax(t([[0.0, 0.0]]))
    assert np.allclose(out.data, [[0.5, 0.5]], atol=1e-15)


def test_softmax_rows_sum_to_one_and_positive():
    rng = np.random.default_rng(3)
    x = t(rng.normal(size=(20, 7)) * 5)
    out = ad.softmax(x).data
    assert np.all(out > 0)
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)


def test_maxpool_full_window():
    out = ad.segment_max(t(np.array([[1.0], [5.0], [2.0]])), np.array([0]))
    assert out.data.reshape(()) == 5.0


def test_segment_max_pools_runs_and_routes_ties_to_the_first_row():
    vals = t(np.array([[1.0, 4.0], [3.0, 4.0], [2.0, -1.0], [0.0, 0.0], [5.0, 0.0]]))
    out = ad.segment_max(vals, np.array([0, 2, 3]))
    assert np.array_equal(out.data, [[3.0, 4.0], [2.0, -1.0], [5.0, 0.0]])
    coeff = ad.constant(np.arange(1.0, 7.0).reshape(3, 2))
    ad.backward(ad.reduce_sum(ad.mul(out, coeff)))
    assert np.array_equal(vals.grad, [[0, 2], [1, 0], [3, 4], [0, 6], [5, 0]])
    for bad in ([], [1, 3], [0, 0, 3], [0, 3, 2], [0, 5]):
        with pytest.raises(ad.GraphError):
            ad.segment_max(vals, np.array(bad, dtype=np.int64))


def test_square_gradient():
    w = t(3.0)
    loss = ad.reduce_sum(ad.mul(w, w))
    ad.backward(loss)
    assert w.grad == pytest.approx(6.0)


def test_softmax_cross_entropy_gradient_identity():
    # d(-log softmax(x)[y]) / dx = probs - onehot
    logits = t([[0.2, -1.0, 0.5]])
    onehot = ad.constant(np.array([[0.0, 1.0, 0.0]]))
    probs = ad.softmax(logits)
    picked = ad.sum_axis(ad.mul(probs, onehot), axis=1)
    loss = ad.reduce_sum(ad.scale(ad.log(picked), -1.0))
    ad.backward(loss)
    expected = probs.data - onehot.data
    assert np.allclose(logits.grad, expected, atol=1e-12)


def test_backward_rejects_non_scalar():
    x = t([1.0, 2.0])
    with pytest.raises(ad.GraphError):
        ad.backward(ad.mul(x, x))


def test_non_finite_forward_raises():
    x = t([800.0])
    with pytest.raises(ad.NumericError) as err:
        ad.exp(ad.mul(x, x))
    assert "exp" in str(err.value)


def test_matmul_shape_mismatch():
    with pytest.raises(ad.GraphError):
        ad.matmul(t(np.ones((2, 3))), t(np.ones((2, 3))))


def test_affine_shape_mismatch():
    x, w = t(np.ones((2, 3))), t(np.ones((3, 4)))
    with pytest.raises(ad.GraphError):
        ad.affine(x, t(np.ones((2, 3))), t(np.ones(3)))
    with pytest.raises(ad.GraphError):
        ad.affine(x, w, t(np.ones(3)))


def test_affine_is_matmul_plus_bias_bit_for_bit():
    """The fused node computes what matmul followed by add computes, in
    the forward pass and in every gradient."""
    rng = np.random.default_rng(13)
    x0, w0, b0 = rng.normal(size=(5, 4)), rng.normal(size=(4, 3)), rng.normal(size=3)
    coeff = ad.constant(rng.normal(size=(5, 3)))
    results = []
    for fused in (True, False):
        x, w, b = t(x0.copy()), t(w0.copy()), t(b0.copy())
        y = ad.affine(x, w, b) if fused else ad.add(ad.matmul(x, w), b)
        out = y.data.copy()
        ad.backward(ad.reduce_sum(ad.mul(y, coeff)))
        results.append((out, x.grad, w.grad, b.grad))
    for fused, unfused in zip(*results):
        np.testing.assert_array_equal(fused, unfused)


def test_unreachable_parameter_gets_no_gradient():
    used = t([2.0])
    unused = t([5.0], name="unused")
    loss = ad.reduce_sum(ad.mul(used, used))
    ad.backward(loss)
    assert unused.grad is None  # so Adam.step and clipping leave it alone


# ---------------------------------------------------------------------------
# backward consumes the graph and owns the gradients it hands out


def test_backward_releases_interior_nodes_and_keeps_leaf_grads():
    rng = np.random.default_rng(2)
    x = t(rng.normal(size=(3, 4)), name="x")
    w = t(rng.normal(size=(4, 2)), name="w")
    h = ad.matmul(x, w)
    r = ad.maximum_const(ad.add(h, ad.constant(0.1)), 0.0)
    s = ad.reshape(r, (6,))
    loss = ad.reduce_sum(ad.mul(s, s))
    ad.backward(loss)
    for node in (h, r, s, loss):
        assert node.grad is None and node._parents == ()
        assert node.data is not None
    assert x.grad.shape == (3, 4) and w.grad.shape == (4, 2)
    assert np.any(w.grad != 0.0)


def test_second_backward_on_walked_graph_raises():
    x = t([1.0, 2.0])
    loss = ad.reduce_sum(ad.mul(x, x))
    ad.backward(loss)
    first = x.grad.copy()
    with pytest.raises(ad.GraphError, match=loss.name):
        ad.backward(loss)
    assert np.array_equal(x.grad, first)


def test_backward_through_consumed_interior_node_raises():
    x = t([0.5, -1.0])
    h = ad.mul(x, x)
    ad.backward(ad.reduce_sum(h))
    first = x.grad.copy()
    with pytest.raises(ad.GraphError, match=h.name):
        ad.backward(ad.reduce_sum(ad.exp(h)))
    assert np.array_equal(x.grad, first)


def test_add_of_two_leaves_gives_each_its_own_gradient():
    rng = np.random.default_rng(4)
    a = t(rng.normal(size=(3, 2)), name="a")
    b = t(rng.normal(size=(3, 2)), name="b")
    coeff = ad.constant(rng.normal(size=(3, 2)) * 10.0)
    ad.backward(ad.reduce_sum(ad.mul(ad.add(a, b), coeff)))
    assert a.grad is not b.grad
    assert np.array_equal(a.grad, coeff.data) and np.array_equal(b.grad, coeff.data)
    norm = clip_gradients([a.grad, b.grad], 1.0)
    assert norm > 1.0
    after = float(np.sqrt(np.sum(a.grad * a.grad) + np.sum(b.grad * b.grad)))
    assert abs(after - 1.0) < 1e-12


def test_one_fresh_gradient_for_two_parents_is_not_shared():
    a = t([1.0, 2.0], name="a")
    b = t([3.0, 4.0], name="b")

    def backward(g):
        shared = g * 2.0  # a fresh array handed to both parents
        return shared, shared

    ad.backward(ad.reduce_sum(ad._make(2.0 * (a.data + b.data), (a, b), backward, "twice")))
    assert a.grad is not b.grad
    assert np.array_equal(a.grad, [2.0, 2.0]) and np.array_equal(b.grad, [2.0, 2.0])


def test_fan_out_accumulates_to_central_difference():
    rng = np.random.default_rng(6)
    x = ad.constant(rng.normal(size=(4, 3)))
    w0 = rng.normal(size=(3, 3))

    def build(w):
        h = ad.sigmoid(ad.matmul(x, w))  # h feeds three consumers
        return ad.add(ad.reduce_sum(ad.mul(h, h)),
                      ad.reduce_mean(ad.exp(ad.add(h, ad.transpose(ad.transpose(h))))))

    w = t(w0.copy(), name="w")
    ad.backward(build(w))
    expected = central_difference(lambda v: build(ad.constant(v)).item(), w0)
    assert np.allclose(w.grad, expected, rtol=1e-7, atol=1e-9)


# ---------------------------------------------------------------------------
# finite differences, primitive by primitive


def _fd_case(build, params):
    """Check analytic gradients of build() against central differences."""
    report = finite_difference_check(build, params, h=1e-5)
    assert report.max_rel_error < 1e-4, report.flagged
    return report


def test_fd_each_primitive():
    rng = np.random.default_rng(11)

    a = t(rng.normal(size=(3, 4)), name="a")
    b = t(rng.normal(size=(4, 2)), name="b")
    _fd_case(lambda: ad.reduce_sum(ad.mul(ad.matmul(a, b), ad.matmul(a, b))), {"a": a, "b": b})

    x = t(rng.normal(size=(5,)) + 3.0, name="x")  # positive, away from relu kink
    y = t(rng.normal(size=(5,)) + 3.0, name="y")
    _fd_case(lambda: ad.reduce_sum(ad.mul(ad.log(x), ad.sqrt(y))), {"x": x, "y": y})
    _fd_case(lambda: ad.reduce_sum(ad.div(ad.exp(ad.scale(x, 0.3)), y)), {"x": x, "y": y})
    _fd_case(lambda: ad.reduce_sum(ad.maximum_const(ad.add(x, ad.scale(y, -1.0)), 0.0)),
             {"x": x, "y": y})
    _fd_case(lambda: ad.reduce_mean(ad.sigmoid(ad.sigmoid(ad.mul(x, y)))), {"x": x, "y": y})
    _fd_case(lambda: ad.reduce_sum(ad.softmax(ad.reshape(x, (1, 5)))), {"x": x})
    soft_coeff = ad.constant(rng.normal(size=(1, 5)))
    _fd_case(lambda: ad.reduce_sum(ad.mul(ad.softmax(ad.reshape(x, (1, 5))), soft_coeff)),
             {"x": x})
    _fd_case(lambda: ad.reduce_sum(ad.maximum_const(x, 3.1)), {"x": x})
    _fd_case(lambda: ad.reduce_sum(ad.minimum_const(ad.scale(x, -1.0), -2.9)), {"x": x})

    m = t(rng.normal(size=(4, 3)), name="m")
    tr_coeff = ad.constant(rng.normal(size=(3, 4)))
    _fd_case(lambda: ad.reduce_sum(ad.mul(ad.transpose(m), tr_coeff)), {"m": m})
    _fd_case(lambda: ad.reduce_sum(ad.exp(ad.sum_axis(m, axis=1))), {"m": m})
    _fd_case(lambda: ad.reduce_sum(ad.exp(ad.sum_axis(m, axis=0, keepdims=True))), {"m": m})

    table = t(rng.normal(size=(6, 3)), name="table")
    idx = np.array([[0, 2, 5], [1, 1, 4]])
    gather_coeff = ad.constant(rng.normal(size=(2, 3, 3)))
    _fd_case(lambda: ad.reduce_sum(ad.mul(ad.gather_rows(table, idx), gather_coeff)),
             {"table": table})

    vals = t(rng.normal(size=(3, 2)), name="vals")
    _fd_case(lambda: ad.reduce_sum(ad.exp(ad.scatter_rows(
        vals, np.array([0, 0, 1]), np.array([1, 3, 0]), 2, 4))), {"vals": vals})

    bias = t(rng.normal(size=(2,)), name="bias")
    _fd_case(lambda: ad.reduce_sum(ad.exp(ad.affine(a, b, bias))),
             {"a": a, "b": b, "bias": bias})


def dense_starts(n, t, k):
    """Window starts of a dense conv over n length-t sequences laid end to
    end: i * t + j for every valid offset j."""
    return (np.arange(n)[:, None] * t + np.arange(t - k + 1)[None, :]).reshape(-1)


def test_fd_conv1d_random_input():
    rng = np.random.default_rng(23)
    x = t(rng.normal(size=(1, 5, 3)), name="x")
    w = t(rng.normal(size=(3, 3, 4)) * 0.5, name="w")
    b = t(rng.normal(size=(4,)), name="b")

    def build():
        out = ad.conv1d(ad.reshape(x, (5, 3)), w, b, dense_starts(1, 5, 3))
        return ad.reduce_sum(ad.mul(ad.reshape(out, (1, 3, 4)),
                                    ad.constant(coeff)))

    coeff = rng.normal(size=(1, 3, 4))
    report = finite_difference_check(build, {"x": x, "w": w, "b": b}, h=1e-5)
    assert report.max_rel_error < 1e-4


def test_fd_conv_relu_maxpool_chain():
    rng = np.random.default_rng(29)
    x = t(rng.normal(size=(2, 6, 3)), name="x")
    w = t(rng.normal(size=(3, 3, 4)) * 0.4, name="w")
    b = t(rng.normal(size=(4,)) * 0.1, name="b")

    def build():
        out = ad.conv1d(ad.reshape(x, (12, 3)), w, b, dense_starts(2, 6, 3))
        return ad.reduce_sum(ad.segment_max(ad.maximum_const(out, 0.0),
                                            np.array([0, 4])))

    report = finite_difference_check(build, {"x": x, "w": w, "b": b}, h=1e-5)
    assert report.max_rel_error < 1e-4


def test_fd_packed_conv_with_uncovered_and_short_statements():
    """Three statements of lengths 4, 1 and 6 packed as the encoder packs
    them (kernel 3: the one-token statement is zero-filled to one window),
    with position 7 between the last two covered by no window."""
    rng = np.random.default_rng(41)
    x = t(rng.normal(size=(14, 3)), name="x")
    w = t(rng.normal(size=(3, 3, 4)) * 0.4, name="w")
    b = t(rng.normal(size=(4,)) * 0.1, name="b")
    fill = np.ones((14, 1))
    fill[[5, 6]] = 0.0
    starts = np.array([0, 1, 4, 8, 9, 10, 11])
    first_window = np.array([0, 2, 3])  # rows of h where each statement starts
    coeff = ad.constant(rng.normal(size=(3, 4)))

    def build():
        h = ad.maximum_const(ad.conv1d(ad.mul(x, ad.constant(fill)), w, b,
                                       starts), 0.0)
        pooled = ad.segment_max(h, first_window)
        return ad.reduce_sum(ad.mul(pooled, coeff))

    report = finite_difference_check(build, {"x": x, "w": w, "b": b}, h=1e-5)
    assert report.max_rel_error < 1e-4
    x.grad = None
    ad.backward(build())
    assert np.all(x.grad[[5, 6, 7]] == 0.0)
    assert np.any(x.grad[:5] != 0.0) and np.any(x.grad[8:] != 0.0)


def test_conv1d_rejects_windows_outside_the_input():
    x = t(np.ones((5, 2)))
    w = t(np.ones((3, 2, 2)))
    b = t(np.zeros(2))
    assert ad.conv1d(x, w, b, np.array([0, 2])).data.shape == (2, 2)
    for bad in ([3], [-1]):
        with pytest.raises(ad.GraphError):
            ad.conv1d(x, w, b, np.array(bad))
    with pytest.raises(ad.GraphError):
        ad.conv1d(x, t(np.ones((3, 4, 2))), b, np.array([0]))


def test_fd_dropout_with_fixed_stream():
    rng = np.random.default_rng(31)
    x = t(rng.normal(size=(4, 5)) + 2.0, name="x")

    def build():
        stream = np.random.default_rng(77)  # identical mask every call
        return ad.reduce_sum(ad.exp(ad.scale(ad.dropout(x, 0.8, stream), 0.2)))

    report = finite_difference_check(build, {"x": x}, h=1e-5)
    assert report.max_rel_error < 1e-4


def test_fd_sigmoid_gate_chain_tight():
    rng = np.random.default_rng(37)
    w = t(rng.normal(size=(3, 3)), name="w")
    x = ad.constant(rng.normal(size=(2, 3)))

    def build():
        return ad.reduce_mean(ad.sigmoid(ad.matmul(x, w)))

    report = finite_difference_check(build, {"w": w}, h=1e-5)
    assert report.max_rel_error < 1e-5


def test_fd_linear_layer_very_tight():
    rng = np.random.default_rng(41)
    w = t(rng.normal(size=(4, 3)), name="w")
    b = t(rng.normal(size=(3,)), name="b")
    x = ad.constant(rng.normal(size=(5, 4)))
    target = ad.constant(rng.normal(size=(5, 3)))

    def build():
        diff = ad.add(ad.add(ad.matmul(x, w), b), ad.scale(target, -1.0))
        return ad.reduce_sum(ad.mul(diff, diff))

    report = finite_difference_check(build, {"w": w, "b": b}, h=1e-5)
    assert report.max_rel_error < 1e-6


def test_fd_zero_gradient_parameter():
    dead = t([[0.5, -0.2]], name="dead")
    live = t([[1.5]], name="live")

    def build():
        return ad.reduce_sum(ad.mul(live, live))

    report = finite_difference_check(build, {"dead": dead, "live": live}, h=1e-5)
    assert report.per_param["dead"] == 0.0

    # independent FD agrees the gradient is tiny
    def f(v):
        dead.data = v.copy()
        return build().item()

    fd = central_difference(f, dead.data)
    assert np.all(np.abs(fd) < 1e-7)


def test_fd_random_graph_property():
    # 100 random small graphs mixing the elementwise and matrix primitives
    rng = np.random.default_rng(101)
    for case in range(100):
        n, m_, k = rng.integers(2, 5, size=3)
        a = t(rng.normal(size=(n, m_)), name="a")
        b = t(rng.normal(size=(m_, k)), name="b")
        c = t(rng.normal(size=(n, k)) + 2.5, name="c")
        pick = case % 5

        def build():
            h = ad.matmul(a, b)
            if pick == 0:
                h = ad.maximum_const(ad.add(h, ad.constant(0.37)), 0.0)
            elif pick == 1:
                h = ad.sigmoid(h)
            elif pick == 2:
                h = ad.mul(ad.sigmoid(h), c)
            elif pick == 3:
                h = ad.div(h, ad.sqrt(ad.mul(c, c)))
            else:
                h = ad.softmax(h, axis=1)
            return ad.reduce_mean(ad.mul(h, h))

        report = finite_difference_check(build, {"a": a, "b": b, "c": c}, h=1e-5)
        assert report.max_rel_error < 1e-4, f"case {case}: {report.flagged[:3]}"


def test_deep_chain_does_not_recurse():
    x = t(np.array([1.0]))
    node = x
    for _ in range(3000):
        node = ad.add(node, ad.constant(0.001))
    ad.backward(ad.reduce_sum(node))
    assert x.grad == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# dropout semantics


def test_dropout_eval_is_identity():
    x = t(np.random.default_rng(5).normal(size=(3, 3)))
    out = ad.dropout(x, 0.8, None)
    assert out is x


def test_dropout_train_mean_preserved():
    rng = np.random.default_rng(7)
    x = np.full((100_000, 4), 2.0)
    out = ad.dropout(t(x, grad=False), 0.8, rng)
    rel = np.abs(out.data.mean(axis=0) - 2.0) / 2.0
    assert np.all(rel < 0.02)


def test_dropout_deterministic_given_seed():
    x = t(np.random.default_rng(9).normal(size=(50, 8)))
    a = ad.dropout(x, 0.8, np.random.default_rng(1234)).data
    b = ad.dropout(x, 0.8, np.random.default_rng(1234)).data
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# Adam and clipping


def test_adam_zero_gradient_keeps_parameters():
    store = ParameterStore()
    p = store.add("w", np.array([1.0, -2.0]))
    p.grad = np.zeros(2)
    Adam().step(store)
    assert np.array_equal(p.data, [1.0, -2.0])


def test_adam_first_step_magnitude():
    store = ParameterStore()
    p = store.add("w", np.array([0.0]))
    p.grad = np.array([1.0])
    Adam(lr=1e-3).step(store)
    assert p.data[0] == pytest.approx(-1e-3, rel=1e-6)


def test_adam_three_steps_match_reference_trace():
    store = ParameterStore()
    p = store.add("w", np.array([0.0]))
    opt = Adam(lr=1e-3)
    expected = adam_reference_trace([1.0, 1.0, 1.0], lr=1e-3)
    for step in range(3):
        p.grad = np.array([1.0])
        opt.step(store)
        assert abs(p.data[0] - expected[step]) < 1e-12


def test_adam_matches_reference_step_exactly():
    rng = np.random.default_rng(12)
    shape = (7, 5)
    store = ParameterStore()
    p = store.add("w", rng.normal(size=shape))
    data = p.data
    ref_p, ref_m, ref_v = p.data.copy(), np.zeros(shape), np.zeros(shape)
    opt = Adam(lr=3e-3)
    for step in range(1, 6):
        g = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 3)
        g[step::4] = 0.0  # all-zero gradient rows
        p.grad = g
        opt.step(store)
        ref_p, ref_m, ref_v = adam_reference_step(ref_p, g, ref_m, ref_v, step, lr=3e-3)
        assert p.data is data
        assert np.array_equal(p.data, ref_p)


def test_adam_reach_matches_reference_as_the_prefix_grows_and_shrinks():
    """Adam updates each parameter only up to the last row any step so far
    gave a nonzero gradient. Every step matches the whole-array reference
    bit for bit, and rows with nonzero moments keep moving after a step
    whose gradient stops short of them."""
    rng = np.random.default_rng(31)
    shapes = {"w": (12, 3), "b": (9,), "k": (6, 2, 2)}
    store = ParameterStore()
    params = {n: store.add(n, rng.normal(size=s)) for n, s in shapes.items()}
    ref = {n: (p.data.copy(), np.zeros(p.shape), np.zeros(p.shape))
           for n, p in params.items()}
    opt = Adam(lr=3e-3)
    reach = 0
    for step, reached in enumerate([3, 7, 2, 0, 5, 12], start=1):
        before = params["w"].data.copy()
        for p in params.values():
            p.grad = rng.normal(size=p.shape)
            p.grad[reached:] = 0.0
        opt.step(store)
        for n, p in params.items():
            ref_p, ref_m, ref_v = ref[n]
            ref[n] = adam_reference_step(ref_p, p.grad, ref_m, ref_v, step, lr=3e-3)
            assert np.array_equal(p.data, ref[n][0]), (n, step)
        reach = max(reach, reached)
        moved = np.flatnonzero((params["w"].data != before).any(axis=1))
        assert moved.tolist() == list(range(reach))


@pytest.mark.parametrize("b, rows, dim, hidden, longest", [
    (128, 100, 150, 300, 17),  # the default shape
    (64, 40, 32, 300, 11),     # the A5 shape
    (40, 14, 10, 24, 13),      # the margin reaches the full width
    (7, 40, 32, 30, 5),        # too few rows: full-width products
    (33, 40, 8, 12, 0),        # no live column
])
def test_affine_live_width_backward_matches_dense_oracle(b, rows, dim, hidden, longest):
    """With the columns from `live` on zero, the live-width backward gives
    the dense backward's dw rows and dx columns up to `live` bit for bit,
    on one BLAS thread, and exact zeros in the dw rows past it."""
    rng = np.random.default_rng(b * rows + longest)
    live = longest * dim
    x = rng.normal(size=(b, rows * dim))
    x[:, live:] = 0.0
    w = rng.normal(size=(rows * dim, hidden))
    bias = rng.normal(size=hidden)
    g = rng.normal(size=(b, hidden))
    xt, wt, bt = (ad.Tensor(a, requires_grad=True) for a in (x, w, bias))
    out = ad.affine(xt, wt, bt, live=live)
    assert np.array_equal(out.data, x @ w + bias)
    with one_blas_thread():
        ad.backward(ad.reduce_sum(ad.mul(out, ad.constant(g))))
        dx, dw, db = dense_affine_grads(x, w, g)
    assert np.array_equal(wt.grad[:live], dw[:live])
    assert not wt.grad[live:].any()
    assert np.array_equal(xt.grad[:, :live], dx[:, :live])
    assert np.array_equal(bt.grad, db)


def test_affine_rejects_live_width_outside_the_columns():
    x, w, b = ad.constant(np.ones((2, 3))), ad.constant(np.ones((3, 4))), ad.constant(np.ones(4))
    for live in (-1, 4):
        with pytest.raises(ad.GraphError, match="live width"):
            ad.affine(x, w, b, live=live)


def test_adam_untouched_group_stays_put():
    # a parameter without a gradient keeps its value and starts no step
    # count: its first later update is bias-corrected at t = 1, size lr
    store = ParameterStore()
    a = store.add("a", np.array([1.0]))
    b = store.add("b", np.array([1.0]))
    opt = Adam(lr=1e-3)
    for _ in range(3):
        a.grad = np.array([1.0])
        opt.step(store)
    assert a.data[0] != 1.0
    assert b.data[0] == 1.0
    b.grad = np.array([1.0])
    opt.step(store)
    assert b.data[0] == pytest.approx(1.0 - 1e-3, rel=1e-9)


def test_clip_below_threshold_unchanged():
    g = [np.array([3.0, 4.0])]
    norm = clip_gradients(g, 10.0)
    assert norm == pytest.approx(5.0)
    assert np.array_equal(g[0], [3.0, 4.0])


def test_clip_scales_to_max_norm():
    g = [np.array([3.0, 4.0])]
    clip_gradients(g, 1.0)
    assert np.allclose(g[0], [0.6, 0.8])


def test_clip_zero_gradients_unchanged():
    g = [np.zeros(3)]
    clip_gradients(g, 1.0)
    assert np.array_equal(g[0], np.zeros(3))


def test_clip_norm_is_bit_identical_to_a_fresh_square_per_gradient():
    """The reused square buffer sums each gradient as np.sum(g * g) does:
    1-, 2- and 3-D gradients, a classifier/w0-shaped one at the default
    shape (15,000 x 300) ahead of smaller ones, and a transposed view. The
    entries span many magnitudes, so a square sum taken in another order
    (the buffer read as the wrong layout) moves its last bits."""
    rng = np.random.default_rng(5)
    grads = [rng.normal(size=shape) * np.exp(3.0 * rng.normal(size=shape))
             for shape in ((15000, 300), (37,), (129, 65), (3, 150, 150), (40, 7))]
    grads = grads[:4] + [grads[4].T, np.array(0.5)]
    for g in grads:
        want = math.sqrt(float(np.sum(g * g)))
        assert clip_gradients([g], want * 2) == want
    want = math.sqrt(sum(float(np.sum(g * g)) for g in grads))
    copies = [g.copy() for g in grads]
    assert clip_gradients(grads, want * 2) == want
    for g, c in zip(grads, copies):
        assert np.array_equal(g, c)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=12),
       st.floats(0.01, 20.0))
def test_clip_never_increases_norm(values, max_norm):
    g = [np.asarray(values, dtype=np.float64)]
    before = float(np.sqrt((g[0] ** 2).sum()))
    clip_gradients(g, max_norm)
    after = float(np.sqrt((g[0] ** 2).sum()))
    assert after <= max(max_norm + 1e-9, before + 1e-12)
    assert after <= before + 1e-12


def test_parameter_store_rejects_duplicates():
    store = ParameterStore()
    store.add("w", np.zeros(2))
    with pytest.raises(ad.GraphError):
        store.add("w", np.zeros(2))
