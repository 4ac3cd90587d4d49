"""Classifier losses, random-mask loss, k-means, and the contrastive term."""
import math
import re

import numpy as np
import pytest

import leo.autodiff as ad
from leo.autodiff import GraphError
from leo.encoder import encode_batch, init_encoder_params
from leo.losses import (
    assign_clusters,
    batch_cross_entropy,
    classifier_forward,
    cluster_contrastive_loss,
    data_distribution_loss,
    gated_block,
    init_classifier_params,
    joint_loss,
    minibatch_kmeans,
    peer_weights,
    unit_rows,
)
from leo.optim import ParameterStore
from leo.selector import init_selector_params

from oracles import (
    direct_contrastive_loss,
    exhaustive_mask_expectation,
    finite_difference_check,
    hand_cosine,
    kmeans_inertia,
    kmeans_inertia_history,
    lloyd_reference,
    padded_block,
    padded_losses,
)


def single_ce(probs, label):
    """batch_cross_entropy on a batch of one probability pair."""
    return batch_cross_entropy(ad.constant(np.array([probs], dtype=float)),
                               [label]).item()


def masked_ce(x, gates, lengths, labels, params):
    """Cross-entropy of the shared gate-masking pass under constant gates."""
    block = gated_block(x, ad.constant(np.asarray(gates, dtype=float)), lengths)
    return batch_cross_entropy(classifier_forward(block, params), labels).item()


def make_classifier(input_dim, hidden=(6, 5), seed=0):
    store = ParameterStore()
    params = init_classifier_params(store, input_dim, np.random.default_rng(seed),
                                    hidden_sizes=hidden)
    return store, params


# ---------------------------------------------------------------------------
# classifier forward


def test_classifier_outputs_probabilities():
    _, params = make_classifier(8)
    x = ad.constant(np.random.default_rng(1).normal(size=(5, 1, 8)))
    probs = classifier_forward(x, params).data
    assert probs.shape == (5, 2)
    np.testing.assert_allclose(probs.sum(axis=1), np.ones(5), atol=1e-12)
    assert np.all(probs > 0)


def test_classifier_single_sample_matches_batch_row():
    _, params = make_classifier(8)
    rows = np.random.default_rng(2).normal(size=(3, 1, 8))
    batch = classifier_forward(ad.constant(rows), params).data
    for i in range(3):
        one = classifier_forward(ad.constant(rows[i:i + 1]), params).data
        assert one.shape == (1, 2)
        np.testing.assert_allclose(one[0], batch[i], atol=1e-12, rtol=0)


# ---------------------------------------------------------------------------
# cross-entropy


def test_cross_entropy_worked_values():
    assert single_ce([0.25, 0.75], 1) == pytest.approx(-math.log(0.75), abs=1e-12)
    assert single_ce([1.0, 0.0], 0) == pytest.approx(0.0, abs=1e-12)
    assert single_ce([0.5, 0.5], 0) == pytest.approx(math.log(2), abs=1e-12)
    assert single_ce([0.5, 0.5], 1) == pytest.approx(math.log(2), abs=1e-12)


def test_cross_entropy_clamps_zero_probability():
    loss = single_ce([1.0, 0.0], 1)
    assert loss == pytest.approx(-math.log(1e-12), rel=1e-9)


def test_cross_entropy_rejects_bad_inputs():
    with pytest.raises(GraphError):
        single_ce([0.5, 0.5], 2)
    with pytest.raises(GraphError):
        single_ce([0.2, 0.3, 0.5], 0)


def test_batch_cross_entropy_is_mean_of_singles():
    rng = np.random.default_rng(3)
    raw = rng.uniform(0.05, 1.0, size=(6, 2))
    probs = raw / raw.sum(axis=1, keepdims=True)
    labels = rng.integers(0, 2, size=6)
    batch = batch_cross_entropy(ad.constant(probs), labels).item()
    singles = [-math.log(probs[i, labels[i]]) for i in range(6)]
    assert batch == pytest.approx(np.mean(singles), abs=1e-12)
    with pytest.raises(GraphError):
        batch_cross_entropy(ad.constant(probs), np.array([0, 1, 2, 0, 1, 0]))


def test_cross_entropy_gradient_matches_finite_differences():
    store, params = make_classifier(6, hidden=(5, 4), seed=4)
    x = ad.constant(np.random.default_rng(5).normal(size=(4, 1, 6)))
    labels = np.array([0, 1, 1, 0])

    def loss_fn():
        return batch_cross_entropy(classifier_forward(x, params), labels)

    report = finite_difference_check(loss_fn, dict(store.items()),
                                     rng=np.random.default_rng(0))
    assert report.ok(1e-4), report


# ---------------------------------------------------------------------------
# data-distribution loss


def dd_setup(seed=6, b=3, rows=4, dim=3):
    """b full-length functions: their (b * rows, dim) statement rows."""
    rng = np.random.default_rng(seed)
    x = ad.constant(rng.normal(size=(b * rows, dim)))
    lengths = np.array([rows] * b)
    labels = rng.integers(0, 2, size=b)
    store, params = make_classifier(rows * dim, hidden=(5, 4), seed=seed + 1)
    return x, lengths, labels, store, params


def test_distribution_loss_all_ones_mask_is_plain_ce():
    x, lengths, labels, _, params = dd_setup()
    ones = np.ones(12)
    got = masked_ce(x, ones, lengths, labels, params)
    block = ad.reshape(x, (3, 4, 3))
    want = batch_cross_entropy(classifier_forward(block, params), labels).item()
    assert got == pytest.approx(want, abs=1e-12)


def test_distribution_loss_all_zero_mask_is_label_symmetric():
    x, lengths, labels, _, params = dd_setup()
    zeros = np.zeros(12)
    labels = np.array([1, 1, 0])
    got = masked_ce(x, zeros, lengths, labels, params)
    zero_in = classifier_forward(ad.constant(np.zeros((1, 4, 3))), params).data[0]
    per_label = [-math.log(max(zero_in[y], 1e-12)) for y in labels]
    assert got == pytest.approx(np.mean(per_label), abs=1e-12)


def test_distribution_loss_forces_padded_rows_to_zero():
    """Functions of 2 and 3 statements under all-one gates: the classifier
    reads them as its full 4-slot input with zero rows after them."""
    rows = np.random.default_rng(7).normal(size=(5, 3))
    labels = np.array([0, 1])
    _, params = make_classifier(12, seed=8)
    got = masked_ce(ad.constant(rows), np.ones(5), [2, 3], labels, params)
    block = ad.constant(padded_block(rows, [2, 3], 4))
    want = batch_cross_entropy(classifier_forward(block, params), labels).item()
    assert got == pytest.approx(want, abs=1e-12)


def test_distribution_loss_monte_carlo_matches_exhaustive_masks():
    rng = np.random.default_rng(9)
    x = ad.constant(rng.normal(size=(3, 3)))
    labels = np.array([1])
    _, params = make_classifier(9, hidden=(5, 4), seed=10)

    def ce_of_mask(mask):
        return masked_ce(x, mask, [3], labels, params)

    exact = exhaustive_mask_expectation(ce_of_mask, 3)
    draw_rng = np.random.default_rng(11)
    draws = [data_distribution_loss(x, [3], labels, params, relax_temp=0.01,
                                    rng=draw_rng).item()
             for _ in range(1000)]
    assert abs(np.mean(draws) - exact) <= 0.05 * abs(exact)


def test_distribution_loss_never_touches_selector():
    store = ParameterStore()
    rng = np.random.default_rng(12)
    enc = init_encoder_params(store, 9, 3, rng)
    sel = init_selector_params(store, 3, rng, hidden_sizes=(4, 4, 4))
    clf = init_classifier_params(store, 4 * 3, rng, hidden_sizes=(5, 4))
    batch = [[[2, 3], [4, 5, 6]], [[7]]]
    x, lengths, _ = encode_batch(batch, enc, max_statements=4)
    loss = data_distribution_loss(x, lengths, [0, 1], clf, relax_temp=0.5,
                                  rng=np.random.default_rng(13))
    ad.backward(loss)
    for name, t in store.items():
        if name.startswith("selector/"):
            assert t.grad is None
    assert enc.embedding.grad is not None
    assert clf.head[0].grad is not None


def test_distribution_loss_input_checks():
    x, lengths, labels, _, params = dd_setup()
    with pytest.raises(GraphError):
        data_distribution_loss(x, lengths, labels, params, relax_temp=0.5, rng=None)
    with pytest.raises(GraphError):
        masked_ce(x, np.ones(13), lengths, labels, params)
    with pytest.raises(GraphError):
        masked_ce(x, np.ones(12), [4, 4, 3], labels, params)


# ---------------------------------------------------------------------------
# k-means


def test_kmeans_single_cluster_is_mean():
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 3.0]])
    res = minibatch_kmeans(pts, 1, np.random.default_rng(0))
    np.testing.assert_allclose(res.centroids[0], pts.mean(axis=0), atol=1e-12)
    assert res.k_effective == 1
    np.testing.assert_array_equal(res.labels, [0, 0, 0])


def test_kmeans_two_points_two_clusters():
    pts = np.array([[0.0, 0.0], [5.0, 5.0]])
    res = minibatch_kmeans(pts, 2, np.random.default_rng(1))
    assert res.k_effective == 2
    assert set(res.labels.tolist()) == {0, 1}
    assert kmeans_inertia(pts, res) == pytest.approx(0.0, abs=1e-15)


def test_kmeans_separated_blobs_match_reference():
    rng = np.random.default_rng(2)
    blob_a = rng.normal(size=(20, 2)) * 0.1
    blob_b = rng.normal(size=(20, 2)) * 0.1 + 10.0
    pts = np.vstack([blob_a, blob_b])
    res = minibatch_kmeans(pts, 2, np.random.default_rng(3))
    assert len(set(res.labels[:20].tolist())) == 1
    assert len(set(res.labels[20:].tolist())) == 1
    assert res.labels[0] != res.labels[20]
    _, _, ref_inertia = lloyd_reference(pts, np.vstack([pts[0], pts[20]]))
    assert kmeans_inertia(pts, res) == pytest.approx(ref_inertia, abs=1e-9)


def test_kmeans_identical_points_fill_every_cluster():
    pts = np.zeros((3, 2))
    res = minibatch_kmeans(pts, 3, np.random.default_rng(4))
    assert sorted(res.labels.tolist()) == [0, 1, 2]
    assert kmeans_inertia(pts, res) == pytest.approx(0.0, abs=1e-15)


def test_kmeans_effective_count_and_edges():
    pts = np.random.default_rng(5).normal(size=(2, 3))
    res = minibatch_kmeans(pts, 7, np.random.default_rng(6))
    assert res.k_effective == 2
    empty = minibatch_kmeans(np.zeros((0, 3)), 3, np.random.default_rng(7))
    assert empty.k_effective == 0 and empty.labels.size == 0
    with pytest.raises(GraphError):
        minibatch_kmeans(pts, 0, np.random.default_rng(8))


@pytest.mark.parametrize("seed", range(6))
def test_kmeans_inertia_never_increases(seed):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(rng.integers(5, 40), rng.integers(2, 6)))
    k = int(rng.integers(1, 6))
    hist = kmeans_inertia_history(pts, k, rng, max_iters=10)
    res = minibatch_kmeans(pts, k, rng)
    assert all(hist[i + 1] <= hist[i] + 1e-12 for i in range(len(hist) - 1))
    counts = np.bincount(res.labels, minlength=res.k_effective)
    assert np.all(counts >= 1)


def test_kmeans_deterministic_for_seed():
    pts = np.random.default_rng(9).normal(size=(15, 3))
    a = minibatch_kmeans(pts, 3, np.random.default_rng(42))
    b = minibatch_kmeans(pts, 3, np.random.default_rng(42))
    np.testing.assert_array_equal(a.labels, b.labels)
    np.testing.assert_array_equal(a.centroids, b.centroids)


# ---------------------------------------------------------------------------
# flatten and cosine


def test_flatten_examples():
    _, clf = make_classifier(6, hidden=(5,), seed=15)
    x = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0],  # function 0
                  [0.5, -1.0], [2.0, 0.0]])             # function 1
    z = np.array([0.0, 1.0, 0.5, 1.0, 1.0])
    block = gated_block(ad.constant(x), ad.constant(z), [3, 2])
    probs = classifier_forward(block, clf)
    np.testing.assert_array_equal(block.data, [[[0.0, 0.0], [3.0, 4.0], [2.5, 3.0]],
                                               [[0.5, -1.0], [2.0, 0.0], [0.0, 0.0]]])
    # the classifier sees each gated (rows, dim) matrix flattened row-major
    flat = np.array([[0.0, 0.0, 3.0, 4.0, 2.5, 3.0],
                     [0.5, -1.0, 2.0, 0.0, 0.0, 0.0]])
    want = classifier_forward(ad.constant(flat[:, None]), clf).data
    np.testing.assert_allclose(probs.data, want, atol=1e-15, rtol=0)


def test_cosine_examples_and_oracle():
    def cos(u, v):
        unit = unit_rows(np.array([u, v], dtype=float))
        return float(unit[0] @ unit[1])

    assert cos([1, 0], [1, 0]) == pytest.approx(1.0)
    assert cos([1, 0], [0, 1]) == pytest.approx(0.0)
    assert cos([1, 2], [2, 4]) == pytest.approx(1.0)
    assert cos([0, 0], [1, 2]) == 0.0
    rng = np.random.default_rng(10)
    for _ in range(20):
        u, v = rng.normal(size=(2, 5))
        assert cos(u, v) == pytest.approx(hand_cosine(u, v), abs=1e-12)


def test_unit_rows_keeps_zero_rows():
    x = np.array([[3.0, 4.0], [0.0, 0.0]])
    out = unit_rows(x)
    np.testing.assert_allclose(out[0], [0.6, 0.8], atol=1e-15)
    assert np.all(out[1] == 0.0)


# ---------------------------------------------------------------------------
# cluster assignment


def test_assign_no_vulnerable():
    reps = np.random.default_rng(11).normal(size=(4, 6))
    got = assign_clusters(reps, [0, 0, 0, 0], 3, np.random.default_rng(0))
    np.testing.assert_array_equal(got.cluster_of, [-1, -1, -1, -1])
    assert got.k_effective == 0


def test_assign_supervised_class_variant():
    reps = np.random.default_rng(12).normal(size=(5, 6))
    got = assign_clusters(reps, [1, 0, 1, 1, 0], 3, np.random.default_rng(0),
                          variant="supervised-class")
    np.testing.assert_array_equal(got.cluster_of, [0, -1, 0, 0, -1])
    assert got.k_effective == 1


def test_assign_cluster_variant_ranges():
    rng = np.random.default_rng(13)
    reps = rng.normal(size=(8, 6))
    labels = [1, 1, 0, 1, 1, 0, 1, 0]
    got = assign_clusters(reps, labels, 3, np.random.default_rng(1))
    for i, y in enumerate(labels):
        if y == 1:
            assert 0 <= got.cluster_of[i] < got.k_effective
        else:
            assert got.cluster_of[i] == -1
    assert got.k_effective == 3

    few = assign_clusters(reps, [1, 1, 0, 0, 0, 0, 0, 0], 5,
                          np.random.default_rng(2))
    assert few.k_effective == 2


def test_assign_is_scale_invariant():
    rng = np.random.default_rng(14)
    reps = rng.normal(size=(6, 4))
    labels = [1, 1, 1, 1, 0, 0]
    a = assign_clusters(reps, labels, 2, np.random.default_rng(3))
    b = assign_clusters(reps * 7.0, labels, 2, np.random.default_rng(3))
    np.testing.assert_array_equal(a.cluster_of, b.cluster_of)


def test_assign_rejects_unknown_variant():
    with pytest.raises(GraphError):
        assign_clusters(np.zeros((2, 2)), [1, 1], 2, np.random.default_rng(0),
                        variant="spectral")


# ---------------------------------------------------------------------------
# contrastive loss


def contrastive_value(reps, labels, cluster_of, tau):
    masked = ad.constant(np.asarray(reps, dtype=float))
    return cluster_contrastive_loss(masked, peer_weights(labels, cluster_of), tau)


def test_contrastive_identical_pair_is_zero():
    reps = np.array([[1.0, 2.0, 0.5]] * 2)
    loss = contrastive_value(reps, [1, 1], [0, 0], 0.5).item()
    assert loss == pytest.approx(0.0, abs=1e-12)


def test_contrastive_skips_anchor_without_peers():
    reps = np.random.default_rng(15).normal(size=(3, 4))
    loss = contrastive_value(reps, [1, 0, 0], [0, -1, -1], 1.0).item()
    assert loss == 0.0
    lonely = contrastive_value(reps[:1], [1], [0], 1.0).item()
    assert lonely == 0.0


def test_contrastive_three_sample_hand_case():
    # two vulnerable samples in one cluster plus one benign sample
    reps = [np.array([1.0, 0.0, 0.0]),
            np.array([0.9, np.sqrt(1 - 0.81), 0.0]),
            np.array([0.1, 0.0, np.sqrt(1 - 0.01)])]
    labels = [1, 1, 0]
    loss = contrastive_value(np.stack(reps), labels, [0, 0, -1], 1.0).item()
    want = direct_contrastive_loss(reps, labels, {0: 0, 1: 0}, 1.0)
    assert loss == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_contrastive_matches_direct_oracle(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 7))
    reps = rng.normal(size=(m, 5))
    labels = rng.integers(0, 2, size=m).tolist()
    clusters = {i: int(rng.integers(0, 2)) for i in range(m) if labels[i] == 1}
    cluster_of = np.array([clusters.get(i, -1) for i in range(m)])
    tau = float(rng.choice([0.5, 1.0]))
    loss = contrastive_value(reps, labels, cluster_of, tau).item()
    want = direct_contrastive_loss(list(reps), labels, clusters, tau)
    assert loss == pytest.approx(want, abs=1e-10)


def test_contrastive_supervised_equals_cluster_when_labels_coincide():
    rng = np.random.default_rng(16)
    reps = rng.normal(size=(5, 4))
    labels = [1, 1, 0, 1, 0]
    one_cluster = np.array([0, 0, -1, 0, -1])
    a = contrastive_value(reps, labels, one_cluster, 0.5).item()
    sup = assign_clusters(reps, labels, 3, np.random.default_rng(0),
                          variant="supervised-class")
    b = contrastive_value(reps, labels, sup.cluster_of, 0.5).item()
    assert a == b


def test_contrastive_scale_invariance():
    rng = np.random.default_rng(17)
    reps = rng.normal(size=(4, 6))
    labels = [1, 1, 1, 0]
    cluster_of = np.array([0, 0, 1, -1])
    a = contrastive_value(reps, labels, cluster_of, 0.5).item()
    b = contrastive_value(reps * 123.0, labels, cluster_of, 0.5).item()
    assert a == pytest.approx(b, rel=1e-9)


def test_contrastive_drops_when_positive_gets_closer():
    anchor = np.array([1.0, 0.0])
    benign = np.array([-1.0, 0.5])
    labels = [1, 1, 0]
    cluster_of = np.array([0, 0, -1])
    far = np.stack([anchor, [0.0, 1.0], benign])
    near = np.stack([anchor, [0.9, 0.1], benign])
    loss_far = contrastive_value(far, labels, cluster_of, 0.5).item()
    loss_near = contrastive_value(near, labels, cluster_of, 0.5).item()
    assert loss_near < loss_far
    assert np.isfinite(loss_far) and np.isfinite(loss_near)


def test_contrastive_rejects_bad_temperature():
    with pytest.raises(GraphError):
        contrastive_value(np.zeros((2, 2)), [1, 1], [0, 0], 0.0)


# ---------------------------------------------------------------------------
# joint loss


def joint_setup(seed=18, b=4, rows=5, dim=4):
    rng = np.random.default_rng(seed)
    store = ParameterStore()
    sel = init_selector_params(store, dim, rng, hidden_sizes=(5, 4, 3))
    clf = init_classifier_params(store, rows * dim, rng, hidden_sizes=(6, 5))
    lengths = np.array([rows, rows - 1, rows, rows - 2])[:b]
    x = ad.constant(rng.normal(size=(lengths.sum(), dim)))
    labels = np.array([1, 1, 0, 1])[:b]
    return store, sel, clf, x, lengths, labels


def test_joint_loss_weight_zero_is_plain_ce():
    _, sel, clf, x, lengths, labels = joint_setup()
    parts = joint_loss(x, lengths, labels, sel, clf, relax_temp=0.5,
                       temperature=0.5, contrastive_weight=0.0, clusters=3,
                       rng=np.random.default_rng(0))
    assert parts.total is parts.cross_entropy
    assert parts.contrastive.item() == 0.0
    assert parts.assignment is None


def test_joint_loss_forced_gates_is_classification_loss():
    _, sel, clf, x, lengths, labels = joint_setup()
    # a selector head bias this large saturates every gate at exactly one
    sel.head[1].data = np.full(sel.head[1].data.shape, 1e3)
    parts = joint_loss(x, lengths, labels, sel, clf, relax_temp=0.5,
                       temperature=0.5, contrastive_weight=0.0, clusters=3,
                       rng=np.random.default_rng(4))
    np.testing.assert_array_equal(parts.gates.data, np.ones(lengths.sum()))
    block = ad.constant(padded_block(x.data, lengths, 5))
    want = batch_cross_entropy(classifier_forward(block, clf), labels).item()
    assert parts.total.item() == pytest.approx(want, abs=1e-12)


def test_joint_loss_total_is_ce_plus_weighted_contrastive():
    _, sel, clf, x, lengths, labels = joint_setup()
    parts = joint_loss(x, lengths, labels, sel, clf, relax_temp=0.5,
                       temperature=0.5, contrastive_weight=0.3, clusters=2,
                       rng=np.random.default_rng(1))
    assert parts.total.item() == pytest.approx(
        parts.cross_entropy.item() + 0.3 * parts.contrastive.item(), abs=1e-12)
    assert parts.assignment is not None
    vuln = labels == 1
    assert np.all(parts.assignment.cluster_of[vuln] >= 0)
    assert np.all(parts.assignment.cluster_of[~vuln] == -1)


def test_joint_loss_gates_respect_padding_and_range():
    """One gate per real statement, none for the slots past a function's
    end, each strictly inside (0, 1)."""
    _, sel, clf, x, lengths, labels = joint_setup()
    parts = joint_loss(x, lengths, labels, sel, clf, relax_temp=0.5,
                       temperature=0.5, contrastive_weight=0.1, clusters=2,
                       rng=np.random.default_rng(2))
    z = parts.gates.data
    assert z.shape == (lengths.sum(),)
    assert np.all((z > 0.0) & (z < 1.0))


def test_joint_loss_deterministic_given_rng():
    _, sel, clf, x, lengths, labels = joint_setup()
    a = joint_loss(x, lengths, labels, sel, clf, relax_temp=0.5,
                   temperature=0.5, contrastive_weight=0.1, clusters=2,
                   rng=np.random.default_rng(3))
    b = joint_loss(x, lengths, labels, sel, clf, relax_temp=0.5,
                   temperature=0.5, contrastive_weight=0.1, clusters=2,
                   rng=np.random.default_rng(3))
    assert a.total.item() == b.total.item()


def test_joint_loss_z_override_blocks_selector_gradient():
    """Constant gates through the shared pass leave the selector out of the
    graph of both loss terms."""
    store, sel, clf, x, lengths, labels = joint_setup()
    masked = gated_block(x, ad.constant(np.full(lengths.sum(), 0.7)), lengths)
    probs = classifier_forward(masked, clf)
    ccl = cluster_contrastive_loss(
        masked, peer_weights(labels, np.array([0, 0, -1, 0])), 0.5)
    ad.backward(ad.add(batch_cross_entropy(probs, labels), ad.scale(ccl, 0.1)))
    for name, t in store.items():
        if name.startswith("selector/"):
            assert t.grad is None
        if name.startswith("classifier/"):
            assert t.grad is not None


def jitter_biases(store, seed):
    """Move zero-initialized biases to a generic point. Exactly-zero rows
    hitting a zero bias put a ReLU precisely on its kink, where analytic
    subgradients and central differences legitimately disagree."""
    rng = np.random.default_rng(seed)
    for name, t in store.items():
        if t.data.ndim == 1:
            t.data = t.data + rng.normal(scale=0.1, size=t.data.shape)


def test_joint_loss_gradient_matches_finite_differences():
    store, sel, clf, x, lengths, labels = joint_setup(seed=19)
    jitter_biases(store, 30)

    def loss_fn():
        # a fresh stream per call: the same gates and clusters every time
        parts = joint_loss(x, lengths, labels, sel, clf, relax_temp=0.5,
                           temperature=0.5, contrastive_weight=0.1, clusters=2,
                           rng=np.random.default_rng(21))
        return parts.total

    report = finite_difference_check(loss_fn, dict(store.items()),
                                     rng=np.random.default_rng(5))
    assert report.ok(1e-3), report


def test_joint_loss_full_stack_gradient_through_encoder():
    store = ParameterStore()
    rng = np.random.default_rng(22)
    enc = init_encoder_params(store, 8, 3, rng)
    sel = init_selector_params(store, 3, rng, hidden_sizes=(4, 3, 3))
    clf = init_classifier_params(store, 4 * 3, rng, hidden_sizes=(5, 4))
    jitter_biases(store, 31)
    batch = [[[2, 3, 4], [5]], [[6, 7], [3, 4, 5], [2]]]
    labels = np.array([1, 1])

    def loss_fn():
        x, n, _ = encode_batch(batch, enc, max_statements=4)
        parts = joint_loss(x, n, labels, sel, clf, relax_temp=0.5,
                           temperature=0.5, contrastive_weight=0.1, clusters=2,
                           rng=np.random.default_rng(23))
        return parts.total

    report = finite_difference_check(loss_fn, dict(store.items()),
                                     rng=np.random.default_rng(6))
    assert report.ok(1e-3), report


@pytest.mark.parametrize("capped, dropout_seed", [
    (False, None), (True, None), (False, 9), (True, 9)],
    ids=["False", "True", "False-dropout", "True-dropout"])
def test_packed_losses_match_the_dense_padded_oracle(capped, dropout_seed):
    """Both losses on the packed statement rows, through the longest-wide
    block and the classifier's leading first-layer rows, against the
    padded oracle over every max_statements slot: losses and every
    parameter gradient within 1e-12, on a batch of 40 functions, one
    without statements; with `capped`, one function is cut at
    max_statements, so the block is full width. With `dropout_seed`, both
    runs draw selector and classifier hidden dropout from one fresh stream
    of that seed, and the dropout moves both losses."""
    rows, dim = 20, 15
    rng = np.random.default_rng(41)
    store = ParameterStore()
    enc = init_encoder_params(store, 30, dim, rng)
    sel = init_selector_params(store, dim, rng, hidden_sizes=(8, 8))
    clf = init_classifier_params(store, rows * dim, rng, hidden_sizes=(20, 6))
    jitter_biases(store, 42)
    batch = [[rng.integers(2, 30, size=rng.integers(1, 6)).tolist()
              for _ in range(rng.integers(1, 12))] for _ in range(40)]
    batch[3] = []
    if capped:
        batch[7] = [[2, 3]] * (rows + 4)
    labels = rng.integers(0, 2, size=40)

    def dropout_rng(seed=dropout_seed):
        return None if seed is None else np.random.default_rng(seed)

    def packed(seed=dropout_seed):
        drop = dropout_rng(seed)
        x1, n1, _ = encode_batch(batch, enc, rows)
        loss1 = data_distribution_loss(x1, n1, labels, clf, relax_temp=0.5,
                                       rng=np.random.default_rng(2),
                                       dropout_rng=drop)
        x2, n2, _ = encode_batch(batch, enc, rows)
        parts = joint_loss(x2, n2, labels, sel, clf, relax_temp=0.5,
                           temperature=0.5, contrastive_weight=0.1, clusters=2,
                           rng=np.random.default_rng(5), dropout_rng=drop)
        assert n1.max() == (rows if capped else 11)
        return loss1, parts.total

    def padded():
        x, n, _ = encode_batch(batch, enc, rows)
        return padded_losses(x, n, labels, sel, clf,
                             dd_rng=np.random.default_rng(2),
                             joint_rng=np.random.default_rng(5),
                             dropout_rng=dropout_rng())

    results = []
    for run in (packed, padded):
        store.zero_grads()
        losses = run()
        ad.backward(ad.add(*losses))
        results.append(([loss.item() for loss in losses],
                        {n: t.grad for n, t in store.items()}))
    (got, got_grads), (want, want_grads) = results
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    assert got_grads.keys() == want_grads.keys()
    for name, grad in want_grads.items():
        scale = np.abs(grad).max()
        np.testing.assert_allclose(got_grads[name], grad, rtol=0,
                                   atol=1e-12 * scale, err_msg=name)
    w0 = got_grads["classifier/w0"]
    assert not w0[(rows if capped else 11) * dim:].any()
    if dropout_seed is not None:
        plain = [loss.item() for loss in packed(None)]
        assert plain[0] != got[0] and plain[1] != got[1]


def test_classifier_forward_rejects_a_block_it_was_not_built_for():
    """A classifier built for 5 statements of width 3 takes no block of 2-
    or 4-wide rows, none longer than 5 statements, and nothing but an
    (n, rows, dim) block."""
    _, clf = make_classifier(5 * 3, hidden=(4,), seed=17)
    rng = np.random.default_rng(18)
    for dim, lengths in ((2, [2, 3]), (4, [2, 1]), (3, [6, 1])):
        x = ad.constant(rng.normal(size=(sum(lengths), dim)))
        block = gated_block(x, ad.constant(np.ones(sum(lengths))), lengths)
        with pytest.raises(GraphError, match="cannot read"):
            classifier_forward(block, clf)
    for shape in ((2, 15), (2, 5, 3, 1)):
        with pytest.raises(GraphError, match=re.escape(f"shape {shape}")):
            classifier_forward(ad.constant(np.zeros(shape)), clf)
    x = ad.constant(rng.normal(size=(6, 3)))
    block = gated_block(x, ad.constant(np.ones(6)), [5, 1])
    probs = classifier_forward(block, clf)
    assert block.data.shape == (2, 5, 3) and probs.data.shape == (2, 2)


class CountingGenerator:
    """A Generator stand-in that records the size of every `random` draw."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.sizes = []

    def random(self, size=None):
        out = self._rng.random(size)
        self.sizes.append(np.size(out))
        return out

    def __getattr__(self, name):
        return getattr(self._rng, name)


def test_one_step_draws_uniforms_only_for_real_statements():
    """One joint step draws sum(max(L, k)) * dim encoder dropout uniforms,
    S * hidden per selector hidden layer, batch * hidden per classifier
    hidden layer, and 2 * S Gumbel uniforms, S being the kept statements."""
    store = ParameterStore()
    rng = np.random.default_rng(43)
    dim, k, cap = 6, 3, 5
    enc = init_encoder_params(store, 20, dim, rng, kernel_size=k)
    sel = init_selector_params(store, dim, rng, hidden_sizes=(7, 4))
    clf = init_classifier_params(store, cap * dim, rng, hidden_sizes=(9, 5))
    batch = [[[2, 3, 4, 5], [6]], [], [[7, 8]] * 8, [[9, 10, 11, 12, 13, 14]]]
    kept = [s for fn in batch for s in fn[:cap]]
    n = len(kept)
    dropout, gumbel = CountingGenerator(1), CountingGenerator(2)
    x, lengths, _ = encode_batch(batch, enc, cap, rng=dropout)
    joint_loss(x, lengths, [1, 0, 1, 1], sel, clf, relax_temp=0.5,
               temperature=0.5, contrastive_weight=0.1, clusters=2,
               rng=gumbel, dropout_rng=dropout)
    positions = sum(max(len(s), k) for s in kept)
    assert dropout.sizes == [positions * dim, n * 7, n * 4, 4 * 9, 4 * 5]
    assert gumbel.sizes == [n, n]


def test_joint_loss_requires_rng_when_sampling():
    _, sel, clf, x, lengths, labels = joint_setup()
    with pytest.raises(GraphError):
        joint_loss(x, lengths, labels, sel, clf, relax_temp=0.5,
                   temperature=0.5, contrastive_weight=0.1, clusters=2, rng=None)
