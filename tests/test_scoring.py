"""Cluster-conditioned Mahalanobis scoring and threshold calibration."""
import dataclasses
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

import leo.autodiff as ad
import leo.scoring as scoring
import leo.train as train_module
from leo.config import SCORING_MODES, TrainConfig
from leo.data import DatasetRecord
from leo.encoder import encode_batch
from leo.autodiff import GraphError, NumericError
from leo.losses import classifier_forward, gated_block, minibatch_kmeans
from leo.model import (
    ModelArtifact,
    ModelFormatError,
    deserialize_model,
    load_model,
    save_model,
    serialize_model,
)
from leo.optim import ParameterStore
from leo.scoring import (
    ClusterStatistics,
    calibrate_threshold,
    fit_cluster_statistics,
    mahalanobis_scores,
)
from leo.selector import selector_forward
from leo.synth import generate_synthetic
from leo.train import (
    build_training_vocabulary,
    init_model,
    masked_representations,
    model_from_artifact,
    prepare_samples,
    score_records,
)

from oracles import (all_rows_representations, dense_mahalanobis,
                     full_block_representations, kept_rows, nearest_rank,
                     padded_block, sample_mean_cov, slot_mask_representations)

SMALL = dict(max_statements=4, embed_dim=3, vocab_max=100, selector_hidden=(4,),
             classifier_hidden=(5,), batch_size=2, clusters=1)


def mahalanobis_score(rep, stats) -> float:
    """mahalanobis_scores on a batch of one."""
    return float(mahalanobis_scores(np.asarray(rep)[None, :], stats)[0])


def manual_stats(means, inverses):
    means = np.asarray(means, dtype=np.float64)
    inverses = np.asarray(inverses, dtype=np.float64)
    return ClusterStatistics(
        means=means, inverses=inverses,
        counts=np.full(len(means), 2, dtype=np.int64),
        eps_used=np.zeros(len(means)))


# --- scoring representations (masked_representations) ------------------------

FUNCS = [[[2, 3]], [[2, 3], [4, 5, 6], [7]], [], [[8]] * 6, [[3, 4, 5, 6, 7]]]


def representations(mode):
    """Scoring representations of FUNCS from one fixed random model."""
    cfg = TrainConfig(seed=0, scoring_mode=mode, **SMALL)
    params = init_model(cfg, 9, np.random.default_rng(5))
    return masked_representations(params, FUNCS, cfg)[0], params


def test_pooled_single_row_is_the_row():
    pooled, _ = representations("pooled-d")
    concat, _ = representations("concat-diagonal")
    np.testing.assert_array_equal(pooled[0], concat[0][:3])


def test_pooled_means_only_real_rows():
    pooled, _ = representations("pooled-d")
    concat, _ = representations("concat-diagonal")
    for i, f in enumerate(FUNCS):
        rows = concat[i].reshape(4, 3)[:min(len(f), 4)]
        if len(rows):
            np.testing.assert_allclose(pooled[i], rows.mean(axis=0),
                                       atol=1e-15, rtol=0)


def test_pooled_empty_function_is_zero_vector():
    pooled, _ = representations("pooled-d")
    concat, _ = representations("concat-diagonal")
    np.testing.assert_array_equal(pooled[2], np.zeros(3))
    np.testing.assert_array_equal(concat[2], np.zeros(12))


def test_concat_mode_flattens_row_major():
    """The gated (functions, 4, 3) block of the scoring encoding (the packed
    rows), flattened row-major."""
    concat, params = representations("concat-diagonal")
    rows, lengths = kept_rows(encode_batch(FUNCS, params.encoder, 4))
    gates = selector_forward(rows, params.selector).data
    gated = padded_block(rows.data * gates[:, None], lengths, 4)
    np.testing.assert_array_equal(concat, gated.reshape(len(FUNCS), 12))
    assert np.all(concat[1].reshape(4, 3)[3:] == 0.0)


@pytest.mark.parametrize("scoring_mode", ["pooled-d", "concat-diagonal"])
@pytest.mark.parametrize("gate_mode", ["expected", "hard"])
def test_live_row_pass_matches_full_block_oracle(gate_mode, scoring_mode):
    """Scoring only the real statement rows gives the representations and
    max-softmax scores of the pass over every slot, with or without the
    classifier rebuilt; the last batch has no statements at all."""
    artifact, _ = small_artifact(gate_mode=gate_mode, scoring_mode=scoring_mode)
    cfg = artifact.config
    samples = FUNCS + FUNCS[::-1] + [[], []]
    full = model_from_artifact(artifact)
    want_reps, want_msp = full_block_representations(full, samples, cfg)
    reps, msp = masked_representations(full, samples, cfg)
    np.testing.assert_allclose(reps, want_reps, rtol=1e-12, atol=0)
    np.testing.assert_allclose(msp, want_msp, rtol=1e-12, atol=0)
    assert np.any(msp > 0)
    lean = model_from_artifact(artifact, classifier=False)
    reps, msp = masked_representations(lean, samples, cfg)
    assert msp is None
    np.testing.assert_allclose(reps, want_reps, rtol=1e-12, atol=0)


@pytest.mark.parametrize("embed_dim", [1, 2, 3, 32])
@pytest.mark.parametrize("scoring_mode", ["pooled-d", "concat-diagonal"])
def test_shared_block_reps_match_the_slot_mask_oracle_bit_for_bit(scoring_mode,
                                                                   embed_dim):
    """Representations read off the training pass's gated block carry the
    bits of the per-function slice sums and of the max_statements slot
    mask, over batches that hold a function without statements and one
    past max_statements. At embed_dim 1 numpy pair-sums the block's
    contiguous rows, so there they agree within 1e-12."""
    cfg = TrainConfig(seed=0, scoring_mode=scoring_mode, **{
        **SMALL, "embed_dim": embed_dim, "max_statements": 12, "batch_size": 4})
    rng = np.random.default_rng(embed_dim)
    funcs = [[rng.integers(2, 9, size=rng.integers(1, 5)).tolist()
              for _ in range(rng.integers(1, 12))] for _ in range(10)]
    funcs[2] = []
    funcs[5] = [[2, 3], [4]] * 8
    params = init_model(cfg, 9, np.random.default_rng(5))
    reps, _ = masked_representations(params, funcs, cfg)
    want = slot_mask_representations(params, funcs, cfg)
    if embed_dim == 1:
        np.testing.assert_allclose(reps, want, rtol=1e-12, atol=0)
    else:
        np.testing.assert_array_equal(reps, want)


def test_selector_scores_live_rows_only(monkeypatch):
    """FUNCS holds a function without statements and one past
    max_statements; the selector sees exactly the rows encoded for them."""
    cfg = TrainConfig(seed=0, **SMALL)
    params = init_model(cfg, 9, np.random.default_rng(5))
    seen = []

    def spy(x, params, rng=None):
        seen.append(x.data.shape[0])
        return selector_forward(x, params, rng)

    monkeypatch.setattr(train_module, "selector_forward", spy)
    masked_representations(params, FUNCS, cfg)
    assert sum(seen) == sum(min(len(f), cfg.max_statements) for f in FUNCS) == 9


def test_representation_input_checks():
    with pytest.raises(ValueError):
        TrainConfig(seed=0, scoring_mode="average")
    stats = fit_cluster_statistics(np.eye(3), 1, np.random.default_rng(0))
    with pytest.raises(ValueError):
        mahalanobis_scores(np.zeros(3), stats)


# --- fit_cluster_statistics ---------------------------------------------------

def test_single_cluster_matches_sample_statistics():
    rng = np.random.default_rng(7)
    cov_true = np.array([[2.0, 0.3], [0.3, 0.5]])
    points = rng.multivariate_normal([1.0, -2.0], cov_true, size=200)
    stats = fit_cluster_statistics(points, 1, np.random.default_rng(0))
    mu, cov = sample_mean_cov(points)
    np.testing.assert_allclose(stats.means[0], mu, atol=1e-12)
    eps = max(1e-3 * np.trace(cov) / 2, 1e-6)
    recovered = np.linalg.inv(stats.inverses[0]) - eps * np.eye(2)
    np.testing.assert_allclose(recovered, cov, atol=1e-12)
    assert stats.counts[0] == 200


def test_singleton_cluster_inverse_is_identity_over_floor():
    points = np.array([[0.0, 0.0], [100.0, 100.0]])
    stats = fit_cluster_statistics(points, 2, np.random.default_rng(1))
    for c in range(2):
        assert stats.counts[c] == 1
        np.testing.assert_allclose(stats.inverses[c], np.eye(2) / 1e-6,
                                   rtol=1e-9)
        assert stats.eps_used[c] == 1e-6


def _degenerate_clusters():
    rng = np.random.default_rng(11)
    line = np.outer(rng.normal(size=40), [1.0, -2.0, 0.5])
    stretched = rng.normal(size=(40, 3)) * np.array([1.0, 1e8, 1.0])
    return {"duplicates": np.tile([[3.0, -1.0, 2.0]], (25, 1)),
            "rank-1": line + np.array([0.5, 0.0, -4.0]),
            "one axis x 1e8": stretched}


@pytest.mark.parametrize("name", list(_degenerate_clusters()))
def test_degenerate_cluster_shrinkage_and_inverse(name):
    """Duplicates, a rank-1 cloud and one axis scaled by 1e8 all invert
    through the shrinkage alone: eps is max(1e-3 * trace / dim, 1e-6) and
    the stored inverse is that of cov + eps * I."""
    points = _degenerate_clusters()[name]
    stats = fit_cluster_statistics(points, 1, np.random.default_rng(0))
    _, cov = sample_mean_cov(points)
    eps = max(1e-3 * np.trace(cov) / 3, 1e-6)
    np.testing.assert_allclose(stats.eps_used, [eps], rtol=1e-12)
    want = np.linalg.inv(cov + stats.eps_used[0] * np.eye(3))
    np.testing.assert_allclose(stats.inverses[0], want, rtol=1e-9,
                               atol=1e-9 * np.abs(want).max())
    assert np.all(np.isfinite(mahalanobis_scores(points, stats)))


def test_more_clusters_than_points_reduces_k_with_warning():
    points = np.array([[0.0, 0.0], [1.0, 1.0]])
    with pytest.warns(UserWarning, match="reduced from 5 to 2"):
        stats = fit_cluster_statistics(points, 5, np.random.default_rng(2))
    assert stats.k == 2


def test_diagonal_mode_inverts_per_dimension_variances():
    rng = np.random.default_rng(3)
    points = rng.normal(size=(150, 4)) * np.array([1.0, 2.0, 0.5, 3.0])
    stats = fit_cluster_statistics(points, 1, np.random.default_rng(0),
                                   mode="concat-diagonal")
    assert stats.inverses.shape == (1, 4)
    centered = points - points.mean(axis=0)
    var = (centered ** 2).sum(axis=0) / (len(points) - 1)
    eps = max(1e-3 * var.sum() / 4, 1e-6)
    np.testing.assert_allclose(stats.inverses[0], 1.0 / (var + eps),
                               rtol=1e-12)


def test_fit_counts_cover_all_points_and_is_deterministic():
    rng = np.random.default_rng(11)
    points = np.vstack([rng.normal(loc=c, size=(30, 3)) for c in (0, 6, 12)])
    a = fit_cluster_statistics(points, 3, np.random.default_rng(5))
    b = fit_cluster_statistics(points, 3, np.random.default_rng(5))
    assert a.counts.sum() == 90
    np.testing.assert_array_equal(a.means, b.means)
    np.testing.assert_array_equal(a.inverses, b.inverses)


def test_fit_rejects_bad_inputs():
    with pytest.raises(ValueError):
        fit_cluster_statistics(np.zeros((0, 2)), 1, np.random.default_rng(0))


def test_each_scoring_mode_names_its_own_statistics():
    # fit_cluster_statistics trusts the config's mode list: every listed
    # mode must reach a distinct branch, not fall through to the default.
    points = np.random.default_rng(1).normal(size=(20, 3))
    shapes = {mode: fit_cluster_statistics(points, 2, np.random.default_rng(2),
                                           mode=mode).inverses.shape
              for mode in SCORING_MODES}
    assert shapes == {"pooled-d": (2, 3, 3), "concat-diagonal": (2, 3)}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fit_rejects_non_finite_representations(bad):
    points = np.random.default_rng(0).normal(size=(30, 3))
    points[7, 1] = bad
    with pytest.raises(ValueError, match="representations must be finite"):
        fit_cluster_statistics(points, 1, np.random.default_rng(0))


# --- mahalanobis_scores -------------------------------------------------------

def test_score_zero_at_cluster_mean():
    stats = manual_stats([[1.0, 2.0], [5.0, -1.0]],
                         [np.eye(2) * 3.0, np.eye(2)])
    assert mahalanobis_score(np.array([5.0, -1.0]), stats) == 0.0


def test_identity_covariance_gives_squared_euclidean():
    stats = manual_stats([[1.0, 1.0]], [np.eye(2)])
    assert mahalanobis_score(np.array([4.0, 5.0]), stats) == pytest.approx(25.0)


def test_diagonal_covariance_worked_case():
    # covariance diag(2, 0.5) with no shrinkage, offset [1, 1]
    stats = manual_stats([[0.0, 0.0]], [np.diag([0.5, 2.0])])
    assert mahalanobis_score(np.array([1.0, 1.0]), stats) == pytest.approx(2.5)


def test_score_takes_minimum_over_clusters():
    stats = manual_stats([[0.0, 0.0], [10.0, 0.0]], [np.eye(2), np.eye(2)])
    assert mahalanobis_score(np.array([9.0, 0.0]), stats) == pytest.approx(1.0)


def test_score_dimension_mismatch_rejected():
    stats = manual_stats([[0.0, 0.0]], [np.eye(2)])
    with pytest.raises(ValueError):
        mahalanobis_score(np.array([1.0, 2.0, 3.0]), stats)
    with pytest.raises(ValueError):
        mahalanobis_scores(np.zeros((4, 3)), stats)


def test_scores_match_dense_oracle_same_partition():
    rng = np.random.default_rng(21)
    points = np.vstack([rng.normal(loc=c, size=(40, 3)) for c in (0, 8)])
    labels = minibatch_kmeans(points, 2, np.random.default_rng(9)).labels
    stats = fit_cluster_statistics(points, 2, np.random.default_rng(9))
    queries = rng.normal(scale=4.0, size=(25, 3))
    for q in queries:
        mine = mahalanobis_score(q, stats)
        ref = dense_mahalanobis(q, points, labels)
        assert mine == pytest.approx(ref, rel=1e-9)


def test_single_cluster_tiny_shrinkage_matches_dense_oracle(monkeypatch):
    monkeypatch.setattr(scoring, "EPS_SCALE", 1e-12)
    monkeypatch.setattr(scoring, "EPS_FLOOR", 1e-12)
    rng = np.random.default_rng(33)
    points = rng.normal(size=(300, 4)) @ rng.normal(size=(4, 4)) + 2.0
    stats = fit_cluster_statistics(points, 1, np.random.default_rng(0))
    labels = np.zeros(len(points), dtype=np.int64)
    for q in rng.normal(scale=3.0, size=(20, 4)):
        ref = dense_mahalanobis(q, points, labels,
                                eps_rule=stats.eps_used[0])
        assert mahalanobis_score(q, stats) == pytest.approx(ref, rel=1e-9)


def test_score_invariant_under_cluster_permutation():
    rng = np.random.default_rng(4)
    means = rng.normal(size=(4, 3))
    invs = []
    for _ in range(4):
        a = rng.normal(size=(3, 3))
        invs.append(a @ a.T + np.eye(3))
    stats = manual_stats(means, invs)
    perm = [2, 0, 3, 1]
    shuffled = manual_stats(means[perm], np.asarray(invs)[perm])
    for q in rng.normal(size=(10, 3)):
        assert mahalanobis_score(q, stats) == mahalanobis_score(q, shuffled)


def test_adding_a_cluster_never_raises_scores():
    rng = np.random.default_rng(6)
    means = rng.normal(size=(3, 2))
    invs = np.stack([np.eye(2)] * 3)
    base = manual_stats(means[:2], invs[:2])
    grown = manual_stats(means, invs)
    for q in rng.normal(scale=2.0, size=(30, 2)):
        assert mahalanobis_score(q, grown) <= mahalanobis_score(q, base) + 1e-15


def test_score_positive_away_from_every_mean():
    stats = manual_stats([[0.0, 0.0], [3.0, 3.0]],
                         [np.eye(2) * 2.0, np.eye(2) * 0.1])
    rng = np.random.default_rng(8)
    for q in rng.normal(scale=5.0, size=(50, 2)):
        s = mahalanobis_score(q, stats)
        at_mean = any(np.array_equal(q, m) for m in stats.means)
        assert (s == 0.0) == at_mean
        assert s >= 0.0


def test_batch_scores_equal_singles():
    rng = np.random.default_rng(13)
    points = rng.normal(size=(60, 3))
    stats = fit_cluster_statistics(points, 2, np.random.default_rng(1))
    queries = rng.normal(size=(12, 3))
    batch = mahalanobis_scores(queries, stats)
    singles = [mahalanobis_score(q, stats) for q in queries]
    np.testing.assert_allclose(batch, singles, rtol=1e-15)


# --- calibrate_threshold ------------------------------------------------------

def test_threshold_one_through_twenty():
    assert calibrate_threshold(list(range(1, 21))) == 19.0


def test_threshold_all_equal_and_degenerate():
    assert calibrate_threshold([7.0] * 25) == 7.0
    with pytest.warns(UserWarning):
        assert calibrate_threshold([0.0]) == 0.0


def test_threshold_matches_nearest_rank_oracle():
    rng = np.random.default_rng(17)
    for n in (20, 21, 37, 100, 999):
        scores = rng.normal(size=n).tolist()
        for q in (0.5, 0.9, 0.95, 0.99):
            assert calibrate_threshold(scores, q) == nearest_rank(scores, q)


def test_threshold_order_independent():
    rng = np.random.default_rng(18)
    scores = rng.exponential(size=50)
    shuffled = scores.copy()
    rng.shuffle(shuffled)
    assert calibrate_threshold(scores) == calibrate_threshold(shuffled)


def test_threshold_errors_and_warning():
    with pytest.raises(ValueError):
        calibrate_threshold([])
    with pytest.raises(ValueError):
        calibrate_threshold([1.0] * 30, quantile=0.0)
    with pytest.raises(ValueError):
        calibrate_threshold([1.0] * 30, quantile=1.0)
    with pytest.warns(UserWarning):
        calibrate_threshold(list(range(19)))


def test_adding_high_score_never_lowers_threshold():
    rng = np.random.default_rng(19)
    scores = rng.normal(size=40).tolist()
    t = calibrate_threshold(scores)
    for bump in (t + 1e-9, t + 1.0, t + 100.0):
        assert calibrate_threshold(scores + [bump]) >= t


def test_threshold_monotone_in_quantile():
    rng = np.random.default_rng(20)
    scores = rng.normal(size=200)
    ts = [calibrate_threshold(scores, q) for q in (0.5, 0.7, 0.9, 0.95, 0.99)]
    assert ts == sorted(ts)


# --- decisions and max-softmax scores (score_records) ------------------------

CODE = ["int f(int a) { return a + 1; }",
        "void g(char *p) { if (p) { p[0] = 0; } }",
        "int h(void) { int x = 2; x = x * 3; return x; }",
        "int k(int n) { while (n > 0) { n = n - 1; } return n; }"]


def small_artifact(records=None, **over):
    """An untrained artifact whose vocabulary and statistics come from its
    own records (CODE by default); `over` replaces SMALL config fields."""
    cfg = TrainConfig(seed=0, **{**SMALL, **over})
    if records is None:
        records = [DatasetRecord(f"r{i}", code, i % 2) for i, code in enumerate(CODE)]
    vocab = build_training_vocabulary(records, cfg)
    params = init_model(cfg, vocab.size, np.random.default_rng(3))
    tensors = {name: t.data.astype(np.float32) for name, t in params.store.items()}
    artifact = ModelArtifact(vocab, tensors, cfg, stats=None, threshold=0.0)
    samples = prepare_samples(records, vocab, cfg)
    reps, _ = masked_representations(model_from_artifact(artifact), samples, cfg)
    artifact.stats = fit_cluster_statistics(reps, 1, np.random.default_rng(0),
                                            mode=cfg.scoring_mode)
    return artifact, records


def test_decide_boundary_is_in_distribution():
    artifact, records = small_artifact()
    scores, _ = score_records(artifact, records)
    assert scores[0] > 0.0
    for threshold, want in ((scores[0], "ID"),
                            (np.nextafter(scores[0], -np.inf), "OOD"),
                            (0.0, "OOD"), (scores.max() + 1.0, "ID")):
        artifact.threshold = float(threshold)
        _, decisions = score_records(artifact, records)
        assert decisions[0] == want
        assert list(decisions) == ["OOD" if s > threshold else "ID" for s in scores]


def test_msp_score_examples():
    artifact, records = small_artifact()
    scores, _ = score_records(artifact, records, use_msp=True)
    params = model_from_artifact(artifact)
    samples = prepare_samples(records, artifact.vocab, artifact.config)
    x, lengths = kept_rows(encode_batch(samples, params.encoder, 4))
    gates = selector_forward(x, params.selector).data
    block = padded_block(x.data * gates[:, None], lengths, 4)
    probs = classifier_forward(ad.constant(block), params.classifier).data
    np.testing.assert_allclose(scores, 1.0 - probs.max(axis=1), atol=1e-15, rtol=0)

    artifact.tensors["classifier/head_w"][:] = 0.0
    artifact.tensors["classifier/head_b"][:] = [0.0, 0.0]
    scores, _ = score_records(artifact, records, use_msp=True)
    np.testing.assert_array_equal(scores, np.full(len(records), 0.5))
    artifact.tensors["classifier/head_b"][:] = [0.0, 40.0]
    scores, _ = score_records(artifact, records, use_msp=True)
    np.testing.assert_allclose(scores, 0.0, atol=1e-15)


def test_msp_score_orders_by_confidence():
    artifact, records = small_artifact()
    artifact.tensors["classifier/head_w"][:] = 0.0
    artifact.tensors["classifier/head_b"][:] = [3.0, 0.0]
    confident, _ = score_records(artifact, records, use_msp=True)
    artifact.tensors["classifier/head_b"][:] = [1.0, 0.0]
    unsure, _ = score_records(artifact, records, use_msp=True)
    assert np.all(confident < unsure)


def test_msp_decisions_use_the_artifact_quantile():
    records, _, _ = generate_synthetic(20, 0, seed=1)
    artifact, _ = small_artifact(records, max_statements=20)
    artifact.quantile = 0.5
    scores, decisions = score_records(artifact, records, use_msp=True)
    threshold = nearest_rank(scores, 0.5)
    assert list(decisions) == ["OOD" if s > threshold else "ID" for s in scores]
    assert abs(list(decisions).count("OOD") - len(records) / 2) <= 1


@pytest.mark.parametrize("use_msp", [False, True])
def test_scores_and_decisions_read_no_label(use_msp):
    """One set of functions labeled 0, labeled 1 and unlabeled gets the
    same scores and decisions, bit for bit: the read path reads no label."""
    records, _, _ = generate_synthetic(20, 0, seed=1)
    artifact, _ = small_artifact(records, max_statements=20)
    artifact.threshold = float(np.median(score_records(artifact, records)[0]))
    want_scores, want_decisions = score_records(
        artifact, [dataclasses.replace(r, label=0) for r in records], use_msp=use_msp)
    assert set(want_decisions) == {"ID", "OOD"}
    for label in (1, None):
        scores, decisions = score_records(
            artifact, [dataclasses.replace(r, label=label) for r in records],
            use_msp=use_msp)
        np.testing.assert_array_equal(scores, want_scores)
        np.testing.assert_array_equal(decisions, want_decisions)


def test_frozen_selector_scores_distinct_rows_only(monkeypatch):
    """Under a rebuilt model the selector sees each batch's distinct kept
    statements once: FUNCS repeats [2, 3] and [8], and cuts [8] * 6 at
    max_statements."""
    artifact, _ = small_artifact()
    seen = []

    def spy(x, params, rng=None):
        seen.append(x.data.shape[0])
        return selector_forward(x, params, rng)

    monkeypatch.setattr(train_module, "selector_forward", spy)
    masked_representations(model_from_artifact(artifact), FUNCS + FUNCS, artifact.config)
    # batches of two functions, 4, 4, 1, 3 and 4 kept statements:
    # {[2, 3], [4, 5, 6], [7]}, {[8]}, {[3, 4, 5, 6, 7], [2, 3]},
    # {[2, 3], [4, 5, 6], [7]}, {[8], [3, 4, 5, 6, 7]}
    assert seen == [3, 1, 2, 3, 2]


def scoring_pair(records, **over):
    """Representations and max-softmax scores of a rebuilt small model:
    masked_representations' and the all-rows oracle's."""
    artifact, _ = small_artifact(records, **over)
    samples = prepare_samples(records, artifact.vocab, artifact.config)
    params = model_from_artifact(artifact)
    return (artifact, samples,
            masked_representations(params, samples, artifact.config),
            all_rows_representations(params, samples, artifact.config))


@pytest.mark.parametrize("scoring_mode", ["pooled-d", "concat-diagonal"])
def test_a_batch_without_repeats_keeps_the_all_rows_bits(scoring_mode):
    """No kept statement repeats within a batch (CODE's five functions,
    one per batch of one), so the distinct pass is the all-rows pass."""
    records = [DatasetRecord(f"r{i}", code, i % 2) for i, code in enumerate(CODE)]
    _, samples, (reps, msp), (want_reps, want_msp) = scoring_pair(
        records, scoring_mode=scoring_mode, batch_size=1, max_statements=3)
    for s in samples:
        kept = s[:3]
        assert len({tuple(x) for x in kept}) == len(kept)
    np.testing.assert_array_equal(reps, want_reps)
    np.testing.assert_array_equal(msp, want_msp)


@pytest.mark.parametrize("scoring_mode", ["pooled-d", "concat-diagonal"])
@pytest.mark.parametrize("gate_mode", ["expected", "hard"])
def test_repeated_statements_move_scores_by_rounding_only(gate_mode, scoring_mode):
    """Synthetic functions repeat most of their renamed statements; gating
    each distinct one once keeps Mahalanobis and max-softmax scores within
    1e-12 of the all-rows pass and every decision where it was."""
    records, _, _ = generate_synthetic(20, 0, seed=3)
    artifact, samples, (reps, msp), (want_reps, want_msp) = scoring_pair(
        records, scoring_mode=scoring_mode, gate_mode=gate_mode,
        max_statements=20, batch_size=16)
    kept = [tuple(s) for f in samples for s in f[:20]]
    assert len(set(kept)) < 0.25 * len(kept)
    scores = mahalanobis_scores(reps, artifact.stats)
    want = mahalanobis_scores(want_reps, artifact.stats)
    np.testing.assert_allclose(scores, want, rtol=1e-12, atol=0)
    np.testing.assert_allclose(msp, want_msp, rtol=1e-12, atol=0)
    for got, ref in ((scores, want), (msp, want_msp)):
        levels = np.unique(ref)
        cut = len(levels) * 4 // 5
        threshold = (levels[cut - 1] + levels[cut]) / 2
        np.testing.assert_array_equal(got > threshold, ref > threshold)


@pytest.mark.parametrize("scoring_mode", ["pooled-d", "concat-diagonal"])
def test_distinct_row_gating_matches_expand_then_gate_bit_for_bit(scoring_mode):
    """Gating the distinct rows once and copying each product into every
    slot that reads it gives the representations and max-softmax scores of
    expanding the rows and their gates first, bit for bit."""
    records, _, _ = generate_synthetic(20, 0, seed=3)
    artifact, _ = small_artifact(records, scoring_mode=scoring_mode,
                                 max_statements=20, batch_size=16)
    samples = prepare_samples(records, artifact.vocab, artifact.config)
    for classifier in (True, False):
        params = model_from_artifact(artifact, classifier=classifier)
        reps, msp = masked_representations(params, samples, artifact.config)
        want_reps, want_msp = all_rows_representations(
            params, samples, artifact.config, distinct_gates=True)
        np.testing.assert_array_equal(reps, want_reps)
        if classifier:
            np.testing.assert_array_equal(msp, want_msp)
        else:
            assert msp is None and want_msp is None


def test_gate_product_sees_distinct_rows_only(monkeypatch):
    """Under a rebuilt model the one product of rows and gates per batch
    has one row per distinct kept statement, the selector's count in
    test_frozen_selector_scores_distinct_rows_only."""
    artifact, _ = small_artifact()
    seen = []
    mul = ad.mul

    def spy(a, b):
        seen.append(a.data.shape[0])
        return mul(a, b)

    monkeypatch.setattr(ad, "mul", spy)
    masked_representations(model_from_artifact(artifact), FUNCS + FUNCS,
                           artifact.config)
    assert seen == [3, 1, 2, 3, 2]


def test_a_non_finite_gate_reached_only_through_a_repeat_still_raises():
    """Distinct row 1 is read only by the two repeated statements of
    function 0: its NaN gate still raises, and so does its infinite row in
    the product node. An index on taped rows is refused."""
    x = ad.constant(np.arange(6.0).reshape(3, 2))
    index, lengths = np.array([1, 1, 0, 2]), [2, 2]
    gated_block(x, ad.constant(np.ones(3)), lengths, index)
    with pytest.raises(NumericError):
        gated_block(x, ad.constant(np.array([1.0, np.nan, 1.0])), lengths, index)
    x.data[1] = np.inf
    with pytest.raises(NumericError, match="mul"):
        gated_block(x, ad.constant(np.ones(3)), lengths, index)
    with pytest.raises(GraphError, match="frozen read path"):
        gated_block(ad.Tensor(np.ones((3, 2)), requires_grad=True),
                    ad.constant(np.ones(3)), lengths, index)


def test_mahalanobis_scoring_never_runs_or_widens_the_classifier(monkeypatch):
    """classifier/w0 dominates this model; a float64 copy of it alone would
    take 5 MB, and the Mahalanobis path's whole allocation peak stays below
    half of that."""
    artifact, records = small_artifact(max_statements=200, embed_dim=8,
                                       classifier_hidden=(400,))
    expected, _ = score_records(artifact, records)
    w0_f64_bytes = 8 * artifact.tensors["classifier/w0"].size
    assert w0_f64_bytes > 5_000_000

    def refuse(*args, **kwargs):
        raise AssertionError("ran the classifier")

    rebuilt = []

    def spy(*args, **kwargs):
        rebuilt.append(model_from_artifact(*args, **kwargs))
        return rebuilt[-1]

    monkeypatch.setattr(train_module, "classifier_forward", refuse)
    monkeypatch.setattr(train_module, "model_from_artifact", spy)
    tracemalloc.start()
    try:
        scores, _ = score_records(artifact, records)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(scores, expected)
    assert peak < w0_f64_bytes / 2
    assert len(rebuilt) == 1 and rebuilt[0].classifier is None
    assert not [n for n in rebuilt[0].store.names() if n.startswith("classifier/")]


@pytest.mark.parametrize("case", ["missing", "extra", "wrong-shape"])
def test_classifierless_rebuild_checks_the_classifier_tensors(case, tmp_path):
    artifact, records = small_artifact()
    name = "classifier/w0"
    if case == "missing":
        del artifact.tensors[name]
    elif case == "extra":
        name = "classifier/w1"    # SMALL declares one hidden classifier layer
        artifact.tensors[name] = np.zeros((5, 5), dtype=np.float32)
    else:
        artifact.tensors[name] = artifact.tensors[name][:, :-1].copy()
    with pytest.raises(ModelFormatError, match=name):
        model_from_artifact(artifact, classifier=False)
    with pytest.raises(ModelFormatError, match=name):
        score_records(artifact, records)
    path = str(tmp_path / "model.leo")
    save_model(artifact, path)
    with pytest.raises(ModelFormatError, match=name):
        load_model(path)


# --- the model rebuilt from an artifact (model_from_artifact) ------------------


def test_a_lean_rebuild_declares_each_parameter_once(monkeypatch):
    """model_from_artifact(classifier=False) creates each encoder and
    selector parameter once, from its widened float64 tensor, and declares
    no classifier parameter: none of the classifier tensors is widened."""
    artifact, _ = small_artifact()
    created = []
    create = ParameterStore.create

    def spy(self, name, shape, draw=None):
        created.append(create(self, name, shape, draw))
        return created[-1]

    monkeypatch.setattr(ParameterStore, "create", spy)
    params = model_from_artifact(artifact, classifier=False)
    assert sorted(t.name for t in created) == sorted(
        n for n in artifact.tensors if not n.startswith("classifier/"))
    for t in created:
        assert t.data.dtype == np.float64 and t.data.flags.owndata
        assert t is params.store[t.name]


def test_rebuilt_store_matches_init_layout():
    artifact, _ = small_artifact()
    fresh = init_model(artifact.config, artifact.vocab.size,
                       np.random.default_rng(3)).store
    rebuilt = model_from_artifact(artifact).store
    assert rebuilt.names() == fresh.names()
    for name, t in rebuilt.items():
        assert not t.requires_grad
        assert t.data.dtype == np.float64
        np.testing.assert_array_equal(t.data, artifact.tensors[name].astype(np.float64))


def _with_clst_mode(blob: bytes, mode: str) -> bytes:
    """The container with CLST's mode string replaced in its bytes, the
    section length and the checksum redone."""
    pos = 8
    while blob[pos:pos + 4] != b"CLST":
        pos += 8 + struct.unpack("<I", blob[pos + 4:pos + 8])[0]
    length = struct.unpack("<I", blob[pos + 4:pos + 8])[0]
    clst = blob[pos + 8:pos + 8 + length]
    old = struct.unpack("<I", clst[1:5])[0]
    clst = clst[:1] + struct.pack("<I", len(mode)) + mode.encode() + clst[5 + old:]
    body = (blob[:pos + 4] + struct.pack("<I", len(clst)) + clst
            + blob[pos + 8 + length:-4])
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def _corrupt_calibration(artifact, case) -> bytes:
    """The artifact's container with `case` disagreeing with its config."""
    stats = artifact.stats
    if case == "mode":
        return _with_clst_mode(serialize_model(artifact), "nonsense")
    elif case == "diagonal":
        stats.inverses = np.diagonal(stats.inverses, axis1=1, axis2=2).copy()
    elif case == "k":
        stats.means, stats.inverses = stats.means[:0], stats.inverses[:0]
        stats.counts, stats.eps_used = stats.counts[:0], stats.eps_used[:0]
    elif case == "dim":
        wider = stats.dim + 1
        stats.means = np.zeros((stats.k, wider))
        stats.inverses = np.broadcast_to(np.eye(wider), (stats.k, wider, wider))
    elif case == "means":
        stats.means[0, 0] = np.nan
    elif case == "inverses":
        stats.inverses[0, 0, 0] = np.inf
    elif case.startswith("threshold"):
        artifact.threshold = float(case.split("=")[1])
    else:
        artifact.quantile = float(case.split("=")[1])
    return serialize_model(artifact)


@pytest.mark.parametrize("case, field", [
    ("mode", "CLST mode"), ("diagonal", "CLST diagonal"), ("k", "CLST k"),
    ("dim", "CLST dim"), ("means", "CLST means"), ("inverses", "CLST inverses"),
    ("threshold=nan", "THRS threshold"), ("threshold=inf", "THRS threshold"),
    ("quantile=0", "THRS quantile"), ("quantile=1", "THRS quantile"),
    ("quantile=nan", "THRS quantile"),
])
def test_calibration_disagreeing_with_config_is_format_error(case, field):
    artifact, _ = small_artifact()
    deserialize_model(serialize_model(artifact))
    blob = _corrupt_calibration(artifact, case)
    with pytest.raises(ModelFormatError, match=field):
        deserialize_model(blob)


def test_rebuilt_model_records_no_tape():
    artifact, records = small_artifact()
    params = model_from_artifact(artifact)
    samples = prepare_samples(records, artifact.vocab, artifact.config)
    x, _, _ = encode_batch(samples, params.encoder, 4)
    probs = selector_forward(x, params.selector)
    assert not probs.requires_grad
    assert probs._parents == () and probs._backward is None


def test_artifact_rebuild_draws_nothing(monkeypatch):
    artifact, records = small_artifact()
    expected, _ = score_records(artifact, records)
    create = ParameterStore.create

    def refuse_draws(self, name, shape, draw=None):
        def refuse(shape):
            raise AssertionError(f"drew initial values for '{name}'")
        return create(self, name, shape, None if draw is None else refuse)

    def refuse_rng(*args, **kwargs):
        raise AssertionError("made a random generator")

    monkeypatch.setattr(ParameterStore, "create", refuse_draws)
    monkeypatch.setattr(np.random, "default_rng", refuse_rng)
    scores, _ = score_records(artifact, records)
    np.testing.assert_array_equal(scores, expected)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_rebuilt_tensors_do_not_share_memory_with_artifact(dtype):
    artifact, _ = small_artifact()
    artifact.tensors = {n: a.astype(dtype) for n, a in artifact.tensors.items()}
    stored = {n: a.copy() for n, a in artifact.tensors.items()}
    for _, t in model_from_artifact(artifact).store.items():
        t.data[...] = 7.0
    for name, arr in artifact.tensors.items():
        np.testing.assert_array_equal(arr, stored[name])
    params = model_from_artifact(artifact)
    for arr in artifact.tensors.values():
        arr[...] = -1.0
    for name, t in params.store.items():
        np.testing.assert_array_equal(t.data, stored[name].astype(np.float64))


@pytest.mark.parametrize("case", ["missing", "extra", "wrong-shape"])
def test_artifact_tensor_mismatch_is_format_error(case, tmp_path):
    artifact, records = small_artifact()
    name = "selector/w0"
    if case == "missing":
        del artifact.tensors[name]
    elif case == "extra":
        name = "selector/w1"      # SMALL declares one hidden selector layer
        artifact.tensors[name] = np.zeros((4, 4), dtype=np.float32)
    else:
        artifact.tensors[name] = artifact.tensors[name][:, :-1].copy()
    path = str(tmp_path / "model.leo")
    save_model(artifact, path)
    with pytest.raises(ModelFormatError, match=name):
        load_model(path)
    with pytest.raises(ModelFormatError, match=name):
        score_records(artifact, records)


# --- a loaded artifact: views of the file's bytes ------------------------------


def test_loaded_tensors_are_read_only_views_of_the_blob():
    artifact, _ = small_artifact()
    blob = serialize_model(artifact)
    loaded = deserialize_model(blob)
    assert set(loaded.tensors) == set(artifact.tensors)
    for name, arr in loaded.tensors.items():
        assert not arr.flags.writeable
        assert np.shares_memory(arr, np.frombuffer(blob, dtype=np.uint8))
        np.testing.assert_array_equal(arr, artifact.tensors[name])
        with pytest.raises(ValueError):
            arr[...] = 0.0


def test_the_load_check_declares_no_parameter(monkeypatch):
    """The load checks the tensor set by shape against the declared layout:
    it makes no ParameterStore.create call, so it builds and widens none."""
    artifact, _ = small_artifact()
    blob = serialize_model(artifact)

    def refuse(self, name, shape, draw=None):
        raise AssertionError(f"declared '{name}' in a ParameterStore")

    monkeypatch.setattr(ParameterStore, "create", refuse)
    assert set(deserialize_model(blob).tensors) == set(artifact.tensors)


def test_a_load_copies_no_parameter_bytes():
    """classifier/w0 dominates this model, as in the Mahalanobis test above;
    a load's whole allocation peak stays under a quarter of the float32
    parameter bytes, so it neither copies nor widens them."""
    artifact, _ = small_artifact(max_statements=200, embed_dim=8,
                                 classifier_hidden=(400,))
    blob = serialize_model(artifact)
    param_bytes = sum(arr.nbytes for arr in artifact.tensors.values())
    assert param_bytes > 2_500_000
    tracemalloc.start()
    try:
        loaded = deserialize_model(blob)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert set(loaded.tensors) == set(artifact.tensors)
    assert peak < param_bytes / 4


@pytest.mark.parametrize("use_msp", [False, True])
def test_a_loaded_artifact_scores_bit_for_bit_like_its_source(use_msp, tmp_path):
    """Mahalanobis and MSP scores of the saved-and-loaded artifact carry the
    in-memory artifact's bits; the MSP rebuild widens every tensor from the
    read-only views into arrays of its own."""
    records, _, _ = generate_synthetic(20, 0, seed=1)
    artifact, _ = small_artifact(records, max_statements=20)
    path = str(tmp_path / "model.leo")
    save_model(artifact, path)
    loaded = load_model(path)
    want_scores, want_decisions = score_records(artifact, records, use_msp=use_msp)
    scores, decisions = score_records(loaded, records, use_msp=use_msp)
    np.testing.assert_array_equal(scores, want_scores)
    assert list(decisions) == list(want_decisions)
    rebuilt = model_from_artifact(loaded, classifier=use_msp)
    for _, t in rebuilt.store.items():
        assert t.data.flags.owndata and t.data.flags.writeable


def test_a_load_from_a_bytearray_keeps_no_view_of_it():
    """Overwriting the bytearray a model was loaded from changes neither its
    tensors nor its scores."""
    artifact, records = small_artifact()
    want, _ = score_records(artifact, records)
    want_msp, _ = score_records(artifact, records, use_msp=True)
    buf = bytearray(serialize_model(artifact))
    loaded = deserialize_model(buf)
    buf[:] = bytes(len(buf))
    for name, arr in loaded.tensors.items():
        assert not arr.flags.writeable
        np.testing.assert_array_equal(arr, artifact.tensors[name])
    np.testing.assert_array_equal(score_records(loaded, records)[0], want)
    np.testing.assert_array_equal(score_records(loaded, records, use_msp=True)[0],
                                  want_msp)
