"""Cluster-conditioned Mahalanobis scoring and threshold calibration."""
import tracemalloc

import numpy as np
import pytest

import leo.autodiff as ad
import leo.train as train_module
from leo.config import TrainConfig
from leo.data import DatasetRecord
from leo.encoder import encode_batch
from leo.losses import classifier_forward, minibatch_kmeans
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
    PreparedSample,
    build_training_vocabulary,
    init_model,
    masked_representations,
    model_from_artifact,
    prepare_samples,
    score_records,
)

from oracles import (dense_mahalanobis, full_block_representations,
                     nearest_rank, sample_mean_cov)

SMALL = dict(max_statements=4, embed_dim=3, vocab_max=100, selector_hidden=(4,),
             classifier_hidden=(5,), batch_size=2, clusters=1)


def mahalanobis_score(rep, stats) -> float:
    """mahalanobis_scores on a batch of one."""
    return float(mahalanobis_scores(np.asarray(rep)[None, :], stats)[0])


def manual_stats(means, inverses, diagonal=False):
    means = np.asarray(means, dtype=np.float64)
    inverses = np.asarray(inverses, dtype=np.float64)
    return ClusterStatistics(
        means=means, inverses=inverses,
        counts=np.full(len(means), 2, dtype=np.int64),
        eps_used=np.zeros(len(means)),
        diagonal_covariance=diagonal)


# --- scoring representations (masked_representations) ------------------------

FUNCS = [[[2, 3]], [[2, 3], [4, 5, 6], [7]], [], [[8]] * 6, [[3, 4, 5, 6, 7]]]


def representations(mode):
    """Scoring representations of FUNCS from one fixed random model."""
    cfg = TrainConfig(seed=0, scoring_mode=mode, **SMALL)
    params = init_model(cfg, 9, np.random.default_rng(5))
    samples = [PreparedSample(f"s{i}", 0, "", f) for i, f in enumerate(FUNCS)]
    return masked_representations(params, samples, cfg)[0], params


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
    rows, lengths = encode_batch(FUNCS, params.encoder, 4, packed=True)
    live = np.arange(4)[None, :] < lengths[:, None]
    x = np.zeros((len(FUNCS), 4, 3))
    x[live] = rows.data
    gates = selector_forward(ad.constant(x), params.selector).data * live
    gated = x * gates[:, :, None]
    np.testing.assert_array_equal(concat, gated.reshape(len(FUNCS), 12))
    assert np.all(concat[1].reshape(4, 3)[3:] == 0.0)


def samples_of(funcs):
    return [PreparedSample(f"s{i}", 0, "", f) for i, f in enumerate(funcs)]


@pytest.mark.parametrize("scoring_mode", ["pooled-d", "concat-diagonal"])
@pytest.mark.parametrize("gate_mode", ["expected", "hard"])
def test_live_row_pass_matches_full_block_oracle(gate_mode, scoring_mode):
    """Scoring only the real statement rows gives the representations and
    max-softmax scores of the pass over every slot, with or without the
    classifier rebuilt; the last batch has no statements at all."""
    artifact, _ = small_artifact(gate_mode=gate_mode, scoring_mode=scoring_mode)
    cfg = artifact.config
    samples = samples_of(FUNCS + FUNCS[::-1] + [[], []])
    full = model_from_artifact(artifact)
    want_reps, want_msp = full_block_representations(full, samples, cfg)
    reps, msp = masked_representations(full, samples, cfg, msp=True)
    np.testing.assert_allclose(reps, want_reps, rtol=1e-12, atol=0)
    np.testing.assert_allclose(msp, want_msp, rtol=1e-12, atol=0)
    assert np.any(msp > 0)
    lean = model_from_artifact(artifact, classifier=False)
    reps, msp = masked_representations(lean, samples, cfg)
    assert msp is None
    np.testing.assert_allclose(reps, want_reps, rtol=1e-12, atol=0)


def test_selector_scores_live_rows_only(monkeypatch):
    """FUNCS holds a function without statements and one past
    max_statements; the selector sees exactly the rows encoded for them."""
    cfg = TrainConfig(seed=0, **SMALL)
    params = init_model(cfg, 9, np.random.default_rng(5))
    seen = []

    def spy(x, params, rng=None):
        seen.append(x.data.shape[0] * x.data.shape[1])
        return selector_forward(x, params, rng)

    monkeypatch.setattr(train_module, "selector_forward", spy)
    masked_representations(params, samples_of(FUNCS), cfg)
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


def test_more_clusters_than_points_reduces_k_with_warning():
    points = np.array([[0.0, 0.0], [1.0, 1.0]])
    with pytest.warns(UserWarning):
        stats = fit_cluster_statistics(points, 5, np.random.default_rng(2))
    assert stats.k == 2
    assert stats.notes


def test_diagonal_mode_inverts_per_dimension_variances():
    rng = np.random.default_rng(3)
    points = rng.normal(size=(150, 4)) * np.array([1.0, 2.0, 0.5, 3.0])
    stats = fit_cluster_statistics(points, 1, np.random.default_rng(0),
                                   mode="concat-diagonal")
    assert stats.diagonal_covariance
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
    with pytest.raises(ValueError):
        fit_cluster_statistics(np.zeros((3, 2)), 1, np.random.default_rng(0),
                               mode="full")


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


def test_single_cluster_tiny_shrinkage_matches_dense_oracle():
    rng = np.random.default_rng(33)
    points = rng.normal(size=(300, 4)) @ rng.normal(size=(4, 4)) + 2.0
    stats = fit_cluster_statistics(points, 1, np.random.default_rng(0),
                                   eps_scale=1e-12, eps_floor=1e-12)
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
    x, lengths = encode_batch([s.statements for s in samples], params.encoder, 4)
    gates = selector_forward(x, params.selector).data
    gates = gates * (np.arange(4)[None, :] < lengths[:, None])
    flat = (x.data * gates[:, :, None]).reshape(len(samples), -1)
    probs = classifier_forward(ad.constant(flat), params.classifier).data
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


def test_msp_needs_the_classifier():
    artifact, records = small_artifact()
    samples = prepare_samples(records, artifact.vocab, artifact.config)
    lean = model_from_artifact(artifact, classifier=False)
    assert lean.classifier is None
    with pytest.raises(ValueError, match="classifier"):
        masked_representations(lean, samples, artifact.config, msp=True)


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
def test_classifierless_rebuild_checks_the_classifier_tensors(case):
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


# --- the model rebuilt from an artifact (model_from_artifact) ------------------


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


def _corrupt_calibration(artifact, case):
    stats = artifact.stats
    if case == "mode":
        stats.mode = "nonsense"
    elif case == "diagonal":
        stats.diagonal_covariance = True
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
    _corrupt_calibration(artifact, case)
    with pytest.raises(ModelFormatError, match=field):
        deserialize_model(serialize_model(artifact))


def test_rebuilt_model_records_no_tape():
    artifact, records = small_artifact()
    params = model_from_artifact(artifact)
    samples = prepare_samples(records, artifact.vocab, artifact.config)
    x, _ = encode_batch([s.statements for s in samples], params.encoder, 4)
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
