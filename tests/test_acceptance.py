"""Acceptance criteria A1-A8. Each test prints one PASS/FAIL verdict line
straight to the terminal (bypassing capture) and asserts the stated bounds.
"""
import os
import re
import time

import numpy as np
import pytest

from leo import autodiff as ad
from leo.autodiff import Tensor
from leo.config import TrainConfig
from leo.data import write_dataset
from leo.encoder import encode_batch, init_encoder_params
from leo.losses import (
    assign_clusters,
    cluster_contrastive_loss,
    init_classifier_params,
    joint_loss,
    peer_weights,
)
from leo.metrics import ScoreSet, aupr, auroc, fpr_at_tpr
from leo.model import load_model, save_model, serialize_model
from leo.normalize import normalize_source
from leo.optim import ParameterStore
from leo.scoring import fit_cluster_statistics, mahalanobis_scores
from leo.selector import init_selector_params, relax_gates, sample_gumbel
from leo.synth import generate_pair, generate_synthetic
from leo.train import evaluate, score_records, train
from leo.losses import minibatch_kmeans

from oracles import (
    brute_aupr,
    brute_auroc,
    brute_fpr_at_tpr,
    dense_mahalanobis,
    direct_contrastive_loss,
    finite_difference_check,
)


@pytest.fixture
def verdict(capsys):
    """One PASS/FAIL line per criterion, written past pytest's capture."""
    def emit(name: str, ok: bool, detail: str):
        with capsys.disabled():
            print(f"\n{name} {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
        assert ok, f"{name}: {detail}"
    return emit


# --- A1: gradient integrity -------------------------------------------------------


def _param(rng, shape, positive=False, name=""):
    data = rng.normal(size=shape)
    if positive:
        data = np.abs(data) + 0.5
    return Tensor(data, requires_grad=True, name=name)


def _primitive_cases(rng):
    """(name, params dict, loss_fn) triples covering every primitive."""
    cases = []

    a = _param(rng, (3, 4), name="a")
    b = _param(rng, (3, 4), name="b")
    w = ad.constant(rng.normal(size=(3, 4)))
    cases.append(("arithmetic", {"a": a, "b": b}, lambda: ad.reduce_sum(
        ad.mul(w, ad.add(ad.mul(a, b), ad.scale(ad.add(a, ad.scale(b, -1.0)), -0.7))))))

    c = _param(rng, (3, 4), positive=True, name="c")
    d = _param(rng, (3, 4), positive=True, name="d")
    cases.append(("div_log_exp_sqrt", {"c": c, "d": d}, lambda: ad.reduce_sum(
        ad.add(ad.div(c, d),
               ad.add(ad.log(c), ad.add(ad.exp(ad.scale(d, 0.3)), ad.sqrt(c)))))))

    e = _param(rng, (4, 5), name="e")
    cases.append(("activations", {"e": e}, lambda: ad.reduce_sum(
        ad.add(ad.maximum_const(e, 0.0), ad.sigmoid(e)))))

    f = _param(rng, (4, 5), name="f")
    wf = ad.constant(rng.normal(size=(4, 5)))
    cases.append(("clamps", {"f": f}, lambda: ad.reduce_sum(ad.mul(
        wf, ad.maximum_const(ad.minimum_const(f, 5.0), -5.0)))))

    g = _param(rng, (3, 6), name="g")
    wg = ad.constant(rng.normal(size=(3, 6)))
    cases.append(("softmax", {"g": g}, lambda: ad.reduce_sum(
        ad.mul(wg, ad.softmax(g, axis=1)))))

    m1 = _param(rng, (3, 4), name="m1")
    m2 = _param(rng, (5, 4), name="m2")
    cases.append(("matmul_transpose", {"m1": m1, "m2": m2},
                  lambda: ad.reduce_sum(ad.matmul(m1, ad.transpose(m2)))))

    r = _param(rng, (2, 6), name="r")
    wr = ad.constant(rng.normal(size=(3, 4)))
    cases.append(("reshape", {"r": r}, lambda: ad.reduce_sum(
        ad.mul(wr, ad.reshape(r, (3, 4))))))

    table = _param(rng, (7, 4), name="table")
    idx = np.array([[0, 3, 3], [6, 1, 0]])
    wt = ad.constant(rng.normal(size=(2, 3, 4)))
    cases.append(("gather_rows", {"table": table}, lambda: ad.reduce_sum(
        ad.mul(wt, ad.gather_rows(table, idx)))))

    vals = _param(rng, (4, 3), name="vals")
    ws = ad.constant(rng.normal(size=(2, 5, 3)))
    bi = np.array([0, 0, 1, 1])
    ri = np.array([0, 2, 1, 4])
    cases.append(("scatter_rows", {"vals": vals}, lambda: ad.reduce_sum(
        ad.mul(ws, ad.scatter_rows(vals, bi, ri, 2, 5)))))

    x = _param(rng, (2, 6, 3), name="x")
    kern = _param(rng, (3, 3, 4), name="kern")
    bias = _param(rng, (4,), name="bias")
    wc = ad.constant(rng.normal(size=(2, 4, 4)))
    # the dense conv over both sequences: x laid end to end, starts i * 6 + j
    starts = (np.arange(2)[:, None] * 6 + np.arange(4)[None, :]).reshape(-1)
    cases.append(("conv1d", {"x": x, "kern": kern, "bias": bias},
                  lambda: ad.reduce_sum(ad.mul(wc, ad.reshape(ad.conv1d(
                      ad.reshape(x, (12, 3)), kern, bias, starts), (2, 4, 4))))))

    mt = _param(rng, (15, 4), name="mt")
    wm = ad.constant(rng.normal(size=(3, 4)))
    cases.append(("segment_max", {"mt": mt}, lambda: ad.reduce_sum(
        ad.mul(wm, ad.segment_max(mt, np.array([0, 5, 10]))))))

    dr = _param(rng, (4, 6), name="dr")
    wd = ad.constant(rng.normal(size=(4, 6)))
    cases.append(("dropout_train", {"dr": dr}, lambda: ad.reduce_sum(ad.mul(
        wd, ad.dropout(dr, 0.8, np.random.default_rng(5))))))

    s = _param(rng, (3, 4, 2), name="s")
    cases.append(("reductions", {"s": s}, lambda: ad.add(
        ad.reduce_mean(ad.sum_axis(s, axis=1)),
        ad.reduce_sum(ad.sum_axis(s, axis=2, keepdims=True)))))

    ax = _param(rng, (3, 4), name="ax")
    aw = _param(rng, (4, 2), name="aw")
    ab = _param(rng, (2,), name="ab")
    wa = ad.constant(rng.normal(size=(3, 2)))
    cases.append(("affine", {"ax": ax, "aw": aw, "ab": ab},
                  lambda: ad.reduce_sum(ad.mul(wa, ad.affine(ax, aw, ab)))))

    return cases


def _joint_toy():
    """m=4 functions, up to L=5 statements, d=4; every call draws the same
    gates and clustering from a freshly seeded stream."""
    rng = np.random.default_rng(42)
    store = ParameterStore()
    enc = init_encoder_params(store, vocab_size=12, embed_dim=4, rng=rng)
    sel = init_selector_params(store, 4, rng, hidden_sizes=(8,))
    cls = init_classifier_params(store, 5 * 4, rng, hidden_sizes=(8,))
    batch = [
        [[2, 3, 4], [5, 6], [7, 8, 9, 10]],
        [[3, 3, 11], [2, 5]],
        [[4, 6, 8]],
        [[9, 2], [10, 3], [5, 5, 5], [6, 7]],
    ]
    labels = [0, 1, 1, 0]

    def loss_fn():
        x, lengths, _ = encode_batch(batch, enc, 5)
        parts = joint_loss(x, lengths, labels, sel, cls, relax_temp=0.5,
                           temperature=0.5, contrastive_weight=0.1,
                           clusters=1, rng=np.random.default_rng(43))
        return parts.total

    return loss_fn, dict(store.items())


def test_A1_gradient_integrity(verdict):
    start = time.time()
    rng = np.random.default_rng(0)
    worst_primitive = 0.0
    worst_name = ""
    for name, params, loss_fn in _primitive_cases(rng):
        report = finite_difference_check(loss_fn, params)
        if report.max_rel_error > worst_primitive:
            worst_primitive, worst_name = report.max_rel_error, name
        assert report.ok(1e-4), f"primitive {name}: {report.max_rel_error:.2e}"
    loss_fn, params = _joint_toy()
    joint_report = finite_difference_check(loss_fn, params)
    elapsed = time.time() - start
    ok = worst_primitive < 1e-4 and joint_report.max_rel_error < 1e-3 \
        and elapsed < 30.0
    verdict("A1", ok,
             f"worst primitive {worst_primitive:.2e} ({worst_name}), "
             f"joint {joint_report.max_rel_error:.2e}, {elapsed:.1f}s")


# --- A2: relaxed-gate threshold identity --------------------------------------------


def test_A2_binary_concrete_threshold(verdict):
    start = time.time()
    rng = np.random.default_rng(123)
    n = 100_000
    worst = 0.0
    for p in (0.1, 0.5, 0.9):
        for nu in (0.5, 1.0):
            g1 = sample_gumbel((n,), rng)
            g2 = sample_gumbel((n,), rng)
            # the gate's score is the log-odds of its keep probability
            log_odds = np.full(n, np.log(p) - np.log1p(-p))
            z = relax_gates(ad.constant(log_odds), g1, g2, nu).data
            gap = abs(float(np.mean(z > 0.5)) - p)
            worst = max(worst, gap)
            assert gap < 0.01, f"p={p}, nu={nu}: |mean-p|={gap:.4f}"
    elapsed = time.time() - start
    ok = worst < 0.01 and elapsed < 10.0
    verdict("A2", ok, f"worst |mean(1[z>0.5])-p| {worst:.4f}, {elapsed:.1f}s")


# --- A3: scoring and metric oracles ---------------------------------------------------


def test_A3_scoring_and_metric_oracles(verdict):
    start = time.time()
    rng = np.random.default_rng(31)

    worst_maha = 0.0
    for k in (1, 2, 3):
        points = np.vstack([rng.normal(loc=4.0 * c, size=(35, 3))
                            for c in range(k)])
        labels = minibatch_kmeans(points, k, np.random.default_rng(k)).labels
        stats = fit_cluster_statistics(points, k, np.random.default_rng(k))
        for q in rng.normal(scale=5.0, size=(20, 3)):
            mine = float(mahalanobis_scores(q[None, :], stats)[0])
            ref = dense_mahalanobis(q, points, labels)
            worst_maha = max(worst_maha, abs(mine - ref) / max(abs(ref), 1e-30))
    assert worst_maha < 1e-9

    worst_rank = 0.0
    for trial in range(1000):
        n_id = int(rng.integers(1, 51))
        n_ood = int(rng.integers(1, 51))
        if trial % 3 == 0:
            pool = rng.integers(0, 6, size=n_id + n_ood) / 3.0
            ids, oods = pool[:n_id], pool[n_id:]
        else:
            ids = rng.normal(size=n_id)
            oods = rng.normal(loc=0.3, size=n_ood)
        s = ScoreSet(ids, oods)
        da = abs(auroc(s) - brute_auroc(ids, oods))
        dp = abs(aupr(s) - brute_aupr(ids, oods))
        worst_rank = max(worst_rank, da, dp)
        assert da <= 1e-12 and dp <= 1e-12, f"trial {trial}"

    fpr_examples_ok = (
        fpr_at_tpr(ScoreSet(np.arange(1.0, 21.0), np.array([10.0, 25.0]))) == 0.5
        and fpr_at_tpr(ScoreSet(np.array([1.0, 2.0]), np.array([9.0, 9.5]))) == 0.0
        and fpr_at_tpr(ScoreSet(np.arange(1.0, 21.0), np.arange(1.0, 21.0))) == 0.95
        and fpr_at_tpr(ScoreSet(np.arange(1.0, 21.0), np.array([10.0, 25.0]))) ==
        brute_fpr_at_tpr(np.arange(1.0, 21.0), [10.0, 25.0])
    )
    elapsed = time.time() - start
    ok = worst_maha < 1e-9 and worst_rank <= 1e-12 and fpr_examples_ok \
        and elapsed < 30.0
    verdict("A3", ok, f"mahalanobis rel {worst_maha:.1e}, "
             f"rank metrics {worst_rank:.1e}, fpr examples "
             f"{'exact' if fpr_examples_ok else 'WRONG'}, {elapsed:.1f}s")


# --- A4: contrastive loss fidelity ----------------------------------------------------


def test_A4_contrastive_fidelity(verdict):
    rng = np.random.default_rng(17)
    worst = 0.0

    # hand-built batches, 3 to 6 samples
    for m in (3, 4, 5, 6):
        reps = rng.normal(size=(m, 4))
        labels = [1, 1, 0, 1, 1, 0][:m]
        clusters = {i: i % 2 for i in range(m) if labels[i] == 1}
        cluster_of = np.array([clusters.get(i, -1) for i in range(m)])
        mine = float(cluster_contrastive_loss(
            ad.constant(reps), peer_weights(labels, cluster_of), 0.5).data)
        ref = direct_contrastive_loss(list(reps), labels, clusters, 0.5)
        worst = max(worst, abs(mine - ref))
        assert abs(mine - ref) <= 1e-12

    # anchors with no same-cluster peer are skipped; none at all -> zero
    reps = rng.normal(size=(3, 4))
    lonely = float(cluster_contrastive_loss(
        ad.constant(reps), peer_weights([1, 1, 0], np.array([0, 1, -1])), 0.5).data)
    skip_ok = lonely == 0.0
    ref_lonely = direct_contrastive_loss(list(reps), [1, 1, 0],
                                         {0: 0, 1: 1}, 0.5)
    skip_ok = skip_ok and ref_lonely == 0.0

    # supervised-class equals the cluster variant when clustering happens
    # to put every vulnerable sample in one group (k=1 forces it)
    flat = rng.normal(size=(6, 8))
    labels6 = [1, 0, 1, 1, 0, 1]
    a_cluster = assign_clusters(flat, labels6, 1, np.random.default_rng(3))
    a_super = assign_clusters(flat, labels6, 1, np.random.default_rng(3),
                              variant="supervised-class")
    same_assign = np.array_equal(a_cluster.cluster_of, a_super.cluster_of)
    l_cluster = float(cluster_contrastive_loss(
        ad.constant(flat), peer_weights(labels6, a_cluster.cluster_of), 0.5).data)
    l_super = float(cluster_contrastive_loss(
        ad.constant(flat), peer_weights(labels6, a_super.cluster_of), 0.5).data)
    coincide = same_assign and l_cluster == l_super

    ok = worst <= 1e-12 and skip_ok and coincide
    verdict("A4", ok, f"max |loss-oracle| {worst:.1e}, skip case "
             f"{'ok' if skip_ok else 'WRONG'}, variant coincidence "
             f"{'exact' if coincide else 'WRONG'}")


# --- A5/A6: end-to-end synthetic experiment -------------------------------------------

_A5_CACHE = {}


def _a5_corpus(tmp_dir):
    if "paths" not in _A5_CACHE:
        train_recs, id_test, ood_test = generate_synthetic(1000, 500, seed=7)
        paths = {
            "id": os.path.join(tmp_dir, "id_test.jsonl"),
            "ood": os.path.join(tmp_dir, "ood_test.jsonl"),
        }
        write_dataset(id_test, paths["id"])
        write_dataset(ood_test, paths["ood"])
        _A5_CACHE["paths"] = paths
        _A5_CACHE["train"] = train_recs
    return _A5_CACHE["train"], _A5_CACHE["paths"]


def _a5_config(seed, ablate=False):
    return TrainConfig(seed=seed, max_statements=40, embed_dim=32, clusters=3,
                       contrastive_weight=0.1, contrastive_temp=0.5,
                       relax_temp=0.5, epochs=10, batch_size=64,
                       ablate_cd=ablate)


def _a5_run(seed, ablate, tmp_dir):
    key = (seed, ablate)
    if key not in _A5_CACHE:
        train_recs, paths = _a5_corpus(tmp_dir)
        artifact = train(_a5_config(seed, ablate), train_recs)
        report, _ = evaluate(artifact, paths["id"], paths["ood"])
        _A5_CACHE[key] = report
    return _A5_CACHE[key]


@pytest.fixture(scope="module")
def a5_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("a5_corpus"))


def test_A5_end_to_end_synthetic(a5_dir, verdict):
    start = time.time()
    report = _a5_run(7, False, a5_dir)
    elapsed = time.time() - start
    ok = report.auroc >= 0.90 and report.fpr_at_tpr95 <= 0.25 and elapsed < 300
    verdict("A5", ok, f"AUROC {report.auroc:.4f} (>=0.90), "
             f"FPR@TPR95 {report.fpr_at_tpr95:.4f} (<=0.25), {elapsed:.0f}s")


def test_A6_ablation_direction(a5_dir, verdict):
    seeds = (7, 8, 9, 10, 11)
    full = [_a5_run(s, False, a5_dir).auroc for s in seeds]
    ablated = [_a5_run(s, True, a5_dir).auroc for s in seeds]
    mean_full = float(np.mean(full))
    mean_ablated = float(np.mean(ablated))
    margin = mean_full - mean_ablated
    ok = mean_full >= mean_ablated
    verdict("A6", ok, f"mean AUROC full {mean_full:.4f} vs ablated "
             f"{mean_ablated:.4f}, margin {margin:+.4f} over {len(seeds)} seeds")


# --- A7: determinism and persistence --------------------------------------------------


def test_A7_determinism_and_persistence(tmp_path, verdict):
    train_recs, id_test, _ = generate_synthetic(60, 20, seed=3)
    cfg = dict(max_statements=14, embed_dim=10, vocab_max=300,
               selector_hidden=(12, 12), classifier_hidden=(24, 12),
               batch_size=16, epochs=2, clusters=2)
    art1 = train(TrainConfig(seed=5, **cfg), train_recs)
    art2 = train(TrainConfig(seed=5, **cfg),
                 generate_synthetic(60, 20, seed=3)[0])
    identical = serialize_model(art1) == serialize_model(art2)

    path = str(tmp_path / "probe.leo")
    save_model(art1, path)
    before, _ = score_records(art1, id_test)
    after, _ = score_records(load_model(path), id_test)
    rel = float(np.max(np.abs(after - before) / np.maximum(np.abs(before), 1e-30)))
    ok = identical and rel <= 1e-5
    verdict("A7", ok, f"artifacts byte-identical: {identical}, "
             f"probe score max rel drift {rel:.1e} (<=1e-5)")


# --- A8: normalizer fidelity -----------------------------------------------------------


def test_A8_normalizer_fidelity(verdict):
    frozen = normalize_source("for (i = 0; i < 10; i++)")
    want = ["for", "(", "var1", "=", "0", ";", "var1", "<", "10", ";",
            "var1", "++", ")"]
    example_ok = [t for s in frozen.statements for t in s] == want

    rng = np.random.default_rng(88)
    corpus = []
    while len(corpus) < 500:
        fam = ("A", "B", "C")[len(corpus) % 3]
        benign, vulnerable, _ = generate_pair(fam, rng)
        corpus.extend([benign, vulnerable])
    corpus = corpus[:500]

    decorations = ["// táctica comment\n", "/* блок */\n", "\t \n", "// ok\n"]
    failures = []
    for i, code in enumerate(corpus):
        decorated = decorations[i % len(decorations)] + code
        fn = normalize_source(decorated)
        rendered = fn.render()
        if not rendered.isascii():
            failures.append((i, "non-ascii output"))
        again = normalize_source(rendered)
        if again.statements != fn.statements:
            failures.append((i, "not idempotent"))
        values = list(fn.rename_map.values())
        if len(set(values)) != len(values):
            failures.append((i, "rename map not injective"))
        if any(not re.fullmatch(r"(var|func)\d+", v) for v in values):
            failures.append((i, "placeholder name malformed"))

    ok = example_ok and not failures
    verdict("A8", ok, f"frozen example {'exact' if example_ok else 'WRONG'}, "
             f"{len(corpus)} fuzz functions, {len(failures)} invariant failures")
