"""Independent reference implementations used as test oracles.

Everything here is deliberately written the dumb, obvious way (explicit
loops, scalar math) and shares no code with the package, so agreement is
meaningful. Some helpers drive the package. The finite-difference harness,
`finite_difference_check`, runs `leo.autodiff.backward` for the analytic
side and compares it against central differences of the forward pass.
`full_block_representations` is the scoring pass over every statement slot,
padding included, against which the live-row pass is checked;
`slot_mask_representations` sums and places the scoring representations
function by function, against whose bits the shared gated block is checked;
`padded_losses` are both training losses over every slot, against which
the packed rows and the narrow classifier input are checked;
`dense_affine_grads` is the full-width backward the row-prefix one is
checked against; `rectify_then_pool_encoding` is the taped encoder with the
ReLU before the segment max, against whose bits the pool-then-ReLU one is
checked; `occurrence_encoding` and `all_rows_representations` encode and
gate every kept statement, repeats included, against which the frozen
pass over distinct statements and its distinct-row gating are checked, and
`kept_rows` expands encode_batch's distinct rows to one per kept statement.
`reference_normalize` is the one-scan lexer leo.normalize replaced, against
which the two-scan normalizer is checked.
`kmeans_inertia_history` re-runs `minibatch_kmeans` with 0, 1, ... Lloyd
rounds to recover the inertia after each round, which the package does not
keep.
"""
from __future__ import annotations

import copy
import math
import re
from dataclasses import dataclass, field

import numpy as np

from leo import autodiff as ad
from leo.autodiff import GraphError, backward
from leo.data import DatasetRecord
from leo.encoder import encode_batch
from leo.losses import (
    assign_clusters,
    batch_cross_entropy,
    classifier_forward,
    cluster_contrastive_loss,
    gated_block,
    minibatch_kmeans,
    peer_weights,
)
from leo.normalize import (
    ALLOWLIST,
    CONTROL_KEYWORDS,
    PAD_ID,
    NormalizedFunction,
    NormalizeError,
)
from leo.scoring import representation_dim
from leo.selector import (
    deterministic_mask,
    relax_gates,
    sample_gumbel,
    selector_forward,
    selector_presigmoid,
)


def adam_reference_trace(grads, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8, x0=0.0):
    """Scalar Adam run as plain float arithmetic; returns parameter values
    after each step."""
    m = 0.0
    v = 0.0
    x = x0
    out = []
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        x = x - lr * m_hat / (math.sqrt(v_hat) + eps)
        out.append(x)
    return out


def adam_reference_step(p, g, m, v, t, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
    """One out-of-place Adam update of arrays; returns the new (p, m, v)."""
    m = beta1 * m + (1 - beta1) * g
    v = beta2 * v + (1 - beta2) * g * g
    p = p - lr * (m / (1 - beta1 ** t)) / (np.sqrt(v / (1 - beta2 ** t)) + eps)
    return p, m, v


def dense_affine_grads(x: np.ndarray, w: np.ndarray, g: np.ndarray):
    """The full-width backward of x @ w + b for an upstream gradient g:
    (dx, dw, db), every product over all of x's columns."""
    return g @ w.T, x.T @ g, g.sum(axis=0)


def central_difference(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Plain two-point central differences of a scalar function of x."""
    x = x.astype(np.float64).copy()
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = f(x)
        flat[i] = orig - h
        down = f(x)
        flat[i] = orig
        gflat[i] = (up - down) / (2 * h)
    return grad


def brute_auroc(id_scores, ood_scores) -> float:
    """Pairwise count, ties worth one half; positives are the OOD scores."""
    wins = 0.0
    for o in ood_scores:
        for i in id_scores:
            if o > i:
                wins += 1.0
            elif o == i:
                wins += 0.5
    return wins / (len(id_scores) * len(ood_scores))


def brute_aupr(id_scores, ood_scores) -> float:
    """Average precision over the OOD-positive ranking, recomputing the
    confusion counts from scratch at every distinct threshold (descending),
    ties grouped into one step."""
    thresholds = sorted(set(list(id_scores) + list(ood_scores)), reverse=True)
    ap = 0.0
    prev_recall = 0.0
    n_pos = len(ood_scores)
    for t in thresholds:
        tp = sum(1 for s in ood_scores if s >= t)
        fp = sum(1 for s in id_scores if s >= t)
        precision = tp / (tp + fp)
        recall = tp / n_pos
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def brute_fpr_at_tpr(id_scores, ood_scores, tpr=0.95) -> float:
    """Nearest-rank threshold by explicit enumeration, then a literal count."""
    ordered = sorted(id_scores)
    rank = math.ceil(tpr * len(ordered))  # 1-indexed
    threshold = ordered[rank - 1]
    return sum(1 for s in ood_scores if s <= threshold) / len(ood_scores)


def hand_cosine(u, v) -> float:
    num = sum(a * b for a, b in zip(u, v))
    nu = math.sqrt(sum(a * a for a in u))
    nv = math.sqrt(sum(b * b for b in v))
    if nu < 1e-12 or nv < 1e-12:
        return 0.0
    return num / (nu * nv)


def direct_contrastive_loss(reps, labels, cluster_of, temperature) -> float:
    """Literal evaluation of the cluster-pulling loss: sum over vulnerable
    anchors with at least one same-cluster peer of the mean over peers of
    -log(exp(sim/t) / sum over all others of exp(sim/t)).

    reps: list of vectors, labels: 0/1 list, cluster_of: dict index->cluster
    for the vulnerable indices only.
    """
    m = len(reps)
    total = 0.0
    for i in range(m):
        if labels[i] != 1:
            continue
        peers = [c for c in range(m)
                 if c != i and labels[c] == 1 and cluster_of.get(c) == cluster_of.get(i)]
        if not peers:
            continue
        denom = 0.0
        for a in range(m):
            if a == i:
                continue
            denom += math.exp(hand_cosine(reps[i], reps[a]) / temperature)
        inner = 0.0
        for c in peers:
            inner += math.log(math.exp(hand_cosine(reps[i], reps[c]) / temperature) / denom)
        total += -inner / len(peers)
    return total


def lloyd_reference(points: np.ndarray, centroids: np.ndarray, iters: int = 100):
    """Plain Lloyd iteration from the given starting centroids."""
    centroids = centroids.astype(np.float64).copy()
    labels = np.zeros(len(points), dtype=int)
    for _ in range(iters):
        dists = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_labels = dists.argmin(axis=1)
        if np.array_equal(new_labels, labels) and _ > 0:
            break
        labels = new_labels
        for k in range(len(centroids)):
            members = points[labels == k]
            if len(members):
                centroids[k] = members.mean(axis=0)
    inertia = sum(((points[i] - centroids[labels[i]]) ** 2).sum() for i in range(len(points)))
    return labels, centroids, float(inertia)


def kmeans_inertia(points: np.ndarray, result) -> float:
    """Sum of squared distances from each point to its assigned centroid."""
    return float(((points - result.centroids[result.labels]) ** 2).sum())


def kmeans_inertia_history(points: np.ndarray, k: int,
                           rng: np.random.Generator, max_iters: int) -> list[float]:
    """The inertia after seeding and after each of up to max_iters Lloyd
    rounds: minibatch_kmeans re-run from copies of `rng` (left unconsumed)
    with 0, 1, ..., max_iters rounds. A run that converged early repeats
    its final value."""
    return [kmeans_inertia(points, minibatch_kmeans(points, k, copy.deepcopy(rng),
                                                    max_iters=t))
            for t in range(max_iters + 1)]


def dense_mahalanobis(x: np.ndarray, points: np.ndarray, labels: np.ndarray,
                      eps_rule=None) -> float:
    """Min-over-clusters quadratic form computed from raw points via
    np.linalg.solve; never touches stored inverses."""
    best = math.inf
    for k in sorted(set(labels.tolist())):
        members = points[labels == k]
        mu = members.mean(axis=0)
        if len(members) > 1:
            centered = members - mu
            cov = centered.T @ centered / (len(members) - 1)
        else:
            cov = np.zeros((points.shape[1], points.shape[1]))
        if eps_rule is None:
            eps = max(1e-3 * np.trace(cov) / cov.shape[0], 1e-6)
        else:
            eps = eps_rule
        diff = x - mu
        score = float(diff @ np.linalg.solve(cov + eps * np.eye(len(cov)), diff))
        best = min(best, score)
    return best


def sample_mean_cov(points: np.ndarray):
    """Unbiased moments from first principles (einsum, no np.cov/np.mean on
    the covariance path)."""
    n = len(points)
    mu = points.sum(axis=0) / n
    centered = points - mu
    cov = np.einsum("ni,nj->ij", centered, centered) / (n - 1)
    return mu, cov


def exhaustive_mask_expectation(ce_of_mask, n_statements: int) -> float:
    """Expectation of a loss over all 2^n hard on/off statement masks with
    independent fair coins."""
    total = 0.0
    for bits in range(2 ** n_statements):
        mask = [(bits >> i) & 1 for i in range(n_statements)]
        total += ce_of_mask(mask)
    return total / (2 ** n_statements)


def nearest_rank(scores, quantile) -> float:
    ordered = sorted(scores)
    rank = math.ceil(quantile * len(ordered))
    return ordered[max(rank, 1) - 1]


def encode_statement_reference(ids, embedding, kernel, bias, pad_id=0) -> np.ndarray:
    """One statement's vector by explicit loops: embed each token (padding
    tokens embed to zero), zero-pad to the kernel width, slide the kernel,
    add the bias, ReLU, then take the max over the windows."""
    k, dim, filters = kernel.shape
    rows = [np.zeros(dim) if t == pad_id else embedding[t].astype(np.float64)
            for t in ids]
    while len(rows) < k:
        rows.append(np.zeros(dim))
    best = None
    for start in range(len(rows) - k + 1):
        out = bias.astype(np.float64).copy()
        for j in range(k):
            for c in range(dim):
                out += rows[start + j][c] * kernel[j, c]
        out = np.maximum(out, 0.0)
        best = out if best is None else np.maximum(best, out)
    return best


def encode_function_reference(statements, embedding, kernel, bias,
                              max_statements, pad_id=0) -> np.ndarray:
    """(max_statements, dim) matrix: the first max_statements statement
    vectors in order, zero rows after them."""
    out = np.zeros((max_statements, kernel.shape[2]))
    for i, ids in enumerate(statements[:max_statements]):
        out[i] = encode_statement_reference(ids, embedding, kernel, bias, pad_id)
    return out


def rectify_then_pool_encoding(statements, params, rng) -> ad.Tensor:
    """The taped encoder with the ReLU on every window before the pool,
    conv1d -> maximum_const -> segment_max. It lays the
    statements out as encode_batch does (each over max(L, k) positions) and
    draws the same dropout uniforms from `rng`, so encode_batch's
    pool-then-rectify rows and gradients can be checked against it bit for
    bit."""
    k = params.kernel_size
    ids, starts, runs = [], [], []
    for stmt in statements:
        span = max(len(stmt), k)
        runs.append(len(starts))
        starts.extend(range(len(ids), len(ids) + span - k + 1))
        ids.extend(list(stmt) + [PAD_ID] * (span - len(stmt)))
    ids = np.array(ids, dtype=np.int64)
    pad_mask = ad.constant((ids != PAD_ID).astype(np.float64)[:, None])
    emb = ad.mul(ad.gather_rows(params.embedding, ids), pad_mask)
    h = ad.conv1d(ad.dropout(emb, params.dropout_retain, rng),
                  params.conv_kernel, params.conv_bias, np.array(starts))
    return ad.segment_max(ad.maximum_const(h, 0.0), np.array(runs))


def kept_rows(encoded):
    """encode_batch's (rows, lengths, index) as (rows, lengths) with one
    row per kept statement: distinct rows are expanded by the index."""
    rows, lengths, index = encoded
    if index is not None:
        rows = ad.constant(rows.data[index])
    return rows, lengths


def occurrence_encoding(batch, params, max_statements) -> np.ndarray:
    """Frozen statement rows the long way: every kept statement, repeats
    included, is padded to max(L, k) tokens, convolved window by window,
    max-pooled and rectified, in kept order. The kernel taps come from the
    one product the folded encoder takes, over the sorted distinct ids of
    the kept statements (PAD_ID among them when one is shorter than the
    kernel), and each window adds its taps in kernel order and then the
    bias, so the rows can be checked against the folded encoder bit for
    bit."""
    k, dim, f = params.conv_kernel.data.shape
    kept = [list(s) for fn in batch for s in fn[:max_statements]]
    padded = [s + [PAD_ID] * (k - len(s)) for s in kept]
    uniq = np.array(sorted({t for s in padded for t in s}), dtype=np.int64)
    rows = params.embedding.data[uniq]
    rows[uniq == PAD_ID] = 0.0
    taps = (rows @ params.conv_kernel.data.transpose(1, 0, 2).reshape(dim, k * f)
            ).reshape(-1, k, f)
    tap_row = {int(t): i for i, t in enumerate(uniq)}
    out = np.zeros((len(kept), f))
    for i, s in enumerate(padded):
        best = None
        for w in range(len(s) - k + 1):
            h = taps[tap_row[s[w]], 0].copy()
            for j in range(1, k):
                h = h + taps[tap_row[s[w + j]], j]
            h = h + params.conv_bias.data
            best = h if best is None else np.maximum(best, h)
        out[i] = np.maximum(best, 0.0)
    return out


def all_rows_representations(params, samples, config, *, distinct_gates=False):
    """Scoring representations and max-softmax complements with every kept
    statement's row, repeats included, gated and placed by gated_block
    without an index; the classifier runs when the model has one (msp is
    None without). The selector runs on every kept row, or with
    `distinct_gates` on the distinct rows once, their gates then expanded
    with the rows (expand, then gate)."""
    n = len(samples)
    reps = np.zeros((n, representation_dim(config)))
    msp = np.zeros(n) if params.classifier is not None else None
    for start in range(0, n, config.batch_size):
        chunk = samples[start:start + config.batch_size]
        encoded = encode_batch(chunk, params.encoder, config.max_statements)
        x, lengths = kept_rows(encoded)
        rows, _, index = encoded
        gates = deterministic_mask(
            selector_forward(rows if distinct_gates else x, params.selector).data,
            config.gate_mode)
        if distinct_gates and index is not None:
            gates = gates[index]
        block = gated_block(x, ad.constant(gates), lengths).data
        b = len(chunk)
        if config.scoring_mode == "pooled-d":
            reps[start:start + b] = (block.sum(axis=1)
                                     / np.maximum(lengths, 1)[:, None])
        else:
            reps[start:start + b, :block[0].size] = block.reshape(b, -1)
        if msp is not None:
            probs = classifier_forward(ad.constant(block), params.classifier).data
            msp[start:start + b] = 1.0 - probs.max(axis=1)
    return reps, msp


def family_d_records(n: int, rng: np.random.Generator) -> list[DatasetRecord]:
    """Held-out family D, n // 2 benign/vulnerable twin pairs from ID tokens
    only: a clamp `if (idx >= len) { idx = len - 1; }` before a read of
    buf[idx], and in about half the pairs a write back to buf[idx]. The
    vulnerable twin lacks the clamp. It draws only from `rng`, so it leaves
    `generate_synthetic`'s stream alone."""
    records = []
    for pair in range(n // 2):
        guard = "if (idx >= len) { idx = len - 1; }"
        body = [guard, "int val = buf[idx] + buf[0];"]
        if rng.random() < 0.5:
            body.append("buf[idx] = val;")
        body.append("return val;")
        for label, lines in ((0, body), (1, [s for s in body if s is not guard])):
            code = ("int f(int *buf, int len, int idx) {\n"
                    + "".join(f"    {s}\n" for s in lines) + "}\n")
            records.append(DatasetRecord(f"D{pair:05d}{'bv'[label]}", code,
                                         label, "CWE-193"))
    return records


def relaxed_bernoulli_reference(p, a, b, nu) -> np.ndarray:
    """Binary Concrete sample from a keep probability, one element at a
    time: 1 / (1 + exp(-(log p - log(1 - p) + a - b) / nu))."""
    p, a, b = np.broadcast_arrays(np.asarray(p, dtype=np.float64),
                                  np.asarray(a, dtype=np.float64),
                                  np.asarray(b, dtype=np.float64))
    out = np.empty(p.shape)
    for idx in np.ndindex(p.shape):
        x = (math.log(p[idx]) - math.log1p(-p[idx]) + a[idx] - b[idx]) / nu
        if x >= 0:
            out[idx] = 1.0 / (1.0 + math.exp(-x))
        else:
            out[idx] = math.exp(x) / (1.0 + math.exp(x))
    return out


def padded_block(rows: np.ndarray, lengths, max_statements: int) -> np.ndarray:
    """(B, max_statements, dim) block: function f's packed statement rows at
    the top of block row f, zero rows after them."""
    lengths = np.asarray(lengths)
    block = np.zeros((len(lengths), max_statements, rows.shape[1]))
    for f, start in enumerate(np.cumsum(lengths) - lengths):
        block[f, :lengths[f]] = rows[start:start + lengths[f]]
    return block


def full_block_representations(params, samples, config):
    """Scoring representations and max-softmax complements the long way:
    the selector scores all batch x max_statements slots, padded ones
    included, the padded gates are zeroed afterwards, and the classifier
    always runs."""
    n, m = len(samples), config.max_statements
    reps = np.zeros((n, representation_dim(config)))
    msp = np.zeros(n)
    for start in range(0, n, config.batch_size):
        chunk = samples[start:start + config.batch_size]
        rows, lengths = kept_rows(encode_batch(chunk, params.encoder, m))
        x = padded_block(rows.data, lengths, m)
        b = len(chunk)
        probs = selector_forward(ad.constant(x.reshape(b * m, -1)),
                                 params.selector).data.reshape(b, m)
        z = deterministic_mask(probs, config.gate_mode)
        z *= np.arange(m)[None, :] < lengths[:, None]
        masked = x * z[:, :, None]
        class_probs = classifier_forward(ad.constant(masked), params.classifier).data
        msp[start:start + b] = 1.0 - class_probs.max(axis=1)
        if config.scoring_mode == "pooled-d":
            reps[start:start + b] = (masked.sum(axis=1)
                                     / np.maximum(lengths, 1)[:, None])
        else:
            reps[start:start + b] = masked.reshape(b, -1)
    return reps, msp


def slot_mask_representations(params, samples, config):
    """Scoring representations summed and placed the way they were before
    scoring shared the training block: pooled-d as a slice sum of each
    function's own gated rows divided by its length, concat-diagonal as
    the gated rows written into a (batch, max_statements, dim) block
    through a slot mask."""
    reps = np.zeros((len(samples), representation_dim(config)))
    slots = np.arange(config.max_statements)
    for start in range(0, len(samples), config.batch_size):
        chunk = samples[start:start + config.batch_size]
        x, lengths = kept_rows(encode_batch(chunk, params.encoder,
                                            config.max_statements))
        probs = selector_forward(x, params.selector).data
        masked = x.data * deterministic_mask(probs, config.gate_mode)[:, None]
        if config.scoring_mode == "pooled-d":
            end = 0
            for i, length in enumerate(lengths.tolist()):
                if length:
                    reps[start + i] = masked[end:end + length].sum(axis=0) / length
                    end += length
        else:
            block = np.zeros((len(chunk), config.max_statements, masked.shape[1]))
            block[slots[None, :] < lengths[:, None]] = masked
            reps[start:start + len(chunk)] = block.reshape(len(chunk), -1)
    return reps


def padded_losses(rows, lengths, labels, selector, classifier, *, dd_rng,
                  joint_rng, dropout_rng=None, relax_temp=0.5, temperature=0.5,
                  contrastive_weight=0.1, clusters=2):
    """Both training losses the padded way: the (S, dim) statement rows go
    into a (B, max_statements, dim) block through a 0/1 placement product,
    the selector scores every slot, each loss's Gumbel pair (S draws each,
    the packed stream) is placed at the real slots, the padded gates are
    zeroed, and the classifier, the clustering and the contrastive term
    read the full (B, max_statements, dim) gated block. With `dropout_rng`, each
    selector hidden layer draws S rows of uniforms, the packed stream,
    placed at the real slots (padded slots drop everything), and the
    classifier draws its (B, hidden) uniforms as in training.
    Returns (distribution loss, joint loss)."""
    lengths = np.asarray(lengths)
    n, dim = rows.data.shape
    b = len(lengths)
    m = classifier.layers[0][0].data.shape[0] // dim
    live = (np.arange(m)[None, :] < lengths[:, None]).reshape(-1)
    place = np.zeros((b * m, n))
    place[np.flatnonzero(live), np.arange(n)] = 1.0
    block = ad.matmul(ad.constant(place), rows)  # (B * m, dim)

    def gated(scores, rng):
        a, c = np.zeros(b * m), np.zeros(b * m)
        a[live], c[live] = sample_gumbel(n, rng), sample_gumbel(n, rng)
        z = ad.mul(relax_gates(scores, a, c, relax_temp), ad.constant(live * 1.0))
        return ad.reshape(ad.mul(block, ad.reshape(z, (b * m, 1))), (b, m, dim))

    def scores():
        if dropout_rng is None:
            return selector_presigmoid(block, selector)
        h = block
        for w, bias in selector.layers:
            h = ad.maximum_const(ad.affine(h, w, bias), 0.0)
            u = np.ones((b * m, w.data.shape[1]))
            u[live] = dropout_rng.random((n, w.data.shape[1]))
            retain = selector.dropout_retain
            h = ad.mul(h, ad.constant((u < retain) / retain))
        w, bias = selector.head
        return ad.reshape(ad.affine(h, w, bias), (b * m,))

    masked = gated(ad.constant(np.zeros(b * m)), dd_rng)
    distribution = batch_cross_entropy(
        classifier_forward(masked, classifier, dropout_rng), labels)
    masked = gated(scores(), joint_rng)
    joint = batch_cross_entropy(classifier_forward(masked, classifier, dropout_rng),
                                labels)
    assignment = assign_clusters(masked.data.reshape(b, -1), labels, clusters,
                                 joint_rng)
    ccl = cluster_contrastive_loss(masked, peer_weights(labels, assignment.cluster_of),
                                   temperature)
    return distribution, ad.add(joint, ad.scale(ccl, contrastive_weight))


@dataclass
class FiniteDifferenceReport:
    """Per-parameter worst relative error of analytic vs central differences."""
    max_rel_error: float
    per_param: dict[str, float] = field(default_factory=dict)
    flagged: list[tuple[str, int, float]] = field(default_factory=list)  # (name, flat index, err)

    def ok(self, tol: float) -> bool:
        return self.max_rel_error < tol


def finite_difference_check(loss_fn, params: dict, h: float = 1e-5,
                            tol: float = 1e-4, sample_threshold: int = 10_000,
                            sample_coords: int = 64, zero_floor: float = 1e-6,
                            rng: np.random.Generator | None = None) -> FiniteDifferenceReport:
    """Compare analytic gradients against central finite differences.

    `loss_fn` must rebuild the graph from scratch (including any noise, from
    a freshly seeded stream) and return the scalar loss Tensor; it is called
    once per perturbed coordinate, so it has to be deterministic. Tensors
    larger than `sample_threshold` elements are checked on `sample_coords`
    random coordinates (at least 32); smaller tensors are checked fully.
    Coordinates where both gradients are below `zero_floor` in magnitude
    count as exact (zero-gradient parameters produce FD noise of order h^2).
    """
    if not 1e-6 <= h <= 1e-4:
        raise GraphError(f"finite-difference step {h} outside [1e-6, 1e-4]")
    rng = rng or np.random.default_rng(0)

    for p in params.values():
        p.grad = None
    backward(loss_fn())
    analytic = {name: (np.zeros_like(p.data) if p.grad is None else p.grad.copy())
                for name, p in params.items()}

    report = FiniteDifferenceReport(max_rel_error=0.0)
    for name, p in params.items():
        flat = p.data.reshape(-1)
        size = flat.size
        if size > sample_threshold:
            count = max(32, min(sample_coords, size))
            coords = rng.choice(size, size=count, replace=False)
        else:
            coords = np.arange(size)
        worst = 0.0
        for idx in coords:
            orig = flat[idx]
            flat[idx] = orig + h
            up = loss_fn().item()
            flat[idx] = orig - h
            down = loss_fn().item()
            flat[idx] = orig
            numeric = (up - down) / (2.0 * h)
            exact = analytic[name].reshape(-1)[idx]
            denom = max(abs(exact), abs(numeric))
            err = 0.0 if denom < zero_floor else abs(exact - numeric) / denom
            if err > worst:
                worst = err
            if err > tol:
                report.flagged.append((name, int(idx), err))
        report.per_param[name] = worst
        report.max_rel_error = max(report.max_rel_error, worst)
    return report


# ---------------------------------------------------------------------------
# normalization: the earlier one-scan lexer, kept as the differential oracle
# of leo.normalize, which rewrites comments and literals first and then walks
# plain token strings. This one lexes into (text, is identifier, line, first
# on its line) tuples with one finditer scan and cuts them into statements in
# one walk.

# Order matters: longest operators first so the alternation is greedy.
_REFERENCE_OPERATORS = [
    "<<=", ">>=", "...", "->*", "::", "->", "++", "--", "<<", ">>", "<=",
    ">=", "==", "!=", "&&", "||", "+=", "-=", "*=", "/=", "%=", "&=", "|=",
    "^=", "##", "+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|", "^",
    "~", "?", ":", ".", "#",
]

# One match per token. The prefix skips horizontal whitespace and // comments
# atomically (a lookahead capture re-matched by backreference), so a token
# never starts inside a comment; \Z lets whitespace or a comment end the
# text. A byte that starts no token (a stray backslash, @, $, `) matches
# nothing and is skipped by finditer. Alternatives that share a first
# character keep their priority: a complete comment or literal before its
# lone opener (which is then unterminated) and before the "/" operator, a
# number before ".", and longer operators before shorter ones.
_REFERENCE_TOKEN_RE = re.compile(
    r"""
    (?=((?:[^\S\n]+|//[^\n]*)*))\1
    (?:
        (?P<IDENT>[A-Za-z_]\w*)
      | (?P<NEWLINE>\n)
      | (?P<COMMENT>/\*.*?\*/)
      | (?P<LITERAL>"(?:\\.|[^"\\\n])*"|'(?:\\.|[^'\\\n])*')
      | (?P<OPEN>/\*|"|')
      | (?P<OTHER>
            [(){}\[\],;]
          | 0[xX][0-9a-fA-F]+[uUlL]*
          | (?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?[uUlLfF]*
          | """ + "|".join(re.escape(op) for op in _REFERENCE_OPERATORS) + r"""
        )
      | \Z
    )
    """,
    re.VERBOSE | re.DOTALL,
)

_REFERENCE_UNTERMINATED = {
    "/*": "unterminated block comment",
    '"': "unterminated string literal",
    "'": "unterminated character literal",
}


def _reference_lex(text: str) -> list[tuple[str, bool, int, bool]]:
    """(text, is identifier, line, first on its line) per token, with
    string and character literals already collapsed to "str"."""
    tokens = []
    line = 1
    first = True
    for m in _REFERENCE_TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "IDENT" or kind == "OTHER":
            tokens.append((m[kind], kind == "IDENT", line, first))
            first = False
        elif kind == "NEWLINE":
            line += 1
            first = True
        elif kind == "LITERAL":
            tokens.append(("str", False, line, first))
            first = False
        elif kind == "COMMENT":
            line += m[kind].count("\n")
        elif kind == "OPEN":
            raise NormalizeError(_REFERENCE_UNTERMINATED[m[kind]], m.start(kind))
    return tokens


def _reference_split(tokens) -> tuple[list[list[str]], dict[str, str]]:
    """Rename user identifiers and cut _reference_lex's token stream into
    statements, in one walk. Returns the statements and the rename map.

    An identifier is renamed just before it is placed, as a function when
    the next token is "(". The <...> target of an include directive folds
    into one "str" token, mirroring the quoted-target rule. The target scan
    stays on the include's line, but a ">" that is the first token past
    that line still closes it: "#include <a\\n>" gives one statement,
    ["#", "include", "str"]. That quirk is kept: normalized output is frozen.

    Boundaries: after ';' at paren depth 0; before and after '{' / '}' at
    paren depth 0 (each brace is its own statement); after the ')' that
    closes an if/for/while/switch header, unless a ';' follows immediately;
    a preprocessor line ('#' first on its line) is one whole statement.
    """
    statements: list[list[str]] = []
    current: list[str] = []
    rename: dict[str, str] = {}
    counts = {"var": 0, "func": 0}
    depth = 0
    control = False  # a control header opened at paren depth 0
    pp_line = None
    i, n = 0, len(tokens)
    while i < n:
        text, ident, line, first = tokens[i]
        i += 1
        if pp_line is not None and line != pp_line:
            statements.append(current)  # the directive, from its "#"
            current = []
            pp_line = None
        if ident:
            if text not in ALLOWLIST:
                name = rename.get(text)
                if name is None:
                    kind = "func" if i < n and tokens[i][0] == "(" else "var"
                    counts[kind] += 1
                    name = rename[text] = f"{kind}{counts[kind]}"
                text = name
            elif (text == "include" and i > 1 and tokens[i - 2][0] == "#"
                  and i < n and tokens[i][0] == "<"):
                j = i
                while j < n and tokens[j][0] != ">" and tokens[j][2] == line:
                    j += 1
                if j < n and tokens[j][0] == ">":
                    current.append(text)
                    text, i = "str", j + 1
        if pp_line is not None:
            current.append(text)
        elif text == "#" and first:
            if current:
                statements.append(current)
            current = [text]
            control = False
            pp_line = line
        elif text == "(" or text == "[":
            depth += 1
            current.append(text)
        elif text == ")" or text == "]":
            if depth:
                depth -= 1
            current.append(text)
            if text == ")" and not depth and control:
                if i < n and tokens[i][0] == ";":
                    current.append(";")
                    i += 1
                statements.append(current)
                current = []
                control = False
        elif not depth and (text == "{" or text == "}"):
            if current:
                statements.append(current)
                current = []
            control = False
            statements.append([text])
        else:
            if text in CONTROL_KEYWORDS and (not current or current == ["else"]):
                control = True
            current.append(text)
            if text == ";" and not depth:
                statements.append(current)
                current = []
                control = False
    if current:
        statements.append(current)
    return statements, rename


def reference_normalize(source_text: str) -> NormalizedFunction:
    """normalize_source as the one-scan lexer computed it: the same
    statements, rename map, NormalizeError message and offset."""
    text = source_text.encode("ascii", errors="ignore").decode("ascii")
    text = text.replace("\r\n", "\n").replace("\\\n", " ")
    statements, rename_map = _reference_split(_reference_lex(text))
    return NormalizedFunction(statements=statements, rename_map=rename_map)
