"""Loss terms for the two-step training scheme.

Step one trains the classifier (and encoder) against random statement
dropout: each statement survives with probability one half through a
relaxed Bernoulli mask that is a constant in the graph, so the selector
never receives gradient from it. Step two trains everything jointly:
cross-entropy through sampled selector gates plus a weighted contrastive
term that pulls vulnerable samples toward the members of their own
per-batch k-means cluster and away from everything else. Both steps, and
every scoring mode, go through the same gate-masking pass, gated_block: it
gates the packed (S, dim) statement rows and places them into one (batch,
longest, dim) block, longest being the batch's longest function, which
classifier_forward, the clustering and the contrastive similarities all
read. On the frozen read path it gates each distinct statement row once.

Cluster assignments are recomputed from the current masked representations
every batch and treated as constants by the gradient.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import GraphError, Tensor
from .optim import MLPParams, ParameterStore, init_mlp_params, mlp_forward
from .selector import relax_gates, sample_gumbel, selector_presigmoid

_PROB_FLOOR = 1e-12
_NORM_GUARD = 1e-24


def init_classifier_params(store: ParameterStore, input_dim: int,
                           rng: np.random.Generator | None,
                           hidden_sizes=(300, 100),
                           dropout_retain: float = 0.8) -> MLPParams:
    """MLP on the flattened masked matrix with a two-way head, named
    classifier/."""
    return init_mlp_params(store, "classifier", input_dim, hidden_sizes, 2,
                           rng, dropout_retain)


def gated_block(x: Tensor, z: Tensor, true_lengths, index=None) -> Tensor:
    """The gate-masking pass training and scoring share: scale statement
    row s of the packed (S, dim) rows by its gate z[s] and place function
    f's gated rows at the top of block row f of a zero (batch, longest,
    dim) block, longest the batch's longest function.

    With encode_batch's `index` (the frozen read path, no tape) x and z
    hold the distinct rows and their gates: only those rows are multiplied,
    and kept statement s's slot takes a copy of gated row index[s], the
    product it would have had on its own."""
    lengths = np.asarray(true_lengths, dtype=np.int64)
    n = int(lengths.sum())
    m = n if index is None else len(x.data)
    if (x.data.ndim != 2 or x.data.shape[0] != m or z.data.shape != (m,)
            or (index is not None and np.shape(index) != (n,))):
        raise GraphError(f"gated_block expects the {n} statement rows of "
                         f"the lengths, or an index of them into the rows, "
                         f"and one gate per row, got {x.data.shape} rows and "
                         f"{z.data.shape} gates")
    gated = ad.mul(x, ad.reshape(z, (m, 1)))
    func = np.repeat(np.arange(len(lengths)), lengths)
    slot = np.arange(n) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    longest = int(lengths.max(initial=0))
    if index is None:
        return ad.scatter_rows(gated, func, slot, len(lengths), longest)
    if gated.requires_grad:
        raise GraphError("gated_block takes an index on the frozen read path only")
    # every slot reads one row: its gated row, or an appended zero row
    rows = np.full((len(lengths), longest), m)
    rows[func, slot] = index
    padded = np.concatenate([gated.data, np.zeros((1, x.data.shape[1]))])
    return ad.constant(padded[rows])


def classifier_forward(block: Tensor, params: MLPParams,
                       rng: np.random.Generator | None = None) -> Tensor:
    """Class probabilities of an (n, rows, dim) block of gated statement
    rows, flattened row-major: (n, 2). The first layer reads only the first
    rows * dim rows of its weights: the features past them would be zeros.
    """
    if block.data.ndim != 3:
        raise GraphError(f"classifier_forward expects an (n, rows, dim) "
                         f"block, got shape {block.data.shape}")
    b, rows, dim = block.data.shape
    layers = [*params.layers, params.head]
    w0, b0 = layers[0]
    width = w0.data.shape[0]
    if width % dim or width < rows * dim:
        raise GraphError(f"classifier_forward: a classifier of {width} inputs "
                         f"cannot read {rows} statements of width {dim}")
    layers[0] = (ad.leading_rows(w0, rows * dim), b0)
    flat = ad.reshape(block, (b, rows * dim))
    return ad.softmax(mlp_forward(flat, MLPParams(layers[:-1], layers[-1],
                                                  params.dropout_retain), rng),
                      axis=-1)


# ---------------------------------------------------------------------------
# cross-entropy


def _check_labels(labels: np.ndarray) -> None:
    if labels.size and not np.isin(labels, (0, 1)).all():
        raise GraphError("labels must be 0 or 1")


def batch_cross_entropy(probs: Tensor, labels) -> Tensor:
    """Mean of per-sample cross-entropy over an (n, 2) probability block."""
    labels = np.asarray(labels, dtype=np.int64)
    _check_labels(labels)
    n = probs.data.shape[0]
    if probs.data.ndim != 2 or probs.data.shape[1] != 2 or labels.shape != (n,):
        raise GraphError("batch_cross_entropy expects (n, 2) probs and n labels")
    onehot = np.zeros((n, 2))
    onehot[np.arange(n), labels] = 1.0
    clamped = ad.minimum_const(ad.maximum_const(probs, _PROB_FLOOR), 1.0)
    picked = ad.sum_axis(ad.mul(clamped, ad.constant(onehot)), axis=1)
    return ad.reduce_mean(ad.scale(ad.log(picked), -1.0))


# ---------------------------------------------------------------------------
# step one: classifier under random statement dropout


def data_distribution_loss(x: Tensor, true_lengths, labels,
                           params: MLPParams, *, relax_temp: float,
                           rng: np.random.Generator | None,
                           dropout_rng: np.random.Generator | None = None) -> Tensor:
    """Mean cross-entropy of the classifier on randomly masked functions.

    Each real statement is kept through a soft coin flip (keep probability
    one half, relaxed at `relax_temp`). The mask is a graph constant:
    gradient reaches the classifier and whatever produced the (S, dim)
    statement rows x, never the selector.
    """
    if rng is None:
        raise GraphError("data_distribution_loss needs an rng for its mask")
    n = x.data.shape[0]
    noise_a = sample_gumbel(n, rng)
    noise_b = sample_gumbel(n, rng)
    # a zero score is the log-odds of keep probability one half
    r = relax_gates(ad.constant(np.zeros(n)), noise_a, noise_b, relax_temp)
    probs = classifier_forward(gated_block(x, r, true_lengths), params, dropout_rng)
    return batch_cross_entropy(probs, labels)


# ---------------------------------------------------------------------------
# per-batch k-means


@dataclass
class KMeansResult:
    labels: np.ndarray        # (n,) cluster index per point
    centroids: np.ndarray     # (k_effective, dim)
    k_effective: int


def _nearest(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    # one centroid at a time: no (points, centroids, dim) temporary
    d2 = np.empty((len(points), len(centroids)))
    for j, c in enumerate(centroids):
        d2[:, j] = ((points - c) ** 2).sum(axis=1)
    return d2.argmin(axis=1)


def _seed_centroids(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Greedy distance-squared seeding."""
    n = len(points)
    chosen = [int(rng.integers(n))]
    d2 = ((points - points[chosen[0]]) ** 2).sum(axis=1)
    for _ in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            idx = int(rng.integers(n))
        chosen.append(idx)
        d2 = np.minimum(d2, ((points - points[idx]) ** 2).sum(axis=1))
    return points[chosen].astype(np.float64).copy()


def _refill_empty(points: np.ndarray, centroids: np.ndarray,
                  labels: np.ndarray, k: int) -> np.ndarray:
    """Give every empty cluster the farthest point whose own cluster keeps
    at least one member; ties break toward the lowest point index."""
    labels = labels.copy()
    while True:
        counts = np.bincount(labels, minlength=k)
        empty = np.flatnonzero(counts == 0)
        if empty.size == 0:
            return labels
        target = int(empty[0])
        d2 = ((points - centroids[labels]) ** 2).sum(axis=1)
        movable = counts[labels] >= 2
        far = int(np.argmax(np.where(movable, d2, -np.inf)))
        labels[far] = target
        centroids[target] = points[far]


def minibatch_kmeans(points: np.ndarray, k: int, rng: np.random.Generator,
                     max_iters: int = 10) -> KMeansResult:
    """Lloyd's algorithm with distance-squared seeding.

    The effective cluster count is min(k, len(points)); empty clusters are
    refilled so every retained cluster keeps at least one member. Stops
    after max_iters update rounds or when the assignment stabilizes.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise GraphError("k-means expects an (n, dim) point matrix")
    n = len(points)
    if n == 0:
        return KMeansResult(np.zeros(0, dtype=np.int64),
                            np.zeros((0, points.shape[1])), 0)
    k_eff = min(k, n)
    centroids = _seed_centroids(points, k_eff, rng)
    labels = _refill_empty(points, centroids, _nearest(points, centroids), k_eff)
    for _ in range(max_iters):
        centroids = np.stack([points[labels == c].mean(axis=0) for c in range(k_eff)])
        new_labels = _refill_empty(points, centroids, _nearest(points, centroids), k_eff)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return KMeansResult(labels.astype(np.int64), centroids, k_eff)


# ---------------------------------------------------------------------------
# similarity helper


def unit_rows(x: np.ndarray) -> np.ndarray:
    """L2-normalize rows; all-zero rows stay zero."""
    norms = np.sqrt((x * x).sum(axis=1, keepdims=True))
    return np.divide(x, norms, out=np.zeros_like(x), where=norms > 1e-12)


# ---------------------------------------------------------------------------
# cluster assignment and the contrastive term


@dataclass
class ClusterAssignment:
    """Cluster index per batch element; -1 marks the non-vulnerable."""
    cluster_of: np.ndarray
    k_effective: int


def assign_clusters(flat_reps: np.ndarray, labels, k: int,
                    rng: np.random.Generator, variant: str = "cluster",
                    max_iters: int = 10) -> ClusterAssignment:
    """Cluster the vulnerable samples of a batch on their L2-normalized
    flattened representations. The "supervised-class" variant skips
    clustering and puts every vulnerable sample in one group.
    """
    labels = np.asarray(labels, dtype=np.int64)
    _check_labels(labels)
    flat_reps = np.asarray(flat_reps, dtype=np.float64)
    cluster_of = np.full(labels.shape[0], -1, dtype=np.int64)
    vulnerable = np.flatnonzero(labels == 1)
    if vulnerable.size == 0:
        return ClusterAssignment(cluster_of, 0)
    if variant == "supervised-class":
        cluster_of[vulnerable] = 0
        return ClusterAssignment(cluster_of, 1)
    result = minibatch_kmeans(unit_rows(flat_reps[vulnerable]), k, rng, max_iters)
    cluster_of[vulnerable] = result.labels
    return ClusterAssignment(cluster_of, result.k_effective)


def peer_weights(labels, cluster_of) -> np.ndarray:
    """(n, n) peer weights: row i spreads a weight of one evenly over the
    other vulnerable samples of i's cluster. A row of zeros marks a sample
    that is no anchor: benign, unassigned, or alone in its cluster."""
    labels = np.asarray(labels, dtype=np.int64)
    cluster_of = np.asarray(cluster_of, dtype=np.int64)
    vulnerable = (labels == 1) & (cluster_of >= 0)
    same = (vulnerable[:, None] & vulnerable[None, :]
            & (cluster_of[:, None] == cluster_of[None, :]))
    np.fill_diagonal(same, False)
    peers = same.sum(axis=1, keepdims=True)
    return np.divide(same, peers, out=np.zeros(same.shape), where=peers > 0)


def cluster_contrastive_loss(masked: Tensor, peer_weight: np.ndarray,
                             temperature: float) -> Tensor:
    """Pull each vulnerable sample toward its same-cluster peers.

    For each anchor i (vulnerable, with at least one same-cluster
    vulnerable peer), average over peers c of
    -log( exp(sim(i,c)/t) / sum over all others a of exp(sim(i,a)/t) ),
    then sum over anchors. Similarity is cosine on the flattened masked
    matrices. `peer_weight` is peer_weights(labels, cluster_of). Anchors
    without peers contribute zero; a batch of one has no pairs and scores
    zero.
    """
    n = masked.data.shape[0]
    if n < 2:
        return ad.constant(0.0, name="contrastive_empty")
    anchor = peer_weight.any(axis=1).astype(np.float64)
    if not anchor.any():
        return ad.constant(0.0, name="contrastive_empty")

    flat = ad.reshape(masked, (n, int(np.prod(masked.data.shape[1:]))))
    sumsq = ad.sum_axis(ad.mul(flat, flat), axis=1, keepdims=True)
    norms = ad.sqrt(ad.add(sumsq, ad.constant(np.full((n, 1), _NORM_GUARD))))
    unit = ad.div(flat, norms)
    sims = ad.matmul(unit, ad.transpose(unit))
    scaled = ad.scale(sims, 1.0 / temperature)
    # per anchor: -(1/|C|) sum_c sim(i,c)/t + log sum_{a != i} exp(sim(i,a)/t)
    pull = ad.reduce_sum(ad.mul(ad.constant(peer_weight), ad.scale(scaled, -1.0)))
    off_diag = ad.constant(1.0 - np.eye(n))
    denom = ad.sum_axis(ad.mul(ad.exp(scaled), off_diag), axis=1)
    push = ad.reduce_sum(ad.mul(ad.constant(anchor), ad.log(denom)))
    return ad.add(pull, push)


# ---------------------------------------------------------------------------
# step two: the joint objective


@dataclass
class JointLossParts:
    total: Tensor
    cross_entropy: Tensor
    contrastive: Tensor
    gates: Tensor                      # (S,): one per statement row
    assignment: ClusterAssignment | None
    anchors: int = 0                   # vulnerable samples with a peer


def joint_loss(x: Tensor, true_lengths, labels, selector: MLPParams,
               classifier: MLPParams, *, relax_temp: float,
               temperature: float, contrastive_weight: float, clusters: int,
               rng: np.random.Generator, variant: str = "cluster",
               kmeans_iters: int = 10,
               dropout_rng: np.random.Generator | None = None) -> JointLossParts:
    """Gated cross-entropy plus the weighted contrastive term, on the
    (S, dim) statement rows x of a batch.

    One gate sample per statement per call: `rng` draws the Gumbel pair and
    then seeds the per-batch clustering, so a freshly seeded stream gives
    the same gates and clusters on every call. A zero contrastive_weight
    skips clustering entirely.
    """
    if rng is None:
        raise GraphError("joint_loss needs an rng to sample gates")
    labels = np.asarray(labels, dtype=np.int64)
    scores = selector_presigmoid(x, selector, dropout_rng)
    n = x.data.shape[0]
    z = relax_gates(scores, sample_gumbel(n, rng), sample_gumbel(n, rng),
                    relax_temp)
    masked = gated_block(x, z, true_lengths)
    ce = batch_cross_entropy(classifier_forward(masked, classifier, dropout_rng),
                             labels)
    if contrastive_weight == 0.0:
        return JointLossParts(ce, ce, ad.constant(0.0), z, None)
    b = masked.data.shape[0]
    assignment = assign_clusters(masked.data.reshape(b, -1), labels,
                                 clusters, rng, variant, kmeans_iters)
    weights = peer_weights(labels, assignment.cluster_of)
    ccl = cluster_contrastive_loss(masked, weights, temperature)
    total = ad.add(ce, ad.scale(ccl, contrastive_weight))
    return JointLossParts(total, ce, ccl, z, assignment,
                          int(weights.any(axis=1).sum()))
