"""Outlier scoring: cluster-conditioned Mahalanobis distance with a
validation-calibrated threshold.

Training representations are clustered (raw, unnormalized), each cluster
gets a mean and a shrinkage-regularized inverse covariance, and a sample's
score is its smallest quadratic form over the clusters. A sample counts as
out-of-distribution exactly when its score exceeds the threshold.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .losses import minibatch_kmeans
from .metrics import nearest_rank_quantile


@dataclass
class ClusterStatistics:
    """Per-cluster moments in scoring space.

    `inverses` holds full (k, dim, dim) inverse covariance matrices, or
    (k, dim) inverse variance rows for a diagonal covariance (the
    concat-diagonal scoring mode, whose long concatenated representation
    would make a dense covariance unworkable). The scoring mode itself is
    the config's scoring_mode; these statistics do not restate it.
    """
    means: np.ndarray
    inverses: np.ndarray
    counts: np.ndarray
    eps_used: np.ndarray

    @property
    def k(self) -> int:
        return self.means.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]


EPS_SCALE, EPS_FLOOR = 1e-3, 1e-6  # per-cluster shrinkage: scale * trace / dim, floor


def representation_dim(config) -> int:
    """Width of a TrainConfig's scoring representation: one statement
    vector for pooled-d, the flattened gated (max_statements, embed_dim)
    matrix for concat-diagonal."""
    if config.scoring_mode == "pooled-d":
        return config.embed_dim
    return config.max_statements * config.embed_dim


def fit_cluster_statistics(representations: np.ndarray, k: int,
                           rng: np.random.Generator, *,
                           mode: str = "pooled-d",
                           kmeans_iters: int = 10) -> ClusterStatistics:
    """Cluster the training representations and fit per-cluster moments.

    Covariance is the unbiased sample covariance (zero for singleton
    clusters); shrinkage per cluster is max(EPS_SCALE*trace/dim, EPS_FLOOR),
    far above rounding, so cov + shrinkage*I always has a Cholesky inverse.
    In concat-diagonal mode only the covariance diagonal is kept (the
    concatenated representation is too wide for a dense matrix).
    Requesting more clusters than points reduces k with a warning.
    """
    reps = np.asarray(representations, dtype=np.float64)
    if reps.ndim != 2 or len(reps) == 0:
        raise ValueError("need a non-empty (n, dim) representation matrix")
    if not np.isfinite(reps).all():
        raise ValueError("representations must be finite")
    diagonal = mode == "concat-diagonal"
    if k > len(reps):
        warnings.warn(f"cluster count reduced from {k} to {len(reps)}")
    result = minibatch_kmeans(reps, k, rng, max_iters=kmeans_iters)
    dim = reps.shape[1]
    means = np.zeros((result.k_effective, dim))
    counts = np.zeros(result.k_effective, dtype=np.int64)
    eps_used = np.zeros(result.k_effective)
    inverses = np.zeros((result.k_effective, dim) if diagonal
                        else (result.k_effective, dim, dim))
    for c in range(result.k_effective):
        members = reps[result.labels == c]
        counts[c] = len(members)
        means[c] = members.mean(axis=0)
        centered = members - means[c]
        dof = max(len(members) - 1, 1)
        if diagonal:
            var = (centered * centered).sum(axis=0) / dof
            eps_used[c] = max(EPS_SCALE * var.sum() / dim, EPS_FLOOR)
            inverses[c] = 1.0 / (var + eps_used[c])
        else:
            cov = centered.T @ centered / dof
            eps_used[c] = max(EPS_SCALE * np.trace(cov) / dim, EPS_FLOOR)
            lower_inv = np.linalg.inv(
                np.linalg.cholesky(cov + eps_used[c] * np.eye(dim)))
            inverses[c] = lower_inv.T @ lower_inv
    return ClusterStatistics(means=means, inverses=inverses, counts=counts,
                             eps_used=eps_used)


def mahalanobis_scores(reps: np.ndarray, stats: ClusterStatistics) -> np.ndarray:
    """Smallest quadratic form (x - mu)' Sigma^-1 (x - mu) over the
    clusters, for each row x of an (n, dim) block."""
    reps = np.asarray(reps, dtype=np.float64)
    if reps.ndim != 2 or reps.shape[1] != stats.dim:
        raise ValueError(
            f"representations have shape {reps.shape}, expected (n, {stats.dim})")
    per_cluster = np.empty((stats.k, len(reps)))
    for c in range(stats.k):
        diff = reps - stats.means[c]
        if stats.inverses.ndim == 2:
            per_cluster[c] = (diff * diff * stats.inverses[c]).sum(axis=1)
        else:
            per_cluster[c] = ((diff @ stats.inverses[c]) * diff).sum(axis=1)
    return per_cluster.min(axis=0)


def calibrate_threshold(scores, quantile: float = 0.95) -> float:
    """Nearest-rank quantile of the validation scores: the ceil(q*n)-th
    smallest value."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise ValueError("cannot calibrate a threshold from zero scores")
    threshold = nearest_rank_quantile(scores, quantile)
    if scores.size < 20:
        warnings.warn(f"calibrating on only {scores.size} scores")
    return threshold
