"""Statement gating: per-row relevance probabilities and relaxed gates.

A small MLP (optim.MLPParams) shared across rows scores each statement
vector; the sigmoid of the score is that statement's keep probability.
Training samples soft gates from the binary Concrete relaxation. Because the relaxation needs the
log-odds of p and p is itself a sigmoid, relax_gates computes the gate
directly from the pre-sigmoid score: z = sigmoid((score + a - b) / nu) with
a, b standard Gumbel noise, so P(z > 0.5) = p for any nu > 0. A plain keep
probability enters as a constant log-odds score (zero for p = 1/2).

The selector reads the packed (S, dim) statement rows of a batch and
gives one score, and in training one gate, per real statement: (S,).
"""
from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import GraphError, Tensor
from .optim import MLPParams, ParameterStore, init_mlp_params, mlp_forward

_UNIFORM_EPS = 1e-12


def init_selector_params(store: ParameterStore, input_dim: int,
                         rng: np.random.Generator | None,
                         hidden_sizes=(100, 100, 100),
                         dropout_retain: float = 0.8) -> MLPParams:
    """Row-wise MLP with a scalar head, named selector/."""
    return init_mlp_params(store, "selector", input_dim, hidden_sizes, 1, rng,
                           dropout_retain)


def selector_presigmoid(x: Tensor, params: MLPParams,
                        rng: np.random.Generator | None = None) -> Tensor:
    """Raw per-row scores (the log-odds of the keep probabilities) of
    (S, dim) statement rows -> (S,)."""
    if x.data.ndim != 2:
        raise GraphError("selector input must be (statements, dim) rows")
    return ad.reshape(mlp_forward(x, params, rng), x.data.shape[:1])


def selector_forward(x: Tensor, params: MLPParams,
                     rng: np.random.Generator | None = None) -> Tensor:
    """Per-statement keep probabilities, strictly inside (0, 1)."""
    return ad.sigmoid(selector_presigmoid(x, params, rng))


# ---------------------------------------------------------------------------
# gate sampling


def gumbel_from_uniform(u: np.ndarray) -> np.ndarray:
    """-log(-log u), with u clamped away from {0, 1} so the result is finite."""
    u = np.clip(np.asarray(u, dtype=np.float64), _UNIFORM_EPS, 1.0 - _UNIFORM_EPS)
    return -np.log(-np.log(u))


def sample_gumbel(shape, rng: np.random.Generator) -> np.ndarray:
    return gumbel_from_uniform(rng.random(shape))


def relax_gates(scores: Tensor, a: np.ndarray, b: np.ndarray, nu: float) -> Tensor:
    """Soft gate samples from pre-sigmoid scores and Gumbel noises a, b.

    The score already equals log(p/(1-p)), so the gate is
    sigmoid((score + a - b) / nu) with gradient flowing into the scores.
    """
    if nu <= 0:
        raise GraphError("relaxation temperature must be positive")
    noise = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    if noise.shape != scores.data.shape:
        raise GraphError("gate noise shape must match the score shape")
    shifted = ad.add(scores, ad.constant(noise, name="gumbel_noise"))
    return ad.sigmoid(ad.scale(shifted, 1.0 / nu))


def deterministic_mask(p: np.ndarray, mode: str = "expected") -> np.ndarray:
    """Inference-time gates: the expected gate z = p (default), or hard
    0/1 thresholding at 0.5 where a tie rounds down."""
    p = np.asarray(p, dtype=np.float64)
    if mode == "expected":
        return p.copy()
    if mode == "hard":
        return (p > 0.5).astype(np.float64)
    raise GraphError(f"unknown deterministic mask mode '{mode}'")
