"""Parameter storage, the shared ReLU MLP, Adam, and global-norm clipping.

A training step updates exactly the parameters its loss reached: Adam and
clipping act on the parameters that hold a gradient after backward, in
store order. Adam keeps per-parameter moment buffers and step counts, which
keeps bias correction right for parameters that only some steps reach. The
selector and the classifier are both an MLPParams run by mlp_forward.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import GraphError, Tensor

# Adam's moment decay rates and denominator offset
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class ParameterStore:
    """Insertion-ordered name -> Tensor map.

    `create` declares a parameter. A plain store draws its initial value and
    makes it trainable. A store over `stored` values (name -> array, such as
    an artifact's float32 tensors, already checked against the declared
    layout) takes each declared parameter from there by name instead,
    widened once into an owned float64 copy, and freezes it (requires_grad
    False) so forward passes record no tape; it never draws.
    """

    def __init__(self, stored: dict | None = None):
        self._params: dict[str, Tensor] = {}
        self._stored = stored

    def add(self, name: str, data: np.ndarray) -> Tensor:
        if name in self._params:
            raise GraphError(f"duplicate parameter name '{name}'")
        t = Tensor(np.asarray(data, dtype=np.float64), requires_grad=True, name=name)
        self._params[name] = t
        return t

    def create(self, name: str, shape: tuple,
               draw: Callable[[tuple], np.ndarray] | None = None) -> Tensor:
        """Declare parameter `name` of `shape`: draw(shape) is its initial
        value (zeros without a draw), or a copy of its stored value."""
        if self._stored is None:
            return self.add(name, np.zeros(shape) if draw is None else draw(shape))
        t = self.add(name, np.array(self._stored[name], dtype=np.float64))
        t.requires_grad = False
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def zero_grads(self) -> None:
        for t in self._params.values():
            t.grad = None

    def with_grads(self) -> list[tuple[str, Tensor]]:
        """The parameters the last backward reached, in store order."""
        return [(n, t) for n, t in self._params.items() if t.grad is not None]


def normal(rng: np.random.Generator, std: float) -> Callable[[tuple], np.ndarray]:
    """A `ParameterStore.create` draw: entries from N(0, std^2)."""
    return lambda shape: rng.normal(0.0, std, size=shape)


@dataclass
class MLPParams:
    """A ReLU MLP: hidden (W, b) pairs, an output head, and the dropout
    retain probability applied after every hidden layer in training."""
    layers: list[tuple[Tensor, Tensor]]
    head: tuple[Tensor, Tensor]
    dropout_retain: float


def init_mlp_params(store: ParameterStore, prefix: str, input_dim: int,
                    hidden_sizes, out_dim: int,
                    rng: np.random.Generator | None,
                    dropout_retain: float = 0.8) -> MLPParams:
    """Declare an MLP's weights: He-normal matrices, zero biases. `rng` is
    only drawn from by a store that draws (None for a stored one)."""
    layers = []
    fan_in = input_dim
    for i, width in enumerate(hidden_sizes):
        layers.append((
            store.create(f"{prefix}/w{i}", (fan_in, width),
                         normal(rng, math.sqrt(2.0 / fan_in))),
            store.create(f"{prefix}/b{i}", (width,))))
        fan_in = width
    head = (store.create(f"{prefix}/head_w", (fan_in, out_dim),
                         normal(rng, math.sqrt(2.0 / fan_in))),
            store.create(f"{prefix}/head_b", (out_dim,)))
    return MLPParams(layers, head, dropout_retain)


def mlp_forward(x: Tensor, params: MLPParams,
                rng: np.random.Generator | None = None) -> Tensor:
    """Raw head outputs of an (n, input_dim) block: (n, out_dim). Hidden
    dropout draws from `rng`; without one there is no dropout."""
    h = x
    for w, b in params.layers:
        h = ad.dropout(ad.maximum_const(ad.affine(h, w, b), 0.0),
                       params.dropout_retain, rng)
    w, b = params.head
    return ad.affine(h, w, b)


class Adam:
    """Bias-corrected Adam, updating parameters and moments in place.
    Moments and step counts are per parameter name.

    Each parameter is updated only up to its reach: one past the last row
    (along axis 0) that any step so far has given a nonzero gradient. The
    rows past it have had zero gradients and so zero moments, and their
    update would be exactly 0; their moments are never touched."""

    def __init__(self, lr: float = 1e-3):
        self.lr = lr
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._t: dict[str, int] = {}
        self._reach: dict[str, int] = {}

    def step(self, store: ParameterStore) -> None:
        """Apply one update to every parameter that holds a gradient; the
        others, with their moments and step counts, stay as they are."""
        for name, p in store.with_grads():
            if name not in self._m:
                # np.zeros, not zeros_like: rows past the reach stay untouched
                self._m[name] = np.zeros(p.data.shape)
                self._v[name] = np.zeros(p.data.shape)
                self._t[name] = self._reach[name] = 0
            t = self._t[name] + 1
            self._t[name] = t
            reach = self._reach[name]
            tail = p.grad[reach:]
            # the tail's rows with a nonzero gradient
            hit = np.flatnonzero(tail.any(axis=tuple(range(1, tail.ndim))))
            if hit.size:
                reach += int(hit[-1]) + 1
                self._reach[name] = reach
            g, m, v = p.grad[:reach], self._m[name][:reach], self._v[name][:reach]
            # in place, in the operation order of
            # p - lr * (m/(1-b1^t)) / (sqrt(v/(1-b2^t)) + eps), so the
            # result is bit for bit that formula's
            step = np.multiply(g, 1.0 - BETA1)
            m *= BETA1
            m += step
            np.multiply(g, 1.0 - BETA2, out=step)
            step *= g
            v *= BETA2
            v += step
            np.divide(m, 1.0 - BETA1 ** t, out=step)
            step *= self.lr
            denom = np.divide(v, 1.0 - BETA2 ** t)
            np.sqrt(denom, out=denom)
            denom += EPS
            step /= denom
            p.data[:reach] -= step


def clip_gradients(grads: list[np.ndarray], max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is at most max_norm.
    Returns the pre-clip norm."""
    norm = math.sqrt(sum(float(np.sum(g * g)) for g in grads))
    if norm > max_norm:
        factor = max_norm / norm
        for g in grads:
            g *= factor
    return norm


def clip_store_gradients(store: ParameterStore, max_norm: float) -> float:
    return clip_gradients([t.grad for _, t in store.with_grads()], max_norm)
