"""Minimal reverse-mode automatic differentiation over numpy arrays.

Tensors carry float64 data, an optional gradient accumulator, and the
closure needed to push gradients to their parents. Graphs are built by
calling the op functions below (define-by-run); `backward` walks the tape
from a scalar loss. Every op checks its output for NaN/Inf and raises
NumericError naming the offending node, so a diverging run fails loudly
instead of training on garbage.

`backward` consumes the graph it walks. As soon as an interior node (one
made by an op) has pushed its gradient to its parents, the node drops its
`.grad`, its closure and its parents, so interior gradients and the arrays
the closures captured are freed during the walk; only leaves keep their
`.grad`. A consumed node keeps its `.data`, but a second `backward` through
it, from the same loss or from a new one built on top of it, raises
GraphError naming it. Gradients are owned: a closure returns, per parent,
an array of that parent's shape: a fresh one, which the parent adopts as its
`.grad` without a copy, or the incoming gradient, a view, or an array it also
gave another parent, which is copied; later contributions are added into
that `.grad` in place.

Design limits, on purpose: CPU only, no broadcasting beyond what the ops
documented here need, no higher-order gradients, no graph rewriting.
"""
from __future__ import annotations

import itertools

import numpy as np


class NumericError(RuntimeError):
    """Non-finite values were produced by a graph node."""


class GraphError(ValueError):
    """Shape mismatch or other misuse of a graph op."""


_node_ids = itertools.count()

# Finiteness checking can be disabled for throughput experiments; the
# training loop leaves it on.
CHECK_FINITE = True


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, name: str = ""):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.name = name or f"tensor#{next(_node_ids)}"
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor({self.name}, shape={self.data.shape}, grad={self.requires_grad})"


def constant(data, name: str = "") -> Tensor:
    return Tensor(data, requires_grad=False, name=name or "const")


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward, name: str) -> Tensor:
    name = f"{name}#{next(_node_ids)}"
    if CHECK_FINITE and not np.all(np.isfinite(data)):
        raise NumericError(f"non-finite values in node '{name}'")
    out = Tensor(data, requires_grad=any(p.requires_grad for p in parents), name=name)
    if out.requires_grad:
        out._parents = parents
        out._backward = backward
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to `shape`."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def backward(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _make(data, (a, b), backward, "add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def backward(g):
        return (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        )

    return _make(data, (a, b), backward, "mul")


def div(a: Tensor, b: Tensor) -> Tensor:
    with np.errstate(divide="ignore", invalid="ignore"):
        data = a.data / b.data

    def backward(g):
        return (
            _unbroadcast(g / b.data, a.data.shape),
            _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape),
        )

    return _make(data, (a, b), backward, "div")


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def backward(g):
        return (g * c,)

    return _make(a.data * c, (a,), backward, "scale")


def log(a: Tensor) -> Tensor:
    # out-of-domain inputs surface as NumericError from the finiteness check
    with np.errstate(divide="ignore", invalid="ignore"):
        data = np.log(a.data)

    def backward(g):
        return (g / a.data,)

    return _make(data, (a,), backward, "log")


def exp(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        data = np.exp(a.data)

    def backward(g):
        return (g * data,)

    return _make(data, (a,), backward, "exp")


def sqrt(a: Tensor) -> Tensor:
    with np.errstate(invalid="ignore"):
        data = np.sqrt(a.data)

    def backward(g):
        return (g * 0.5 / data,)

    return _make(data, (a,), backward, "sqrt")


def sigmoid(a: Tensor) -> Tensor:
    # stable in both tails
    e = np.exp(-np.abs(a.data))
    data = np.where(a.data >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def backward(g):
        return (g * data * (1.0 - data),)

    return _make(data, (a,), backward, "sigmoid")


def maximum_const(a: Tensor, floor: float) -> Tensor:
    """Elementwise max(a, floor); gradient passes only where a > floor."""
    data = np.maximum(a.data, floor)

    def backward(g):
        return (g * (a.data > floor),)

    return _make(data, (a,), backward, "maximum_const")


def minimum_const(a: Tensor, ceil: float) -> Tensor:
    data = np.minimum(a.data, ceil)

    def backward(g):
        return (g * (a.data < ceil),)

    return _make(data, (a,), backward, "minimum_const")


# ---------------------------------------------------------------------------
# linear algebra and shapes


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise GraphError(f"matmul expects 2-D operands, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise GraphError(f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}")
    data = a.data @ b.data

    def backward(g):
        return g @ b.data.T, a.data.T @ g

    return _make(data, (a, b), backward, "matmul")


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for 2-D x and w and a bias row b of w's width, as one
    node; the bias is added in place, so the output is the only
    output-sized array."""
    if x.data.ndim != 2 or w.data.ndim != 2:
        raise GraphError(f"affine expects 2-D operands, got {x.data.shape} @ {w.data.shape}")
    if x.data.shape[1] != w.data.shape[0] or b.data.shape != w.data.shape[1:]:
        raise GraphError(f"affine shape mismatch: {x.data.shape} @ {w.data.shape} "
                         f"+ {b.data.shape}")
    data = x.data @ w.data
    data += b.data

    def backward(g):
        return g @ w.data.T, x.data.T @ g, g.sum(axis=0)

    return _make(data, (x, w, b), backward, "affine")


def leading_rows(a: Tensor, k: int) -> Tensor:
    """The first k rows of a, as a view. The rows past k get a zero
    gradient."""
    if not 0 <= k <= a.data.shape[0]:
        raise GraphError(f"leading_rows: {k} rows of {a.data.shape}")

    def backward(g):
        # np.zeros, not zeros_like: the pages that stay zero are never written
        d = np.zeros(a.data.shape)
        d[:k] = g
        return (d,)

    return _make(a.data[:k], (a,), backward, "leading_rows")


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise GraphError("transpose expects a 2-D tensor")

    def backward(g):
        return (g.T,)

    return _make(a.data.T, (a,), backward, "transpose")


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)

    def backward(g):
        return (g.reshape(a.data.shape),)

    return _make(a.data.reshape(shape), (a,), backward, "reshape")


def gather_rows(table: Tensor, indices: np.ndarray) -> Tensor:
    """Row lookup: out[..., :] = table[indices[...], :]. Used for embeddings."""
    indices = np.asarray(indices)
    if indices.size and (indices.min() < 0 or indices.max() >= table.data.shape[0]):
        raise GraphError("gather_rows index out of range")
    data = table.data[indices]

    def backward(g):
        flat, rows = indices.reshape(-1), g.reshape(-1, table.data.shape[1])
        dt = np.empty_like(table.data)
        # per column, bincount adds in index order, as np.add.at would
        for j in range(dt.shape[1]):
            dt[:, j] = np.bincount(flat, weights=rows[:, j], minlength=len(dt))
        return (dt,)

    return _make(data, (table,), backward, "gather_rows")


def scatter_rows(values: Tensor, batch_idx: np.ndarray, row_idx: np.ndarray,
                 n_batch: int, n_rows: int) -> Tensor:
    """Place value rows into a zero (n_batch, n_rows, d) block; inverse of a
    2-level gather. Each (batch_idx, row_idx) pair must be unique."""
    d = values.data.shape[-1]
    data = np.zeros((n_batch, n_rows, d))
    data[batch_idx, row_idx] = values.data

    def backward(g):
        return (g[batch_idx, row_idx],)

    return _make(data, (values,), backward, "scatter_rows")


# ---------------------------------------------------------------------------
# reductions


def reduce_sum(a: Tensor) -> Tensor:
    def backward(g):
        return (np.full(a.data.shape, float(g)),)

    return _make(np.asarray(a.data.sum()), (a,), backward, "sum")


def reduce_mean(a: Tensor) -> Tensor:
    n = a.data.size

    def backward(g):
        return (np.full(a.data.shape, float(g) / n),)

    return _make(np.asarray(a.data.mean()), (a,), backward, "mean")


def sum_axis(a: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.full(a.data.shape, g),)

    return _make(data, (a,), backward, "sum_axis")


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * data).sum(axis=axis, keepdims=True)
        return (data * (g - dot),)

    return _make(data, (a,), backward, "softmax")


def segment_max(a: Tensor, starts: np.ndarray) -> Tensor:
    """Max over runs of consecutive rows of a (rows, channels) tensor: run i
    is rows starts[i] up to starts[i + 1] (the last one to the end), none
    empty. Output: (runs, channels). Gradient goes to the first maximal row
    per (run, channel)."""
    starts = np.asarray(starts, dtype=np.int64)
    rows = a.data.shape[0]
    if starts.size == 0 or starts[0] != 0 or starts[-1] >= rows or np.any(np.diff(starts) < 1):
        raise GraphError(f"segment_max runs {starts} do not split {rows} rows")
    data = np.maximum.reduceat(a.data, starts, axis=0)

    def backward(g):
        run = np.repeat(np.arange(len(starts)), np.diff(starts, append=rows))
        hit = np.where(a.data == data[run], np.arange(rows)[:, None], rows)
        da = np.zeros_like(a.data)
        np.put_along_axis(da, np.minimum.reduceat(hit, starts, axis=0), g, axis=0)
        return (da,)

    return _make(data, (a,), backward, "segment_max")


# ---------------------------------------------------------------------------
# convolution and dropout


def conv1d(x: Tensor, weights: Tensor, bias: Tensor, starts: np.ndarray) -> Tensor:
    """1-D convolution over chosen windows of one token stream.

    x: (positions, in_channels), weights: (kernel, in_channels, filters),
    bias: (filters,), starts: (W,) window starts; window w covers
    x[starts[w] : starts[w] + kernel]. Output: (W, filters). Positions no
    window covers get no output and no gradient. A dense batch of n length-t
    sequences is x reshaped to (n * t, in_channels) with starts i * t + j.
    """
    p, c_in = x.data.shape
    k, c_in2, f = weights.data.shape
    if c_in != c_in2:
        raise GraphError(f"conv1d channel mismatch: input {c_in} vs kernel {c_in2}")
    starts = np.asarray(starts, dtype=np.int64)
    if starts.size and (starts.min() < 0 or starts.max() + k > p):
        raise GraphError(f"conv1d window outside the {p} input positions")

    cols = np.empty((len(starts), k * c_in))
    for j in range(k):
        cols[:, j * c_in:(j + 1) * c_in] = x.data[starts + j]
    w2 = weights.data.reshape(k * c_in, f)
    data = cols @ w2
    data += bias.data  # in place: one output-sized array, not two

    def backward(g):
        dw = (cols.T @ g).reshape(k, c_in, f)
        dcols = g @ w2.T
        dx = np.zeros_like(x.data)
        for j in range(k):  # for a fixed tap the indices are unique
            dx[starts + j] += dcols[:, j * c_in:(j + 1) * c_in]
        return dx, dw, g.sum(axis=0)

    return _make(data, (x, weights, bias), backward, "conv1d")


def dropout(x: Tensor, retain: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout: keep each element with probability `retain` and
    scale by 1/retain. Without an rng (inference) it is the identity."""
    if rng is None:
        return x
    u = rng.random(x.data.shape)
    mask = (u < retain) / retain

    def backward(g):
        return (g * mask,)

    return _make(x.data * mask, (x,), backward, "dropout")


# ---------------------------------------------------------------------------
# backward pass


def _consumed(g):
    """The closure of a node that backward has already walked."""
    raise AssertionError("a consumed node is never called")


def _topo_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(loss: Tensor) -> None:
    """Accumulate dloss/dx into .grad for every reachable leaf that requires
    gradients, consuming the graph: each interior node releases its grad,
    closure and parents once it has pushed its gradient. The loss must be a
    scalar, and a graph is walked once; reaching a consumed node raises
    GraphError."""
    if loss.data.size != 1:
        raise GraphError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        return
    order = _topo_order(loss)
    loss.grad = np.ones_like(loss.data)
    while order:
        node = order.pop()
        push = node._backward
        if push is None:
            continue  # a leaf keeps its gradient
        if push is _consumed:
            raise GraphError(f"node '{node.name}' was consumed by an earlier backward")
        g_in, parents = node.grad, node._parents
        node.grad, node._backward, node._parents = None, _consumed, ()
        handed: list[np.ndarray] = []
        for parent, g in zip(parents, push(g_in)):
            if g is None or not parent.requires_grad:
                continue
            g = np.asarray(g, dtype=np.float64)
            # adopt a fresh array; copy the incoming grad, a view, or an
            # array another parent already holds
            owned = (g.base is None and g is not g_in
                     and not any(g is h for h in handed))
            if CHECK_FINITE and not np.all(np.isfinite(g)):
                raise NumericError(f"non-finite gradient flowing into '{parent.name}'")
            if parent.grad is not None:
                parent.grad += g
            elif owned:
                parent.grad = g
                handed.append(g)
            else:
                parent.grad = g.copy()
