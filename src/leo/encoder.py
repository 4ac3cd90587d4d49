"""Statement encoder: embeddings -> dropout -> 1-D conv -> max pool -> ReLU.

Each statement's token ids are embedded, padding positions are forced to
zero, dropout is applied when a dropout rng is given (training), and a
valid convolution followed by a max over time and a ReLU yields one
fixed-size vector per statement. A batch comes out as the packed
(statements x dim) rows of its real statements, function after function,
with the per-function statement counts.

encode_batch lays every real statement of a batch end to end in one token
stream, each over max(L, k) positions (a statement shorter than the kernel
is zero-padded to one window), and runs one shared convolution over only
the windows that lie inside a statement. A statement's windows are
consecutive rows of the conv output, so one segment max over those rows
pools the raw windows per statement, and each statement gets exactly the
vector a lone convolution over it would give. ReLU commutes with the max,
so it rectifies only the pooled (statements x dim) rows; the tape path and
the folded path share that one pool and ReLU. Training dropout draws one
uniform per element of that stream, sum(max(L, k)) x dim in all. With
frozen parameters (a model rebuilt from an artifact) there is no dropout or
tape, and the embedding is folded into the convolution: the batch's
distinct ids go through the kernel taps in one small product, each window
sums its k gathered tap rows, and no im2col matrix is built. That path also
encodes each distinct statement (token id sequence) of the batch once,
and returns which row each kept statement reads. Identifier renaming makes
repeats common (on the synthetic corpus 6.9% of a 64-function request's
kept statements are distinct; on locally installed real C sources, 93% /
62% / 55% at 1 / 8 / 64 functions per request), and the distinct
statements hold the same ids as all of them, so the tap product and every
window sum, and hence every row, keep their bits.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import autodiff as ad
from .autodiff import GraphError, NumericError, Tensor
from .normalize import PAD_ID
from .optim import ParameterStore, normal


@dataclass
class EncoderParams:
    """Embedding table plus one convolution, with its fixed hyperparameters."""
    embedding: Tensor    # (vocab_size, dim)
    conv_kernel: Tensor  # (kernel_size, dim, dim)
    conv_bias: Tensor    # (dim,)
    dropout_retain: float

    @property
    def dim(self) -> int:
        return self.embedding.data.shape[1]

    @property
    def kernel_size(self) -> int:
        return self.conv_kernel.data.shape[0]


def init_encoder_params(store: ParameterStore, vocab_size: int, embed_dim: int,
                        rng: np.random.Generator | None, kernel_size: int = 3,
                        dropout_retain: float = 0.8) -> EncoderParams:
    """Declare the encoder/ parameters. `rng` is only drawn from by a store
    that draws (None for a stored one).

    The padding row of the embedding starts at zero and never receives
    gradient (padding positions are masked out of the graph), so padded
    content stays exactly zero for the life of the model.
    """
    if vocab_size < 2:
        raise GraphError("vocabulary must include the pad and unknown entries")

    def embedding_draw(shape):
        emb = rng.normal(0.0, 0.1, size=shape)
        emb[PAD_ID] = 0.0
        return emb

    return EncoderParams(
        embedding=store.create("encoder/embedding", (vocab_size, embed_dim),
                               embedding_draw),
        conv_kernel=store.create("encoder/conv_kernel",
                                 (kernel_size, embed_dim, embed_dim),
                                 normal(rng, np.sqrt(2.0 / (kernel_size * embed_dim)))),
        conv_bias=store.create("encoder/conv_bias", (embed_dim,)),
        dropout_retain=dropout_retain,
    )


def _encode_packed(statements: list, params: EncoderParams,
                   rng: np.random.Generator | None, folded: bool) -> Tensor:
    """S statements (token id sequences) laid end to end, each over
    max(L, k) positions, through one conv over their valid windows and one
    segment max per statement, rectified -> (S, dim) statement vectors;
    `folded` runs the conv tape-free."""
    lengths = np.array([len(s) for s in statements], dtype=np.int64)
    if lengths.min() < 1:
        raise GraphError("cannot encode an empty statement")
    k = params.kernel_size
    spans = np.maximum(lengths, k)
    stmt = np.repeat(np.arange(len(spans)), spans)
    pos = np.arange(spans.sum()) - np.repeat(np.cumsum(spans) - spans, spans)
    ids = np.full(len(stmt), PAD_ID, dtype=np.int64)
    ids[pos < lengths[stmt]] = np.fromiter(chain.from_iterable(statements),
                                           dtype=np.int64, count=int(lengths.sum()))
    # a window starts at each position with k - 1 more of its statement after it
    starts = np.flatnonzero(pos + k <= spans[stmt])
    # each statement's windows are consecutive rows, the first at pos 0
    runs = np.flatnonzero(pos[starts] == 0)
    if folded:
        h = ad.constant(_folded_conv(ids, starts, params))
    else:
        # padding positions times a structural zero: no value, no gradient
        pad_mask = ad.constant((ids != PAD_ID).astype(np.float64)[:, None],
                               name="pad_mask")
        emb = ad.mul(ad.gather_rows(params.embedding, ids), pad_mask)
        h = ad.conv1d(ad.dropout(emb, params.dropout_retain, rng),
                      params.conv_kernel, params.conv_bias, starts)
    return ad.maximum_const(ad.segment_max(h, runs), 0.0)


def _folded_conv(ids, starts, params: EncoderParams) -> np.ndarray:
    """conv1d's (windows, dim) rows, tape-free: window s is sum_j
    E[ids[s + j]] @ K_j + b, and E[id] @ K_j is computed once per id."""
    k, dim, f = params.conv_kernel.data.shape
    uniq, inv = np.unique(ids, return_inverse=True)
    rows = params.embedding.data[uniq]
    rows[uniq == PAD_ID] = 0.0
    taps = rows @ params.conv_kernel.data.transpose(1, 0, 2).reshape(dim, k * f)
    taps = taps.reshape(-1, k, f)
    h = taps[inv[starts], 0]
    for j in range(1, k):
        h += taps[inv[starts + j], j]
    h += params.conv_bias.data
    if ad.CHECK_FINITE and not np.all(np.isfinite(h)):
        raise NumericError("non-finite values in the folded conv windows")
    return h


def encode_batch(batch: list[list], params: EncoderParams, max_statements: int,
                 rng: np.random.Generator | None = None):
    """Encode a batch of functions (each a list of token id sequences) and
    return (rows, lengths, index): the statement rows, the per-function true
    lengths, and which row each kept statement reads.

    The first min(count, max_statements) statements of each function are
    kept, in order, function after function: function f owns rows
    sum(lengths[:f]) to sum(lengths[:f + 1]). All kept statements share a
    single embedding lookup and convolution. Embedding dropout draws from
    `rng`; without one there is no dropout. When no encoder parameter
    requires a gradient the encoding is tape-free and folds the conv taps,
    a dropout rng is an error, and each distinct statement is encoded once.

    Frozen rows are the distinct kept statements, first occurrence first,
    and kept statement s is row index[s] (int64). index is None exactly on
    the taped path, where rows are one per kept statement.
    """
    folded = not any(t.requires_grad for t in
                     (params.embedding, params.conv_kernel, params.conv_bias))
    if folded and rng is not None:
        raise GraphError("a frozen encoder is inference only: no dropout rng")
    kept = [statements[:max_statements] for statements in batch]
    true_lengths = np.array([len(k) for k in kept], dtype=np.int64)
    flat = [s for k in kept for s in k]
    index = None
    if folded:
        row = {}
        index = np.fromiter((row.setdefault(tuple(s), len(row)) for s in flat),
                            dtype=np.int64, count=len(flat))
        flat = list(row)
    rows = (_encode_packed(flat, params, rng, folded) if flat
            else ad.constant(np.zeros((0, params.dim))))
    return rows, true_lengths, index
