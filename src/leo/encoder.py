"""Statement encoder: embeddings -> dropout -> 1-D convolution -> max pool.

Each statement's token ids are embedded, padding positions are forced to
zero, dropout is applied when a dropout rng is given (training), and a
valid convolution followed by ReLU and a max over time yields one fixed-size
vector per statement. For training a function becomes a fixed
(max_statements x dim) matrix: real statements in order, zero rows after
them. The scoring pass takes the packed (statements x dim) rows instead.

encode_batch lays every real statement of a batch end to end in one token
stream, each over max(L, k) positions (a statement shorter than the kernel
is zero-padded to one window), and runs one shared convolution over only
the windows that lie inside a statement. A statement's windows are
consecutive rows of the conv output, so one segment max over those rows
pools the ReLU'd windows per statement, and each statement gets exactly the
vector a lone convolution over it would give. Training dropout draws its
mask at the padded (statements x longest x dim) shape and keeps the packed
positions, so the random stream, and with it the trained parameters, do
not depend on the packing. The packed (scoring) rows have no dropout or
tape and fold the embedding into the convolution: the batch's distinct ids
go through the kernel taps in one small product, each window sums its k
gathered tap rows, and no im2col matrix is built.
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
    if embed_dim < 1 or kernel_size < 1:
        raise GraphError("embed_dim and kernel_size must be positive")
    if not 0.0 < dropout_retain <= 1.0:
        raise GraphError(f"dropout retain probability {dropout_retain} outside (0, 1]")

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


def _embed_ids(id_matrix: np.ndarray, params: EncoderParams) -> Tensor:
    """Embed an integer id array of any shape to (..., dim), with padding
    positions multiplied by a structural zero so they carry no value and no
    gradient."""
    emb = ad.gather_rows(params.embedding, id_matrix)
    mask = (id_matrix != PAD_ID).astype(np.float64)[..., None]
    if mask.all():
        return emb
    return ad.mul(emb, ad.constant(mask, name="pad_mask"))


def _encode_packed(statements: list, params: EncoderParams,
                   rng: np.random.Generator | None, folded: bool) -> Tensor:
    """S statements (token id sequences) laid end to end, each over
    max(L, k) positions, through one conv over their valid windows ->
    (S, dim) statement vectors; `folded` runs the conv tape-free."""
    lengths = np.array([len(s) for s in statements], dtype=np.int64)
    if lengths.min() < 1:
        raise GraphError("cannot encode an empty statement")
    k = params.kernel_size
    spans = np.maximum(lengths, k)
    n, t_max = len(spans), int(spans.max())
    stmt = np.repeat(np.arange(n), spans)
    pos = np.arange(spans.sum()) - np.repeat(np.cumsum(spans) - spans, spans)
    ids = np.full(len(stmt), PAD_ID, dtype=np.int64)
    ids[pos < lengths[stmt]] = np.fromiter(chain.from_iterable(statements),
                                           dtype=np.int64, count=int(lengths.sum()))
    # a window starts at each position with k - 1 more of its statement after it
    starts = np.flatnonzero(pos + k <= spans[stmt])
    # each statement's windows are consecutive rows, the first at pos 0
    runs = np.flatnonzero(pos[starts] == 0)
    if folded:
        return ad.constant(_folded_conv_max(ids, starts, runs, params))
    emb = ad.dropout(_embed_ids(ids, params), params.dropout_retain, rng,
                     padded=((n, t_max, params.dim), (stmt, pos)))
    h = ad.maximum_const(ad.conv1d(emb, params.conv_kernel, params.conv_bias,
                                   starts), 0.0)
    return ad.segment_max(h, runs)


def _folded_conv_max(ids, starts, runs, params: EncoderParams) -> np.ndarray:
    """conv1d -> ReLU -> segment_max, tape-free: window s is sum_j
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
    return np.maximum.reduceat(np.maximum(h, 0.0, out=h), runs, axis=0)


def encode_batch(batch: list[list], params: EncoderParams, max_statements: int,
                 rng: np.random.Generator | None = None, *, packed: bool = False):
    """Encode a batch of functions (each a list of token id sequences) and
    return the statement vectors plus the per-function true lengths.

    The first min(count, max_statements) statements of each function are
    encoded in order. By default the vectors come as one (B, max_statements,
    dim) block whose rows past a function's true length stay exactly zero.
    With `packed` they come as the (S, dim) rows of the S kept statements,
    function after function, and no block is built: function f owns rows
    sum(lengths[:f]) to sum(lengths[:f + 1]). All kept statements share a
    single embedding lookup and convolution. Embedding dropout draws from
    `rng`; without one there is no dropout. `packed` is the inference
    encoding: it takes no rng, records no tape and folds the conv taps.
    """
    if packed and rng is not None:
        raise GraphError("the packed encoding is inference only: no dropout rng")
    kept = [statements[:max_statements] for statements in batch]
    true_lengths = np.array([len(k) for k in kept], dtype=np.int64)
    flat = [s for k in kept for s in k]
    if not flat:
        shape = (0, params.dim) if packed else (len(batch), max_statements, params.dim)
        return ad.constant(np.zeros(shape)), true_lengths
    vectors = _encode_packed(flat, params, rng, folded=packed)
    if packed:
        return vectors, true_lengths
    batch_idx = np.repeat(np.arange(len(batch)), true_lengths)
    row_idx = np.arange(len(flat)) - np.repeat(np.cumsum(true_lengths) - true_lengths,
                                               true_lengths)
    placed = ad.scatter_rows(vectors, batch_idx, row_idx, len(batch), max_statements)
    return placed, true_lengths
