"""The model's parameters and their persistence.

init_model declares every parameter (name, shape, store order)
through the encoder / selector / classifier constructors and draws fresh
values; model_from_artifact walks the same constructors over an artifact's
stored tensors instead, so the layout is stated once. Walked over a
recorder that builds nothing, they give the layout (name -> shape) that
every artifact is checked against, by shape: an artifact whose tensors are
not exactly the ones its config declares is a ModelFormatError, at load and
at every rebuild. Mahalanobis scoring never reads the classifier, so a
rebuild for it does not declare the classifier and leaves the classifier/
tensors in their stored float32 form.

A loaded artifact's tensors are read-only float32 views of the file's
bytes, not copies: each keeps the whole blob alive, and writing into one
raises ValueError. The load check reads shapes only, so it widens and
copies no tensor; only a rebuild widens, each tensor it declares, once.
Nor does it read values: a non-finite parameter loads, and scoring that
reads it raises NumericError.

Binary container layout ("LEO1" format, version 1):

    bytes 0..3   magic "LEO1"
    u32 LE       format version
    sections     tag (4 ASCII bytes) + u32 LE payload length + payload
    u32 LE       CRC-32 over everything before it (magic included)

Sections, in fixed order: VOCB (vocabulary), TENS (named float32 tensors),
CONF (config snapshot as key = value text, naming every TrainConfig field),
CLST (cluster statistics), THRS (threshold + quantile), LOGD (training log
digest). Parameters are stored as little-endian float32; cluster statistics
and the threshold are float64 because scoring is calibrated after the
float32 quantization. One cursor reads the container body and, in turn,
each section's payload, and a truncation or leftover bytes name which of
them it was. Unknown, repeated or missing section tags, a repeated tensor
name, a repeated vocabulary token, a vocabulary that does not start with
the pad and unknown tokens, and a CONF that leaves a field out are
rejected. CONF is parsed first, and CLST and THRS are checked against it
as they are read: CLST's mode string and diagonal flag restate CONF's
scoring_mode in the file, and in memory only CONF states it. Every
decoding failure raises ModelFormatError.
"""
from __future__ import annotations

import math
import struct
import zlib
from collections import Counter
from dataclasses import dataclass, fields

import numpy as np

from .autodiff import GraphError
from .config import TrainConfig, parse_config_text
from .encoder import EncoderParams, init_encoder_params
from .losses import init_classifier_params
from .normalize import PAD_TOKEN, UNK_TOKEN, Vocabulary
from .optim import MLPParams, ParameterStore
from .scoring import ClusterStatistics, representation_dim
from .selector import init_selector_params

MAGIC = b"LEO1"
VERSION = 1
_SECTION_ORDER = (b"VOCB", b"TENS", b"CONF", b"CLST", b"THRS", b"LOGD")


class ModelFormatError(ValueError):
    pass


@dataclass
class ModelArtifact:
    """Everything needed to score new samples: vocabulary, parameters,
    config, cluster statistics, and the calibrated threshold."""
    vocab: Vocabulary
    tensors: dict
    config: TrainConfig
    stats: ClusterStatistics
    threshold: float
    quantile: float = 0.95
    log_digest: str = ""


@dataclass
class ModelParams:
    store: ParameterStore
    encoder: EncoderParams
    selector: MLPParams
    classifier: MLPParams | None  # None in a model rebuilt without it


def _declare_model(store: ParameterStore, config: TrainConfig, vocab_size: int,
                   rng: np.random.Generator | None,
                   classifier: bool = True) -> ModelParams:
    """Declare the encoder, the selector and, with `classifier`, the
    classifier, in store order, into `store` (a ParameterStore, or a _Layout
    that only records shapes); without it params.classifier is None."""
    encoder = init_encoder_params(store, vocab_size, config.embed_dim, rng,
                                  kernel_size=config.kernel_size,
                                  dropout_retain=config.dropout_retain)
    selector = init_selector_params(store, config.embed_dim, rng,
                                    hidden_sizes=config.selector_hidden,
                                    dropout_retain=config.dropout_retain)
    return ModelParams(store, encoder, selector, init_classifier_params(
        store, config.max_statements * config.embed_dim, rng,
        hidden_sizes=config.classifier_hidden,
        dropout_retain=config.dropout_retain) if classifier else None)


def init_model(config: TrainConfig, vocab_size: int,
               rng: np.random.Generator) -> ModelParams:
    """Fresh trainable parameters drawn from rng."""
    return _declare_model(ParameterStore(), config, vocab_size, rng)


class _Layout(dict):
    """name -> declared shape, in store order. Passed to _declare_model in
    place of a ParameterStore, its `create` records each declaration and
    builds nothing."""

    def create(self, name: str, shape: tuple, draw=None) -> None:
        self[name] = shape


def _check_tensors(artifact: ModelArtifact) -> None:
    """The one check of an artifact's tensor set: raise ModelFormatError
    unless it holds exactly the tensors its config declares, each with its
    declared shape."""
    layout = _Layout()
    try:
        _declare_model(layout, artifact.config, artifact.vocab.size, None)
    except GraphError as exc:
        raise ModelFormatError(f"tensors do not match the config: {exc}") from exc
    for name, shape in layout.items():
        if name not in artifact.tensors:
            raise ModelFormatError("tensors do not match the config: "
                                   f"no stored value for parameter '{name}'")
        stored = np.shape(artifact.tensors[name])
        if stored != shape:
            raise ModelFormatError(
                f"tensors do not match the config: parameter '{name}' is "
                f"stored with shape {stored}, declared {shape}")
    extra = sorted(set(artifact.tensors) - set(layout))
    if extra:
        raise ModelFormatError(
            f"tensors the config does not declare: {', '.join(extra)}")


def model_from_artifact(artifact: ModelArtifact, *,
                        classifier: bool = True) -> ModelParams:
    """Live parameters of an artifact, frozen, with no random draws, after
    the one check of its tensor set (_check_tensors). Each parameter is
    declared once, over its tensor widened from float32 to float64 into an
    owned copy, even of a loaded artifact's read-only view. Without
    `classifier` the classifier is not declared, so its tensors are neither
    widened nor held, and params.classifier is None."""
    _check_tensors(artifact)
    return _declare_model(ParameterStore(stored=artifact.tensors), artifact.config,
                          artifact.vocab.size, None, classifier)


def _pack_str(text: str) -> bytes:
    raw = text.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


class _Reader:
    """Cursor over the container body or one section's payload, named by
    `what` in its errors; `take` hands out views, not copies."""

    def __init__(self, buf: memoryview, what: str):
        self.buf, self.what, self.pos = buf, what, 0

    def take(self, n: int) -> memoryview:
        if n < 0 or self.pos + n > len(self.buf):
            raise ModelFormatError(f"{self.what} truncated")
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def u8(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        return self.unpack("<I")[0]

    def text(self, n: int | None = None) -> str:
        """The next n bytes, or all that are left, as UTF-8 text."""
        raw = self.take(len(self.buf) - self.pos if n is None else n)
        try:
            return str(raw, "utf-8")
        except UnicodeDecodeError as exc:
            raise ModelFormatError(f"{self.what} is not UTF-8: {exc}") from exc

    def string(self) -> str:
        return self.text(self.u32())

    def done(self) -> None:
        if self.pos != len(self.buf):
            raise ModelFormatError(
                f"{self.what} has {len(self.buf) - self.pos} trailing bytes")


def _encode_vocab(vocab: Vocabulary) -> bytes:
    parts = [struct.pack("<I", vocab.size)]
    for token in vocab.tokens:
        parts.append(_pack_str(token))
    return b"".join(parts)


def _decode_vocab(r: _Reader) -> Vocabulary:
    count = r.u32()
    tokens = tuple(r.string() for _ in range(count))
    r.done()
    if tokens[:2] != (PAD_TOKEN, UNK_TOKEN):
        raise ModelFormatError(f"VOCB starts with {list(tokens[:2])}, not "
                               f"{[PAD_TOKEN, UNK_TOKEN]}")
    repeated = [token for token, count in Counter(tokens).items() if count > 1]
    if repeated:
        raise ModelFormatError(f"VOCB repeats token {repeated[0]!r}")
    return Vocabulary(tokens=tokens)


def _encode_tensors(tensors: dict) -> bytes:
    parts = [struct.pack("<I", len(tensors))]
    for name in sorted(tensors):
        arr = np.asarray(tensors[name], dtype="<f4")
        parts.append(_pack_str(name))
        parts.append(struct.pack("<B", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(arr.tobytes(order="C"))
    return b"".join(parts)


def _decode_tensors(r: _Reader) -> dict:
    count = r.u32()
    tensors = {}
    for _ in range(count):
        name = r.string()
        if name in tensors:
            raise ModelFormatError(f"TENS repeats tensor {name!r}")
        ndim = r.u8()
        shape = r.unpack(f"<{ndim}I")
        n_bytes = 4 * int(np.prod(shape, dtype=np.int64))
        tensors[name] = np.frombuffer(r.take(n_bytes), dtype="<f4").reshape(shape)
    r.done()
    return tensors


def _encode_stats(stats: ClusterStatistics, mode: str) -> bytes:
    parts = [
        struct.pack("<B", 1 if stats.inverses.ndim == 2 else 0),
        _pack_str(mode),
        struct.pack("<II", stats.k, stats.dim),
        np.asarray(stats.means, dtype="<f8").tobytes(),
        np.asarray(stats.inverses, dtype="<f8").tobytes(),
        np.asarray(stats.counts, dtype="<u4").tobytes(),
        np.asarray(stats.eps_used, dtype="<f8").tobytes(),
    ]
    return b"".join(parts)


def _decode_stats(r: _Reader, config: TrainConfig) -> ClusterStatistics:
    """CLST's statistics, checked as they are read against what scoring
    under `config` could have fit: its mode and diagonal flag, k and the
    representation width before any array is read, then finite means and
    inverses. Each mismatch names its field."""
    diagonal = bool(r.u8())
    mode = r.string()
    if mode != config.scoring_mode:
        raise ModelFormatError(f"CLST mode {mode!r} does not match "
                               f"scoring_mode {config.scoring_mode!r}")
    if diagonal != (mode == "concat-diagonal"):
        raise ModelFormatError(f"CLST diagonal flag {diagonal} does not match "
                               f"scoring_mode {config.scoring_mode!r}")
    k, dim = r.unpack("<II")
    if k < 1:
        raise ModelFormatError("CLST k is 0; scoring needs at least one cluster")
    if dim != representation_dim(config):
        raise ModelFormatError(f"CLST dim {dim} is not the config's "
                               f"representation width {representation_dim(config)}")
    means = np.frombuffer(r.take(8 * k * dim), dtype="<f8").reshape(k, dim).copy()
    inv_shape = (k, dim) if diagonal else (k, dim, dim)
    inverses = np.frombuffer(r.take(8 * math.prod(inv_shape)),
                             dtype="<f8").reshape(inv_shape).copy()
    for name, values in (("means", means), ("inverses", inverses)):
        if not np.isfinite(values).all():
            raise ModelFormatError(f"CLST {name} are not all finite")
    counts = np.frombuffer(r.take(4 * k), dtype="<u4").astype(np.int64)
    eps_used = np.frombuffer(r.take(8 * k), dtype="<f8").copy()
    r.done()
    return ClusterStatistics(means=means, inverses=inverses, counts=counts,
                             eps_used=eps_used)


def serialize_model(artifact: ModelArtifact) -> bytes:
    sections = {
        b"VOCB": _encode_vocab(artifact.vocab),
        b"TENS": _encode_tensors(artifact.tensors),
        b"CONF": artifact.config.render().encode("utf-8"),
        b"CLST": _encode_stats(artifact.stats, artifact.config.scoring_mode),
        b"THRS": struct.pack("<dd", artifact.threshold, artifact.quantile),
        b"LOGD": artifact.log_digest.encode("utf-8"),
    }
    body = [MAGIC, struct.pack("<I", VERSION)]
    for tag in _SECTION_ORDER:
        payload = sections[tag]
        body.append(tag + struct.pack("<I", len(payload)) + payload)
    blob = b"".join(body)
    return blob + struct.pack("<I", zlib.crc32(blob) & 0xFFFFFFFF)


def deserialize_model(blob: bytes) -> ModelArtifact:
    """The artifact a container holds. Its tensors are read-only views of
    the blob's bytes; a blob that is not `bytes` (a bytearray, say) is
    copied once first, so that no tensor aliases a buffer its caller may
    reuse."""
    if not isinstance(blob, bytes):
        blob = bytes(blob)
    if len(blob) < 12:
        raise ModelFormatError("file too short to be a model container")
    if blob[:4] != MAGIC:
        raise ModelFormatError(f"bad magic {blob[:4]!r}, expected {MAGIC!r}")
    # Sections are parsed from views of the blob, and the tensors stay views
    # of it: a load copies no parameter bytes.
    view = memoryview(blob)
    stored_crc = struct.unpack("<I", view[-4:])[0]
    actual_crc = zlib.crc32(view[:-4]) & 0xFFFFFFFF
    if stored_crc != actual_crc:
        raise ModelFormatError(
            f"checksum mismatch: stored {stored_crc:#010x}, computed {actual_crc:#010x}")
    version = struct.unpack("<I", view[4:8])[0]
    if version != VERSION:
        raise ModelFormatError(f"unsupported format version {version}")
    body, sections = _Reader(view[8:-4], "container"), {}
    while body.pos < len(body.buf):
        tag = bytes(body.take(4))
        if tag not in _SECTION_ORDER:
            raise ModelFormatError(f"unknown section tag {tag!r}")
        if tag in sections:
            raise ModelFormatError(f"duplicate section {tag!r}")
        sections[tag] = _Reader(body.take(body.u32()), f"section {tag!r}")
    missing = [t for t in _SECTION_ORDER if t not in sections]
    if missing:
        raise ModelFormatError(f"missing sections: {missing}")
    try:
        conf = parse_config_text(sections[b"CONF"].text())
        unnamed = [f.name for f in fields(TrainConfig) if f.name not in conf]
        if unnamed:
            raise ModelFormatError(f"CONF does not name {', '.join(unnamed)}")
        config = TrainConfig(**conf)
        vocab = _decode_vocab(sections[b"VOCB"])
        tensors = _decode_tensors(sections[b"TENS"])
        stats = _decode_stats(sections[b"CLST"], config)
        thrs = sections[b"THRS"]
        threshold, quantile = thrs.unpack("<dd")
        thrs.done()
        if not math.isfinite(threshold):
            raise ModelFormatError(f"THRS threshold {threshold} is not finite")
        if not 0.0 < quantile < 1.0:
            raise ModelFormatError(f"THRS quantile {quantile} is not inside (0, 1)")
        artifact = ModelArtifact(vocab, tensors, config, stats, threshold,
                                 quantile, sections[b"LOGD"].text())
    except ModelFormatError:
        raise
    except (ValueError, TypeError, struct.error) as exc:
        raise ModelFormatError(f"malformed section content: {exc}") from exc
    _check_tensors(artifact)
    return artifact


def save_model(artifact: ModelArtifact, path: str) -> None:
    blob = serialize_model(artifact)
    with open(path, "wb") as fh:
        fh.write(blob)


def load_model(path: str) -> ModelArtifact:
    with open(path, "rb") as fh:
        return deserialize_model(fh.read())
