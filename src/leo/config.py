"""Run configuration: defaults, validation, the `key = value` config file
format, and the fingerprint string stamped into evaluation reports.

A TrainConfig is validated once, as it is built, and is frozen: a config
in hand is valid for its whole life, so the functions it configures do not
re-check its ranges or modes. `dataclasses.replace` builds and validates a
new one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

SCORING_MODES = ("pooled-d", "concat-diagonal")
CONTRASTIVE_VARIANTS = ("cluster", "supervised-class")
GATE_MODES = ("expected", "hard")


@dataclass(frozen=True)
class TrainConfig:
    seed: int
    max_statements: int = 100
    embed_dim: int = 150
    vocab_max: int = 10000
    kernel_size: int = 3
    selector_hidden: tuple = (100, 100, 100)
    classifier_hidden: tuple = (300, 100)
    dropout_retain: float = 0.8
    relax_temp: float = 0.5
    contrastive_temp: float = 0.5
    contrastive_weight: float = 0.1
    clusters: int = 3
    learning_rate: float = 1e-3
    batch_size: int = 128
    epochs: int = 10
    clip_norm: float = 5.0
    val_fraction: float = 0.2
    stmt_token_cap: int = 64
    kmeans_iters: int = 10
    scoring_mode: str = "pooled-d"
    contrastive_variant: str = "cluster"
    gate_mode: str = "expected"
    ablate_cd: bool = False

    def __post_init__(self):
        self.validate()
        # an int in a float field is kept as the float its CONF text reads
        # back, and a list of hidden widths as a tuple
        for name, kind in _FIELD_TYPES.items():
            if kind in _STORED:
                object.__setattr__(self, name, _STORED[kind](getattr(self, name)))

    def validate(self):
        """Every value must be one its CONF text reads back: a bool only in
        a bool field, an int in an int field, a finite int or float in a
        float field, a tuple or list of ints of at least 1 in a hidden-width
        field. Then each field's range."""
        for name, kind in _FIELD_TYPES.items():
            value = getattr(self, name)
            if (not isinstance(value, _ACCEPTED[kind])
                    or isinstance(value, bool) != (kind == "bool")):
                raise ValueError(f"{name} must be of type {kind}, not {value!r}")
            if kind == "float" and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, not {value!r}")
            if kind == "tuple" and not all(type(w) is int and w >= 1 for w in value):
                raise ValueError(f"{name} must hold ints of at least 1, not {value!r}")
            # vocab_max leaves room for <pad> and <unk>
            least = 0 if name == "seed" else 2 if name == "vocab_max" else 1
            if kind == "int" and value < least:
                raise ValueError(f"{name} must be at least {least}")
        for name in ("relax_temp", "contrastive_temp", "learning_rate",
                     "clip_norm"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.contrastive_weight < 0:
            raise ValueError("contrastive_weight cannot be negative")
        if not 0.0 < self.dropout_retain <= 1.0:
            raise ValueError("dropout_retain must lie in (0, 1]")
        if not 0.0 < self.val_fraction < 1.0:
            raise ValueError("val_fraction must lie strictly inside (0, 1)")
        if self.scoring_mode not in SCORING_MODES:
            raise ValueError(f"scoring_mode must be one of {SCORING_MODES}")
        if self.contrastive_variant not in CONTRASTIVE_VARIANTS:
            raise ValueError(
                f"contrastive_variant must be one of {CONTRASTIVE_VARIANTS}")
        if self.gate_mode not in GATE_MODES:
            raise ValueError(f"gate_mode must be one of {GATE_MODES}")

    def fingerprint(self) -> str:
        """Semicolon-joined key=value pairs in field order; commas are
        avoided so the string embeds cleanly into report tables."""
        return ";".join(f"{f.name}={_format_value(getattr(self, f.name), 'x')}"
                        for f in fields(self))

    def render(self) -> str:
        """The config file form: one key = value line per field."""
        return "".join(f"{f.name} = {_format_value(getattr(self, f.name), ',')}\n"
                       for f in fields(self))


def _format_value(value, width_sep: str) -> str:
    """A field value as text; hidden-layer widths are joined by width_sep."""
    if isinstance(value, tuple):
        return width_sep.join(str(w) for w in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"cannot read boolean from '{raw}'")


# Each key's type is its TrainConfig annotation, a string under postponed evaluation.
_FIELD_TYPES = {f.name: f.type for f in fields(TrainConfig)}
# The Python types each annotation accepts; bool, an int subclass, is
# told apart in validate.
_ACCEPTED = {"int": int, "float": (int, float), "str": str, "bool": bool,
             "tuple": (tuple, list)}
# The type each annotation stores its accepted values as.
_STORED = {"float": float, "tuple": tuple}
_PARSERS = {"int": int, "float": float, "str": str, "bool": _parse_bool,
            "tuple": lambda raw: tuple(int(w) for w in raw.split(",") if w.strip())}


def _parse_value(key: str, raw: str):
    if key not in _FIELD_TYPES:
        raise ValueError(f"unknown config key '{key}'")
    return _PARSERS[_FIELD_TYPES[key]](raw.strip())


def parse_config_text(text: str) -> dict:
    """Parse `key = value` lines (blank lines and # comments ignored) into
    a keyword dict for TrainConfig."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"config line {lineno}: expected 'key = value'")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key in values:
            raise ValueError(f"config line {lineno}: repeated key '{key}'")
        try:
            values[key] = _parse_value(key, raw)
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: {exc}") from exc
    return values


def load_config(path: str | None = None, overrides: dict | None = None) -> TrainConfig:
    """Config file values, then explicit overrides on top. A seed must come
    from one of the two."""
    values = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            values.update(parse_config_text(fh.read()))
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in _FIELD_TYPES:
            raise ValueError(f"unknown config key '{key}'")
        values[key] = value
    if "seed" not in values:
        raise ValueError("a seed is required (config file or --seed)")
    return TrainConfig(**values)
