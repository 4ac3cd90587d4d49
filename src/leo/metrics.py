"""Detection metrics over two score populations (out-of-distribution samples
are the positive class): FPR at a fixed true-positive rate, ranking AUROC,
and average precision. Plus the plain-text report and score-dump formats.
"""
from __future__ import annotations

import csv
import io
from dataclasses import MISSING, dataclass, fields

import numpy as np


@dataclass
class ScoreSet:
    """Outlier scores for the in-distribution and OOD test populations."""
    id_scores: np.ndarray
    ood_scores: np.ndarray

    def __post_init__(self):
        self.id_scores = np.asarray(self.id_scores, dtype=np.float64).ravel()
        self.ood_scores = np.asarray(self.ood_scores, dtype=np.float64).ravel()
        if self.id_scores.size == 0 or self.ood_scores.size == 0:
            raise ValueError("both score populations must be non-empty")
        if not (np.isfinite(self.id_scores).all()
                and np.isfinite(self.ood_scores).all()):
            raise ValueError("scores must be finite")


def nearest_rank_quantile(values: np.ndarray, quantile: float) -> float:
    """The ceil(quantile * n)-th smallest of n > 0 values (the smallest when
    that rank rounds to zero)."""
    if not 0.0 < quantile < 1.0:
        raise ValueError("quantile must lie strictly inside (0, 1)")
    ordered = np.sort(values)
    rank = int(np.ceil(quantile * ordered.size))
    return float(ordered[max(rank, 1) - 1])


def fpr_at_tpr(scores: ScoreSet, tpr: float = 0.95) -> float:
    """Fraction of OOD scores at or below the nearest-rank tpr-quantile of
    the ID scores (the threshold that keeps tpr of ID samples accepted)."""
    threshold = nearest_rank_quantile(scores.id_scores, tpr)
    return float(np.count_nonzero(scores.ood_scores <= threshold)
                 / scores.ood_scores.size)


def auroc(scores: ScoreSet) -> float:
    """Probability a random OOD score exceeds a random ID score, ties
    counted one half (the rank-sum statistic, normalized)."""
    id_sorted = np.sort(scores.id_scores)
    below = np.searchsorted(id_sorted, scores.ood_scores, side="left")
    below_or_equal = np.searchsorted(id_sorted, scores.ood_scores, side="right")
    wins = int(below.sum())
    ties = int((below_or_equal - below).sum())
    return (2 * wins + ties) / (2 * id_sorted.size * scores.ood_scores.size)


def aupr(scores: ScoreSet) -> float:
    """Average precision of the OOD-positive ranking. Thresholds descend
    over the distinct scores; tied scores enter as a single step."""
    id_sorted = np.sort(scores.id_scores)
    ood_sorted = np.sort(scores.ood_scores)
    thresholds = np.unique(np.concatenate([id_sorted, ood_sorted]))[::-1]
    tp = ood_sorted.size - np.searchsorted(ood_sorted, thresholds, side="left")
    fp = id_sorted.size - np.searchsorted(id_sorted, thresholds, side="left")
    precision = tp / (tp + fp)
    recall = tp / ood_sorted.size
    steps = np.diff(recall, prepend=0.0)
    return float((steps * precision).sum())


@dataclass
class EvalReport:
    """The three detection metrics plus run identification fields."""
    fpr_at_tpr95: float
    auroc: float
    aupr: float
    n_id: int
    n_ood: int
    fingerprint: str = ""
    dump_path: str = ""

    def __post_init__(self):
        for name in METRIC_NAMES:
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} outside [0, 1]")


# The float fields, a string annotation each under postponed evaluation.
METRIC_NAMES = tuple(f.name for f in fields(EvalReport) if f.type == "float")


def build_report(scores: ScoreSet, fingerprint: str = "",
                 dump_path: str = "") -> EvalReport:
    return EvalReport(
        fpr_at_tpr95=fpr_at_tpr(scores),
        auroc=auroc(scores),
        aupr=aupr(scores),
        n_id=int(scores.id_scores.size),
        n_ood=int(scores.ood_scores.size),
        fingerprint=fingerprint,
        dump_path=dump_path,
    )


def _csv_line(fields) -> str:
    """One CSV record ending in a bare newline. A field holding a comma, a
    quote, a carriage return or a newline is quoted; the csv module quotes
    the characters of its line terminator, hence the "\r\n" trimmed here."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow(fields)
    return buf.getvalue()[:-2] + "\n"


def _csv_rows(text: str, header: list[str], what: str) -> list[list[str]]:
    """The records after the header, blank lines skipped, each header-wide."""
    rows = [r for r in csv.reader(io.StringIO(text, newline="")) if r]
    if not rows or rows[0] != header:
        raise ValueError(f"{what} must start with a '{','.join(header)}' header")
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ValueError(f"{what} record {lineno}: expected {len(header)} "
                             f"fields, got {len(row)}")
    return rows[1:]


_REPORT_HEADER = ["metric", "value"]
_DUMP_HEADER = ["id", "population", "score", "decision"]


# Each row's text form and reader, by its EvalReport annotation.
_RENDERERS = {"float": repr, "int": str, "str": str}
_READERS = {"float": float, "int": int, "str": str}


def render_report(report: EvalReport) -> str:
    """Comma-separated table, one EvalReport field per row in field order.
    Float values use the shortest round-tripping decimal form."""
    rows = [(f.name, _RENDERERS[f.type](getattr(report, f.name)))
            for f in fields(EvalReport)]
    return "".join(_csv_line(row) for row in [_REPORT_HEADER, *rows])


def parse_report(text: str) -> EvalReport:
    """The report render_report writes. A row naming no EvalReport field,
    a repeated row or a value its field's type cannot read is an error."""
    known = {f.name for f in fields(EvalReport)}
    values = {}
    for lineno, (name, raw) in enumerate(
            _csv_rows(text, _REPORT_HEADER, "report"), start=2):
        if name not in known:
            raise ValueError(f"report record {lineno}: unknown row '{name}'")
        if name in values:
            raise ValueError(f"report record {lineno}: repeated row '{name}'")
        values[name] = raw
    missing = [f.name for f in fields(EvalReport)
               if f.default is MISSING and f.name not in values]
    if missing:
        raise ValueError(f"report is missing metric rows: {', '.join(missing)}")
    parsed = {}
    for f in fields(EvalReport):
        if f.name in values:
            try:
                parsed[f.name] = _READERS[f.type](values[f.name])
            except ValueError as exc:
                raise ValueError(f"report row '{f.name}': {exc}") from exc
    return EvalReport(**parsed)


def _check_labels(population, decision) -> None:
    if population not in ("id", "ood"):
        raise ValueError(f"population must be 'id' or 'ood', got {population!r}")
    if decision not in ("ID", "OOD"):
        raise ValueError(f"decision must be 'ID' or 'OOD', got {decision!r}")


def render_score_dump(rows) -> str:
    """One record per scored sample: id, population (id|ood), score,
    decision (ID|OOD)."""
    out = [_csv_line(_DUMP_HEADER)]
    for sample_id, population, score, decision in rows:
        _check_labels(population, decision)
        out.append(_csv_line((sample_id, population, repr(float(score)), decision)))
    return "".join(out)


def dump_rows(records, population: str, scores, decisions) -> list:
    """The score-dump rows (sample id, population, float score, str
    decision) of one scored population; every dump is built of these."""
    return [(r.sample_id, population, float(s), str(d))
            for r, s, d in zip(records, scores, decisions)]


def parse_score_dump(text: str):
    """The records render_score_dump writes; a bad population, score or
    decision is an error naming its record."""
    parsed = []
    for lineno, (sample_id, population, score, decision) in enumerate(
            _csv_rows(text, _DUMP_HEADER, "dump"), start=2):
        try:
            _check_labels(population, decision)
            parsed.append((sample_id, population, float(score), decision))
        except ValueError as exc:
            raise ValueError(f"dump record {lineno}: {exc}") from exc
    return parsed
