"""Dataset ingestion: line-delimited records with code/label/cwe/id fields,
plus the seeded train/validation split. Only training requires a label.
"""
from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np


@dataclass
class DatasetRecord:
    sample_id: str
    code: str
    label: int | None
    cwe: str = ""


def load_dataset(path: str) -> list[DatasetRecord]:
    """Read one UTF-8 JSON object per line. `code` (a string) is required;
    `label` is 0 or 1, or absent or null for None. A missing `id` is assigned
    from the line number. Ids must be unique. A bad line raises ValueError
    naming the path and the line."""
    records = []
    seen = set()
    # undecodable bytes become lone surrogates, found per line below
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise ValueError(f"{path} line {lineno}: not valid UTF-8 "
                                 f"at character {exc.start + 1}") from None
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path} line {lineno}: malformed record: {exc}") from exc
            if not isinstance(obj, dict):
                raise ValueError(f"{path} line {lineno}: record must be an object")
            if "code" not in obj:
                raise ValueError(f"{path} line {lineno}: missing 'code'")
            if not isinstance(obj["code"], str):
                raise ValueError(f"{path} line {lineno}: code must be a string, "
                                 f"got {obj['code']!r}")
            label = obj.get("label")
            # JSON true and 1.0 compare equal to 1; only a real integer counts
            if label is not None and (type(label) is not int or label not in (0, 1)):
                raise ValueError(
                    f"{path} line {lineno}: label must be 0 or 1, got {label!r}")
            sample_id = str(obj.get("id", f"line{lineno}"))
            if sample_id in seen:
                raise ValueError(f"{path} line {lineno}: duplicate id '{sample_id}'")
            seen.add(sample_id)
            records.append(DatasetRecord(
                sample_id=sample_id,
                code=obj["code"],
                label=label,
                cwe=str(obj.get("cwe", "")),
            ))
    if not records:
        warnings.warn(f"{path} contained no records")
    return records


def write_dataset(records, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            obj = {"id": r.sample_id, "code": r.code, "label": r.label}
            if r.cwe:
                obj["cwe"] = r.cwe
            fh.write(json.dumps(obj, sort_keys=True) + "\n")


def split_dataset(records, seed: int, val_fraction: float = 0.2):
    """Deterministic train/validation partition: order by id, apply the
    seeded permutation, carve off the validation tail. Depends only on the
    record ids and the seed."""
    if len(records) < 5:
        raise ValueError(f"need at least 5 records to split, got {len(records)}")
    if not 0.0 < val_fraction < 1.0:
        raise ValueError("val_fraction must lie strictly inside (0, 1)")
    ordered = sorted(records, key=lambda r: r.sample_id)
    perm = np.random.default_rng(seed).permutation(len(ordered))
    shuffled = [ordered[i] for i in perm]
    n_val = max(1, int(len(ordered) * val_fraction))
    return shuffled[:-n_val], shuffled[-n_val:]
