"""Synthetic C-like corpus generator.

Three token-template families, each built around one "guard" statement:

  A  bounds-checked array read   (in-distribution, CWE-125 flavor)
  B  capped allocation and copy  (in-distribution, CWE-787 flavor)
  C  authorization check         (held-out OOD family, CWE-862 flavor)

Every draw produces a benign/vulnerable twin pair: the vulnerable variant
is the benign text with exactly the guard line deleted (label 1).
"""
from __future__ import annotations

import os

import numpy as np

from .data import DatasetRecord, write_dataset

ID_FAMILIES = ("A", "B")
OOD_FAMILY = "C"
ID_TEST_FRACTION = 0.2  # share of the ID pool held out as the ID test set
CWE_OF = {"A": "CWE-125", "B": "CWE-787", "C": "CWE-862"}

_NAMES = [
    "value", "total", "item", "entry", "cursor", "offset", "limit", "bound",
    "width", "depth", "step", "probe", "slot", "mark", "level", "count_a",
]
_FUNCS = [
    "process", "handle", "fetch", "collect", "resolve", "update", "scan_all",
    "merge", "inspect", "route", "commit", "refresh",
]


def _pick(rng, pool):
    return pool[int(rng.integers(len(pool)))]


def _fresh(rng, pool, used):
    name = _pick(rng, pool)
    while name in used:
        name = name + _pick(rng, ("x", "y", "z", "2", "3"))
    used.add(name)
    return name


def _family_a(rng):
    """Array read behind an index bounds check."""
    used = set()
    fn = _fresh(rng, _FUNCS, used)
    buf, length, idx = (_fresh(rng, _NAMES, used) for _ in range(3))
    val, it = (_fresh(rng, _NAMES, used) for _ in range(2))
    bound = int(rng.integers(4, 64))
    body = [
        f"int {val} = 0;",
        f"int {it} = 0;",
    ]
    guard = f"if ({idx} < 0 || {idx} >= {length}) {{ return -1; }}"
    body.append(guard)
    if rng.random() < 0.7:
        body.append(f"for ({it} = 0; {it} < {length}; {it}++) {{ {val} += {buf}[{it}]; }}")
    if rng.random() < 0.4:
        body.append(f"{val} = {val} + {bound};")
    if rng.random() < 0.3:
        body.append('printf("trace");')
    body.append(f"{val} = {buf}[{idx}];")
    body.append(f"return {val};")
    header = f"int {fn}(int *{buf}, int {length}, int {idx})"
    return header, body, guard


def _family_b(rng):
    """Fixed-capacity allocation with a copy-length clamp."""
    used = set()
    fn = _fresh(rng, _FUNCS, used)
    src, n = (_fresh(rng, _NAMES, used) for _ in range(2))
    dst, k = (_fresh(rng, _NAMES, used) for _ in range(2))
    cap = int(_pick(rng, (16, 32, 64, 128, 256)))
    body = [
        f"char *{dst} = malloc({cap});",
        f"int {k} = {n};",
    ]
    guard = f"if ({k} > {cap}) {{ {k} = {cap}; }}"
    body.append(guard)
    if rng.random() < 0.4:
        body.append(f"memset({dst}, 0, {cap});")
    body.append(f"memcpy({dst}, {src}, {k});")
    if rng.random() < 0.6:
        body.append(f"{dst}[{cap} - 1] = 0;")
    if rng.random() < 0.3:
        body.append('printf("copied");')
    body.append(f"return {dst};")
    header = f"char *{fn}(char *{src}, int {n})"
    return header, body, guard


def _family_c(rng):
    """Privileged action behind a caller-permission check."""
    used = set()
    fn = _fresh(rng, _FUNCS, used)
    user, rec = (_fresh(rng, _NAMES, used) for _ in range(2))
    ok = _fresh(rng, _NAMES, used)
    check = _fresh(rng, _FUNCS, used)
    action = _fresh(rng, _FUNCS, used)
    code = int(rng.integers(1, 9))
    body = [f"int {ok} = 0;"]
    guard = f"if (!{check}({user})) {{ return 0; }}"
    body.append(guard)
    if rng.random() < 0.5:
        body.append(f"{action}({rec}, {code});")
    else:
        body.append(f"{action}({rec}, {user});")
    if rng.random() < 0.4:
        body.append('printf("granted");')
    body.append(f"{ok} = 1;")
    body.append(f"return {ok};")
    header = f"int {fn}(int {user}, int {rec})"
    return header, body, guard


_BUILDERS = {"A": _family_a, "B": _family_b, "C": _family_c}


def generate_pair(family: str, rng: np.random.Generator):
    """One benign/vulnerable twin: (benign_code, vulnerable_code, cwe).
    The vulnerable text is the benign text minus the guard line."""
    if family not in _BUILDERS:
        raise ValueError(f"unknown family '{family}'")
    header, body, guard = _BUILDERS[family](rng)
    benign = header + " {\n" + "\n".join("    " + s for s in body) + "\n}\n"
    without = [s for s in body if s is not guard]
    vulnerable = header + " {\n" + "\n".join("    " + s for s in without) + "\n}\n"
    return benign, vulnerable, CWE_OF[family]


def generate_family(family: str, n: int, rng: np.random.Generator):
    """n records (rounded down to an even count) as twin pairs with stable
    family-prefixed ids."""
    records = []
    for pair_idx in range(n // 2):
        benign, vulnerable, cwe = generate_pair(family, rng)
        stem = f"{family}{pair_idx:05d}"
        records.append(DatasetRecord(f"{stem}b", benign, 0, cwe))
        records.append(DatasetRecord(f"{stem}v", vulnerable, 1, cwe))
    return records


def generate_synthetic(n_per_id_family: int, n_ood: int, seed: int):
    """Build the three-way corpus: (train, id_test, ood_test) record lists.

    The in-distribution pool (families A and B) is shuffled with the seed
    and ID_TEST_FRACTION of it is held out as the ID test population;
    family C is entirely test-side.
    """
    rng = np.random.default_rng(seed)
    pool = []
    for family in ID_FAMILIES:
        pool.extend(generate_family(family, n_per_id_family, rng))
    ood = generate_family(OOD_FAMILY, n_ood, rng)
    order = rng.permutation(len(pool))
    shuffled = [pool[i] for i in order]
    n_test = max(1, int(len(shuffled) * ID_TEST_FRACTION))
    return shuffled[n_test:], shuffled[:n_test], ood


def write_corpus(out_dir: str, n_per_id_family: int, n_ood: int, seed: int):
    """Generate and write train/id_test/ood_test files; returns their paths."""
    train, id_test, ood = generate_synthetic(n_per_id_family, n_ood, seed)
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "train": os.path.join(out_dir, "train.jsonl"),
        "id_test": os.path.join(out_dir, "id_test.jsonl"),
        "ood_test": os.path.join(out_dir, "ood_test.jsonl"),
    }
    write_dataset(train, paths["train"])
    write_dataset(id_test, paths["id_test"])
    write_dataset(ood, paths["ood_test"])
    return paths
