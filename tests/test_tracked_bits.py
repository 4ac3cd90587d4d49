"""The tracked bits: the serialize_model hash and the Mahalanobis and MSP
score digests of five fixed training runs, recomputed and compared with the
committed TABLE.

Each row trains TrainConfig(seed=7, ...) on the train split of
generate_synthetic(n, n, 7), hashes the serialized artifact, saves and
loads it, and scores id_test + ood_test in one score_records call per
scoring path. Every hash is the first 16 hex characters of a sha256.

The bits depend on the BLAS build, on the kernel OpenBLAS picks for the
CPU, and on the BLAS thread count. So the runs happen in a subprocess whose
thread variables are set before numpy loads, and STAMP records the numpy
version and the OpenBLAS runtime config the table was taken under. The
running stamp adds the thread count OpenBLAS reports, which it caps at the
CPU count. Where the running stamp differs from STAMP at the requested
count, or cannot be read, a test skips and names both; it skips for no
other reason. Only a deliberate re-baseline edits the table,
and CHANGES.md records its old and new values.

Run as a script, `python tests/test_tracked_bits.py table|twice` prints the
running stamp and the digests of every row (`table`) or the blob hashes of
the first row trained twice (`twice`) as JSON.
"""
import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

STAMP = {
    "numpy": "2.4.6",
    "openblas": ("OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY "
                 "SkylakeX MAX_THREADS=64"),
}

A5 = dict(max_statements=40, embed_dim=32, clusters=3, contrastive_weight=0.1,
          contrastive_temp=0.5, relax_temp=0.5, batch_size=64)
A7 = dict(max_statements=14, embed_dim=10, vocab_max=300,
          selector_hidden=(12, 12), classifier_hidden=(24, 12), batch_size=16,
          clusters=2)

# n, TrainConfig fields besides seed=7, then at one BLAS thread: the blob
# hash and the Mahalanobis and MSP score digests
TABLE = [
    (100, dict(epochs=1),
     "2977e30e9e492ead", "2f91131632d4ed92", "68bb8b5ee4b5378f"),
    (200, dict(A5, epochs=3),
     "df33a5392a962272", "5532021222c2ea89", "57c0ae7c4cd3d338"),
    (200, dict(A5, epochs=2, scoring_mode="concat-diagonal"),
     "4de1b3a808e0b199", "9772642a8b29d6ed", "8af9d951cf6b1fe4"),
    (40, dict(A7, epochs=3, scoring_mode="concat-diagonal", gate_mode="hard",
              relax_temp=0.3),
     "99a7afd9327770e8", "671976edd532a6bf", "6fb6c50ff1773636"),
    (40, dict(A7, epochs=3, ablate_cd=True, contrastive_variant="supervised-class"),
     "ad009425bfb37172", "7593cd49b766d0fd", "39a1c6c84f0ef957"),
]
# the first row's blob hash at two BLAS threads
FIRST_BLOB_AT_TWO_THREADS = "ffdd0becdfdf1407"


def _hash(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()[:16]


def _running_stamp() -> dict:
    """The numpy version, the runtime config of the OpenBLAS numpy loaded
    (None where it cannot be read) and that OpenBLAS's thread count."""
    import ctypes

    import numpy as np

    libs = pathlib.Path(np.__file__).resolve().parents[1] / "numpy.libs"
    stamp = {"numpy": np.__version__, "openblas": None, "threads": None}
    for path in libs.glob("libscipy_openblas64_-*.so"):
        try:
            lib = ctypes.CDLL(str(path))
            config, threads = (lib.scipy_openblas_get_config64_,
                               lib.scipy_openblas_get_num_threads64_)
            config.argtypes, config.restype = [], ctypes.c_char_p
            threads.argtypes, threads.restype = [], ctypes.c_int
            stamp["openblas"], stamp["threads"] = config().decode(), threads()
        except (OSError, AttributeError):
            pass
    return stamp


def _trained(row):
    from leo.config import TrainConfig
    from leo.synth import generate_synthetic
    from leo.train import train

    n, fields = row[:2]
    train_recs, id_test, ood_test = generate_synthetic(n, n, 7)
    return train(TrainConfig(seed=7, **fields), train_recs), id_test + ood_test


def _digests(row) -> list:
    """The row's blob hash, then its Mahalanobis and MSP score digests
    after a save and a load."""
    import tempfile

    import numpy as np

    from leo.model import load_model, save_model, serialize_model
    from leo.train import score_records

    artifact, records = _trained(row)
    out = [_hash(serialize_model(artifact))]
    with tempfile.TemporaryDirectory() as tmp:
        save_model(artifact, os.path.join(tmp, "m.leo"))
        loaded = load_model(os.path.join(tmp, "m.leo"))
    for use_msp in (False, True):
        scores, _ = score_records(loaded, records, use_msp=use_msp)
        out.append(_hash(np.ascontiguousarray(scores, dtype=np.float64).tobytes()))
    return out


def _run(what: str, threads: int) -> dict:
    """The script's JSON for `what`, from a subprocess at `threads` BLAS
    threads; skips where the running stamp is not STAMP at that count."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    done = subprocess.run([sys.executable, __file__, what], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    if result["stamp"] != {**STAMP, "threads": threads}:
        pytest.skip(f"the table was taken under {STAMP} at {threads} BLAS "
                    f"thread(s); this run is under {result['stamp']}")
    return result


def test_tracked_bits_at_one_thread():
    got = _run("table", 1)["rows"]
    assert got == [list(row[2:]) for row in TABLE]


def test_two_threads_give_one_blob_run_after_run():
    """README's promise holds at another thread count too: the same bits
    run after run, though not the one-thread bits."""
    assert _run("twice", 2)["blobs"] == [FIRST_BLOB_AT_TWO_THREADS] * 2


if __name__ == "__main__":
    from leo.model import serialize_model

    result = {"stamp": _running_stamp()}
    if sys.argv[1] == "table":
        result["rows"] = [_digests(row) for row in TABLE]
    else:
        result["blobs"] = [_hash(serialize_model(_trained(TABLE[0])[0]))
                           for _ in range(2)]
    print(json.dumps(result))
