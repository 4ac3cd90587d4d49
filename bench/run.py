"""The leo benchmark: train-small, train-paper and score-files.

Run from the root of a leo checkout (the sources are taken from ./src):

    python3 bench/run.py --workload train-small --seed 1 --seconds 10 --trace 0

With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. The exit code is
0 when every correctness gate held, 1 when one failed, and 2 when there are
no leo sources to benchmark. See bench/README.md for the workloads and the
metrics.
"""
from __future__ import annotations

import os

# Pinned before numpy loads: an unpinned BLAS measures the scheduler.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import ctypes
import glob
import hashlib
import importlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from types import SimpleNamespace

import numpy as np

from tracing import Tracer

A5_SHAPE = dict(max_statements=40, embed_dim=32, clusters=3, batch_size=64)
TINY_SHAPE = dict(max_statements=14, embed_dim=10, vocab_max=300,
                  selector_hidden=(12, 12), classifier_hidden=(24, 12),
                  batch_size=16, clusters=2)

SETUP_REPS = 6                # set-ups before the timed loop
SETUP_REPS_PER_ROUND = 3      # and after each round of it, so that the
                              # median samples the whole run
MIN_TRAIN_CALLS = 5           # timed train calls per run on train-*, after
                              # one untimed warm-up call
ARTIFACT_TRAIN_CALLS = 6      # score-files trains its artifact this often;
                              # the first call warms up and is not timed
# Functions per request ("file"): log-spaced 1..64. Every block of requests
# is one seeded permutation of the ladder, so each seed sends the same mix
# of small files (fixed per-call cost) and large ones (per-function work).
REQUEST_LADDER = (1, 2, 3, 4, 6, 8, 11, 16, 23, 32, 45, 64)
MIN_REQUEST_BLOCKS = 9        # 108 requests: p90 has 10 samples above it
BLOCKS_PER_ROUND = 2          # request blocks after each train call on train-*
DRIFT_TOL = 1e-5              # A7's relative score drift
A5_FLOOR = (0.90, 0.25)       # A5's AUROC floor and FPR@95 ceiling
RUN_DEADLINE_S = 120.0        # timed loops stop adding work past this
CHILD_TIMEOUT_S = 150.0       # score-files' artifact training child


@dataclass(frozen=True)
class Workload:
    shape: dict          # TrainConfig fields besides seed and epochs
    epochs: int
    n_per_family: int    # generate_synthetic size, for families A/B and C
    timed: str           # "train": repeated train calls; "score": requests
    a5_floor: bool       # the A5 quality floor applies


WORKLOADS = {
    "train-small": Workload(A5_SHAPE, epochs=2, n_per_family=200,
                            timed="train", a5_floor=True),
    # 128 training functions: one full batch per epoch at paper size
    "train-paper": Workload({}, epochs=1, n_per_family=100,
                            timed="train", a5_floor=False),
    "score-files": Workload({}, epochs=1, n_per_family=100,
                            timed="score", a5_floor=False),
}

END_TO_END_UNITS = {
    "setup_s": "s", "train_s": "s", "auroc": "ratio", "tnr95": "ratio",
    "score_fn_per_s": "fn/s", "score_req_ms_p50": "ms",
    "score_req_ms_p90": "ms", "peak_rss_mb": "MB",
}


@dataclass
class Op:
    """One train call or one score request: the unit of `attempted`."""
    kind: str
    seconds: float = 0.0
    ok: bool = True
    detail: list = field(default_factory=list)

    def fail(self, why: str) -> None:
        self.ok = False
        self.detail.append(why)


# ---------------------------------------------------------------------------
# environment


def import_leo() -> SimpleNamespace:
    """Import (or re-import) leo from ./src; returns its modules by name."""
    for name in [m for m in sys.modules if m == "leo" or m.startswith("leo.")]:
        del sys.modules[name]
    names = ("autodiff", "config", "data", "losses", "metrics", "model",
             "normalize", "optim", "synth", "train")
    leo = SimpleNamespace(**{n: importlib.import_module(f"leo.{n}") for n in names})
    leo.Adam = leo.optim.Adam
    return leo


def blas_threads_in_effect():
    """Thread count the loaded OpenBLAS reports, or None if unknown."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..",
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "nproc": os.cpu_count(),
            "blas_threads": BLAS_THREADS,
            "blas_threads_reported": blas_threads_in_effect(), "seed": seed}


# ---------------------------------------------------------------------------
# inputs


def make_inputs(leo, wl: Workload, seed: int, workdir: str) -> dict:
    """Write the seeded corpus as JSONL; returns the paths by split."""
    splits = leo.synth.generate_synthetic(wl.n_per_family, wl.n_per_family, seed)
    paths = {}
    for name, records in zip(("train", "id_test", "ood_test"), splits):
        paths[name] = os.path.join(workdir, f"{name}.jsonl")
        leo.data.write_dataset(records, paths[name])
    return paths


def request_blocks(pool_size: int, seed: int):
    """Endless seeded blocks of requests, each request a sorted array of
    distinct pool indices; block sizes follow REQUEST_LADDER."""
    rng = np.random.default_rng([seed, 1])
    while True:
        yield [np.sort(rng.choice(pool_size, min(pool_size, int(size)), replace=False))
               for size in rng.permutation(REQUEST_LADDER)]


# ---------------------------------------------------------------------------
# operations


def file_hash(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def train_once(leo, config, records, path: str):
    """One `leo train`: train() then save_model(). Returns (artifact, s)."""
    start = time.perf_counter()
    artifact = leo.train.train(config, records)
    leo.model.save_model(artifact, path)
    return artifact, time.perf_counter() - start


def quality_of(leo, artifact, paths: dict) -> dict:
    """`evaluate` on the test populations: AUROC, FPR@95 and the scores."""
    report, rows = leo.train.evaluate(artifact, paths["id_test"], paths["ood_test"])
    return {"auroc": report.auroc, "fpr95": report.fpr_at_tpr95,
            "scores": [row[2] for row in rows]}


def train_artifact_elsewhere(src: str, config_fields: dict, paths: dict,
                             model_path: str):
    """score-files set-up, run in a child process so that the scoring
    process's peak RSS is the read path's own. Returns the (seconds, hash)
    of each train call and the quality of the artifact. The child is a
    plain subprocess that the parent waits for (or kills and waits for on
    a timeout), so no helper process outlives the run."""
    spec = os.path.join(os.path.dirname(model_path), "artifact-spec.json")
    out = os.path.join(os.path.dirname(model_path), "artifact-result.json")
    with open(spec, "w", encoding="utf-8") as fh:
        json.dump({"src": src, "config": config_fields, "paths": paths,
                   "model_path": model_path, "out": out}, fh)
    # The child's stdout goes to stderr: the last stdout line is the result.
    subprocess.run([sys.executable, os.path.abspath(__file__),
                    "--train-artifact", spec],
                   stdout=sys.stderr, check=True, timeout=CHILD_TIMEOUT_S)
    with open(out, encoding="utf-8") as fh:
        result = json.load(fh)
    return [tuple(c) for c in result["calls"]], result["quality"]


def train_artifact_child(spec_path: str) -> int:
    """The child side of train_artifact_elsewhere."""
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    leo = import_leo()
    config = leo.config.TrainConfig(**spec["config"])
    records = leo.data.load_dataset(spec["paths"]["train"])
    calls = []
    for _ in range(ARTIFACT_TRAIN_CALLS):
        artifact, seconds = train_once(leo, config, records, spec["model_path"])
        calls.append((seconds, file_hash(spec["model_path"])))
    quality = quality_of(leo, artifact, spec["paths"])
    with open(spec["out"], "w", encoding="utf-8") as fh:
        json.dump({"calls": calls, "quality": quality}, fh, default=float)
    return 0


def relative_drift(a, b) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-30)))


def check_request(op: Op, scores, decisions, ref_scores, ref_decisions,
                  threshold: float) -> None:
    """Same decisions and scores within DRIFT_TOL as the reference pass.
    A decision may differ only for a score within DRIFT_TOL of the
    threshold, where the tolerance itself cannot say which side is right."""
    drift = relative_drift(scores, ref_scores)
    if drift > DRIFT_TOL:
        op.fail(f"score drift {drift:.2e} against the reference pass")
    differ = np.asarray(decisions) != np.asarray(ref_decisions)
    near = np.abs(np.asarray(ref_scores) - threshold) <= DRIFT_TOL * abs(threshold)
    if np.any(differ & ~near):
        op.fail("decisions differ from the reference pass")


# ---------------------------------------------------------------------------
# the run


class Run:
    def __init__(self, args, wl: Workload, src: str, workdir: str):
        self.args = args
        self.wl = wl
        self.src = src
        self.workdir = workdir
        self.start = time.perf_counter()
        self.ops: list[Op] = []
        self.failures: list[str] = []     # gates not tied to one op
        self.metrics: dict = {}
        self.notes: dict = {}             # printed, not in the JSON
        self.tracer = Tracer() if args.trace else None
        self.traced_ops: list[str] = []
        self.setup_ops: list[str] = []
        self.train_times: list[float] = []                # untraced calls
        self.pair_times = {"traced": [], "untraced": []}  # --trace 1 only
        self.hashes: list[str] = []
        self.requests: list = []          # (op, pool indices, output)
        self.loaded = None

    def gate(self, ok: bool, why: str, op: Op | None = None) -> None:
        if ok:
            return
        if op is not None:
            op.fail(why)
        else:
            self.failures.append(why)

    def traced(self, name: str, fn, *args):
        """Call fn with every wrapper installed, under operation `name`."""
        self.tracer.begin(name)
        self.tracer.install(vars(self.leo))
        try:
            return fn(*args)
        finally:
            self.tracer.uninstall()
            self.tracer.end()

    # -- set-up ------------------------------------------------------------

    def setup(self, paths: dict, model_path: str | None) -> None:
        """From `import leo` to ready, SETUP_REPS times; the last set-up's
        modules, records and artifact are the ones the run uses."""
        self.setup_args = (paths, model_path)
        self.setup_times = []
        for _ in range(SETUP_REPS):
            self.leo, self.records, self.loaded = self.setup_rep()
        self.gate(self.leo.autodiff.CHECK_FINITE is True,
                  "leo.autodiff.CHECK_FINITE is off")
        self.pool = self.records["id_test"] + self.records["ood_test"]

    def setup_rep(self):
        """One timed set-up; returns what it made."""
        t0 = time.perf_counter()
        leo = import_leo()
        if self.tracer:
            name = f"setup{len(self.setup_times)}"
            self.setup_ops.append(name)
            self.tracer.begin(name)
            self.tracer.install(vars(leo))
            try:
                records, loaded = self._load(leo, *self.setup_args)
            finally:
                self.tracer.uninstall()
                self.tracer.end()
        else:
            records, loaded = self._load(leo, *self.setup_args)
        self.setup_times.append(time.perf_counter() - t0)
        return leo, records, loaded

    @staticmethod
    def _load(leo, paths: dict, model_path: str | None):
        names = ("id_test", "ood_test") if model_path else ("train", "id_test", "ood_test")
        records = {n: leo.data.load_dataset(paths[n]) for n in names}
        artifact = leo.model.load_model(model_path) if model_path else None
        return records, artifact

    # -- operations --------------------------------------------------------

    def record_train(self, seconds: float, digest: str, timed: bool) -> None:
        """Every same-seed train call must write the same artifact bytes,
        traced, warm-up or timed. Only timed calls enter train_s."""
        op = Op("train", seconds)
        self.ops.append(op)
        if timed:
            self.train_times.append(seconds)
        self.hashes.append(digest)
        self.gate(digest == self.hashes[0],
                  "artifact hash differs from the first call's", op)
        self.artifact_op = op

    def train_call(self, config, path: str, traced: bool,
                   warmup: bool = False) -> None:
        try:
            if traced:
                name = f"train{len(self.ops) + 1}"
                self.traced_ops.append(name)
                artifact, seconds = self.traced(
                    name, train_once, self.leo, config, self.records["train"], path)
            else:
                artifact, seconds = train_once(
                    self.leo, config, self.records["train"], path)
        except Exception:
            traceback.print_exc()
            self.ops.append(Op("train"))
            self.ops[-1].fail("train call raised")
            return
        self.record_train(seconds, file_hash(path), not (traced or warmup))
        if self.tracer:
            self.pair_times["traced" if traced else "untraced"].append(seconds)
        self.trained = artifact

    def request(self, recs, traced_name: str | None):
        """One score_records call; traced under traced_name if given."""
        start = time.perf_counter()
        if traced_name:
            out = self.traced(traced_name, self.leo.train.score_records,
                              self.loaded, recs)
        else:
            out = self.leo.train.score_records(self.loaded, recs)
        return out, time.perf_counter() - start

    def score_block(self, block) -> None:
        """Requests from one closed-loop client. With --trace 1 each runs
        untraced and traced, in alternating order."""
        for idx in block:
            recs = [self.pool[i] for i in idx]
            op = Op("score")
            self.ops.append(op)
            out = None
            try:
                if not self.tracer:
                    out, op.seconds = self.request(recs, None)
                else:
                    name = f"request{len(self.requests) + 1}"
                    self.traced_ops.append(name)
                    order = (None, name) if len(self.requests) % 2 else (name, None)
                    runs = {which: self.request(recs, which) for which in order}
                    out, op.seconds = runs[None]
                    traced_out, traced_s = runs[name]
                    self.pair_times["untraced"].append(op.seconds)
                    self.pair_times["traced"].append(traced_s)
                    same = all(np.array_equal(a, b) for a, b in zip(out, traced_out))
                    self.gate(same, "traced request output differs", op)
            except Exception:
                traceback.print_exc()
                op.fail("request raised")
            self.requests.append((op, idx, out))

    # -- phases ------------------------------------------------------------

    def quality_and_reload(self, quality: dict, path: str) -> None:
        """Quality of the artifact, then the saved-and-reloaded artifact
        rescoring the test populations within A7's drift; that rescoring
        is the reference every request is checked against."""
        op = self.artifact_op
        self.notes["fpr95"] = quality["fpr95"]
        self.metrics["auroc"] = quality["auroc"]
        self.metrics["tnr95"] = 1.0 - quality["fpr95"]
        if self.wl.a5_floor and not self.args.tiny:
            self.gate(quality["auroc"] >= A5_FLOOR[0] and quality["fpr95"] <= A5_FLOOR[1],
                      f"below the A5 floor: AUROC {quality['auroc']:.4f}, "
                      f"FPR@95 {quality['fpr95']:.4f}", op)
        if self.loaded is None:
            self.loaded = self.leo.model.load_model(path)
        scores, decisions = self.leo.train.score_records(self.loaded, self.pool)
        drift = relative_drift(scores, quality["scores"])
        self.gate(drift <= DRIFT_TOL, f"reloaded artifact drifts {drift:.2e}", op)
        self.reference = (np.asarray(scores), np.asarray(decisions))

    def timed_loop(self, config, path: str) -> None:
        """Rounds of one train call (train-*) and request blocks until
        --seconds have passed and every minimum is met, so both metrics
        are sampled across the whole run. The traced run of train-*
        alternates traced and untraced train calls and sends no requests."""
        trains = self.wl.timed == "train"
        scores = self.wl.timed == "score" or not self.tracer
        # The first train call ran before the loop as an untimed warm-up, so
        # it enters neither train_s nor the traced/untraced pairs.
        min_train = (2 if self.tracer else MIN_TRAIN_CALLS) if trains else 0
        min_requests = MIN_REQUEST_BLOCKS * len(REQUEST_LADDER) if scores else 0
        blocks = request_blocks(len(self.pool), self.args.seed)
        self.pair_times = {"traced": [], "untraced": []}
        train_calls = 0
        t0 = time.perf_counter()
        while time.perf_counter() - self.start < RUN_DEADLINE_S and (
                time.perf_counter() - t0 < self.args.seconds
                or train_calls < min_train
                or len(self.requests) < min_requests):
            if trains:
                self.train_call(config, path, traced=self.tracer is not None
                                and train_calls % 2 == 0)
                train_calls += 1
            if scores:
                for _ in range(BLOCKS_PER_ROUND if trains else 1):
                    self.score_block(next(blocks))
            # Re-imports of leo whose results are dropped: the run keeps
            # the modules and data of the first set-up phase.
            for _ in range(SETUP_REPS_PER_ROUND):
                self.setup_rep()

    def score_metrics(self) -> None:
        ref_scores, ref_decisions = self.reference
        for op, idx, out in self.requests:
            if out is not None:
                check_request(op, out[0], out[1], ref_scores[idx],
                              ref_decisions[idx], self.loaded.threshold)
        ms = np.array([op.seconds for op, _, _ in self.requests]) * 1000.0
        functions = sum(len(idx) for _, idx, _ in self.requests)
        self.metrics["score_fn_per_s"] = functions / (ms.sum() / 1000.0)
        self.metrics["score_req_ms_p50"] = float(np.percentile(ms, 50))
        self.metrics["score_req_ms_p90"] = float(np.percentile(ms, 90))
        self.notes["requests"] = len(self.requests)
        self.notes["functions_scored"] = functions

    # -- the workloads -------------------------------------------------------

    def execute(self) -> None:
        wl, seed = self.wl, self.args.seed
        leo0 = import_leo()
        paths = make_inputs(leo0, wl, seed, self.workdir)
        model_path = os.path.join(self.workdir, "model.leo")
        config = leo0.config.TrainConfig(seed=seed, epochs=wl.epochs, **wl.shape)
        if wl.timed == "train":
            self.setup(paths, None)
            self.train_call(config, model_path, traced=False, warmup=True)
            if not self.hashes:
                raise RuntimeError("the first train call failed")
            quality = quality_of(self.leo, self.trained, paths)
        else:
            calls, quality = train_artifact_elsewhere(
                self.src, asdict(config), paths, model_path)
            for i, (seconds, digest) in enumerate(calls):
                self.record_train(seconds, digest, timed=i > 0)
            self.setup(paths, model_path)
        self.quality_and_reload(quality, model_path)
        self.timed_loop(config, model_path)
        self.metrics["setup_s"] = statistics.median(self.setup_times)
        self.notes["setup_reps"] = len(self.setup_times)
        self.metrics["train_s"] = statistics.median(self.train_times)
        self.notes["train_calls_s"] = self.train_times
        self.notes["artifact_sha256"] = self.hashes[0]
        if self.requests:
            self.score_metrics()
        self.gate(self.leo.autodiff.CHECK_FINITE is True,
                  "leo.autodiff.CHECK_FINITE is off")
        self.metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if self.tracer:
            self.self_check(config)

    # -- traced run: per-layer metrics and their self-checks ---------------

    def self_check(self, config) -> None:
        """Hand-derived values of the ratio counters, from the inputs."""
        normalize = self.leo.normalize.normalize_source
        m = config.max_statements
        layers = self.tracer.layer_metrics(self.traced_ops, self.setup_ops)
        if self.wl.timed == "train":
            records = self.records["train"]
            tr, va = self.leo.data.split_dataset(list(records), config.seed,
                                                 config.val_fraction)
            # vocabulary + prepare_samples both normalize the training split
            distinct = len({r.code for r in tr + va})
            calls = 2 * len(tr) + len(va)
            want_repeat = (calls - distinct) / calls
            # every training function is encoded twice per batch (the
            # distribution step and the joint step) in each epoch, then once
            # for the cluster statistics; validation functions once.
            passes = (1 if config.ablate_cd else 2) * config.epochs + 1
            def rows(recs):
                return sum(min(len(normalize(r.code).statements), m) for r in recs)
            used = passes * rows(tr) + rows(va)
            want_pad = 1.0 - used / (m * (passes * len(tr) + len(va)))
        else:
            texts = [[self.pool[j].code for j in idx] for _, idx, _ in self.requests]
            sizes = [len(t) for t in texts]
            want_repeat = sum(len(t) - len(set(t)) for t in texts) / sum(sizes)
            used = sum(min(len(normalize(c).statements), m) for t in texts for c in t)
            want_pad = 1.0 - used / (m * sum(sizes))
            for name in self.traced_ops:
                rebuilds = sum(1 for s in self.tracer.op_spans(name)
                               if s[3] == "model_rebuild")
                self.gate(rebuilds == 1, f"{name}: {rebuilds} model rebuilds, want 1")
        for metric, want in (("normalize.repeat_frac", want_repeat),
                             ("encoder.pad_frac", want_pad)):
            got = layers[metric]["value"]
            self.gate(abs(got - want) <= 1e-9,
                      f"{metric} {got:.6f}, hand-derived {want:.6f}")
            self.notes[f"{metric} (hand-derived)"] = want
        overhead = (statistics.median(self.pair_times["traced"])
                    / statistics.median(self.pair_times["untraced"]) - 1.0)
        layers["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
        self.layers = layers

    # -- output ----------------------------------------------------------

    def result(self) -> dict:
        for op in self.ops:
            for why in op.detail:
                print(f"FAILED {op.kind}: {why}", file=sys.stderr)
        for why in self.failures:
            print(f"FAILED: {why}", file=sys.stderr)
        failed = sum(1 for op in self.ops if not op.ok)
        attempted = len(self.ops)
        if self.tracer:
            metrics = self.layers
        else:
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                       for k, v in self.metrics.items()}
        return {"correct": failed == 0 and not self.failures,
                "attempted": max(attempted, 1), "failed": failed,
                "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny model and corpus, for the smoke test")
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "leo", "__init__.py")):
        print("bench/run.py: no leo sources in ./src; run it from the root "
              "of a leo checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    wl = WORKLOADS[args.workload]
    if args.tiny:
        wl = Workload(TINY_SHAPE, epochs=1, n_per_family=40, timed=wl.timed,
                      a5_floor=wl.a5_floor)
    env = environment(args.seed)
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()), flush=True)
    print("load: one process, one closed-loop client; nothing queues, waits "
          "or retries, so no wait or retry metrics are reported", flush=True)

    workdir = os.path.join(root, ".leo-bench",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    run = Run(args, wl, src, workdir)
    try:
        run.execute()
    except Exception:
        traceback.print_exc()
        run.failures.append("the run aborted")
        run.layers = {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if run.tracer:
        trace_path = os.path.join(root, ".leo-bench",
                                  f"trace-{args.workload}-seed{args.seed}.jsonl")
        run.tracer.write(trace_path)
        print(f"trace {os.path.relpath(trace_path, root)} "
              f"({len(run.tracer.spans)} spans)")
    result = run.result()
    for name, m in result["metrics"].items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    if "fpr95" in run.notes:
        print(f"metric fpr95 {run.notes.pop('fpr95')!r} ratio "
              "(printed only: tnr95 = 1 - fpr95 carries it, never 0)")
    failed_frac = result["failed"] / result["attempted"]
    print(f"metric failed_frac {failed_frac!r} ratio ({result['failed']} of "
          f"{result['attempted']}; the JSON carries it as failed/attempted)")
    for name, value in run.notes.items():
        print(f"note {name} {value!r}")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    if sys.argv[1:2] == ["--train-artifact"]:
        sys.exit(train_artifact_child(sys.argv[2]))
    sys.exit(main())
