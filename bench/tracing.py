"""Outside-in tracing of the leo pipeline.

`Tracer.install` replaces public functions with timing wrappers in the
namespaces that call them (`leo.train`, `leo.losses`, `leo.data`,
`leo.model`) and wraps `Adam.step`; `uninstall` puts the originals back.
No file under `src/` is touched. Each wrapper records a span (name, start,
end, parent span, operation id) and, at a few boundaries, a count. Spans
stay in memory until `write` dumps them as JSON lines.

Per-layer metrics are sums over the spans of the traced operations,
divided by the number of those operations: a value per train call or per
score request. Self time is a span's duration minus the durations of its
direct child spans (the program is single-threaded, so children never
overlap).
"""
from __future__ import annotations

import json
import os
import time
from collections import defaultdict

# (namespace, attribute, span name). A function is wrapped where its caller
# looks it up, so the same leo function may appear under two namespaces with
# one span name. `train` and `score_records` give each operation a root span.
TARGETS = (
    ("train", "normalize_source", "normalize"),
    ("train", "encode_batch", "encoder"),
    ("train", "selector_forward", "selector"),
    ("losses", "selector_presigmoid", "selector"),
    ("train", "classifier_forward", "classifier"),
    ("losses", "classifier_forward", "classifier"),
    ("train", "data_distribution_loss", "distribution"),
    ("train", "joint_loss", "joint"),
    ("losses", "assign_clusters", "kmeans"),
    ("losses", "cluster_contrastive_loss", "contrastive"),
    ("train", "backward", "backward"),
    ("train", "clip_store_gradients", "clip"),
    ("Adam", "step", "adam"),
    ("train", "fit_cluster_statistics", "fit"),
    ("train", "mahalanobis_scores", "mahalanobis"),
    ("train", "prepare_samples", "prepare"),
    ("train", "masked_representations", "masked_reps"),
    ("train", "model_from_artifact", "model_rebuild"),
    ("train", "train", "train"),
    ("train", "score_records", "score_records"),
    ("train", "load_dataset", "data_load"),
    ("data", "load_dataset", "data_load"),
    ("model", "save_model", "serialize"),
    ("model", "load_model", "deserialize"),
)

# Per-layer metric name -> (unit, how it is computed). "total" sums span
# durations, "self" sums self times, "calls" counts spans.
LAYER_METRICS = {
    "normalize.calls": ("count", "calls", "normalize"),
    "normalize.busy_s": ("s", "total", "normalize"),
    "normalize.repeat_frac": ("ratio", "counter", "normalize_repeat"),
    "data.load_s": ("s", "total", "data_load"),
    "model.deserialize_s": ("s", "total", "deserialize"),
    "model.serialize_s": ("s", "total", "serialize"),
    "model.bytes": ("bytes", "counter", "model_bytes"),
    "encoder.calls": ("count", "calls", "encoder"),
    "encoder.busy_s": ("s", "total", "encoder"),
    "encoder.pad_frac": ("ratio", "counter", "encoder_pad"),
    "selector.busy_s": ("s", "total", "selector"),
    "losses.classifier_busy_s": ("s", "total", "classifier"),
    "losses.distribution_busy_s": ("s", "self", "distribution"),
    "losses.joint_busy_s": ("s", "self", "joint"),
    "losses.kmeans_busy_s": ("s", "total", "kmeans"),
    "losses.contrastive_busy_s": ("s", "total", "contrastive"),
    "autodiff.backward_calls": ("count", "calls", "backward"),
    "autodiff.backward_busy_s": ("s", "total", "backward"),
    "optim.adam_calls": ("count", "calls", "adam"),
    "optim.adam_busy_s": ("s", "total", "adam"),
    "optim.clip_busy_s": ("s", "total", "clip"),
    "scoring.fit_busy_s": ("s", "total", "fit"),
    "scoring.mahalanobis_busy_s": ("s", "total", "mahalanobis"),
    "train.prepare_busy_s": ("s", "self", "prepare"),
    "train.masked_reps_busy_s": ("s", "self", "masked_reps"),
    "train.model_rebuild_calls": ("count", "calls", "model_rebuild"),
    "train.model_rebuild_busy_s": ("s", "total", "model_rebuild"),
}

SETUP_LAYERS = ("data_load", "deserialize")


class Tracer:
    def __init__(self):
        self.spans = []          # [op, span id, parent id, name, start, end]
        self._stack = []
        self._op = None
        self._installed = []
        self._normalized = set()
        # op -> counter name -> [numerator, denominator]
        self.counters = defaultdict(lambda: defaultdict(lambda: [0, 0]))

    # -- operations ------------------------------------------------------

    def begin(self, op: str) -> None:
        self._op = op
        self._normalized = set()

    def end(self) -> None:
        self._op = None

    def op_spans(self, op: str):
        return [s for s in self.spans if s[0] == op]

    # -- wrapping --------------------------------------------------------

    def install(self, namespaces: dict) -> None:
        """Wrap every TARGETS entry; `namespaces` maps each namespace name
        to its module or class."""
        for ns_name, attr, span in TARGETS:
            owner = namespaces[ns_name]
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(span, original))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed = []

    def _wrap(self, name, fn):
        observe = getattr(self, f"_observe_{name}", None)

        def wrapper(*args, **kwargs):
            span = [self._op, len(self.spans),
                    self._stack[-1] if self._stack else None, name, 0.0, 0.0]
            self.spans.append(span)
            self._stack.append(span[1])
            span[4] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counts at span boundaries ---------------------------------------

    def _count(self, counter: str, num, den) -> None:
        cell = self.counters[self._op][counter]
        cell[0] += num
        cell[1] += den

    def _observe_normalize(self, args, kwargs, result) -> None:
        text = args[0] if args else kwargs["source_text"]
        self._count("normalize_repeat", int(text in self._normalized), 1)
        self._normalized.add(text)

    def _observe_encoder(self, args, kwargs, result) -> None:
        max_statements = args[2] if len(args) > 2 else kwargs["max_statements"]
        lengths = result[1]
        rows = len(lengths) * max_statements
        self._count("encoder_pad", rows - int(lengths.sum()), rows)

    def _observe_serialize(self, args, kwargs, result) -> None:
        path = args[1] if len(args) > 1 else kwargs["path"]
        self._count("model_bytes", os.path.getsize(path), 1)

    # -- aggregation -----------------------------------------------------

    def layer_metrics(self, ops, setup_ops) -> dict:
        """Per-layer metrics: per traced operation, except the setup
        layers, which are per set-up repetition."""
        by_op = {}
        for s in self.spans:
            by_op.setdefault(s[0], []).append(s)
        out = {}
        for metric, (unit, kind, name) in LAYER_METRICS.items():
            group = setup_ops if name in SETUP_LAYERS else ops
            if kind == "counter":
                num = sum(self.counters[op][name][0] for op in group)
                den = sum(self.counters[op][name][1] for op in group)
                value = num / den if den else 0.0
            else:
                total = 0.0
                for op in group:
                    total += _aggregate(by_op.get(op, []), name, kind)
                value = total / max(len(group), 1)
            out[metric] = {"value": value, "unit": unit}
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for op, sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"op": op, "id": sid, "parent": parent,
                                     "name": name, "start": start,
                                     "end": end}) + "\n")


def _aggregate(spans, name: str, kind: str) -> float:
    if kind == "calls":
        return sum(1 for s in spans if s[3] == name)
    child_time = defaultdict(float)
    for s in spans:
        if s[2] is not None:
            child_time[s[2]] += s[5] - s[4]
    total = 0.0
    for s in spans:
        if s[3] == name:
            total += s[5] - s[4]
            if kind == "self":
                total -= child_time[s[1]]
    return total
