"""Outside-in tracing of the sdsvm layers, installed from the benchmark.

Each traced function is wrapped where its caller looks it up: as an
attribute of the calling module (`sdsvm.pipeline.solve_dual`,
`sdsvm.data.fit_sdsvm`) or of the class (`sdsvm.rng.Stream.normals`), so the
package itself is not modified.  A target that no longer exists after a
refactor is reported as absent instead of failing the run.

A span is (name, start, end, parent span index, op id).  Spans stay in memory
and are written out once at the end.  Work counts are taken at the same
boundaries from argument and result shapes, so they are computed counts, not
measured ones.  Time spent taking the counts is recorded as `trace.hook`
spans, which keeps it out of the self time of the traced layers.
"""

from __future__ import annotations

import gzip
import hashlib
import importlib
import json
import time
from collections import defaultdict

import numpy as np

_clock = time.perf_counter


def _digest(array) -> bytes:
    arr = np.ascontiguousarray(array)
    return hashlib.blake2b(arr.view(np.uint8).ravel(), digest_size=16).digest() + repr(arr.shape).encode()


def _vector_rows(samples):
    """(rows, dims) of a vector sample list, or None for other payloads."""
    rows = len(samples)
    payload = getattr(samples[0], "payload", samples[0])
    shape = np.shape(payload)
    return (rows, shape[0]) if len(shape) == 1 else None


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.counts = defaultdict(float)
        self.installed = []
        self.absent = []
        self._seen = set()

    # -- spans ------------------------------------------------------------

    def begin_op(self, op_id):
        self.op = op_id
        self._seen = set()

    def span(self, name, fn, hook=None):
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else None
            index = len(tracer.spans)
            tracer.spans.append(None)
            tracer.stack.append(index)
            start = _clock()
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = _clock()
                tracer.stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.op)
                if hook is not None:
                    tracer._run_hook(hook, parent, index, args, None if failed else result, failed)
            return result

        traced.__wrapped__ = fn
        return traced

    def _run_hook(self, hook, parent, index, args, result, failed):
        start = _clock()
        try:
            hook(self, index, args, result, failed)
        except Exception:  # a count that no longer fits the API must not break the op
            self.counts["trace.hook_errors"] += 1
        self.spans.append(("trace.hook", start, _clock(), parent, self.op))

    def repeat(self, key) -> bool:
        """True when `key` was already seen in the current op."""
        if key in self._seen:
            return True
        self._seen.add(key)
        return False

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every TARGETS entry that exists; list the others in `absent`."""
        self.absent = []
        for module_name, path, name, hook in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{path}")
                continue
            setattr(owner, attr, self.span(name, original, hook))
            self.installed.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self.installed):
            setattr(owner, attr, original)
        self.installed = []

    # -- results ----------------------------------------------------------

    def self_times(self):
        """{op id: {span name: self seconds}}."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(lambda: defaultdict(float))
        for index, (name, start, end, _, op) in enumerate(self.spans):
            out[op][name] += end - start - child[index]
        return out

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"i": index, "name": name, "start": start, "end": end, "parent": parent, "op": op}))
                fh.write("\n")


# -- count hooks: (tracer, span index, args, result or None, failed) --------


def _kernel_matrix(t, index, args, result, failed):
    if failed:
        return
    entries = result.entries
    t.counts["kernels.kernel_matrix.entries"] += entries.size
    t.counts["kernels.kernel_matrix.repeats"] += t.repeat(("kernel_matrix", _digest(entries)))
    shape = _vector_rows(args[1])
    if shape:
        t.counts["kernels.flop_computed"] += 2.0 * shape[0] * shape[0] * shape[1]


def _kernel_cross(t, index, args, result, failed):
    if failed:
        return
    t.counts["kernels.kernel_cross.entries"] += np.size(result)
    shape = _vector_rows(args[1])
    if shape:
        t.counts["kernels.flop_computed"] += 2.0 * np.size(result) * shape[1]


def _outlyingness(t, index, args, result, failed):
    policy = args[1] if len(args) > 1 else None
    t.counts["outlyingness.repeats"] += t.repeat(("outlyingness", _digest(args[0].entries), repr(policy)))


def _enumerate_directions(t, index, args, result, failed):
    if failed:
        return
    t.counts["outlyingness.directions"] += len(result)
    policy = args[1] if len(args) > 1 else None
    if getattr(policy, "mode", None) == "sampled":
        draws = sum(1 for span in t.spans[index + 1 :] if span and span[0] == "rng.integers" and span[3] == index)
        t.counts["outlyingness.draws"] += draws
        t.counts["outlyingness.accepted"] += len(result)


def _solve_dual(t, index, args, result, failed):
    t.counts["svm.solve_dual.rows"] += len(args[1])
    t.counts["svm.solve_dual.failures"] += failed


def _normals(t, index, args, result, failed):
    t.counts["rng.normals.values"] += np.size(result) if result is not None else 0


def _load_csv(t, index, args, result, failed):
    if not failed:
        t.counts["data.load_csv.rows"] += len(result)


def _rendered(t, index, args, result, failed):
    if not failed:
        t.counts["outliermap.bytes"] += len(result.encode("utf-8"))


TARGETS = (
    ("sdsvm.cli", "run_simulation", "data.run_simulation", None),
    ("sdsvm.cli", "load_csv", "data.load_csv", _load_csv),
    ("sdsvm.cli", "fit_sdsvm", "pipeline.fit_sdsvm", None),
    ("sdsvm.cli", "fit_to_text", "pipeline.fit_to_text", None),
    ("sdsvm.cli", "fit_from_text", "pipeline.fit_from_text", None),
    ("sdsvm.cli", "build_map", "outliermap.build_map", None),
    ("sdsvm.data", "gen_simulation", "data.gen_simulation", None),
    ("sdsvm.data", "fit_sdsvm", "pipeline.fit_sdsvm", None),
    ("sdsvm.data", "kernel_cross", "kernels.kernel_cross", _kernel_cross),
    ("sdsvm.pipeline", "kernel_matrix", "kernels.kernel_matrix", _kernel_matrix),
    ("sdsvm.pipeline", "outlyingness", "outlyingness", _outlyingness),
    ("sdsvm.pipeline", "trim", "pipeline.trim", None),
    ("sdsvm.pipeline", "select_C", "pipeline.select_C", None),
    ("sdsvm.pipeline", "solve_dual", "svm.solve_dual", _solve_dual),
    # `sdsvm.outlyingness` as a package attribute is the function, so the
    # module is resolved by its import name.
    ("sdsvm.outlyingness", "enumerate_directions", "outlyingness.enumerate_directions", _enumerate_directions),
    ("sdsvm.outliermap", "map_to_csv", "outliermap.map_to_csv", _rendered),
    ("sdsvm.outliermap", "map_to_svg", "outliermap.map_to_svg", _rendered),
    ("sdsvm.rng", "Stream.normals", "rng.normals", _normals),
    ("sdsvm.rng", "Stream.integers", "rng.integers", None),
)

# Per-layer metric -> (unit, source).  Sources: ("self", span) is
# self seconds per op; ("calls", span) is spans per op; ("count", key[,
# scale]) is a count per op; ("ratio", num, den) is a ratio of run totals,
# 0 when the base is 0.  Every metric is absent when the span it is read
# from has no installed call site.
LAYER_METRICS = {
    "cli.self_s": ("s", ("self", "cli")),
    "cli.exit_nonzero": ("count", ("count", "cli.exit_nonzero")),
    "data.run_simulation.self_s": ("s", ("self", "data.run_simulation")),
    "data.gen_simulation.self_s": ("s", ("self", "data.gen_simulation")),
    "data.load_csv.self_s": ("s", ("self", "data.load_csv")),
    "data.load_csv.rows": ("count", ("count", "data.load_csv.rows")),
    "rng.normals.self_s": ("s", ("self", "rng.normals")),
    "rng.normals.values": ("count", ("count", "rng.normals.values")),
    "rng.integers.self_s": ("s", ("self", "rng.integers")),
    "rng.integers.calls": ("count", ("calls", "rng.integers")),
    "kernels.kernel_matrix.self_s": ("s", ("self", "kernels.kernel_matrix")),
    "kernels.kernel_matrix.calls": ("count", ("calls", "kernels.kernel_matrix")),
    "kernels.kernel_matrix.entries": ("count", ("count", "kernels.kernel_matrix.entries")),
    "kernels.kernel_matrix.repeat_frac": ("ratio", ("ratio", "kernels.kernel_matrix.repeats", "kernels.kernel_matrix")),
    "kernels.kernel_cross.self_s": ("s", ("self", "kernels.kernel_cross")),
    "kernels.kernel_cross.entries": ("count", ("count", "kernels.kernel_cross.entries")),
    "kernels.gflop_computed": ("Gflop", ("count", "kernels.flop_computed", 1e-9)),
    "outlyingness.self_s": ("s", ("self", "outlyingness")),
    "outlyingness.calls": ("count", ("calls", "outlyingness")),
    "outlyingness.directions": ("count", ("count", "outlyingness.directions")),
    "outlyingness.repeat_frac": ("ratio", ("ratio", "outlyingness.repeats", "outlyingness")),
    "outlyingness.draw_accept_ratio": ("ratio", ("ratio", "outlyingness.accepted", "outlyingness.draws")),
    "outlyingness.enumerate_directions.self_s": ("s", ("self", "outlyingness.enumerate_directions")),
    "svm.solve_dual.self_s": ("s", ("self", "svm.solve_dual")),
    "svm.solve_dual.calls": ("count", ("calls", "svm.solve_dual")),
    "svm.solve_dual.rows": ("count", ("count", "svm.solve_dual.rows")),
    "svm.solve_dual.failures": ("count", ("count", "svm.solve_dual.failures")),
    "pipeline.fit_sdsvm.self_s": ("s", ("self", "pipeline.fit_sdsvm")),
    "pipeline.trim.self_s": ("s", ("self", "pipeline.trim")),
    "pipeline.select_C.self_s": ("s", ("self", "pipeline.select_C")),
    "pipeline.fit_to_text.self_s": ("s", ("self", "pipeline.fit_to_text")),
    "pipeline.fit_from_text.self_s": ("s", ("self", "pipeline.fit_from_text")),
    "outliermap.build_map.self_s": ("s", ("self", "outliermap.build_map")),
    "outliermap.map_to_csv.self_s": ("s", ("self", "outliermap.map_to_csv")),
    "outliermap.map_to_svg.self_s": ("s", ("self", "outliermap.map_to_svg")),
    "outliermap.bytes": ("count", ("count", "outliermap.bytes")),
}

# Span behind each count key, for absence.
_COUNT_SPAN = {
    "cli.exit_nonzero": "cli",
    "data.load_csv.rows": "data.load_csv",
    "rng.normals.values": "rng.normals",
    "kernels.kernel_matrix.entries": "kernels.kernel_matrix",
    "kernels.kernel_matrix.repeats": "kernels.kernel_matrix",
    "kernels.kernel_cross.entries": "kernels.kernel_cross",
    "kernels.flop_computed": "kernels.kernel_matrix",
    "outlyingness.repeats": "outlyingness",
    "outlyingness.directions": "outlyingness.enumerate_directions",
    "outlyingness.accepted": "outlyingness.enumerate_directions",
    "outlyingness.draws": "rng.integers",
    "svm.solve_dual.rows": "svm.solve_dual",
    "svm.solve_dual.failures": "svm.solve_dual",
    "outliermap.bytes": "outliermap.map_to_svg",
}


def layer_metrics(tracer, op_ids):
    """({metric: value}, [absent metric names], {ratio base: total}) over the traced ops."""
    present = {"cli"} | {name for module, path, name, _ in TARGETS if f"{module}.{path}" not in tracer.absent}
    ops = set(op_ids)
    calls = defaultdict(int)
    for span in tracer.spans:
        if span[4] in ops:
            calls[span[0]] += 1
    selfs = tracer.self_times()
    per_op = 1.0 / max(len(ops), 1)
    values, absent, bases = {}, [], {}
    for metric, (_, source) in LAYER_METRICS.items():
        kind, key = source[0], source[1]
        spans = [key] if kind in ("self", "calls") else [_COUNT_SPAN.get(k, k) for k in source[1:3] if isinstance(k, str)]
        if not all(span in present for span in spans):
            absent.append(metric)
            values[metric] = 0.0
        elif kind == "self":
            values[metric] = sum(selfs[op].get(key, 0.0) for op in ops) * per_op
        elif kind == "calls":
            values[metric] = calls[key] * per_op
        elif kind == "count":
            values[metric] = tracer.counts[key] * (source[2] if len(source) > 2 else 1.0) * per_op
        else:
            den = tracer.counts[source[2]] if source[2] in _COUNT_SPAN else calls[source[2]]
            bases[metric] = den
            values[metric] = tracer.counts[key] / den if den else 0.0
    return values, absent, bases
