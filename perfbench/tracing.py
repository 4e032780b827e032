"""Outside-in tracing of stablegap's public functions.

A traced run replaces each public function at every module binding its
callers use with a wrapper that records a span: name, start, end, thread id
and parent.  Private helpers are never wrapped.  Spans stay in memory and are
written out when the run ends.  The parent of a worker-thread task is the
`experiments.parallel_map` span that scheduled it; `parallel_map` itself is
traced by handing the original a timed `fn`.

Self time is a span's duration minus the part of it that its children cover,
so summing self time over all spans gives busy thread-seconds.  Per-call
work counts (draws, points, resamples, member steps) are derived from the
arguments of each call; `bytes_computed` values are computed from array
sizes, not measured.
"""
from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    thread: int
    start: float = 0.0
    end: float = 0.0
    error: bool = False
    attrs: dict = field(default_factory=dict)


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name, attrs=None, parent=None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1].id
        with self._lock:
            sp = Span(next(self._ids), name, parent, threading.get_ident(),
                      attrs=dict(attrs or {}))
        stack.append(sp)
        sp.start = time.perf_counter()
        try:
            yield sp
        except BaseException:
            sp.error = True
            raise
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(sp)


def _cloud_shape(x):
    shape = getattr(getattr(x, "points", x), "shape", ())
    n = shape[0] if len(shape) >= 1 else 1
    d = shape[1] if len(shape) >= 2 else 1
    return n, d


def _arg(args, kwargs, i, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[i] if len(args) > i else default


# attrs derived from the arguments of each public call
def _subordinator_attrs(args, kwargs):
    size = _arg(args, kwargs, 3, "size")
    return {"draws": 1 if size is None else int(size)}


def _stable_increment_attrs(args, kwargs):
    size = _arg(args, kwargs, 3, "size")
    return {"points": 1 if size is None else int(size)}


def _stationary_attrs(args, kwargs):
    return {"points": int(_arg(args, kwargs, 1, "n"))}


def _ensemble_attrs(args, kwargs):
    n, d = _cloud_shape(_arg(args, kwargs, 2, "X0"))
    steps = int(_arg(args, kwargs, 4, "n_steps"))
    # per member step: the state read, the increment read, the state written
    return {"member_steps": steps * n, "bytes_computed": 3 * 8 * d * steps * n}


def _bootstrap_attrs(args, kwargs):
    nx, d = _cloud_shape(_arg(args, kwargs, 0, "X"))
    ny, _ = _cloud_shape(_arg(args, kwargs, 1, "Y"))
    k = int(_arg(args, kwargs, 3, "n_resamples", 200))
    # one float64 copy of each resampled cloud per resample
    return {"resamples": k, "bytes_computed": 8 * d * (nx + ny) * k}


def _sliced_attrs(args, kwargs):
    _, d = _cloud_shape(_arg(args, kwargs, 0, "X"))
    k = int(_arg(args, kwargs, 2, "n_projections", 64))
    return {"projections": 1 if d == 1 else k}


def _assignment_attrs(args, kwargs):
    n, _ = _cloud_shape(_arg(args, kwargs, 0, "X"))
    return {"points": n}


def _write_csv_attrs(args, kwargs):
    return {"path": _arg(args, kwargs, 0, "path")}


# (layer name, attrs function, [(module, attribute), ...]): every binding of
# the public function that a caller inside stablegap looks up at call time
LAYERS = (
    ("experiments.write_csv", _write_csv_attrs,
     [("stablegap.experiments", "write_csv")]),
    ("sampling.subordinator", _subordinator_attrs,
     [("stablegap.sampling", "sample_subordinator_increment"),
      ("stablegap.sde", "sample_subordinator_increment"),
      ("stablegap.experiments", "sample_subordinator_increment")]),
    ("sampling.stable_increment", _stable_increment_attrs,
     [("stablegap.sampling", "sample_stable_increment"),
      ("stablegap.ou", "sample_stable_increment")]),
    ("ou.stationary_sample", _stationary_attrs,
     [("stablegap.ou", "ou_stationary_sample"),
      ("stablegap.experiments", "ou_stationary_sample")]),
    ("ou.lower_exact", None,
     [("stablegap.ou", "ou_w1_lower_exact"),
      ("stablegap.experiments", "ou_w1_lower_exact")]),
    ("sde.integrate_ensemble", _ensemble_attrs,
     [("stablegap.sde", "integrate_ensemble"),
      ("stablegap.experiments", "integrate_ensemble")]),
    ("wasserstein.bootstrap", _bootstrap_attrs,
     [("stablegap.wasserstein", "bootstrap_stderr"),
      ("stablegap.experiments", "bootstrap_stderr")]),
    ("wasserstein.exact_1d", None,
     [("stablegap.wasserstein", "w1_exact_1d"),
      ("stablegap.experiments", "w1_exact_1d")]),
    ("wasserstein.sliced", _sliced_attrs,
     [("stablegap.wasserstein", "w1_sliced"),
      ("stablegap.experiments", "w1_sliced")]),
    ("wasserstein.assignment", _assignment_attrs,
     [("stablegap.wasserstein", "w1_assignment"),
      ("stablegap.experiments", "w1_assignment")]),
    ("wasserstein.mean_norm", None,
     [("stablegap.wasserstein", "w1_mean_norm_lower"),
      ("stablegap.experiments", "w1_mean_norm_lower")]),
)


def _traced(tracer, name, attrs_fn, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        attrs = attrs_fn(args, kwargs) if attrs_fn else {}
        with tracer.span(name, attrs):
            return fn(*args, **kwargs)
    return traced


def _traced_parallel_map(tracer, original, worker_count):
    @functools.wraps(original)
    def traced(fn, items):
        items = list(items)
        attrs = {"items": len(items), "workers": min(worker_count(), len(items)) or 1}
        with tracer.span("experiments.parallel_map", attrs) as pm:
            def timed(item):
                with tracer.span("experiments.parallel_map.task", parent=pm.id):
                    return fn(item)
            return original(timed, items)
    return traced


@contextmanager
def installed(tracer: Tracer):
    """Wrap every traced binding for the duration of the block."""
    import importlib

    saved = []
    try:
        for name, attrs_fn, bindings in LAYERS:
            for mod_name, attr in bindings:
                mod = importlib.import_module(mod_name)
                original = getattr(mod, attr)
                saved.append((mod, attr, original))
                setattr(mod, attr, _traced(tracer, name, attrs_fn, original))
        exp = importlib.import_module("stablegap.experiments")
        saved.append((exp, "parallel_map", exp.parallel_map))
        exp.parallel_map = _traced_parallel_map(tracer, exp.parallel_map, exp.worker_count)
        yield tracer
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


# ---------------------------------------------------------------------------
# span analysis

def _covered(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """{span id: duration minus the time its children cover}."""
    children = {}
    for sp in spans:
        children.setdefault(sp.parent, []).append((sp.start, sp.end))
    return {sp.id: (sp.end - sp.start)
            - _covered(children.get(sp.id, ()), sp.start, sp.end)
            for sp in spans}


PER_LAYER = {
    # name: unit
    "experiments.parallel_map.items": "count",
    "experiments.parallel_map.wall_s": "s",
    "experiments.parallel_map.busy_frac": "fraction",
    "experiments.parallel_map.wait_s": "s",
    "experiments.parallel_map.task_s_max": "s",
    "experiments.write_csv.bytes": "B",
    "experiments.write_csv.s": "s",
    "sampling.subordinator.calls": "count",
    "sampling.subordinator.draws": "count",
    "sampling.subordinator.self_s": "s",
    "sampling.subordinator.ns_per_draw": "ns",
    "sampling.stable_increment.calls": "count",
    "sampling.stable_increment.points": "count",
    "sampling.stable_increment.self_s": "s",
    "ou.stationary_sample.calls": "count",
    "ou.stationary_sample.points": "count",
    "ou.stationary_sample.self_s": "s",
    "ou.lower_exact.calls": "count",
    "ou.lower_exact.self_s": "s",
    "sde.integrate_ensemble.calls": "count",
    "sde.integrate_ensemble.member_steps": "count",
    "sde.integrate_ensemble.self_s": "s",
    "sde.integrate_ensemble.ns_per_member_step": "ns",
    "sde.integrate_ensemble.bytes_computed": "B",
    "sde.integrate_ensemble.errors": "count",
    "wasserstein.bootstrap.calls": "count",
    "wasserstein.bootstrap.resamples": "count",
    "wasserstein.bootstrap.self_s": "s",
    "wasserstein.bootstrap.ms_per_resample": "ms",
    "wasserstein.bootstrap.bytes_computed": "B",
    "wasserstein.exact_1d.calls": "count",
    "wasserstein.exact_1d.self_s": "s",
    "wasserstein.sliced.calls": "count",
    "wasserstein.sliced.projections": "count",
    "wasserstein.sliced.self_s": "s",
    "wasserstein.assignment.calls": "count",
    "wasserstein.assignment.points": "count",
    "wasserstein.assignment.self_s": "s",
    "wasserstein.assignment.errors": "count",
    "wasserstein.mean_norm.calls": "count",
    "wasserstein.mean_norm.self_s": "s",
    "tracing.thread_s": "s",
    "tracing.overhead_s": "s",
}


def _ratio(num, den, scale):
    return scale * num / den if den else 0.0


def layer_metrics(spans) -> dict:
    """Every per-layer metric except tracing.overhead_s, which compares runs."""
    selfs = self_times(spans)
    by_name = {}
    for sp in spans:
        by_name.setdefault(sp.name, []).append(sp)

    def total(layer, key):
        group = by_name.get(layer, ())
        if key == "calls":
            return len(group)
        if key == "self_s":
            return sum(selfs[sp.id] for sp in group)
        if key == "errors":
            return sum(sp.error for sp in group)
        return sum(sp.attrs.get(key, 0) for sp in group)

    wrapped = {name for name, _, _ in LAYERS}
    m = {}
    for metric in PER_LAYER:
        layer, _, key = metric.rpartition(".")
        if layer in wrapped:
            m[metric] = total(layer, key)
    # ratios and the metrics of parallel_map and write_csv are derived below
    m["sampling.subordinator.ns_per_draw"] = _ratio(
        m["sampling.subordinator.self_s"], m["sampling.subordinator.draws"], 1e9)
    m["sde.integrate_ensemble.ns_per_member_step"] = _ratio(
        m["sde.integrate_ensemble.self_s"], m["sde.integrate_ensemble.member_steps"], 1e9)
    m["wasserstein.bootstrap.ms_per_resample"] = _ratio(
        m["wasserstein.bootstrap.self_s"], m["wasserstein.bootstrap.resamples"], 1e3)

    pms = by_name.get("experiments.parallel_map", [])
    tasks = by_name.get("experiments.parallel_map.task", [])
    pm_wall = sum(sp.end - sp.start for sp in pms)
    capacity = sum(sp.attrs["workers"] * (sp.end - sp.start) for sp in pms)
    pm_start = {sp.id: sp.start for sp in pms}
    m["experiments.parallel_map.items"] = sum(sp.attrs["items"] for sp in pms)
    m["experiments.parallel_map.wall_s"] = pm_wall
    m["experiments.parallel_map.busy_frac"] = _ratio(
        sum(t.end - t.start for t in tasks), capacity, 1.0)
    m["experiments.parallel_map.wait_s"] = sum(t.start - pm_start[t.parent] for t in tasks)
    m["experiments.parallel_map.task_s_max"] = max((t.end - t.start for t in tasks),
                                                   default=0.0)

    writes = by_name.get("experiments.write_csv", [])
    m["experiments.write_csv.s"] = sum(sp.end - sp.start for sp in writes)
    m["experiments.write_csv.bytes"] = sum(os.path.getsize(sp.attrs["path"])
                                           for sp in writes if not sp.error)
    m["tracing.thread_s"] = sum(selfs.values())
    return m


def spans_as_json(spans) -> list:
    selfs = self_times(spans)
    return [{"id": sp.id, "name": sp.name, "parent": sp.parent, "thread": sp.thread,
             "start": sp.start, "end": sp.end, "self_s": selfs[sp.id],
             "error": sp.error, "attrs": sp.attrs} for sp in spans]
