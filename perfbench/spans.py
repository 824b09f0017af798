"""Span recording for the traced benchmark pass.

The library has no tracing of its own, so the benchmark wraps rieszvox's
public functions from outside: each target function is replaced, in every
loaded rieszvox module that binds it, by a wrapper that records a span.
Calls between modules go through those bindings, so nested calls (deficit
-> fit_homothetic_triple -> rasterize_ellipsoid) appear as nested spans.
Each thread keeps its own parent stack, so spans opened in the sweep pool's
worker threads are roots of their thread.

Spans stay in memory and are written out as JSON lines once, when the run
ends. Self time is a span's duration minus the durations of its children.
"""

import json
import os
import sys
import threading
import time

import numpy as np


class Span:
    __slots__ = ("name", "tid", "phase", "parent", "t0", "t1", "child_ns", "attrs")

    def __init__(self, name, tid, phase, parent):
        self.name = name
        self.tid = tid
        self.phase = phase
        self.parent = parent
        self.child_ns = 0
        self.attrs = None

    @property
    def dur_ns(self):
        return self.t1 - self.t0

    @property
    def self_ns(self):
        return self.t1 - self.t0 - self.child_ns


class Tracer:
    """Wraps library functions in place and collects their spans.

    `phase` tags every span opened while it is set; the harness uses it to
    tell set-up spans from spans of the measured unit of work.
    """

    def __init__(self):
        self.spans = []
        self.phase = None
        self.main_tid = threading.get_ident()
        self._local = threading.local()
        self._undo = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name, attrs=None):
        """A wrapper of fn recording one span per call.

        name is a string or a function of (args, kwargs) giving one; attrs,
        when given, maps (args, kwargs, result) to a dict of counts.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            label = name if isinstance(name, str) else name(args, kwargs)
            span = Span(label, threading.get_ident(), tracer.phase, stack[-1] if stack else None)
            stack.append(span)
            span.t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.attrs = {"raised": type(exc).__name__}
                raise
            finally:
                span.t1 = time.perf_counter_ns()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_ns += span.t1 - span.t0
                tracer.spans.append(span)
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        wrapper.__wrapped__ = fn
        return wrapper

    def _rebind(self, original, replacement):
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "rieszvox" or modname.startswith("rieszvox.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def install(self, targets, check_table=None):
        """Wrap each (module, function name, span name, attrs) target.

        check_table is the verify module: its check tuples hold the check
        functions themselves, so they are rebuilt with wrapped entries.
        """
        for module, fname, name, attrs in targets:
            original = getattr(module, fname)
            self._rebind(original, self.wrap(original, name, attrs))
        if check_table is not None:
            wrapped = {}
            for label, fn in check_table.ALL_CHECKS:
                wrapped[fn] = self.wrap(fn, f"verify.{fn.__name__}")
                self._rebind(fn, wrapped[fn])
            for table in ("FAST_CHECKS", "ALL_CHECKS"):
                old = getattr(check_table, table)
                setattr(check_table, table, tuple((label, wrapped[fn]) for label, fn in old))
                self._undo.append((check_table, table, old))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def write_jsonl(self, path):
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": s.name,
                            "tid": s.tid,
                            "phase": s.phase,
                            "parent": None if s.parent is None else index.get(id(s.parent)),
                            "start_ns": s.t0,
                            "end_ns": s.t1,
                            "self_ns": s.self_ns,
                            "attrs": s.attrs,
                        }
                    )
                    + "\n"
                )


# -- the traced layers --------------------------------------------------------

# The samples counters model which cells grid.rasterize_ellipsoid and
# grid.rasterize_affine_image evaluate; they must follow those functions
# whenever their bounding boxes or exact paths change.


def _ellipsoid_samples(args, kwargs, result):
    # the bounding box rasterize_ellipsoid samples, times s^d points per cell
    e, spacing = args[0], args[1]
    s = int(args[2] if len(args) > 2 else kwargs.get("supersample", 3))
    v = np.asarray(e.center, dtype=float).reshape(-1)
    b = np.sqrt(np.diag(np.linalg.inv(np.asarray(e.shape, dtype=float))))
    box = np.ceil((v + b) / spacing) - np.floor((v - b) / spacing)
    return {"samples": int(np.prod(box)) * s**v.size}


def _affine_samples(args, kwargs, result):
    # mirrors rasterize_affine_image: integer diagonal maps on the same,
    # lattice-aligned grid replicate cells; anything else samples the box
    from rieszvox.grid import ALIGN_RTOL

    e, a, v, spacing = args[:4]
    s = int(args[4] if len(args) > 4 else kwargs.get("supersample", 3))
    A = np.asarray(a, dtype=float)
    v = np.asarray(v, dtype=float).reshape(-1)
    h = float(spacing)
    d = np.diag(A)
    if (
        np.array_equal(A, np.diag(d))
        and np.all(d >= 1)
        and np.all(d == np.rint(d))
        and abs(h - e.spacing) <= ALIGN_RTOL * h
        and np.all(np.abs(np.rint(v / h) * h - v) <= ALIGN_RTOL * h)
    ):
        return {"samples": 0}
    lo = e.origin_index * e.spacing
    hi = (e.origin_index + np.asarray(e.shape)) * e.spacing
    corners = np.array(
        [[lo[i] if (k >> i) & 1 == 0 else hi[i] for i in range(e.dim)] for k in range(2**e.dim)]
    )
    img = corners @ A.T + v
    box = np.ceil(img.max(axis=0) / h) - np.floor(img.min(axis=0) / h)
    return {"samples": int(np.prod(box)) * s**e.dim}


def _counts_method(args, kwargs):
    method = args[1] if len(args) > 1 else kwargs.get("method", "fft")
    return f"functional.corner_counts.{method}"


def _counts_attrs(args, kwargs, result):
    sets = list(args[0])
    if any(e.is_empty for e in sets):
        return {}
    method = args[1] if len(args) > 1 else kwargs.get("method", "fft")
    if method == "direct":
        n = sorted(e.count for e in sets)
        return {"pairs": n[0] * n[1]}
    s1, s2 = np.asarray(sets[0].shape), np.asarray(sets[1].shape)
    return {"conv_cells": int(np.prod(s1 + s2 - 1))}


def _written_bytes(args, kwargs, result):
    # save, write_csv and render_svg take the written path second
    return {"bytes": os.path.getsize(args[1])}


def _read_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _layer_count(args, kwargs, result):
    return {"layers": len(result.layers)}


def _columns(args, kwargs, result):
    return {"columns": int(sum(e.occupancy.any(axis=-1).sum() for e in args[0]))}


def _family(args, kwargs):
    family = args[1] if len(args) > 1 else kwargs["family"]
    return f"sweep.apply_family.{family}"


def targets(rv):
    """(module, function, span name, attrs) for every traced public function."""
    g, f, s, el, ad, sw = (
        rv.grid, rv.functional, rv.symmetrize, rv.ellipsoid, rv.admissibility, rv.sweep
    )
    return [
        (g, "rasterize_ellipsoid", "grid.rasterize_ellipsoid", _ellipsoid_samples),
        (g, "rasterize_affine_image", "grid.rasterize_affine_image", _affine_samples),
        (g, "generate", "grid.generate", None),
        (g, "boolean", "grid.boolean", None),
        (g, "save", "grid.io", _written_bytes),
        (g, "load", "grid.io", _read_bytes),
        (f, "trilinear_corner_counts", _counts_method, _counts_attrs),
        (f, "lambda_d", "functional.lambda_d", None),
        (f, "deficit", "functional.deficit", None),
        (s, "dyadic_layers", "symmetrize.dyadic_layers", _layer_count),
        (s, "ball_symmetrize", "symmetrize.rearrange", None),
        (s, "steiner_symmetrize", "symmetrize.rearrange", None),
        (s, "schwarz_symmetrize", "symmetrize.rearrange", None),
        (s, "double_symmetrize", "symmetrize.rearrange", None),
        (el, "fit_homothetic_triple", "ellipsoid.fit_homothetic_triple", None),
        (el, "center_compatibility", "ellipsoid.center_compatibility", _columns),
        (ad, "set_triple_margin", "admissibility.set_triple_margin", None),
        (sw, "base_triple", "sweep.base_triple", None),
        (sw, "apply_family", _family, None),
        (sw, "write_csv", "sweep.output", _written_bytes),
        (sw, "render_svg", "sweep.output", _written_bytes),
        # the main thread's wait on the sweep pool; its workers' spans are roots
        (sw, "run_sweep", "sweep.run_sweep", None),
    ]


# (layer, [(metric suffix, unit)]) in report order
_LAYERS = [
    ("grid.rasterize_ellipsoid", [("calls", "count"), ("self_ms", "ms"), ("samples", "count")]),
    ("grid.rasterize_affine_image", [("calls", "count"), ("self_ms", "ms"), ("samples", "count")]),
    ("grid.generate", [("self_ms", "ms")]),
    ("grid.boolean", [("self_ms", "ms")]),
    ("grid.io", [("self_ms", "ms"), ("bytes", "B")]),
    (
        "functional.corner_counts.direct",
        [("calls", "count"), ("self_ms", "ms"), ("pairs", "count"), ("refused", "fraction")],
    ),
    (
        "functional.corner_counts.fft",
        [("calls", "count"), ("self_ms", "ms"), ("conv_cells", "count")],
    ),
    ("functional.lambda_d", [("calls", "count"), ("self_ms", "ms")]),
    ("functional.deficit", [("self_ms", "ms")]),
    ("symmetrize.dyadic_layers", [("calls", "count"), ("self_ms", "ms"), ("layers", "count")]),
    ("symmetrize.rearrange", [("self_ms", "ms")]),
    ("ellipsoid.fit_homothetic_triple", [("self_ms", "ms")]),
    ("ellipsoid.epsilon_raster", [("self_ms", "ms")]),
    ("ellipsoid.center_compatibility", [("self_ms", "ms"), ("columns", "count")]),
    ("admissibility.set_triple_margin", [("self_ms", "ms")]),
    ("sweep.base_triple", [("self_ms", "ms")]),
] + [
    (f"sweep.apply_family.{family}", [("self_ms", "ms")])
    for family in ("noise", "relocate", "shear", "skew")
] + [
    ("sweep.output", [("self_ms", "ms"), ("bytes", "B")]),
]

TRACE_METRICS = [
    ("sweep.pool_busy_frac", "fraction"),
    ("trace.untraced_ms", "ms"),
    ("trace.traced_ms", "ms"),
    ("trace.covered_frac", "fraction"),
]


def metric_names(verify):
    """Every per-layer metric name with its unit, in report order."""
    out = [(f"{layer}.{suffix}", unit) for layer, fields in _LAYERS for suffix, unit in fields]
    out += [(f"verify.{fn.__name__}.self_ms", "ms") for _, fn in verify.ALL_CHECKS]
    return out + TRACE_METRICS


def layer_metrics(tracer, verify, reps, untraced_s, traced_s, workers):
    """Per-layer metrics for one set-up plus one unit of work.

    Spans of the measured unit are divided by the number of times the unit
    ran (reps); counts of a deterministic unit are then exact. Set-up spans
    are added once.
    """
    values = {name: 0.0 for name, _ in metric_names(verify)}
    calls, raised = {}, {}

    def add(key, amount, weight):
        values[key] = values.get(key, 0.0) + amount * weight

    for sp in tracer.spans:
        w = 1.0 if sp.phase == "setup" else 1.0 / reps
        calls[sp.name] = calls.get(sp.name, 0.0) + w
        if sp.attrs and "raised" in sp.attrs:
            raised[sp.name] = raised.get(sp.name, 0.0) + w
        if f"{sp.name}.calls" in values:
            add(f"{sp.name}.calls", 1, w)
        if f"{sp.name}.self_ms" in values:
            add(f"{sp.name}.self_ms", sp.self_ns / 1e6, w)
        for key, amount in (sp.attrs or {}).items():
            if f"{sp.name}.{key}" in values:
                add(f"{sp.name}.{key}", amount, w)
        if sp.name == "grid.rasterize_ellipsoid" and sp.parent is not None:
            if sp.parent.name == "ellipsoid.fit_homothetic_triple":
                add("ellipsoid.epsilon_raster.self_ms", sp.self_ns / 1e6, w)
    direct = "functional.corner_counts.direct"
    if calls.get(direct):
        values[f"{direct}.refused"] = raised.get(direct, 0.0) / calls[direct]

    unit = [sp for sp in tracer.spans if sp.phase == "unit"]
    pool_wall = sum(sp.dur_ns for sp in unit if sp.name == "sweep.run_sweep")
    worker_busy = sum(sp.dur_ns for sp in unit if sp.tid != tracer.main_tid and sp.parent is None)
    if pool_wall:
        values["sweep.pool_busy_frac"] = worker_busy / (pool_wall * workers)
    # busy time: the main thread's wall, less its wait on the pool, plus the
    # workers' spans; spans hold all of it but the harness's own code
    pool_wait = sum(sp.self_ns for sp in unit if sp.name == "sweep.run_sweep")
    traced = sum(sp.self_ns for sp in unit) - pool_wait
    busy = traced_s * 1e9 - pool_wait + worker_busy
    values["trace.untraced_ms"] = untraced_s * 1e3 / reps
    values["trace.traced_ms"] = traced_s * 1e3 / reps
    values["trace.covered_frac"] = traced / busy if busy > 0 else 0.0
    unit_self = {}
    for sp in unit:
        if sp.name != "sweep.run_sweep":
            unit_self[sp.name] = unit_self.get(sp.name, 0.0) + sp.self_ns / 1e6 / reps
    return values, {
        "busy_ms": busy / 1e6 / reps,
        "harness_ms": (busy - traced) / 1e6 / reps,
        "pool_wait_ms": pool_wait / 1e6 / reps,
        "unit_self_ms": unit_self,
    }
