"""Spans and counters for the benchmark's traced runs.

The tracer never edits tomoflow.  `install` replaces the public functions
in TIMED_FUNCTIONS in every loaded tomoflow module that binds them (so
`tomoflow.cli` sees the wrappers too), the
scipy kernels `map_coordinates` and `spline_filter` as
`tomoflow.evolution` looks them up, and three methods of the unit-slice
sources.  Each wrapper records a span (name, start, end, parent span,
workload, pass) in memory; a few also count work done.  `uninstall`
puts the originals back, so traced and untraced passes can alternate in
one process.

This module imports nothing heavy at load time: the CLI child process
imports it before `tomoflow.cli`, and the import of the CLI is itself a
traced span.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
import time
from contextlib import contextmanager

# (module, function, span name) of every wrapped public function.
TIMED_FUNCTIONS = (
    ("tomoflow.states", "sample_marginal_field", "states.sample_field"),
    ("tomoflow.tomography", "characteristic_from_marginal", "tomography.chi"),
    ("tomoflow.tomography", "wigner_from_characteristic", "tomography.wigner"),
    ("tomoflow.tomography", "density_matrix_from_marginal", "tomography.rho"),
    ("tomoflow.evolution", "evolve_pde", "evolution.evolve_pde"),
    ("tomoflow.io", "write_field", "io.write"),
    ("tomoflow.io", "read_field", "io.read"),
)

# Name, unit and how each per-layer metric is read off one traced pass:
# ("total", span) sums span durations, ("self", span) sums self times,
# ("spans", span) counts spans, ("count", counter) reads a counter.
PER_LAYER = (
    ("states.marginal_points", "count", "count", "states.marginal_points"),
    ("states.sample_field.s", "s", "total", "states.sample_field"),
    ("tomography.radon.s", "s", "total", "tomography.radon"),
    ("tomography.radon.wigner_points", "count", "count",
     "tomography.radon.wigner_points"),
    ("tomography.field_source.s", "s", "total", "tomography.field_source"),
    ("tomography.unit_slices.rows", "count", "count",
     "tomography.unit_slices.rows"),
    ("tomography.chi.s", "s", "total", "tomography.chi"),
    ("tomography.chi.calls", "count", "spans", "tomography.chi"),
    ("tomography.wigner.s", "s", "total", "tomography.wigner"),
    ("tomography.rho.s", "s", "total", "tomography.rho"),
    ("tomography.rho.calls", "count", "spans", "tomography.rho"),
    ("evolution.evolve_pde.s", "s", "total", "evolution.evolve_pde"),
    ("evolution.evolve_pde.self_s", "s", "self", "evolution.evolve_pde"),
    ("evolution.resample.calls", "count", "spans", "evolution.resample"),
    ("evolution.resample.s", "s", "total", "evolution.resample"),
    ("evolution.resample.points", "count", "count",
     "evolution.resample.points"),
    ("evolution.prefilter.s", "s", "total", "evolution.prefilter"),
    ("io.write.s", "s", "total", "io.write"),
    ("io.write.bytes", "B", "count", "io.write.bytes"),
    ("io.read.s", "s", "total", "io.read"),
    ("io.read.bytes", "B", "count", "io.read.bytes"),
    ("cli.import_s", "s", "total", "cli.import"),
    ("cli.interpreter_s", "s", "self", "cli.process"),
    ("cli.sample-field.s", "s", "total", "cli.sample-field"),
    ("cli.evolve.s", "s", "total", "cli.evolve"),
    ("cli.invert.s", "s", "total", "cli.invert"),
    ("cli.density-matrix.s", "s", "total", "cli.density-matrix"),
    ("trace.pass_s", "s", "total", "pass"),
    ("trace.pass_self_s", "s", "self", "pass"),
)


class Tracer:
    """In-memory spans and per-pass counters of one benchmark process."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []
        self.counts: dict[int, dict[str, int]] = {}
        self.pass_index: int | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "workload": self.workload, "pass": self.pass_index,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n) -> None:
        if self.pass_index is None:
            return
        bucket = self.counts.setdefault(self.pass_index, {})
        bucket[name] = bucket.get(name, 0) + int(n)

    def adopt(self, spans: list[dict], counts: dict[str, int],
              parent_id: int) -> None:
        """Graft the spans and counts of a child process under one span.

        perf_counter reads the system-wide monotonic clock on Linux, so
        child times need no offset.
        """
        base = len(self.spans)
        for rec in spans:
            rec = dict(rec, id=base + rec["id"], workload=self.workload)
            rec["parent"] = (parent_id if rec["parent"] is None
                             else base + rec["parent"])
            rec["pass"] = self.pass_index
            self.spans.append(rec)
        for name, n in counts.items():
            self.count(name, n)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the time its direct children cover."""
    covered: dict[int, float] = {}
    for rec in spans:
        if rec["parent"] is not None:
            covered[rec["parent"]] = (covered.get(rec["parent"], 0.0)
                                      + rec["end"] - rec["start"])
    return {rec["id"]: rec["end"] - rec["start"] - covered.get(rec["id"], 0.0)
            for rec in spans}


def layer_metrics(tracer: Tracer, passes: list[int]) -> dict[str, float]:
    """Median over the given traced passes of every PER_LAYER metric."""
    selfs = self_times(tracer.spans)
    per_pass = {p: {} for p in passes}
    for rec in tracer.spans:
        table = per_pass.get(rec["pass"])
        if table is None:
            continue
        name = rec["name"]
        for kind, value in (("total", rec["end"] - rec["start"]),
                            ("self", selfs[rec["id"]]), ("spans", 1)):
            table[(kind, name)] = table.get((kind, name), 0) + value
    out = {}
    for metric, _unit, kind, key in PER_LAYER:
        if kind == "count":
            values = [tracer.counts.get(p, {}).get(key, 0) for p in passes]
        else:
            values = [per_pass[p].get((kind, key), 0) for p in passes]
        out[metric] = float(statistics.median(values))
    return out


def install(tracer: Tracer) -> list[tuple]:
    """Wrap the traced layers; returns the patches for `uninstall`."""
    import numpy as np

    patches: list[tuple] = []

    def patch(owner, attr, new):
        patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def counting(name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.count(name, np.broadcast(*args).size)
            return fn(*args, **kwargs)
        return counted

    def timed(span_name, fn, before=None, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            with tracer.span(span_name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, kwargs)
            return result
        return wrapper

    def count_closed_form(args, kwargs):
        # Closed-form sources are counted on the callable passed in; table
        # sources are counted by their unit_slices rows instead.
        if args and not hasattr(args[0], "unit_slices"):
            args = (counting("states.marginal_points", args[0]),) + args[1:]
        return args, kwargs

    def count_written(args, kwargs):
        path = args[1] if len(args) > 1 else kwargs["path"]
        tracer.count("io.write.bytes", os.path.getsize(path))

    def count_read(args, kwargs):
        path = args[0] if args else kwargs["path"]
        tracer.count("io.read.bytes", os.path.getsize(path))
        return args, kwargs

    hooks = {"tomography.chi": (count_closed_form, None),
             "tomography.rho": (count_closed_form, None),
             "io.write": (None, count_written),
             "io.read": (count_read, None)}
    for module_name, attr, span_name in TIMED_FUNCTIONS:
        original = getattr(importlib.import_module(module_name), attr)
        before, after = hooks.get(span_name, (None, None))
        wrapper = timed(span_name, original, before, after)
        loaded = [m for name, m in list(sys.modules.items())
                  if name == "tomoflow" or name.startswith("tomoflow.")]
        for module in loaded:
            if module.__dict__.get(attr) is original:
                patch(module, attr, wrapper)

    evo = sys.modules["tomoflow.evolution"]

    def count_resample(args, kwargs):
        coords = np.asarray(args[1] if len(args) > 1 else kwargs["coordinates"])
        tracer.count("evolution.resample.points", coords[0].size)
        return args, kwargs

    patch(evo, "map_coordinates",
          timed("evolution.resample", evo.map_coordinates, count_resample))
    patch(evo, "spline_filter",
          timed("evolution.prefilter", evo.spline_filter))

    tomo = sys.modules["tomoflow.tomography"]

    def count_wigner(args, kwargs):
        # args = (self, wigner, ...); gridded WignerFields are not callables.
        if len(args) > 1 and callable(args[1]):
            args = (args[0], counting("tomography.radon.wigner_points",
                                      args[1])) + args[2:]
        return args, kwargs

    patch(tomo.RadonMarginalEvaluator, "__init__",
          timed("tomography.radon", tomo.RadonMarginalEvaluator.__init__,
                count_wigner))
    patch(tomo.FieldMarginalSource, "__init__",
          timed("tomography.field_source", tomo.FieldMarginalSource.__init__))

    unit_slices = tomo.UnitSliceSource.unit_slices

    @functools.wraps(unit_slices)
    def counted_rows(self, phis):
        tracer.count("tomography.unit_slices.rows", np.size(phis))
        return unit_slices(self, phis)

    patch(tomo.UnitSliceSource, "unit_slices", counted_rows)
    return patches


def uninstall(patches: list[tuple]) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)
