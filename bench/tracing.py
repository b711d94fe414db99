"""Per-layer spans and counts, taken from outside the library.

The tracer replaces public functions of ``matern_thinning`` modules by
wrappers, in every module that looks the name up: ``infer`` and ``cli``
import several functions by name, so those bindings are wrapped as well.
A wrapper records a span (name, start, end, parent) while the tracer is
active and passes the call straight through otherwise.  Counting that
needs extra work (pair counts) runs in hooks whose
time is recorded as a ``bench.hook`` child span, so it never adds to the
self time of a library span.  Spans stay in memory and are written once.
Every metric except ``simulate.halo_share`` is a total over the run
divided by the number of operations, since a run lasts a fixed time and
the number of operations in it depends on the host's speed.

A name that no longer exists is reported as absent instead of failing
the run, so later refactors that remove functions keep the trace usable.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
from collections import defaultdict
from time import perf_counter

import numpy as np
from scipy.spatial import cKDTree

HOOK = "bench.hook"

# (span name, defining module, function, modules importing it by name)
WRAPPED = (
    ("simulate.simulate_model", "simulate", "simulate_model", ("infer", "cli")),
    ("simulate.sample_poisson", "simulate", "sample_poisson", ()),
    ("simulate.thin", "simulate", "thin_mat1", ()),
    ("simulate.thin", "simulate", "thin_mat2", ()),
    ("estimate.estimate_L", "estimate", "estimate_L", ("infer", "cli")),
    ("analytic.radial_self_convolution", "analytic",
     "radial_self_convolution", ("infer",)),
    ("analytic.l_function", "analytic", "l_function", ()),
    ("analytic.pcf", "analytic", "pcf", ()),
    ("infer.deviation_test", "infer", "deviation_test", ("cli",)),
    ("cli.main", "cli", "main", ()),
    ("io.parse_model_spec", "io", "parse_model_spec", ("cli",)),
    ("io.write_summary_table", "io", "write_summary_table", ("cli",)),
)

# per-layer metric -> unit; every one is reported, 0 when never reached
METRICS = {
    "simulate.simulate_model.s": "s/op",
    "simulate.sample_poisson.s": "s/op",
    "simulate.thin.s": "s/op",
    "simulate.calls": "count/op",
    "simulate.base_points": "count/op",
    "simulate.candidate_pairs": "count/op",
    "simulate.halo_share": "fraction",
    "estimate.estimate_L.s": "s/op",
    "estimate.pairs": "count/op",
    "analytic.radial_self_convolution.s": "s/op",
    "analytic.radial_self_convolution.calls": "count/op",
    "analytic.l_function.s": "s/op",
    "analytic.l_function.calls": "count/op",
    "analytic.pcf.s": "s/op",
    "analytic.pcf.radii": "count/op",
    "infer.deviation_test.s": "s/op",
    "cli.main.s": "s/op",
    "io.parse_model_spec.s": "s/op",
    "io.write_summary_table.s": "s/op",
    "process.cpu_s": "s/op",
}


def count_pairs(points: np.ndarray, r: float) -> int:
    """Unordered pairs of distinct points at distance <= r."""
    if len(points) < 2 or r <= 0:
        return 0
    tree = cKDTree(points)
    return int(tree.count_neighbors(tree, r) - len(points)) // 2


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


class Tracer:
    """Span and count recorder around wrapped library functions."""

    def __init__(self, package):
        self.package = package
        self.spans = []          # [name, start, end, parent index]
        self.stack = []
        self.counts = defaultdict(float)
        self.absent = []
        self.active = False
        self._replaced = []      # (module, name, original)
        self.origin = perf_counter()

    # -- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around the body (used for ops and hooks)."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    @contextlib.contextmanager
    def recording(self):
        """Record the calls of one timed operation under a bench.op span."""
        self.active = True
        try:
            with self.span("bench.op"):
                yield
        finally:
            self.active = False

    def _open(self, name):
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, perf_counter(), None, parent])
        self.stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, index):
        self.spans[index][2] = perf_counter()
        self.stack.pop()

    # -- wrapping ----------------------------------------------------------

    def install(self):
        hooks = {
            "simulate.sample_poisson": self._hook_sample_poisson,
            "simulate.thin": self._hook_thin,
            "estimate.estimate_L": self._hook_pair_statistic,
            "analytic.pcf": self._hook_pcf,
        }
        for span_name, home, func, importers in WRAPPED:
            home_mod = importlib.import_module(f"{self.package}.{home}")
            original = getattr(home_mod, func, None)
            if original is None:
                self.absent.append(f"{home}.{func}")
                continue
            wrapper = self._wrap(original, span_name, hooks.get(span_name))
            self._replace(home_mod, func, wrapper)
            for name in importers:
                mod = importlib.import_module(f"{self.package}.{name}")
                if getattr(mod, func, None) is original:
                    self._replace(mod, func, wrapper)
                else:
                    self.absent.append(f"{name}.{func}")

    def _replace(self, module, name, wrapper):
        self._replaced.append((module, name, getattr(module, name)))
        setattr(module, name, wrapper)

    def uninstall(self):
        """Put the original functions back."""
        for module, name, original in reversed(self._replaced):
            setattr(module, name, original)
        self._replaced.clear()

    def _wrap(self, original, span_name, hook):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            index = self._open(span_name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index)
            if hook is not None:
                with self.span(HOOK):
                    result = hook(index, args, kwargs, result)
            return result

        return wrapper

    # -- hooks: counts taken outside the library spans ---------------------

    def _hook_sample_poisson(self, index, args, kwargs, result):
        self.counts["simulate.base_points"] += len(result)
        return result

    def _hook_thin(self, index, args, kwargs, result):
        base = _arg(args, kwargs, 0, "base")
        f = _arg(args, kwargs, 1, "f")
        if f.marked:
            r = f.max_cutoff(float(base.marks.max())) if len(base) else 0.0
        else:
            r = f.cutoff()
        self.counts["simulate.candidate_pairs"] += count_pairs(base.points, r)
        target = _arg(args, kwargs, 4, "target_window")
        if target is not None:
            inside = int(np.count_nonzero(target.contains(base.points)))
            self.counts["simulate.halo_points"] += len(base) - inside
        return result

    def _hook_pair_statistic(self, index, args, kwargs, result):
        pattern = _arg(args, kwargs, 0, "pattern")
        self.counts["estimate.pairs"] += count_pairs(pattern.points,
                                                     float(result.r[-1]))
        return result

    def _hook_pcf(self, index, args, kwargs, result):
        r = _arg(args, kwargs, 1, "r")
        self.counts["analytic.pcf.radii"] += np.atleast_1d(r).size
        return result

    # -- results -----------------------------------------------------------

    def self_times(self):
        """Total self time and call count per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        total, calls = defaultdict(float), defaultdict(int)
        for (name, start, end, _), inner in zip(self.spans, child):
            total[name] += end - start - inner
            calls[name] += 1
        return total, calls

    def metrics(self, cpu_s: float, n_ops: int) -> dict:
        total, calls = self.self_times()
        c = self.counts
        values = {name + ".s": total[name] for name in
                  {w[0] for w in WRAPPED}}
        values.update({
            "simulate.calls": calls["simulate.simulate_model"],
            "simulate.base_points": c["simulate.base_points"],
            "simulate.candidate_pairs": c["simulate.candidate_pairs"],
            "simulate.halo_share": (c["simulate.halo_points"]
                                    / c["simulate.base_points"]
                                    if c["simulate.base_points"] else 0.0),
            "estimate.pairs": c["estimate.pairs"],
            "analytic.radial_self_convolution.calls":
                calls["analytic.radial_self_convolution"],
            "analytic.l_function.calls": calls["analytic.l_function"],
            "analytic.pcf.radii": c["analytic.pcf.radii"],
            "process.cpu_s": cpu_s,
        })
        return {name: {"value": float(values[name]) / (
                    1 if name == "simulate.halo_share" else n_ops),
                       "unit": unit}
                for name, unit in METRICS.items()}

    def write(self, path: str, header: dict, metrics: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        doc = dict(header)
        doc["absent"] = self.absent
        doc["metrics"] = {k: v["value"] for k, v in metrics.items()}
        doc["span_fields"] = ["name", "start_s", "end_s", "parent"]
        doc["spans"] = [[n, round(s - self.origin, 9), round(e - self.origin, 9), p]
                        for n, s, e, p in self.spans]
        with open(path, "w") as fh:
            json.dump(doc, fh)
            fh.write("\n")

