"""Spans around the calls into each summa layer, installed only for traced passes.

The benchmark wraps the public functions of each layer at every module
attribute that holds them, so callers that imported a function by name
(``from .quadrature import integrate``) reach the wrapper too, and wraps
``eval_mp`` on every cutoff class.  Each wrapped call records a span
(layer, parent span, start, end) in memory; self time is a span's duration
minus the durations of its direct children.  Nothing here changes what a
call computes.

A layer whose module or function no longer exists is skipped and its
metrics read "absent", so the benchmark survives refactors that remove
code.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import statistics
import sys
import time

ALL = object()  # every function in the module's __all__ that the module defines

# (span name, module, function names or ALL)
FUNCTION_LAYERS = [
    ("exact", "summa.exact", ALL),
    ("quadrature", "summa.quadrature", ALL),
    ("kernels.ut_value", "summa._kernels", ["ut_value"]),
    ("kernels.moment_quad", "summa._kernels", ["moment_quad"]),
    ("kernels.sums", "summa._kernels",
     ["smoothed_sum_value", "alternating_smoothed_value", "doubled_smoothed_value"]),
    ("smoothed.constant_extraction", "summa.smoothed", ["constant_extraction"]),
    ("smoothed.pairing", "summa.smoothed", ["delta_pairing", "sine_pairing"]),
    ("casimir", "summa.casimir", ALL),
    ("summation", "summa.summation", ALL),
    ("summation", "summa.series", ALL),
    ("euler_maclaurin", "summa.euler_maclaurin", ALL),
    ("asymptotics", "summa.asymptotics", ALL),
]
# (span name, module, base class name, method): wrapped on every subclass defining it
METHOD_LAYERS = [("cutoffs.eval_mp", "summa.cutoffs", "Cutoff", "eval_mp")]

TASK = "task"
CLI_RUN = "cli.run"

# per-layer metrics reported by the traced run: name -> unit
PER_LAYER_UNITS = {
    "exact.self_s": "s", "exact.calls": "count",
    "quadrature.self_s": "s", "quadrature.calls": "count", "quadrature.nevals": "count",
    "quadrature.panels": "count", "quadrature.errors": "count",
    "kernels.ut_value.self_s": "s", "kernels.ut_value.calls": "count",
    "kernels.ut_value.cells": "count", "kernels.ut_value.unique_ratio": "ratio",
    "kernels.moment_quad.self_s": "s", "kernels.moment_quad.calls": "count",
    "kernels.sums.self_s": "s", "kernels.sums.terms": "count",
    "kernels.sums.bytes_computed": "B",
    "cutoffs.eval_mp.calls": "count", "cutoffs.eval_mp.self_s": "s",
    "smoothed.constant_extraction.self_s": "s", "smoothed.constant_extraction.calls": "count",
    "smoothed.pairing.self_s": "s",
    "casimir.self_s": "s", "casimir.calls": "count",
    "summation.self_s": "s", "summation.calls": "count",
    "euler_maclaurin.self_s": "s", "euler_maclaurin.calls": "count",
    "asymptotics.self_s": "s", "asymptotics.calls": "count",
    "cli.import_s": "s", "cli.run_s": "s", "cli.process_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _layer_functions(module, names):
    if names is ALL:
        names = getattr(module, "__all__", [n for n in vars(module) if not n.startswith("_")])
        return [n for n in names
                if inspect.isfunction(getattr(module, n, None))
                and getattr(module, n).__module__ == module.__name__]
    return [n for n in names if callable(getattr(module, n, None))]


class Tracer:
    """Records spans and layer counters while its wrappers are installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.ut_args: list = []
        self.installed: set[str] = set()
        self.missing: set[str] = set()  # counters whose source field is gone
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: set[int] = set()
        self.reset()

    def reset(self):
        self.spans.clear()
        self.stack.clear()
        self.ut_args.clear()
        self.counters.update({"quadrature.nevals": 0, "quadrature.panels": 0,
                              "quadrature.errors": 0, "kernels.ut_value.cells": 0,
                              "kernels.sums.terms": 0})

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append((self.name_id(name), self.stack[-1] if self.stack else -1,
                           time.perf_counter(), None))
        self.stack.append(idx)
        return idx

    def end(self, idx: int):
        self.stack.pop()
        nid, parent, t0, _ = self.spans[idx]
        self.spans[idx] = (nid, parent, t0, time.perf_counter())

    def _wrap(self, name, fn, on_result=None, on_error=None):
        nid = self.name_id(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                spans[idx] = (nid, parent, t0, clock())
                stack.pop()
                if on_error is not None:
                    on_error(exc)
                raise
            spans[idx] = (nid, parent, t0, clock())
            stack.pop()
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        self._wrappers.add(id(wrapper))
        return wrapper

    # -- layer-specific counters -----------------------------------------------

    def _quad_result(self, args, kwargs, res):
        for field, key in (("nevals", "quadrature.nevals"), ("nintervals", "quadrature.panels")):
            value = getattr(res, field, None)
            if value is None:
                self.missing.add(key)
            else:
                self.counters[key] += value

    def _quad_error(self, exc):
        if type(exc).__name__ == "QuadratureError":
            self.counters["quadrature.errors"] += 1

    def _arg_reader(self, fn, key, *names):
        """Callback reading the named arguments of each call; marks ``key`` missing if gone."""
        try:
            sig = inspect.signature(fn)
        except (TypeError, ValueError):
            sig = None

        def read(args, kwargs):
            try:
                bound = sig.bind(*args, **kwargs).arguments
                return [float(bound[n]) for n in names]
            except (AttributeError, TypeError, KeyError, ValueError):
                self.missing.add(key)
                return None
        return read

    def _ut_call(self, fn):
        read = self._arg_reader(fn, "kernels.ut_value.cells", "lam", "N")

        def record(args, kwargs, res):
            values = read(args, kwargs)
            if values is not None:
                lam, N = values
                self.counters["kernels.ut_value.cells"] += math.ceil(N / lam)
            self.ut_args.append(repr((args, sorted(kwargs.items()))))
        return record

    def _sum_call(self, fn, step):
        read = self._arg_reader(fn, "kernels.sums.terms", "N")

        def record(args, kwargs, res):
            values = read(args, kwargs)
            if values is not None:
                self.counters["kernels.sums.terms"] += math.ceil(values[0] / step)
        return record

    # -- installation ------------------------------------------------------------

    def _patch_everywhere(self, orig, wrapper):
        """Replace ``orig`` by ``wrapper`` in every loaded summa module namespace."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "summa" or modname.startswith("summa.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._patches.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    def install(self) -> set[str]:
        """Wrap every layer that exists; returns the set of installed layer names."""
        for layer, modname, names in FUNCTION_LAYERS:
            try:
                module = importlib.import_module(modname)
            except ImportError:
                continue
            for fname in _layer_functions(module, names):
                orig = getattr(module, fname)
                if id(orig) in self._wrappers:
                    continue  # an alias of a function wrapped a moment ago
                on_result = on_error = None
                if layer == "quadrature" and fname == "integrate":
                    on_result, on_error = self._quad_result, self._quad_error
                elif layer == "kernels.ut_value":
                    on_result = self._ut_call(orig)
                elif layer == "kernels.sums":
                    on_result = self._sum_call(orig, 2.0 if fname.startswith("doubled") else 1.0)
                self._patch_everywhere(orig, self._wrap(layer, orig, on_result, on_error))
                self.installed.add(layer)
        if not callable(getattr(sys.modules.get("summa.quadrature"), "integrate", None)):
            self.missing.update(("quadrature.nevals", "quadrature.panels", "quadrature.errors"))
        for layer, modname, base, method in METHOD_LAYERS:
            try:
                module = importlib.import_module(modname)
            except ImportError:
                continue
            base_cls = getattr(module, base, None)
            if not isinstance(base_cls, type):
                continue
            for cls in [c for c in vars(module).values()
                        if isinstance(c, type) and issubclass(c, base_cls)]:
                if method in vars(cls):
                    orig = vars(cls)[method]
                    self._patches.append((cls, method, orig))
                    setattr(cls, method, self._wrap(layer, orig))
                    self.installed.add(layer)
        return self.installed

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()
        self._wrappers.clear()

    def snapshot(self) -> dict:
        """Spans and counters recorded since the last reset, as plain data."""
        return {"names": list(self.names), "spans": list(self.spans),
                "counters": dict(self.counters), "ut_args": list(self.ut_args),
                "installed": sorted(self.installed), "missing": sorted(self.missing)}


def self_times(snap: dict) -> tuple[dict, dict]:
    """(self seconds by span name, span count by span name) for one snapshot."""
    spans = snap["spans"]
    child = [0.0] * len(spans)
    for nid, parent, t0, t1 in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for (nid, parent, t0, t1), covered in zip(spans, child):
        name = snap["names"][nid]
        self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - covered
        calls[name] = calls.get(name, 0) + 1
    return self_s, calls


def pass_metrics(snaps: list[dict], cli_times: list[tuple[float, float, float]]) -> dict:
    """Per-layer metric values of one traced pass.

    ``snaps`` holds the in-process snapshot or one snapshot per CLI child;
    ``cli_times`` holds (import_s, run_s, wall_s) per CLI child.  Values are
    totals over the pass; None marks a metric whose layer is absent.
    """
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counters: dict[str, float] = {}
    ut_distinct = ut_calls = 0
    installed: set = set()
    missing: set = set()
    for snap in snaps:
        s, c = self_times(snap)
        for k, v in s.items():
            self_s[k] = self_s.get(k, 0.0) + v
        for k, v in c.items():
            calls[k] = calls.get(k, 0) + v
        for k, v in snap["counters"].items():
            counters[k] = counters.get(k, 0) + v
        ut_distinct += len(set(snap["ut_args"]))  # per process: what a memo there could save
        ut_calls += len(snap["ut_args"])
        installed.update(snap["installed"])
        missing.update(snap["missing"])

    out: dict[str, float | None] = {}
    for layer in ("exact", "quadrature", "kernels.ut_value", "kernels.moment_quad",
                  "kernels.sums", "cutoffs.eval_mp", "smoothed.constant_extraction",
                  "smoothed.pairing", "casimir", "summation", "euler_maclaurin", "asymptotics"):
        present = layer in installed
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0) if present else None
        out[f"{layer}.calls"] = calls.get(layer, 0) if present else None
    for key in ("quadrature.nevals", "quadrature.panels", "quadrature.errors",
                "kernels.ut_value.cells", "kernels.sums.terms"):
        present = key.rsplit(".", 1)[0] in installed and key not in missing
        out[key] = counters.get(key, 0) if present else None
    ratio_ok = "kernels.ut_value" in installed
    out["kernels.ut_value.unique_ratio"] = (
        (ut_distinct / ut_calls if ut_calls else 0.0) if ratio_ok else None)
    terms = out["kernels.sums.terms"]
    out["kernels.sums.bytes_computed"] = None if terms is None else 8 * terms
    out["cli.import_s"] = math.fsum(t[0] for t in cli_times)
    out["cli.run_s"] = math.fsum(t[1] for t in cli_times)
    out["cli.process_s"] = math.fsum(t[2] - t[0] - t[1] for t in cli_times)
    return {k: v for k, v in out.items() if k in PER_LAYER_UNITS}


def median_metrics(per_pass: list[dict]) -> dict:
    """Low median over passes of each metric (counts stay whole); None if absent in any pass."""
    out = {}
    for key in per_pass[0]:
        values = [m[key] for m in per_pass]
        out[key] = None if any(v is None for v in values) else statistics.median_low(values)
    return out
