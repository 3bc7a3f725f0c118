"""In-memory span tracer for the library's public functions.

`Tracer.install()` replaces each traced function with a timing wrapper in
every loaded `cardspline` module namespace that holds it (functions imported
by name are bound in the importing module too), and on the class for
methods.  Calls inside a module resolve its globals at call time, so
internal calls are traced as well.  `uninstall()` puts the originals back.

A span records the call's parent (the span open when it began, -1 for
none), the op it belongs to, its perf_counter start and end, and the fields
that the call's arguments and result give.  Nothing is written until
`dump()`.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple

import numpy as np


class Span(NamedTuple):
    id: int
    parent: int
    op: int
    name: str
    start: float
    end: float
    fields: dict | None

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]


def _points(args, kwargs, result) -> dict:
    x = args[1] if len(args) > 1 else kwargs.get("x", kwargs.get("xi"))
    return {"points": int(np.size(x))}


def _green_points(args, kwargs, result) -> dict:
    n = _points(args, kwargs, result)["points"]
    # computed, not measured: one float64 read and one written per point
    return {"points": n, "bytes": 16 * n}


def _table(args, kwargs, t) -> dict:
    return {"half_width": t.half_width, "tail_bound": t.tail_bound}


def _fundamental(args, kwargs, L) -> dict:
    return {"card_err": L.cardinality_error, "flagged": int(not L.cardinality_ok)}


def _window(args, kwargs, J) -> dict:
    return {"J": J}


def _integrals(args, kwargs, result) -> dict:
    return {"quad_res": result[2], "ell_trunc": result[3]}


_POINTS = [("points", "points", "sum", "count")]

# (module, attribute, span name, fields, [(metric suffix, field, reducer, unit)])
#
# The end-to-end metric each span should move, and where:
#   eval_green            points_per_s on build-eval, op_p50_ms on converge-sweep
#   build_green_kernel, compute_coefficients, build_fundamental
#                         op_p50_ms on build-eval (build_fundamental is also
#                         ~17% of converge-sweep); barely interp-dense
#   periodized_green_hat, fundamental_hat
#                         rows_per_s on converge-sweep; build-eval via the
#                         coefficient samples
#   window_solve          points_per_s and op_p50_ms on interp-dense; ~0 on build-eval
#   eval_fundamental      build-eval, converge-sweep (sup_error_grid loop), interp-dense
#   interpolate_at, DataSequence.values
#                         interp-dense; converge-sweep through dict-backed samples
#   error_integrals, replica_power, sup_error_grid, time_eval
#                         rows_per_s on converge-sweep only
#   cli.main, cli.self_ms, cli.bytes_written
#                         op_p50_ms on build-eval, where output writing dominates
SPANS = (
    ("greens_kernel", "eval_green", "greens_kernel.eval_green", _green_points,
     _POINTS + [("bytes_computed", "bytes", "sum", "bytes")]),
    ("greens_kernel", "build_green_kernel", "greens_kernel.build_green_kernel", None, []),
    ("spectral_symbol", "compute_coefficients", "spectral_symbol.compute_coefficients",
     _table, [("half_width_max", "half_width", "max", "terms"),
              ("tail_bound_max", "tail_bound", "max", "1")]),
    ("spectral_symbol", "periodized_green_hat", "spectral_symbol.periodized_green_hat",
     _points, _POINTS),
    ("spectral_symbol", "fundamental_hat", "spectral_symbol.fundamental_hat",
     _points, _POINTS),
    ("cardinal_interpolation", "build_fundamental", "cardinal_interpolation.build_fundamental",
     _fundamental, [("cardinality_err_max", "card_err", "max", "1"),
                    ("flagged", "flagged", "sum", "count")]),
    ("cardinal_interpolation", "_solve_window", "cardinal_interpolation.window_solve",
     _window, [("J_mean", "J", "mean", "terms"), ("J_max", "J", "max", "terms")]),
    ("cardinal_interpolation", "eval_fundamental", "cardinal_interpolation.eval_fundamental",
     _points, _POINTS),
    ("cardinal_interpolation", "interpolate_at", "cardinal_interpolation.interpolate_at",
     None, []),
    ("cardinal_interpolation", "DataSequence.values",
     "cardinal_interpolation.DataSequence.values", None, []),
    ("bandlimited_analysis", "_error_integrals", "bandlimited_analysis.error_integrals",
     _integrals, [("quad_res_max", "quad_res", "max", "nodes"),
                  ("ell_trunc_max", "ell_trunc", "max", "replicas")]),
    ("bandlimited_analysis", "replica_power", "bandlimited_analysis.replica_power",
     _points, _POINTS),
    ("bandlimited_analysis", "sup_error_grid", "bandlimited_analysis.sup_error_grid", None, []),
    ("bandlimited_analysis", "BandlimitedTarget.time_eval", "bandlimited_analysis.time_eval",
     _points, _POINTS),
    ("cli", "main", "cli.main", None, []),
)
LIBRARY_MODULES = ("greens_kernel", "spectral_symbol", "cardinal_interpolation",
                   "bandlimited_analysis")


def per_layer() -> list[dict]:
    """Every metric `Tracer.metrics` and the traced run emit, with its unit.
    Lower is better for all of them: less time, less work, smaller errors."""
    rows = []
    for _, _, span, _, stats in SPANS:
        rows += [(f"{span}.calls", "count"), (f"{span}.ms", "ms"), (f"{span}.self_ms", "ms")]
        rows += [(f"{span}.{suffix}", unit) for suffix, _, _, unit in stats]
    rows += [("cli.self_ms", "ms"), ("cli.bytes_written", "bytes")]
    rows += [(f"{m}.busy_ms", "ms") for m in LIBRARY_MODULES]
    rows += [("trace.overhead_frac", "1"), ("trace.window_solve_share", "1")]
    return [{"name": n, "unit": u, "better": "lower"} for n, u in rows]


PACKAGE = "cardspline"


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, fn, name, fields):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                got = fields(args, kwargs, result) if fields and result is not None else None
                spans[sid] = Span(sid, parent, self.op_id, name, t0, t1, got)
        return traced

    def install(self) -> None:
        mods = {n: m for n, m in sys.modules.items()
                if n == PACKAGE or n.startswith(PACKAGE + ".")}
        for mod_name, attr, name, fields, _ in SPANS:
            home = mods[f"{PACKAGE}.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                self._patched.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(orig, name, fields))
                continue
            orig = getattr(home, attr)
            wrapper = self._wrap(orig, name, fields)
            for mod in mods.values():
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patched.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        self._patched.clear()

    def dump(self, path: Path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span._asdict()) + "\n")

    def metrics(self) -> dict[str, float]:
        """Totals per span name: calls, ms, self_ms (ms minus the time of
        directly nested spans) and the reduced fields; per-module busy time
        (spans not nested inside a span of the same module)."""
        spans = self.spans
        child_ms = defaultdict(float)
        by_name = defaultdict(list)
        for s in spans:
            by_name[s.name].append(s)
            if s.parent >= 0:
                child_ms[s.parent] += s.ms

        out = {}
        for _, _, name, _, stats in SPANS:
            group = by_name.get(name, [])
            out[f"{name}.calls"] = len(group)
            out[f"{name}.ms"] = sum(s.ms for s in group)
            out[f"{name}.self_ms"] = sum(s.ms - child_ms[s.id] for s in group)
            for suffix, field, reducer, _ in stats:
                vals = [s.fields[field] for s in group if s.fields is not None]
                if not vals:
                    out[f"{name}.{suffix}"] = 0
                elif reducer == "sum":
                    out[f"{name}.{suffix}"] = sum(vals)
                elif reducer == "max":
                    out[f"{name}.{suffix}"] = max(vals)
                else:
                    out[f"{name}.{suffix}"] = sum(vals) / len(vals)
        out["cli.self_ms"] = out["cli.main.self_ms"]
        for mod in LIBRARY_MODULES:
            busy = 0.0
            for s in spans:
                if s.module != mod:
                    continue
                p = s.parent
                while p >= 0 and spans[p].module != mod:
                    p = spans[p].parent
                if p < 0:
                    busy += s.ms
            out[f"{mod}.busy_ms"] = busy
        return out
