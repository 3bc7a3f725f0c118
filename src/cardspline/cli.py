"""Batch experiment front end.

Subcommands
    coeffs      dump a coefficient table (CSV `j,c_j` + JSON sidecar)
    eval-L      evaluate the fundamental function on a grid (`x,L_k`)
    interp      interpolate a data CSV on a grid (`x,f_b`)
    reproduce   interpolate a basis function and gate on the reproduction error
    converge    sweep the spline order against a band-limited target

Grids are `start:stop:count` with inclusive endpoints.  CSV floats are
formatted `%.9e` so identical configs produce byte-identical files; full
precision lives in the JSON sidecars, whose `x`, `L_k` and `f_b` arrays are
`%.16e` text that parses back to the same doubles.  Every run writes a manifest
referencing the files it emitted.

Exit codes: 0 ok, 1 reproduction failure, and otherwise the `exit_code` of
the error the run ends in (`cardspline.errors`): 2 bad parameters or input,
3 quadrature non-convergence or an uncertifiable tolerance, 4 summation-window
overflow.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from ._floattext import float_cells, json_array, table_bytes
from .bandlimited_analysis import error_sweep, gallery_names, target_gallery
from .cardinal_interpolation import (_basis_sequence, build_fundamental,
                                     interpolate_grid, eval_fundamental,
                                     sequence_from_csv)
from .errors import CardsplineError, DataFormatError, ParameterDomainError
from .greens_kernel import SplineParams
from .spectral_symbol import _check_tol, compute_coefficients

_GRID_RE = re.compile(r"^[^:]+:[^:]+:\d+$")
# the memory a run may plan for, and each grid command's peak bytes per
# grid point (tracemalloc at 300k points, rounded up): a grid is refused where
# its run would peak above _GRID_BYTES, about 17M points for eval-L and
# interp and 10M for reproduce
_GRID_BYTES = 2 ** 33
_BYTES_PER_POINT = {"eval-L": 500, "interp": 500, "reproduce": 830}


def _parse_grid(spec: str, command: str) -> np.ndarray:
    """The points of `start:stop:count`, endpoints included; a count whose
    run would peak above _GRID_BYTES is refused before anything is
    allocated."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise DataFormatError(f"grid must be start:stop:count, got {spec!r}")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise DataFormatError(f"bad grid {spec!r}") from exc
    if count < 2:
        raise DataFormatError(f"grid count must be >= 2, got {count}")
    if count > _GRID_BYTES // _BYTES_PER_POINT[command]:
        raise DataFormatError(f"grid count {count} is too large")
    with np.errstate(invalid="ignore", over="ignore"):
        grid = np.linspace(start, stop, count)
    if not np.all(np.isfinite(grid)):
        raise DataFormatError(f"grid points must be finite, got {spec!r}")
    return grid


def _parse_k_range(spec: str) -> list[int]:
    try:
        if ".." in spec:
            lo, hi = spec.split("..", 1)
            ks = list(range(int(lo), int(hi) + 1))
        else:
            ks = [int(spec)]
    except ValueError as exc:
        raise DataFormatError(f"bad k specification {spec!r}") from exc
    if not ks:
        raise DataFormatError(f"empty k range {spec!r}")
    return ks


def _parse_k(spec: str) -> int:
    """The one order of a command that builds a single L_k: a range of more
    than one order is refused, not cut to its first."""
    ks = _parse_k_range(spec)
    if len(ks) != 1:
        raise DataFormatError(f"this command takes one order, got the range {spec!r}")
    return ks[0]


def _sidecar_bytes(params: dict, tol: float, data: dict, wall_ms: float,
                   arrays: dict) -> bytes:
    """One JSON line.  Each of the `arrays`, `%.16e` cells from
    `float_cells`, joins `data` as a JSON array, spliced in for a
    placeholder string that holds its key's place; no other string of the
    document can hold a NUL, so each placeholder's JSON text occurs once."""
    doc = {
        "params": params,
        "tol": tol,
        "data": {**data, **{key: "\0" + key for key in arrays}},
        "manifest": {"version": __version__, "wall_ms": wall_ms},
    }
    text = json.dumps(doc, sort_keys=True).encode("ascii")
    for key, cells in arrays.items():
        text = text.replace(json.dumps("\0" + key).encode("ascii"), json_array(cells), 1)
    return text + b"\n"


def _single_order(args) -> tuple[SplineParams, float]:
    """(params, tol) of a command that builds one L_k."""
    return SplineParams(alpha=args.alpha, k=_parse_k(args.k)), _check_tol(args.tol)


def _emit(args, default: str, alpha: float, k, tol: float, wall_ms: float,
          data: dict, header: list[str], columns: list,
          arrays: dict | None = None, tolerances: dict | None = None) -> None:
    """The three files of one run: the CSV (at --output, else `default`),
    the JSON sidecar beside it, and the manifest that echoes the arguments
    and names the other two.  One `float_cells` call formats every float
    array the run writes, `%.9e` for the CSV and `%.16e` for the sidecar,
    each array once.  On a write error the files this run has opened are
    removed before the error propagates."""
    csv_path = Path(args.output) if args.output else Path(default)
    json_path = csv_path.with_suffix(".json")
    arrays = arrays or {}
    cells = iter(float_cells([(c, 9) for c in columns if isinstance(c, np.ndarray)]
                             + [(a, 16) for a in arrays.values()]))
    manifest = {
        "version": __version__,
        "config": {key: v for key, v in vars(args).items() if key != "fn"},
        "outputs": [csv_path.name, json_path.name],
        "tolerances": tolerances or {},
        "wall_ms": wall_ms,
    }
    written = []

    def write(path: Path, *chunks: bytes) -> None:
        with open(path, "wb") as fh:
            written.append(path)
            for chunk in chunks:
                fh.write(chunk)

    try:
        # the CSV's columns: `%.9e` cells from `float_cells`, or str columns
        # that pass through
        write(csv_path, (",".join(header) + "\n").encode("ascii"),
              table_bytes([next(cells) if isinstance(c, np.ndarray) else c
                           for c in columns]))
        write(json_path, _sidecar_bytes({"alpha": alpha, "k": k}, tol, data, wall_ms,
                                        {key: next(cells) for key in arrays}))
        write(csv_path.with_suffix(".manifest.json"),
              (json.dumps(manifest, sort_keys=True) + "\n").encode("ascii"))
    except OSError:
        # a refusal leaves no file behind: remove what this run has opened
        for path in written:
            with contextlib.suppress(OSError):
                path.unlink()
        raise


def _build_report(L) -> dict:
    """What a sidecar reports of the L_k it used: the cardinality residual,
    the exact decay rate r of L_k (null at k = 1, where L_k has compact
    support) and cond_B = B(0) / B(pi) of its exponential B-spline."""
    return {"cardinality_error": L.cardinality_error, "decay_rate": L.env_rate,
            "cond_B": L.table.cond_B}


def cmd_coeffs(args) -> int:
    params, tol = _single_order(args)
    t0 = time.perf_counter()
    table = compute_coefficients(params, tol)
    wall = (time.perf_counter() - t0) * 1e3
    keys = [str(j) for j in table.indices.tolist()]
    meta = {
        "half_width": table.half_width,
        "tail_bound": table.tail_bound,
        # infinite at k = 1, whose table is exact: null keeps the JSON strict
        "decay_rate": table.decay_rate if math.isfinite(table.decay_rate) else None,
        "decay_amplitude": table.decay_amplitude,
        "cond_B": table.cond_B,
        "coeffs": dict(zip(keys, table.coeffs.tolist())),
    }
    _emit(args, f"coeffs_a{args.alpha:g}_k{params.k}.csv", params.alpha, params.k,
          tol, wall, meta, ["j", "c_j"], [keys, table.coeffs],
          tolerances={"tail_bound": table.tail_bound})
    return 0


def cmd_eval_L(args) -> int:
    params, tol = _single_order(args)
    grid = _parse_grid(args.grid, args.command)
    t0 = time.perf_counter()
    L = build_fundamental(params, tol)
    vals = np.asarray(eval_fundamental(L, grid))
    wall = (time.perf_counter() - t0) * 1e3
    _emit(args, f"evalL_a{args.alpha:g}_k{params.k}.csv", params.alpha, params.k,
          tol, wall, _build_report(L), ["x", "L_k"], [grid, vals],
          {"x": grid, "L_k": vals}, {"table_tail_bound": L.table.tail_bound})
    return 0


def cmd_interp(args) -> int:
    params, tol = _single_order(args)
    grid = _parse_grid(args.grid, args.command)
    data = sequence_from_csv(args.data)
    t0 = time.perf_counter()
    L = build_fundamental(params, tol)
    vals = interpolate_grid(L, data, grid, max(tol, 1e-12))
    wall = (time.perf_counter() - t0) * 1e3
    _emit(args, f"interp_a{args.alpha:g}_k{params.k}.csv", params.alpha, params.k,
          tol, wall, {"data": str(args.data), **_build_report(L)}, ["x", "f_b"],
          [grid, vals], {"x": grid, "f_b": vals})
    return 0


def cmd_reproduce(args) -> int:
    params, gate_tol = _single_order(args)
    grid = _parse_grid(args.grid, args.command)
    data, power = _basis_sequence(args.basis, params.alpha)
    if power >= params.k:
        raise ParameterDomainError(
            f"basis {args.basis!r} has power {power} >= k={params.k}; outside the "
            "reproduced span")
    # the basis on the grid, and later its samples, are refused where they
    # overflow double precision
    g = data.values(grid)
    t0 = time.perf_counter()
    L = build_fundamental(params, min(1e-10, gate_tol))
    # the pass gate is global (tol * max(1, max|g|)), so every point gets the
    # same absolute window budget
    point_tol = 0.05 * gate_tol * max(1.0, float(np.max(np.abs(g))))
    # best effort: the gate below decides pass/fail; only divergent data
    # aborts the run
    fb = interpolate_grid(L, data, grid, point_tol, best_effort=True)
    abs_err = np.abs(fb - g)
    wall = (time.perf_counter() - t0) * 1e3
    max_err = float(np.max(abs_err))
    gate = gate_tol * max(1.0, float(np.max(np.abs(g))))
    _emit(args, f"reproduce_{args.basis}_a{args.alpha:g}_k{params.k}.csv",
          params.alpha, params.k, gate_tol, wall,
          {"basis": args.basis, "max_abs_err": max_err, "gate": gate, **_build_report(L)},
          ["x", "g", "f_b", "abs_err"], [grid, g, fb, abs_err],
          tolerances={"max_abs_err": max_err, "gate": gate})
    return 0 if max_err < gate else 1


def cmd_converge(args) -> int:
    alpha = args.alpha
    ks = _parse_k_range(args.k)
    tol = _check_tol(args.tol)
    target = target_gallery(args.target)
    # every order is checked before the first build
    params = [SplineParams(alpha=alpha, k=k) for k in ks]
    t0 = time.perf_counter()
    reports = error_sweep(target, (build_fundamental(p, tol) for p in params),
                          tol=max(tol, 1e-12))
    wall = (time.perf_counter() - t0) * 1e3

    header = ["alpha", "k", "target", "l2_error", "l2_bound", "sup_error",
              "ell_trunc", "quad_res"]
    rows = [(r.params.alpha, "%d" % r.params.k, r.target, r.l2_error, r.l2_bound,
             r.sup_error_grid, "%d" % r.ell_truncation, "%d" % r.quadrature_resolution)
            for r in reports]
    meta = {"target": args.target,
            "rows": [{"k": r.params.k, "l2_error": r.l2_error,
                      "l2_bound": r.l2_bound, "sup_error": r.sup_error_grid,
                      "ell_trunc": r.ell_truncation,
                      "quad_res": r.quadrature_resolution,
                      "cardinality_error": r.cardinality_error,
                      "decay_rate": r.decay_rate, "cond_B": r.cond_B,
                      "window": r.sup_window}
                     for r in reports]}
    _emit(args, f"converge_{args.target}_a{alpha:g}.csv", alpha,
          [r.params.k for r in reports], tol, wall, meta, header,
          [c if isinstance(c[0], str) else np.array(c) for c in zip(*rows)])
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, and building it costs more than a parse."""
    p = argparse.ArgumentParser(prog="cardspline",
                                description="polyhyperbolic cardinal spline experiments")
    p.add_argument("--version", action="version", version=f"cardspline {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, grid_default=None):
        sp.add_argument("--alpha", type=float, required=True,
                        help="decay rate of the operator (> 0)")
        sp.add_argument("--k", type=str, default="1",
                        help="spline order (converge accepts a..b ranges)")
        sp.add_argument("--tol", type=float, default=1e-10)
        sp.add_argument("--output", "-o", type=str, default=None)
        if grid_default is not None:
            sp.add_argument("--grid", type=str, default=grid_default,
                            help="start:stop:count, inclusive endpoints")

    sp = sub.add_parser("coeffs", help="dump a coefficient table")
    common(sp)
    sp.set_defaults(fn=cmd_coeffs)

    sp = sub.add_parser("eval-L", help="evaluate the fundamental function")
    common(sp, grid_default="-5:5:101")
    sp.set_defaults(fn=cmd_eval_L)

    sp = sub.add_parser("interp", help="interpolate data from a CSV")
    common(sp, grid_default="-5:5:101")
    sp.add_argument("--data", type=str, required=True, help="CSV with j,b_j rows")
    sp.set_defaults(fn=cmd_interp)

    sp = sub.add_parser("reproduce", help="reproduce a basis function")
    common(sp, grid_default="-5:5:101")
    sp.set_defaults(tol=1e-6)   # gate scale; table tolerance stays at 1e-10
    sp.add_argument("--basis", type=str, required=True,
                    help="cosh | sinh | exp± | x{m}exp± (power m < k)")
    sp.set_defaults(fn=cmd_reproduce)

    sp = sub.add_parser("converge", help="error sweep over spline orders")
    common(sp)
    sp.add_argument("--target", type=str, required=True,
                    help=" | ".join(gallery_names()))
    sp.set_defaults(fn=cmd_converge)
    return p


def _patch_negative_values(argv: list[str]) -> list[str]:
    """Glue grid values that begin with a minus sign onto their flag; argparse
    would otherwise read `-5:5:101` as an option string."""
    out, i = [], 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--grid",) and i + 1 < len(argv) and argv[i + 1].startswith("-") \
                and _GRID_RE.match(argv[i + 1]):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(_patch_negative_values(argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        # the sidecar and the manifest are named by replacing the output's
        # suffix with .json and .manifest.json
        if args.output and (not Path(args.output).name
                            or Path(args.output).suffix.lower() == ".json"):
            raise DataFormatError(f"--output must name a file not ending in .json, got "
                                  f"{args.output!r}")
        return args.fn(args)
    except CardsplineError as exc:
        print(f"cardspline: error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"cardspline: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
