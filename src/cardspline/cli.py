"""Batch experiment front end.

Subcommands
    coeffs      dump a coefficient table (CSV `j,c_j` + JSON sidecar)
    eval-L      evaluate the fundamental function on a grid (`x,L_k`)
    interp      interpolate a data CSV on a grid (`x,f_b`)
    reproduce   interpolate a basis function and gate on the reproduction error
    converge    sweep the spline order against a band-limited target

Grids are `start:stop:count` with inclusive endpoints.  CSV floats are
formatted `%.9e` so identical configs produce byte-identical files; full
precision lives in the JSON sidecars.  Every run writes a manifest referencing
the files it emitted.

Exit codes: 0 ok, 1 reproduction failure, 2 bad parameters or input,
3 quadrature non-convergence or an uncertifiable tolerance, 4 summation-window
overflow.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .bandlimited_analysis import error_sweep, target_gallery
from .cardinal_interpolation import (_basis_rule, build_fundamental,
                                     interpolate_grid, eval_fundamental,
                                     sequence_from_csv, sequence_from_rule)
from .errors import (CardsplineError, DataFormatError, MissingDataError,
                     ParameterDomainError, QuadratureConvergenceError,
                     ToleranceUnreachableError, UnknownBasisError,
                     UnknownTargetError, WindowOverflowError)
from .greens_kernel import SplineParams
from .spectral_symbol import compute_coefficients

_FLOAT_FMT = "%.9e"
_GRID_RE = re.compile(r"^[^:]+:[^:]+:\d+$")


def _parse_grid(spec: str) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) != 3:
        raise DataFormatError(f"grid must be start:stop:count, got {spec!r}")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise DataFormatError(f"bad grid {spec!r}") from exc
    if count < 2:
        raise DataFormatError(f"grid count must be >= 2, got {count}")
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


def _check_tol(tol: float) -> float:
    if not (1e-14 <= tol <= 1e-2):
        raise ParameterDomainError(f"tol must lie in [1e-14, 1e-2], got {tol:g}")
    return tol


def _write_csv(path: Path, header: list[str], rows) -> None:
    # one format string for the whole table, from the first row's cell types
    rows = list(rows)
    line = ",".join("%s" if isinstance(c, str) else _FLOAT_FMT for c in rows[0]) + "\n" \
        if rows else ""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.write(line * len(rows) % tuple(c for row in rows for c in row))


def _write_sidecar(path: Path, params: dict, tol: float, data: dict,
                   wall_ms: float) -> None:
    doc = {
        "params": params,
        "tol": tol,
        "data": data,
        "manifest": {"version": __version__, "wall_ms": wall_ms},
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, sort_keys=True) + "\n")


def _write_manifest(stem: Path, config: dict, outputs: list[Path],
                    tolerances: dict, wall_ms: float) -> Path:
    path = stem.with_suffix(".manifest.json")
    doc = {
        "version": __version__,
        "config": config,
        "outputs": [p.name for p in outputs],
        "tolerances": tolerances,
        "wall_ms": wall_ms,
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, sort_keys=True) + "\n")
    return path


def _config_echo(args) -> dict:
    return {k: v for k, v in vars(args).items() if k != "fn"}


def _outputs(args, default: str) -> tuple[Path, Path]:
    out = Path(args.output) if args.output else Path(default)
    return out, out.with_suffix(".json")


def cmd_coeffs(args) -> int:
    params = SplineParams(alpha=args.alpha, k=_parse_k_range(args.k)[0])
    tol = _check_tol(args.tol)
    t0 = time.perf_counter()
    table = compute_coefficients(params, tol)
    wall = (time.perf_counter() - t0) * 1e3
    csv_path, json_path = _outputs(args, f"coeffs_a{args.alpha:g}_k{params.k}.csv")
    keys, coeffs = [str(j) for j in table.indices.tolist()], table.coeffs.tolist()
    meta = {
        "half_width": table.half_width,
        "tail_bound": table.tail_bound,
        "decay_rate": table.decay_rate,
        "decay_amplitude": table.decay_amplitude,
        "coeffs": dict(zip(keys, coeffs)),
    }
    outs = []
    if args.format != "json":
        _write_csv(csv_path, ["j", "c_j"], zip(keys, coeffs))
        outs.append(csv_path)
    _write_sidecar(json_path, {"alpha": params.alpha, "k": params.k}, tol, meta, wall)
    outs.append(json_path)
    _write_manifest(csv_path, _config_echo(args), outs,
                    {"tail_bound": table.tail_bound}, wall)
    return 0


def cmd_eval_L(args) -> int:
    params = SplineParams(alpha=args.alpha, k=_parse_k_range(args.k)[0])
    tol = _check_tol(args.tol)
    grid = _parse_grid(args.grid)
    t0 = time.perf_counter()
    L = build_fundamental(params, tol)
    vals = np.asarray(eval_fundamental(L, grid))
    wall = (time.perf_counter() - t0) * 1e3
    csv_path, json_path = _outputs(args, f"evalL_a{args.alpha:g}_k{params.k}.csv")
    xs, vals = grid.tolist(), vals.tolist()
    outs = []
    if args.format != "json":
        _write_csv(csv_path, ["x", "L_k"], zip(xs, vals))
        outs.append(csv_path)
    _write_sidecar(json_path, {"alpha": params.alpha, "k": params.k}, tol,
                   {"x": xs, "L_k": vals}, wall)
    outs.append(json_path)
    _write_manifest(csv_path, _config_echo(args), outs,
                    {"table_tail_bound": L.table.tail_bound}, wall)
    return 0


def cmd_interp(args) -> int:
    params = SplineParams(alpha=args.alpha, k=_parse_k_range(args.k)[0])
    tol = _check_tol(args.tol)
    grid = _parse_grid(args.grid)
    data = sequence_from_csv(args.data)
    t0 = time.perf_counter()
    L = build_fundamental(params, tol)
    vals = interpolate_grid(L, data, grid, max(tol, 1e-12))
    wall = (time.perf_counter() - t0) * 1e3
    csv_path, json_path = _outputs(args, f"interp_a{args.alpha:g}_k{params.k}.csv")
    xs, vals = grid.tolist(), vals.tolist()
    outs = []
    if args.format != "json":
        _write_csv(csv_path, ["x", "f_b"], zip(xs, vals))
        outs.append(csv_path)
    _write_sidecar(json_path, {"alpha": params.alpha, "k": params.k}, tol,
                   {"x": xs, "f_b": vals, "data": str(args.data)}, wall)
    outs.append(json_path)
    _write_manifest(csv_path, _config_echo(args), outs, {}, wall)
    return 0


def cmd_reproduce(args) -> int:
    params = SplineParams(alpha=args.alpha, k=_parse_k_range(args.k)[0])
    gate_tol = _check_tol(args.tol)
    grid = _parse_grid(args.grid)
    fn, power, _ = _basis_rule(args.basis, params.alpha)
    if power >= params.k:
        raise ParameterDomainError(
            f"basis {args.basis!r} has power {power} >= k={params.k}; outside the "
            "reproduced span")
    t0 = time.perf_counter()
    L = build_fundamental(params, min(1e-10, gate_tol))
    data = sequence_from_rule(args.basis, params.alpha)
    g = np.asarray(fn(grid))
    # the pass gate is global (tol * max(1, max|g|)), so every point gets the
    # same absolute window budget
    point_tol = 0.05 * gate_tol * max(1.0, float(np.max(np.abs(g))))
    # best effort: the gate below decides pass/fail; only divergent data
    # aborts the run
    fb = interpolate_grid(L, data, grid, point_tol, best_effort=True)
    abs_err = np.abs(fb - g)
    wall = (time.perf_counter() - t0) * 1e3
    csv_path, json_path = _outputs(args, f"reproduce_{args.basis}_a{args.alpha:g}_k{params.k}.csv")
    outs = []
    if args.format != "json":
        _write_csv(csv_path, ["x", "g", "f_b", "abs_err"],
                   zip(grid.tolist(), g.tolist(), fb.tolist(), abs_err.tolist()))
        outs.append(csv_path)
    max_err = float(np.max(abs_err))
    gate = gate_tol * max(1.0, float(np.max(np.abs(g))))
    _write_sidecar(json_path, {"alpha": params.alpha, "k": params.k}, gate_tol,
                   {"basis": args.basis, "max_abs_err": max_err, "gate": gate}, wall)
    outs.append(json_path)
    _write_manifest(csv_path, _config_echo(args), outs,
                    {"max_abs_err": max_err, "gate": gate}, wall)
    return 0 if max_err < gate else 1


def cmd_converge(args) -> int:
    alpha = args.alpha
    ks = _parse_k_range(args.k)
    tol = _check_tol(args.tol)
    target = target_gallery(args.target)
    t0 = time.perf_counter()
    reports = error_sweep(target, (build_fundamental(SplineParams(alpha=alpha, k=k), tol)
                                   for k in ks), tol=max(tol, 1e-12))
    wall = (time.perf_counter() - t0) * 1e3

    csv_path, json_path = _outputs(args, f"converge_{args.target}_a{alpha:g}.csv")
    header = ["alpha", "k", "target", "l2_error", "l2_bound", "sup_error",
              "ell_trunc", "quad_res"]
    rows = [(r.params.alpha, "%d" % r.params.k, r.target, r.l2_error, r.l2_bound,
             r.sup_error_grid, "%d" % r.ell_truncation, "%d" % r.quadrature_resolution)
            for r in reports]
    outs = []
    if args.format != "json":
        _write_csv(csv_path, header, rows)
        outs.append(csv_path)
    _write_sidecar(json_path, {"alpha": alpha, "k": [r.params.k for r in reports]},
                   tol,
                   {"target": args.target,
                    "rows": [{"k": r.params.k, "l2_error": r.l2_error,
                              "l2_bound": r.l2_bound, "sup_error": r.sup_error_grid,
                              "ell_trunc": r.ell_truncation,
                              "quad_res": r.quadrature_resolution}
                             for r in reports]},
                   wall)
    outs.append(json_path)
    _write_manifest(csv_path, _config_echo(args), outs, {}, wall)
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
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
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
                    help="sinc | triangle-spectrum | bump-spectrum | half-band")
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


_EXIT_CODES = (
    ((ParameterDomainError, UnknownTargetError, UnknownBasisError,
      DataFormatError, MissingDataError), 2),
    ((QuadratureConvergenceError, ToleranceUnreachableError), 3),
    ((WindowOverflowError,), 4),
)


def exit_code_for(exc: Exception) -> int:
    for types, code in _EXIT_CODES:
        if isinstance(exc, types):
            return code
    return 2 if isinstance(exc, CardsplineError) else 1


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(_patch_negative_values(argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except CardsplineError as exc:
        print(f"cardspline: error: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    except OSError as exc:
        print(f"cardspline: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
