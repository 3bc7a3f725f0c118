"""Per-op oracles, independent of the code path being timed.

`check(op, rc, stem, data, strict)` returns None when the op's exit code and
output files pass, else a one-line reason.  With strict=False a wall op is
judged against the looser outcome its wall documents instead.

  reproduce  f_b against the exact basis function g, computed here
  eval-L     k = 1 against sinh(a(1-|x|))/sinh a; every k: L(j) = delta_0j
  coeffs     k = 1 against c_0 = -2a coth a, c_{+-1} = a/sinh a; every k
             against Fourier coefficients of 1/P from a direct lattice sum
  interp     f(j) = b_j at the integer grid points
  converge   l2_error <= l2_bound <= sqrt(2) l2_error, l2_error falling in k
"""

from __future__ import annotations

import csv
import json
import math
from functools import lru_cache
from pathlib import Path

import numpy as np

DELTA_TOL = 1e-8
# build_fundamental refuses above this residual; a flagged cell stays below it
FLAGGED_DELTA_TOL = 1e-4
CLOSED_FORM_TOL = 1e-9
REPRODUCE_GATE = 1e-6      # the CLI's default reproduce --tol
TABLE_TOL = 1e-10          # the CLI's default coeffs --tol
_INTEGER_SLACK = 1e-9


def _sidecar(stem: Path) -> dict:
    return json.loads(stem.with_suffix(".json").read_text())


def _integer_points(x: np.ndarray):
    j = np.round(x)
    at = np.abs(x - j) < _INTEGER_SLACK
    return at, j[at].astype(int)


def basis_exact(name: str, alpha: float, x: np.ndarray) -> np.ndarray:
    """cosh, sinh or x^m exp(+-alpha x), written out independently of the
    library's basis parser."""
    if name == "cosh":
        return np.cosh(alpha * x)
    if name == "sinh":
        return np.sinh(alpha * x)
    body, sign = name[:-1], (1.0 if name.endswith("+") else -1.0)
    power = {"exp": 0, "xexp": 1, "x2exp": 2}[body]
    return x ** power * np.exp(sign * alpha * x)


@lru_cache(maxsize=None)
def reference_coeffs(alpha: float, k: int, n: int = 2048, shifts: int = 1024) -> np.ndarray:
    """Fourier coefficients of 1/P with P(xi) = (-1)^k sum_j ((xi-2 pi j)^2 +
    a^2)^-k summed directly over |j| <= shifts, plus the leading integral of
    the omitted tail, sampled at n points and inverted by one FFT.  Its own
    noise is ~ eps * max|c|."""
    xi = 2.0 * np.pi * np.arange(n) / n
    j = np.arange(-shifts, shifts + 1)
    P = np.empty(n)
    for s in range(0, n, 256):
        u = xi[s:s + 256, None] - 2.0 * np.pi * j[None, :]
        P[s:s + 256] = np.sum((u * u + alpha * alpha) ** (-k), axis=1)
    for u0 in (2.0 * np.pi * (shifts + 0.5) - xi, 2.0 * np.pi * (shifts + 0.5) + xi):
        P += u0 ** (1 - 2 * k) / ((2 * k - 1) * 2.0 * np.pi)
    return np.real(np.fft.fft((-1.0) ** k / P)) / n


def _check_coeffs(op, stem: Path) -> str | None:
    doc = _sidecar(stem)["data"]
    table = {int(j): c for j, c in doc["coeffs"].items()}
    a, k = op.alpha, op.ks[0]
    if k == 1:
        want = {0: -2.0 * a / math.tanh(a), 1: a / math.sinh(a), -1: a / math.sinh(a)}
        for j, c in want.items():
            if abs(table.get(j, 0.0) - c) > CLOSED_FORM_TOL * abs(c):
                return f"c_{j} = {table.get(j, 0.0)!r}, closed form {c!r}"
    ref = reference_coeffs(a, k)
    js = np.array(sorted(table))
    got = np.array([table[j] for j in js])
    err = float(np.max(np.abs(got - ref[js % len(ref)])))
    allow = TABLE_TOL + 1e-14 * float(np.max(np.abs(ref)))
    if err > allow:
        return f"coefficients off the lattice-sum reference by {err:.3e} > {allow:.3e}"
    return None


def _check_eval_L(op, stem: Path, strict: bool) -> str | None:
    doc = _sidecar(stem)["data"]
    x, L = np.asarray(doc["x"]), np.asarray(doc["L_k"])
    if op.grid and len(x) != op.grid[2]:
        return f"{len(x)} values for a {op.grid[2]}-point grid"
    a, k = op.alpha, op.ks[0]
    if k == 1:
        ax = np.minimum(np.abs(x), 1.0)
        err = float(np.max(np.abs(L - np.sinh(a * (1.0 - ax)) / math.sinh(a))))
        if err > CLOSED_FORM_TOL:
            return f"L_1 off sinh(a(1-|x|))/sinh a by {err:.3e}"
    at, j = _integer_points(x)
    if not at.any():
        return "grid holds no integer point"
    resid = float(np.max(np.abs(L[at] - (j == 0))))
    tol = DELTA_TOL if strict else FLAGGED_DELTA_TOL
    if resid > tol:
        return f"max |L(j) - delta_0j| = {resid:.3e} > {tol:g}"
    return None


def _check_interp(stem: Path, data: dict) -> str | None:
    doc = _sidecar(stem)["data"]
    x, f = np.asarray(doc["x"]), np.asarray(doc["f_b"])
    at, j = _integer_points(x)
    if not at.any():
        return "grid holds no integer point"
    b = np.array([data.get(int(i), 0.0) for i in j])
    err = np.abs(f[at] - b) / np.maximum(1.0, np.abs(b))
    if float(np.max(err)) > 1e-12:
        i = int(np.argmax(err))
        return f"f({j[i]}) = {f[at][i]!r}, sample b_j = {b[i]!r}"
    return None


def _read_columns(path: Path) -> dict[str, np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return {name: np.array([float(r[i]) for r in rows[1:]])
            for i, name in enumerate(rows[0])}


def _check_reproduce(op, stem: Path, rc: int, strict: bool) -> str | None:
    cols = _read_columns(stem.with_suffix(".csv"))
    x = np.linspace(*op.grid)
    if len(cols["f_b"]) != len(x):
        return f"{len(cols['f_b'])} values for a {len(x)}-point grid"
    g = basis_exact(op.basis, op.alpha, x)
    err = float(np.max(np.abs(cols["f_b"] - g)))
    gate = REPRODUCE_GATE * max(1.0, float(np.max(np.abs(g))))
    if strict:
        return None if rc == 0 and err < gate else \
            f"exit {rc}, max |f_b - g| = {err:.3e} against gate {gate:.3e}"
    # the documented wall: the run reports its own gate failure truthfully
    return None if rc == 1 and err >= gate else \
        f"exit {rc} with max |f_b - g| = {err:.3e}, gate {gate:.3e}"


def _check_converge(op, stem: Path) -> str | None:
    rows = _sidecar(stem)["data"]["rows"]
    if [r["k"] for r in rows] != list(op.ks):
        return f"rows for k = {[r['k'] for r in rows]}, asked {list(op.ks)}"
    prev = math.inf
    for r in rows:
        e, bnd = r["l2_error"], r["l2_bound"]
        if not (e <= bnd * (1 + 1e-12) and bnd <= math.sqrt(2.0) * e * (1 + 1e-12)):
            return f"k={r['k']}: l2_error {e:.6e}, l2_bound {bnd:.6e} out of [e, sqrt2 e]"
        if not e < prev:
            return f"k={r['k']}: l2_error {e:.6e} does not fall below {prev:.6e}"
        prev = e
    return None


def check(op, rc: int, stem: Path, data: dict, strict: bool = True) -> str | None:
    """Judge one finished op; `stem` is the -o path it was given."""
    if op.may_refuse and rc == 2:
        return None
    if rc != 0 and not (op.kind == "reproduce" and rc == 1):
        return f"exit {rc}"
    try:
        if op.kind == "reproduce":
            return _check_reproduce(op, stem, rc, strict)
        if op.kind == "coeffs":
            return _check_coeffs(op, stem)
        if op.kind == "eval-L":
            return _check_eval_L(op, stem, strict)
        if op.kind == "interp":
            return _check_interp(stem, data)
        if op.kind == "converge":
            return _check_converge(op, stem)
    except (OSError, ValueError, KeyError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
    return f"no oracle for {op.kind}"
