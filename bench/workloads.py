"""Seeded op mixes for the three benchmark workloads.

A workload is a fixed multiset of CLI ops, one "round".  The seed chooses the
data values, the grid jitter and the order of the ops inside each round; the
(alpha, k) cells of a workload never change with the seed.  Runs execute
whole rounds only, so every run sees the same op composition and the order
statistics it reports (median, tail) land on the same op types.

Every grid that an integer-point oracle reads is shifted by whole multiples
of its spacing, so the jittered grid still contains the integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

# converge rows also interpolate on the CLI's 101-point sup-error grid
# (error_report's default n), which is where most of their time goes
SUP_GRID_POINTS = 101

_EXP_BASES = ("cosh", "sinh", "xexp+", "xexp-")
_SEEDED = ("--grid", "--data")


@dataclass(frozen=True)
class Op:
    """One `cardspline` invocation and what its oracle needs to know."""

    kind: str                   # CLI subcommand
    alpha: float
    ks: tuple                   # the order, or the converge sweep
    extra: tuple = ()           # argv after --alpha/--k, without -o
    grid: tuple | None = None   # (start, stop, count) as passed on the CLI
    basis: str | None = None
    # documented wall: the looser outcome this op is known to produce today
    wall: str | None = None
    # domain edge: a refusal with exit 2 passes as well as a clean result
    may_refuse: bool = False

    @property
    def argv(self) -> list[str]:
        k = str(self.ks[0]) if len(self.ks) == 1 else f"{self.ks[0]}..{self.ks[-1]}"
        return [self.kind, "--alpha", f"{self.alpha:g}", "--k", k, *self.extra]

    @property
    def cell(self) -> str:
        """The argv without its seeded parts (grid and data file)."""
        argv = self.argv
        return " ".join(a for i, a in enumerate(argv) if a not in _SEEDED
                        and not (i and argv[i - 1] in _SEEDED))

    @property
    def points(self) -> int:
        """Grid points the op evaluates L_k or an interpolant on."""
        if self.kind == "converge":
            return SUP_GRID_POINTS * len(self.ks)
        return self.grid[2] if self.grid else 0

    @property
    def rows(self) -> int:
        """(alpha, k) rows the op completes: one per converge order, else one."""
        return len(self.ks)


def _grid(start: float, stop: float, count: int, digits: int) -> tuple:
    spec = f"{start:.{digits}f}:{stop:.{digits}f}:{count}"
    a, b, n = spec.split(":")
    return ("--grid", spec), (float(a), float(b), int(n))


def _gridded(kind, alpha, k, start, stop, count, digits, extra=(), **kw) -> Op:
    flag, grid = _grid(start, stop, count, digits)
    return Op(kind, alpha, (k,), extra=(*extra, *flag), grid=grid, **kw)


def _interp_dense(rng, data_csv: str) -> list[Op]:
    data = ("--data", data_csv)
    ops = []
    # three dense queries in the round's 15 ops put the mix's p90 (see
    # run.py) inside their band, not on the edge to the next op type.  At
    # k = 3 the default --tol 1e-10 lies below the synthesis floor for data
    # amplitudes near 1.3e4 (beta near 2), which the window solver refuses
    # with exit 4; 1e-9 is attainable for every amplitude write_data can
    # produce
    for _ in range(3):
        s = 0.05 * int(rng.integers(-10, 11))
        ops.append(_gridded("interp", 1.0, 3, -30 + s, 30 + s, 1201, 2,
                            (*data, "--tol", "1e-9")))
    ops.append(_gridded("interp", 1.0, 2, -5, 5, 101, 0, data))   # README config
    for k, bases in ((1, _EXP_BASES[:2]), (2, _EXP_BASES), (3, _EXP_BASES)):
        for b in bases:
            u = float(rng.uniform(0.0, 0.5))
            ops.append(_gridded("reproduce", 0.25, k, -5 - u, 5 + u, 101, 4,
                                ("--basis", b), basis=b))
    u = float(rng.uniform(0.0, 0.5))
    ops.append(_gridded("reproduce", 0.25, 4, -5 - u, 5 + u, 101, 4,
                        ("--basis", "x2exp+"), basis="x2exp+",
                        wall="reproduction gate trips (exit 1)"))
    return ops


def _converge_sweep(rng, data_csv: str) -> list[Op]:
    def conv(alpha, k_hi, target):
        return Op("converge", alpha, tuple(range(1, k_hi + 1)),
                  extra=("--target", target))
    # ranked by op time the round is bump, sinc < half-band < triangle, so
    # the median of the mix (see run.py) averages half-band with the slower
    # of bump and sinc, and its p90 is the triangle sweep
    return [conv(1.0, 10, "half-band"), conv(1.0, 12, "triangle-spectrum"),
            conv(0.5, 6, "bump-spectrum"), conv(2.0, 8, "sinc")]


# flagged cells: build_fundamental accepts them with a cardinality residual
# above the 1e-8 oracle but below its own 1e-4 refusal threshold
_FLAGGED = {(0.25, 6): "cardinality residual ~7e-5 (flagged)",
            (1.0, 10): "cardinality residual ~9.5e-8 (flagged)"}
_EDGE = {(0.25, 8), (0.25, 10)}


def _build_eval(rng, data_csv: str) -> list[Op]:
    # coeffs ops (5-20 ms, bar one) are all faster than the eval-L ops
    # (30-110 ms); at one of each per cell the median would sit in the gap
    # between the two, so each cell runs coeffs twice and the median falls
    # among the k >= 6 tables
    ops = []
    for alpha in (0.25, 1.0, 2.0):
        for k in (1, 3, 6, 8, 10):
            edge = (alpha, k) in _EDGE
            ops += [Op("coeffs", alpha, (k,), may_refuse=edge)] * 2
            s = 0.01 * int(rng.integers(-50, 51))
            ops.append(_gridded("eval-L", alpha, k, -20 + s, 20 + s, 4001, 2,
                                wall=_FLAGGED.get((alpha, k)), may_refuse=edge))
    return ops


WORKLOADS = {
    "interp-dense": _interp_dense,
    "converge-sweep": _converge_sweep,
    "build-eval": _build_eval,
}


def write_data(rng, path: Path) -> dict[int, float]:
    """Seeded polynomial-growth samples b_j = r_j (1 + |j|)^beta, beta <= 2,
    written as a `j,b_j` CSV; returns the samples the program will read."""
    beta = float(rng.uniform(1.0, 2.0))
    js = np.arange(-120, 121)
    b = rng.uniform(-1.0, 1.0, len(js)) * (1.0 + np.abs(js)) ** beta
    data = {int(j): float(v) for j, v in zip(js, b)}
    with open(path, "w") as fh:
        fh.write("j,b_j\n")
        for j, v in data.items():
            fh.write(f"{j},{v!r}\n")
    return data


class Mix:
    """The seeded op stream of one workload: `next_round()` returns the next
    shuffled round, with fresh jitter."""

    def __init__(self, name: str, seed: int, work_dir: Path):
        self.rng = np.random.default_rng([seed, sorted(WORKLOADS).index(name)])
        self.data_csv = work_dir / "data.csv"
        self.data = write_data(self.rng, self.data_csv)
        self._make = WORKLOADS[name]

    def next_round(self) -> list[Op]:
        ops = self._make(self.rng, str(self.data_csv))
        self.rng.shuffle(ops)
        return ops
