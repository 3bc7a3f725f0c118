"""tools/compare_tables.py: what counts as a difference between two table
sweeps."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from compare_tables import compare_cells  # noqa: E402

TABLE = {"coeffs": "00f03f", "J": 1, "tail_bound": "0x0.0p+0", "decay_rate": "inf",
         "decay_amplitude": "0x1.0p+1", "cond_B": "0x1.0p+0"}


def test_identical_sweeps():
    cells = {"1.0,1": TABLE, "1.0,2": {"refused": "QuadratureConvergenceError: x"}}
    assert compare_cells(cells, dict(cells)) == []


def test_each_difference_names_its_fields():
    old = {"1.0,1": TABLE, "1.0,2": TABLE, "2.0,1": TABLE,
           "1e5,3": {"refused": "QuadratureConvergenceError: roots"}}
    new = {"1.0,1": {**TABLE, "J": 2, "coeffs": "00"}, "1.0,2": TABLE,
           "2.0,1": {"refused": "ValueError: math domain error"},
           "1e5,3": {"refused": "QuadratureConvergenceError: other"},
           "4.0,1": TABLE}
    assert compare_cells(old, new) == [
        "(1.0,1): J, coeffs differ",
        "(1e5,3): refused differ: QuadratureConvergenceError: roots -> "
        "QuadratureConvergenceError: other",
        "(2.0,1): J, coeffs, cond_B, decay_amplitude, decay_rate, refused, tail_bound "
        "differ: table -> ValueError: math domain error",
        "(4.0,1): J, coeffs, cond_B, decay_amplitude, decay_rate, tail_bound differ"]
