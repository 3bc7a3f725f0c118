"""The CLI contract on a fixed table of edge inputs: each argv ends in the
exit code README's "Exit codes" line gives its outcome, in-process and
without an exception escaping.  A refusal writes exactly one error line and
no file; a run that succeeds, or a reproduction that fails its gate,
writes its files.  No case raises a RuntimeWarning, and each is quick."""

import contextlib
import io
import re
import time
import warnings
from pathlib import Path

import pytest

from cardspline.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

DATA = {
    "ok.csv": "j,b_j\n-1,0.5\n0,1\n1,-0.25\n",
    "header.csv": "j,b_j\n",
    "empty.csv": "",
    "duplicate.csv": "j,b_j\n0,1\n0,2\n",
    "fraction.csv": "j,b_j\n0.5,1\n",
    "nan.csv": "j,b_j\n0,nan\n",
    "inf.csv": "j,b_j\ninf,1\n",
    "int64.csv": "j,b_j\n1e19,1\n",
    "huge.csv": "j,b_j\n0,1e308\n1,-1e308\n",
    "text.csv": "j,b_j\nx,1\n",
}


def _cases(code, *lines):
    return [(line.split(), code) for line in lines]


CASES = [
    # alpha
    *_cases(0, "eval-L --alpha 1e-3 --k 2",
            "eval-L --alpha 1e-5 --k 1",
            "eval-L --alpha 0.05 --k 3",
            "eval-L --alpha 140 --k 3",
            "eval-L --alpha 140 --k 30",
            "eval-L --alpha 450 --k 5",
            "eval-L --alpha 450 --k 28",
            "eval-L --alpha 600 --k 5",
            "eval-L --alpha 700 --k 14",
            "coeffs --alpha 1e-300 --k 2",
            "coeffs --alpha 5e-324 --k 1",
            "coeffs --alpha 1e-6 --k 30",
            "converge --alpha 1e3 --k 1 --target sinc",
            "converge --alpha 450 --k 1..3 --target half-band",
            "converge --alpha 140 --k 2 --target triangle-spectrum",
            "converge --alpha 0.05 --k 2 --target half-band"),
    *_cases(2, "eval-L --alpha 1e-300 --k 1",
            "eval-L --alpha 1e-300 --k 2",
            "eval-L --alpha 5e-324 --k 1",
            "eval-L --alpha 6e-309 --k 1",
            "eval-L --alpha 1e-6 --k 30",
            "eval-L --alpha 1e-5 --k 30",
            "eval-L --alpha 1.6e-5 --k 30",
            "eval-L --alpha 1e-8 --k 19",
            "eval-L --alpha 1e-5 --k 2",
            "eval-L --alpha 0.05 --k 30",
            "eval-L --alpha 2.3e18 --k 2",
            "eval-L --alpha inf",
            "eval-L --alpha=-inf",
            "eval-L --alpha -inf",
            "eval-L --alpha nan",
            "eval-L --alpha 0",
            "eval-L --alpha -1",
            "coeffs --alpha 2.3e18 --k 3",
            "interp --alpha 1e-5 --k 30 --data {d}/ok.csv",
            "interp --alpha 1e-6 --k 30 --data {d}/ok.csv",
            "interp --alpha 1e-300 --k 2 --data {d}/ok.csv",
            "reproduce --alpha 1e-300 --k 2 --basis cosh",
            "reproduce --alpha 0.05 --k 30 --basis cosh",
            "converge --alpha 1e-6 --k 30 --target sinc",
            "converge --alpha 1e-5 --k 30 --target sinc",
            "converge --alpha 1e-300 --k 1 --target sinc"),
    *_cases(3, "eval-L --alpha 745 --k 5",
            "eval-L --alpha 1e3 --k 2",
            "coeffs --alpha 1e3 --k 30",
            "coeffs --alpha 1e-300 --k 30",
            "converge --alpha 700 --k 30 --target sinc",
            "converge --alpha 700 --k 1..30 --target sinc",
            "converge --alpha 2.3e18 --k 1 --target sinc"),
    # k
    *_cases(0, "eval-L --alpha 1 --k 1",
            "eval-L --alpha 1 --k 13",
            "coeffs --alpha 1 --k 30",
            "converge --alpha 1 --k 1..3 --target sinc"),
    *_cases(2, "eval-L --alpha 1 --k 0",
            "eval-L --alpha 1 --k 14",
            "eval-L --alpha 1 --k 28",
            "eval-L --alpha 1 --k 30",
            "eval-L --alpha 1 --k 31",
            "coeffs --alpha 1 --k 31",
            "eval-L --alpha 1 --k 1..3",
            "eval-L --alpha 1 --k 2.5",
            "converge --alpha 1 --k 3..1 --target sinc",
            "converge --alpha 1 --k a..b --target sinc",
            "converge --alpha 1 --k 0..2 --target sinc",
            "converge --alpha 1 --k 30..31 --target sinc",
            "converge --alpha 1 --k 13..14 --target sinc"),
    # tol
    *_cases(0, "eval-L --alpha 1 --k 3 --tol 1e-14",
            "eval-L --alpha 1 --k 3 --tol 1e-2",
            "interp --alpha 1 --k 3 --data {d}/ok.csv --tol 1e-14",
            "interp --alpha 1 --k 13 --data {d}/ok.csv --tol 1e-2",
            "converge --alpha 1 --k 3 --target bump-spectrum --tol 1e-14",
            "converge --alpha 0.05 --k 1..3 --target bump-spectrum --tol 1e-2"),
    *_cases(2, "eval-L --alpha 1 --k 3 --tol 9.9e-15",
            "eval-L --alpha 1 --k 3 --tol 0.0101",
            "eval-L --alpha 1 --k 3 --tol nan",
            "eval-L --alpha 1 --k 3 --tol 0",
            "eval-L --alpha 1 --k 3 --tol=-1e-10",
            "converge --alpha 1 --k 1..3 --target sinc --tol 0.0101"),
    *_cases(4, "interp --alpha 1 --k 10 --data {d}/ok.csv --tol 1e-14"),
    # grids
    *_cases(0, "eval-L --alpha 1 --k 3 --grid 0:1:2",
            "eval-L --alpha 1 --k 3 --grid 0:1e300:3",
            "eval-L --alpha 1 --k 3 --grid=-1e300:1e300:3",
            "eval-L --alpha 1 --k 3 --grid=-2.3e18:2.3e18:5",
            "eval-L --alpha 1 --k 3 --grid -5:5:101",
            "interp --alpha 1 --k 3 --data {d}/ok.csv --grid 0:1:2",
            "interp --alpha 1 --k 3 --data {d}/ok.csv "
            "--grid 2305843009213693952:2305843009213693952:2",
            "reproduce --alpha 0.25 --k 2 --basis cosh --grid=-2700:-2600:3",
            "reproduce --alpha 0.25 --k 4 --basis x3exp- --grid=-300:-290:3"),
    *_cases(2, "eval-L --alpha 1 --k 3 --grid 0:nan:5",
            "eval-L --alpha 1 --k 3 --grid nan:1:3",
            "eval-L --alpha 1 --k 3 --grid 0:inf:5",
            "eval-L --alpha 1 --k 3 --grid -inf:0:5",
            "eval-L --alpha 1 --k 3 --grid=-1e308:1e308:3",
            "eval-L --alpha 1 --k 3 --grid 0:1:0",
            "eval-L --alpha 1 --k 3 --grid 0:1:1",
            "eval-L --alpha 1 --k 3 --grid 0:1",
            "eval-L --alpha 1 --k 3 --grid a:b:3",
            "eval-L --alpha 1 --k 3 --grid 0:1:99999999999",
            "interp --alpha 1 --k 3 --data {d}/ok.csv --grid 0:3e18:3",
            "interp --alpha 1 --k 3 --data {d}/ok.csv --grid 0:1e300:3",
            "interp --alpha 1 --k 3 --data {d}/ok.csv --grid 0:inf:3",
            "reproduce --alpha 1 --k 2 --basis cosh --grid 800:900:3",
            "reproduce --alpha 0.25 --k 2 --basis cosh --grid 0:nan:3"),
    # data
    *_cases(0, "interp --alpha 1 --k 3 --data {d}/ok.csv",
            "interp --alpha 1 --k 3 --data {d}/header.csv",
            "interp --alpha 0.05 --k 2 --data {d}/ok.csv",
            "interp --alpha 140 --k 13 --data {d}/ok.csv",
            "interp --alpha 700 --k 3 --data {d}/ok.csv",
            "interp --alpha 1 --k 3 --data {d}/ok.csv --format json"),
    *_cases(2, "interp --alpha 1 --k 3 --data {d}/empty.csv",
            "interp --alpha 1 --k 3 --data {d}/duplicate.csv",
            "interp --alpha 1 --k 3 --data {d}/fraction.csv",
            "interp --alpha 1 --k 3 --data {d}/nan.csv",
            "interp --alpha 1 --k 3 --data {d}/inf.csv",
            "interp --alpha 1 --k 3 --data {d}/int64.csv",
            "interp --alpha 1 --k 3 --data {d}/text.csv",
            "interp --alpha 1 --k 3 --data {d}/missing.csv",
            "interp --alpha 1 --k 14 --data {d}/ok.csv"),
    *_cases(4, "interp --alpha 1 --k 3 --data {d}/huge.csv"),
    # bases, targets and the rest of the grammar
    *_cases(0, "reproduce --alpha 0.25 --k 2 --basis cosh",
            "reproduce --alpha 0.25 --k 3 --basis xexp+",
            "reproduce --alpha 0.05 --k 2 --basis exp-",
            "coeffs --alpha 1 --k 3",
            "coeffs --alpha 1 --k 3 --format json",
            "eval-L --alpha 1 --k 3 --format json",
            "converge --alpha 1 --k 1..3 --target sinc --format json"),
    *_cases(1, "reproduce --alpha 0.25 --k 3 --basis cosh --tol 1e-14",
            "reproduce --alpha 0.25 --k 3 --basis sinh --tol 1e-13"),
    *_cases(2, "reproduce --alpha 0.25 --k 2 --basis x2exp+",
            "reproduce --alpha 0.25 --k 2 --basis bogus",
            "reproduce --alpha 1 --k 3 --basis delta",
            # digits that are not decimal: superscripts two and three
            "reproduce --alpha 1 --k 3 --basis x\u00b2exp+",
            "reproduce --alpha 1 --k 3 --basis x\u00b3exp-",
            "converge --alpha 1 --k 1..3 --target bogus",
            "interp --alpha 1 --k 3",
            "eval-L --k 3",
            "eval-L --alpha abc",
            "frobnicate --alpha 1"),
    *_cases(4, "reproduce --alpha 1 --k 3 --basis cosh"),
]

# the error line main prints, or argparse's, which names the subcommand
ERROR = re.compile(r"^cardspline( [\w-]+)?: error: ")
WALLS = {}


def test_the_codes_are_readmes():
    # each code the table expects is one README's "Exit codes" line gives,
    # and the table reaches every one of them; only reproduce fails its gate
    text = README.read_text()
    line = text[text.index("Exit codes:"):]
    line = line[:line.index("\n\n")]
    assert set(re.findall(r"`(\d)`", line)) == {str(code) for _, code in CASES}
    assert {argv[0] for argv, code in CASES if code == 1} == {"reproduce"}


@pytest.mark.parametrize("argv,code", CASES, ids=[" ".join(a) for a, _ in CASES])
def test_contract(tmp_path, argv, code):
    for name, text in DATA.items():
        (tmp_path / name).write_text(text)
    argv = [a.format(d=tmp_path) for a in argv]
    out = tmp_path / "out" / "run.csv"
    out.parent.mkdir()
    err = io.StringIO()
    t0 = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        got = main(argv + ["-o", str(out)])
    WALLS[" ".join(argv)] = wall = time.perf_counter() - t0
    assert type(got) is int
    assert got == code
    lines = err.getvalue().splitlines()
    if code in (0, 1):
        assert lines == []
        assert out.with_suffix(".json").exists()
        assert out.exists() == ("json" not in argv)
    else:
        errors = [ln for ln in lines if ERROR.match(ln)]
        assert len(errors) == 1
        # argparse prints its usage before the error line
        assert errors == lines or lines[0].startswith("usage: ")
        assert list(out.parent.iterdir()) == []
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert wall < 2.0


def test_the_table_is_quick():
    if len(WALLS) < len(CASES):
        pytest.skip("only part of the table ran")
    assert sum(WALLS.values()) < 5.0
