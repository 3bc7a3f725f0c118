"""The CLI contract on a fixed table of edge inputs, and on a seeded slice of
argv drawn from the CLI grammar: each argv ends in an exit code README's
"Exit codes" line gives (in the table, the one it gives the outcome),
in-process and without an exception escaping.  A refusal writes exactly one
error line and no file; a run that succeeds, or a reproduction that fails
its gate, writes its three files.  No case raises a RuntimeWarning, and
each is quick."""

import contextlib
import io
import random
import re
import shutil
import time
import warnings
from pathlib import Path

import pytest

from cardspline import errors, gallery_names
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
            "interp --alpha 700 --k 3 --data {d}/ok.csv"),
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
            "coeffs --alpha 1 --k 3"),
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
            "frobnicate --alpha 1",
            # every run writes all three files: there is no --format
            "coeffs --alpha 1 --k 3 --format json",
            "eval-L --alpha 1 --k 3 --format json",
            "interp --alpha 1 --k 3 --data {d}/ok.csv --format json",
            "converge --alpha 1 --k 1..3 --target sinc --format json"),
    *_cases(4, "reproduce --alpha 1 --k 3 --basis cosh"),
]

# the error line main prints, or argparse's, which names the subcommand
ERROR = re.compile(r"^cardspline( [\w-]+)?: error: ")
WALLS = {}
SEEDED_WALLS = {}


def _draw(rng: random.Random) -> list[str]:
    """One argv from the CLI grammar.  Each value is drawn half the time
    from ordinary values and half the time from its edges: alpha at the ends
    of the double range and of the table's domain, orders at the edges of
    the refused cells, tolerances at and just past their bounds, grids with
    non-finite, far or too few points, every data file, unknown names, and
    outputs the sidecar would overwrite.  No grid has more than 2,001
    points."""
    def pick(ordinary, edges):
        return rng.choice(ordinary if rng.random() < 0.5 else edges)

    command = rng.choice(["coeffs", "eval-L", "interp", "reproduce", "converge"])
    alpha = pick(["0.25", "1", "4", "%.3g" % 10 ** rng.uniform(-1, 2)],
                 ["1e-300", "5e-324", "1e-6", "0.05", "140", "400",
                  "%.4g" % rng.uniform(450, 745), "1e3", "2.3e18", "inf", "-inf", "nan",
                  "0", "-1"])
    k = pick(["1", "2", "3", "5"], ["0", "13", "14", "28", "30", "31", "2.5", "1..3"])
    if command == "converge":
        k = pick([k, "1..3", "2..5"], ["0..2", "13..14", "28..30", "30..31", "3..1", "a..b"])
    argv = [command, "--alpha=" + alpha, "--k", k]
    if rng.random() < 0.5:
        argv += ["--tol=" + pick(["1e-10", "1e-6", "1e-12"],
                                 ["1e-14", "9.9e-15", "1e-2", "0.0101", "nan", "0",
                                  "-1e-10", "inf"])]
    if command in ("eval-L", "interp", "reproduce") and rng.random() < 0.7:
        start, stop = pick([("-5", "5"), ("0", "1"), ("-50.5", "49.5")],
                           [("0", "nan"), ("-inf", "0"), ("0", "1e300"), ("-1e308", "1e308"),
                            ("2305843009213693952", "2305843009213693952"), ("800", "900"),
                            ("-2700", "-2600"), ("a", "1")])
        count = pick(["3", "101", "2001"], ["0", "1", "2", "x"])
        argv += ["--grid=" + ":".join([start, stop, count])]
    if command == "interp":
        argv += ["--data", "{d}/" + pick(["ok.csv"], [*DATA, "missing.csv"])]
    if command == "reproduce":
        argv += ["--basis", pick(["cosh", "sinh", "exp+", "exp-", "xexp+"],
                                 ["x2exp-", "x12exp+", "x²exp+", "delta", "bogus"])]
    if command == "converge":
        argv += ["--target", pick(gallery_names(), ["bogus"])]
    if rng.random() < 0.05:
        argv += ["-o", rng.choice(["{d}/out/run.json", "{d}/out/run.manifest.json", "."])]
    return argv


_RNG = random.Random(20261021)
SEEDED = [_draw(_RNG) for _ in range(200)]


def test_the_codes_are_readmes():
    # the codes README's "Exit codes" line gives are those of the error
    # types, plus success and a failed reproduction; the table expects only
    # these and reaches every one of them, and only reproduce fails its gate
    text = README.read_text()
    line = text[text.index("Exit codes:"):]
    line = line[:line.index("\n\n")]
    codes = {int(c) for c in re.findall(r"`(\d)`", line)}
    declared = {cls.exit_code for cls in vars(errors).values()
                if isinstance(cls, type) and issubclass(cls, errors.CardsplineError)}
    assert codes == declared | {0, 1}
    assert codes == {code for _, code in CASES}
    assert {argv[0] for argv, code in CASES if code == 1} == {"reproduce"}


def _run(tmp_path, argv):
    """Run argv in-process, its output at out/run.csv unless argv names
    one, and check what holds for every outcome; the exit code and the
    wall time."""
    for name, text in DATA.items():
        (tmp_path / name).write_text(text)
    argv = [a.format(d=tmp_path) for a in argv]
    out = tmp_path / "out" / "run.csv"
    out.parent.mkdir()
    if "-o" not in argv:
        argv += ["-o", str(out)]
    err = io.StringIO()
    t0 = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        got = main(argv)
    wall = time.perf_counter() - t0
    assert type(got) is int
    lines = err.getvalue().splitlines()
    if got in (0, 1):
        assert lines == []
        assert sorted(p.name for p in out.parent.iterdir()) == \
            ["run.csv", "run.json", "run.manifest.json"]
    else:
        refusals = [ln for ln in lines if ERROR.match(ln)]
        assert len(refusals) == 1
        # argparse prints its usage before the error line
        assert refusals == lines or lines[0].startswith("usage: ")
        assert list(out.parent.iterdir()) == []
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert wall < 2.0
    return got, wall


@pytest.mark.parametrize("argv,code", CASES, ids=[" ".join(a) for a, _ in CASES])
def test_contract(tmp_path, argv, code):
    got, WALLS[" ".join(argv)] = _run(tmp_path, argv)
    assert got == code


@pytest.mark.parametrize("i", range(len(SEEDED)),
                         ids=[f"{i}:{' '.join(a)}" for i, a in enumerate(SEEDED)])
def test_seeded_contract(tmp_path, i):
    # a code README's "Exit codes" line gives; only reproduce fails its gate
    got, SEEDED_WALLS[i] = _run(tmp_path, SEEDED[i])
    assert got in (0, 1, 2, 3, 4)
    assert got != 1 or SEEDED[i][0] == "reproduce"


@pytest.mark.slow
def test_seeded_contract_slow_slice(tmp_path):
    # 3,000 argv of a second seed under the checks of test_seeded_contract,
    # each in a directory of its own that is removed after it; every case
    # that breaks the contract is reported, not only the first
    rng = random.Random(20261022)
    broken = []
    for i in range(3000):
        argv = _draw(rng)
        case = tmp_path / str(i)
        case.mkdir()
        try:
            got, _ = _run(case, argv)
            assert got in (0, 1, 2, 3, 4)
            assert got != 1 or argv[0] == "reproduce"
        except AssertionError as exc:
            broken.append(f"{i}: {' '.join(argv)}: {exc}")
        shutil.rmtree(case)
    assert broken == []


def test_the_table_is_quick():
    if len(WALLS) < len(CASES):
        pytest.skip("only part of the table ran")
    assert sum(WALLS.values()) < 5.0


def test_the_seeded_slice_is_quick():
    if len(SEEDED_WALLS) < len(SEEDED):
        pytest.skip("only part of the seeded slice ran")
    assert sum(SEEDED_WALLS.values()) < 5.0
