"""Command-line front end: flags, file formats, exit codes, determinism."""

import csv
import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import cardspline
from cardspline import cardinal_interpolation
from cardspline import (SplineParams, build_fundamental, eval_fundamental,
                        interpolate_grid, sequence_from_csv)
from cardspline.cli import main
from cardspline.errors import (CardsplineError, DataFormatError, MissingDataError,
                               ParameterDomainError, QuadratureConvergenceError,
                               ToleranceUnreachableError, UnknownBasisError,
                               UnknownTargetError, WindowOverflowError)


# non-finite endpoints, and finite ones whose spacing overflows
NON_FINITE_GRIDS = ["0:inf:5", "nan:1:3", "-inf:0:3", "-1e308:1e308:5"]


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestCoeffs:
    def test_k1_table(self, tmp_path):
        out = tmp_path / "c.csv"
        rc = main(["coeffs", "--alpha", "1", "--k", "1", "--tol", "1e-12",
                   "-o", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["j", "c_j"]
        got = {int(r[0]): float(r[1]) for r in rows}
        assert got[0] == pytest.approx(-2.6260705, abs=1e-7)
        assert got[1] == pytest.approx(0.8509181, abs=1e-7)
        assert got[-1] == got[1]
        nonzero = [j for j, c in got.items() if c != 0.0]
        assert sorted(nonzero) == [-1, 0, 1]
        sidecar = json.loads(out.with_suffix(".json").read_text())
        assert sidecar["params"] == {"alpha": 1.0, "k": 1}
        assert sidecar["tol"] == 1e-12
        # the k = 1 table is exact: its decay rate is infinite, written null
        assert sidecar["data"]["decay_rate"] is None
        assert sidecar["data"]["cond_B"] == 1.0
        assert "wall_ms" in sidecar["manifest"]

    def test_k2_symmetric_decreasing(self, tmp_path):
        out = tmp_path / "c2.csv"
        assert main(["coeffs", "--alpha", "1", "--k", "2", "-o", str(out)]) == 0
        _, rows = read_csv(out)
        got = {int(r[0]): float(r[1]) for r in rows}
        mags = [abs(got[j]) for j in range(0, 4)]
        assert all(mags[i + 1] < mags[i] for i in range(3))
        assert all(got[j] == got[-j] for j in range(1, max(got) + 1))

    def test_alpha_zero_exit_2(self, tmp_path, capsys):
        rc = main(["coeffs", "--alpha", "0", "--k", "1",
                   "-o", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "alpha must be > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha,k", [("1000", "2"), ("1e5", "24")])
    def test_unresolved_table_exit_3(self, tmp_path, alpha, k):
        # the root nearest 0 is -0.0 in double, and (2 cosh a)^k passes the
        # default decimal exponent range at (1e5, 24)
        assert main(["coeffs", "--alpha", alpha, "--k", k,
                     "-o", str(tmp_path / "c.csv")]) == 3

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["coeffs", "--alpha", "0.7", "--k", "3", "-o", str(a)])
        main(["coeffs", "--alpha", "0.7", "--k", "3", "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_manifest_references_outputs(self, tmp_path):
        out = tmp_path / "c.csv"
        main(["coeffs", "--alpha", "1", "--k", "2", "-o", str(out)])
        man = json.loads(out.with_suffix(".manifest.json").read_text())
        assert set(man["outputs"]) == {"c.csv", "c.json"}
        for name in man["outputs"]:
            assert (tmp_path / name).exists()


class TestEvalL:
    def test_grid_values(self, tmp_path):
        out = tmp_path / "L.csv"
        rc = main(["eval-L", "--alpha", "1", "--k", "1", "--grid", "-2:2:9",
                   "--tol", "1e-12", "-o", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["x", "L_k"]
        assert len(rows) == 9
        table = {float(r[0]): float(r[1]) for r in rows}
        assert table[0.5] == pytest.approx(0.4434094, abs=1e-7)
        assert table[0.0] == pytest.approx(1.0, abs=1e-9)
        for x in [0.5, 1.5, 2.0]:
            assert table[x] == table[-x]

    def test_negative_grid_token(self, tmp_path):
        # `--grid -5:5:11` must parse even though the value starts with a dash
        out = tmp_path / "L.csv"
        assert main(["eval-L", "--alpha", "1", "--k", "2",
                     "--grid", "-5:5:11", "-o", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 11

    def test_bad_grid_count(self, tmp_path):
        rc = main(["eval-L", "--alpha", "1", "--k", "1", "--grid", "0:1:1",
                   "-o", str(tmp_path / "x.csv")])
        assert rc == 2

    @pytest.mark.parametrize("grid", NON_FINITE_GRIDS)
    def test_non_finite_grid_exit_2(self, tmp_path, grid):
        out = tmp_path / "L.csv"
        rc = main(["eval-L", "--alpha", "1", "--k", "2", "--grid", grid,
                   "-o", str(out)])
        assert rc == 2
        assert not out.exists()

    def test_unbuildable_grid_count_exit_2(self, tmp_path, capsys):
        # numpy refuses this count before allocating anything
        out = tmp_path / "L.csv"
        rc = main(["eval-L", "--alpha", "1", "--k", "2",
                   "--grid", "0:1:100000000000000000000", "-o", str(out)])
        assert rc == 2
        assert "grid count" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("count", [9, 401])
    def test_sidecar_arrays_bit_for_bit(self, tmp_path, count):
        # both sides of the writers' small-input size; the sidecar arrays
        # parse back to the library's doubles bit for bit
        out = tmp_path / "L.csv"
        assert main(["eval-L", "--alpha", "1", "--k", "3", "--grid", f"-4.3:5.1:{count}",
                     "-o", str(out)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["L.csv", "L.json", "L.manifest.json"]
        data = json.loads(out.with_suffix(".json").read_text())["data"]
        grid = np.linspace(-4.3, 5.1, count)
        vals = eval_fundamental(build_fundamental(SplineParams(1.0, 3), 1e-10), grid)
        assert [v.hex() for v in data["x"]] == [v.hex() for v in grid.tolist()]
        assert [v.hex() for v in data["L_k"]] == [v.hex() for v in vals.tolist()]

    def test_far_points_write_zero(self, tmp_path, capsys):
        # |x|^2 overflows there and e^{-|x|} underflows: L_k is 0, not NaN
        out = tmp_path / "L.csv"
        assert main(["eval-L", "--alpha", "1", "--k", "3", "--grid", "1e300:1e301:2",
                     "-o", str(out)]) == 0
        _, rows = read_csv(out)
        assert [float(r[1]) for r in rows] == [0.0, 0.0]
        assert capsys.readouterr().err == ""

    def test_float_format(self, tmp_path):
        out = tmp_path / "L.csv"
        main(["eval-L", "--alpha", "1", "--k", "1", "--grid", "0:1:3",
              "-o", str(out)])
        _, rows = read_csv(out)
        for r in rows:
            for cell in r:
                assert "e" in cell  # %.9e scientific everywhere
                mantissa = cell.split("e")[0]
                assert len(mantissa.split(".")[1]) == 9


class TestInterp:
    def test_delta_equals_eval_L(self, tmp_path):
        data = tmp_path / "delta.csv"
        data.write_text("j,b_j\n0,1.0\n")
        out1 = tmp_path / "i.csv"
        out2 = tmp_path / "L.csv"
        assert main(["interp", "--alpha", "1", "--k", "2", "--data", str(data),
                     "--grid", "-3:3:13", "-o", str(out1)]) == 0
        assert main(["eval-L", "--alpha", "1", "--k", "2",
                     "--grid", "-3:3:13", "-o", str(out2)]) == 0
        _, r1 = read_csv(out1)
        _, r2 = read_csv(out2)
        # the interpolant snaps to b_m exactly at integers (cardinality fast
        # path) while eval-L reports the raw synthesis; equality is numeric
        for a, b in zip(r1, r2):
            assert float(a[1]) == pytest.approx(float(b[1]), abs=1e-12)
        non_integer = [(a, b) for a, b in zip(r1, r2)
                       if float(a[0]) != round(float(a[0]))]
        assert all(a[1] == b[1] for a, b in non_integer)

    def test_malformed_csv_exit_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("j,b_j\n0.5,1.0\n")
        rc = main(["interp", "--alpha", "1", "--k", "2", "--data", str(bad),
                   "--grid", "0:1:3", "-o", str(tmp_path / "x.csv")])
        assert rc == 2

    @pytest.mark.parametrize("row", ["inf,2", "nan,2", "1,nan", "1,-inf", "3"])
    def test_non_finite_or_short_row_exit_2(self, tmp_path, row):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"j,b_j\n0,1.0\n{row}\n")
        out = tmp_path / "x.csv"
        rc = main(["interp", "--alpha", "1", "--k", "2", "--data", str(bad),
                   "--grid", "0:1:3", "-o", str(out)])
        assert rc == 2
        assert not out.exists()

    def test_duplicate_index_exit_2(self, tmp_path):
        bad = tmp_path / "dup.csv"
        bad.write_text("j,b_j\n1,1.0\n1,2.0\n")
        rc = main(["interp", "--alpha", "1", "--k", "2", "--data", str(bad),
                   "--grid", "0:1:3", "-o", str(tmp_path / "x.csv")])
        assert rc == 2

    @pytest.mark.parametrize("grid", NON_FINITE_GRIDS)
    def test_non_finite_grid_exit_2(self, tmp_path, grid):
        data = tmp_path / "d.csv"
        data.write_text("j,b_j\n0,1.0\n1,2.0\n")
        out = tmp_path / "x.csv"
        rc = main(["interp", "--alpha", "1", "--k", "2", "--data", str(data),
                   "--grid", grid, "-o", str(out)])
        assert rc == 2
        assert not out.exists()

    @pytest.mark.parametrize("count", [9, 401])
    def test_sidecar_arrays_bit_for_bit(self, tmp_path, count):
        data_csv = tmp_path / "d.csv"
        data_csv.write_text("j,b_j\n-2,0.5\n0,1.0\n1,-2.25\n3,0.125\n")
        out = tmp_path / "i.csv"
        assert main(["interp", "--alpha", "1", "--k", "2", "--data", str(data_csv),
                     "--grid", f"-4.3:5.1:{count}", "-o", str(out)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["d.csv", "i.csv", "i.json", "i.manifest.json"]
        data = json.loads(out.with_suffix(".json").read_text())["data"]
        grid = np.linspace(-4.3, 5.1, count)
        vals = interpolate_grid(build_fundamental(SplineParams(1.0, 2), 1e-10),
                                sequence_from_csv(data_csv), grid, 1e-10)
        assert [v.hex() for v in data["x"]] == [v.hex() for v in grid.tolist()]
        assert [v.hex() for v in data["f_b"]] == [v.hex() for v in vals.tolist()]

    def test_missing_file_exit_2(self, tmp_path):
        rc = main(["interp", "--alpha", "1", "--k", "2", "--data",
                   str(tmp_path / "none.csv"), "--grid", "0:1:3",
                   "-o", str(tmp_path / "x.csv")])
        assert rc == 2


class TestReproduce:
    def test_cosh_small_alpha_exit_0(self, tmp_path):
        out = tmp_path / "r.csv"
        rc = main(["reproduce", "--alpha", "0.25", "--k", "2", "--basis", "cosh",
                   "--grid", "-5:5:21", "-o", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["x", "g", "f_b", "abs_err"]
        errs = [float(r[3]) for r in rows]
        gmax = max(abs(float(r[1])) for r in rows)
        assert max(errs) < 1e-6 * max(1.0, gmax)

    def test_defaults_do_not_leak_between_calls(self, tmp_path):
        # the parser is built once per process; each call keeps its own defaults
        data = tmp_path / "d.csv"
        data.write_text("j,b_j\n0,1.0\n")
        assert main(["interp", "--alpha", "1", "--k", "2", "--data", str(data),
                     "--tol", "1e-9", "-o", str(tmp_path / "i.csv")]) == 0
        out = tmp_path / "r.csv"
        assert main(["reproduce", "--alpha", "0.25", "--k", "2", "--basis", "cosh",
                     "--grid", "-5:5:21", "-o", str(out)]) == 0
        config = json.loads(out.with_suffix(".manifest.json").read_text())["config"]
        assert config["tol"] == 1e-6
        assert "data" not in config

    def test_power_ge_k_exit_2(self, tmp_path):
        rc = main(["reproduce", "--alpha", "1", "--k", "1", "--basis", "xexp+",
                   "--grid", "-2:2:5", "-o", str(tmp_path / "x.csv")])
        assert rc == 2

    @pytest.mark.parametrize("grid", NON_FINITE_GRIDS)
    def test_non_finite_grid_exit_2(self, tmp_path, grid):
        out = tmp_path / "x.csv"
        rc = main(["reproduce", "--alpha", "0.25", "--k", "2", "--basis", "cosh",
                   "--grid", grid, "-o", str(out)])
        assert rc == 2
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["800:900:3", "9.3e18:9.3e18:2", "700:709:3"])
    def test_basis_overflow_refused(self, tmp_path, capsys, grid):
        # cosh(x) overflows on the grid, or at window samples past its end
        # (cosh(711)): a typed refusal, not inf and NaN cells
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["reproduce", "--alpha", "1", "--k", "2", "--basis", "cosh",
                       "--grid", grid, "-o", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "overflows double precision" in err
        assert list(tmp_path.iterdir()) == []

    def test_unknown_basis_exit_2(self, tmp_path):
        rc = main(["reproduce", "--alpha", "1", "--k", "2", "--basis", "nosuch",
                   "--grid", "-2:2:5", "-o", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_divergent_exponential_exit_4(self, tmp_path):
        # at alpha=2, k=3 the interpolation series for sinh data diverges
        # (growth rate 2 vs decay rate ~1.155); surfaced as window overflow
        rc = main(["reproduce", "--alpha", "2", "--k", "3", "--basis", "sinh",
                   "--grid", "-5:5:21", "-o", str(tmp_path / "x.csv")])
        assert rc == 4

    @pytest.mark.parametrize("alpha,k,basis", [(0.425, 6, "cosh"), (0.652, 4, "sinh"),
                                               (0.512, 5, "cosh"), (0.36, 7, "cosh")])
    def test_divergence_band_exit_4(self, tmp_path, capsys, alpha, k, basis):
        # data growth alpha lies just above the exact decay rate r of L_k,
        # inside the bands where a fitted rate above r let the series through
        from cardspline import SplineParams, build_fundamental
        assert build_fundamental(SplineParams(alpha, k), 1e-10).env_rate <= alpha
        rc = main(["reproduce", "--alpha", str(alpha), "--k", str(k), "--basis", basis,
                   "--grid", "-5:5:101", "-o", str(tmp_path / "x.csv")])
        assert rc == 4
        assert "the interpolation series diverges" in capsys.readouterr().err

    @pytest.mark.xfail(strict=True, reason=(
        "the interpolation series for e^{2|j|}-growth data diverges at "
        "(alpha=2, k=3): decay rate 1.155 < 2 (decisions ledger); the run "
        "exits 4, not 0"))
    def test_divergent_exponential_spec_expectation(self, tmp_path):
        rc = main(["reproduce", "--alpha", "2", "--k", "3", "--basis", "sinh",
                   "--grid", "-5:5:21", "-o", str(tmp_path / "x.csv")])
        assert rc == 0

    def test_sinh_convergent_regime_exit_0(self, tmp_path):
        rc = main(["reproduce", "--alpha", "0.25", "--k", "3", "--basis", "sinh",
                   "--grid", "-5:5:21", "-o", str(tmp_path / "x.csv")])
        assert rc == 0

    def test_cosh_alpha1_gated_as_failure(self, tmp_path):
        # at alpha=1, k=2 the noise-capped windows land near 2e-3 at the grid
        # edges, above the 1e-6-scaled gate: surfaced as a reproduction failure
        out = tmp_path / "r.csv"
        rc = main(["reproduce", "--alpha", "1", "--k", "2", "--basis", "cosh",
                   "--grid", "-5:5:101", "-o", str(out)])
        assert rc == 1
        _, rows = read_csv(out)
        assert len(rows) == 101  # the error table is still written

    @pytest.mark.xfail(strict=True, reason=(
        "float64 wall: windowed cosh reproduction at (alpha=1, k=2) floors "
        "near 2e-3 absolute at the [-5,5] edges, above the 1e-6*cosh(5) gate "
        "(decisions ledger); the run exits 1, not 0"))
    def test_cosh_alpha1_spec_expectation(self, tmp_path):
        rc = main(["reproduce", "--alpha", "1", "--k", "2", "--basis", "cosh",
                   "--grid", "-5:5:101", "-o", str(tmp_path / "x.csv")])
        assert rc == 0


class TestEnvelopeUnderflow:
    """From alpha ~ 400, |L_k| underflows on the whole envelope grid
    [2, 15), so env_amplitude is 0: the windows keep one term each side,
    and every subcommand still runs."""

    @pytest.mark.parametrize("alpha", ["400", "700"])
    def test_interp(self, tmp_path, alpha):
        data = tmp_path / "d.csv"
        data.write_text("j,b_j\n-1,1.0\n0,1.0\n1,2.0\n2,0.5\n")
        out = tmp_path / "i.csv"
        assert main(["interp", "--alpha", alpha, "--k", "5", "--data", str(data),
                     "--grid", "0:2:5", "-o", str(out)]) == 0
        _, rows = read_csv(out)
        vals = [float(r[1]) for r in rows]
        assert vals[::2] == [1.0, 2.0, 0.5]
        assert all(0 < v < 1e-70 for v in vals[1::2])

    @pytest.mark.parametrize("alpha", ["400", "700"])
    def test_converge(self, tmp_path, alpha):
        out = tmp_path / "c.csv"
        assert main(["converge", "--alpha", alpha, "--k", "2..3", "--target", "sinc",
                     "-o", str(out)]) == 0
        _, rows = read_csv(out)
        assert [int(r[1]) for r in rows] == [2, 3]
        # L_k is all but the delta, so the interpolant misses sinc by ~1
        assert all(0.9 < float(r[3]) <= float(r[4]) for r in rows)

    @pytest.mark.parametrize("alpha", ["400", "700"])
    def test_eval_L_and_coeffs(self, tmp_path, alpha):
        out = tmp_path / "L.csv"
        assert main(["eval-L", "--alpha", alpha, "--k", "5", "--grid", "0:3:7",
                     "-o", str(out)]) == 0
        _, rows = read_csv(out)
        assert float(rows[0][1]) == 1.0 and float(rows[-1][1]) == 0.0
        assert main(["coeffs", "--alpha", alpha, "--k", "5",
                     "-o", str(tmp_path / "c.csv")]) == 0


class TestConverge:
    def test_sinc_sweep(self, tmp_path):
        out = tmp_path / "conv.csv"
        rc = main(["converge", "--alpha", "1", "--k", "1..4", "--target", "sinc",
                   "-o", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["alpha", "k", "target", "l2_error", "l2_bound",
                          "sup_error", "ell_trunc", "quad_res"]
        assert [int(r[1]) for r in rows] == [1, 2, 3, 4]
        errs = [float(r[3]) for r in rows]
        assert all(errs[i + 1] < errs[i] for i in range(3))
        for r in rows:
            assert float(r[4]) >= float(r[3])   # bound dominates

    def test_unknown_target_exit_2(self, tmp_path):
        rc = main(["converge", "--alpha", "1", "--k", "1..2", "--target",
                   "nosuch", "-o", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_unconverged_quadrature_exit_3(self, tmp_path, monkeypatch):
        from cardspline import cli
        from test_bandlimited import straddling_band
        monkeypatch.setattr(cli, "target_gallery", lambda name: straddling_band())
        rc = main(["converge", "--alpha", "1", "--k", "3", "--target", "half-band",
                   "-o", str(tmp_path / "conv.csv")])
        assert rc == 3

    def test_replica_power_underflow_refused(self, tmp_path, capsys):
        # T's lattice tolerance t_tol (pi^2 + alpha^2)^(-2k) / 4 underflows
        # from k = 28 at alpha = 700: a typed refusal (exit 3), not a
        # traceback (exit 1)
        out = tmp_path / "c.csv"
        assert main(["converge", "--alpha", "700", "--k", "1..30", "--target", "sinc",
                     "-o", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("cardspline: error: the replica power T at (alpha=700.0, "
                              "k=28) cannot be certified")
        assert err.count("\n") == 1 and "underflows double precision" in err
        assert list(tmp_path.iterdir()) == []
        for k, code in ((27, 0), (28, 3), (30, 3)):
            assert main(["converge", "--alpha", "700", "--k", str(k), "--target",
                         "half-band", "-o", str(out)]) == code

    def test_one_row_per_order(self, tmp_path):
        out = tmp_path / "conv.csv"
        rc = main(["converge", "--alpha", "1", "--k", "1..2", "--target",
                   "half-band", "-o", str(out)])
        assert rc == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["conv.csv", "conv.json", "conv.manifest.json"]
        doc = json.loads(out.with_suffix(".json").read_text())
        assert [r["k"] for r in doc["data"]["rows"]] == [1, 2]
        assert [r[1] for r in read_csv(out)[1]] == ["1", "2"]


class TestOrderRanges:
    """Commands that build one L_k refuse a range of orders; converge checks
    every order of its range before the first build."""

    DATA = "0,1\n1,0.5\n"

    @pytest.mark.parametrize("argv", [
        ["coeffs", "--alpha", "1"], ["eval-L", "--alpha", "1"],
        ["interp", "--alpha", "1", "--data", "{data}"],
        ["reproduce", "--alpha", "0.25", "--basis", "cosh"]])
    def test_range_refused_exit_2(self, tmp_path, capsys, argv):
        data = tmp_path / "b.csv"
        data.write_text(self.DATA)
        argv = [a.format(data=data) for a in argv]
        out = tmp_path / "x.csv"
        assert main(argv + ["--k", "3..5", "-o", str(out)]) == 2
        assert "takes one order" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [data]
        # a range of one order is that order
        assert main(argv + ["--k", "3..3", "-o", str(out)]) == 0

    def test_converge_checks_every_order_first(self, tmp_path, capsys, monkeypatch):
        from cardspline import cli
        builds = []
        monkeypatch.setattr(cli, "build_fundamental",
                            lambda params, tol: builds.append(params))
        rc = main(["converge", "--alpha", "1", "--k", "1..31", "--target", "sinc",
                   "-o", str(tmp_path / "c.csv")])
        assert rc == 2
        assert "got 31" in capsys.readouterr().err
        assert builds == [] and list(tmp_path.iterdir()) == []


class TestDomainRefusals:
    """Parameters the library cannot serve end in a typed refusal: exit 2,
    one stderr line and no file."""

    @pytest.mark.parametrize("argv", [["coeffs", "--alpha", "1e19", "--k", "1"],
                                      ["eval-L", "--alpha", "1e300", "--k", "2"]])
    def test_huge_alpha_exit_2(self, tmp_path, capsys, argv):
        # e^{-alpha} underflows decimal's exponent range from alpha ~ 2.3e18
        assert main(argv + ["-o", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "decimal exponent range" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("tol", ["nan", "0.05", "1e-15"])
    @pytest.mark.parametrize("argv", [["coeffs", "--alpha", "1"],
                                      ["eval-L", "--alpha", "1"],
                                      ["converge", "--alpha", "1", "--target", "sinc"]])
    def test_tol_outside_domain_exit_2(self, tmp_path, capsys, argv, tol):
        assert main(argv + ["--tol", tol, "-o", str(tmp_path / "x.csv")]) == 2
        assert "tol must lie in [1e-14, 1e-2]" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [["eval-L", "--alpha", "1e-5", "--k", "30"],
                                      ["eval-L", "--alpha", "1e-8", "--k", "19"]])
    def test_nan_cardinality_residual_exit_2(self, tmp_path, capsys, argv):
        # the synthesis overflows to NaN on the check grid, and a NaN
        # residual fails the check like one above 1e-4
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["-o", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == (
            "cardspline: error: cardinality check failed: max |L(j) - delta| = nan\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv,power", [
        (["eval-L", "--alpha", "1e-6", "--k", "30"], 59),
        (["converge", "--alpha", "1e-6", "--k", "30", "--target", "sinc"], 59),
        (["reproduce", "--alpha", "1e-300", "--k", "2", "--basis", "cosh"], 3),
        (["eval-L", "--alpha", "5e-324", "--k", "1"], 1),
        # alpha^-1 is finite here, but sqrt(pi/2) alpha^-1 is not
        (["eval-L", "--alpha", "6e-309", "--k", "1"], 1),
        (["interp", "--alpha", "6e-309", "--k", "1", "--data", "d.csv"], 1)])
    def test_kernel_coefficient_overflow_exit_2(self, tmp_path, capsys, monkeypatch,
                                                argv, power):
        # alpha^-(2k-1) leaves the double range before any table is built
        def no_table(*args, **kwargs):
            raise AssertionError("the coefficient table was built")

        monkeypatch.setattr(cardinal_interpolation, "compute_coefficients", no_table)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d.csv").write_text("j,b_j\n0,1\n")
        out = tmp_path / "out"
        out.mkdir()
        assert main(argv + ["-o", str(out / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("cardspline: error: ")
        assert f"alpha^-{power} overflows double precision" in err
        assert list(out.iterdir()) == []


    def test_unallocatable_grid_count_exit_2(self, tmp_path, capsys, monkeypatch):
        # 10^12 points lie above the grid cap, which refuses them before
        # numpy allocates anything
        def no_grid(*args, **kwargs):
            raise AssertionError("the grid was allocated")

        monkeypatch.setattr(np, "linspace", no_grid)
        out = tmp_path / "x.csv"
        assert main(["eval-L", "--alpha", "1", "--k", "2", "--grid", "0:1:1000000000000",
                     "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "cardspline: error: grid count 1000000000000 is too large\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["eval-L", "--alpha", "1", "--k", "3"],
        ["interp", "--alpha", "1", "--k", "3", "--data", "{data}"],
        ["reproduce", "--alpha", "0.25", "--k", "3", "--basis", "cosh"]])
    def test_grid_cap(self, tmp_path, capsys, monkeypatch, argv):
        # one point above the cap is refused before the grid is formed; the
        # cap itself is accepted
        from cardspline import cli
        data = tmp_path / "b.csv"
        data.write_text("j,b_j\n0,1.0\n1,2.0\n")
        argv = [a.format(data=data) for a in argv]
        out = tmp_path / "x.csv"
        monkeypatch.setattr(cli, "_GRID_BYTES", 100 * cli._BYTES_PER_POINT[argv[0]] + 99)
        with monkeypatch.context() as m:
            m.setattr(np, "linspace", lambda *a, **k: pytest.fail("the grid was allocated"))
            assert main(argv + ["--grid", "-2:2:101", "-o", str(out)]) == 2
        assert capsys.readouterr().err == "cardspline: error: grid count 101 is too large\n"
        assert list(tmp_path.iterdir()) == [data]
        assert main(argv + ["--grid", "-2:2:100", "-o", str(out)]) == 0
        assert len(read_csv(out)[1]) == 100

    @pytest.mark.parametrize("argv,data", [
        (["interp", "--grid", "1e19:2e19:2"], "j,b_j\n0,1.0\n1,2.0\n"),
        (["interp", "--grid", "9.3e18:9.3e18:2"], "j,b_j\n0,1.0\n1,2.0\n"),
        (["interp", "--grid", "0:1:3"], "j,b_j\n0,1.0\n1e19,2.0\n"),
        (["reproduce", "--basis", "xexp-", "--grid", "9.3e18:9.3e18:2"], None)])
    def test_index_outside_int64_exit_2(self, tmp_path, capsys, argv, data):
        # grid points past 2^61, or a data index past int64, are refused
        # before any index is formed
        if data is not None:
            (tmp_path / "d.csv").write_text(data)
            argv = argv + ["--data", str(tmp_path / "d.csv")]
        out = tmp_path / "x.csv"
        assert main(argv + ["--alpha", "1", "--k", "2", "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and ("2^61" in err or "int64" in err)
        assert not out.exists()


class TestCardinalityReport:
    """Each sidecar that uses L_k reports its cardinality residual; flagged
    builds (residual above 1e-8) are no longer silent.  CSVs and params are
    as before."""

    def test_eval_L_interp_and_reproduce(self, tmp_path):
        from cardspline import SplineParams, build_fundamental
        data = tmp_path / "d.csv"
        data.write_text("j,b_j\n0,1.0\n1,-2.0\n")
        runs = [
            (["eval-L", "--alpha", "1", "--k", "10", "--grid", "-3:3:13"],
             (1.0, 10, 1e-10), ["x", "L_k"]),
            (["interp", "--alpha", "1", "--k", "2", "--data", str(data),
              "--grid", "-3:3:13"], (1.0, 2, 1e-10), ["x", "f_b"]),
            (["reproduce", "--alpha", "0.25", "--k", "3", "--basis", "cosh"],
             (0.25, 3, 1e-10), ["x", "g", "f_b", "abs_err"]),
        ]
        for i, (argv, (alpha, k, tol), header) in enumerate(runs):
            out = tmp_path / f"o{i}.csv"
            assert main(argv + ["-o", str(out)]) == 0
            assert read_csv(out)[0] == header
            doc = json.loads(out.with_suffix(".json").read_text())
            assert doc["params"] == {"alpha": alpha, "k": k}
            L = build_fundamental(SplineParams(alpha, k), tol)
            assert doc["data"]["cardinality_error"] == L.cardinality_error
            assert doc["data"]["decay_rate"] == L.env_rate == L.table.decay_rate
            assert doc["data"]["cond_B"] == L.table.cond_B > 1.0
        flagged = json.loads((tmp_path / "o0.json").read_text())["data"]
        assert flagged["cardinality_error"] > 1e-8

    def test_converge_rows(self, tmp_path):
        from cardspline import SplineParams, build_fundamental
        out = tmp_path / "conv.csv"
        assert main(["converge", "--alpha", "2", "--k", "1..3", "--target", "sinc",
                     "-o", str(out)]) == 0
        assert read_csv(out)[0] == ["alpha", "k", "target", "l2_error", "l2_bound",
                                    "sup_error", "ell_trunc", "quad_res"]
        doc = json.loads(out.with_suffix(".json").read_text())
        assert doc["params"] == {"alpha": 2.0, "k": [1, 2, 3]}
        for row in doc["data"]["rows"]:
            L = build_fundamental(SplineParams(2.0, row["k"]), 1e-10)
            assert row["cardinality_error"] == L.cardinality_error
            assert row["decay_rate"] == L.env_rate
            assert row["cond_B"] == L.table.cond_B
        assert doc["data"]["rows"][0]["decay_rate"] is None     # k = 1

    def test_converge_rows_report_the_sup_window(self, tmp_path):
        # each row names its order's window J at the sup grid's edge x = 5;
        # the CSV keeps its columns
        from cardspline import GrowthModel, SplineParams, build_fundamental
        from cardspline.cardinal_interpolation import _solve_window
        out = tmp_path / "conv.csv"
        assert main(["converge", "--alpha", "1", "--k", "1..4", "--target", "half-band",
                     "-o", str(out)]) == 0
        assert len(read_csv(out)[0]) == 8
        rows = json.loads(out.with_suffix(".json").read_text())["data"]["rows"]
        assert [r["window"] for r in rows][0] == 1      # k = 1: compact support
        for row in rows[1:]:
            L = build_fundamental(SplineParams(1.0, row["k"]), 1e-10)
            assert row["window"] == _solve_window(L, 5, GrowthModel(), 1e-9,
                                                  clip_to_knee=True) > 1


def write_csv(path, header, columns):
    """The CSV of one run with these columns, as _emit writes it."""
    from argparse import Namespace
    from cardspline.cli import _emit
    _emit(Namespace(output=str(path)), "unused.csv", 1.0, 1, 1e-10, 0.0,
          {}, header, columns)


class TestWriters:
    def test_csv_bytes_pinned(self, tmp_path):
        # str columns pass through, numpy columns print as %.9e
        out = tmp_path / "t.csv"
        write_csv(out, ["alpha", "k", "target", "err"],
                  [np.array([1.0, 0.25]), ["1", "12"], ["half-band", "sinc"],
                   np.array([0.1118020563, -2.5e-300])])
        assert out.read_bytes() == (b"alpha,k,target,err\n"
                                    b"1.000000000e+00,1,half-band,1.118020563e-01\n"
                                    b"2.500000000e-01,12,sinc,-2.500000000e-300\n")
        write_csv(out, ["x"], [np.array([])])
        assert out.read_bytes() == b"x\n"

    def test_csv_bytes_pinned_above_the_small_input_size(self, tmp_path):
        # 640 float cells take the vectorized path: signed zero, ties, carries,
        # non-finite, subnormal and out-of-range values print as Python's %
        from cardspline._floattext import SMALL_INPUT
        rows = [(1.0, "1", 0.1118020563, b"1.000000000e+00,1,1.118020563e-01\n"),
                (0.25, "12", -2.5e-300, b"2.500000000e-01,12,-2.500000000e-300\n"),
                (-0.0, "a", np.nan, b"-0.000000000e+00,a,nan\n"),
                (9.9999999996, "bb", np.inf, b"1.000000000e+01,bb,inf\n"),
                (1.0000000005, "", -np.inf, b"1.000000001e+00,,-inf\n"),
                (-123.456, "x", 5e-324, b"-1.234560000e+02,x,4.940656458e-324\n"),
                (12345678905.0, "tie", 12345678915.0,
                 b"1.234567890e+10,tie,1.234567892e+10\n"),
                (1e280, "big", -9.9999999995e-281, b"1.000000000e+280,big,-9.999999999e-281\n")]
        rows *= 40
        assert 2 * len(rows) >= SMALL_INPUT
        out = tmp_path / "t.csv"
        write_csv(out, ["x", "label", "y"],
                  [np.array([r[0] for r in rows]), [r[1] for r in rows],
                   np.array([r[2] for r in rows])])
        assert out.read_bytes() == b"x,label,y\n" + b"".join(r[3] for r in rows)

    def test_one_formatting_call_per_run(self, tmp_path, monkeypatch):
        # x and L_k print as %.9e in the CSV and %.16e in the sidecar, from
        # one float_cells call that formats each array once
        import cardspline.cli as cli
        calls = []
        float_cells = cli.float_cells

        def counting(wanted):
            calls.append(sorted((len(a), P) for a, P in wanted))
            return float_cells(wanted)

        monkeypatch.setattr(cli, "float_cells", counting)
        out = tmp_path / "e.csv"
        assert main(["eval-L", "--alpha", "1", "--k", "3", "--grid", "-2:2:201",
                     "-o", str(out)]) == 0
        assert calls == [[(201, 9)] * 2 + [(201, 16)] * 2]
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["e.csv", "e.json", "e.manifest.json"]
        sidecar = json.loads(out.with_suffix(".json").read_text())
        grid = np.linspace(-2.0, 2.0, 201)
        assert [v.hex() for v in sidecar["data"]["x"]] == [v.hex() for v in grid.tolist()]
        _, rows = read_csv(out)
        assert [r[0] for r in rows] == ["%.9e" % v for v in grid.tolist()]
        assert [float(r[1]) for r in rows] == pytest.approx(sidecar["data"]["L_k"],
                                                            rel=1e-9, abs=0)

    def test_sidecar_and_manifest_are_one_json_line(self, tmp_path):
        out = tmp_path / "c.csv"
        assert main(["coeffs", "--alpha", "1", "--k", "2", "-o", str(out)]) == 0
        sidecar = out.with_suffix(".json").read_text()
        manifest = out.with_suffix(".manifest.json").read_text()
        for text in (sidecar, manifest):
            assert text.count("\n") == 1 and text.endswith("\n")
        assert json.loads(sidecar)["params"] == {"alpha": 1.0, "k": 2}
        assert json.loads(manifest)["outputs"] == ["c.csv", "c.json"]
        assert "format" not in json.loads(manifest)["config"]

    @pytest.mark.parametrize("output", ["L.json", "run.manifest.json", "L.JSON", "."])
    def test_output_its_sidecar_would_overwrite_exit_2(self, tmp_path, monkeypatch,
                                                        capsys, output):
        # the sidecar and manifest replace the output's suffix: an output
        # ending in .json would be overwritten by one of them, and one that
        # names no file has no suffix to replace; either is refused before
        # any work
        import cardspline.cli as cli
        monkeypatch.setattr(cli, "build_fundamental", None)
        monkeypatch.chdir(tmp_path)
        assert main(["eval-L", "--alpha", "1", "--k", "2", "--grid", "0:1:3",
                     "-o", output]) == 2
        assert capsys.readouterr().err == ("cardspline: error: --output must name a "
                                           f"file not ending in .json, got {output!r}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("blocked", ["run.json", "run.manifest.json"])
    def test_write_error_leaves_no_file(self, tmp_path, capsys, blocked):
        # a directory where the sidecar or the manifest goes: the run exits 2
        # and removes the files it wrote before the error
        (tmp_path / blocked).mkdir()
        assert main(["eval-L", "--alpha", "1", "--k", "2", "--grid", "0:1:3",
                     "-o", str(tmp_path / "run.csv")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("cardspline: error: ")
        assert [p.name for p in tmp_path.iterdir()] == [blocked]
        assert (tmp_path / blocked).is_dir()

    def test_write_error_keeps_files_it_did_not_open(self, tmp_path, monkeypatch):
        # a sidecar that cannot be opened is left as it was; the CSV this
        # run opened is removed
        import cardspline.cli as cli
        sidecar = tmp_path / "run.json"
        sidecar.write_text("kept")
        real_open = open

        def refusing(path, *args, **kwargs):
            if Path(path) == sidecar:
                raise PermissionError(13, "Permission denied", str(path))
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(cli, "open", refusing, raising=False)
        assert main(["eval-L", "--alpha", "1", "--k", "2", "--grid", "0:1:3",
                     "-o", str(tmp_path / "run.csv")]) == 2
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]
        assert sidecar.read_text() == "kept"


class TestExitCodeMap:
    """Each error type carries its CLI exit code, and main returns it."""

    CODES = [(CardsplineError, 2), (ParameterDomainError, 2), (UnknownTargetError, 2),
             (UnknownBasisError, 2), (DataFormatError, 2), (MissingDataError, 2),
             (QuadratureConvergenceError, 3), (ToleranceUnreachableError, 3),
             (WindowOverflowError, 4)]

    def test_mapping(self):
        assert [(cls, cls("x").exit_code) for cls, _ in self.CODES] == self.CODES

    def test_every_error_type_is_mapped(self):
        import cardspline.errors as errors
        declared = {cls for cls in vars(errors).values()
                    if isinstance(cls, type) and issubclass(cls, CardsplineError)}
        assert declared == {cls for cls, _ in self.CODES}

    @pytest.mark.parametrize("cls,code", CODES, ids=[c.__name__ for c, _ in CODES])
    def test_main_returns_it(self, tmp_path, monkeypatch, capsys, cls, code):
        import cardspline.cli as cli

        def refuse(params, tol):
            raise cls("refused")

        monkeypatch.setattr(cli, "compute_coefficients", refuse)
        out = tmp_path / "c.csv"
        assert main(["coeffs", "--alpha", "1", "--k", "2", "-o", str(out)]) == code
        assert capsys.readouterr().err == "cardspline: error: refused\n"
        assert list(tmp_path.iterdir()) == []


# `python -m` puts the working directory first on sys.path, so the child
# imports the package under test whether or not it is installed
PACKAGE_ROOT = Path(cardspline.__file__).resolve().parent.parent


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        rc = subprocess.run(
            [sys.executable, "-m", "cardspline.cli", "coeffs", "--alpha", "1",
             "--k", "1", "-o", str(tmp_path / "c.csv")],
            capture_output=True, text=True, cwd=PACKAGE_ROOT)
        assert rc.returncode == 0
        assert (tmp_path / "c.csv").exists()

    def test_version_flag(self):
        rc = subprocess.run([sys.executable, "-m", "cardspline.cli", "--version"],
                            capture_output=True, text=True, cwd=PACKAGE_ROOT)
        assert rc.returncode == 0
        assert "cardspline" in rc.stdout

    def test_cli_import_loads_no_scipy(self):
        # scipy serves only the test oracles; the command line must start
        # without it
        code = "import sys, cardspline.cli; print('scipy' in sys.modules)"
        rc = subprocess.run([sys.executable, "-c", code],
                            capture_output=True, text=True, cwd=PACKAGE_ROOT)
        assert rc.returncode == 0, rc.stderr
        assert rc.stdout.strip() == "False"
