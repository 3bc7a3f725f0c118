"""Command-line front end: flags, file formats, exit codes, determinism."""

import csv
import json
import subprocess
import sys
from pathlib import Path

import pytest

import cardspline
from cardspline.cli import main
from cardspline.errors import (DataFormatError, MissingDataError,
                               ParameterDomainError, QuadratureConvergenceError,
                               ToleranceUnreachableError, UnknownBasisError,
                               UnknownTargetError, WindowOverflowError)
from cardspline.cli import exit_code_for


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
        assert "decay_rate" in sidecar["data"]
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

    def test_json_only_format(self, tmp_path):
        out = tmp_path / "conv.csv"
        rc = main(["converge", "--alpha", "1", "--k", "1..2", "--target",
                   "half-band", "--format", "json", "-o", str(out)])
        assert rc == 0
        assert not out.exists()
        doc = json.loads(out.with_suffix(".json").read_text())
        assert len(doc["data"]["rows"]) == 2


class TestWriters:
    def test_csv_bytes_pinned(self, tmp_path):
        # str cells pass through, floats (numpy included) print as %.9e
        import numpy as np
        from cardspline.cli import _write_csv
        out = tmp_path / "t.csv"
        _write_csv(out, ["alpha", "k", "target", "err"],
                   [(1.0, "1", "half-band", 0.1118020563),
                    (0.25, "12", "sinc", np.float64(-2.5e-300))])
        assert out.read_bytes() == (b"alpha,k,target,err\n"
                                    b"1.000000000e+00,1,half-band,1.118020563e-01\n"
                                    b"2.500000000e-01,12,sinc,-2.500000000e-300\n")
        _write_csv(out, ["x"], [])
        assert out.read_bytes() == b"x\n"

    def test_sidecar_and_manifest_are_one_json_line(self, tmp_path):
        out = tmp_path / "c.csv"
        assert main(["coeffs", "--alpha", "1", "--k", "2", "-o", str(out)]) == 0
        sidecar = out.with_suffix(".json").read_text()
        manifest = out.with_suffix(".manifest.json").read_text()
        for text in (sidecar, manifest):
            assert text.count("\n") == 1 and text.endswith("\n")
        assert json.loads(sidecar)["params"] == {"alpha": 1.0, "k": 2}
        assert json.loads(manifest)["outputs"] == ["c.csv", "c.json"]


class TestExitCodeMap:
    def test_mapping(self):
        assert exit_code_for(ParameterDomainError("x")) == 2
        assert exit_code_for(UnknownTargetError("x")) == 2
        assert exit_code_for(UnknownBasisError("x")) == 2
        assert exit_code_for(DataFormatError("x")) == 2
        assert exit_code_for(MissingDataError("x")) == 2
        assert exit_code_for(QuadratureConvergenceError("x")) == 3
        assert exit_code_for(ToleranceUnreachableError("x")) == 3
        assert exit_code_for(WindowOverflowError("x")) == 4


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
