"""The oracles pass real CLI output and catch a deliberately wrong one."""

import json

import numpy as np
import pytest

import checks
from cardspline import cli
from workloads import Op, _gridded


def run_op(op, tmp_path):
    stem = tmp_path / "op.csv"
    rc = cli.main(op.argv + ["-o", str(stem)])
    return rc, stem


def edit_sidecar(stem, fn):
    path = stem.with_suffix(".json")
    doc = json.loads(path.read_text())
    fn(doc["data"])
    path.write_text(json.dumps(doc))


def edit_csv_column(stem, column, row, delta):
    path = stem.with_suffix(".csv")
    lines = path.read_text().splitlines()
    i = lines[0].split(",").index(column)
    cells = lines[row + 1].split(",")
    cells[i] = repr(float(cells[i]) + delta)
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_coeffs_k1_closed_form(tmp_path):
    op = Op("coeffs", 1.0, (1,))
    rc, stem = run_op(op, tmp_path)
    assert checks.check(op, rc, stem, {}) is None
    edit_sidecar(stem, lambda d: d["coeffs"].update({"0": d["coeffs"]["0"] * (1 + 1e-6)}))
    assert "closed form" in checks.check(op, rc, stem, {})


def test_coeffs_lattice_sum_reference(tmp_path):
    op = Op("coeffs", 1.0, (3,))
    rc, stem = run_op(op, tmp_path)
    assert checks.check(op, rc, stem, {}) is None
    edit_sidecar(stem, lambda d: d["coeffs"].update({"5": d["coeffs"]["5"] + 1e-7}))
    assert "reference" in checks.check(op, rc, stem, {})


def test_eval_L_k1_closed_form(tmp_path):
    op = _gridded("eval-L", 1.0, 1, -2, 2, 41, 0)
    rc, stem = run_op(op, tmp_path)
    assert checks.check(op, rc, stem, {}) is None
    edit_sidecar(stem, lambda d: d["L_k"].__setitem__(25, d["L_k"][25] + 1e-6))
    assert "sinh" in checks.check(op, rc, stem, {})


def test_eval_L_delta_strict_and_flagged(tmp_path):
    op = _gridded("eval-L", 1.0, 3, -3, 3, 61, 0, wall="flagged")
    rc, stem = run_op(op, tmp_path)
    assert checks.check(op, rc, stem, {}) is None
    edit_sidecar(stem, lambda d: d["L_k"].__setitem__(40, 5e-5))     # x = 1
    assert "delta" in checks.check(op, rc, stem, {})
    assert checks.check(op, rc, stem, {}, strict=False) is None
    edit_sidecar(stem, lambda d: d["L_k"].__setitem__(40, 2e-4))
    assert checks.check(op, rc, stem, {}, strict=False) is not None


def test_interp_returns_samples_at_integers(tmp_path):
    data = {j: (1.0 + abs(j)) ** 1.5 * (-1) ** j for j in range(-40, 41)}
    csv = tmp_path / "data.csv"
    csv.write_text("j,b_j\n" + "".join(f"{j},{b!r}\n" for j, b in data.items()))
    op = _gridded("interp", 1.0, 2, -5, 5, 101, 0, ("--data", str(csv)))
    rc, stem = run_op(op, tmp_path)
    assert checks.check(op, rc, stem, data) is None
    edit_sidecar(stem, lambda d: d["f_b"].__setitem__(60, d["f_b"][60] * 1.001))   # x = 1
    assert "sample" in checks.check(op, rc, stem, data)


def test_reproduce_against_exact_basis(tmp_path):
    op = _gridded("reproduce", 0.25, 2, -5, 5, 101, 0, ("--basis", "xexp-"), basis="xexp-")
    rc, stem = run_op(op, tmp_path)
    assert checks.check(op, rc, stem, {}) is None
    edit_csv_column(stem, "f_b", 30, 1e-3)
    assert "gate" in checks.check(op, rc, stem, {})


def test_reproduce_wall_is_reported_truthfully(tmp_path):
    op = _gridded("reproduce", 0.25, 4, -5, 5, 101, 0, ("--basis", "x2exp+"),
                  basis="x2exp+", wall="gate trips")
    rc, stem = run_op(op, tmp_path)
    assert rc == 1
    assert checks.check(op, rc, stem, {}) is not None
    assert checks.check(op, rc, stem, {}, strict=False) is None
    # a run that claims failure while its output meets the gate is no wall
    exact = checks.basis_exact("x2exp+", 0.25, np.linspace(-5, 5, 101))
    lines = stem.with_suffix(".csv").read_text().splitlines()
    body = [",".join([ln.split(",")[0], ln.split(",")[1], repr(g), "0"])
            for ln, g in zip(lines[1:], exact)]
    stem.with_suffix(".csv").write_text("\n".join([lines[0], *body]) + "\n")
    assert checks.check(op, rc, stem, {}, strict=False) is not None


def test_converge_rows(tmp_path):
    op = Op("converge", 2.0, (1, 2, 3), extra=("--target", "sinc"))
    rc, stem = run_op(op, tmp_path)
    assert checks.check(op, rc, stem, {}) is None

    def stall(d):
        d["rows"][2]["l2_error"] = d["rows"][1]["l2_error"]
        d["rows"][2]["l2_bound"] = d["rows"][1]["l2_bound"]
    edit_sidecar(stem, stall)
    assert "does not fall" in checks.check(op, rc, stem, {})
    edit_sidecar(stem, lambda d: d["rows"][0].update(l2_bound=d["rows"][0]["l2_error"] * 0.9))
    assert "out of" in checks.check(op, rc, stem, {})


@pytest.mark.parametrize("may_refuse, verdict", [(True, None), (False, "exit 2")])
def test_refusal_passes_only_at_the_domain_edge(tmp_path, may_refuse, verdict):
    op = Op("coeffs", 0.25, (8,), may_refuse=may_refuse)
    assert checks.check(op, 2, tmp_path / "missing.csv", {}) == verdict


def test_missing_output_fails(tmp_path):
    op = Op("coeffs", 1.0, (1,))
    assert "unreadable" in checks.check(op, 0, tmp_path / "missing.csv", {})
