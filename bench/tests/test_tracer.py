"""The tracer wraps every import site, nests spans and restores the library."""

from cardspline import bandlimited_analysis, cardinal_interpolation, cli
from tracer import Tracer, per_layer


def test_spans_cover_every_import_site_and_are_removed(tmp_path):
    solve = cardinal_interpolation._solve_window
    tracer = Tracer()
    tracer.install()
    try:
        assert bandlimited_analysis._solve_window is cardinal_interpolation._solve_window
        assert cardinal_interpolation._solve_window is not solve
        rc = cli.main(["converge", "--alpha", "2", "--k", "1..2", "--target", "sinc",
                       "-o", str(tmp_path / "c.csv")])
    finally:
        tracer.uninstall()
    assert rc == 0
    assert cardinal_interpolation._solve_window is solve
    assert bandlimited_analysis._solve_window is solve

    m = tracer.metrics()
    assert set(m) | {"cli.bytes_written", "trace.overhead_frac",
                     "trace.window_solve_share"} == {r["name"] for r in per_layer()}
    assert m["cli.main.calls"] == 1
    assert m["cardinal_interpolation.window_solve.calls"] >= 1      # via sup_error_grid
    assert m["bandlimited_analysis.error_integrals.calls"] == 2     # one per order
    for name, value in m.items():
        if name.endswith(".self_ms") and name != "cli.self_ms":
            assert -1e-6 <= value <= m[name[:-len("self_ms")] + "ms"] + 1e-6
    assert m["cli.main.self_ms"] < m["cli.main.ms"]
    assert m["bandlimited_analysis.busy_ms"] <= m["cli.main.ms"]
