"""The names bench/tracer.py wraps exist, and its install/uninstall round trip
leaves the package as it found it.

The benchmark's traced runs look up every (module, attribute) of the
tracer's SPANS table by name; a rename in the package would otherwise show
only there.  The tracer is loaded from its file, unchanged.
"""

import importlib.util
import sys
from pathlib import Path

import cardspline.cli as cli

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_state(spans) -> dict:
    """Every binding of every loaded cardspline module, and every class
    attribute the tracer wraps."""
    state = {(name, key): val for name, mod in sys.modules.items()
             if name.startswith("cardspline") for key, val in vars(mod).items()}
    for mod_name, attr, *_ in spans:
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(sys.modules[f"cardspline.{mod_name}"], cls_name)
            state[(cls, meth)] = cls.__dict__[meth]
    return state


def test_every_traced_name_is_wrapped_and_restored(tmp_path):
    tracer_mod = load_tracer()
    data = tmp_path / "d.csv"
    data.write_text("j,b_j\n-1,0.5\n0,1.0\n1,2.0\n2,-1.0\n")
    ops = [["coeffs", "--alpha", "1", "--k", "2"],
           ["eval-L", "--alpha", "1", "--k", "2", "--grid", "0:1:5"],
           ["interp", "--alpha", "1", "--k", "2", "--data", str(data), "--grid", "0:1:5"],
           ["reproduce", "--alpha", "0.25", "--k", "2", "--basis", "cosh",
            "--grid", "0:1:5"],
           ["converge", "--alpha", "2", "--k", "1..2", "--target", "sinc"]]
    before = package_state(tracer_mod.SPANS)
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        # every span found its target, module function or method
        for mod_name, attr, name, *_ in tracer_mod.SPANS:
            owner = sys.modules[f"cardspline.{mod_name}"]
            for part in attr.split("."):
                owner = getattr(owner, part)
            assert hasattr(owner, "__wrapped__"), name
        codes = [cli.main(argv + ["-o", str(tmp_path / f"op{i}.csv")])
                 for i, argv in enumerate(ops)]
    finally:
        tracer.uninstall()
    assert codes == [0] * len(ops)
    after = package_state(tracer_mod.SPANS)
    assert after.keys() == before.keys()
    assert all(after[key] is val for key, val in before.items())

    m = tracer.metrics()
    assert {r["name"] for r in tracer_mod.per_layer()} - set(m) == {
        "cli.bytes_written", "trace.overhead_frac", "trace.window_solve_share"}
    assert m["cli.main.calls"] == len(ops)
    assert m["cardinal_interpolation.build_fundamental.calls"] == 5   # 1 + 1 + 1 + 2
    assert m["spectral_symbol.compute_coefficients.calls"] == 6
    assert m["spectral_symbol.compute_coefficients.half_width_max"] > 1
    assert m["cardinal_interpolation.build_fundamental.cardinality_err_max"] < 1e-8
    assert m["cardinal_interpolation.window_solve.calls"] == 2       # one per converge row
    assert m["bandlimited_analysis.error_integrals.calls"] == 2
