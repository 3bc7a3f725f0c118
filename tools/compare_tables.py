"""Compare the coefficient tables of two source trees cell by cell.

    python3 tools/compare_tables.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are checkouts, or their `src` directories.  For each
tree one subprocess imports that tree's `cardspline` and calls
`compute_coefficients(SplineParams(alpha, k), 1e-10)` on 480 cells, alpha in
{0.05, 0.1, 0.25, 0.5, 1, 2, 4, 6, 10, 50, 140, 400, 700, 1e3, 1e4, 1e5}
times k = 1..30.  A cell is its coefficient bytes, J, tail bound, decay
rate, amplitude and cond_B, or the type and message of its refusal.

Prints each cell that differs, then `cells N refused N differ N`, and exits
1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ALPHAS = (0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 6.0, 10.0, 50.0, 140.0, 400.0,
          700.0, 1e3, 1e4, 1e5)
ORDERS = range(1, 31)
TOL = 1e-10


def table_cells() -> dict:
    """Each cell "alpha,k" of the sweep with the cardspline on sys.path:
    its table fields (floats as hex, so equal means bitwise equal) or its
    refusal."""
    from cardspline import SplineParams
    from cardspline.spectral_symbol import compute_coefficients

    cells = {}
    for alpha in ALPHAS:
        for k in ORDERS:
            try:
                t = compute_coefficients(SplineParams(alpha, k), TOL)
            except Exception as exc:   # noqa: BLE001 - compared, not raised
                cells[f"{alpha!r},{k}"] = {"refused": f"{type(exc).__name__}: {exc}"}
                continue
            cells[f"{alpha!r},{k}"] = {
                "coeffs": t.coeffs.tobytes().hex(), "J": t.half_width,
                **{name: float(getattr(t, name)).hex() for name in
                   ("tail_bound", "decay_rate", "decay_amplitude", "cond_B")}}
    return cells


def source_dir(path: str) -> Path:
    p = Path(path).resolve()
    if (p / "src" / "cardspline").is_dir():
        p = p / "src"
    if not (p / "cardspline").is_dir():
        sys.exit(f"compare_tables: no cardspline package in {path}")
    return p


def run_tree(src: Path, out: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, (src, Path(__file__).parent))))
    code = (f"import json, sys, compare_tables, cardspline\n"
            f"if not cardspline.__file__.startswith({str(src)!r}):\n"
            f"    sys.exit('cardspline imported from ' + cardspline.__file__)\n"
            f"open({str(out)!r}, 'w').write(json.dumps(compare_tables.table_cells()))\n")
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    return json.loads(out.read_text())


def compare_cells(old: dict, new: dict) -> list[str]:
    """One line per cell whose fields differ, naming the fields, and the
    refusals where one side refused."""
    diffs = []
    for cell in sorted(old.keys() | new.keys()):
        a, b = old.get(cell, {}), new.get(cell, {})
        fields = sorted(f for f in a.keys() | b.keys() if a.get(f) != b.get(f))
        if fields:
            line = f"({cell}): {', '.join(fields)} differ"
            if "refused" in fields:
                line += f": {a.get('refused', 'table')} -> {b.get('refused', 'table')}"
            diffs.append(line)
    return diffs


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("old", help="the reference checkout or its src directory")
    p.add_argument("new", help="the checkout under test or its src directory")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="compare_tables_") as tmp:
        old, new = (run_tree(source_dir(tree), Path(tmp) / f"{label}.json")
                    for label, tree in (("old", args.old), ("new", args.new)))
    diffs = compare_cells(old, new)
    for line in diffs:
        print(line)
    refused = sum("refused" in c for c in new.values())
    print(f"cells {len(new)} refused {refused} differ {len(diffs)}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
