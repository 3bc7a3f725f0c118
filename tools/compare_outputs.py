"""Byte-compare the CLI outputs of two source trees on seeded benchmark rounds.

    python3 tools/compare_outputs.py OLD_SRC NEW_SRC [--seeds 1 2] [--rounds 2]

OLD_SRC and NEW_SRC are checkouts, or their `src` directories.  For each
tree one subprocess imports that tree's `cardspline` and runs, for every
seed and every workload, the given number of rounds of the op mix that
`bench/workloads.py` draws (the module is imported, not changed), and then
the fixed long-grid ops of `LONG_OPS`.  Both subprocesses write under the
same relative paths, so the data CSV and output paths echoed in sidecars
and manifests agree.

Then every file is compared: CSVs and data files byte for byte, JSON
sidecars and manifests as documents without their `wall_ms`, and each op's
exit code.  A sidecar key that only NEW writes is listed as added, not as a
difference; a key that NEW drops or a value that moves is a difference.
Where two documents agree and NEW adds no key, their text must agree too,
each `wall_ms` value blanked: spacing, key order or float text that parses
back to the same document is reported as "text differs".  A
CSV that differs but keeps its shape is reported by its moved cells, the
largest absolute move among them, and the largest relative move in each
column that moved.  Prints one line per difference, then
`ops N files N differ N`, and exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CODES = "exit_codes.json"
# one op of each command on a long grid (the interp data is drawn by
# bench/workloads.py from a fixed seed), then two paths no workload reaches:
# interp on a zero-filled table with gaps (every third index of -60..60,
# written by run_rounds), whose windows keep fewer entries than their width,
# and eval-L on integers only, one run longer than a synthesis block; run
# once per tree in `long/`
LONG_OPS = (
    ["eval-L", "--alpha", "1", "--k", "10", "--grid", "-50.03:49.97:100001"],
    ["interp", "--alpha", "1", "--k", "3", "--tol", "1e-9", "--data", "long/data.csv",
     "--grid", "-30.15:29.85:20001"],
    ["reproduce", "--alpha", "0.25", "--k", "3", "--basis", "xexp+",
     "--grid", "-5.3127:5.3127:5001"],
    ["converge", "--alpha", "1", "--k", "1..8", "--target", "sinc"],
    ["interp", "--alpha", "1", "--k", "3", "--tol", "1e-9", "--data", "long/gaps.csv",
     "--grid", "-70.15:69.85:1401"],
    ["eval-L", "--alpha", "1", "--k", "3", "--grid", "0:40000:40001"],
)


def run_op(cli, argv: list[str]) -> int | str:
    """The exit code of one op, or the type and message of an untyped
    exception."""
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except Exception as exc:   # noqa: BLE001 - compared, not raised
            return f"untyped {type(exc).__name__}: {exc}"


def run_rounds(seeds: list[int], rounds: int) -> None:
    """Run the seeded rounds and the long-grid ops in the current directory
    with the cardspline on sys.path, and record each op's exit code."""
    import numpy as np
    import workloads
    from cardspline import cli

    codes = {}
    for seed in seeds:
        for name in sorted(workloads.WORKLOADS):
            work = Path(f"s{seed}_{name}")
            work.mkdir()
            mix = workloads.Mix(name, seed, work)
            for r in range(rounds):
                for i, op in enumerate(mix.next_round()):
                    out = work / f"r{r}_op{i:02d}.csv"
                    codes[str(out)] = run_op(cli, op.argv + ["-o", str(out)])
    work = Path("long")
    work.mkdir()
    workloads.write_data(np.random.default_rng(0), work / "data.csv")
    (work / "gaps.csv").write_text(
        "j,b_j\n" + "".join(f"{j},{math.cos(j / 7)!r}\n" for j in range(-60, 61, 3)))
    for i, argv in enumerate(LONG_OPS):
        out = work / f"op{i}_{argv[0]}.csv"
        codes[str(out)] = run_op(cli, argv + ["-o", str(out)])
    Path(CODES).write_text(json.dumps(codes, sort_keys=True))


def source_dir(path: str) -> Path:
    p = Path(path).resolve()
    if (p / "src" / "cardspline").is_dir():
        p = p / "src"
    if not (p / "cardspline").is_dir():
        sys.exit(f"compare_outputs: no cardspline package in {path}")
    return p


def run_tree(src: Path, out: Path, seeds: list[int], rounds: int) -> None:
    out.mkdir()
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(map(str, (src, ROOT / "bench", ROOT / "tools"))))
    code = (f"import sys, compare_outputs, cardspline\n"
            f"if not cardspline.__file__.startswith({str(src)!r}):\n"
            f"    sys.exit('cardspline imported from ' + cardspline.__file__)\n"
            f"compare_outputs.run_rounds({seeds!r}, {rounds!r})\n")
    subprocess.run([sys.executable, "-c", code], cwd=out, env=env, check=True)


_WALL_MS = re.compile(r'("wall_ms": )[^,}]+')


def blank_wall_ms(text: str) -> str:
    return _WALL_MS.sub(r"\1null", text)


def without_wall_ms(doc):
    if isinstance(doc, dict):
        return {k: without_wall_ms(v) for k, v in doc.items() if k != "wall_ms"}
    if isinstance(doc, list):
        return [without_wall_ms(v) for v in doc]
    return doc


def compare_docs(old, new, path: str, added: list[str]) -> str | None:
    """The first path where new differs from old; keys only new has are
    appended to added."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in old:
            if key not in new:
                return f"{path}{key} dropped"
            bad = compare_docs(old[key], new[key], f"{path}{key}.", added)
            if bad:
                return bad
        added += [f"{path}{key}" for key in new if key not in old]
        return None
    if isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            return f"{path[:-1]} has {len(new)} entries, not {len(old)}"
        for a, b in zip(old, new):
            bad = compare_docs(a, b, f"{path[:-1]}[].", added)
            if bad:
                return bad
        return None
    # repr tells -0.0 from 0.0 and matches NaN with NaN
    if type(old) is not type(new) or repr(old) != repr(new):
        return f"{path[:-1]}: {old!r} -> {new!r}"
    return None


def csv_moves(old: str, new: str) -> str:
    """How a CSV moved: its moved cells, the largest absolute move among the
    numeric ones, and the largest relative move |new - old| / |old| in each
    column where a numeric cell moved, named by the header (inf where a
    value turns NaN, or moves off 0); or only that its bytes differ when its
    rows or columns do."""
    a, b = list(csv.reader(io.StringIO(old))), list(csv.reader(io.StringIO(new)))
    if [len(r) for r in a] != [len(r) for r in b]:
        return "bytes differ"
    largest, relative, moved = 0.0, {}, 0
    for ra, rb in zip(a, b):
        for i, (x, y) in enumerate(zip(ra, rb)):
            if x == y:
                continue
            moved += 1
            try:
                fx, fy = float(x), float(y)
            except ValueError:
                continue
            d = abs(fy - fx)
            d = d if d == d else math.inf
            largest = max(largest, d)
            r = d / abs(fx) if fx else (math.inf if d else 0.0)
            name = a[0][i] if i < len(a[0]) else str(i)
            relative[name] = max(relative.get(name, 0.0), r if r == r else math.inf)
    cells = sum(len(r) for r in a)
    line = f"{moved} of {cells} cells moved, largest move {largest:.3e}"
    if relative:
        line += "; largest relative move " + ", ".join(
            f"{name} {r:.3e}" for name, r in relative.items())
    return line


def compare_trees(old: Path, new: Path) -> tuple[int, int, list[str], Counter]:
    """(ops, files, differences, added keys) of two run directories."""
    diffs, added = [], Counter()
    codes_old = json.loads((old / CODES).read_text())
    codes_new = json.loads((new / CODES).read_text())
    for op in sorted(set(codes_old) | set(codes_new)):
        if codes_old.get(op) != codes_new.get(op):
            diffs.append(f"{op}: exit {codes_old.get(op)!r} -> {codes_new.get(op)!r}")
    names = {p.relative_to(root) for root in (old, new) for p in root.rglob("*")
             if p.is_file() and p.name != CODES}
    for name in sorted(names):
        a, b = old / name, new / name
        if not (a.exists() and b.exists()):
            diffs.append(f"{name}: only in {'old' if a.exists() else 'new'}")
        elif name.suffix == ".json":
            keys: list[str] = []
            text_a, text_b = a.read_text(), b.read_text()
            bad = compare_docs(without_wall_ms(json.loads(text_a)),
                               without_wall_ms(json.loads(text_b)), "", keys)
            if bad:
                diffs.append(f"{name}: {bad}")
            elif not keys and blank_wall_ms(text_a) != blank_wall_ms(text_b):
                diffs.append(f"{name}: text differs")
            added.update(set(keys))
        elif a.read_bytes() != b.read_bytes():
            diffs.append(f"{name}: " + (csv_moves(a.read_text(), b.read_text())
                                        if name.suffix == ".csv" else "bytes differ"))
    return len(codes_old), len(names), diffs, added


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("old", help="the reference checkout or its src directory")
    p.add_argument("new", help="the checkout under test or its src directory")
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    p.add_argument("--rounds", type=int, default=2)
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        runs = []
        for label, tree in (("old", args.old), ("new", args.new)):
            run_tree(source_dir(tree), Path(tmp) / label, args.seeds, args.rounds)
            runs.append(Path(tmp) / label)
        ops, files, diffs, added = compare_trees(*runs)
    for line in diffs:
        print(line)
    for key, n in sorted(added.items()):
        print(f"added {key} in {n} files")
    print(f"ops {ops} files {files} differ {len(diffs)}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
