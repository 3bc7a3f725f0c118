"""tools/compare_outputs.py: what counts as a difference between two runs."""

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import compare_outputs  # noqa: E402
from compare_outputs import compare_docs, compare_trees  # noqa: E402


def diff(old, new):
    added = []
    return compare_docs(old, new, "", added), added


def test_documents():
    assert diff({"a": 1.0, "b": [1, 2]}, {"a": 1.0, "b": [1, 2]}) == (None, [])
    assert diff({"a": 0.0}, {"a": -0.0})[0] == "a: 0.0 -> -0.0"
    assert diff({"a": float("nan")}, {"a": float("nan")})[0] is None
    assert diff({"a": 1}, {"a": 1.0})[0] == "a: 1 -> 1.0"
    assert diff({"a": 1, "b": 2}, {"a": 1})[0] == "b dropped"
    assert diff({"r": [1]}, {"r": [1, 2]})[0] == "r has 2 entries, not 1"
    got, added = diff({"d": {"rows": [{"k": 1}, {"k": 2}]}},
                      {"d": {"rows": [{"k": 1, "e": 0.5}, {"k": 2, "e": 0.5}]}, "x": 3})
    assert got is None
    assert sorted(set(added)) == ["d.rows[].e", "x"]
    assert diff({"d": {"rows": [{"k": 1}]}}, {"d": {"rows": [{"k": 2}]}})[0] == \
        "d.rows[].k: 1 -> 2"


def test_trees(tmp_path):
    def tree(name, codes, files):
        root = tmp_path / name
        root.mkdir()
        (root / "exit_codes.json").write_text(json.dumps(codes))
        for rel, text in files.items():
            (root / rel).write_text(text)
        return root

    old = tree("old", {"a.csv": 0, "b.csv": 4},
               {"a.csv": "x\n1\n", "a.json": '{"data": {"v": 1}, "wall_ms": 3.0}',
                "d.csv": "x,y\n0.5,1.25e-3\n1.5,-2e-3\n2.5,7\n",
                "e.csv": "x,y\n0,1\n", "f.txt": "a"})
    new = tree("new", {"a.csv": 0, "b.csv": 2},
               {"a.csv": "x\n2\n", "a.json": '{"data": {"v": 1, "e": 0}, "wall_ms": 9.0}',
                "c.csv": "", "d.csv": "x,y\n0.5,1.5e-3\n1.5,-2e-3\n2.5,nan\n",
                "e.csv": "x,y\n0,1\n1,2\n", "f.txt": "b"})
    ops, files, diffs, added = compare_trees(old, new)
    assert (ops, files) == (2, 6)
    assert diffs == ["b.csv: exit 4 -> 2",
                     "a.csv: 1 of 2 cells moved, largest move 1.000e+00",
                     "c.csv: only in new",
                     "d.csv: 2 of 8 cells moved, largest move inf",
                     "e.csv: bytes differ", "f.txt: bytes differ"]
    assert added == {"data.e": 1}


def test_every_difference_is_printed(tmp_path, monkeypatch, capsys):
    old, new = tmp_path / "old", tmp_path / "new"
    for root, v in ((old, 1), (new, 2)):
        root.mkdir()
        (root / "exit_codes.json").write_text("{}")
        for i in range(25):
            (root / f"r{i:02d}.csv").write_text(f"x\n{v}\n")

    # each "tree" is already a run directory: copy it instead of running it
    monkeypatch.setattr(compare_outputs, "source_dir", Path)
    monkeypatch.setattr(compare_outputs, "run_tree",
                        lambda src, out, seeds, rounds: shutil.copytree(src, out))
    assert compare_outputs.main([str(old), str(new)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 26 and lines[-1] == "ops 0 files 25 differ 25"


def test_document_text(tmp_path):
    # documents that parse the same but print differently, and ones that
    # differ only in wall_ms or add a key, which the text check skips
    same = '{"data": {"v": 1.5}, "manifest": {"wall_ms": 3.25}}'
    texts = {"a.json": '{"data": {"v": 1.5}, "manifest": {"wall_ms": 9.5e-05}}',
             "b.json": '{"data": {"v": 1.50}, "manifest": {"wall_ms": 3.25}}',
             "c.json": '{"manifest": {"wall_ms": 3.25}, "data": {"v": 1.5}}',
             "d.json": '{"data": {"v":1.5}, "manifest": {"wall_ms": 3.25}}',
             "e.json": '{"data": {"v": 1.5, "w": 2}, "manifest": {"wall_ms": 1}}'}
    for label, files in (("old", {name: same for name in texts}), ("new", texts)):
        root = tmp_path / label
        root.mkdir()
        (root / "exit_codes.json").write_text("{}")
        for name, text in files.items():
            (root / name).write_text(text)
    _, files, diffs, added = compare_trees(tmp_path / "old", tmp_path / "new")
    assert files == 5
    assert diffs == ["b.json: text differs", "c.json: text differs", "d.json: text differs"]
    assert added == {"data.w": 1}


def test_long_grid_ops(tmp_path, monkeypatch):
    # run once per tree after the seeded rounds, on grids of thousands of
    # points, and on a data table with gaps that run_rounds writes
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    monkeypatch.chdir(tmp_path)
    compare_outputs.run_rounds([], 0)
    codes = json.loads((tmp_path / "exit_codes.json").read_text())
    names = [f"long/op{i}_{argv[0]}.csv" for i, argv in enumerate(compare_outputs.LONG_OPS)]
    assert codes == dict.fromkeys(names, 0)
    rows = [len((tmp_path / name).read_text().splitlines()) - 1 for name in names]
    assert rows == [100_001, 20_001, 5_001, 8, 1_401, 40_001]
    assert len((tmp_path / "long/gaps.csv").read_text().splitlines()) == 42
