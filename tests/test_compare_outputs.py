"""tools/compare_outputs.py: what counts as a difference between two runs."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

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
               {"a.csv": "x\n1\n", "a.json": '{"data": {"v": 1}, "wall_ms": 3.0}'})
    new = tree("new", {"a.csv": 0, "b.csv": 2},
               {"a.csv": "x\n2\n", "a.json": '{"data": {"v": 1, "e": 0}, "wall_ms": 9.0}',
                "c.csv": ""})
    ops, files, diffs, added = compare_trees(old, new)
    assert (ops, files) == (2, 3)
    assert diffs == ["b.csv: exit 4 -> 2", "a.csv: bytes differ", "c.csv: only in new"]
    assert added == {"data.e": 1}
