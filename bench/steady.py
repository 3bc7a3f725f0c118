"""Steadiness check: run the benchmark once per seed and compare the spread
of every end-to-end metric with its bound in BENCHMARK.json.

    python3 bench/steady.py --workload build-eval --seeds 1-10 [--out FILE]

The spread of a metric is the distance between the first and third
quartiles of its values (statistics.quantiles, n=4) over their median.  A
metric passes when its spread stays within its bound (setup_s is exempt,
being measured across processes); the target is a third of the bound.
With --against FILE, the medians are also compared with an earlier
summary: none may be worse than the earlier one by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPREAD_EXEMPT = ("setup_s",)


def spread(values: list[float]) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def judge(values: dict[str, list[float]], spec: list[dict],
          earlier: dict[str, float] | None = None) -> dict[str, dict]:
    """Per metric: median, spread, bound and whether it passes."""
    out = {}
    for m in spec:
        vals = values[m["name"]]
        med = statistics.median(vals)
        row = {"median": med, "spread": spread(vals), "bound": m["bound"],
               "values": vals}
        ok = m["name"] in SPREAD_EXEMPT or row["spread"] <= m["bound"]
        if earlier is not None:
            prev = earlier[m["name"]]
            worse = (med - prev) / prev if m["better"] == "lower" else (prev - med) / prev
            row["worse_than_earlier"] = worse
            ok = ok and worse <= m["bound"]
        row["ok"] = ok
        row["within_third"] = row["spread"] <= m["bound"] / 3.0
        out[m["name"]] = row
    return out


def parse_seeds(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--out", type=Path)
    p.add_argument("--against", type=Path)
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = bench["end_to_end"]
    values: dict[str, list[float]] = {m["name"]: [] for m in spec}
    for seed in parse_seeds(args.seeds):
        cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: {result['failed']} failed ops")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + "  ".join(f"{k}={v[-1]:.5g}" for k, v in values.items()),
              flush=True)

    earlier = None
    if args.against:
        earlier = {k: v["median"] for k, v in
                   json.loads(args.against.read_text())["metrics"].items()}
    verdict = judge(values, spec, earlier)
    for name, row in verdict.items():
        extra = f"  worse {row['worse_than_earlier']:+.4f}" if earlier else ""
        print(f"{name:<14} median {row['median']:<12.6g} spread {row['spread']:.4f}"
              f"  bound {row['bound']}  {'ok' if row['ok'] else 'FAIL'}"
              f"{'' if row['within_third'] else '  (above a third of the bound)'}{extra}")
    if args.out:
        args.out.write_text(json.dumps({"workload": args.workload, "seeds": args.seeds,
                                        "metrics": verdict}, indent=2) + "\n")
    return 0 if all(row["ok"] for row in verdict.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
