"""Closed-loop benchmark of the cardspline command line.

    python3 bench/run.py --workload interp-dense --seed 1 --seconds 30 --trace 0

One client, one process: ops are `cardspline.cli.main(argv)` calls made
in-process, each sent after the previous one returns.  The seed makes the
inputs (argv and a `j,b_j` data CSV, see workloads.py); every op is timed,
then checked against an oracle that does not share its code path
(checks.py).  Whole rounds of the workload's op mix run until --seconds
have passed, after one untimed warm-up round.

--trace 0 reports the end-to-end metrics.  setup_s is the median, over
fresh interpreters spawned between rounds, of the time from process start
to the first op ready (import plus argument parser).  The timings price the
round's op mix at each op cell's fastest wall time in the run (see
end_to_end): op_p50_ms is the median and op_tail_ms the p90 of that mix, and
the throughputs are a round's work per second spent inside cli.main, so the
oracle checks do not dilute them.  The plain median and p90 of every op's
wall time go in the record beside them.  op_pass_frac is the share of ops
that pass their oracle, 1 - op_fail_frac.

--trace 1 runs each op of a fixed number of rounds twice, untraced and with
every public library function wrapped by tracer.py, so that call and point
counts repeat exactly for a seed, and reports the per-layer metrics and the
tracing overhead.  Spans go to .bench_out/spans_<workload>_s<seed>.jsonl,
and every run's full record to .bench_out/BENCH_<workload>_s<seed>_t<trace>.json.

Ops that run into a documented wall (workloads.py) and miss their oracle in
the documented way count in op_fail_frac but not as failed; any other miss,
a wrong exit code or an untyped exception counts as failed.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import os

# the plain single-threaded baseline, identical on every commit measured
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ.pop("CARDSPLINE_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SPAWNS = 7
# op_tail_ms: nearest-rank percentile of the round's op mix (the slowest op
# of the four-op converge round)
TAIL_PERCENTILE = 90.0
# rounds of a traced run, each op run twice: fixed, so that per-layer counts
# repeat exactly for a seed
TRACE_ROUNDS = {"interp-dense": 2, "converge-sweep": 3, "build-eval": 4}

END_TO_END_UNITS = {
    "setup_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms", "ops_per_s": "1/s",
    "points_per_s": "1/s", "rows_per_s": "1/s", "op_pass_frac": "1",
    "peak_rss_mb": "MB",
}

_SETUP_CHILD = (
    "import sys, io, contextlib\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from cardspline import cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    cli.main(['--version'])\n"
    "print('ready', flush=True)\n"
)


@dataclass
class Sample:
    op: workloads.Op
    ms: float
    rc: int | None
    outcome: str          # ok | wall | failed
    reason: str | None
    bytes_written: int


def import_cli():
    """The checkout's own cardspline, never an installed copy."""
    sys.path.insert(0, str(SRC))
    try:
        from cardspline import cli
    except ImportError as exc:
        sys.exit(f"bench: cannot import cardspline from {SRC}: {exc}")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"bench: cardspline resolved to {cli.__file__}, outside {SRC}")
    return cli


def execute(cli, op, stem: Path, data: dict) -> Sample:
    outputs = [stem.with_suffix(s) for s in (".csv", ".json", ".manifest.json")]
    for p in outputs:
        p.unlink(missing_ok=True)
    argv = op.argv + ["-o", str(stem)]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception as exc:   # an untyped exception fails the op only
            rc, reason = None, f"untyped {type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
    written = sum(p.stat().st_size for p in outputs if p.exists())
    if rc is None:
        return Sample(op, (t1 - t0) * 1e3, rc, "failed", reason, written)
    outcome, reason = "ok", checks.check(op, rc, stem, data)
    if reason is not None:
        outcome = "failed"
        if op.wall and checks.check(op, rc, stem, data, strict=False) is None:
            outcome, reason = "wall", f"{op.wall}: {reason}"
    if reason and rc != 0:
        reason += f" [{err.getvalue().strip()[-200:]}]"
    return Sample(op, (t1 - t0) * 1e3, rc, outcome, reason, written)


def time_setup() -> float:
    """Seconds from spawning an interpreter until it has imported the CLI and
    built its parser."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", _SETUP_CHILD, str(SRC)],
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        t = time.perf_counter() - t0
        proc.stdout.read()
        if proc.wait(timeout=60) != 0 or line.strip() != "ready":
            sys.exit("bench: set-up child failed")
    return t


def openblas_info() -> dict:
    """OpenBLAS version from numpy's build record, thread count from the
    library numpy loaded."""
    info = {"version": None, "threads": None}
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        info["version"] = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError):
        pass
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                info["threads"] = int(getattr(lib, sym)())
                return info
    return info


def environment() -> dict:
    import scipy
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "openblas": openblas_info(),
            "nproc": os.cpu_count(), "machine": platform.machine(),
            "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"]}


def nearest_rank(ordered: list[float], pct: float) -> float:
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def end_to_end(rounds: list[list[Sample]], setup: list[float]) -> tuple[dict, dict]:
    """The round's op mix priced at each op cell's fastest time in the run.

    Only whole rounds run, so every cell ran the same number of times per
    round.  A cell's cost is its fastest time: the host's speed drifts by a
    quarter or more over minutes, which moves medians between runs far more
    than an op's own variation does, and interference only ever adds time.
    The latencies are order statistics of the round's mix of costs, the
    throughputs a round's work over its summed costs.
    """
    samples = [s for r in rounds for s in r]
    cells: dict[str, list[Sample]] = {}
    for s in samples:
        cells.setdefault(s.op.cell, []).append(s)
    cost = {c: min(s.ms for s in ss) for c, ss in cells.items()}
    per_round = {c: len(ss) // len(rounds) for c, ss in cells.items()}

    def emitted(count):
        """Per cell, the work an op emits, averaged over its runs."""
        return {c: statistics.fmean(count(s.op) if s.rc in (0, 1) else 0 for s in ss)
                for c, ss in cells.items()}

    round_s = sum(per_round[c] * cost[c] for c in cells) / 1e3
    mix = sorted(cost[c] for c in cells for _ in range(per_round[c]))

    def per_s(work):
        return sum(per_round[c] * work[c] for c in cells) / round_s

    values = {
        "setup_s": statistics.median(setup),
        "op_p50_ms": statistics.median(mix),
        "op_tail_ms": nearest_rank(mix, TAIL_PERCENTILE),
        "ops_per_s": per_s({c: 1.0 for c in cells}),
        "points_per_s": per_s(emitted(lambda op: op.points)),
        "rows_per_s": per_s(emitted(lambda op: op.rows)),
        "op_pass_frac": sum(s.outcome == "ok" for s in samples) / len(samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    ms = sorted(s.ms for s in samples)
    detail = {
        "samples": {k: (len(setup) if k == "setup_s" else 1 if k == "peak_rss_mb"
                        else len(samples)) for k in values},
        "op_tail_percentile": TAIL_PERCENTILE,
        "op_fail_frac": 1.0 - values["op_pass_frac"],
        # the plain order statistics of every op's wall time, for reference
        "all_ops_p50_ms": statistics.median(ms),
        "all_ops_p90_ms": nearest_rank(ms, TAIL_PERCENTILE),
        "cell_cost_ms": dict(sorted(cost.items())),
    }
    return values, detail


def cell_medians(samples: list[Sample]) -> dict:
    """Per op cell (argv without its seeded parts): count and median ms."""
    cells: dict[str, list[float]] = {}
    for s in samples:
        cells.setdefault(s.op.cell, []).append(s.ms)
    return {c: {"n": len(v), "p50_ms": statistics.median(v)} for c, v in sorted(cells.items())}


def outcome_summary(samples: list[Sample]) -> dict:
    counts = {o: sum(s.outcome == o for s in samples) for o in ("ok", "wall", "failed")}
    reasons: dict[str, int] = {}
    for s in samples:
        if s.reason:
            key = f"{s.op.cell} -> {s.outcome}: {s.reason}"
            reasons[key] = reasons.get(key, 0) + 1
    return {"counts": counts, "misses": reasons}


def traced_run(run_op, ops: list, workload: str, seed: int) -> tuple[dict, list[Sample]]:
    """Each op twice, untraced and traced, alternating which goes first so
    that drift in machine speed does not bias the overhead."""
    from tracer import Tracer, per_layer
    tracer = Tracer()
    base, traced = [], []
    for i, op in enumerate(ops):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if not with_trace:
                base.append(run_op(op))
                continue
            tracer.op_id = i
            tracer.install()
            try:
                traced.append(run_op(op))
            finally:
                tracer.uninstall()
    metrics = tracer.metrics()
    metrics["cli.bytes_written"] = sum(s.bytes_written for s in traced)
    metrics["trace.overhead_frac"] = (statistics.median(s.ms for s in traced)
                                      / statistics.median(s.ms for s in base) - 1.0)
    metrics["trace.window_solve_share"] = (
        metrics["cardinal_interpolation.window_solve.ms"] / metrics["cli.main.ms"])
    tracer.dump(OUT / f"spans_{workload}_s{seed}.jsonl")
    return {m["name"]: (metrics[m["name"]], m["unit"]) for m in per_layer()}, base + traced


def timed_run(run_op, mix, seconds: float) -> tuple[list[list[Sample]], list[float]]:
    """Whole rounds until `seconds` of run time have passed, with the set-up
    spawns spread evenly over the run (their time not counted in it), so
    that every metric samples the same stretch of machine time."""
    rounds, setup = [], []
    start, paused = time.perf_counter(), 0.0
    while not rounds or time.perf_counter() - start - paused < seconds:
        if time.perf_counter() - start - paused >= len(setup) * seconds / SETUP_SPAWNS:
            t0 = time.perf_counter()
            setup.append(time_setup())
            paused += time.perf_counter() - t0
        rounds.append([run_op(op) for op in mix.next_round()])
    while len(setup) < SETUP_SPAWNS:
        setup.append(time_setup())
    return rounds, setup


def run(args) -> dict:
    cli = import_cli()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="ops-") as work:
        return measure(cli, args, Path(work))


def measure(cli, args, work: Path) -> dict:
    mix = workloads.Mix(args.workload, args.seed, work)

    def run_op(op):
        return execute(cli, op, work / "op.csv", mix.data)

    for op in mix.next_round():                         # warm-up, not counted
        run_op(op)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": environment()}
    if args.trace:
        rounds = TRACE_ROUNDS[args.workload]
        metrics, samples = traced_run(
            run_op, [op for _ in range(rounds) for op in mix.next_round()],
            args.workload, args.seed)
        record["rounds"] = rounds
    else:
        rounds, setup = timed_run(run_op, mix, args.seconds)
        samples = [s for r in rounds for s in r]
        values, detail = end_to_end(rounds, setup)
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
        record.update(rounds=len(rounds), setup_spawns_s=setup, **detail)
    record["ops"] = len(samples)
    record["outcomes"] = outcome_summary(samples)
    record["cells"] = cell_medians(samples)
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (OUT / f"BENCH_{args.workload}_s{args.seed}_t{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
    return record


def print_summary(record: dict) -> None:
    env = record["environment"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}"
          f"  rounds {record['rounds']}  ops {record['ops']}")
    print(f"  python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}"
          f"  {env['openblas']['version']} threads {env['openblas']['threads']}"
          f"  nproc {env['nproc']}")
    samples = record.get("samples", {})
    for name, m in record["metrics"].items():
        n = f"  (n={samples[name]})" if name in samples else ""
        print(f"  {name:<58} {m['value']:>14.6g} {m['unit']}{n}")
    if "op_tail_percentile" in record:
        print(f"  {'op_fail_frac':<58} {record['op_fail_frac']:>14.6g} 1"
              f"  (n={samples['op_pass_frac']})")
        print(f"  op_tail_ms is the p{record['op_tail_percentile']:.1f} op time")
    counts = record["outcomes"]["counts"]
    print(f"  outcomes: {counts['ok']} ok, {counts['wall']} on a documented wall,"
          f" {counts['failed']} failed")
    for reason, times in record["outcomes"]["misses"].items():
        print(f"    {times} x {reason}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    record = run(args)
    print_summary(record)
    failed = record["outcomes"]["counts"]["failed"]
    print(json.dumps({
        "correct": failed == 0, "attempted": record["ops"], "failed": failed,
        "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
