"""Benchmark of the qeuler package, run from the root of a checkout.

    python3 bench/run.py --workload zeta --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --all              # every workload of BENCHMARK.json, in turn
    python3 bench/run.py --write-manifest   # regenerate BENCHMARK.json

Every run starts fresh interpreters one at a time, so qeuler's module caches
start empty as they do for every `qeuler` command:

* ``--trace 0`` times set-up (spawn to ``import qeuler``, median of spawns
  spread over the run, after one that warms the bytecode cache), runs the seed's
  fixed block of the workload's op stream again and again, each time in a
  fresh child, for ``--seconds`` of op time in all (at least three times),
  and reports the end-to-end metrics from each op's fastest repetition;
* ``--trace 1`` runs a fixed number of ops three times -- untraced, traced
  and under tracemalloc -- and reports the per-layer metrics.

The first ops of each run are checked against independent references
(bench/reference.py).  The last line of output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import inputs  # noqa: E402
import spec  # noqa: E402

# Set-up is timed once after each repetition, and at least this often.
SETUP_SPAWNS = 9
# Repetitions of a timed block: at least MIN_REPEATS, then more until the
# run has spent --seconds on ops.
MIN_REPEATS = 3
MAX_REPEATS = 40
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def spawn(config: dict, timeout: float = CHILD_TIMEOUT_S) -> tuple[dict, float]:
    """Run one worker to completion; returns its report and the spawn time."""
    t_spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
    # Bytecode goes to the build directory and is reused, whatever the
    # environment says, so that set-up is timed with a warm bytecode cache.
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=os.path.join(os.getcwd(), ".bench_build", "pycache"))
    for name in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE"):
        env.pop(name, None)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(config)],
        capture_output=True, text=True, timeout=timeout, env=env,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker {config} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), t_spawn


def setup_spawn() -> float:
    report, t_spawn = spawn({"mode": "setup"})
    return report["t_imported"] - t_spawn


def tail(latencies: list[float], percentile: float) -> tuple[float, int]:
    """The latency at ``percentile`` (nearest rank) and how many ops lie beyond it."""
    ordered = sorted(latencies)
    rank = math.ceil(percentile / 100.0 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def check(workload: str, seed: int, kept: list[dict]) -> list:
    import reference

    verdicts = []
    for op, out in zip(inputs.first_ops(workload, seed, len(kept)), kept):
        try:
            verdicts.append(reference.check_op(op, out))
        except Exception as exc:  # an output the check cannot read fails the run
            verdicts.append(reference.Verdict(
                "crash", hard=True, detail=f"{op.kind}{op.args}: check raised {type(exc).__name__}: {exc}"))
    return verdicts


def summarise_check(verdicts: list, quick_failed: int, attempted: int) -> dict:
    failed_checked = sum(v.failed for v in verdicts)
    hard = [v for v in verdicts if v.hard]
    return {
        "checked": len(verdicts),
        "failed_checked": failed_checked,
        "fail_frac": failed_checked / len(verdicts) if verdicts else 0.0,
        "failed": failed_checked + quick_failed,
        "attempted": attempted,
        "hard": hard,
        "excused": sum(v.failed and not v.hard for v in verdicts),
        "quick_failed": quick_failed,
    }


def timed_run(workload: str, seed: int, seconds: int) -> tuple[dict, dict, list[str]]:
    # A seed fixes a block of ops.  The first child draws and runs it; later
    # children run exactly the same ops, until the repetitions have taken
    # ``seconds`` of op time.  Each op's time is its fastest repetition, which
    # filters out the spells, some seconds long, in which the shared host runs
    # this process slowly.  The check and the set-up spawns sit between the
    # repetitions so that these spread over a longer stretch of time, and the
    # set-up time is the median over that stretch.
    build = os.path.join(os.getcwd(), ".bench_build")
    os.makedirs(build, exist_ok=True)
    ops_path = os.path.join(build, f"ops-{workload}-seed{seed}.pickle")
    count = inputs.BLOCK_OPS[workload]
    base = {"mode": "fixed", "workload": workload, "seed": seed, "count": count}
    reports = [spawn(dict(base, ops_out=ops_path, keep=inputs.CHECK_OPS[workload]))[0]]
    repeat = dict(base, ops_in=ops_path, keep=0)
    verdicts = check(workload, seed, reports[0]["kept"])
    summary = summarise_check(verdicts, reports[0]["quick_failed"], count)
    spawn({"mode": "setup"})  # warms the bytecode cache
    setup: list[float] = []
    while len(reports) < MAX_REPEATS and (
        len(reports) < MIN_REPEATS or sum(r["busy_s"] for r in reports) < seconds
    ):
        reports.append(spawn(repeat)[0])
        setup.append(setup_spawn())
    while len(setup) < SETUP_SPAWNS:
        setup.append(setup_spawn())
    os.remove(ops_path)
    lat = [min(times) for times in zip(*(r["latencies"] for r in reports))]
    pct = inputs.TAIL_PERCENTILE[workload]
    tail_s, beyond = tail(lat, pct)
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": count / sum(lat),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_tail_ms": 1e3 * tail_s,
        "peak_rss_mb": statistics.median(r["maxrss_kb"] for r in reports) / 1024.0,
        "ok_frac": 1.0 - summary["fail_frac"],
    }
    notes = [
        f"{count} ops, each timed {len(reports)} times in fresh children (fastest kept); "
        f"op_tail_ms is p{pct:g} ({beyond} ops beyond it); set-up spawns {len(setup)}",
        f"fail_frac {summary['fail_frac']:.4f} ({summary['failed_checked']} of {summary['checked']} "
        f"checked ops failed, {summary['excused']} on ill-conditioned inputs; "
        f"{summary['quick_failed']} unchecked ops raised or reported non-convergence)",
    ]
    return metrics, summary, notes


def traced_run(workload: str, seed: int) -> tuple[dict, dict, list[str]]:
    count = inputs.TRACE_OPS[workload]
    base = {"mode": "fixed", "workload": workload, "seed": seed, "count": count, "keep": 0}
    build = os.path.join(os.getcwd(), ".bench_build")
    os.makedirs(build, exist_ok=True)
    spans_path = os.path.join(build, f"spans-{workload}-seed{seed}.json")
    # Untraced runs on both sides of the traced one, against host drift.
    plain_s = spawn(base)[0]["busy_s"]
    traced, _ = spawn(dict(base, trace=True, spans_path=spans_path,
                           keep=min(count, inputs.CHECK_OPS[workload])))
    plain_s = (plain_s + spawn(base)[0]["busy_s"]) / 2
    memory, _ = spawn(dict(base, tracemalloc=True))
    verdicts = check(workload, seed, traced["kept"])
    summary = summarise_check(verdicts, traced["quick_failed"], count)
    layers = dict(traced["layers"])
    for name, kb in memory["retained_kb"].items():
        layers[f"{name}.retained_kb"] = kb
    layers["trace.overhead_frac"] = plain_s / traced["busy_s"] - 1.0
    metrics = {name: layers.get(name, 0.0) for name, _ in spec.PER_LAYER}
    notes = [
        f"fixed run of {count} ops; spans in {os.path.relpath(spans_path)}",
        "absent boundaries: " + (", ".join(traced["absent"]) or "none"),
        f"fail_frac {summary['fail_frac']:.4f} ({summary['failed_checked']} of {summary['checked']} checked)",
    ]
    return metrics, summary, notes


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    if trace:
        metrics, summary, notes = traced_run(workload, seed)
        units = dict(spec.PER_LAYER)
    else:
        metrics, summary, notes = timed_run(workload, seed, seconds)
        units = {name: unit for name, unit, _, _ in spec.END_TO_END}
    print(f"workload {workload}, seed {seed}, trace {int(trace)}")
    for line in notes:
        print(f"  {line}")
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {units[name]}")
    for verdict in summary["hard"][:10]:
        print(f"  HARD FAILURE {verdict.status}: {verdict.detail}")
    return {
        "correct": not summary["hard"] and summary["attempted"] > 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload of BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true", help="write BENCHMARK.json and exit")
    args = parser.parse_args(argv)

    if args.write_manifest:
        with open("BENCHMARK.json", "w") as fh:
            json.dump(spec.manifest(), fh, indent=2)
            fh.write("\n")
        return 0
    if not os.path.isfile(os.path.join("src", "qeuler", "__init__.py")):
        print("error: run from the root of a qeuler checkout (src/qeuler is missing)", file=sys.stderr)
        return 2
    try:
        import mpmath  # noqa: F401  -- the output check needs it
    except ImportError:
        print("error: the output check needs mpmath", file=sys.stderr)
        return 2
    workloads = list(spec.WORKLOADS) if args.all else [args.workload]
    if workloads == [None]:
        parser.error("give --workload or --all")
    try:
        results = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in workloads]
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
