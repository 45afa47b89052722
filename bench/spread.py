"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workload zeta --seeds 1-10
    python3 bench/spread.py --workload zeta --seeds 1-10 --record bench/record.json
    python3 bench/spread.py --workload zeta --seeds 1 --trace

For every end-to-end metric it prints the median, the quartiles
(statistics.quantiles, n=4) and the spread (third minus first quartile,
as a share of the median) next to the metric's bound, with a gauge of the
host's speed taken between runs.  With --trace it makes two traced runs per
seed and checks that every count repeats exactly.  With --record the results
are stored under the workload in a JSON record file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import spec  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def host_probe(seconds: float = 0.5) -> float:
    """Millions of iterations per second of a fixed pure-Python loop: a gauge
    of how fast this host runs the interpreter at the moment."""
    count, t0 = 0, time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        for _ in range(1000):
            count += 1
    return count / (time.perf_counter() - t0) / 1e6


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def update_record(path: str, workload: str, key: str, value: dict) -> None:
    record = {}
    if os.path.exists(path):
        with open(path) as fh:
            record = json.load(fh)
    record.setdefault("workloads", {}).setdefault(workload, {})[key] = value
    record.setdefault("machine", {}).update(
        python=platform.python_version(), nproc=os.cpu_count(), machine=platform.machine()
    )
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")


def timed(args) -> int:
    runs, probes = [], [host_probe()]
    t0 = time.time()
    for seed in parse_seeds(args.seeds):
        result = one_run(args.workload, seed, args.seconds, 0)
        probes.append(host_probe())
        runs.append(result)
        values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} {values}", flush=True)
    summary = {}
    q1, _, q3 = statistics.quantiles(probes, n=4)
    host = {"loop_mips": [round(p, 2) for p in probes],
            "spread": round((q3 - q1) / statistics.median(probes), 4)}
    print(f"{len(runs)} runs in {time.time() - t0:.0f} s; host probe {host}")
    for name, unit, _, bound in spec.END_TO_END:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "unit": unit}
        flag = "" if spread <= bound / 3 or name == "setup_s" else "  <-- above a third of the bound"
        print(f"  {name:<12} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
              f"spread {spread:.4f} (bound {bound}){flag}")
    if args.record:
        update_record(args.record, args.workload, "seed_commit", {
            "seeds": args.seeds, "seconds": args.seconds, "host": host, "metrics": summary,
            "correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
        })
    return 0


def traced(args) -> int:
    """Two traced runs per seed; counts and hit ratios must repeat exactly."""
    repeatable = [n for n, unit in spec.PER_LAYER if unit == "count" or n.endswith("hit_ratio")]
    status = 0
    for seed in parse_seeds(args.seeds):
        first, second = (one_run(args.workload, seed, args.seconds, 1) for _ in range(2))
        differ = [n for n in repeatable if first["metrics"][n] != second["metrics"][n]]
        print(f"seed {seed}: {len(repeatable)} counts, " + (f"DIFFER: {differ}" if differ else "all repeat"))
        status |= bool(differ)
        for name, metric in first["metrics"].items():
            if metric["value"]:
                print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']}")
        if args.record:
            update_record(args.record, args.workload, f"seed_commit_layers_seed{seed}",
                          {n: m["value"] for n, m in first["metrics"].items()})
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", action="store_true",
                        help="traced runs instead: check that counts repeat at each seed")
    parser.add_argument("--record", help="JSON file to store the results in")
    args = parser.parse_args(argv)
    return traced(args) if args.trace else timed(args)


if __name__ == "__main__":
    sys.exit(main())
