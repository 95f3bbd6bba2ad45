"""Run the benchmark once per seed and report each metric's spread.

usage: python3 perfbench/spread.py [--runs 10] [--first-seed 2718]
                                   [--workload NAME ...] [--write FILE]

For every workload and end-to-end metric it prints the median, the first
and third quartiles (statistics.quantiles(values, n=4)) and the spread
(Q3 - Q1) / median, next to the metric's bound in BENCHMARK.json. A spread
above a third of its bound is flagged. --write stores the figures with the
machine description, as the baseline that later changes are compared with.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version()}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=2718)
    ap.add_argument("--workload", nargs="*", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--write", default=None)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"machine": machine(), "run_seconds": bench["run_seconds"], "workloads": {}}
    ok = True
    for workload in args.workload:
        values: dict = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect", file=sys.stderr)
                ok = False
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        rows = {}
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread < bounds[name] / 3 else "  <-- above bound/3"
            print(f"{workload:14s} {name:16s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}"
                  f"  spread {spread:6.3f}  bound {bounds[name]}{flag}")
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "runs": len(vs)}
        report["workloads"][workload] = rows
    if args.write:
        with open(args.write, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
