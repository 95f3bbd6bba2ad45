"""Fast self-check of the benchmark harness, at reduced sizes (about 10 s).

usage: python3 perfbench/selfcheck.py

Runs one iteration of every workload untraced and traced at the "small"
scale, checks that each result is correct and carries every metric named in
BENCHMARK.json with its unit, that a second traced run repeats every count
exactly, and that the benchmark refuses to run without the heylab sources.
Exits 1 with the list of problems if any check fails.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from workloads import ROOT, WORKLOADS  # noqa: E402


def _metric_problems(label, result, wanted) -> list:
    problems = []
    if not result["correct"]:
        problems.append(f"{label}: incorrect: {result['_errors'][:3]}")
        return problems
    got = result["metrics"]
    for m in wanted:
        if m["name"] not in got:
            problems.append(f"{label}: missing {m['name']}")
        elif got[m["name"]]["unit"] != m["unit"]:
            problems.append(f"{label}: {m['name']} has unit {got[m['name']]['unit']}")
    extra = set(got) - {m["name"] for m in wanted}
    if extra:
        problems.append(f"{label}: unexpected metrics {sorted(extra)}")
    return problems


def _bare_copy_refuses() -> list:
    """Run the benchmark where only BENCHMARK.json and perfbench/ exist."""
    bare = os.path.join(ROOT, ".perfbench-work", "selfcheck-bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "acceptance",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(bare))
        except OSError:
            pass
    if proc.returncode == 0 or proc.stdout.strip():
        return ["without src/heylab the benchmark did not fail cleanly"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    problems = []
    for name in WORKLOADS:
        plain = run.measure(name, 1, 0, False, "small")
        problems += _metric_problems(f"{name} untraced", plain, bench["end_to_end"])
        traced = run.measure(name, 1, 0, True, "small")
        problems += _metric_problems(f"{name} traced", traced, bench["per_layer"])
        print(f"selfcheck: {name}: untraced correct={plain['correct']}, "
              f"traced correct={traced['correct']}", file=sys.stderr)
        if name == "acceptance" and traced["correct"]:
            again = run.measure(name, 1, 0, True, "small")
            units = {m["name"]: m["unit"] for m in bench["per_layer"]}
            differ = [
                k for k, u in units.items()
                if u != "s" and again["metrics"][k] != traced["metrics"][k]
            ]
            if differ:
                problems.append(f"traced counts differ between runs: {differ}")
    problems += _bare_copy_refuses()
    for p in problems:
        print(f"selfcheck: {p}", file=sys.stderr)
    print("selfcheck: " + ("FAIL" if problems else "ok"), file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
