"""Check that the speed factor follows the machine, not the code under test.

usage: python3 perfbench/probecheck.py [--rounds 3]

Every reported time is a raw time times the speed probe's factor
(speed.py). That is sound only if the factor does not depend on what heylab
does. In each round, one after the other so that they see the same machine,
this runs:

  idle, spin      the probe alone, in a process that sleeps or that spins
                  on plain integer arithmetic
  WORKLOAD        one untraced iteration of every workload
  slow            strictness-n2 with 20% more work in heylab: every fifth
                  generate() of the scan is made twice
  ballast         strictness-n2 with 40 MB of live objects on the heap,
                  which makes heylab's own garbage collections slower

and prints, per case, the median over rounds of the run's factor and of its
ratio to the factor of the spin case run just before it. The factor is
independent of the code when these ratios are close to 1 for every case.
It then prints the ratio of slow to the plain strictness-n2 run, raw and
scaled: both should read about 1.19 (generate() is about 95% of the scan).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import ROOT, SRC, WORKLOADS  # noqa: E402

PROBE_S = 2.0
CASES = ("idle", "spin", *WORKLOADS, "slow", "ballast")


def _probe_alone(kind: str) -> dict:
    from speed import SpeedProbe

    probe = SpeedProbe()
    probe.start()
    start = time.perf_counter()
    x = 0
    while time.perf_counter() - start < PROBE_S:
        if kind == "idle":
            time.sleep(0.05)
        else:
            for i in range(10000):
                x = (x * 31 + i) % 1000003
    end = time.perf_counter()
    probe.stop()
    return {"raw": {"run_factor": probe.factor(start, end), "wall_s": end - start}}


def child(kind: str, workdir: str) -> None:
    """One case, in this fresh process; prints its result as JSON."""
    if kind in ("idle", "spin"):
        print(json.dumps(_probe_alone(kind)))
        return
    import worker

    sys.path.insert(0, SRC)
    import heylab.variety as variety

    if kind == "slow":
        orig, calls = variety.generate, [0]

        def generate(*args, **kwargs):
            calls[0] += 1
            if calls[0] % 5 == 0:
                orig(*args, **kwargs)
            return orig(*args, **kwargs)

        variety.generate = generate
    ballast = [(i, i + 1, str(i)) for i in range(400_000)] if kind == "ballast" else None
    workload = "strictness-n2" if kind in ("slow", "ballast") else kind
    spans = os.path.join(workdir, "spans.jsonl")
    worker.main([workload, "1", "plain", "full", workdir, spans, kind])
    del ballast


def _run(kind: str, workdir: str) -> dict:
    proc = subprocess.run(
        [sys.executable, __file__, "--child", kind, workdir],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180,
    )
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise SystemExit(f"{kind}: no result: {proc.stderr[-1000:]}")
    if result.get("failures") or "error" in result:
        raise SystemExit(f"{kind}: failed: {result}")
    return result["raw"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--child", nargs=2, metavar=("CASE", "WORKDIR"))
    args = ap.parse_args()
    if args.child:
        child(*args.child)
        return 0
    workdir = os.path.join(ROOT, ".perfbench-work", f"probecheck-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    rows: dict = {case: [] for case in CASES}
    try:
        for r in range(args.rounds):
            for case in CASES:
                rows[case].append(_run(case, workdir))
            print(f"probecheck: round {r + 1} of {args.rounds} done", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    spin = [raw["run_factor"] for raw in rows["spin"]]
    print(f"{'case':14s} {'factor':>8s} {'/spin':>8s}   factors per round")
    for case in CASES:
        factors = [raw["run_factor"] for raw in rows[case]]
        ratio = statistics.median(f / s for f, s in zip(factors, spin))
        print(f"{case:14s} {statistics.median(factors):8.3f} {ratio:8.3f}   "
              + " ".join(f"{f:.3f}" for f in factors))
    for label, scaled in (("raw", False), ("scaled", True)):
        walls = {
            case: [raw["wall_s"] * (raw["run_factor"] if scaled else 1) for raw in rows[case]]
            for case in ("slow", "strictness-n2")
        }
        ratios = [a / b for a, b in zip(walls["slow"], walls["strictness-n2"])]
        print(f"slow / strictness-n2 wall_s, {label:6s}: median {statistics.median(ratios):.3f}"
              f"  per round " + " ".join(f"{x:.3f}" for x in ratios))
    return 0


if __name__ == "__main__":
    sys.exit(main())
