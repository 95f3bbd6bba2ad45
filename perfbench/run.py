"""heylab benchmark: end-to-end metrics per workload, or per-layer with --trace 1.

usage: python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S]
                                [--trace 0|1]

Run from the repository root; heylab is imported from ./src. One run repeats
the workload in fresh worker processes, one at a time, while the next one
fits in --seconds (at least one). Each iteration starts cold, as a user's
process does. Untraced iteration i runs at seed + i * SEED_STRIDE, which
changes the inputs of acceptance and cli-cold only. The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the line before it is a JSON object
`{"raw": ...}` with the unscaled times and the speed factors of every
iteration, and a readable summary goes to stderr.

Every time is reported at a nominal machine speed: the worker's speed probe
(speed.py) samples a fixed 0.15 ms kernel every 10 ms from inside the
process, and each raw time is multiplied by the mean of nominal / sampled
kernel time over the same span (for a request, its span widened by 50 ms
on either side). On a shared box this cancels the machine getting faster or
slower.

End-to-end metrics (--trace 0), medians over the run's iterations:
  setup_s        import plus input construction in the worker process
  wall_s         wall time of the timed part
  cpu_s          CPU time of the timed part, the process and its children
  items_per_s    items per wall second. Items are the work the workload
                 defines, whatever the code does to get it done: criterion
                 reports (acceptance), the row's generator tuples plus its
                 canonical colouring (strictness-n2), posets (corpus-exh6),
                 CLI invocations (cli-cold)
  peak_rss_mb    peak RSS of the worker (cli-cold: of its largest child)
  latency_ms.p50, latency_ms.p95
                 latency of a request: a criterion report, a block of 100
                 generator tuples drawn by the row's scan, the gap between
                 the construction of two posets of the result, a CLI
                 process from spawn to exit. p50 is the
                 median over iterations of each iteration's median (a
                 pooled median of few request kinds would fall between two
                 kinds); p95 is over all requests of the run
Failed checks count in `failed`; error_rate is failed / attempted. An
iteration that times fewer than two requests fails its check.

Per-layer metrics (--trace 1) come from traced iterations alternating with
untraced ones: counts from one traced iteration (they must repeat exactly
across iterations), times as medians, and trace.overhead_s as the traced
minus the untraced median wall_s. Spans go to
.perfbench-out/spans-WORKLOAD-SEED.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracing import PER_LAYER  # noqa: E402
from workloads import DEFAULT_SEED, ROOT, SRC, WORKLOADS  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("latency_ms.p50", "ms"),
    ("latency_ms.p95", "ms"),
)
WORKER_TIMEOUT_S = 120
# Untraced iteration i runs at seed + i * SEED_STRIDE, so that a run of the
# seeded workloads measures several inputs and its medians follow the
# workload rather than one draw of it; iteration 0 runs at the seed itself.
SEED_STRIDE = 1_000_003


def run_iteration(workload, seed, mode, scale, workdir, spans, run_id) -> dict:
    cmd = [sys.executable, WORKER, workload, str(seed), mode, scale, workdir, spans, run_id]
    # a session of its own, so a worker that hangs is killed with its children
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        stdin=subprocess.DEVNULL, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": f"worker exceeded {WORKER_TIMEOUT_S} s"}
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": f"worker exit {proc.returncode}: {err[-2000:]}"}


def measure(workload, seed, seconds, trace, scale="full") -> dict:
    """Run iterations for `seconds`; return the contract result object."""
    out_dir = os.path.join(ROOT, ".perfbench-out")
    workdir = os.path.join(ROOT, ".perfbench-work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    spans = os.path.join(out_dir, f"spans-{workload}-{seed}.jsonl")
    if trace:
        os.makedirs(out_dir, exist_ok=True)
        open(spans, "w").close()
    plain, traced, errors, attempted, failed = [], [], [], 0, 0
    durations = []
    start = time.perf_counter()
    try:
        i = 0
        while True:
            mode = "traced" if trace and i % 2 else "plain"
            # traced runs keep one input: their counts must repeat exactly
            iter_seed = seed if trace else seed + i * SEED_STRIDE
            t0 = time.perf_counter()
            r = run_iteration(workload, iter_seed, mode, scale, workdir, spans,
                              f"{workload}:{iter_seed}:{i}")
            i += 1
            if "error" in r:
                errors.append(r["error"])
                attempted, failed = attempted + 1, failed + 1
                break
            attempted += r["attempted"]
            failed += len(r["failures"])
            errors.extend(r["failures"])
            durations.append(time.perf_counter() - t0)
            (traced if mode == "traced" else plain).append(r)
            enough = plain and (traced or not trace)
            next_end = time.perf_counter() - start + statistics.median(durations)
            if enough and next_end > seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    correct = failed == 0 and bool(plain)
    metrics = {}
    if correct and not trace:
        metrics = end_to_end(plain)
    elif correct:
        metrics, mismatched = per_layer(plain, traced)
        if mismatched:
            correct = False
            errors.append(f"counts differ between traced iterations: {mismatched}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "_errors": errors,
        "_iterations": len(plain) + len(traced),
        "_requests": sum(len(r["latencies_ms"]) for r in plain),
        "_raw": {
            key: [r["raw"][key] for r in plain]
            for key in ("setup_s", "wall_s", "cpu_s", "setup_factor", "run_factor")
        },
    }


def _median(results, key):
    return statistics.median(r[key] for r in results)


def end_to_end(results) -> dict:
    lat = [x for r in results for x in r["latencies_ms"]]
    values = {
        "setup_s": _median(results, "setup_s"),
        "wall_s": _median(results, "wall_s"),
        "cpu_s": _median(results, "cpu_s"),
        "items_per_s": statistics.median(r["items"] / r["wall_s"] for r in results),
        "peak_rss_mb": _median(results, "peak_rss_mb"),
        "latency_ms.p50": statistics.median(
            statistics.median(r["latencies_ms"]) for r in results
        ),
        "latency_ms.p95": statistics.quantiles(lat, n=20, method="inclusive")[-1],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(plain, traced):
    first = traced[0]["per_layer"]
    units = dict(PER_LAYER)
    counts = [k for k in first if units[k] != "s"]
    mismatched = {k for k in counts for r in traced[1:] if r["per_layer"][k] != first[k]}
    values = {}
    for name, unit in PER_LAYER:
        if name == "trace.overhead_s":
            values[name] = _median(traced, "wall_s") - _median(plain, "wall_s")
        elif unit == "s":
            values[name] = statistics.median(r["per_layer"][name] for r in traced)
        else:
            values[name] = first[name]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    return metrics, sorted(set(mismatched))


def _rounded(values) -> list:
    return [round(v, 3) for v in values]


def summary(workload, result) -> str:
    lines = [
        f"{workload}: correct={result['correct']} attempted={result['attempted']} "
        f"failed={result['failed']} error_rate="
        f"{result['failed'] / max(result['attempted'], 1):.4f} "
        f"iterations={result['_iterations']} requests={result['_requests']} "
        f"(requests beyond p95: {int(result['_requests'] * 0.05)})",
        f"  raw wall_s per untraced iteration: {_rounded(result['_raw']['wall_s'])}",
        f"  speed factor per untraced iteration: {_rounded(result['_raw']['run_factor'])}",
    ]
    for name, m in result["metrics"].items():
        lines.append(f"  {name:32s} {m['value']:>14.6g} {m['unit']}")
    lines.extend(f"  error: {e}" for e in result["_errors"][:10])
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "heylab", "__init__.py")):
        print(f"error: heylab sources not found under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        result = measure(name, args.seed, args.seconds, bool(args.trace))
        print(summary(name, result), file=sys.stderr)
        ok = ok and result["correct"]
        public = {k: v for k, v in result.items() if not k.startswith("_")}
        raw = {"raw": result["_raw"]}
        if args.workload == "all":
            public, raw = {"workload": name, **public}, {"workload": name, **raw}
        print(json.dumps(raw))
        print(json.dumps(public), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
