"""One iteration of one workload, in a fresh process so caches start cold.

usage: worker.py WORKLOAD SEED MODE SCALE WORKDIR SPANS RUN_ID

MODE is "plain" or "traced".

Prints one JSON object on stdout: set-up and timed-part wall time, CPU time
of the timed part (this process and its children), peak RSS, request
latencies in ms, items, attempted and failed checks, and with MODE=traced
the per-layer metrics of this iteration. Every time is scaled to the nominal
machine speed by the speed probe's samples over the same span; `raw` holds
the unscaled set-up, wall and CPU times and the two factors.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

# A request's factor is taken over the samples within this margin of it:
# a request of a few ms holds one sample or none, and one sample is noisier
# than the machine's change of speed over 0.1 s.
REQUEST_MARGIN_S = 0.05


def _cpu() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _interpreter_s(samples: int = 3) -> float:
    """Median wall time of a bare `python -c pass`."""
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _child_records(spans: str, run_id: str) -> list:
    prefix = run_id + "."
    with open(spans) as fh:
        records = [json.loads(line) for line in fh]
    return [r for r in records if "aggregates" in r and r["run"].startswith(prefix)]


def main(argv) -> int:
    workload, seed, mode, scale, workdir, spans, run_id = argv
    seed = int(seed)
    from speed import SpeedProbe
    from workloads import SPAWNING, SRC, WORKLOADS

    if workload in SPAWNING:
        # children inherit this CPU, so the probe samples the CPU they run on
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    probe = SpeedProbe(timer=workload not in SPAWNING)
    probe.start()

    sys.path.insert(0, SRC)
    setup, run, check = WORKLOADS[workload]
    ctx = {"workdir": workdir, "spans": spans, "run_id": run_id, "probe": probe}
    tracer = None
    if mode == "traced":
        from tracing import Tracer

        tracer = Tracer(run_id)
        tracer.install()
    state = setup(seed, scale, ctx)
    probe.sample()
    setup_end = time.perf_counter()
    setup_factor = probe.factor(T0, setup_end)

    cpu0 = _cpu()
    start = time.perf_counter()
    probe.sample()
    outputs, requests, items = run(state, tracer)
    probe.sample()
    end = time.perf_counter()
    cpu_s = _cpu() - cpu0
    probe.stop()
    run_factor = probe.factor(start, end)

    attempted, failures = check(state, outputs)
    if len(requests) < 2:
        # the run reports latency percentiles, which need requests to time
        failures.append(f"{len(requests)} requests timed, expected at least 2")
    who = resource.RUSAGE_CHILDREN if workload in SPAWNING else resource.RUSAGE_SELF
    result = {
        "setup_s": (setup_end - T0) * setup_factor,
        "wall_s": (end - start) * run_factor,
        "cpu_s": cpu_s * run_factor,
        "raw": {
            "setup_s": setup_end - T0,
            "wall_s": end - start,
            "cpu_s": cpu_s,
            "setup_factor": setup_factor,
            "run_factor": run_factor,
        },
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "items": items,
        "latencies_ms": [
            (b - a) * 1e3 * probe.factor(a - REQUEST_MARGIN_S, b + REQUEST_MARGIN_S)
            for a, b in requests
        ],
        "attempted": attempted,
        "failures": failures,
    }
    if tracer is not None:
        from tracing import PER_LAYER, layer_metrics, merge

        units = dict(PER_LAYER)

        agg = tracer.aggregates()
        cli = {}
        if workload in SPAWNING:
            children = _child_records(spans, run_id)
            agg = merge([agg] + [r["aggregates"] for r in children])
            cli = {
                "interpreter_s": _interpreter_s(),
                "import_s": statistics.median(r["import_s"] for r in children),
                "emit_bytes": sum(len(out) for _, out, _ in outputs),
            }
        lemma_s = {
            name[len("criterion."):]: s
            for name, s in agg["total_s"].items()
            if name.startswith("criterion.")
        }
        result["per_layer"] = {
            name: value * run_factor if units[name] == "s" else value
            for name, value in layer_metrics(agg, lemma_s, cli).items()
        }
        tracer.dump(spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except Exception:
        # report the failure to the orchestrator, which counts it
        print(json.dumps({"error": traceback.format_exc()[-2000:]}))
        sys.exit(1)
