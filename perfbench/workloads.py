"""The benchmark's workloads: inputs from a seed, the timed call, and checks.

Each workload has three parts, run inside one fresh worker process:
`setup(seed, scale, ctx)` imports heylab and builds the inputs, `run(state,
tracer)` does the timed work and returns (outputs, requests, items), where
requests are the (start, end) perf_counter() times of each request and items
the work the workload defines, and `check(state, outputs)` returns
(attempted, failure messages). Requests are timed at boundaries that a
faster heylab keeps: a criterion report, a tuple drawn by the scan, a poset
of the result, a CLI process.
`scale` is "full" for measurement and "small" for the self-check.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
DEFAULT_SEED = 2718

# sha256 of json.dumps(report, sort_keys=True) for criteria 1-8 at the
# default seed, taken from the seed commit; mirrors acceptance criterion 9.
PINNED_DIGESTS = {
    "residuation": "2df2cef687c95b3e436532302919b3ec250cd388f14c885011f2b9e52497d359",
    "rank_type": "8a33fadc27e1e97a1e211285172de3c78da80f74a7e471a80d593b3aa3cda155",
    "duality": "a747090af53eaf01dadef0e87517c2dbdacfaae4b262bde0bc8e4353ae686e43",
    "canonical": "f42a574102645d42245fda58cdd5466b9ca7c57e55c744bc6f8721b00dcee878",
    "non_colourable": "70fe4c3861a29ddd12bfe17c8fcd6d179b52bc75c3aeb3708dc93d591d456ee6",
    "collapse": "a1206fbad4feb86be878daf4a225c1353ca5efb3ec87595ee4109abd6df19011",
    "strictness": "16832177a7f326e0841bb24a8e82478be26d95edeafcaf3936075bf2c3895917",
    "oracle": "4d05571272e6bbff0e67921b150e1ec88685134ba80ff1dc61257442b4356b48",
}

# Posets on 1..6 points up to isomorphism, OEIS A000112.
A000112 = (1, 2, 5, 16, 63, 318)


# -- acceptance: criteria 1-8 with the arguments of tests/test_acceptance.py


ACCEPTANCE = {
    "full": {
        "corpus": "exhaustive5,random200:{seed}",
        "gens": 20,
        "canonical": ((0, 8), (1, 8), (2, 6)),
        "nc_samples": 10000,
        "collapse_samples": 100,
        "strictness_depths": (4, 5, 6, 7, 8),
    },
    "small": {
        "corpus": "exhaustive3,random10:{seed}",
        "gens": 3,
        "canonical": ((0, 4), (1, 4)),
        "nc_samples": 100,
        "collapse_samples": 5,
        "strictness_depths": (4, 5),
    },
}


def setup_acceptance(seed, scale, ctx):
    import heylab.corpus
    import heylab.verify

    p = ACCEPTANCE[scale]
    corpus = heylab.corpus.corpus_from_spec(p["corpus"].format(seed=seed))
    return {"seed": seed, "scale": scale, "corpus": corpus, "p": p}


def _criteria(state):
    import heylab.verify as V

    c, seed, p = state["corpus"], state["seed"], state["p"]

    def non_colourable():
        exhaustive = V.verify_non_colourable(1, 4)
        sampled = V.verify_non_colourable(2, 3, k=2, samples=p["nc_samples"], seed=seed)
        return {
            "exhaustive": exhaustive,
            "sampled": sampled,
            "passed": (
                exhaustive["passed"]
                and sampled["passed"]
                and exhaustive["max_classes"] < exhaustive["point_count"]
                and sampled["coloured_found"] == 0
            ),
        }

    def collapse():
        runs = [V.verify_collapse(n, samples=p["collapse_samples"], seed=seed) for n in (1, 2)]
        return {"runs": runs, "passed": all(r["passed"] for r in runs)}

    g = p["gens"]
    return (
        ("residuation", lambda: V.verify_residuation(c)),
        ("rank_type", lambda: V.verify_rank_type(c, gens_per_poset=g, max_stage=5, seed=seed)),
        ("duality", lambda: V.verify_duality(c, gens_per_poset=g, seed=seed)),
        ("canonical", lambda: V.verify_canonical_range(cases=p["canonical"])),
        ("non_colourable", non_colourable),
        ("collapse", collapse),
        ("strictness", lambda: V.verify_strictness(1, p["strictness_depths"])),
        ("oracle", lambda: V.verify_oracle_equivalence(c, gens_per_poset=g, seed=seed)),
    )


def run_acceptance(state, tracer):
    reports, requests = {}, []
    for lemma, thunk in _criteria(state):
        start = time.perf_counter()
        if tracer is None:
            reports[lemma] = thunk()
        else:
            with tracer.span(f"criterion.{lemma}"):
                reports[lemma] = thunk()
        requests.append((start, time.perf_counter()))
    return reports, requests, len(reports)


def check_acceptance(state, reports):
    failures = []
    pinned = state["seed"] == DEFAULT_SEED and state["scale"] == "full"
    for lemma, report in reports.items():
        if not report["passed"]:
            failures.append(f"{lemma}: report did not pass")
        elif pinned:
            text = json.dumps(report, sort_keys=True).encode()
            if hashlib.sha256(text).hexdigest() != PINNED_DIGESTS[lemma]:
                failures.append(f"{lemma}: report differs from the pinned digest")
    return len(reports), failures


# -- strictness-n2: one bottomed ladder row, exhaustive over generator pairs


STRICTNESS = {
    "full": {"n": 2, "depth": 5, "row": (173, 66, True), "block": 100},
    "small": {"n": 1, "depth": 5, "row": (45, 9, True), "block": 10},
}


@contextlib.contextmanager
def _patched(module, attr, wrap):
    """Replace module.attr by wrap(module.attr) for the block."""
    orig = getattr(module, attr)
    setattr(module, attr, wrap(orig))
    try:
        yield
    finally:
        setattr(module, attr, orig)


def setup_strictness(seed, scale, ctx):
    import heylab.variety

    return {"p": STRICTNESS[scale]}


def run_strictness(state, tracer):
    import heylab.variety as variety

    p = state["p"]
    stamps = []

    # stamps every tuple the row's scan draws, and the end of the scan
    def stamped(combinations):
        def call(*args, **kwargs):
            for tup in combinations(*args, **kwargs):
                stamps.append(time.perf_counter())
                yield tup
            stamps.append(time.perf_counter())

        return call

    with _patched(variety, "combinations_with_replacement", stamped):
        rows = variety.strictness_report(p["n"], [p["depth"]])
    # one request is a block of p["block"] successive tuples, from
    # drawing the first to drawing the next block's first (or the end). A
    # single tuple takes 0.03-0.08 ms, and the median of such tuples falls
    # in a gap between two clusters of costs, where it jumps from run to run.
    marks = stamps[:: p["block"]]
    if stamps and marks[-1] != stamps[-1]:
        marks.append(stamps[-1])
    # every n-tuple of upsets with repetition, plus the canonical colouring
    items = math.comb(p["row"][0] + p["n"] - 1, p["n"]) + 1
    return rows, list(zip(marks, marks[1:])), items


def check_strictness(state, rows):
    want = state["p"]["row"]
    got = tuple(
        rows[0][k]
        for k in ("algebra_size", "max_k_generated_size", "canonical_generates_full")
    )
    if len(rows) == 1 and got == want:
        return 1, []
    return 1, [f"row {got} differs from {want}"]


# -- corpus-exh6: all posets on <= 6 points up to isomorphism


CORPUS = {"full": 6, "small": 4}


def setup_corpus(seed, scale, ctx):
    import heylab.corpus

    return {"k": CORPUS[scale]}


def run_corpus(state, tracer):
    import heylab.corpus as corpus
    from heylab.poset import Poset

    # one request is one poset of the result: the gap between constructing
    # it and constructing the one before (or the start). Posets built on the
    # way and dropped are no requests. `built` keeps them alive, so ids stay
    # unique.
    built = []

    def stamped(init):
        def call(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append((time.perf_counter(), self))

        return call

    start = time.perf_counter()
    with _patched(Poset, "__init__", stamped):
        posets = corpus.all_posets_up_to_iso(state["k"])
    born = {id(P): t for t, P in built}
    stamps = [start] + sorted(born[id(P)] for P in posets if id(P) in born)
    return posets, list(zip(stamps, stamps[1:])), sum(A000112[: state["k"]])


def check_corpus(state, posets):
    k = state["k"]
    sizes = Counter(P.n for P in posets)
    failures = [
        f"{sizes[n]} posets on {n} points, expected {A000112[n - 1]}"
        for n in range(1, k + 1)
        if sizes[n] != A000112[n - 1]
    ]
    if sum(sizes.values()) != sum(A000112[:k]):
        failures.append("posets of unexpected sizes")
    return k, failures


# -- cli-cold: a fixed script of cold `python -m heylab.cli` processes


CLI = {
    "full": {"big_depth": 9, "big_upsets": 81},
    "small": {"big_depth": 5, "big_upsets": 45},
}
BOOT = os.path.join(ROOT, "perfbench", "cli_boot.py")


def _cli_script(seed, small, big, big_upsets, big_depth):
    """(argv, expected exit code, check of the parsed stdout) per command.

    `generate` is checked by its size only, never by its bytes: its witness
    format is expected to change.
    """
    s = ["--seed", str(seed)]

    def fields(**want):
        return lambda out: all(json.loads(out).get(k) == v for k, v in want.items())

    return (
        (["--help"], 0, lambda out: out.startswith("Usage:")),
        (s + ["ladder", "--n", "1", "--depth", str(big_depth)], 0,
         lambda out: len(json.loads(out)["points"]) == 3 * big_depth + 1),
        (s + ["upsets", small], 0, fields(count=36, seed=seed)),
        (s + ["algebra", small], 0, fields(size=36, seed=seed)),
        (s + ["types", small, "--colour", "x1_0", "--colour", "x2_0"], 0,
         lambda out: len(json.loads(out)["blocks"]) == 13),
        (s + ["colour-search", small, "--k", "2"], 0, fields(found=True, seed=seed)),
        (s + ["verify", "canonical", "--n", "1", "--depth", "8"], 0,
         fields(passed=True, seed_global=seed)),
        (s + ["strictness", "--n", "1"], 0, fields(passed=True, seed=seed)),
        (s + ["generate", big, "--gen", "x1_0", "--gen", "x2_0"], 0,
         fields(size=big_upsets, seed=seed)),
    )


def setup_cli(seed, scale, ctx):
    from heylab.ladder import LadderSpec, build_ladder
    from heylab.poset import poset_to_json

    p = CLI[scale]
    paths = {}
    for label, depth in (("small", 4), ("big", p["big_depth"])):
        paths[label] = os.path.join(ctx["workdir"], f"ladder-n1-d{depth}.json")
        with open(paths[label], "w") as fh:
            json.dump(poset_to_json(build_ladder(LadderSpec(1, depth))), fh)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    script = _cli_script(seed, paths["small"], paths["big"], p["big_upsets"], p["big_depth"])
    return {"script": script, "env": env, "ctx": ctx}


def run_cli(state, tracer):
    ctx = state["ctx"]
    results, requests = [], []
    # the CLI children hold the CPU while they run, so the speed probe
    # samples between them (speed.py)
    sample = ctx["probe"].sample
    for i, (argv, _, _) in enumerate(state["script"]):
        for _ in range(3):
            sample()
        if tracer is None:
            cmd = [sys.executable, "-m", "heylab.cli", *argv]
        else:
            # same cold start, through a bootstrap that installs the tracer
            cmd = [sys.executable, BOOT, ctx["spans"], f"{ctx['run_id']}.{i}", *argv]
        start = time.perf_counter()
        proc = subprocess.run(
            cmd, env=state["env"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            stdin=subprocess.DEVNULL, timeout=60,
        )
        requests.append((start, time.perf_counter()))
        results.append((proc.returncode, proc.stdout, proc.stderr))
    for _ in range(3):
        sample()
    return results, requests, len(results)


def check_cli(state, results):
    failures = []
    for (argv, code, ok), (got, out, err) in zip(state["script"], results):
        name = argv[0] if len(argv) == 1 else argv[2]
        if got != code:
            failures.append(f"{name}: exit {got}, expected {code}: {err[-200:]!r}")
            continue
        try:
            good = ok(out.decode())
        except (ValueError, KeyError, TypeError):
            good = False
        if not good:
            failures.append(f"{name}: unexpected output")
    return len(state["script"]), failures


WORKLOADS = {
    "acceptance": (setup_acceptance, run_acceptance, check_acceptance),
    "strictness-n2": (setup_strictness, run_strictness, check_strictness),
    "corpus-exh6": (setup_corpus, run_corpus, check_corpus),
    "cli-cold": (setup_cli, run_cli, check_cli),
}
# workloads whose timed work runs in child processes
SPAWNING = {"cli-cold"}
