"""Every heylab name the benchmark in perfbench/ patches or calls must resolve.

perfbench/tracing.py wraps the functions in its target tables, and the
benchmark also patches or calls a few names by hand, so renaming or
removing any of them breaks `perfbench/run.py --trace 1` or
`perfbench/probecheck.py`. The tables are read with ast, so nothing under perfbench/ is imported. A
wrapped name also counts only the calls made through it: the leaf
colouring.refine sees the omega layer only while every omega path refines
by looking up colouring._refine_block_of.
"""

import ast
import importlib
from pathlib import Path

from heylab import colouring
from heylab.ladder import (
    LadderSpec,
    build_ladder,
    collapse_check,
    non_colourability_scan,
)
from heylab.subalgebra import rank_type_mismatches

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
TABLES = ("SPAN_TARGETS", "FRAME_TARGETS", "LEAF_TARGETS")
# patched or called outside the tables: strictness-n2 counts the tuple
# draws, probecheck.py slows generate down, the tracer wraps witness_text,
# and cli_boot.py runs the CLI through main.main
PATCHED = [
    ("heylab.variety", "combinations_with_replacement"),
    ("heylab.variety", "generate"),
    ("heylab.subalgebra", "RankedAlgebra.witness_text"),
    ("heylab.cli", "main.main"),
]


def _table_targets() -> dict:
    tables = {}
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in TABLES:
                tables[name] = [(m, a) for m, a, _ in ast.literal_eval(node.value)]
    return tables


def _resolves(module: str, dotted: str) -> bool:
    obj = importlib.import_module(module)
    for attr in dotted.split("."):
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return callable(obj)


def test_benchmark_patched_names_resolve():
    tables = _table_targets()
    assert sorted(tables) == sorted(TABLES) and all(tables.values())
    targets = [t for table in tables.values() for t in table] + PATCHED
    assert [t for t in targets if not _resolves(*t)] == []


def test_every_omega_path_refines_through_the_traced_step(monkeypatch):
    calls = []
    step = colouring._refine_block_of
    monkeypatch.setattr(
        colouring, "_refine_block_of", lambda *args: calls.append(1) or step(*args)
    )
    spec = LadderSpec(1, 8)
    P = build_ladder(spec)
    masks = (P.up[P.index("x1_0")],)
    walk = colouring.omega_walk(P, [(), masks])
    next(walk)  # the root, refined by _omega_block_of
    paths = {
        "_omega_block_of": lambda: colouring._omega_block_of(P, masks),
        "omega_walk": lambda: next(walk),
        "stage_types": lambda: colouring.stage_types(P, masks, 2),
        "rank_type_mismatches": lambda: rank_type_mismatches(P, masks, 2),
        "collapse_check": lambda: collapse_check(spec, P, masks),
    }
    for name, run in paths.items():
        calls.clear()
        run()
        assert calls, name
    # the sampled scan refines its drawn sets past the walk's root
    calls.clear()
    colouring._omega_block_of(build_ladder(LadderSpec(1, 3)), ())
    root = len(calls)
    calls.clear()
    non_colourability_scan(1, 3, k=1, samples=3, seed=1)
    assert len(calls) > root
