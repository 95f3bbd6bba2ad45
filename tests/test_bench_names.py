"""Every heylab name the benchmark in perfbench/ patches must resolve.

perfbench/tracing.py wraps the functions in its target tables, and the
benchmark also patches a few names by hand, so renaming or removing any of
them breaks `perfbench/run.py --trace 1` or `perfbench/probecheck.py`. The
tables are read with ast, so nothing under perfbench/ is imported.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
TABLES = ("SPAN_TARGETS", "FRAME_TARGETS", "LEAF_TARGETS")
# patched outside the tables: strictness-n2 counts the tuple draws,
# probecheck.py slows generate down, and the tracer wraps witness_text
PATCHED = [
    ("heylab.variety", "combinations_with_replacement"),
    ("heylab.variety", "generate"),
    ("heylab.subalgebra", "RankedAlgebra.witness_text"),
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
