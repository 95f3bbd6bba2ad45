"""Per-layer tracing for the benchmark, installed from outside the package.

heylab's modules call one another through names they import, e.g.
`heylab.verify.generate` or `heylab.subalgebra.imp_mask`. `Tracer.install`
replaces every such name (and the defining module's own global, which
catches calls inside the module) with a wrapper that times the call. The
package source is never edited.

A call's self time is its duration minus the time of the wrapped calls it
made. Calls of the functions in SPAN_TARGETS leave a span (id, parent, name,
start, end) in memory. Hot functions are only aggregated, because millions
of span records would distort the run and its memory: FRAME_TARGETS keep a
frame on the stack, and LEAF_TARGETS, which call no wrapped function, get a
cheaper wrapper without one. `dump` writes the
spans and the aggregates once, at the end of the process.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time

MODULES = (
    "heylab.poset",
    "heylab.algebra",
    "heylab.colouring",
    "heylab.subalgebra",
    "heylab.ladder",
    "heylab.variety",
    "heylab.corpus",
    "heylab.verify",
    "heylab.cli",
)

# (defining module, function, frame name); the layer is the name's prefix.
SPAN_TARGETS = (
    ("heylab.poset", "upset_masks", "poset.upset_masks"),
    ("heylab.algebra", "algebra_of", "algebra.algebra_of"),
    ("heylab.subalgebra", "generate", "subalgebra.generate"),
    ("heylab.ladder", "build_ladder", "ladder.build_ladder"),
    ("heylab.ladder", "non_colourability_scan", "ladder.scan"),
    ("heylab.ladder", "collapse_check", "ladder.collapse_check"),
    ("heylab.variety", "strictness_report", "variety.strictness"),
    ("heylab.corpus", "corpus_from_spec", "corpus.corpus_from_spec"),
    ("heylab.corpus", "all_posets_up_to_iso", "corpus.all_posets_up_to_iso"),
    ("heylab.corpus", "random_posets", "corpus.random_posets"),
    ("heylab.verify", "run_verification", "verify.run_verification"),
    ("heylab.verify", "verify_residuation", "verify.verify_residuation"),
    ("heylab.verify", "verify_rank_type", "verify.verify_rank_type"),
    ("heylab.verify", "verify_duality", "verify.verify_duality"),
    ("heylab.verify", "verify_canonical_range", "verify.verify_canonical_range"),
    ("heylab.verify", "verify_collapse", "verify.verify_collapse"),
    ("heylab.verify", "verify_non_colourable", "verify.verify_non_colourable"),
    ("heylab.verify", "verify_next_level", "verify.verify_next_level"),
    ("heylab.verify", "verify_strictness", "verify.verify_strictness"),
    ("heylab.verify", "verify_oracle_equivalence", "verify.verify_oracle_equivalence"),
    ("heylab.cli", "_emit", "cli.emit"),
)
# hot functions: aggregated only, no span each
FRAME_TARGETS = (("heylab.colouring", "_omega_block_of", "colouring.omega"),)
LEAF_TARGETS = (
    ("heylab.poset", "validate", "poset.validate"),
    ("heylab.algebra", "imp_mask", "algebra.imp_mask"),
    ("heylab.colouring", "_refine_block_of", "colouring.refine"),
    ("heylab.variety", "subalgebra_closure", "variety.closure"),
)

# The eight acceptance criteria, as the benchmark names their spans.
LEMMAS = (
    "residuation",
    "rank_type",
    "duality",
    "canonical",
    "non_colourable",
    "collapse",
    "strictness",
    "oracle",
)

# Every per-layer metric, with its unit; `layer_metrics` fills all of them.
PER_LAYER = (
    ("poset.upset_masks.calls", "count"),
    ("poset.upset_masks.misses", "count"),
    ("poset.upset_masks.hit_ratio", "ratio"),
    ("poset.upset_masks.s", "s"),
    ("poset.upsets_enumerated", "count"),
    ("poset.validate.calls", "count"),
    ("poset.validate.s", "s"),
    ("algebra.imp_mask.calls", "count"),
    ("algebra.imp_mask.s", "s"),
    ("algebra.algebra_of.calls", "count"),
    ("algebra.algebra_of.s", "s"),
    ("colouring.omega.calls", "count"),
    ("colouring.omega.rounds", "count"),
    ("colouring.omega.s", "s"),
    ("colouring.refine.calls", "count"),
    ("colouring.refine.s", "s"),
    ("subalgebra.generate.calls", "count"),
    ("subalgebra.generate.s", "s"),
    ("subalgebra.elements", "count"),
    ("subalgebra.strata", "count"),
    ("subalgebra.imp_per_element", "ratio"),
    ("subalgebra.witness_text.calls", "count"),
    ("subalgebra.witness_text.s", "s"),
    ("subalgebra.witness_text.chars", "chars"),
    ("ladder.build_ladder.calls", "count"),
    ("ladder.build_ladder.s", "s"),
    ("ladder.scan.tuples", "count"),
    ("ladder.scan.s", "s"),
    ("ladder.collapse_check.s", "s"),
    ("variety.strictness.tuples", "count"),
    ("variety.strictness.s", "s"),
    ("variety.closure.calls", "count"),
    ("variety.closure.s", "s"),
    ("corpus.posets", "count"),
    ("corpus.s", "s"),
    *((f"verify.{lemma}.s", "s") for lemma in LEMMAS),
    ("verify.s", "s"),
    ("cli.interpreter_s", "s"),
    ("cli.import_s", "s"),
    ("cli.emit_s", "s"),
    ("cli.emit_bytes", "B"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """Frames, spans and per-name aggregates of one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        # a frame is [start, time of wrapped callees, span id]
        self.stack = [[0.0, 0.0, None]]
        # name -> [calls, self seconds, total seconds]
        self.cells: dict = {}
        self.counts: dict = {}
        self.spans: list = []
        self._next_span = 0

    def calls(self, name: str) -> int:
        return self.cells.get(name, (0,))[0]

    def add(self, key: str, value) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def _cell(self, name: str) -> list:
        return self.cells.setdefault(name, [0, 0.0, 0.0])

    def _enter(self, span: bool) -> list:
        parent = self.stack[-1]
        if span:
            sid = self._next_span
            self._next_span += 1
        else:
            sid = parent[2]
        frame = [time.perf_counter(), 0.0, sid]
        self.stack.append(frame)
        return frame

    def _leave(self, name: str, frame: list, span: bool) -> None:
        end = time.perf_counter()
        self.stack.pop()
        parent = self.stack[-1]
        dur = end - frame[0]
        parent[1] += dur
        cell = self._cell(name)
        cell[0] += 1
        cell[1] += dur - frame[1]
        cell[2] += dur
        if span:
            self.spans.append((frame[2], parent[2], name, frame[0], end))

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        frame = self._enter(True)
        try:
            yield
        finally:
            self._leave(name, frame, True)

    def wrap(self, fn, name: str, span: bool):
        enter, leave = self._enter, self._leave
        after = _AFTER.get(name)
        before = _BEFORE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(self, args) if before else None
            frame = enter(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(name, frame, span)
            if after:
                after(self, result, state)
            return result

        return traced

    def wrap_leaf(self, fn, name: str):
        """A cheaper wrapper for hot functions that call no wrapped function:
        no frame of its own, only its cell and the caller's callee time."""
        cell, stack, pc = self._cell(name), self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args):
            start = pc()
            result = fn(*args)
            dur = pc() - start
            cell[0] += 1
            cell[1] += dur
            cell[2] += dur
            stack[-1][1] += dur
            return result

        return traced

    def install(self) -> None:
        """Wrap every target under every name heylab's modules bind it to."""
        mods = [importlib.import_module(m) for m in MODULES]
        mods.append(sys.modules["heylab"])
        kinds = ((SPAN_TARGETS, "span"), (FRAME_TARGETS, "frame"), (LEAF_TARGETS, "leaf"))
        for targets, kind in kinds:
            for mod_name, attr, name in targets:
                orig = getattr(sys.modules[mod_name], attr)
                if kind == "leaf":
                    wrapped = self.wrap_leaf(orig, name)
                else:
                    wrapped = self.wrap(orig, name, kind == "span")
                for mod in mods:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, key, wrapped)
        self._install_witness_text()
        self._install_tuple_count()

    def _install_tuple_count(self) -> None:
        # tuples drawn by heylab.variety's scans, however each one is closed
        variety = sys.modules["heylab.variety"]
        orig = variety.combinations_with_replacement
        counts = self.counts

        def counted(*args, **kwargs):
            for tup in orig(*args, **kwargs):
                counts["variety.tuples"] = counts.get("variety.tuples", 0) + 1
                yield tup

        variety.combinations_with_replacement = counted

    def _install_witness_text(self) -> None:
        # witness_text recurses through self.witness_text; only the outermost
        # call is a user-visible rendering, so nested calls pass straight on.
        cls = sys.modules["heylab.subalgebra"].RankedAlgebra
        orig = cls.witness_text
        tracer = self
        depth = [0]

        @functools.wraps(orig)
        def traced(ra, U):
            if depth[0]:
                return orig(ra, U)
            depth[0] += 1
            frame = tracer._enter(False)
            try:
                text = orig(ra, U)
            finally:
                tracer._leave("subalgebra.witness_text", frame, False)
                depth[0] -= 1
            tracer.add("subalgebra.witness_text.chars", len(text))
            return text

        cls.witness_text = traced

    def aggregates(self) -> dict:
        return {
            "calls": {k: c[0] for k, c in self.cells.items()},
            "self_s": {k: c[1] for k, c in self.cells.items()},
            "total_s": {k: c[2] for k, c in self.cells.items()},
            "counts": self.counts,
        }

    def dump(self, path: str, extra: dict = None) -> None:
        """Append this process's spans and one aggregate record to path."""
        with open(path, "a") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "run": self.run_id,
                            "id": sid,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                        }
                    )
                    + "\n"
                )
            record = {"run": self.run_id, "aggregates": self.aggregates()}
            if extra:
                record.update(extra)
            fh.write(json.dumps(record) + "\n")


# Hooks that derive counters from a call's arguments and result.


def _before_upset_masks(tracer, args):
    return args[0]._upset_masks is None


def _after_upset_masks(tracer, result, miss):
    if miss:
        tracer.add("poset.upset_masks.misses", 1)
        tracer.add("poset.upsets_enumerated", len(result))


def _after_omega(tracer, result, state):
    tracer.add("colouring.omega.rounds", result[1] + 1)


def _before_generate(tracer, args):
    return tracer.calls("algebra.imp_mask")


def _after_generate(tracer, result, imp_before):
    tracer.add("subalgebra.elements", len(result.elements))
    tracer.add("subalgebra.strata", len(result.strata))
    tracer.add(
        "subalgebra.imp_calls", tracer.calls("algebra.imp_mask") - imp_before
    )


def _after_scan(tracer, result, state):
    tracer.add("ladder.scan.tuples", result["checked"])


def _before_strictness(tracer, args):
    return tracer.counts.get("variety.tuples", 0)


def _after_strictness(tracer, result, tuples_before):
    tracer.add(
        "variety.strictness.tuples",
        tracer.counts.get("variety.tuples", 0) - tuples_before,
    )


def _before_corpus(tracer, args):
    # only the outermost corpus call emits posets to its caller
    outer = tracer.counts.get("corpus.depth", 0) == 0
    tracer.add("corpus.depth", 1)
    return outer


def _after_corpus(tracer, result, outer):
    tracer.add("corpus.depth", -1)
    if outer:
        tracer.add("corpus.posets", len(result))


_BEFORE = {
    "poset.upset_masks": _before_upset_masks,
    "subalgebra.generate": _before_generate,
    "variety.strictness": _before_strictness,
    "corpus.corpus_from_spec": _before_corpus,
    "corpus.all_posets_up_to_iso": _before_corpus,
    "corpus.random_posets": _before_corpus,
}
_AFTER = {
    "poset.upset_masks": _after_upset_masks,
    "colouring.omega": _after_omega,
    "subalgebra.generate": _after_generate,
    "ladder.scan": _after_scan,
    "variety.strictness": _after_strictness,
    "corpus.corpus_from_spec": _after_corpus,
    "corpus.all_posets_up_to_iso": _after_corpus,
    "corpus.random_posets": _after_corpus,
}


def merge(aggs: list) -> dict:
    """Sum the aggregates of several processes (one CLI script pass)."""
    out = {"calls": {}, "self_s": {}, "total_s": {}, "counts": {}}
    for agg in aggs:
        for part, table in agg.items():
            for key, value in table.items():
                out[part][key] = out[part].get(key, 0) + value
    return out


def layer_metrics(agg: dict, lemma_s: dict, cli: dict) -> dict:
    """Per-layer metrics of one traced iteration.

    `.s` is self time (the function's own code, excluding wrapped callees)
    except `verify.<lemma>.s`, which is the whole criterion as the benchmark
    called it. lemma_s maps lemma to that time; cli holds the cli.* values.
    """
    calls, self_s, counts = agg["calls"], agg["self_s"], agg["counts"]

    def layer_self(prefix):
        return sum(v for k, v in self_s.items() if k.startswith(prefix))

    um_calls = calls.get("poset.upset_masks", 0)
    um_misses = counts.get("poset.upset_masks.misses", 0)
    elements = counts.get("subalgebra.elements", 0)
    m = {
        "poset.upset_masks.calls": um_calls,
        "poset.upset_masks.misses": um_misses,
        "poset.upset_masks.hit_ratio": (um_calls - um_misses) / um_calls if um_calls else 0.0,
        "poset.upset_masks.s": self_s.get("poset.upset_masks", 0.0),
        "poset.upsets_enumerated": counts.get("poset.upsets_enumerated", 0),
        "poset.validate.calls": calls.get("poset.validate", 0),
        "poset.validate.s": self_s.get("poset.validate", 0.0),
        "algebra.imp_mask.calls": calls.get("algebra.imp_mask", 0),
        "algebra.imp_mask.s": self_s.get("algebra.imp_mask", 0.0),
        "algebra.algebra_of.calls": calls.get("algebra.algebra_of", 0),
        "algebra.algebra_of.s": self_s.get("algebra.algebra_of", 0.0),
        "colouring.omega.calls": calls.get("colouring.omega", 0),
        "colouring.omega.rounds": counts.get("colouring.omega.rounds", 0),
        "colouring.omega.s": self_s.get("colouring.omega", 0.0),
        "colouring.refine.calls": calls.get("colouring.refine", 0),
        "colouring.refine.s": self_s.get("colouring.refine", 0.0),
        "subalgebra.generate.calls": calls.get("subalgebra.generate", 0),
        "subalgebra.generate.s": self_s.get("subalgebra.generate", 0.0),
        "subalgebra.elements": elements,
        "subalgebra.strata": counts.get("subalgebra.strata", 0),
        "subalgebra.imp_per_element": (
            counts.get("subalgebra.imp_calls", 0) / elements if elements else 0.0
        ),
        "subalgebra.witness_text.calls": calls.get("subalgebra.witness_text", 0),
        "subalgebra.witness_text.s": self_s.get("subalgebra.witness_text", 0.0),
        "subalgebra.witness_text.chars": counts.get("subalgebra.witness_text.chars", 0),
        "ladder.build_ladder.calls": calls.get("ladder.build_ladder", 0),
        "ladder.build_ladder.s": self_s.get("ladder.build_ladder", 0.0),
        "ladder.scan.tuples": counts.get("ladder.scan.tuples", 0),
        "ladder.scan.s": self_s.get("ladder.scan", 0.0),
        "ladder.collapse_check.s": self_s.get("ladder.collapse_check", 0.0),
        "variety.strictness.tuples": counts.get("variety.strictness.tuples", 0),
        "variety.strictness.s": self_s.get("variety.strictness", 0.0),
        "variety.closure.calls": calls.get("variety.closure", 0),
        "variety.closure.s": self_s.get("variety.closure", 0.0),
        "corpus.posets": counts.get("corpus.posets", 0),
        "corpus.s": layer_self("corpus."),
        **{f"verify.{lemma}.s": lemma_s.get(lemma, 0.0) for lemma in LEMMAS},
        "verify.s": layer_self("verify."),
        "cli.interpreter_s": cli.get("interpreter_s", 0.0),
        "cli.import_s": cli.get("import_s", 0.0),
        "cli.emit_s": self_s.get("cli.emit", 0.0),
        "cli.emit_bytes": cli.get("emit_bytes", 0),
    }
    return m
