import hashlib
import importlib
import inspect
import json
import os
import random
import sys
import threading
import time

import pytest
from conftest import BoundedRandom

from heylab import algebra as algebra_mod
from heylab import corpus as corpus_mod
from heylab import subalgebra as subalgebra_mod
from heylab import verify as verify_mod
from heylab.corpus import all_posets_up_to_iso, corpus_from_spec
from heylab.errors import BudgetExceeded
from heylab.poset import (
    DEFAULT_SEED,
    is_upset_mask,
    iter_bits,
    poset_from_json,
    poset_to_json,
    upset_lists,
    upset_masks,
)
from heylab.verify import (
    LEMMAS,
    OPTIONS,
    _report,
    _sample_generator_sets,
    _sampled_lemma,
    run_verification,
    verify_canonical_range,
    verify_collapse,
    verify_duality,
    verify_next_level,
    verify_non_colourable,
    verify_oracle_equivalence,
    verify_rank_type,
    verify_residuation,
    verify_strictness,
)


@pytest.fixture(scope="module")
def tiny_corpus():
    return all_posets_up_to_iso(4)


def test_residuation_report(tiny_corpus):
    r = verify_residuation(tiny_corpus)
    assert r["passed"] and not r["failures"]
    assert r["posets"] == 24
    assert r["triples"] > 0


def oracle_residuation(corpus):
    """verify_residuation one triple at a time, through the implication
    that it uses, heylab.algebra.imp_mask."""
    failures = []
    triples = 0
    for P in corpus:
        masks = upset_masks(P)
        for b in masks:
            for c in masks:
                imp = algebra_mod.imp_mask(P, b, c)
                for a in masks:
                    ok = ((a & b & ~c) == 0) == ((a & ~imp) == 0)
                    ok = ok and (a & (b | c)) == ((a & b) | (a & c))
                    if not ok:
                        triple = [sorted(iter_bits(m)) for m in (a, b, c)]
                        failures.append({"poset": poset_to_json(P), "triple": triple})
                triples += len(masks)
    return _report("residuation", failures, posets=len(corpus), triples=triples)


def test_residuation_against_per_triple_oracle(tiny_corpus):
    assert verify_residuation(tiny_corpus) == oracle_residuation(tiny_corpus)


def test_residuation_failures_against_per_triple_oracle(monkeypatch):
    # a wrong implication, that leaves point 0 out of every b -> c
    orig = algebra_mod.imp_mask
    monkeypatch.setattr("heylab.algebra.imp_mask", lambda P, b, c: orig(P, b, c) & ~1)
    corpus = all_posets_up_to_iso(3)
    r = verify_residuation(corpus)
    assert len(r["failures"]) == 274
    assert json.dumps(r, indent=1) == json.dumps(oracle_residuation(corpus), indent=1)


def test_residuation_pairs_are_capped_poset_by_poset(tiny_corpus, monkeypatch):
    pairs = [len(upset_masks(P)) ** 2 for P in tiny_corpus]
    total = sum(pairs)
    assert verify_residuation(tiny_corpus, budget_tuples=total) == verify_residuation(
        tiny_corpus
    )
    message = f"{total} (b, c) pairs exceed the budget of {total - 1} (--budget-tuples)"
    with pytest.raises(BudgetExceeded) as caught:
        verify_residuation(tiny_corpus, budget_tuples=total - 1)
    assert str(caught.value) == message
    # the first poset past the cap is refused before any of its pairs is
    # checked, and the message names the count it reached
    calls = []
    orig = algebra_mod.imp_mask
    monkeypatch.setattr(
        "heylab.algebra.imp_mask", lambda P, b, c: calls.append(P) or orig(P, b, c)
    )
    with pytest.raises(BudgetExceeded, match=rf"^{pairs[0] + pairs[1]} \(b, c\)"):
        verify_residuation(tiny_corpus, budget_tuples=pairs[0])
    assert calls == [tiny_corpus[0]] * pairs[0]


def test_residuation_pairs_on_the_documented_corpora():
    # the default corpus stays under the default cap of 2**20; exhaustive7
    # does not (README)
    def pairs(spec):
        return sum(len(upset_masks(P)) ** 2 for P in corpus_mod.SpecCorpus(spec))

    assert pairs("exhaustive5,random200:2718") == 45_558
    assert pairs("exhaustive7") == 1_444_605


def test_rank_type_report(tiny_corpus):
    r = verify_rank_type(tiny_corpus, gens_per_poset=5, max_stage=3, seed=1)
    assert r["passed"]
    assert r["checks"] == 24 * 5 * 4


def test_duality_report(tiny_corpus):
    r = verify_duality(tiny_corpus, gens_per_poset=5, seed=1)
    assert r["passed"] and r["checks"] == 120


def test_canonical_report():
    r = verify_canonical_range(cases=((0, 4), (1, 4)))
    assert r["passed"] and r["checks"] == 8


def test_canonical_range_checks_every_case_before_building(monkeypatch):
    # depth 1 of n=14 is within the budget, but takes a second to check
    monkeypatch.setattr("heylab.verify.verify_canonical", lambda *args: pytest.fail())
    with pytest.raises(BudgetExceeded, match="^268484611 ladder pairs exceed"):
        verify_canonical_range(cases=((0, 2), (14, 2)))


def test_collapse_report():
    r = verify_collapse(1, samples=10, seed=3)
    assert r["passed"] and r["depth"] == 8


def test_collapse_failure_payload(monkeypatch):
    # every failure carries its colours and its full collapse report
    orig = verify_mod.collapse_check
    monkeypatch.setattr(
        "heylab.verify.collapse_check",
        lambda spec, P, masks: {**orig(spec, P, masks), "bound_satisfied": False},
    )
    r = verify_collapse(1, samples=3, seed=3)
    payload = json.dumps(r, sort_keys=True).encode()
    assert hashlib.sha256(payload).hexdigest() == (
        "424f39df8b41c9de95a52ad1d942f8716aa9e0ea62a0eed3dc7341f9a10e03e2"
    )


def test_collapse_refuses_a_depth_too_shallow_for_its_colours():
    # at depth 7 some seeds draw colours too deep for collapse_check, so a
    # depth below 2**n + 6 is refused whatever the seed, before any draw
    for seed in range(1, 17):
        with pytest.raises(ValueError, match="^--depth must be >= 8 "):
            verify_collapse(1, samples=1, seed=seed, depth=7)
        assert verify_collapse(1, samples=1, seed=seed, depth=8)["passed"]


def test_non_colourable_report():
    r = verify_non_colourable(1, 4)
    assert r["passed"]


def test_next_level_report():
    r = verify_next_level(1, 6, samples=10, seed=3)
    assert r["passed"]


def test_strictness_report():
    r = verify_strictness(1, (4, 5))
    assert r["passed"]
    assert r["max_generated_constant"]
    assert r["algebra_size_strictly_increasing"]


@pytest.mark.parametrize("depths", [(6, 4), (4, 4), (4, 6, 5)])
def test_strictness_refuses_depths_out_of_order(depths):
    with pytest.raises(ValueError, match="^--depths must be strictly increasing"):
        verify_strictness(1, depths)


def test_oracle_report(tiny_corpus):
    r = verify_oracle_equivalence(tiny_corpus, gens_per_poset=5, seed=1)
    assert r["passed"] and r["checks"] == 120


def test_reports_are_deterministic(tiny_corpus):
    a = verify_rank_type(tiny_corpus, gens_per_poset=5, max_stage=2, seed=9)
    b = verify_rank_type(tiny_corpus, gens_per_poset=5, max_stage=2, seed=9)
    assert json.dumps(a, sort_keys=True, indent=1) == json.dumps(
        b, sort_keys=True, indent=1
    )


def test_run_verification_dispatch():
    r = run_verification("residuation", corpus="exhaustive3")
    assert r["lemma"] == "residuation" and r["passed"]
    r = run_verification("canonical", n=1, depth=3)
    assert r["passed"]
    with pytest.raises(ValueError):
        run_verification("no-such-lemma")


def test_run_verification_drops_none_kwargs():
    r = run_verification("non-colourable", n=1, depth=3, k=None, samples=None)
    assert r["passed"] and r["mode"] == "exhaustive"


def test_sampled_non_colourable_is_seeded_by_default():
    # four unseeded runs gave max_classes 5, 6, 7 and 8 when the seed
    # defaulted to None
    runs = [
        run_verification("non-colourable", n=2, depth=2, k=2, samples=3, seed=seed)
        for seed in (None, None, 2718)
    ]
    assert runs[0] == runs[1] == runs[2] and runs[0]["seed"] == 2718
    assert verify_non_colourable(2, 2, k=2, samples=3) == runs[0]
    assert verify_non_colourable(1, 3)["seed"] is None  # exhaustive: no draw


@pytest.mark.parametrize("run, message", [
    pytest.param(lambda c: verify_collapse(1, samples=-3), "--samples ... -3",
                 id="collapse"),
    pytest.param(lambda c: verify_next_level(1, depth=4, samples=-2), "--samples ... -2",
                 id="next-level"),
    pytest.param(lambda c: verify_next_level(1, depth=4, k=-1), "--k ... -1",
                 id="next-level-k"),
    pytest.param(lambda c: verify_non_colourable(1, depth=3, samples=-1),
                 "--samples ... -1", id="non-colourable"),
    pytest.param(lambda c: verify_non_colourable(1, depth=3, k=-1), "--k ... -1",
                 id="non-colourable-k"),
    pytest.param(lambda c: verify_rank_type(c, gens_per_poset=-2),
                 "--gens-per-poset ... -2", id="rank-type"),
    pytest.param(lambda c: verify_duality(c, gens_per_poset=-2),
                 "--gens-per-poset ... -2", id="duality"),
    pytest.param(lambda c: verify_oracle_equivalence(c, gens_per_poset=-2),
                 "--gens-per-poset ... -2", id="oracle"),
])
def test_negative_counts_are_refused_from_python(tiny_corpus, run, message):
    # each of these checked nothing and reported passed: True (k=-1 raised
    # itertools' error in non-colourable)
    with pytest.raises(ValueError) as caught:
        run(tiny_corpus)
    assert str(caught.value) == message.replace("...", "must be >= 0, got")


GLOBAL_VALUES = {"corpus", "seed", "budget_upsets", "budget_tuples"}


@pytest.mark.parametrize("name", list(LEMMAS))
def test_lemma_table_agrees_with_the_signature(name):
    # run_verification reads the table, so the table must say what the
    # function takes: every keyword, the options without a default as
    # needed, and defaults that the dispatch would accept
    fn_name, takes = LEMMAS[name]
    params = inspect.signature(getattr(verify_mod, fn_name)).parameters
    needs = {w[:-1] for w in takes.split() if w.endswith("!")}
    names = takes.replace("!", "").split()
    assert sorted(names) == sorted(params)
    assert set(names) - GLOBAL_VALUES <= set(OPTIONS)
    # the corpus has no default, for the dispatch always gives one
    no_default = {k for k, p in params.items() if p.default is p.empty}
    assert no_default - {"corpus"} == needs
    for key, p in params.items():
        if key == "seed":
            assert p.default == DEFAULT_SEED
        elif key.startswith("budget_"):
            assert p.default is None
        elif key not in no_default and p.default is not None:
            least = OPTIONS[key].least
            assert least is None or p.default >= least, key


def test_every_option_is_taken_by_some_lemma():
    taken = {w.rstrip("!") for _, takes in LEMMAS.values() for w in takes.split()}
    assert set(OPTIONS) <= taken


def test_dispatch_calls_the_lemma_bound_in_the_module(monkeypatch):
    # a rebinding of a lemma's name, as a tracer's wrapper or a patch makes,
    # is what run_verification calls
    calls = []
    orig = verify_mod.verify_residuation
    monkeypatch.setattr(
        "heylab.verify.verify_residuation", lambda **kw: calls.append(kw) or orig(**kw)
    )
    report = run_verification("residuation", corpus="exhaustive3")
    assert report["passed"] and report["posets"] == 8
    assert [sorted(kw) for kw in calls] == [["corpus"]]


def oracle_sampled_lemma(
    lemma, corpus, gens_per_poset, seed, budget_upsets, check, checks_per_run=1,
    budget_tuples=None, **fields,
) -> dict:
    """_sampled_lemma without its memo or its cap: check(P, G) runs on every
    draw."""
    failures = []
    runs = 0
    rng = random.Random(seed)
    for P in corpus:
        masks = upset_masks(P, budget_upsets)
        for G in _sample_generator_sets(masks, gens_per_poset, rng):
            runs += 1
            details = check(P, G)
            if details is not None:
                failure = {"poset": poset_to_json(P), "generators": upset_lists(G)}
                failures.append({**failure, **details})
    return _report(
        lemma, failures, seed=seed, posets=len(corpus), gens_per_poset=gens_per_poset,
        checks=runs * checks_per_run, **fields,
    )


def _draws(corpus, gens_per_poset, seed):
    """Every (poset index, G) that the sampled lemmas check, in order."""
    draws = []

    def record(P, G):
        draws.append((corpus.index(P), G))

    oracle_sampled_lemma("draws", corpus, gens_per_poset, seed, None, record)
    return draws


def test_sampled_lemma_failure_replays(tiny_corpus):
    # a check that fails on one (P, G) drawn more than once fails, and
    # replays, on every draw of it
    draws = _draws(tiny_corpus, 5, 1)
    chosen = next(d for d in draws if d[1] and draws.count(d) > 1)

    def check(P, G):
        return {"why": "chosen"} if (tiny_corpus.index(P), G) == chosen else None

    r = _sampled_lemma("probe", tiny_corpus, 5, 1, None, check)
    assert not r["passed"] and r["checks"] == 120
    assert len(r["failures"]) == draws.count(chosen)
    P, G = tiny_corpus[chosen[0]], chosen[1]
    for f in r["failures"]:
        assert f["why"] == "chosen"
        Q = poset_from_json(f["poset"])
        assert Q == P
        masks = [sum(1 << i for i in g) for g in f["generators"]]
        assert masks == list(G) and all(is_upset_mask(Q, m) for m in masks)


# (what to break, how, the lemma run, the keys of each failure payload)
FAILURE_PATHS = [
    pytest.param(
        "heylab.algebra.imp_mask", lambda orig: lambda P, b, c: P.full_mask,
        lambda corpus: verify_residuation(corpus), {"poset", "triple"},
        id="residuation",
    ),
    pytest.param(
        "heylab.colouring._refine_block_of", lambda orig: lambda P, b, f, d: (b, []),
        lambda corpus: verify_rank_type(corpus, gens_per_poset=5, max_stage=3, seed=1),
        {"poset", "generators", "stages"}, id="rank-type",
    ),
    pytest.param(
        "heylab.subalgebra.omega_class_count", lambda orig: lambda P, masks: P.n,
        lambda corpus: verify_duality(corpus, gens_per_poset=5, seed=1),
        {"poset", "generators", "generates_all", "coloured"}, id="duality",
    ),
    pytest.param(
        "heylab.variety.subalgebra_closure", lambda orig: lambda A, gens: frozenset(),
        lambda corpus: verify_oracle_equivalence(corpus, gens_per_poset=5, seed=1),
        {"poset", "generators", "table_size", "strata_size"}, id="oracle",
    ),
    pytest.param(
        "heylab.verify.verify_canonical", lambda orig: lambda n, depth, budget: False,
        lambda corpus: verify_canonical_range(cases=((1, 2),)), {"n", "depth"},
        id="canonical",
    ),
    pytest.param(
        "heylab.verify.collapse_check",
        lambda orig: lambda spec, P, masks: {
            **orig(spec, P, masks), "bound_satisfied": False
        },
        lambda corpus: verify_collapse(1, samples=3, seed=3), {"colours", "report"},
        id="collapse",
    ),
    pytest.param(
        "heylab.verify.next_level_bound_check", lambda orig: lambda spec, P, masks: False,
        lambda corpus: verify_next_level(1, 4, samples=3, seed=3), {"colours"},
        id="next-level",
    ),
]


def _break(monkeypatch, target, broken):
    module, name = target.rsplit(".", 1)
    orig = getattr(importlib.import_module(module), name)
    monkeypatch.setattr(target, broken(orig))


@pytest.mark.parametrize("target, broken, run, keys", FAILURE_PATHS)
def test_failure_paths_record_their_failures(
    tiny_corpus, monkeypatch, target, broken, run, keys
):
    _break(monkeypatch, target, broken)
    r = run(tiny_corpus)
    assert not r["passed"] and r["failures"]
    assert all(set(f) == keys for f in r["failures"])


# the sampled lemmas, and two FAILURE_PATHS faults that make some of them fail
SAMPLED = {
    "rank-type": lambda corpus, seed: verify_rank_type(
        corpus, gens_per_poset=20, max_stage=3, seed=seed
    ),
    "duality": lambda corpus, seed: verify_duality(
        corpus, gens_per_poset=20, seed=seed
    ),
    "oracle": lambda corpus, seed: verify_oracle_equivalence(
        corpus, gens_per_poset=20, seed=seed
    ),
}
FAULTS = {p.id: p.values[:2] for p in FAILURE_PATHS if p.id in ("rank-type", "duality")}


@pytest.mark.parametrize("fault", [None, *FAULTS])
@pytest.mark.parametrize("seed", [1, 7, 2718])
@pytest.mark.parametrize("lemma", list(SAMPLED))
def test_sampled_lemmas_match_per_draw_oracle(tiny_corpus, monkeypatch, lemma, seed,
                                              fault):
    # 20 draws a poset from posets of at most 4 points repeat many sets
    draws = _draws(tiny_corpus, 20, seed)
    assert len(set(draws)) < len(draws) * 0.8
    if fault is not None:
        _break(monkeypatch, *FAULTS[fault])
    got = SAMPLED[lemma](tiny_corpus, seed)
    monkeypatch.setattr("heylab.verify._sampled_lemma", oracle_sampled_lemma)
    expected = SAMPLED[lemma](tiny_corpus, seed)
    assert json.dumps(got, indent=1) == json.dumps(expected, indent=1)
    if fault == lemma:  # repeated failing draws keep their count
        failed = [json.dumps([f["poset"], f["generators"]]) for f in got["failures"]]
        assert len(set(failed)) < len(failed)


def test_sampled_lemma_checks_each_distinct_draw_once(tiny_corpus, monkeypatch):
    # seen fills in this process only, so every poset is checked here
    monkeypatch.setattr(verify_mod, "_shares", lambda posets, gens: 1)
    draws = _draws(tiny_corpus, 20, 7)
    seen = []

    def check(P, G):
        seen.append((tiny_corpus.index(P), G))

    r = _sampled_lemma("probe", tiny_corpus, 20, 7, None, check)
    assert r["checks"] == len(draws) and r["passed"]
    assert sorted(seen) == sorted(set(draws))


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


SHARE_CORPUS = "exhaustive4,random40:11"
SHARED = {
    "rank-type": lambda corpus: verify_rank_type(corpus, max_stage=3),
    "duality": verify_duality,
    "oracle": verify_oracle_equivalence,
}


@pytest.mark.parametrize("fault", [None, *SHARED])
@pytest.mark.parametrize("lemma", list(SHARED))
def test_share_count_changes_no_byte(monkeypatch, lemma, fault):
    corpus = corpus_from_spec(SHARE_CORPUS)
    faults = {p.id: p.values[:2] for p in FAILURE_PATHS if p.id in SHARED}
    if fault is not None:
        _break(monkeypatch, *faults[fault])
    reports = {}
    for shares in (1, 2, 3, 5):
        monkeypatch.setattr(verify_mod, "_shares", lambda posets, gens: shares)
        reports[shares] = json.dumps(SHARED[lemma](corpus), indent=1)
        _no_child_left()
    assert reports[2] == reports[3] == reports[5] == reports[1]
    if fault == lemma:  # every split puts failures in more than one share
        failures = json.loads(reports[1])["failures"]
        failed = {corpus.index(poset_from_json(f["poset"])) for f in failures}
        assert all(len({i % k for i in failed}) > 1 for k in (2, 3, 5))


class Unpicklable(Exception):
    def __init__(self, poset, why):  # pickle rebuilds it from the message alone
        super().__init__(f"{why} at poset {poset}")


def _raising_at(corpus, raises):
    """A check that raises raises[i](i) on corpus poset i, else passes."""
    def check(P, G):
        i = corpus.index(P)
        if i in raises:
            raise raises[i](i)
    return check


@pytest.mark.parametrize("low, high", [(2, 5), (3, 4), (3, 5)])
def test_the_least_poset_index_raises_from_any_share(tiny_corpus, monkeypatch, low,
                                                     high):
    # share 0 holds the even indices, share 1 the odd ones
    monkeypatch.setattr(verify_mod, "_shares", lambda posets, gens: 2)
    raises = {i: (lambda i: ValueError(f"poset {i}")) for i in (low, high)}
    with pytest.raises(ValueError, match=f"^poset {low}$"):
        _sampled_lemma("probe", tiny_corpus, 5, 1, None, _raising_at(tiny_corpus, raises))
    _no_child_left()
    r = _sampled_lemma("probe", tiny_corpus, 5, 1, None, lambda P, G: None)
    assert r["passed"] and r["checks"] == 24 * 5
    _no_child_left()


def test_an_error_that_pickle_cannot_rebuild_comes_back_named(tiny_corpus, monkeypatch):
    monkeypatch.setattr(verify_mod, "_shares", lambda posets, gens: 2)
    check = _raising_at(tiny_corpus, {3: lambda i: Unpicklable(i, "bad")})
    with pytest.raises(RuntimeError) as caught:
        _sampled_lemma("probe", tiny_corpus, 5, 1, None, check)
    assert str(caught.value) == repr(Unpicklable(3, "bad"))
    _no_child_left()


def test_an_interrupted_lemma_leaves_no_child(tiny_corpus, monkeypatch):
    monkeypatch.setattr(verify_mod, "_shares", lambda posets, gens: 3)
    # this process is interrupted while a child checks for 30 s: the child is
    # killed, not waited for
    def check(P, G):
        i = tiny_corpus.index(P)
        if i == 3:
            raise KeyboardInterrupt
        if i == 4:
            time.sleep(30)

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        _sampled_lemma("probe", tiny_corpus, 5, 1, None, check)
    assert time.monotonic() - start < 10
    _no_child_left()
    # a child is interrupted, and ends without a result
    check = _raising_at(tiny_corpus, {4: lambda i: KeyboardInterrupt()})
    with pytest.raises(RuntimeError, match="^share 1 of 3 ended without a result$"):
        _sampled_lemma("probe", tiny_corpus, 5, 1, None, check)
    _no_child_left()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open fds in /proc")
def test_a_failed_fork_leaves_no_child_and_no_pipe(tiny_corpus, monkeypatch):
    monkeypatch.setattr(verify_mod, "_shares", lambda posets, gens: 3)
    forks = []
    real_fork = os.fork

    def fork():  # the second fork fails, as it does past a process limit
        forks.append(None)
        if len(forks) == 2:
            raise BlockingIOError("Resource temporarily unavailable")
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    open_fds = set(os.listdir("/proc/self/fd"))
    with pytest.raises(BlockingIOError):
        _sampled_lemma("probe", tiny_corpus, 5, 1, None, lambda P, G: None)
    _no_child_left()
    assert set(os.listdir("/proc/self/fd")) == open_fds


def test_a_budget_error_in_a_child_share_exits_2_unchanged(monkeypatch):
    # generate gets a cap of 2 on the fourth poset of exhaustive3, which
    # share 1 of 2 holds; the CLI shows the error one process gives
    from conftest import CliRunner

    from heylab.cli import main

    target = corpus_from_spec("exhaustive3")[3]
    orig = subalgebra_mod.generate

    def generate(P, G, budget=None):
        return orig(P, G, 2 if P == target else budget)

    monkeypatch.setattr(subalgebra_mod, "generate", generate)
    argv = ["verify", "oracle", "--corpus", "exhaustive3"]
    results = []
    for shares in (1, 2):
        monkeypatch.setattr(verify_mod, "_shares", lambda posets, gens: shares)
        results.append(CliRunner().invoke(main, argv))
        _no_child_left()
    one, two = results
    assert (two.exit_code, two.stdout, two.stderr) == (one.exit_code, one.stdout, one.stderr)
    assert two.exit_code == 2 and isinstance(two.exception, SystemExit)
    assert two.stderr.startswith("error: ") and two.stderr.count("\n") == 1
    assert "exceed the budget of 2 (--budget-upsets)" in two.stderr


def test_one_share_where_a_split_is_unsafe_or_empty(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert verify_mod._shares(10, 20) == 3
    assert verify_mod._shares(2, 20) == 2  # at most one share a poset
    assert verify_mod._shares(1, 20) == verify_mod._shares(10, 0) == 1
    # no sched_getaffinity (macOS): os.cpu_count counts the CPUs
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert verify_mod._shares(10, 20) == 4
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert verify_mod._shares(10, 20) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    # a tracer or a profiler sees the whole lemma in this process
    for install in (sys.settrace, sys.setprofile):
        before = (sys.gettrace, sys.getprofile)[install is sys.setprofile]()
        install(lambda *args: None)
        try:
            assert verify_mod._shares(10, 20) == 1
        finally:
            install(before)
    # another thread is running: no fork
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert verify_mod._shares(10, 20) == 1
    finally:
        release.set()
        thread.join()
    assert verify_mod._shares(10, 20) == 4
    monkeypatch.delattr(os, "fork")
    assert verify_mod._shares(10, 20) == 1


def test_a_lemma_beside_a_thread_runs_in_this_process(monkeypatch):
    def refuse():
        raise AssertionError("a threaded process forked")

    monkeypatch.setattr(os, "fork", refuse)
    corpus = all_posets_up_to_iso(3)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        r = verify_duality(corpus, gens_per_poset=5)
    finally:
        release.set()
        thread.join()
    assert r["passed"] and r["checks"] == 8 * 5


def old_sample_generator_sets(masks, count, rng):
    """_sample_generator_sets as first written, through randint and sample:
    the stream its draws must keep."""
    yield ()
    pool = list(masks)
    for _ in range(count - 1):
        size = rng.randint(1, min(2, len(pool)))
        yield tuple(sorted(rng.sample(pool, size)))


@pytest.mark.parametrize("size", [1, 2, 3, 4, 8, 21, 22, 40, 64, 65])
@pytest.mark.parametrize("seed", [0, 1, 7, 2718])
def test_generator_set_draws_keep_their_stream(size, seed):
    # sample draws from a copy of the pool up to 21 items and by rejection
    # past them; the pool's order is not its sorted order. randrange(n)
    # redraws its n.bit_length() bits least often at n = 2**j and most
    # often at n = 2**j + 1
    pool = [(i * 40503) % 65521 for i in range(1, size + 1)]
    rng, old_rng = random.Random(seed), random.Random(seed)
    got = list(_sample_generator_sets(pool, 400, rng))
    assert got == list(old_sample_generator_sets(pool, 400, old_rng))
    assert rng.getstate() == old_rng.getstate()


def test_generator_set_draws_refuse_an_empty_pool():
    # getrandbits(0) gives 0 for ever; the draw must raise randrange's
    # error, after the empty set, rather than loop
    rng, old_rng = BoundedRandom(1), BoundedRandom(1)
    assert next(_sample_generator_sets([], 2, rng)) == ()
    with pytest.raises(ValueError) as old:
        list(old_sample_generator_sets([], 2, old_rng))
    with pytest.raises(ValueError) as new:
        list(_sample_generator_sets([], 2, rng))
    assert str(new.value) == "empty range for randrange()"
    assert str(old.value).startswith(str(new.value))
    assert list(_sample_generator_sets([], 1, rng)) == [()]


def test_no_set_is_drawn_at_zero_gens_per_poset(monkeypatch):
    # a count of 0 yields no set, not even the empty one: nothing runs under
    # a cap of 0, and a report of gens_per_poset 0 checks nothing
    assert list(_sample_generator_sets([1, 3], 0, random.Random(1))) == []

    def check(*args):
        raise AssertionError("a check ran")

    for name in ("rank_type_mismatches", "duality_sides", "generate"):
        monkeypatch.setattr(subalgebra_mod, name, check)
    corpus = all_posets_up_to_iso(3)
    for lemma in (verify_rank_type, verify_duality, verify_oracle_equivalence):
        r = lemma(corpus, gens_per_poset=0, budget_tuples=0)
        assert (r["checks"], r["failures"], r["gens_per_poset"]) == (0, [], 0)


def test_negative_max_stage_is_refused_before_any_draw(monkeypatch):
    # a max_stage below 0 checks no stage: called from Python, as through
    # run_verification, it is refused before a set is drawn or closed
    def refuse(*args):
        raise AssertionError("a set was drawn")

    monkeypatch.setattr(verify_mod, "_sample_generator_sets", refuse)
    monkeypatch.setattr(subalgebra_mod, "rank_type_mismatches", refuse)
    message = "--max-stage must be >= 0, got -1"
    with pytest.raises(ValueError) as direct:
        verify_rank_type(all_posets_up_to_iso(2), gens_per_poset=3, max_stage=-1)
    with pytest.raises(ValueError) as dispatched:
        run_verification("rank-type", corpus="exhaustive2", max_stage=-1)
    assert str(direct.value) == str(dispatched.value) == message


def test_corpus_cap_is_checked_before_any_poset_is_built(monkeypatch):
    def refuse(*args):
        raise AssertionError("a poset was built")

    monkeypatch.setattr(corpus_mod, "all_posets_up_to_iso", refuse)
    monkeypatch.setattr(corpus_mod, "random_posets", refuse)
    # 19,449 posets x 20 draws x 6 stages
    message = "2333880 checks exceed the budget of 1048576 (--budget-tuples)"
    with pytest.raises(BudgetExceeded) as caught:
        run_verification("rank-type", corpus="exhaustive8")
    assert str(caught.value) == message
    with pytest.raises(BudgetExceeded, match="limited to 9 points"):
        run_verification("rank-type", corpus="random3,exhaustive10")
    with pytest.raises(ValueError, match="unknown corpus item 'bogus'"):
        run_verification("duality", corpus="exhaustive8,bogus")
