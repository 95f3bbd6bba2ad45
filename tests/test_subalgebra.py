import heapq
import sys
from itertools import combinations, combinations_with_replacement

import pytest
from conftest import oracle_imp, oracle_quotient_upset_count, posets_with_generators
from hypothesis import given
from hypothesis import strategies as st

from heylab import colouring, generate
from heylab import verify as verify_mod
from heylab.algebra import imp_mask
from heylab.colouring import _omega_block_of, _refine_block_of, _split
from heylab.corpus import DEFAULT_SEED, all_posets_up_to_iso, corpus_from_spec
from heylab.errors import BudgetExceeded
from heylab.ladder import LadderSpec, build_ladder, canonical_colouring
from heylab.poset import DEFAULT_UPSET_BUDGET, upset_masks
from heylab.subalgebra import (
    RankedAlgebra,
    _lattice_close,
    duality_sides,
    quotient_size,
    quotient_upset_count,
    rank_type_mismatches,
)
from heylab.verify import DEFAULT_CORPUS, _sampled_lemma


def oracle_lattice(P, seeds):
    """Join-normal form: all unions of intersections of nonempty seed
    subsets, with 0 and 1 adjoined. Valid because Up(P) is distributive."""
    items = sorted(set(seeds) | {0, P.full_mask})
    meets = set()
    for r in range(1, len(items) + 1):
        for c in combinations(items, r):
            m = P.full_mask
            for x in c:
                m &= x
            meets.add(m)
    out = {0}
    for m in sorted(meets):
        out |= {u | m for u in out}
    return out


def oracle_ranks(P, gens):
    """Minimal implication ranks by stagewise closure, built entirely on the
    oracle operations above."""
    cur = oracle_lattice(P, gens)
    ranks = {m: 0 for m in cur}
    stage = 0
    while True:
        cand = set(cur)
        for a in cur:
            for b in cur:
                cand.add(oracle_imp(P, a, b))
        nxt = oracle_lattice(P, cand)
        if nxt == cur:
            return ranks
        stage += 1
        for m in nxt - cur:
            ranks[m] = stage
        cur = nxt


def naive_lattice_close(seeds, witnesses, cap):
    elems = sorted(set(seeds))
    seen = set(elems)
    i = 0
    while i < len(elems):
        a = elems[i]
        for j in range(i + 1):
            b = elems[j]
            m = a & b
            if m not in seen:
                seen.add(m)
                elems.append(m)
                witnesses.setdefault(m, ("and", a, b))
            m = a | b
            if m not in seen:
                seen.add(m)
                elems.append(m)
                witnesses.setdefault(m, ("or", a, b))
        if len(seen) > cap:
            raise BudgetExceeded(f"lattice closure exceeds the budget of {cap}")
        i += 1
    return seen


def naive_generate(P, gmasks, budget=None):
    """generate before its rounds were semi-naive: each round forms the
    implications of all pairs of the stratum and lattice-closes them from
    scratch."""
    cap = DEFAULT_UPSET_BUDGET if budget is None else budget
    witnesses = {0: ("0",), P.full_mask: ("1",)}
    for i, m in enumerate(gmasks):
        witnesses.setdefault(m, ("g", i))
    seeds = set(gmasks) | {0, P.full_mask}
    cur = naive_lattice_close(seeds, witnesses, cap)
    strata = [frozenset(cur)]
    ranks = {m: 0 for m in sorted(cur)}
    while True:
        cand = set(cur)
        cur_sorted = sorted(cur)
        for a in cur_sorted:
            for b in cur_sorted:
                m = imp_mask(P, a, b)
                if m not in cand:
                    cand.add(m)
                    witnesses.setdefault(m, ("imp", a, b))
        nxt = naive_lattice_close(cand, witnesses, cap)
        if nxt == cur:
            return RankedAlgebra(P, tuple(strata), ranks, witnesses)
        strata.append(frozenset(nxt))
        for m in sorted(nxt - cur):
            ranks[m] = len(strata) - 1
        cur = nxt


def recursive_witness_text(ra, mask):
    """Oracle for RankedAlgebra.witness_text: render the witness term of
    mask by recursion, expanding the shared witness DAG into a tree."""
    t = ra.witnesses[mask]
    if t[0] == "g":
        return f"g{t[1]}"
    if t[0] in ("0", "1"):
        return t[0]
    op, a, b = t
    text = {"and": "and", "or": "or", "imp": "->"}[op]
    return f"({text} {recursive_witness_text(ra, a)} {recursive_witness_text(ra, b)})"


def assert_same_as_naive(P, gens, texts=True):
    """generate and naive_generate agree on the strata, the ranks and the
    witnesses, in their insertion order too; texts also compares the
    witness text of every element with the recursive rendering of
    naive_generate's witnesses."""
    ra, naive = generate(P, gens), naive_generate(P, gens)
    assert ra.strata == naive.strata
    assert list(ra.ranks.items()) == list(naive.ranks.items())
    assert list(ra.witnesses.items()) == list(naive.witnesses.items())
    if texts:
        for m in ra.elements:
            assert ra.witness_text(m) == recursive_witness_text(naive, m)


@given(posets_with_generators())
def test_generate_matches_naive_closure(case):
    assert_same_as_naive(*case)


def test_generate_matches_naive_closure_on_acceptance_runs():
    # the generator sets that criteria 2, 3 and 8 sample at the default seed
    corpus = corpus_from_spec(DEFAULT_CORPUS)

    def check(P, G):
        assert_same_as_naive(P, G)

    report = _sampled_lemma("semi-naive", corpus, 20, DEFAULT_SEED, None, check)
    assert (report["checks"], report["failures"]) == (5740, [])


@pytest.mark.parametrize("n, depths", [(1, range(1, 15)), (2, range(1, 7))])
def test_generate_matches_naive_closure_on_canonical_colourings(n, depths):
    for d in depths:
        P = build_ladder(LadderSpec(n, d))
        # the witness texts grow about 3x per level: 84k characters at n=1 d=8
        assert_same_as_naive(P, canonical_colouring(n), texts=d <= 4)


def test_budget_parity_with_naive_closure(fork, monkeypatch):
    # the constants 0 and 1 are paired with nothing, so the cap is checked
    # on the seeded set too: with G = () or G of constants only, nothing else
    # would check it; G may name a constant or repeat a mask. At every
    # budget from 0 to size + 1, generate raises exactly when naive_generate
    # does, below the size: a round that adds in place skips no cap check.
    cases = [(fork, [0b010]), (fork, []), (fork, [0]), (fork, [fork.full_mask])]
    cases += [(fork, [0b010, 0b010]), (fork, [fork.full_mask, 0b110, 0, 0b110])]
    for n, d in ((1, 6), (2, 3)):
        P = build_ladder(LadderSpec(n, d))
        masks = canonical_colouring(n)
        cases += [(P, masks), (P, ()), (P, (masks[0], 0, masks[0]))]
    # and the 20 acceptance draws of the largest closures; sizes fills in
    # this process only, so every poset is checked here
    monkeypatch.setattr(verify_mod, "_shares", lambda posets, gens: 1)
    sizes = {}

    def size_of(P, G):
        sizes[P, G] = len(naive_generate(P, G).elements)

    _sampled_lemma("sizes", corpus_from_spec(DEFAULT_CORPUS), 20, DEFAULT_SEED, None,
                   size_of)
    for P, gens in cases + heapq.nlargest(20, sizes, key=sizes.get):
        assert_same_as_naive(P, gens)
        size = len(generate(P, gens).elements)
        for budget in range(size + 2):
            for closure in (generate, naive_generate):
                if budget < size:
                    with pytest.raises(BudgetExceeded):
                        closure(P, gens, budget)
                else:
                    assert len(closure(P, gens, budget).elements) == size


def test_lattice_closure_against_normal_form(small_corpus):
    # stratum 0 is the meet/join closure of the generators and the constants
    for P in small_corpus[:30]:
        masks = upset_masks(P)
        for gens in combinations(masks, min(2, len(masks))):
            assert set(generate(P, gens).strata[0]) == oracle_lattice(P, gens)


@given(posets_with_generators(), st.data())
def test_lattice_close_grows_the_table_and_returns_it_ascending(case, data):
    # the table's keys are the closure: it grows in place and keeps every
    # term it had, each term it adds names two of its elements, and the
    # elements other than the constants come back ascending; a second pass
    # over more masks, told that the closed table is old, closes it again
    P, gens = case
    consts = {0, P.full_mask}
    table = {0: ("0",), P.full_mask: ("1",)}
    for i, m in enumerate(gens):
        table.setdefault(m, ("g", i))
    seeded = dict(table)
    elems = _lattice_close(table, DEFAULT_UPSET_BUDGET, consts)
    assert elems == sorted(table.keys() - consts)
    assert set(table) == oracle_lattice(P, gens)
    assert table.items() >= seeded.items()
    old = frozenset(table)
    more = data.draw(st.lists(st.sampled_from(upset_masks(P)), max_size=2))
    for m in more:
        table.setdefault(m, ("g", len(gens)))
    elems = _lattice_close(table, DEFAULT_UPSET_BUDGET, consts, old)
    assert elems == sorted(table.keys() - consts)
    assert set(table) == oracle_lattice(P, old | set(more))
    assert all(t[1] in table and t[2] in table for t in table.values() if len(t) == 3)


@given(posets_with_generators())
def test_the_witness_table_is_the_element_set(case):
    # an upset is an element exactly when it has a witness term, and each
    # stratum holds the one before it and adds to it
    ra = generate(*case)
    assert set(ra.witnesses) == ra.elements == set(ra.ranks)
    assert all(a < b for a, b in zip(ra.strata, ra.strata[1:]))


def test_generate_fork(fork):
    ra = generate(fork, [0b010])
    assert len(ra.elements) == 5  # one colour suffices on the fork
    # the last stratum is closed under implication
    elems = ra.elements
    assert {imp_mask(fork, a, b) for a in elems for b in elems} <= elems
    assert ra.ranks.get(0b010) == 0
    assert ra.ranks.get(0b100) == 1
    assert ra.ranks.get(0) == 0
    assert ra.ranks.get(0b001) is None  # not an upset, never generated
    assert ra.witness_text(0b100) == "(-> g0 0)"
    assert ra.witness_text(0) == "0"
    assert ra.witness_text(fork.full_mask) == "1"
    assert ra.witness_text(0b010) == "g0"


@pytest.mark.parametrize("depth", [4, 5, 6, 7, 8, 9])
def test_witness_text_matches_recursive_rendering(depth):
    # the `generate` command's ladders: at depth 9 the texts of the 81
    # elements add up to 1.41M characters
    P = build_ladder(LadderSpec(1, depth))
    ra = generate(P, [P.mask_of_names([name]) for name in ("x1_0", "x2_0")])
    for m in ra.elements:
        assert ra.witness_text(m) == recursive_witness_text(ra, m)


def test_witness_soundness(small_corpus):
    # every witness term re-evaluates to the element it names
    for P in small_corpus[:30]:
        masks = upset_masks(P)
        for gens in combinations(masks, min(2, len(masks))):
            ra = generate(P, gens)
            for m in ra.elements:
                assert ra.eval_witness(m) == m


def test_witness_soundness_on_deep_ladder():
    # the witness terms of the canonical n=1 colouring share subterms: as
    # trees, evaluating them all takes 0.6 s at depth 10, about 3x per level
    P = build_ladder(LadderSpec(1, 14))
    ra = generate(P, canonical_colouring(1))
    assert len(ra.strata) == 21
    for m in ra.elements:
        assert ra.eval_witness(m) == m


def test_ranks_against_oracle():
    for P in all_posets_up_to_iso(3):
        masks = upset_masks(P)
        gen_sets = [()] + [(m,) for m in masks] + list(combinations(masks, 2))
        for gens in gen_sets:
            ra = generate(P, gens)
            assert ra.ranks == oracle_ranks(P, gens)


def test_generate_budget(fork):
    with pytest.raises(BudgetExceeded):
        generate(fork, [0b010], budget=2)


def test_rank_type_and_duality_on_fork(fork):
    assert rank_type_mismatches(fork, [0b010], 3) == []
    assert duality_sides(fork, [0b010]) == (True, True)
    # nothing generated, nothing coloured
    assert duality_sides(fork, []) == (False, False)


def test_rank_type_stops_refining_at_the_fixpoint(fork, monkeypatch):
    passes = []
    refine = colouring._refine_block_of
    monkeypatch.setattr(
        colouring, "_refine_block_of",
        lambda P, b, f, d: passes.append(b) or refine(P, b, f, d),
    )
    # stage 1 splits b from y, stage 2 changes nothing: stages 3-5 repeat it
    assert rank_type_mismatches(fork, [0b010], 5) == []
    assert len(passes) == 2
    # and so do all stages past the last stratum: the walk stops at stage 2
    assert rank_type_mismatches(fork, [0b010], 10**9) == []
    assert len(passes) == 4


def test_rank_type_repeats_a_mismatch_past_the_fixpoint(fork, monkeypatch):
    # a refinement that splits nothing makes stage 0 the fixpoint, so every
    # later stage misses rank 1's split of b from y
    monkeypatch.setattr(colouring, "_refine_block_of", lambda P, b, f, d: (list(b), []))
    assert rank_type_mismatches(fork, [0b010], 5) == [1, 2, 3, 4, 5]


def traced_events(fn, *args):
    """(fn(*args), the number of heylab calls and lines that ran in it);
    code outside heylab, such as a gc callback, is not counted."""
    count = 0

    def trace(frame, event, arg):
        nonlocal count
        if frame.f_globals.get("__name__", "").startswith("heylab"):
            count += 1
            return trace

    old = sys.gettrace()
    sys.settrace(trace)
    try:
        return fn(*args), count
    finally:
        sys.settrace(old)


@pytest.mark.parametrize("n, depth", [(0, 3), (1, 4), (2, 2)])
def test_rank_type_work_does_not_grow_with_max_stage(n, depth):
    # past the later of the omega fixpoint and the last stratum nothing is
    # compared again, so on passing cases a huge max_stage runs the same
    # lines as one past both
    P = build_ladder(LadderSpec(n, depth))
    for gens in [(), canonical_colouring(n), *combinations(upset_masks(P), 2)][:40]:
        past = P.n + len(generate(P, gens).strata)
        assert rank_type_mismatches(P, gens, past) == []  # fills P's caches
        expected = traced_events(rank_type_mismatches, P, gens, past)
        assert traced_events(rank_type_mismatches, P, gens, 10**4) == expected
        assert rank_type_mismatches(P, gens, 10**9) == []


def oracle_rank_type_mismatches(P, G, max_stage, budget=None):
    """rank_type_mismatches with each stratum's partition built from the
    whole stratum, as stage 0 of its own colouring, and every stage refined
    and compared."""
    gmasks = list(G)
    ra = generate(P, gmasks, budget)
    rank_blocks = [
        set(_split([P.full_mask], s)[0]) for s in ra.strata[: max_stage + 1]
    ]
    bad = []
    blocks = _split([P.full_mask], gmasks)[0]
    for n in range(max_stage + 1):
        if n > 0:
            blocks = _refine_block_of(P, blocks, blocks, {})[0]
        if rank_blocks[min(n, len(rank_blocks) - 1)] != set(blocks):
            bad.append(n)
    return bad


@given(posets_with_generators(), st.integers(0, 6))
def test_rank_type_matches_whole_stratum_partitions(case, max_stage):
    P, gens = case
    expected = oracle_rank_type_mismatches(P, gens, max_stage)
    assert rank_type_mismatches(P, gens, max_stage) == expected


def test_quotient_size_on_every_ladder_pair():
    P = build_ladder(LadderSpec(2, 3))
    for pair in combinations_with_replacement(upset_masks(P), 2):
        assert quotient_size(P, pair) == len(generate(P, pair).elements)


def test_quotient_size_on_acceptance_runs():
    # the generator sets that criteria 2, 3 and 8 sample at the default seed
    corpus = corpus_from_spec(DEFAULT_CORPUS)

    def check(P, G):
        sizes = quotient_size(P, G), len(generate(P, G).elements)
        return None if sizes[0] == sizes[1] else {"sizes": sizes}

    report = _sampled_lemma("quotient-size", corpus, 20, DEFAULT_SEED, None, check)
    assert (report["checks"], report["failures"]) == (5740, [])


@given(posets_with_generators())
def test_quotient_size_matches_generate(case):
    P, gens = case
    assert quotient_size(P, gens) == len(generate(P, gens).elements)


@given(posets_with_generators())
def test_quotient_count_matches_the_class_order_oracle(case):
    # the down-set count from the down-closures against the upsets of the
    # class order, and both against the closure itself
    P, gens = case
    blocks, _, downs = _omega_block_of(P, gens)
    count = quotient_upset_count(blocks, downs)
    assert count == oracle_quotient_upset_count(blocks, downs)
    assert count == len(generate(P, gens).elements)
    assert quotient_upset_count(blocks, downs, budget=count) == count
    with pytest.raises(BudgetExceeded):
        quotient_upset_count(blocks, downs, budget=count - 1)


def test_quotient_size_budget(fork):
    assert quotient_size(fork, [0b010]) == 5
    assert quotient_size(fork, []) == 2
    with pytest.raises(BudgetExceeded):
        quotient_size(fork, [0b010], budget=4)
