from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heylab import (
    Upset,
    check_duality_theorem,
    generate,
    lattice_closure,
)
from heylab.corpus import DEFAULT_SEED, all_posets_up_to_iso, corpus_from_spec
from heylab.errors import BudgetExceeded
from heylab.ladder import LadderSpec, build_ladder
from heylab.poset import upset_masks, validate
from heylab.subalgebra import quotient_size, rank_type_mismatches
from heylab.verify import DEFAULT_CORPUS, _corpus_generator_runs


def oracle_imp(P, u, v):
    best = 0
    for w in upset_masks(P):
        if w & u & ~v == 0:
            best |= w
    return best


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


def test_lattice_closure_against_normal_form(small_corpus):
    for P in small_corpus[:30]:
        masks = upset_masks(P)
        for gens in combinations(masks, min(2, len(masks))):
            assert set(lattice_closure(P, gens)) == oracle_lattice(P, gens)


def test_generate_fork(fork):
    ra = generate(fork, [0b010])
    assert len(ra.elements) == 5  # one colour suffices on the fork
    assert ra.closed
    assert ra.rank_of(0b010) == 0
    assert ra.rank_of(0b100) == 1
    assert ra.rank_of(Upset(fork, 0)) == 0
    assert ra.rank_of(0b001) is None  # not an upset, never generated
    assert ra.witness_text(0b100) == "(-> g0 0)"
    assert ra.witness_text(0) == "0"
    assert ra.witness_text(fork.full_mask) == "1"
    assert ra.witness_text(0b010) == "g0"


def test_witness_soundness(small_corpus):
    # every witness term re-evaluates to the element it names
    for P in small_corpus[:30]:
        masks = upset_masks(P)
        for gens in combinations(masks, min(2, len(masks))):
            ra = generate(P, gens)
            for m in ra.elements:
                assert ra.eval_witness(m) == m


def test_ranks_against_oracle():
    for P in all_posets_up_to_iso(3):
        masks = upset_masks(P)
        gen_sets = [()] + [(m,) for m in masks] + list(combinations(masks, 2))
        for gens in gen_sets:
            ra = generate(P, gens)
            assert ra.ranks == oracle_ranks(P, gens)


def test_generate_accepts_upset_objects(fork):
    ra = generate(fork, [Upset(fork, 0b010)])
    assert len(ra.elements) == 5


def test_generate_budget(fork):
    with pytest.raises(BudgetExceeded):
        generate(fork, [0b010], budget=2)


def test_rank_type_and_duality_on_fork(fork):
    assert rank_type_mismatches(fork, [0b010], 3) == []
    assert check_duality_theorem(fork, [0b010])
    assert check_duality_theorem(fork, [])  # nothing generated, nothing coloured


def test_quotient_size_on_every_ladder_pair():
    P = build_ladder(LadderSpec(2, 3, with_bottom=True))
    for pair in combinations_with_replacement(upset_masks(P), 2):
        assert quotient_size(P, pair) == len(generate(P, pair).elements)


def test_quotient_size_on_acceptance_runs():
    # the generator sets that criteria 2, 3 and 8 sample at the default seed
    corpus = corpus_from_spec(DEFAULT_CORPUS)
    for P, G in _corpus_generator_runs(corpus, 20, DEFAULT_SEED, None):
        assert quotient_size(P, G) == len(generate(P, G).elements)


@st.composite
def posets_with_generators(draw):
    n = draw(st.integers(1, 7))
    slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.booleans(), min_size=len(slots), max_size=len(slots)))
    P = validate([f"p{i}" for i in range(n)], [s for s, c in zip(slots, chosen) if c])
    gens = draw(st.lists(st.sampled_from(upset_masks(P)), max_size=3))
    return P, gens


@settings(derandomize=True, max_examples=300, deadline=None)
@given(posets_with_generators())
def test_quotient_size_matches_generate(case):
    P, gens = case
    assert quotient_size(P, gens) == len(generate(P, gens).elements)


def test_quotient_size_budget(fork):
    assert quotient_size(fork, [0b010]) == 5
    assert quotient_size(fork, []) == 2
    with pytest.raises(BudgetExceeded):
        quotient_size(fork, [0b010], budget=4)
