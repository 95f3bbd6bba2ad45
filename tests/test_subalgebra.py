from itertools import combinations, combinations_with_replacement

import pytest
from conftest import posets_with_generators
from hypothesis import given

from heylab import Upset, generate
from heylab.algebra import imp_mask
from heylab.corpus import DEFAULT_SEED, all_posets_up_to_iso, corpus_from_spec
from heylab.errors import BudgetExceeded
from heylab.ladder import LadderSpec, build_ladder, canonical_colouring
from heylab.poset import upset_masks
from heylab.subalgebra import duality_sides, quotient_size, rank_type_mismatches
from heylab.verify import DEFAULT_CORPUS, _sampled_lemma


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
    # stratum 0 is the meet/join closure of the generators and the constants
    for P in small_corpus[:30]:
        masks = upset_masks(P)
        for gens in combinations(masks, min(2, len(masks))):
            assert set(generate(P, gens).strata[0]) == oracle_lattice(P, gens)


def test_generate_fork(fork):
    ra = generate(fork, [0b010])
    assert len(ra.elements) == 5  # one colour suffices on the fork
    # the last stratum is closed under implication
    elems = ra.elements
    assert {imp_mask(fork, a, b) for a in elems for b in elems} <= elems
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


def test_witness_soundness_on_deep_ladder():
    # the witness terms of the canonical n=1 colouring share subterms: as
    # trees, evaluating them all takes 0.6 s at depth 10, about 3x per level
    P = build_ladder(LadderSpec(1, 14))
    ra = generate(P, canonical_colouring(P, 1).masks)
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


def test_generate_accepts_upset_objects(fork):
    ra = generate(fork, [Upset(fork, 0b010)])
    assert len(ra.elements) == 5


def test_generate_budget(fork):
    with pytest.raises(BudgetExceeded):
        generate(fork, [0b010], budget=2)


def test_rank_type_and_duality_on_fork(fork):
    assert rank_type_mismatches(fork, [0b010], 3) == []
    assert duality_sides(fork, [0b010]) == (True, True)
    # nothing generated, nothing coloured
    assert duality_sides(fork, []) == (False, False)


def test_quotient_size_on_every_ladder_pair():
    P = build_ladder(LadderSpec(2, 3, with_bottom=True))
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


def test_quotient_size_budget(fork):
    assert quotient_size(fork, [0b010]) == 5
    assert quotient_size(fork, []) == 2
    with pytest.raises(BudgetExceeded):
        quotient_size(fork, [0b010], budget=4)
