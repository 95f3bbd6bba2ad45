import random
from itertools import product

import pytest
from conftest import posets_with_generators
from hypothesis import given
from hypothesis import strategies as st

from heylab import (
    Colouring,
    PosetMismatch,
    find_k_colouring,
    initial_partition,
    min_colours,
    omega_types,
    refine_once,
    stage_types,
)
from heylab.colouring import (
    _initial_block_of,
    _met,
    _normalize,
    _omega_block_of,
    _refine_block_of,
    omega_class_count,
)
from heylab.corpus import all_posets_up_to_iso
from heylab.errors import BudgetExceeded
from heylab.poset import iter_bits, upset_masks


def oracle_refine_block_of(P, block_of):
    """One refinement round from the definition: group points by the set of
    blocks their up-set meets."""
    return _normalize(
        [frozenset(block_of[j] for j in iter_bits(P.up[i])) for i in range(P.n)]
    )


def test_colouring_validation(fork, chain2):
    c = Colouring.from_masks(fork, [0b010])
    assert c.k == 1 and c.masks == (0b010,)
    with pytest.raises(ValueError):
        Colouring.from_masks(fork, [0b001])  # not up-closed
    with pytest.raises(PosetMismatch):
        Colouring(fork, Colouring.from_masks(chain2, [0b10]).colours)


def test_fork_single_colour_stages(fork):
    # colour {x}: stage 0 separates x; stage 1 separates b from y
    c = Colouring.from_masks(fork, [0b010])
    t0 = initial_partition(fork, c)
    assert t0.stage == 0
    assert t0.blocks == ((0, 2), (1,))
    t1 = refine_once(t0)
    assert t1.stage == 1
    assert t1.is_discrete
    w = omega_types(fork, c)
    assert w.stage is None
    assert w.stabilized_at == 1
    assert w.is_discrete
    assert w.to_json()["stage"] == "omega"


def test_refine_omega_rejected(fork):
    c = Colouring.from_masks(fork, [0b010])
    with pytest.raises(ValueError):
        refine_once(omega_types(fork, c))


def test_empty_colouring(chain2, point):
    # no colours: the chain never splits, the single point is trivially done
    c = Colouring.from_masks(chain2, [])
    assert omega_types(chain2, c).n_blocks == 1
    assert not omega_types(chain2, c).is_discrete
    assert omega_types(point, Colouring.from_masks(point, [])).is_discrete


def test_isolated(fork):
    c = Colouring.from_masks(fork, [0b010])
    assert omega_types(fork, c).blocks == ((0,), (1,), (2,))
    empty = Colouring.from_masks(fork, [])
    assert omega_types(fork, empty).blocks == ((0, 1, 2),)


def test_omega_is_a_fixpoint(small_corpus):
    # refining the partition at its stabilization stage changes nothing
    rng = random.Random(7)
    for P in small_corpus[:40]:
        masks = upset_masks(P)
        c = Colouring.from_masks(P, [rng.choice(masks)])
        w = omega_types(P, c)
        t = initial_partition(P, c)
        for _ in range(w.stabilized_at):
            t = refine_once(t)
        assert t.block_of == w.block_of
        assert refine_once(t).block_of == w.block_of


def test_find_k_colouring(fork, chain2, point):
    assert find_k_colouring(fork, 0) is None
    c = find_k_colouring(fork, 1)
    assert c is not None and omega_types(fork, c).is_discrete
    assert min_colours(fork) == 1
    assert min_colours(chain2) == 1
    assert min_colours(point) == 0


def test_find_k_colouring_budget(fork):
    with pytest.raises(BudgetExceeded):
        find_k_colouring(fork, 3, budget_tuples=10)


def test_colour_search_is_canonical(fork):
    # first hit in canonical (ascending-mask) tuple order
    c = find_k_colouring(fork, 1)
    masks = upset_masks(fork)
    found = c.masks[0]
    for m in masks:
        if m == found:
            break
        assert not omega_types(fork, Colouring.from_masks(fork, [m])).is_discrete


def test_refinement_matches_frozenset_oracle_at_every_stage():
    rng = random.Random(11)
    for P in all_posets_up_to_iso(5):
        masks = upset_masks(P)
        for _ in range(4):
            gens = [rng.choice(masks) for _ in range(rng.randint(0, 3))]
            block_of, stage = _initial_block_of(P, gens), 0
            while True:
                refined = _refine_block_of(P, block_of)
                assert refined == oracle_refine_block_of(P, block_of)
                if refined == block_of:
                    break
                block_of, stage = refined, stage + 1
            assert _omega_block_of(P, gens) == (block_of, stage, _met(P, block_of))


def test_stage_types_past_the_fixpoint(fork):
    c = Colouring.from_masks(fork, [0b010])
    w = omega_types(fork, c)
    for stage in (w.stabilized_at, w.stabilized_at + 1, 10**8):
        t = stage_types(fork, c, stage)
        assert (t.stage, t.block_of, t.stabilized_at) == (stage, w.block_of, None)
    assert stage_types(fork, c, 0) == initial_partition(fork, c)
    with pytest.raises(ValueError):
        stage_types(fork, c, -1)


def test_colour_search_matches_ordered_tuple_oracle():
    # the first colouring in product order, found by a scan of every ordered
    # tuple; the search itself walks multisets
    for P in all_posets_up_to_iso(4):
        masks = upset_masks(P)
        for k in range(3):
            tuples = product(masks, repeat=k)
            first = next((t for t in tuples if omega_class_count(P, t) == P.n), None)
            c = find_k_colouring(P, k)
            assert (None if c is None else c.masks) == first


@given(posets_with_generators(), st.data())
def test_omega_depends_only_on_the_generator_set(case, data):
    # the multiset scans rest on this: omega ignores order and repeats
    P, gens = case
    repeats = data.draw(st.lists(st.sampled_from(gens), max_size=3)) if gens else []
    again = data.draw(st.permutations(gens + repeats))
    assert _omega_block_of(P, again)[0] == _omega_block_of(P, gens)[0]


@given(posets_with_generators(), st.data())
def test_adding_a_generator_refines_omega(case, data):
    P, gens = case
    g = data.draw(st.sampled_from(upset_masks(P)))
    coarse = _omega_block_of(P, gens)[0]
    fine = _omega_block_of(P, gens + [g])[0]
    # each block of the finer partition lies inside one block of the coarser
    assert len(set(zip(fine, coarse))) == max(fine) + 1


@given(posets_with_generators())
def test_refining_omega_returns_it(case):
    P, gens = case
    block_of = _omega_block_of(P, gens)[0]
    assert _refine_block_of(P, block_of) == block_of
