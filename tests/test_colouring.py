import random
from collections import Counter
from itertools import combinations_with_replacement, product, tee
from math import factorial, prod
from operator import eq

import pytest
from conftest import oracle_quotient_upset_count, posets_with_generators
from hypothesis import given
from hypothesis import strategies as st

from heylab import find_k_colouring, stage_types
import heylab.colouring
from heylab.colouring import (
    _omega_block_of,
    _refine_block_of,
    _split,
    _stages,
    colour_scan,
    multiset_weight,
    omega_class_count,
    omega_walk,
)
from heylab.corpus import all_posets_up_to_iso
from heylab.errors import BudgetExceeded
from heylab.ladder import LadderSpec, build_ladder
from heylab.poset import (cover_walk, down_closure_of, iter_bits, upset_masks,
                          upset_multisets)
from heylab.subalgebra import generate, quotient_size, quotient_upset_count

# The per-point engine that the block-mask engine replaced: each stage walks
# every point, top down, and renumbers the blocks by first occurrence.


def _normalize(sigs):
    ids: dict = {}
    out = []
    for s in sigs:
        if s not in ids:
            ids[s] = len(ids)
        out.append(ids[s])
    return tuple(out)


def _block_of(P, blocks):
    """The per-point normal form of a list of block masks: block ids per
    point, the blocks numbered by their lowest point."""
    ids = sorted(blocks, key=lambda b: b & -b)
    return tuple(next(k for k, b in enumerate(ids) if b >> i & 1) for i in range(P.n))


def _initial_block_of(P, masks):
    if not masks:
        return (0,) * P.n
    # point i's membership vector is the i-th column of the masks' bit rows
    rows = [format(m, f"0{P.n}b")[::-1] for m in masks]
    return _normalize(zip(*rows))


def _met(P, block_of):
    """met[i] is the bitmask of the blocks that the up-set of point i meets:
    its own block joined with what its upper covers meet, walked top down."""
    met = [0] * P.n
    for i, ups in cover_walk(P):
        m = 1 << block_of[i]
        for j in ups:
            m |= met[j]
        met[i] = m
    return met


def oracle_omega_block_of(P, masks):
    """Refine to the fixpoint; returns (block_of, stabilized_at, met), where
    met is _met of the fixpoint, from the round that found it stable."""
    b = _initial_block_of(P, masks)
    stage = 0
    while True:
        met = _met(P, b)
        nb = _normalize(met)
        if nb == b:
            return b, stage, met
        b = nb
        stage += 1


def oracle_refine_block_of(P, block_of):
    """One refinement round from the definition: group points by the set of
    blocks their up-set meets."""
    return _normalize(
        [frozenset(block_of[j] for j in iter_bits(P.up[i])) for i in range(P.n)]
    )


def assert_omega_matches_oracle(P, gens):
    """The block-mask fixpoint against the per-point one: the partition,
    stabilized_at, and the quotient order read off the down-closures."""
    block_of, stage, met = oracle_omega_block_of(P, gens)
    blocks, stabilized_at, downs = _omega_block_of(P, gens)
    assert (_block_of(P, blocks), stabilized_at) == (block_of, stage)
    # the blocks whose down-closure holds point i are those its up-set meets
    ids = {b: block_of[(b & -b).bit_length() - 1] for b in blocks}
    for i, m in enumerate(met):
        assert sum(1 << ids[b] for b in blocks if downs[b] >> i & 1) == m


def assert_matches_oracle(P, gens):
    """Every stage of the incremental loop against the oracle's chain, up to
    and including the fixpoint, then the fixpoint itself. Once the loop has
    run out, every final block is in downs with its true down-closure."""
    block_of, downs = _initial_block_of(P, gens), {}
    for blocks in _stages(P, gens, downs):
        assert _block_of(P, blocks) == block_of
        refined = oracle_refine_block_of(P, block_of)
        assert refined == _normalize(_met(P, block_of))
        block_of = refined
    assert _block_of(P, blocks) == block_of  # the last stage refines to itself
    close = down_closure_of(P)
    assert all(downs[b] == close(b) for b in blocks)
    assert_omega_matches_oracle(P, gens)


def test_fork_single_colour_stages(fork):
    # colour {x}: stage 0 separates x; stage 1 separates b from y
    masks = (0b010,)
    assert _block_of(fork, stage_types(fork, masks, 0)) == (0, 1, 0)
    stage0 = stage_types(fork, masks, 0)
    stage1, _ = _refine_block_of(fork, stage0, stage0, {})
    assert len(stage1) == fork.n
    assert _block_of(fork, stage_types(fork, masks, 1)) == _block_of(fork, stage1)
    blocks, stabilized_at, _ = _omega_block_of(fork, masks)
    assert stabilized_at == 1
    assert len(blocks) == fork.n


def test_empty_colouring(chain2, point):
    # no colours: the chain never splits, the single point is trivially done
    assert omega_class_count(chain2, ()) == 1 < chain2.n
    assert omega_class_count(point, ()) == point.n


def test_isolated(fork):
    assert _block_of(fork, _omega_block_of(fork, (0b010,))[0]) == (0, 1, 2)
    assert _block_of(fork, _omega_block_of(fork, ())[0]) == (0, 0, 0)


def test_omega_is_a_fixpoint(small_corpus):
    # refining the partition at its stabilization stage changes nothing
    rng = random.Random(7)
    for P in small_corpus[:40]:
        masks = upset_masks(P)
        gens = [rng.choice(masks)]
        omega, stabilized_at, _ = _omega_block_of(P, gens)
        blocks = _split([P.full_mask], gens)[0]
        # each step cuts by every block, as if all of them were fresh
        for _ in range(stabilized_at):
            blocks = _refine_block_of(P, blocks, blocks, {})[0]
        assert _block_of(P, blocks) == _block_of(P, omega)
        refined = _refine_block_of(P, blocks, blocks, {})[0]
        assert _block_of(P, refined) == _block_of(P, omega)


def test_find_k_colouring(fork, chain2, point):
    # the least k with a k-colouring: 1 for the fork and the chain, 0 for a point
    assert find_k_colouring(fork, 0) is None
    c = find_k_colouring(fork, 1)
    assert c is not None and omega_class_count(fork, c) == fork.n
    assert find_k_colouring(chain2, 0) is None
    assert find_k_colouring(chain2, 1) is not None
    assert find_k_colouring(point, 0) is not None


def test_find_k_colouring_budget(fork):
    with pytest.raises(BudgetExceeded):
        find_k_colouring(fork, 3, budget_tuples=10)


def test_colour_search_is_canonical(fork):
    # first hit in canonical (ascending-mask) tuple order
    c = find_k_colouring(fork, 1)
    masks = upset_masks(fork)
    found = c[0]
    for m in masks:
        if m == found:
            break
        assert omega_class_count(fork, [m]) < fork.n


def test_refinement_matches_frozenset_oracle_at_every_stage():
    rng = random.Random(11)
    for P in all_posets_up_to_iso(5):
        masks = upset_masks(P)
        for _ in range(4):
            gens = [rng.choice(masks) for _ in range(rng.randint(0, 3))]
            assert_matches_oracle(P, gens)


@given(posets_with_generators())
def test_block_masks_match_the_per_point_oracle(case):
    P, gens = case
    assert_matches_oracle(P, gens)
    assert quotient_size(P, gens) == len(generate(P, gens).elements)


def test_block_masks_match_the_oracle_on_every_small_ladder_multiset():
    # every generator multiset that a strictness scan of n <= 2, depth <= 4
    # draws: every stage at depth <= 3, the fixpoint at depth 4
    for n in range(3):
        for depth in range(1, 5):
            P = build_ladder(LadderSpec(n, depth))
            check = assert_matches_oracle if depth <= 3 else assert_omega_matches_oracle
            for gens in combinations_with_replacement(upset_masks(P), n):
                check(P, gens)


def test_stage_types_past_the_fixpoint(fork):
    masks = (0b010,)
    omega, stabilized_at, _ = _omega_block_of(fork, masks)
    for stage in (stabilized_at, stabilized_at + 1, 10**8):
        assert _block_of(fork, stage_types(fork, masks, stage)) == _block_of(fork, omega)
    stage0 = _initial_block_of(fork, masks)
    assert _block_of(fork, stage_types(fork, masks, 0)) == stage0
    with pytest.raises(ValueError):
        stage_types(fork, masks, -1)


@given(posets_with_generators())
def test_stage_types_match_the_oracle_up_to_and_past_the_fixpoint(case):
    P, gens = case
    omega, stabilized_at, _ = _omega_block_of(P, gens)
    block_of = _initial_block_of(P, gens)
    for stage in range(stabilized_at + 2):
        t = _block_of(P, stage_types(P, gens, stage))
        assert t == block_of
        if stage >= stabilized_at:
            assert t == _block_of(P, omega)
        block_of = oracle_refine_block_of(P, block_of)


def test_colour_search_matches_ordered_tuple_oracle():
    # the first colouring in product order, found by a scan of every ordered
    # tuple; the search itself walks multisets
    for P in all_posets_up_to_iso(4):
        masks = upset_masks(P)
        for k in range(3):
            tuples = product(masks, repeat=k)
            first = next((t for t in tuples if omega_class_count(P, t) == P.n), None)
            assert find_k_colouring(P, k) == first


@given(posets_with_generators(), st.data())
def test_omega_depends_only_on_the_generator_set(case, data):
    # the multiset scans rest on this: omega ignores order and repeats
    P, gens = case
    repeats = data.draw(st.lists(st.sampled_from(gens), max_size=3)) if gens else []
    again = data.draw(st.permutations(gens + repeats))
    assert _block_of(P, _omega_block_of(P, again)[0]) == _block_of(
        P, _omega_block_of(P, gens)[0]
    )


@given(posets_with_generators(), st.data())
def test_adding_a_generator_refines_omega(case, data):
    P, gens = case
    g = data.draw(st.sampled_from(upset_masks(P)))
    coarse = _block_of(P, _omega_block_of(P, gens)[0])
    fine = _block_of(P, _omega_block_of(P, gens + [g])[0])
    # each block of the finer partition lies inside one block of the coarser
    assert len(set(zip(fine, coarse))) == max(fine) + 1


@given(posets_with_generators())
def test_refining_omega_returns_it(case):
    P, gens = case
    blocks = _omega_block_of(P, gens)[0]
    assert _refine_block_of(P, blocks, blocks, {}) == (blocks, [])


# The multiset scans before they shared prefixes: each multiset refined from
# scratch by _omega_block_of.


def oracle_find_k_colouring(P, k):
    for tup in upset_multisets(upset_masks(P), k):
        if omega_class_count(P, tup) == P.n:
            return tup
    return None


def assert_walk_matches_oracle(P, stream, count=False):
    """omega_walk over the stream against _omega_block_of on each tuple: the
    same blocks, their down-closures, and (when count) the quotient size."""
    expected, drawn = tee(stream)
    walk = omega_walk(P, drawn)
    for want_tup in expected:
        tup, blocks, downs = next(walk)
        assert tup == want_tup
        want, _, want_downs = _omega_block_of(P, tup)
        assert set(blocks) == set(want) and len(blocks) == len(want)
        assert all(downs[b] == want_downs[b] for b in want)
        if count:
            want_count = oracle_quotient_upset_count(want, want_downs)
            assert quotient_upset_count(blocks, downs) == want_count
    assert next(walk, None) is None


@given(posets_with_generators(), st.randoms(use_true_random=False))
def test_walk_matches_omega_on_seeded_tuple_streams(case, rng):
    P, gens = case
    masks = upset_masks(P)
    draws = [tuple(sorted(rng.choices(masks, k=rng.randint(0, 3)))) for _ in range(12)]
    stream = sorted(set(draws) | {tuple(sorted(gens))})
    assert_walk_matches_oracle(P, stream, count=True)
    # any stream order, repeats included, gives the same answers
    assert_walk_matches_oracle(P, draws + [tuple(gens)] + draws[::-1], count=True)


@pytest.mark.parametrize("n, depth", [(n, d) for n in range(3) for d in range(1, 5)])
def test_walk_matches_omega_on_every_small_ladder_multiset(n, depth):
    # every generator multiset of k <= 3 upsets, as the scans walk them
    P = build_ladder(LadderSpec(n, depth))
    for k in range(4):
        assert_walk_matches_oracle(P, upset_multisets(upset_masks(P), k), count=k <= n)


def _walk_streams(P):
    """A prefix-closed ascending stream, and the same tuples shuffled with
    repeats, so that first generators come back after others."""
    masks = upset_masks(P)[::4]
    stream = sorted(t for k in range(4) for t in upset_multisets(masks, k))
    rng = random.Random(5)
    return [stream, rng.sample(stream, len(stream)) + rng.choices(stream, k=20)]


def _recording_walk(monkeypatch, P, stream):
    """omega_walk over stream, yielding (tup, blocks, downs, formed, fresh):
    the down-closures formed and the fresh pieces cut by since the last
    tuple. Each closure is formed inside a step, of one of its fresh pieces."""
    close, formed, fresh = heylab.colouring.down_closure_of(P), [], []
    step = heylab.colouring._refine_block_of

    def recording_step(Q, blocks, pieces, downs):
        before = len(formed)
        out = step(Q, blocks, pieces, downs)
        assert set(formed[before:]) <= set(pieces)
        fresh.extend(pieces)
        return out

    def recording(Q):
        assert Q is P
        return lambda m: formed.append(m) or close(m)

    monkeypatch.setattr(heylab.colouring, "down_closure_of", recording)
    monkeypatch.setattr(heylab.colouring, "_refine_block_of", recording_step)
    for tup, blocks, downs in omega_walk(P, stream):
        yield tup, blocks, downs, list(formed), list(fresh)
        formed[:], fresh[:] = [], []


@pytest.mark.parametrize("which", ["ascending", "shuffled"])
def test_walk_forms_each_closure_once_per_first_generator(monkeypatch, which):
    # Within the tuples that share a first generator, one after another, no
    # down-closure is formed twice, and each one formed is a fresh piece's.
    P = build_ladder(LadderSpec(1, 3))
    stream = _walk_streams(P)[which == "shuffled"]
    close, last, seen = down_closure_of(P), None, set()
    for tup, blocks, downs, formed, _ in _recording_walk(monkeypatch, P, stream):
        if not tup or tup[:1] != last:
            seen = set()
        last = tup[:1]
        assert not seen & set(formed) and len(set(formed)) == len(formed)
        seen.update(formed)
        assert all(downs[b] == close(b) for b in blocks)


@pytest.mark.parametrize("which", ["ascending", "shuffled"])
def test_walk_reseeds_its_memo_when_the_first_generator_changes(monkeypatch, which):
    # After the tuples that share a first generator, the memo holds the
    # root's closures and those of the pieces they made, no more: a memo
    # kept across first generators would carry the pieces of earlier ones.
    P = build_ladder(LadderSpec(1, 3))
    stream = _walk_streams(P)[which == "shuffled"]
    root = set(_omega_block_of(P, ())[2])
    runs: list = []  # [memo at the run's last tuple, blocks made], per run
    last = None
    for tup, _, downs, _, fresh in _recording_walk(monkeypatch, P, stream):
        if not tup or tup[:1] != last:
            runs.append([downs, set(root)])
        last = tup[:1]
        runs[-1][0] = downs
        runs[-1][1].update(fresh)
    assert len(runs) > 5
    for downs, made in runs:
        assert set(downs) <= made and len(downs) <= len(made)


def test_colour_search_matches_the_multiset_oracle():
    for P in all_posets_up_to_iso(5):
        for k in range(4):
            assert find_k_colouring(P, k) == oracle_find_k_colouring(P, k)


@pytest.mark.parametrize("k", range(5))
def test_multiset_weights_count_the_orderings(k):
    # an ascending multiset's weight from its pattern of equal neighbours is
    # k!/prod(c_i!), c_i the count of each item in it
    for tup in combinations_with_replacement(range(4), k):
        counts = Counter(tup).values()
        expected = factorial(k) // prod(map(factorial, counts))
        assert multiset_weight(bytes(map(eq, tup, tup[1:]))) == expected
    P = all_posets_up_to_iso(3)[-1]
    masks = upset_masks(P)
    scan = [(c, w) for c, w, _, _ in colour_scan(P, masks, k)]
    ordered = Counter(tuple(sorted(t)) for t in product(masks, repeat=k))
    assert scan == sorted(ordered.items())
