import random
import re
from math import comb

import pytest
from conftest import posets
from hypothesis import given
from hypothesis import strategies as st

from heylab import (
    CycleError,
    EmptyPoset,
    ForeignPoint,
    poset_from_json,
    poset_to_dot,
    poset_to_json,
    validate,
)
from heylab.algebra import imp_mask
from heylab.errors import BudgetExceeded
from heylab.ladder import LadderSpec, build_ladder
from heylab.poset import (
    check_multiset_budget,
    cover_walk,
    covers,
    down_closure_of,
    is_upset_mask,
    iter_bits,
    upset_masks,
)


def oracle_upset_masks(P):
    """Brute-force upset enumeration straight from the definition."""
    out = []
    for m in range(1 << P.n):
        ok = True
        for i in range(P.n):
            if not m >> i & 1:
                continue
            for j in range(P.n):
                if P.leq(i, j) and not m >> j & 1:
                    ok = False
        if ok:
            out.append(m)
    return out


def test_iter_bits():
    assert list(iter_bits(0)) == []
    assert list(iter_bits(0b10110)) == [1, 2, 4]


def test_validate_transitive_reflexive():
    P = validate(["a", "b", "c"], [(0, 1), (1, 2)])
    assert P.leq(0, 2)  # transitivity filled in
    assert P.leq(1, 1)  # reflexivity filled in
    assert not P.leq(2, 0)


def test_validate_rejects_cycles_and_bad_input():
    with pytest.raises(CycleError, match=r"^a <= b <= a$"):
        validate(["a", "b"], [(0, 1), (1, 0)])
    with pytest.raises(EmptyPoset):
        validate([], [])
    with pytest.raises(ValueError):
        validate(["a", "a"], [])
    with pytest.raises(ForeignPoint):
        validate(["a"], [(0, 3)])


def warshall_closure(n, pairs):
    """Reflexive-transitive closure by the n-by-n Warshall loop."""
    up = [1 << i for i in range(n)]
    for i, j in pairs:
        up[i] |= 1 << j
    for k in range(n):
        for i in range(n):
            if up[i] >> k & 1:
                up[i] |= up[k]
    return up


@given(st.integers(1, 7).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.tuples(st.integers(0, n - 1),
                                                       st.integers(0, n - 1))))))
def test_validate_matches_warshall_closure(case):
    n, pairs = case
    names = [f"p{i}" for i in range(n)]
    up = warshall_closure(n, pairs)
    cyclic = any(up[j] >> i & 1 for i in range(n) for j in iter_bits(up[i]) if j != i)
    if cyclic:
        with pytest.raises(CycleError) as err:
            validate(names, pairs)
        a, b = re.fullmatch(r"p(\d+) <= p(\d+) <= p\1", str(err.value)).groups()
        assert a != b and up[int(a)] >> int(b) & 1 and up[int(b)] >> int(a) & 1
        return
    P = validate(names, pairs)
    assert list(P.up) == up
    assert list(P.down) == [sum(1 << i for i in range(n) if up[i] >> j & 1)
                            for j in range(n)]


@given(posets())
def test_poset_json_round_trips(P):
    assert poset_from_json(poset_to_json(P)) == P


def test_validate_long_chain_in_one_pass():
    n = 1200
    pairs = [(i, i + 1) for i in range(n - 1)]
    P = validate([f"c{i}" for i in range(n)], pairs[::2] + pairs[1::2])
    assert P.up == tuple(P.full_mask & ~((1 << i) - 1) for i in range(n))
    assert P.down == tuple((1 << (i + 1)) - 1 for i in range(n))


def test_validate_rejects_long_cycle():
    n = 1200
    with pytest.raises(CycleError, match=r"^(c\d+) <= c\d+ <= \1$"):
        validate([f"c{i}" for i in range(n)], [(i, (i + 1) % n) for i in range(n)])


def test_cover_walk(small_corpus):
    for P in small_corpus:
        seen = set()
        for i, ups in cover_walk(P):
            strict = P.up[i] & ~(1 << i)
            assert set(iter_bits(strict)) <= seen  # everything above comes first
            assert set(ups) == {
                j for j in iter_bits(strict) if strict & P.down[j] == 1 << j
            }
            seen.add(i)
        assert sorted(seen) == list(range(P.n))


def test_index_and_names(fork):
    assert fork.index("x") == 1
    with pytest.raises(ForeignPoint):
        fork.index("zzz")
    assert fork.mask_of_names(["b", "y"]) == 0b101


def test_closures(fork):
    # the up-closure of a point is its up-set
    assert fork.up[0] == 0b111 and is_upset_mask(fork, fork.up[0])
    assert fork.up[1] == 0b010 and is_upset_mask(fork, fork.up[1])
    assert down_closure_of(fork)(0b010) == 0b011
    assert down_closure_of(fork)(0) == 0


def oracle_down_closure_mask(P, mask):
    """Down-closure by a loop over the points of mask; a point already
    inside the closure formed so far adds nothing, so it is skipped."""
    m = 0
    while mask:
        m |= P.down[(mask & -mask).bit_length() - 1]
        mask &= ~m
    return m


def check_kernel(P, random_masks=200):
    """The kernel against the oracle on every upset and on random masks, and
    imp_mask against the complement of the oracle on every upset pair."""
    rng = random.Random(P.n)
    masks = upset_masks(P)
    for mask in [*masks, *(rng.getrandbits(P.n) for _ in range(random_masks))]:
        assert down_closure_of(P)(mask) == oracle_down_closure_mask(P, mask)
    for u in masks:
        for v in masks:
            oracle = P.full_mask & ~oracle_down_closure_mask(P, u & ~v)
            assert imp_mask(P, u, v) == oracle


@given(posets())
def test_down_closure_kernel_one_slice(P):
    check_kernel(P, random_masks=20)


def _chain(n):
    return validate([f"c{i}" for i in range(n)], [(i, i + 1) for i in range(n - 1)])


# chains on either side of a slice edge, and ladders of four slices
@pytest.mark.parametrize(
    "make",
    [
        *(pytest.param(lambda n=n: _chain(n), id=f"chain{n}") for n in (8, 9, 16, 17)),
        pytest.param(lambda: build_ladder(LadderSpec(1, 8)), id="ladder-n1-d8"),
        pytest.param(lambda: build_ladder(LadderSpec(2, 5)), id="ladder-n2-d5"),
    ],
)
def test_down_closure_kernel_across_slices(make):
    check_kernel(make())


def test_down_closure_kernel_is_cached(fork):
    assert down_closure_of(fork) is down_closure_of(fork)


def test_upset_enumeration_against_oracle(small_corpus):
    for P in small_corpus:
        assert list(upset_masks(P)) == oracle_upset_masks(P)


def test_upset_canonical_order(fork):
    masks = upset_masks(fork)
    assert masks == tuple(sorted(masks))
    assert masks[0] == 0 and masks[-1] == fork.full_mask
    assert len(masks) == 5


def test_upset_budget(antichain3):
    form = r"^8 upsets exceed the budget of 4 \(--budget-upsets\)$"
    with pytest.raises(BudgetExceeded, match=form):
        upset_masks(antichain3, budget=4)
    # a cached result over budget still raises, in the same form
    upset_masks(antichain3)
    with pytest.raises(BudgetExceeded, match=form):
        upset_masks(antichain3, budget=4)


def test_multiset_budget_counts_exactly_up_to_the_cap():
    for n in range(1, 7):
        for k in range(7):
            count = comb(n + k - 1, k)
            check_multiset_budget(n, k, count)
            with pytest.raises(BudgetExceeded, match=f"^{count} tuples exceed"):
                check_multiset_budget(n, k, count - 1)
    # C(10**400 + 16383, 16383) has 21.5M bits: the gate stops forming it
    # once it is past the cap and 2 ** 64, and writes the bound it reached
    with pytest.raises(BudgetExceeded, match=r"^2 \*\* 1328 or more tuples exceed"):
        check_multiset_budget(2**14, 10**400)


def test_upset_masks_on_long_chain():
    # deeper than the interpreter's recursion limit
    n = 1200
    P = validate([f"c{i}" for i in range(n)], [(i, i + 1) for i in range(n - 1)])
    suffixes = [P.full_mask & ~((1 << i) - 1) for i in range(n + 1)]
    assert upset_masks(P) == tuple(sorted(suffixes))


def test_enumerate_upsets(fork):
    us = upset_masks(fork)
    assert us == (0, 0b010, 0b100, 0b110, 0b111)
    assert [fork.points[i] for i in iter_bits(us[-1])] == ["b", "x", "y"]


def test_extrema_and_covers():
    P = validate(["a", "b", "c"], [(0, 1), (1, 2)])
    assert [i for i in range(P.n) if P.up[i] == 1 << i] == [2]  # maximal
    assert [i for i in range(P.n) if P.down[i] == 1 << i] == [0]  # minimal
    assert covers(P) == [(0, 1), (1, 2)]


def test_is_upset_mask(fork):
    assert is_upset_mask(fork, 0b110)
    assert not is_upset_mask(fork, 0b001)


def test_json_round_trip(fork):
    data = poset_to_json(fork)
    assert data["points"] == ["b", "x", "y"]
    assert sorted(data["leq"]) == [[0, 1], [0, 2]]
    Q = poset_from_json(data)
    assert Q == fork


def test_json_round_trip_with_levels():
    P = validate(["a", "b"], [(1, 0)], level_tags={0: 0, 1: 1})
    Q = poset_from_json(poset_to_json(P))
    assert Q == P
    assert Q.level_tags == {0: 0, 1: 1}


@pytest.mark.parametrize("levels, named", [
    ({"a": 0, "b": 1.5}, "'b'"),
    ({"a": True}, "'a'"),
    ({"b": "top"}, "'b'"),
    ({"a": 0, "zz": 1}, "'zz'"),
])
def test_json_levels_are_integers_of_points(levels, named):
    data = {"points": ["a", "b"], "leq": [[1, 0]], "levels": levels}
    with pytest.raises(ValueError, match=named):
        poset_from_json(data)


def test_dot_output(fork):
    dot = poset_to_dot(fork)
    assert dot.startswith("digraph poset {")
    assert '"b" -> "x";' in dot
    assert "rankdir=BT" in dot
