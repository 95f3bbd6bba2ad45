import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heylab import (
    CycleError,
    EmptyPoset,
    ForeignPoint,
    PosetMismatch,
    Upset,
    down_closure,
    enumerate_upsets,
    maximal_points,
    minimal_points,
    poset_from_json,
    poset_to_dot,
    poset_to_json,
    up_closure,
    validate,
)
from heylab.errors import BudgetExceeded
from heylab.poset import covers, cover_walk, is_upset_mask, iter_bits, upset_masks


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


@settings(derandomize=True, max_examples=300, deadline=None)
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
    assert up_closure(fork, [0]).members == {0, 1, 2}
    assert up_closure(fork, [1]).members == {1}
    assert down_closure(fork, [1]) == {0, 1}
    assert down_closure(fork, []) == frozenset()


def test_upset_enumeration_against_oracle(small_corpus):
    for P in small_corpus:
        assert list(upset_masks(P)) == oracle_upset_masks(P)


def test_upset_canonical_order(fork):
    masks = upset_masks(fork)
    assert masks == tuple(sorted(masks))
    assert masks[0] == 0 and masks[-1] == fork.full_mask
    assert len(masks) == 5


def test_upset_budget(antichain3):
    with pytest.raises(BudgetExceeded):
        upset_masks(antichain3, budget=4)
    # a cached result over budget still raises
    upset_masks(antichain3)
    with pytest.raises(BudgetExceeded):
        upset_masks(antichain3, budget=4)


def test_upset_masks_on_long_chain():
    # deeper than the interpreter's recursion limit
    n = 1200
    P = validate([f"c{i}" for i in range(n)], [(i, i + 1) for i in range(n - 1)])
    suffixes = [P.full_mask & ~((1 << i) - 1) for i in range(n + 1)]
    assert upset_masks(P) == tuple(sorted(suffixes))


def test_enumerate_upsets(fork):
    us = enumerate_upsets(fork)
    assert [u.mask for u in us] == list(upset_masks(fork))
    assert us[-1].names == ("b", "x", "y")


def test_upset_objects(fork, chain2):
    u = Upset.from_members(fork, [1, 2])
    assert 1 in u and 0 not in u
    with pytest.raises(ValueError):
        Upset.from_members(fork, [0])  # not up-closed
    with pytest.raises(ForeignPoint):
        Upset.from_members(fork, [9])
    v = Upset.from_members(chain2, [1])
    with pytest.raises(PosetMismatch):
        u == v
    assert Upset(fork, 0b010) <= u


def test_extrema_and_covers():
    P = validate(["a", "b", "c"], [(0, 1), (1, 2)])
    assert maximal_points(P) == {2}
    assert minimal_points(P) == {0}
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


def test_dot_output(fork):
    dot = poset_to_dot(fork)
    assert dot.startswith("digraph poset {")
    assert '"b" -> "x";' in dot
    assert "rankdir=BT" in dot
