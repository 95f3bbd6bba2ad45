import pytest

from heylab import (
    FiniteHeytingAlgebra,
    PosetMismatch,
    Upset,
    algebra_of,
    implies,
    join,
    meet,
    neg,
)
from heylab.algebra import algebra_from_json, bottom, imp_mask, top
from heylab.errors import BudgetExceeded
from heylab.poset import upset_masks


def oracle_imp(P, u, v):
    """Adjunction scan: the union of every upset w with w & u below v."""
    best = 0
    for w in upset_masks(P):
        if w & u & ~v == 0:
            best |= w
    return best


def test_implication_against_adjunction_oracle(small_corpus):
    for P in small_corpus:
        masks = upset_masks(P)
        for u in masks:
            for v in masks:
                assert imp_mask(P, u, v) == oracle_imp(P, u, v)


def test_basic_operations(fork):
    x = Upset(fork, 0b010)
    y = Upset(fork, 0b100)
    assert meet(x, y).mask == 0
    assert join(x, y).mask == 0b110
    # x -> y removes everything at or below a point of x \ y
    assert implies(x, y).mask == 0b100
    assert neg(x).mask == 0b100
    assert top(fork).mask == fork.full_mask
    assert bottom(fork).mask == 0


def test_neg_on_chain(chain2):
    t = Upset(chain2, 0b10)
    assert neg(t).mask == 0
    assert neg(neg(t)).mask == chain2.full_mask


def test_parent_mismatch(fork, chain2):
    with pytest.raises(PosetMismatch):
        meet(Upset(fork, 0), Upset(chain2, 0))


def test_algebra_of_fork(fork):
    A = algebra_of(fork)
    assert A.size == 5
    assert A.elements[A.bottom] == ()
    assert A.elements[A.top] == (0, 1, 2)
    for a in range(A.size):
        assert A.imp[a][a] == A.top
        assert A.meet[a][a] == a
        for b in range(A.size):
            assert A.meet[a][b] == A.meet[b][a]
            assert A.join[a][b] == A.join[b][a]
            assert A.leq(A.meet[a][b], a)
            assert A.leq(a, A.join[a][b])


def test_algebra_tables_match_masks(fork):
    A = algebra_of(fork)
    masks = upset_masks(fork)
    for a, ma in enumerate(masks):
        for b, mb in enumerate(masks):
            assert masks[A.meet[a][b]] == ma & mb
            assert masks[A.join[a][b]] == ma | mb
            assert masks[A.imp[a][b]] == imp_mask(fork, ma, mb)


def test_algebra_json_round_trip(fork):
    A = algebra_of(fork)
    B = algebra_from_json(A.to_json())
    assert isinstance(B, FiniteHeytingAlgebra)
    assert B == A


def test_element_index(fork):
    # algebra_of(P) orders its elements as upset_masks(P) does
    assert upset_masks(fork).index(0) == 0
    assert upset_masks(fork).index(fork.full_mask) == 4


def test_algebra_budget(antichain3):
    with pytest.raises(BudgetExceeded):
        algebra_of(antichain3, budget=4)
