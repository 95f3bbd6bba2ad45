import pytest
from conftest import oracle_imp, posets
from hypothesis import given

from heylab import FiniteHeytingAlgebra, algebra_of
from heylab.algebra import algebra_from_json, imp_mask
from heylab.corpus import all_posets_up_to_iso
from heylab.errors import BudgetExceeded, InvalidAlgebra
from heylab.poset import upset_masks, validate


def test_implication_against_adjunction_oracle(small_corpus):
    for P in small_corpus:
        masks = upset_masks(P)
        for u in masks:
            for v in masks:
                assert imp_mask(P, u, v) == oracle_imp(P, u, v)


def test_basic_operations(fork):
    x, y = 0b010, 0b100
    assert x & y == 0
    assert x | y == 0b110
    # x -> y removes everything at or below a point of x \ y
    assert imp_mask(fork, x, y) == 0b100
    # the negation of x is x -> 0
    assert imp_mask(fork, x, 0) == 0b100
    # top is 0 -> 0, and bottom the negation of top
    assert imp_mask(fork, 0, 0) == fork.full_mask
    assert imp_mask(fork, fork.full_mask, 0) == 0


def test_neg_on_chain(chain2):
    t = 0b10
    assert imp_mask(chain2, t, 0) == 0
    assert imp_mask(chain2, imp_mask(chain2, t, 0), 0) == chain2.full_mask


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


@given(posets(max_points=6))
def test_algebra_json_round_trips(P):
    A = algebra_of(P)
    assert algebra_from_json(A.to_json()) == A


def test_law_check_passes_on_exhaustive4():
    for P in all_posets_up_to_iso(4):
        A = algebra_of(P)
        assert algebra_from_json(A.to_json()) == A


@given(posets())
def test_algebra_of_tables_match_the_definitions(P):
    # algebra_of reads imp_mask's kernel once per table, not imp_mask per entry
    A = algebra_of(P)
    masks = upset_masks(P)
    idx = {m: i for i, m in enumerate(masks)}
    for i, mi in enumerate(masks):
        for j, mj in enumerate(masks):
            assert A.imp[i][j] == idx[imp_mask(P, mi, mj)]
            assert A.meet[i][j] == idx[mi & mj]
            assert A.join[i][j] == idx[mi | mj]


@given(posets(max_points=6))
def test_algebra_of_satisfies_heyting_laws(P):
    A = algebra_of(P)
    masks = upset_masks(P)
    assert (masks[A.bottom], masks[A.top]) == (0, P.full_mask)
    for a, ma in enumerate(masks):
        for b, mb in enumerate(masks):
            assert A.leq(a, b) == (ma & ~mb == 0)
            assert (masks[A.meet[a][b]], masks[A.join[a][b]]) == (ma & mb, ma | mb)
            below_imp = masks[A.imp[a][b]]
            for c, mc in enumerate(masks):
                # c and a below b exactly when c is below a -> b
                assert (ma & mc & ~mb == 0) == (mc & ~below_imp == 0)


def _corrupt(**changes):
    # the four-element Boolean algebra of two incomparable points: elements
    # 0, {a}, {b}, {a, b} at indices 0 to 3
    data = algebra_of(validate(["a", "b"], [])).to_json()
    for name, (i, j, value) in changes.items():
        data[name][i][j] = value
    return data


@pytest.mark.parametrize("data, message", [
    pytest.param(_corrupt(meet=(1, 1, 0)), "not a partial order at element 1",
                 id="order"),
    pytest.param(_corrupt(meet=(1, 2, 3)),
                 r"meet\[1\]\[2\] is not the greatest lower bound", id="meet"),
    pytest.param(_corrupt(join=(1, 2, 0)),
                 r"join\[1\]\[2\] is not the least upper bound", id="join"),
    pytest.param(_corrupt(imp=(1, 0, 3)),
                 r"imp\[1\]\[0\] is not the residual of 0 by 1", id="imp"),
    pytest.param({**_corrupt(), "bottom": 3, "top": 0}, "not the least and greatest",
                 id="bottom-top"),
])
def test_law_check_rejects(data, message):
    with pytest.raises(InvalidAlgebra, match=message):
        algebra_from_json(data)


def test_law_check_budget():
    data = _corrupt()
    with pytest.raises(BudgetExceeded, match="--budget-tuples"):
        algebra_from_json(data, budget=63)
    assert algebra_from_json(data, budget=64).size == 4


def test_element_index(fork):
    # algebra_of(P) orders its elements as upset_masks(P) does
    assert upset_masks(fork).index(0) == 0
    assert upset_masks(fork).index(fork.full_mask) == 4


def test_algebra_budget(antichain3):
    with pytest.raises(BudgetExceeded):
        algebra_of(antichain3, budget=4)
    # 8 upsets, so each operation table holds 64 entries
    with pytest.raises(BudgetExceeded, match="^64 entries per algebra table"):
        algebra_of(antichain3, budget=63)
    assert algebra_of(antichain3, budget=64).size == 8
