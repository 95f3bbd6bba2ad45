from itertools import combinations, product

import pytest
from conftest import oracle_quotient_upset_count, oracle_subalgebra_closure, posets
from hypothesis import given
from hypothesis import strategies as st

from heylab import LadderSpec, algebra_of, build_ladder, strictness_report, validate
from heylab.corpus import all_posets_up_to_iso
from heylab.errors import BudgetExceeded, ForeignElement
import heylab.variety
from heylab.colouring import _omega_block_of, omega_class_count
from heylab.ladder import canonical_colouring
from heylab.poset import iter_bits, upset_masks, upset_multisets
from heylab.variety import algebra_product, subalgebra_closure


def max_k_generated_size(A, k, budget_tuples=None):
    """The strictness oracle, on the operation tables: the largest
    |<gens>| over k-tuples of A's elements, and the first tuple that
    reaches it. The closure depends only on the set, so it walks
    multisets."""
    best, witness = -1, ()
    for tup in upset_multisets(range(A.size), k, budget_tuples):
        size = len(subalgebra_closure(A, tup))
        if size > best:
            best, witness = size, tup
    return best, witness


def oracle_strictness_rows(n, depths):
    """strictness_report as it was before its scan shared prefixes: every
    multiset refined from scratch and its quotient's upsets counted on the
    class order, none skipped."""

    def size_of(P, tup):
        blocks, _, downs = _omega_block_of(P, tup)
        return oracle_quotient_upset_count(blocks, downs)

    rows = []
    for depth in depths:
        P = build_ladder(LadderSpec(n, depth))
        masks = upset_masks(P)
        best, witness = 0, ()
        for tup in upset_multisets(masks, n):
            size = size_of(P, tup)
            if size > best:
                best, witness = size, tup
        rows.append(
            {
                "depth": depth,
                "k": n,
                "algebra_size": len(masks),
                "max_k_generated_size": best,
                "witness": [sorted(iter_bits(m)) for m in witness],
                "canonical_generates_full": (
                    size_of(P, canonical_colouring(n)) == len(masks)
                ),
            }
        )
    return rows


def test_subalgebra_closure_chain(chain2):
    A = algebra_of(chain2)  # three-element chain algebra
    assert A.size == 3
    assert subalgebra_closure(A, []) == {A.bottom, A.top}
    # the middle element generates everything: 0, a, 1
    mid = next(i for i in range(3) if i not in (A.bottom, A.top))
    assert len(subalgebra_closure(A, [mid])) == 3


def test_subalgebra_closure_guards(chain2):
    A = algebra_of(chain2)
    with pytest.raises(ForeignElement):
        subalgebra_closure(A, [99])
    with pytest.raises(ForeignElement):
        subalgebra_closure(A, ["x"])
    # bools are ints to isinstance, but name no element
    for flag in (True, False):
        with pytest.raises(ForeignElement):
            subalgebra_closure(A, [flag])


def index_lists(A):
    """Lists of element indices of A, which may name the constants."""
    one = st.one_of(st.sampled_from([A.bottom, A.top]), st.integers(0, A.size - 1))
    return st.lists(one, max_size=4)


def assert_closure_matches_oracle(A, gens):
    # also with every index repeated, and with both constants named
    for g in (gens, gens * 2, [A.top, *gens, A.bottom]):
        assert subalgebra_closure(A, g) == oracle_subalgebra_closure(A, g)


@given(st.data())
def test_subalgebra_closure_matches_table_oracle(data):
    A = algebra_of(data.draw(posets(max_points=6)))
    assert_closure_matches_oracle(A, data.draw(index_lists(A)))


@given(st.data())
def test_subalgebra_closure_matches_table_oracle_on_products(data):
    A, B = (algebra_of(data.draw(posets(max_points=3))) for _ in range(2))
    prod = algebra_product(A, B)
    assert_closure_matches_oracle(prod, data.draw(index_lists(prod)))


def test_subalgebra_closure_matches_table_oracle_on_all_pairs():
    # every ordered pair of indices on every poset of at most 5 points: a
    # kernel that never forms b -> a for b before a differs on 168 of them
    for P in all_posets_up_to_iso(5):
        A = algebra_of(P)
        for pair in product(range(A.size), repeat=2):
            assert subalgebra_closure(A, pair) == oracle_subalgebra_closure(A, pair)


def test_max_k_generated(fork):
    A = algebra_of(fork)
    assert max_k_generated_size(A, 0)[0] == 2  # constants only
    best, witness = max_k_generated_size(A, 1)
    assert A.size == best == 5  # the fork is 1-generated
    assert len(subalgebra_closure(A, witness)) == 5


def test_max_k_generated_matches_ordered_tuple_oracle():
    # the first maximum in product order, from a scan of every ordered tuple
    for P in all_posets_up_to_iso(3):
        A = algebra_of(P)
        for k in range(3):
            tuples = product(range(A.size), repeat=k)
            sizes = {t: len(subalgebra_closure(A, t)) for t in tuples}
            best = max(sizes.values())
            first = next(t for t, size in sizes.items() if size == best)
            assert max_k_generated_size(A, k) == (best, first)


def test_max_k_generated_budget(fork):
    A = algebra_of(fork)
    with pytest.raises(BudgetExceeded):
        max_k_generated_size(A, 3, budget_tuples=10)


def test_subset_vs_tuple_semantics(chain2):
    A = algebra_of(chain2)
    # repeating an element never beats a genuine 2-subset here
    subsets = combinations(range(A.size), 2)
    assert max(len(subalgebra_closure(A, c)) for c in subsets) == 3
    assert max_k_generated_size(A, 2)[0] == 3


def test_product_matches_disjoint_union(point):
    # Up(P) x Up(Q) is the upset algebra of the disjoint union of P and Q
    A = algebra_of(point)
    prod = algebra_product(A, A)
    B = algebra_of(validate(["a", "b"], []))
    assert prod.size == B.size == 4
    assert len(prod.elements) == len(set(prod.elements))

    def order_profile(X):
        return sorted(
            sum(X.leq(b, a) for b in range(X.size)) for a in range(X.size)
        )

    # both are the four-element Boolean lattice: below-counts 1, 2, 2, 4
    assert order_profile(prod) == order_profile(B) == [1, 2, 2, 4]


def test_product_budget(fork):
    A = algebra_of(fork)
    with pytest.raises(BudgetExceeded):
        algebra_product(A, A, budget=10)


def test_product_budget_caps_table_entries(fork):
    # 25 elements, so each operation table holds 625 entries
    A = algebra_of(fork)
    assert algebra_product(A, A, budget=625).size == 25
    with pytest.raises(BudgetExceeded, match="625 entries"):
        algebra_product(A, A, budget=624)


def test_product_laws(chain2):
    A = algebra_of(chain2)
    P = algebra_product(A, A)
    for a in range(P.size):
        assert P.meet[a][a] == a
        assert P.imp[a][a] == P.top
        for b in range(P.size):
            assert P.meet[a][b] == P.meet[b][a]
            # residuation inside the product
            for c in range(P.size):
                lhs = P.leq(P.meet[a][b], c)
                rhs = P.leq(a, P.imp[b][c])
                assert lhs == rhs


def test_strictness_report_depth4():
    rows = strictness_report(1, [4])
    (row,) = rows
    assert row["depth"] == 4 and row["k"] == 1
    assert row["algebra_size"] == 36
    assert row["max_k_generated_size"] == 9
    assert row["canonical_generates_full"] is True


def test_strictness_report_tuple_budget():
    # n = 1, depth 4 scans C(36, 1) = 36 generator multisets
    with pytest.raises(BudgetExceeded):
        strictness_report(1, [4], budget_tuples=35)
    assert strictness_report(1, [4], budget_tuples=36) == strictness_report(1, [4])
    # n = 3, depth 1: C(515, 3) = 22,632,705 triples of its 513 upsets
    with pytest.raises(BudgetExceeded):
        strictness_report(3, [1])


@pytest.mark.parametrize("n, depths", [(0, [1, 2, 3, 4]), (1, [1, 2, 3, 4]), (2, [1, 2])])
def test_strictness_maximum_matches_table_closure(n, depths):
    # the scan sizes each generated subalgebra on the omega-quotient, the
    # oracle closes it on the operation tables; both keep the first maximum
    for depth, row in zip(depths, strictness_report(n, depths)):
        A = algebra_of(build_ladder(LadderSpec(n, depth)))
        best, witness = max_k_generated_size(A, n)
        assert row["max_k_generated_size"] == best
        assert row["witness"] == [list(A.elements[i]) for i in witness]


@pytest.mark.parametrize(
    "n, depths", [(0, [1, 2, 3, 4, 5, 6]), (1, [1, 2, 3, 4, 5, 6]), (2, [1, 2, 3, 4])]
)
def test_strictness_rows_match_the_per_multiset_oracle(n, depths):
    # the prefix walk and the 2**classes bound leave every row as it was,
    # the witness (the first multiset reaching the maximum) included
    assert strictness_report(n, depths) == oracle_strictness_rows(n, depths)


def test_strictness_counts_only_quotients_that_could_beat_the_best(monkeypatch):
    # the bottom point's class is the least, so c classes have at most
    # 2**(c-1) + 1 upsets, and a quotient is counted exactly when that
    # exceeds the largest size so far. On the ladders the skipped quotients
    # never change a row, so the counts themselves are compared.
    counted = []
    count = heylab.variety.quotient_upset_count

    def recording(blocks, downs, budget):
        counted.append(len(blocks))
        return count(blocks, downs, budget)

    monkeypatch.setattr(heylab.variety, "quotient_upset_count", recording)
    strictness_report(2, [2])
    P = build_ladder(LadderSpec(2, 2))
    best, want = 0, []
    for tup in upset_multisets(upset_masks(P), 2):
        classes = omega_class_count(P, tup)
        if (1 << classes - 1) + 1 > best:
            want.append(classes)
            blocks, _, downs = _omega_block_of(P, tup)
            best = max(best, oracle_quotient_upset_count(blocks, downs))
    assert 0 < len(want) < len(list(upset_multisets(upset_masks(P), 2)))
    assert counted == want


@pytest.mark.parametrize("n, depth", [(n, d) for n in range(3) for d in range(1, 5)])
def test_every_ladder_quotient_has_a_least_class(n, depth):
    # the premise of the strictness bound: the bottom point puts one class
    # below all the others, and then an upset holding it is the whole
    # quotient, so c classes have at most 2**(c-1) + 1 upsets
    P = build_ladder(LadderSpec(n, depth))
    for tup in upset_multisets(upset_masks(P), n):
        blocks, _, downs = _omega_block_of(P, tup)
        assert any(all(L & downs[b] for b in blocks) for L in blocks)
        count = oracle_quotient_upset_count(blocks, downs)
        assert count <= (1 << len(blocks) - 1) + 1
