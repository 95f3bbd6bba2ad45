from itertools import product

import pytest

from heylab import (
    CollapseReport,
    LadderSpec,
    PosetMismatch,
    build_ladder,
    canonical_colouring,
    collapse_check,
    down_closure,
    next_level_bound_check,
    omega_types,
    verify_canonical,
)
from heylab.colouring import Colouring, omega_class_count
from heylab.errors import BudgetExceeded, SupportTooDeep
from heylab.ladder import (
    BOTTOM_NAME,
    ladder_rule_pairs,
    level_points,
    non_colourability_scan,
    point_name,
)
from heylab.poset import upset_masks


def test_spec_validation():
    assert LadderSpec(1, 4).width == 3
    assert LadderSpec(2, 3).width == 5
    assert LadderSpec(1, 4).point_count == 13
    with pytest.raises(ValueError):
        LadderSpec(-1, 4)
    with pytest.raises(ValueError):
        LadderSpec(1, 0)


def test_build_budget():
    with pytest.raises(BudgetExceeded, match="^13 ladder points exceed"):
        build_ladder(LadderSpec(1, 4), budget=5)
    # 10 points, but 32 rule pairs
    with pytest.raises(BudgetExceeded, match="^32 ladder pairs exceed"):
        build_ladder(LadderSpec(1, 3), budget=20)
    assert build_ladder(LadderSpec(1, 3), budget=32).n == 10


def test_pair_count_is_the_rule_pair_count():
    for n, depth in product(range(4), range(1, 6)):
        spec = LadderSpec(n, depth)
        assert spec.pair_count == len(ladder_rule_pairs(spec))


def test_order_rules():
    P = build_ladder(LadderSpec(1, 3))
    idx = P.index
    # level 1 point of column l is below every level-0 point except column l+1
    assert P.leq(idx("x0_1"), idx("x0_0"))
    assert not P.leq(idx("x0_1"), idx("x1_0"))
    assert P.leq(idx("x0_1"), idx("x2_0"))
    # two or more levels up: below everything
    assert all(P.leq(idx(point_name(0, 2)), idx(point_name(l, 0))) for l in range(3))
    # bottom is below all
    b = idx(BOTTOM_NAME)
    assert all(P.leq(b, i) for i in range(P.n))
    assert P.level_tags[idx("x2_1")] == 1
    assert b not in P.level_tags


def test_down_closure_of_column_point():
    P = build_ladder(LadderSpec(1, 2))
    got = {P.points[i] for i in down_closure(P, [P.index("x1_0")])}
    assert got == {"x1_0", "x1_1", "x2_1", BOTTOM_NAME}


def test_level_points():
    P = build_ladder(LadderSpec(1, 2))
    lp = level_points(P)
    assert sorted(lp) == [0, 1]
    assert [P.points[i] for i in lp[0]] == ["x0_0", "x1_0", "x2_0"]


def test_level_points_requires_tags(fork):
    with pytest.raises(ValueError):
        level_points(fork)


def test_canonical_colouring_masks():
    P0 = build_ladder(LadderSpec(0, 3))
    c0 = canonical_colouring(P0, 0)
    assert c0.k == 1
    assert c0.masks == (1 << P0.index("x0_0"),)
    P1 = build_ladder(LadderSpec(1, 3))
    c1 = canonical_colouring(P1, 1)
    assert c1.k == 2
    assert c1.masks[0] == 1 << P1.index("x1_0")
    assert c1.masks[1] == 1 << P1.index("x2_0")


def test_canonical_colours_everything():
    for n, depth in ((0, 5), (1, 4), (2, 3)):
        P = build_ladder(LadderSpec(n, depth))
        assert omega_types(P, canonical_colouring(P, n)).is_discrete
    assert all(verify_canonical(0, d) for d in range(1, 9))
    assert verify_canonical(1, 6)
    assert verify_canonical(2, 4)


def test_collapse_check_support_guard():
    spec = LadderSpec(1, 8)
    P = build_ladder(spec)
    deep = Colouring.from_masks(P, [P.up[P.index("x0_7")]])
    with pytest.raises(SupportTooDeep):
        collapse_check(spec, deep)
    # the full upset carries no information and is exempt
    trivial = Colouring.from_masks(P, [P.full_mask])
    report = collapse_check(spec, trivial)
    assert isinstance(report, CollapseReport)
    assert report.bound_satisfied


def test_collapse_check_canonical():
    spec = LadderSpec(1, 8)
    P = build_ladder(spec)
    report = collapse_check(spec, canonical_colouring(P, 1))
    assert report.bound_satisfied
    # canonical colouring never merges, so every level keeps full width
    assert report.first_merge_level is None
    assert report.classes_per_level == (3,) * 8
    j = report.to_json()
    assert j["n"] == 1 and j["classes_per_level"] == [3] * 8


def test_collapse_single_colour_merge():
    # one colour on a width-3 ladder merges immediately; the bound forces a
    # single class three levels down
    spec = LadderSpec(1, 8)
    P = build_ladder(spec)
    c = Colouring.from_masks(P, [1 << P.index("x0_0")])
    report = collapse_check(spec, c)
    assert report.first_merge_level == 0
    assert report.bound_satisfied
    assert all(x == 1 for x in report.classes_per_level[3:])


def test_collapse_parent_guard(fork):
    spec = LadderSpec(1, 8)
    with pytest.raises(PosetMismatch):
        collapse_check(spec, Colouring.from_masks(fork, []))
    with pytest.raises(PosetMismatch):
        next_level_bound_check(spec, Colouring.from_masks(fork, []))


def test_next_level_bound():
    spec = LadderSpec(1, 6)
    P = build_ladder(spec)
    assert next_level_bound_check(spec, canonical_colouring(P, 1))
    assert next_level_bound_check(spec, Colouring.from_masks(P, [0]))


def test_non_colourability_scan_exhaustive():
    report = non_colourability_scan(1, 4)
    assert report["mode"] == "exhaustive"
    assert report["k"] == 1
    assert report["point_count"] == 13
    assert report["upset_count"] == 36
    assert report["checked"] == 36
    assert report["coloured_found"] == 0
    assert report["max_classes"] == 5


def test_non_colourability_scan_sampled():
    report = non_colourability_scan(2, 3, k=2, samples=50, seed=11)
    assert report["mode"] == "sampled" and report["checked"] == 50
    assert report["coloured_found"] == 0
    again = non_colourability_scan(2, 3, k=2, samples=50, seed=11)
    assert report == again


def test_non_colourability_budget():
    with pytest.raises(BudgetExceeded):
        non_colourability_scan(1, 4, k=3, budget_tuples=100)


@pytest.mark.parametrize("k, checked, coloured", [(2, 324, 42), (3, 5832, 1710)])
def test_exhaustive_scan_counts_ordered_tuples(k, checked, coloured):
    # the scan walks multisets and weights each by its orderings; these
    # counts are those of the scan over all 18**k ordered tuples
    report = non_colourability_scan(1, 2, k=k)
    assert report["upset_count"] == 18
    assert report["checked"] == checked == 18**k
    assert report["max_classes"] == 7
    assert report["coloured_found"] == coloured


@pytest.mark.parametrize("n, depth, k", [(0, 2, 3), (1, 1, 3), (1, 2, 2), (2, 1, 2)])
def test_exhaustive_scan_matches_ordered_tuple_oracle(n, depth, k):
    P = build_ladder(LadderSpec(n, depth))
    classes = [omega_class_count(P, t) for t in product(upset_masks(P), repeat=k)]
    report = non_colourability_scan(n, depth, k=k)
    assert report["checked"] == len(classes)
    assert report["max_classes"] == max(classes)
    assert report["coloured_found"] == classes.count(P.n)
