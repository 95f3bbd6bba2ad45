import random
from collections import Counter
from itertools import product
from math import factorial, prod

import pytest
from conftest import BoundedRandom
from hypothesis import example, given
from hypothesis import strategies as st

from heylab import (
    LadderSpec,
    PosetMismatch,
    build_ladder,
    canonical_colouring,
    collapse_check,
    next_level_bound_check,
    stage_types,
    verify_canonical,
)
from heylab import ladder as ladder_mod
from heylab.colouring import (
    _omega_block_of,
    colour_scan,
    omega_class_count,
    random_tuples,
)
from heylab.errors import BudgetExceeded, SupportTooDeep
from heylab.ladder import (
    BOTTOM_NAME,
    _level_stats,
    non_colourability_scan,
    point_name,
    supported_within,
)
from heylab.poset import (
    down_closure_of,
    is_upset_mask,
    iter_bits,
    upset_masks,
    upset_multisets,
    validate,
)


def ladder_rule_pairs(spec: LadderSpec) -> list:
    """The raw order pairs of the three construction rules, as index pairs:
    the closure oracle for build_ladder's up-sets."""
    w = spec.width

    def pid(l: int, i: int) -> int:
        return i * w + l

    pairs = []
    for i in range(1, spec.depth):
        for l in range(w):
            for lp in range(w):
                if lp != l + 1:
                    pairs.append((pid(l, i), pid(lp, i - 1)))
        for t in range(2, i + 1):
            for l in range(w):
                for lp in range(w):
                    pairs.append((pid(l, i), pid(lp, i - t)))
    b = w * spec.depth
    pairs.extend((b, p) for p in range(b))
    return pairs


def test_spec_validation():
    assert LadderSpec(1, 4).width == 3
    assert LadderSpec(2, 3).width == 5
    assert LadderSpec(1, 4).point_count == 13
    with pytest.raises(ValueError, match="^ladder n must be an int >= 0, got -1$"):
        LadderSpec(-1, 4)
    with pytest.raises(ValueError, match="^ladder depth must be an int >= 1, got 0$"):
        LadderSpec(1, 0)


@pytest.mark.parametrize("n, depth, field", [
    pytest.param(True, 2, "n", id="bool-n"),
    pytest.param(1, False, "depth", id="bool-depth"),
    pytest.param(1.5, 2, "n", id="float-n"),
    pytest.param("1", 2, "n", id="str-n"),
    pytest.param(1, 2.0, "depth", id="float-depth"),
])
def test_spec_refuses_arguments_that_are_not_ints(n, depth, field):
    # a bool is an int to arithmetic: LadderSpec(True, 2) built a 7-point
    # ladder; a float or a str failed inside build_ladder
    with pytest.raises(ValueError) as caught:
        LadderSpec(n, depth)
    value, least = (n, 0) if field == "n" else (depth, 1)
    assert str(caught.value) == f"ladder {field} must be an int >= {least}, got {value!r}"


def test_spec_is_a_value():
    assert LadderSpec(1, 4) == LadderSpec(1, 4) != LadderSpec(1, 5)
    assert LadderSpec(1, 4) != (1, 4)
    assert len({LadderSpec(1, 4), LadderSpec(1, 4), LadderSpec(4, 1)}) == 2
    assert repr(LadderSpec(2, 3)) == "LadderSpec(n=2, depth=3)"


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


def test_build_ladder_equals_the_closed_rule_pairs():
    # the level rule is already transitively closed: closing the raw rule
    # pairs gives the same points, up-sets, down-sets and level tags
    for n, depth in product(range(4), range(1, 9)):
        spec = LadderSpec(n, depth)
        P = build_ladder(spec)
        Q = validate(P.points, ladder_rule_pairs(spec), P.level_tags)
        assert (P.points, P.up, P.down, P.level_tags) == (
            Q.points, Q.up, Q.down, Q.level_tags
        ), spec


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
    down = down_closure_of(P)(1 << P.index("x1_0"))
    got = {P.points[i] for i in iter_bits(down)}
    assert got == {"x1_0", "x1_1", "x2_1", BOTTOM_NAME}
    # a down-set's complement is an upset
    assert is_upset_mask(P, P.full_mask & ~down)


def test_canonical_colouring_masks():
    P0 = build_ladder(LadderSpec(0, 3))
    assert canonical_colouring(0) == (1 << P0.index("x0_0"),)
    P1 = build_ladder(LadderSpec(1, 3))
    c1 = canonical_colouring(1)
    assert c1 == (1 << P1.index("x1_0"), 1 << P1.index("x2_0"))


def test_canonical_colours_everything():
    for n, depth in ((0, 5), (1, 4), (2, 3)):
        P = build_ladder(LadderSpec(n, depth))
        assert omega_class_count(P, canonical_colouring(n)) == P.n
    assert all(verify_canonical(0, d) for d in range(1, 9))
    assert verify_canonical(1, 6)
    assert verify_canonical(2, 4)


def test_collapse_check_support_guard():
    spec = LadderSpec(1, 8)
    P = build_ladder(spec)
    with pytest.raises(SupportTooDeep):
        collapse_check(spec, P, [P.up[P.index("x0_7")]])
    # the full upset carries no information and is exempt
    report = collapse_check(spec, P, [P.full_mask])
    assert set(report) == {"n", "depth", "first_merge_level", "collapse_level",
                           "classes_per_level", "bound_satisfied"}
    assert report["bound_satisfied"]


@pytest.mark.parametrize("depth", [3, 4])
def test_collapse_check_refuses_a_shallow_ladder(depth):
    # fewer than 2**n + 4 levels leave no level for colour support (the
    # deepest allowed level is -3 and -2), so any colour other than the
    # empty or full upset is refused, and no shift count goes negative
    spec = LadderSpec(1, depth)
    P = build_ladder(spec)
    with pytest.raises(SupportTooDeep):
        collapse_check(spec, P, [P.up[P.index("x0_0")]])


def test_supported_within_matches_the_level_tags():
    # every point of m tagged at most max_level; the bottom is untagged,
    # and the empty and full upsets are exempt
    for n, depth in product(range(2), range(1, 6)):
        spec = LadderSpec(n, depth)
        P = build_ladder(spec)
        for m, max_level in product(upset_masks(P), range(-3, depth + 1)):
            tagged = all(
                i in P.level_tags and P.level_tags[i] <= max_level
                for i in iter_bits(m)
            )
            expected = m in (0, P.full_mask) or tagged
            assert supported_within(spec, m, max_level) == expected


def test_collapse_check_canonical():
    spec = LadderSpec(1, 8)
    P = build_ladder(spec)
    report = collapse_check(spec, P, canonical_colouring(1))
    assert report["bound_satisfied"]
    # canonical colouring never merges, so every level keeps full width
    assert report["first_merge_level"] is None
    assert report["n"] == 1 and report["classes_per_level"] == [3] * 8


def test_collapse_single_colour_merge():
    # one colour on a width-3 ladder merges immediately; the bound forces a
    # single class three levels down
    spec = LadderSpec(1, 8)
    P = build_ladder(spec)
    report = collapse_check(spec, P, [1 << P.index("x0_0")])
    assert report["first_merge_level"] == 0
    assert report["bound_satisfied"]
    assert all(x == 1 for x in report["classes_per_level"][3:])


def test_collapse_parent_guard(fork):
    spec = LadderSpec(1, 8)
    with pytest.raises(PosetMismatch):
        collapse_check(spec, fork, [])
    with pytest.raises(PosetMismatch):
        next_level_bound_check(spec, fork, [])


def test_next_level_bound():
    spec = LadderSpec(1, 6)
    P = build_ladder(spec)
    assert next_level_bound_check(spec, P, canonical_colouring(1))
    assert next_level_bound_check(spec, P, [0])


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


def test_level_stats_match_the_type_partitions():
    # omega-classes per level, and whether stage 0 is uniform on each level,
    # for the canonical colouring and random ones of one to three colours
    rng = random.Random(5)
    for spec in (LadderSpec(0, 5), LadderSpec(1, 6), LadderSpec(2, 3)):
        P = build_ladder(spec)
        levels = {j: [i for i, lvl in P.level_tags.items() if lvl == j]
                  for j in range(spec.depth)}
        pool = upset_masks(P)
        colourings = [canonical_colouring(spec.n)]
        colourings += [rng.sample(pool, k) for k in (1, 2, 3) for _ in range(20)]
        for masks in colourings:
            # each point's block, as the block's mask
            omega, stage0 = ({i: b for b in blocks for i in iter_bits(b)} for blocks in
                             (_omega_block_of(P, masks)[0], stage_types(P, masks, 0)))
            classes, uniform0 = _level_stats(spec, P, masks)
            for j in range(spec.depth):
                assert classes[j] == len({omega[i] for i in levels[j]})
                assert uniform0[j] == (len({stage0[i] for i in levels[j]}) <= 1)


def oracle_collapse_fields(classes, uniform0, n, width):
    """collapse_check's three derived fields by its earlier three scans of
    the level profile: the first merge, the collapse level, and the bound
    read level by level from 2**n + 1 below the first merge."""
    depth = len(classes)
    first_merge = None
    for j in range(depth):
        if classes[j] < width and all(uniform0[q] for q in range(j + 1, depth)):
            first_merge = j
            break
    collapse = None
    for t0 in range(depth):
        if all(classes[t] == 1 for t in range(t0, depth)):
            collapse = t0
            break
    if first_merge is None:
        bound = True
    else:
        start = first_merge + 2 ** n + 1
        bound = all(classes[t] == 1 for t in range(start, depth))
    return first_merge, collapse, bound


@st.composite
def level_profiles(draw):
    """n, and per level its omega-class count (1 to w) and whether it is
    stage-0 uniform, for depths 1 to 14: profiles no colouring need give,
    failing bounds included."""
    n = draw(st.integers(0, 2))
    depth = draw(st.integers(1, 14))
    classes = draw(st.lists(st.integers(1, 2 ** n + 1), min_size=depth, max_size=depth))
    uniform0 = draw(st.lists(st.booleans(), min_size=depth, max_size=depth))
    return n, classes, uniform0


@given(level_profiles())
@example((0, [1, 2, 2, 2, 2, 1], [True] * 6))  # the bound fails: gap 5 > 2
@example((0, [1, 1, 2, 1, 1, 1], [True] * 6))  # gap 3 > 2, merge at level 0
@example((1, [2, 3, 3, 1, 1], [True] * 5))  # the gap is exactly 2**n + 1
@example((1, [3, 2, 2], [False, True, True]))  # last level not single
@example((2, [5, 5, 3], [True, False, False]))  # no merge: deep levels not uniform
def test_collapse_fields_match_the_level_scans(profile):
    n, classes, uniform0 = profile
    spec = LadderSpec(n, len(classes))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ladder_mod, "_level_stats", lambda *args: (classes, uniform0))
        report = collapse_check(spec, None, [])
    fields = report["first_merge_level"], report["collapse_level"], report["bound_satisfied"]
    assert fields == oracle_collapse_fields(classes, uniform0, n, spec.width)
    assert report["classes_per_level"] == classes
    assert (report["n"], report["depth"]) == (n, len(classes))


def oracle_non_colourability_scan(n, depth, k, samples=None, seed=None):
    """non_colourability_scan as it was before the prefix walk and the
    per-set memo: every tuple refined from scratch by omega_class_count."""
    P = build_ladder(LadderSpec(n, depth))
    masks = upset_masks(P)
    if samples is None:
        tuples = upset_multisets(masks, k)
    else:
        tuples = random_tuples(masks, k, samples, seed)
    checked = max_classes = coloured_found = 0
    weight = 1
    for tup in tuples:
        if samples is None:
            weight = factorial(k) // prod(factorial(tup.count(m)) for m in set(tup))
        classes = omega_class_count(P, tup)
        checked += weight
        max_classes = max(max_classes, classes)
        if classes == P.n:
            coloured_found += weight
    return {
        "n": n,
        "depth": depth,
        "k": k,
        "mode": "exhaustive" if samples is None else "sampled",
        "seed": None if samples is None else seed,
        "checked": checked,
        "upset_count": len(masks),
        "point_count": P.n,
        "max_classes": max_classes,
        "coloured_found": coloured_found,
    }


def oracle_set_weights(masks, k, samples=None, seed=None):
    """Every ordered k-tuple, or every draw, grouped by its multiset, or by
    its set for draws: colour_scan's (colours, weight) list. In product
    order each multiset appears sorted first, so the groups keep the order
    of the ascending multisets."""
    if samples is None:
        rank = {m: i for i, m in enumerate(masks)}
        tuples = product(masks, repeat=k)
        return list(Counter(tuple(sorted(t, key=rank.get)) for t in tuples).items())
    tuples = random_tuples(masks, k, samples, seed)
    return sorted(Counter(tuple(sorted(set(t))) for t in tuples).items())


@pytest.mark.parametrize(
    "n, depth, k, samples, seed",
    [
        (0, 3, 0, None, None),
        (0, 4, 3, None, None),
        (1, 2, 0, None, None),
        (1, 3, 2, None, None),
        (1, 3, 3, None, None),
        (2, 2, 2, None, None),
        (1, 2, 0, 40, 1),
        (1, 3, 1, 500, 3),
        (1, 2, 2, 2000, 5),
        (1, 2, 3, 1500, 11),
        (1, 3, 2, 800, 7),
        (2, 2, 2, 1000, 9),
        (2, 3, 2, 3000, 2718),
    ],
)
def test_scan_matches_the_per_tuple_oracle(n, depth, k, samples, seed):
    # both modes walk sets of colours through omega_walk, weighted by the
    # tuples each stands for; neither may change a report
    got = non_colourability_scan(n, depth, k=k, samples=samples, seed=seed)
    assert got == oracle_non_colourability_scan(n, depth, k, samples, seed)
    P = build_ladder(LadderSpec(n, depth))
    masks = upset_masks(P)
    scan = [(c, w) for c, w, _, _ in colour_scan(P, masks, k, samples, seed)]
    assert scan == oracle_set_weights(masks, k, samples, seed)


def old_random_tuples(pool, k, count, seed):
    """random_tuples as first written: the stream its draws must keep."""
    rng = random.Random(seed)
    for _ in range(count):
        yield tuple(pool[rng.randrange(len(pool))] for _ in range(k))


# randrange(n) draws n.bit_length() bits until they fall below n: a redraw
# is rarest at n = 2**j and most frequent at n = 2**j + 1
@pytest.mark.parametrize("size", [1, 2, 3, 4, 8, 21, 22, 40, 64, 65])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_random_tuples_keep_their_stream(monkeypatch, size, k):
    made = []

    class Recorded(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    monkeypatch.setattr(random, "Random", Recorded)
    pool = [(i * 40503) % 65521 for i in range(1, size + 1)]
    for seed in (0, 1, 7, 2718):
        made.clear()
        got = list(random_tuples(pool, k, 200, seed))
        assert got == list(old_random_tuples(pool, k, 200, seed))
        assert made[0].getstate() == made[1].getstate()


def test_random_tuples_refuse_an_empty_pool(monkeypatch):
    # a draw below 0 has no value, and getrandbits(0) gives 0 for ever; the
    # kernel must raise randrange's error rather than loop
    monkeypatch.setattr(random, "Random", BoundedRandom)
    with pytest.raises(ValueError) as old:
        list(old_random_tuples([], 1, 1, 0))
    with pytest.raises(ValueError) as new:
        list(random_tuples([], 1, 1, 0))
    assert str(new.value) == str(old.value) == "empty range for randrange()"
    # with nothing to draw, nothing is refused
    for k, count in ((0, 3), (2, 0)):
        got = list(random_tuples([], k, count, 0))
        assert got == list(old_random_tuples([], k, count, 0))
