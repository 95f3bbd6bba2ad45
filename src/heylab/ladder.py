"""Finite truncations of the ladder spaces and their verifiers.

A ladder of parameter n has levels of width 2**n + 1; level 0 is the top.
Each point of level i+1 is below every point of level i except the one with
the next colour index, below all of levels i-1 and above, and a bottom point
sits below everything (the truncation's stand-in for the point at
infinity).
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from math import factorial, prod
from typing import Optional

from .colouring import Colouring, _initial_blocks, _omega_block_of, omega_class_count
from .errors import PosetMismatch, SupportTooDeep
from .poset import (
    DEFAULT_UPSET_BUDGET,
    EXACT_COUNT_BITS,
    Poset,
    iter_bits,
    over_budget,
    upset_masks,
    upset_multisets,
    validate,
)

BOTTOM_NAME = "bot"


@dataclass(frozen=True)
class LadderSpec:
    n: int
    depth: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("ladder parameter n must be >= 0")
        if self.depth < 1:
            raise ValueError("depth must be >= 1")

    @property
    def width(self) -> int:
        return 2 ** self.n + 1

    @property
    def point_count(self) -> int:
        return self.width * self.depth + 1

    @property
    def pair_count(self) -> int:
        """len(ladder_rule_pairs(self)), without building them."""
        w, d = self.width, self.depth
        return (d - 1) * (w * w - w + 1) + w * w * (d - 1) * (d - 2) // 2 + w * d


def point_name(l: int, i: int) -> str:
    return f"x{l}_{i}"


def ladder_rule_pairs(spec: LadderSpec) -> list:
    """The raw order pairs of the three construction rules, as index pairs."""
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


def check_ladder_budget(spec: LadderSpec, budget: Optional[int] = None) -> None:
    """Raise BudgetExceeded when the truncation's points or rule pairs
    exceed the upset budget (the default when budget is None). An n whose
    level width 2**n + 1 alone is past the cap and past EXACT_COUNT_BITS
    bits is refused by its exponent, before any power of two is formed."""
    cap = DEFAULT_UPSET_BUDGET if budget is None else budget
    if spec.n >= max(EXACT_COUNT_BITS, cap.bit_length()):
        raise over_budget(f"2 ** {spec.n} or more", cap, "ladder points")
    counts = (spec.point_count, "ladder points"), (spec.pair_count, "ladder pairs")
    for count, what in counts:
        if count > cap:
            raise over_budget(count, cap, what)


def build_ladder(spec: LadderSpec, budget: Optional[int] = None) -> Poset:
    """Build the truncated ladder poset, levels tagged, bottom untagged,
    once check_ladder_budget admits it."""
    check_ladder_budget(spec, budget)
    w = spec.width
    names = [point_name(l, i) for i in range(spec.depth) for l in range(w)]
    names.append(BOTTOM_NAME)
    tags = {i * w + l: i for i in range(spec.depth) for l in range(w)}
    return validate(names, ladder_rule_pairs(spec), tags)


def level_points(P: Poset) -> dict:
    """Map level -> sorted point indices, from the poset's level tags."""
    if P.level_tags is None:
        raise ValueError("poset has no level tags")
    out: dict = {}
    for i, lvl in sorted(P.level_tags.items()):
        out.setdefault(lvl, []).append(i)
    return out


def canonical_colouring(P: Poset, n: int) -> Colouring:
    """The (n+1)-colouring of a parameter-n ladder: colour k holds the
    level-0 points whose column gets a subset containing k.

    Columns are mapped injectively into colour subsets by binary expansion
    of the column index (injective since every index is below 2**(n+1)).
    Width 2 is degenerate: a column-0 point sees a single upper neighbour,
    namely the column-0 point above it, so that column must carry the
    nonempty subset; for n = 0 the injection is therefore flipped.
    """
    width = 2 ** n + 1

    def e(l: int) -> int:
        if n == 0:
            return 1 - l
        return l

    masks = []
    for k in range(n + 1):
        m = 0
        for l in range(width):
            if e(l) >> k & 1:
                m |= 1 << P.index(point_name(l, 0))
        masks.append(m)
    return Colouring.from_masks(P, masks)


def verify_canonical(n: int, depth: int, budget_upsets: Optional[int] = None) -> bool:
    """Is the canonical colouring an actual colouring of the truncation?"""
    P = build_ladder(LadderSpec(n, depth), budget_upsets)
    return omega_class_count(P, canonical_colouring(P, n).masks) == P.n


@dataclass(frozen=True)
class CollapseReport:
    """Per-level omega-type statistics of a colouring on a ladder.

    first_merge_level is the least level holding two points of the same
    omega-type while all deeper levels agree on 0-types; collapse_level is
    the least level from which every level has a single omega-type. Both
    are None when no level qualifies. bound_satisfied records whether every
    level at least 2**n + 1 below the first merge is a single class.
    """

    n: int
    depth: int
    first_merge_level: Optional[int]
    collapse_level: Optional[int]
    classes_per_level: tuple
    bound_satisfied: bool

    def to_json(self) -> dict:
        d = asdict(self)
        d["classes_per_level"] = list(self.classes_per_level)
        return d


def supported_within(P: Poset, m: int, max_level: int) -> bool:
    """Is colour m the empty or the full upset, which carry no information,
    or does it have all its points within levels 0..max_level?"""
    tags = P.level_tags or {}
    return m in (0, P.full_mask) or all(
        i in tags and tags[i] <= max_level for i in iter_bits(m)
    )


def _level_stats(P: Poset, masks, depth: int):
    blocks = _omega_block_of(P, masks)[0]
    blocks0 = _initial_blocks(P, masks)
    levels = level_points(P)
    classes = []
    uniform0 = []
    for j in range(depth):
        level = sum(1 << i for i in levels[j])
        classes.append(sum(1 for b in blocks if b & level))
        uniform0.append(sum(1 for b in blocks0 if b & level) <= 1)
    return classes, uniform0


def collapse_check(spec: LadderSpec, c: Colouring) -> CollapseReport:
    """Check the type-collapse bound on a truncation.

    The colouring's support must stay in the top levels, leaving at least
    2**n + 3 colour-free levels below, so the truncation has room for the
    collapse to play out (supported_within).
    """
    P = c.parent
    if P.n != spec.point_count:
        raise PosetMismatch("colouring is not over a ladder of this spec")
    tail = 2 ** spec.n + 3
    max_support = spec.depth - 1 - tail
    if not all(supported_within(P, m, max_support) for m in c.masks):
        raise SupportTooDeep(f"colour support must stay within levels 0..{max_support}")
    classes, uniform0 = _level_stats(P, c.masks, spec.depth)
    width = spec.width
    first_merge = None
    for j in range(spec.depth):
        if classes[j] < width and all(uniform0[q] for q in range(j + 1, spec.depth)):
            first_merge = j
            break
    collapse = None
    for t0 in range(spec.depth):
        if all(classes[t] == 1 for t in range(t0, spec.depth)):
            collapse = t0
            break
    if first_merge is None:
        bound = True
    else:
        start = first_merge + 2 ** spec.n + 1
        bound = all(classes[t] == 1 for t in range(start, spec.depth))
    return CollapseReport(
        n=spec.n,
        depth=spec.depth,
        first_merge_level=first_merge,
        collapse_level=collapse,
        classes_per_level=tuple(classes),
        bound_satisfied=bound,
    )


def next_level_bound_check(spec: LadderSpec, c: Colouring) -> bool:
    """Whenever a level has at most 2**n omega-classes and the level below
    is 0-type-uniform, the level below has no more omega-classes."""
    P = c.parent
    if P.n != spec.point_count:
        raise PosetMismatch("colouring is not over a ladder of this spec")
    classes, uniform0 = _level_stats(P, c.masks, spec.depth)
    bound = 2 ** spec.n
    for i in range(spec.depth - 1):
        if classes[i] <= bound and uniform0[i + 1]:
            if classes[i + 1] > classes[i]:
                return False
    return True


def random_tuples(pool, k: int, count: int, seed: Optional[int]) -> list:
    """count seeded random k-tuples drawn from pool with replacement."""
    rng = random.Random(seed)
    return [
        tuple(pool[rng.randrange(len(pool))] for _ in range(k)) for _ in range(count)
    ]


def non_colourability_scan(
    n: int,
    depth: int,
    k: Optional[int] = None,
    samples: Optional[int] = None,
    seed: Optional[int] = None,
    budget_upsets: Optional[int] = None,
    budget_tuples: Optional[int] = None,
) -> dict:
    """Scan k-colourings of the bottomed truncation for isolated points.

    Exhaustive over all k-tuples of upsets when samples is None, otherwise
    a seeded random sample; the seed is recorded in sampled mode only.
    Reports how many colourings isolate every point and the largest class
    count seen. The exhaustive scan walks multisets, each weighted by its
    k!/prod(c_i!) orderings, so it counts ordered tuples.
    """
    spec = LadderSpec(n, depth)
    P = build_ladder(spec, budget_upsets)
    k = n if k is None else k
    masks = upset_masks(P, budget_upsets)
    if samples is None:
        tuples = upset_multisets(masks, k, budget_tuples)
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
