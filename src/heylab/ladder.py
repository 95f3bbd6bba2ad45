"""Finite truncations of the ladder spaces and their verifiers.

A ladder of parameter n has levels of width w = 2**n + 1; level 0 is the
top. Each point of level i+1 is below every point of level i except the one
with the next colour index, below all of levels i-1 and above, and a bottom
point sits below everything (the truncation's stand-in for the point at
infinity). Point (l, i), column l of level i, is index i*w + l, so level i
is the bit slice ((1 << w) - 1) << i*w, and the bottom is the last index.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .colouring import _omega_block_of, colour_scan, omega_class_count
from .errors import PosetMismatch, SupportTooDeep
from .poset import (
    DEFAULT_SEED,
    EXACT_COUNT_BITS,
    Poset,
    budget_cap,
    check_budget,
    check_tuple_budget,
    iter_bits,
    over_budget,
    upset_masks,
)

BOTTOM_NAME = "bot"


class LadderSpec:
    """The truncation of depth levels of the parameter-n ladder."""

    __slots__ = ("n", "depth")

    def __init__(self, n: int, depth: int):
        for name, v, least in (("n", n, 0), ("depth", depth, 1)):
            if type(v) is not int or v < least:
                raise ValueError(f"ladder {name} must be an int >= {least}, got {v!r}")
        self.n, self.depth = n, depth

    def __eq__(self, other) -> bool:
        if not isinstance(other, LadderSpec):
            return NotImplemented
        return (self.n, self.depth) == (other.n, other.depth)

    def __hash__(self) -> int:
        return hash((self.n, self.depth))

    def __repr__(self) -> str:
        return f"LadderSpec(n={self.n}, depth={self.depth})"

    @property
    def width(self) -> int:
        return 2 ** self.n + 1

    @property
    def point_count(self) -> int:
        return self.width * self.depth + 1

    @property
    def pair_count(self) -> int:
        """The number of order pairs the construction rules name: each point
        of level i >= 1 with w - 1 points of level i-1 and all of levels
        0..i-2, and the bottom with every other point. The up-sets hold
        about this many bits, so it caps the build."""
        w, d = self.width, self.depth
        return (d - 1) * (w * w - w + 1) + w * w * (d - 1) * (d - 2) // 2 + w * d


def point_name(l: int, i: int) -> str:
    return f"x{l}_{i}"


def check_ladder_budget(spec: LadderSpec, budget: Optional[int] = None) -> None:
    """Raise BudgetExceeded when the truncation's points or rule pairs
    exceed the upset budget (the default when budget is None). An n whose
    level width 2**n + 1 alone is past the cap and past EXACT_COUNT_BITS
    bits is refused by its exponent, before any power of two is formed."""
    cap = budget_cap(budget)
    if spec.n >= max(EXACT_COUNT_BITS, cap.bit_length()):
        raise over_budget(f"2 ** {spec.n} or more", cap, "ladder points")
    check_budget(spec.point_count, cap, "ladder points")
    check_budget(spec.pair_count, cap, "ladder pairs")


def build_ladder(spec: LadderSpec, budget: Optional[int] = None) -> Poset:
    """Build the truncated ladder poset, levels tagged, bottom untagged,
    once check_ladder_budget admits it. The rule gives the up-sets already
    transitively closed: (l, i) lies below levels 0..i-2 and below level
    i-1 except column l+1."""
    check_ladder_budget(spec, budget)
    w, d = spec.width, spec.depth
    level = (1 << w) - 1
    names = [point_name(l, i) for i in range(d) for l in range(w)]
    names.append(BOTTOM_NAME)
    up = [1 << l for l in range(w)]
    for i in range(1, d):
        above = (1 << (i - 1) * w) - 1
        up.extend(
            1 << (i * w + l) | above | (level & ~(2 << l)) << (i - 1) * w
            for l in range(w)
        )
    up.append((1 << (w * d + 1)) - 1)
    down = [0] * len(up)
    for i, u in enumerate(up):
        for j in iter_bits(u):
            down[j] |= 1 << i
    tags = {i * w + l: i for i in range(d) for l in range(w)}
    return Poset(names, up, down, tags)


def canonical_colouring(n: int) -> tuple:
    """The (n+1)-colouring of a parameter-n ladder: colour k holds the
    level-0 points (bits 0..2**n) whose column gets a subset containing k.

    Columns are mapped injectively into colour subsets by binary expansion
    of the column index (injective since every index is below 2**(n+1)).
    Width 2 is degenerate: a column-0 point sees a single upper neighbour,
    namely the column-0 point above it, so that column must carry the
    nonempty subset; for n = 0 the injection is therefore flipped.
    """
    subsets = [1 - l if n == 0 else l for l in range(2 ** n + 1)]
    return tuple(
        sum(1 << l for l, s in enumerate(subsets) if s >> k & 1) for k in range(n + 1)
    )


def verify_canonical(n: int, depth: int, budget_upsets: Optional[int] = None) -> bool:
    """Is the canonical colouring an actual colouring of the truncation?"""
    P = build_ladder(LadderSpec(n, depth), budget_upsets)
    return omega_class_count(P, canonical_colouring(n)) == P.n


def supported_within(spec: LadderSpec, m: int, max_level: int) -> bool:
    """Is colour m the empty or the full upset, which carry no information,
    or does it have all its points within levels 0..max_level? No other
    upset holds the bottom, which lies past every level."""
    if m in (0, (1 << spec.point_count) - 1):
        return True
    return max_level >= 0 and not m >> spec.width * (max_level + 1)


def _level_stats(spec: LadderSpec, P: Poset, masks):
    """Per level, its number of omega-types and whether it lies in one
    stage-0 block, i.e. every colour holds all of it or none of it."""
    if P.n != spec.point_count:
        raise PosetMismatch("colouring is not over a ladder of this spec")
    blocks = _omega_block_of(P, masks)[0]
    levels = [((1 << spec.width) - 1) << j * spec.width for j in range(spec.depth)]
    classes = [sum(1 for b in blocks if b & level) for level in levels]
    return classes, [all((m & level) in (0, level) for m in masks) for level in levels]


def collapse_check(spec: LadderSpec, P: Poset, masks: Sequence[int]) -> dict:
    """Check the type-collapse bound on a truncation: per-level omega-type
    statistics of the colouring masks on the ladder P.

    classes_per_level counts the omega-types on each level. Two backward
    passes read it: one is the least level from which every level holds a
    single class (the depth when the last level holds more), and tail the
    least from which every level is stage-0 uniform. first_merge_level is
    the least level j with two points of one omega-type and every level
    below j uniform, i.e. with j + 1 >= tail: the least j >=
    max(tail - 1, 0) with fewer than w classes. collapse_level is one when
    one is below the depth; both are None when no level qualifies.
    bound_satisfied is the lemma, collapse_level - first_merge_level <=
    2**n + 1 with the collapse level read as one: the levels from one down
    are single and level one - 1 is not, so every level from first_merge +
    2**n + 1 down is single exactly when one is at most that level.

    The colouring's support must stay in the top levels, leaving at least
    2**n + 3 colour-free levels below, so the truncation has room for the
    collapse to play out (supported_within).
    """
    classes, uniform0 = _level_stats(spec, P, masks)
    max_support = spec.depth - 1 - (2 ** spec.n + 3)
    if not all(supported_within(spec, m, max_support) for m in masks):
        raise SupportTooDeep(f"colour support must stay within levels 0..{max_support}")
    depth = one = tail = spec.depth
    while one and classes[one - 1] == 1:
        one -= 1
    while tail and uniform0[tail - 1]:
        tail -= 1
    merges = (j for j in range(max(tail - 1, 0), depth) if classes[j] < spec.width)
    first_merge = next(merges, None)
    return {
        "n": spec.n,
        "depth": depth,
        "first_merge_level": first_merge,
        "collapse_level": one if one < depth else None,
        "classes_per_level": classes,
        "bound_satisfied": first_merge is None or one - first_merge <= 2 ** spec.n + 1,
    }


def next_level_bound_check(spec: LadderSpec, P: Poset, masks: Sequence[int]) -> bool:
    """Whenever a level has at most 2**n omega-classes and the level below
    is 0-type-uniform, the level below has no more omega-classes."""
    classes, uniform0 = _level_stats(spec, P, masks)
    bound = 2 ** spec.n
    for i in range(spec.depth - 1):
        if classes[i] <= bound and uniform0[i + 1]:
            if classes[i + 1] > classes[i]:
                return False
    return True


def non_colourability_scan(
    n: int,
    depth: int,
    k: Optional[int] = None,
    samples: Optional[int] = None,
    seed: int = DEFAULT_SEED,
    budget_upsets: Optional[int] = None,
    budget_tuples: Optional[int] = None,
) -> dict:
    """Scan k-colourings of the bottomed truncation for isolated points.

    Exhaustive over all k-tuples of upsets when samples is None, otherwise
    a seeded random sample of that many tuples, capped by budget_tuples
    before the ladder is built; the seed is recorded in sampled mode only.
    Reports how many colourings isolate every point and the largest class
    count seen; the counts are of ordered tuples, by colour_scan's weights.
    """
    if samples is not None:
        check_tuple_budget(samples, budget_tuples)
    P = build_ladder(LadderSpec(n, depth), budget_upsets)
    k = n if k is None else k
    masks = upset_masks(P, budget_upsets)
    checked = max_classes = coloured_found = 0
    for _, w, blocks, _ in colour_scan(P, masks, k, samples, seed, budget_tuples):
        checked += w
        max_classes = max(max_classes, len(blocks))
        if len(blocks) == P.n:
            coloured_found += w
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
