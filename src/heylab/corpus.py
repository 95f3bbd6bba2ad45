"""Poset corpora for quantified checks: exhaustive enumeration up to
isomorphism at small sizes, and seeded random posets."""

from __future__ import annotations

import random
import re
from functools import partial
from itertools import chain
from typing import Iterator, Sequence

from .errors import BudgetExceeded
from .poset import DEFAULT_SEED, Poset, iter_bits, upsets_of, validate

# Largest K in an 'exhaustiveK' corpus item: on 9 points 183,231 classes
# (A000112) come from the candidates that pass the down-set test, labelled
# by the cell search of least_bits, in about 11 s and 245 MB in-process;
# 10 points have 2,567,284 classes, fourteen times as many.
MAX_EXHAUSTIVE_POINTS = 9

# POSET_COUNTS[K]: the posets on K points up to isomorphism (OEIS A000112),
# K = 0..MAX_EXHAUSTIVE_POINTS
POSET_COUNTS = (1, 1, 2, 5, 16, 63, 318, 2045, 16999, 183231)


def _slots(n: int) -> list:
    """The pairs (i, j), i < j, of n points in lexicographic order; bit b
    of a relation's `bits` is set when the b-th pair is related."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def least_bits(up: Sequence[int]) -> int:
    """The least `bits` (see _slots) of a strict order over its natural
    labellings (those in which every point is below only higher labels).
    up[i] is the bitmask of the points strictly above point i. Isomorphic
    orders have the same naturally labelled relations on 0..n-1, and the
    least `bits` is one of them, so two orders on n points get the same
    value exactly when they are isomorphic.

    Labels n-1, n-2, ... go in turn to points whose strict up-sets are
    already labelled. `bits` compares its highest slot first, and the
    slots of label i are the pairs (i, j), j > i: they hold the row of the
    point labelled i, one bit per higher label, the lowest label lowest.
    So the least `bits` gives each label to a point with the least row
    that the labels before allow. Two facts let it place points in groups:
    - a row is its point's strict up-set U relabelled, so the points tied
      for the least row in one labelling share U;
    - once one of them takes row R, the others take the next labels, with
      rows R<<1, R<<2, ...: every other point then placeable has another
      up-set, or one that holds U and a point of the group, so a larger
      row, whatever order the tied points take.
    The search keeps states: the placed points as cells, sets of points
    with consecutive labels whose inner order is still open, in placing
    order. A group (every unplaced point with strict up-set U, all of U
    placed) has its least row over those open orders when each cell c
    puts its |U & c| points of U at the low end of its labels. So the row
    is built cell by cell, and the state that reaches it splits every
    cell into c & ~U above c & U and appends the group as a new cell. Of
    the (state, group) pairs, those with the least row are kept, and of
    those the ones with the largest group: a group of t points gives the
    rows R, R<<1, ..., R<<(t-1), and a smaller one of s points runs out
    where the larger still gives R<<s and any other point more. Twins
    (points with the same strict up- and down-sets) share a cell, so no
    automorphism needs pruning; states that split alike are merged.
    """
    groups = {}
    for x, u in enumerate(up):
        groups[u] = groups.get(u, 0) | 1 << x
    groups = [(u, group, group.bit_count()) for u, group in groups.items()]
    bits = placed = 0
    states = {(): 0}  # cells, first placed first -> mask of their points
    while placed < len(up):
        least = None
        for cells, done in states.items():
            for u, group, size in groups:
                if group & done or u & ~done:
                    continue
                row = 0
                for c in cells:
                    row = row << c.bit_count() | (1 << (u & c).bit_count()) - 1
                if least is None or row < least or row == least and size > most:
                    least, most, kept = row, size, [(cells, done, u, group)]
                elif row == least and size == most:
                    kept.append((cells, done, u, group))
        for j in range(most):
            bits = bits << placed + j | least << j
        placed += most
        states = {}
        for cells, done, u, group in kept:
            split = []
            for c in cells:
                inside = c & u
                if inside and inside != c:
                    split += (c ^ inside, inside)
                else:
                    split.append(c)
            split.append(group)
            states[tuple(split)] = done | group
    return bits


def iter_posets_up_to_iso(max_points: int) -> Iterator[Poset]:
    """Yield all posets on 1..max_points points, one representative per
    isomorphism class, in a deterministic order, each size's as soon as
    its classes are known: the next size is not begun until they are all
    drawn.

    The classes on K points come from those on K-1: every poset has a
    maximal point, so adding a new maximal point above each down-set of
    each (K-1)-point class reaches every K-point class. A candidate is
    dropped before it is labelled when some other maximal point of it has
    a larger down-set than the new point. No class is lost: take any
    K-point Q and a maximal point x of Q with the largest |down(x)|. Q - x
    is isomorphic to a kept (K-1)-point class R, and the candidate that R
    gets from the down-set matching down(x) - {x} is isomorphic to Q, with
    the new point at x, so it passes. The new point lies below nothing, so
    the other maximal points keep their down-sets from the parent; a
    largest down-set of a poset is a maximal point's, so the test is one
    comparison with the parent's largest strict down-set (if that point is
    below the new one, the new one's is larger still).

    Each kept candidate is keyed by its least `bits` (see least_bits),
    which is the same for two candidates exactly when they are isomorphic,
    and one member of each class is kept to extend. The representative of
    a class is its natural labelling with that least `bits`, built straight
    from them: they list every pair of a strict order inside the index
    order, so there is nothing to close. Within each size classes come in
    the order of their representatives.
    """
    classes = {least_bits(()): ()}
    for n in range(1, max_points + 1):
        parents, classes = classes.values(), {}
        top = 1 << (n - 1)
        full = top - 1
        for up in parents:
            # the parent's largest strict down-set
            widest = max((sum(u >> j & 1 for u in up) for j in range(n - 1)), default=0)
            # n-1 points have at most 2^(n-1) = top upsets
            reflexive = [u | 1 << i for i, u in enumerate(up)]
            for upset in upsets_of(reflexive, top):
                down = full ^ upset
                if down.bit_count() < widest:
                    continue
                child = [u | top if down >> i & 1 else u for i, u in enumerate(up)]
                child.append(0)
                classes.setdefault(least_bits(child), child)
        slots = _slots(n)
        points = tuple(f"p{i}" for i in range(n))
        for bits in sorted(classes):
            up = [1 << i for i in range(n)]
            down = up[:]
            for b in iter_bits(bits):
                i, j = slots[b]
                up[i] |= 1 << j
                down[j] |= 1 << i
            yield Poset(points, up, down)


def all_posets_up_to_iso(max_points: int) -> list:
    """The list of iter_posets_up_to_iso(max_points)."""
    return list(iter_posets_up_to_iso(max_points))


def random_poset(rng: random.Random, n_points: int) -> Poset:
    """A random poset: coin-flip a DAG over the index order, each pair
    related with probability 0.45, and close it."""
    pairs = [
        (i, j)
        for i in range(n_points)
        for j in range(i + 1, n_points)
        if rng.random() < 0.45
    ]
    return validate([f"p{i}" for i in range(n_points)], pairs)


def random_posets(
    count: int,
    seed: int = DEFAULT_SEED,
    max_points: int = 7,
) -> list:
    """count random posets on 2..max_points points."""
    rng = random.Random(seed)
    return [random_poset(rng, rng.randint(2, max_points)) for _ in range(count)]


def _positive(item: str, text: str, what: str) -> int:
    if not re.fullmatch(r"0*[1-9][0-9]*", text):
        raise ValueError(
            f"corpus item {item!r}: {what} must be a positive integer, got {text!r}"
        )
    return int(text)


def _corpus_items(text: str) -> list:
    """Parse and check a corpus specifier (see corpus_from_spec) into one
    (poset count, build) pair per item, build() giving the item's posets;
    no poset is built."""
    items = []
    for item in text.split(","):
        item = item.strip()
        if item.startswith("exhaustive"):
            k = _positive(item, item[len("exhaustive"):], "the size")
            if k > MAX_EXHAUSTIVE_POINTS:
                raise BudgetExceeded(
                    f"corpus item {item!r}: exhaustive corpora are limited to "
                    f"{MAX_EXHAUSTIVE_POINTS} points"
                )
            count = sum(POSET_COUNTS[1 : k + 1])
            items.append((count, partial(iter_posets_up_to_iso, k)))
        elif item.startswith("random"):
            count_s, sep, seed_s = item[len("random"):].partition(":")
            count = _positive(item, count_s, "the count")
            if sep and not re.fullmatch(r"-?[0-9]+", seed_s):
                raise ValueError(
                    f"corpus item {item!r}: the seed must be an integer, got {seed_s!r}"
                )
            seed = int(seed_s) if sep else DEFAULT_SEED
            items.append((count, partial(random_posets, count, seed)))
        else:
            raise ValueError(f"unknown corpus item {item!r}")
    return items


def corpus_from_spec(text: str) -> list:
    """Parse a corpus specifier into a poset list.

    Comma-separated items: 'exhaustiveK' enumerates all posets on <= K
    points up to isomorphism, 1 <= K <= MAX_EXHAUSTIVE_POINTS; 'randomN' or
    'randomN:S' draws N >= 1 random posets on <= 7 points (seed S, else
    DEFAULT_SEED). A malformed item raises ValueError and a K
    above the limit raises BudgetExceeded, each naming the item, before
    any poset is built.
    """
    return list(SpecCorpus(text))


class SpecCorpus:
    """The posets of a corpus specifier, which is parsed, checked and
    counted when this is made; they are built each time it is iterated,
    one item after another and the exhaustive ones one poset at a time, so
    a caller can cap its work by len() before any poset is built, or as it
    goes, and holds only the posets it keeps."""

    def __init__(self, spec: str):
        self.items = _corpus_items(spec)
        self.size = sum(count for count, _ in self.items)

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        return chain.from_iterable(build() for _, build in self.items)
