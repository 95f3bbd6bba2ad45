"""Poset corpora for quantified checks: exhaustive enumeration up to
isomorphism at small sizes, and seeded random posets."""

from __future__ import annotations

import random
import re
from typing import Iterator, Sequence

from .errors import BudgetExceeded
from .poset import Poset, iter_bits, validate

DEFAULT_SEED = 2718

# Largest K accepted in an 'exhaustiveK' corpus item: 7 points take seconds,
# 8 points canonicalise 2.8M labelled orders and take minutes.
MAX_EXHAUSTIVE_POINTS = 7


def _cells(up: Sequence[int]) -> list:
    """An isomorphism-invariant ordered partition of the points of a strict
    order given as in canonical_form.

    Points are grouped into cells by (|strict up|, |strict down|), and cells
    are listed in the sorted order of that pair, so isomorphic orders get
    corresponding cells in the same order.
    """
    down = [0] * len(up)
    for i, u in enumerate(up):
        for j in iter_bits(u):
            down[j] += 1
    cells: dict = {}
    for i, u in enumerate(up):
        cells.setdefault((bin(u).count("1"), down[i]), []).append(i)
    return [cells[key] for key in sorted(cells)]


def canonical_form(up: Sequence[int]) -> int:
    """A complete isomorphism invariant of a strict order.

    up[i] is the bitmask of the points strictly above point i. Points are
    placed at positions 0..n-1, each invariant cell (see _cells) onto its
    own block of positions. Cells come in ascending |strict up| order, so
    no earlier position lies below a point being placed: its row records
    which earlier positions lie above it, and the form is the least
    concatenation of rows over all such placements. A placement is
    extended only while its rows so far are the least, so the search
    branches only where placements tie. Two strict orders get the same form
    exactly when they are isomorphic.
    """
    n = len(up)
    form = 0
    placings = [()]
    for cell in _cells(up):
        for _ in cell:
            least, kept = None, []
            for placed in placings:
                for x in cell:
                    if x in placed:
                        continue
                    ux = up[x]
                    row = 0
                    bit = 1
                    for y in placed:
                        if ux >> y & 1:
                            row |= bit
                        bit <<= 1
                    if least is None or row < least:
                        least, kept = row, []
                    if row == least:
                        kept.append(placed + (x,))
            form = form << n | least
            placings = kept
    return form


def _slots(n: int) -> list:
    """The pairs (i, j), i < j, of n points in lexicographic order; bit b
    of a relation's `bits` is set when the b-th pair is related."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _natural_orders(n: int) -> Iterator[tuple]:
    """Yield (bits, up) for every strict order on n points that is
    contained in the index order, with up its strict up-set masks.

    Points are added in index order; each new point is maximal so far and
    its strict down-set is any down-set of the points before it.
    """
    slot = {pair: 1 << b for b, pair in enumerate(_slots(n))}

    def extend(k: int, up: tuple, down: tuple, bits: int):
        if k == n:
            yield bits, up
            return
        # the down-sets of points 0..k-1, each with the bits of its pairs
        # below the new point k
        downsets = [(0, 0)]
        for i in range(k):
            below = down[i]
            downsets += [
                (d | 1 << i, b | slot[i, k]) for d, b in downsets if below & ~d == 0
            ]
        top = 1 << k
        for d, b in downsets:
            up_k = tuple(u | top if d >> i & 1 else u for i, u in enumerate(up))
            yield from extend(k + 1, up_k + (0,), down + (d,), bits | b)

    yield from extend(0, (), (), 0)


def all_posets_up_to_iso(max_points: int) -> list:
    """All posets on 1..max_points points, one representative per
    isomorphism class, in a deterministic order.

    Every finite poset admits a linear extension, so the strict orders
    contained in the index order cover every class. Within each size the
    representative of a class is its order with the least `bits` (see
    _slots), and classes come in the order of their representatives.
    """
    out = []
    for n in range(1, max_points + 1):
        least = {}
        for bits, up in _natural_orders(n):
            form = canonical_form(up)
            if form not in least or bits < least[form]:
                least[form] = bits
        slots = _slots(n)
        points = [f"p{i}" for i in range(n)]
        for bits in sorted(least.values()):
            out.append(validate(points, [slots[b] for b in iter_bits(bits)]))
    return out


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


def corpus_from_spec(text: str) -> list:
    """Parse a corpus specifier into a poset list.

    Comma-separated items: 'exhaustiveK' enumerates all posets on <= K
    points up to isomorphism, 1 <= K <= MAX_EXHAUSTIVE_POINTS; 'randomN' or
    'randomN:S' draws N >= 1 random posets on <= 7 points (seed S, else
    DEFAULT_SEED). A malformed item raises ValueError and a K
    above the limit raises BudgetExceeded, each naming the item.
    """
    posets = []
    for item in text.split(","):
        item = item.strip()
        if item.startswith("exhaustive"):
            k = _positive(item, item[len("exhaustive"):], "the size")
            if k > MAX_EXHAUSTIVE_POINTS:
                raise BudgetExceeded(
                    f"corpus item {item!r}: exhaustive corpora are limited to "
                    f"{MAX_EXHAUSTIVE_POINTS} points"
                )
            posets.extend(all_posets_up_to_iso(k))
        elif item.startswith("random"):
            count_s, sep, seed_s = item[len("random"):].partition(":")
            count = _positive(item, count_s, "the count")
            if sep and not re.fullmatch(r"-?[0-9]+", seed_s):
                raise ValueError(
                    f"corpus item {item!r}: the seed must be an integer, got {seed_s!r}"
                )
            posets.extend(random_posets(count, int(seed_s) if sep else DEFAULT_SEED))
        else:
            raise ValueError(f"unknown corpus item {item!r}")
    return posets
