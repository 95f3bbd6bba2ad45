"""Stage-indexed type partitions, colourings, and colouring search.

A colouring is an ordered tuple of upset masks. Stage 0 groups points by their
membership vector across the colours; each refinement stage re-groups points
by the set of previous-stage blocks met by their up-set. The fixpoint of the
chain is the omega-type partition, held as a list of point masks, one per block.
"""

from __future__ import annotations

import random
from collections import Counter
from functools import cache
from itertools import groupby, islice
from math import factorial, prod
from operator import eq
from typing import Iterable, Iterator, Optional, Sequence

from .poset import Poset, down_closure_of, upset_masks, upset_multisets


def _split(blocks: list, cuts: Iterable[int]) -> tuple:
    """(blocks, pieces): each block (a point mask) split in two by each cut
    that holds part of it, and every piece a split made, in order."""
    pieces = []
    for d in cuts:
        out = []
        for b in blocks:
            a = b & d
            if a and a != b:
                out += (a, b ^ a)
                pieces += out[-2:]
            else:
                out.append(b)
        blocks = out
    return blocks, pieces


# perfbench/tracing.py wraps _refine_block_of and _omega_block_of by these names
def _refine_block_of(P: Poset, blocks: list, fresh: list, downs: dict) -> tuple:
    """One stage: (blocks, pieces), blocks cut by the down-closures of the
    fresh pieces only, each read from the memo downs or formed there.

    Every other block's down-closure was cut by at an earlier stage (in a
    walk, its parent's), so it is a union of blocks. A piece split again by
    the stage that made it still gives a cut, the union of its sub-pieces'
    cuts, which the same step makes. So each stage and the fixpoint equal,
    as sets, the stages cut by every block's down-closure."""
    close, cuts = down_closure_of(P), []
    for b in fresh:
        d = downs.get(b)
        if d is None:
            downs[b] = d = close(b)
        cuts.append(d)
    return _split(blocks, cuts)


def _stages(P: Poset, masks: Iterable[int], downs: dict):
    """Yield stage 0, the points split by membership in each colour of
    masks, its blocks all fresh, and the stages after it up to and including
    the first that refines to itself, the omega fixpoint; downs then holds
    every final block's down-closure."""
    blocks = fresh = _split([P.full_mask], masks)[0]
    while fresh:
        yield blocks
        blocks, fresh = _refine_block_of(P, blocks, fresh, downs)


def _omega_block_of(P: Poset, masks: Sequence[int]):
    """Refine to the fixpoint: (blocks, stabilized_at, downs), downs[b] the
    down-closure of block b."""
    downs: dict = {}
    *before, blocks = _stages(P, masks, downs)
    return blocks, len(before), downs


def omega_walk(P: Poset, tuples: Iterable[tuple]):
    """Yield (tup, blocks, downs) for each tuple, drawn one at a time: the
    omega-types of tup, and downs[b] the down-closure of block b, valid
    until the next tuple is drawn. Omega of G plus g is the fixpoint of
    omega of G split by g, refined from the pieces g made, so the walk
    keeps the partitions of the last tuple's prefixes and starts from the
    longest it shares with the next. downs memoises the down-closures formed
    since the first generator changed, when it was re-seeded from the root."""
    blocks, _, root = _omega_block_of(P, ())
    stack, last = [blocks], ()
    for tup in tuples:
        shared = 0
        for a, b in zip(last, tup):
            if a != b:
                break
            shared += 1
        del stack[shared + 1:]
        if not shared:
            downs = dict(root)
        for g in tup[shared:]:
            blocks, fresh = _split(stack[-1], (g,))
            while fresh:
                blocks, fresh = _refine_block_of(P, blocks, fresh, downs)
            stack.append(blocks)
        last = tup
        yield tup, stack[-1], downs


def omega_class_count(P: Poset, masks: Sequence[int]) -> int:
    """The number of omega-types; the masks colour P exactly when it is P.n."""
    return len(_omega_block_of(P, masks)[0])


def stage_types(P: Poset, masks: Sequence[int], stage: int) -> list:
    """The blocks of the stage-n partition for n = stage; past the omega
    fixpoint every stage repeats it."""
    if stage < 0:
        raise ValueError("stage must be >= 0")
    *_, blocks = islice(_stages(P, masks, {}), stage + 1)
    return blocks


def random_tuples(pool, k: int, count: int, seed: Optional[int]) -> Iterator[tuple]:
    """Yield count seeded random k-tuples drawn from pool with replacement,
    each only when it is asked for.

    Each index is rng.randrange(n) as randrange draws it, read from
    getrandbits without its call layers: n.bit_length() bits, drawn again
    while they are n or more. The stream and the generator's final state
    are randrange's; an empty pool raises randrange's ValueError."""
    getrandbits, n = random.Random(seed).getrandbits, len(pool)
    if not n and k and count:
        raise ValueError("empty range for randrange()")
    bits = n.bit_length()
    for _ in range(count):
        tup = []
        for _ in range(k):
            r = getrandbits(bits)
            while r >= n:
                r = getrandbits(bits)
            tup.append(pool[r])
        yield tuple(tup)


def multiset_weight(pattern: bytes) -> int:
    """The k!/prod(c_i!) orderings of an ascending k-multiset whose k - 1
    neighbour pairs are equal where pattern is true: the items repeat only
    in runs, and a run of r equal pairs is one item c = r + 1 times."""
    return factorial(len(pattern) + 1) // prod(
        factorial(len(list(run)) + 1) for equal, run in groupby(pattern) if equal
    )


def colour_scan(P: Poset, pool, k: int, samples: Optional[int] = None,
                seed: Optional[int] = None, budget: Optional[int] = None):
    """Yield (colours, weight, blocks, downs) along omega_walk, downs valid
    until the next tuple is drawn, for sets of k colours from pool weighted
    by the k-tuples each stands for (the omega-types depend only on the set
    of colours): every ascending multiset, capped by budget, with its
    k!/prod(c_i!) orderings memoised per pattern of equal neighbours, or,
    with samples, the sorted sets of that many seeded draws with their counts."""
    if samples is None:
        sets, memo = upset_multisets(pool, k, budget), cache(multiset_weight)

        def weight(tup: tuple) -> int:
            return memo(bytes(map(eq, tup, tup[1:])))
    else:
        draws = Counter(
            tuple(sorted(set(tup))) for tup in random_tuples(pool, k, samples, seed)
        )
        sets, weight = sorted(draws), draws.__getitem__
    for tup, blocks, downs in omega_walk(P, sets):
        yield tup, weight(tup), blocks, downs


def find_k_colouring(
    P: Poset,
    k: int,
    budget_upsets: Optional[int] = None,
    budget_tuples: Optional[int] = None,
) -> Optional[tuple]:
    """First k-tuple of upsets (canonical order) whose omega-types are
    discrete, or None when no k-colouring exists; colour_scan walks the
    multisets."""
    pool = upset_masks(P, budget_upsets)
    for tup, _, blocks, _ in colour_scan(P, pool, k, budget=budget_tuples):
        if len(blocks) == P.n:
            return tup
    return None
