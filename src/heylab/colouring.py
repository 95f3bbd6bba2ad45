"""Stage-indexed type partitions, colourings, and colouring search.

A colouring is an ordered tuple of upset masks. Stage 0 groups points by their
membership vector across the colours; each refinement stage re-groups points
by the set of previous-stage blocks met by their up-set. The fixpoint of the
chain is the omega-type partition, held as a list of point masks, one per block.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import groupby
from math import factorial, prod
from operator import eq
from typing import Iterable, Iterator, Optional, Sequence

from .poset import Poset, down_closure_of, upset_masks, upset_multisets


def _split(blocks: list, cuts: Iterable[int]) -> list:
    """Each block (a point mask) split in two by each cut that holds part of it."""
    for d in cuts:
        out = []
        for b in blocks:
            a = b & d
            if a and a != b:
                out += (a, b ^ a)
            else:
                out.append(b)
        blocks = out
    return blocks


def _initial_blocks(P: Poset, masks: Iterable[int]) -> list:
    """Stage 0: the points split by membership in each colour."""
    return _split([P.full_mask], masks)


# perfbench/tracing.py wraps _refine_block_of and _omega_block_of by these names
def _refine_block_of(P: Poset, blocks: list, downs: dict) -> list:
    """One stage: blocks cut by the down-closures of those not yet in downs,
    which gain them; the cuts already in downs split blocks already."""
    close, cuts = down_closure_of(P), []
    for b in blocks:
        if b not in downs:
            downs[b] = d = close(b)
            cuts.append(d)
    return _split(blocks, cuts)


def _stages(P: Poset, blocks: list, downs: dict):
    """Yield blocks, which every cut in downs splits already, and its stages
    up to and including the first that refines to itself, the omega
    fixpoint; downs then holds the down-closure of every final block."""
    while True:
        yield blocks
        nxt = _refine_block_of(P, blocks, downs)
        if len(nxt) == len(blocks):
            return
        blocks = nxt


def _omega_block_of(P: Poset, masks: Sequence[int]):
    """Refine to the fixpoint: (blocks, stabilized_at, downs), downs[b] the
    down-closure of block b."""
    downs: dict = {}
    for stage, blocks in enumerate(_stages(P, _initial_blocks(P, masks), downs)):
        pass
    return blocks, stage, downs


def omega_walk(P: Poset, tuples: Iterable[tuple]):
    """Yield (tup, blocks, downs) for each generator tuple, in order, with
    blocks the omega-types of tup and downs[b] the down-closure of block b.

    Omega of G plus g is the fixpoint of omega of G split by g, so each
    prefix's partition is refined from its parent's. The walk keeps the
    partitions of the last tuple's prefixes and reuses the longest prefix
    it shares with the next, so ascending multisets refine each distinct
    prefix once. Tuples are drawn one at a time."""
    blocks, _, downs = _omega_block_of(P, ())
    stack, last = [(blocks, downs)], ()
    for tup in tuples:
        shared = 0
        for a, b in zip(last, tup):
            if a != b:
                break
            shared += 1
        del stack[shared + 1:]
        for g in tup[shared:]:
            blocks, downs = stack[-1]
            downs = dict(downs)  # the parent's serves its later children too
            for blocks in _stages(P, _split(blocks, (g,)), downs):
                pass
            stack.append((blocks, downs))
        last = tup
        yield (tup, *stack[-1])


def omega_class_count(P: Poset, masks: Sequence[int]) -> int:
    """The number of omega-types; the masks colour P exactly when it is P.n."""
    return len(_omega_block_of(P, masks)[0])


def stage_types(P: Poset, masks: Sequence[int], stage: int) -> list:
    """The blocks of the stage-n partition for n = stage; past the omega
    fixpoint every stage repeats it."""
    if stage < 0:
        raise ValueError("stage must be >= 0")
    for n, blocks in enumerate(_stages(P, _initial_blocks(P, masks), {})):
        if n == stage:
            break
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


def multiset_weight(pattern) -> int:
    """The k!/prod(c_i!) orderings of an ascending k-multiset whose k - 1
    neighbour pairs are equal where pattern is true: the items repeat only
    in runs, and a run of r equal pairs is one item c = r + 1 times."""
    return factorial(len(pattern) + 1) // prod(
        factorial(len(list(run)) + 1) for equal, run in groupby(pattern) if equal
    )


def colour_scan(P: Poset, pool, k: int, samples: Optional[int] = None,
                seed: Optional[int] = None, budget: Optional[int] = None):
    """Yield (colours, weight, blocks, downs) along omega_walk for sets of k
    colours from pool, each weighted by the k-tuples it stands for, since the
    omega-types depend only on the set of colours. When samples is None the
    sets are every ascending multiset, capped by budget, each weighted by its
    k!/prod(c_i!) orderings, memoised on its pattern of equal neighbours;
    otherwise they are the ascending sorted sets of samples seeded draws,
    each weighted by the number of draws of it."""
    if samples is None:
        sets = upset_multisets(pool, k, budget)
        weights: dict = {}

        def weight(tup: tuple) -> int:
            pattern = bytes(map(eq, tup, tup[1:]))
            w = weights.get(pattern)
            if w is None:
                w = weights[pattern] = multiset_weight(pattern)
            return w
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
