"""Stage-indexed type partitions, colourings, and colouring search.

A colouring is an ordered tuple of upset masks. Stage 0 groups points by their
membership vector across the colours; each refinement stage re-groups points
by the set of previous-stage blocks met by their up-set. The fixpoint of the
chain is the omega-type partition, held as a list of point masks, one per block.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

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


def find_k_colouring(
    P: Poset,
    k: int,
    budget_upsets: Optional[int] = None,
    budget_tuples: Optional[int] = None,
) -> Optional[tuple]:
    """First k-tuple of upsets (canonical order) whose omega-types are
    discrete, or None when no k-colouring exists. The types depend only on
    the set of colours, so the search walks multisets."""
    tuples = upset_multisets(upset_masks(P, budget_upsets), k, budget_tuples)
    for tup, blocks, _ in omega_walk(P, tuples):
        if len(blocks) == P.n:
            return tup
    return None
