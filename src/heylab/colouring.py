"""Stage-indexed type partitions, colourings, and colouring search.

A colouring is an ordered list of upsets. Stage 0 groups points by their
membership vector across the colours; each refinement stage re-groups points
by the set of previous-stage blocks met by their up-set. The fixpoint of the
chain is the omega-type partition, held as a list of point masks, one per block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import PosetMismatch
from .poset import (Poset, Upset, down_closure_mask, is_upset_mask, upset_masks,
                    upset_multisets)


@dataclass(frozen=True)
class Colouring:
    """An ordered list of k upsets over one poset; k = 0 is allowed."""

    parent: Poset
    colours: tuple

    def __post_init__(self):
        for c in self.colours:
            if c.parent != self.parent:
                raise PosetMismatch("colour over a different poset")
            if not is_upset_mask(self.parent, c.mask):
                raise ValueError("colour is not up-closed")

    @classmethod
    def from_masks(cls, parent: Poset, masks: Iterable[int]) -> "Colouring":
        return cls(parent, tuple(Upset(parent, m) for m in masks))

    @property
    def masks(self) -> tuple:
        return tuple(c.mask for c in self.colours)

    @property
    def k(self) -> int:
        return len(self.colours)


@dataclass(frozen=True)
class TypePartition:
    """A partition of the points at some refinement stage.

    stage is the refinement stage, or None for the omega fixpoint;
    stabilized_at (omega only) is the least stage whose refinement is itself.
    block_of[i] is the block id of point i; ids are normalized by first
    occurrence in point order.
    """

    parent: Poset
    stage: Optional[int]
    block_of: tuple
    stabilized_at: Optional[int] = None

    @property
    def blocks(self) -> tuple:
        out = [[] for _ in range(self.n_blocks)]
        for i, b in enumerate(self.block_of):
            out[b].append(i)
        return tuple(tuple(b) for b in out)

    @property
    def n_blocks(self) -> int:
        return max(self.block_of) + 1 if self.block_of else 0

    @property
    def is_discrete(self) -> bool:
        return self.n_blocks == len(self.block_of)

    def to_json(self) -> dict:
        return {
            "stage": "omega" if self.stage is None else self.stage,
            "blocks": [list(b) for b in self.blocks],
            "stabilized_at": self.stabilized_at,
        }


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
def _refine_block_of(P: Poset, blocks: list) -> list:
    """One stage: points whose up-sets meet the same blocks stay together."""
    return _split(blocks, [down_closure_mask(P, c) for c in blocks])


def _omega_block_of(P: Poset, masks: Sequence[int]):
    """Refine to the fixpoint: (blocks, stabilized_at, downs), downs[b] the
    down-closure of block b. A stage is split already by the down-closures
    of the blocks before it, so it splits by those of its new blocks only."""
    blocks = new = _initial_blocks(P, masks)
    stage, downs = 0, {}
    while True:
        cuts = [down_closure_mask(P, c) for c in new]
        downs.update(zip(new, cuts))
        nxt = _split(blocks, cuts)
        if len(nxt) == len(blocks):
            return blocks, stage, downs
        new = [b for b in nxt if b not in downs]
        blocks, stage = nxt, stage + 1


def _block_of(P: Poset, blocks: Iterable[int]) -> tuple:
    """Block ids per point, the blocks numbered by their lowest point."""
    ids = sorted(blocks, key=lambda b: b & -b)
    return tuple(next(k for k, b in enumerate(ids) if b >> i & 1) for i in range(P.n))


def omega_class_count(P: Poset, masks: Sequence[int]) -> int:
    """The number of omega-types; the masks colour P exactly when it is P.n."""
    return len(_omega_block_of(P, masks)[0])


def _check_parent(P: Poset, c: Colouring) -> None:
    if c.parent != P:
        raise PosetMismatch("colouring over a different poset")


def initial_partition(P: Poset, c: Colouring) -> TypePartition:
    """Stage-0 partition: group points by membership across the colours."""
    _check_parent(P, c)
    return TypePartition(P, 0, _block_of(P, _initial_blocks(P, c.masks)))


def refine_once(t: TypePartition) -> TypePartition:
    """One refinement step; requires a finite-stage partition."""
    if t.stage is None:
        raise ValueError("cannot refine an omega partition")
    P, blocks = t.parent, [sum(1 << i for i in b) for b in t.blocks]
    return TypePartition(P, t.stage + 1, _block_of(P, _refine_block_of(P, blocks)))


def stage_types(P: Poset, c: Colouring, stage: int) -> TypePartition:
    """The stage-n partition for n = stage. A round that changes nothing has
    reached the omega fixpoint, which every later stage repeats, so the
    refinement stops there."""
    if stage < 0:
        raise ValueError("stage must be >= 0")
    t = initial_partition(P, c)
    while t.stage < stage:
        nxt = refine_once(t)
        if nxt.block_of == t.block_of:
            return TypePartition(P, stage, t.block_of)
        t = nxt
    return t


def omega_types(P: Poset, c: Colouring) -> TypePartition:
    _check_parent(P, c)
    blocks, stabilized, _ = _omega_block_of(P, c.masks)
    return TypePartition(P, None, _block_of(P, blocks), stabilized_at=stabilized)


def find_k_colouring(
    P: Poset,
    k: int,
    budget_upsets: Optional[int] = None,
    budget_tuples: Optional[int] = None,
) -> Optional[Colouring]:
    """First k-tuple of upsets (canonical order) whose omega-types are
    discrete, or None when no k-colouring exists. The types depend only on
    the set of colours, so the search walks multisets."""
    for tup in upset_multisets(upset_masks(P, budget_upsets), k, budget_tuples):
        if omega_class_count(P, tup) == P.n:
            return Colouring.from_masks(P, tup)
    return None


def min_colours(
    P: Poset,
    budget_upsets: Optional[int] = None,
    budget_tuples: Optional[int] = None,
) -> int:
    """Least k admitting a k-colouring; at most |P| (principal upsets)."""
    for k in range(P.n + 1):
        if find_k_colouring(P, k, budget_upsets, budget_tuples) is not None:
            return k
    raise AssertionError("all principal upsets must colour the poset")
