"""Stage-indexed type partitions, colourings, and colouring search.

A colouring is an ordered list of upsets. Stage 0 groups points by their
membership vector across the colours; each refinement stage re-groups points
by the set of previous-stage blocks met by their up-set. The fixpoint of the
chain is the omega-type partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import PosetMismatch
from .poset import Poset, Upset, cover_walk, is_upset_mask, upset_masks, upset_tuples


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


def _normalize(sigs: Iterable) -> tuple:
    ids: dict = {}
    out = []
    for s in sigs:
        if s not in ids:
            ids[s] = len(ids)
        out.append(ids[s])
    return tuple(out)


def _initial_block_of(P: Poset, masks: Sequence[int]) -> tuple:
    if not masks:
        return (0,) * P.n
    # point i's membership vector is the i-th column of the masks' bit rows
    rows = [format(m, f"0{P.n}b")[::-1] for m in masks]
    return _normalize(zip(*rows))


def _met(P: Poset, block_of: Sequence[int]) -> list:
    """met[i] is the bitmask of the blocks that the up-set of point i meets:
    its own block joined with what its upper covers meet, walked top down."""
    met = [0] * P.n
    for i, ups in cover_walk(P):
        m = 1 << block_of[i]
        for j in ups:
            m |= met[j]
        met[i] = m
    return met


def _refine_block_of(P: Poset, block_of: Sequence[int]) -> tuple:
    return _normalize(_met(P, block_of))


def _omega_block_of(P: Poset, masks: Sequence[int]):
    """Refine to the fixpoint; returns (block_of, stabilized_at)."""
    b = _initial_block_of(P, masks)
    stage = 0
    while True:
        nb = _refine_block_of(P, b)
        if nb == b:
            return b, stage
        b = nb
        stage += 1


def omega_class_count(P: Poset, masks: Sequence[int]) -> int:
    """Number of omega-types of the colouring masks; the masks colour P
    exactly when this equals P.n."""
    block_of, _ = _omega_block_of(P, masks)
    return max(block_of) + 1


def _check_parent(P: Poset, c: Colouring) -> None:
    if c.parent != P:
        raise PosetMismatch("colouring over a different poset")


def initial_partition(P: Poset, c: Colouring) -> TypePartition:
    """Stage-0 partition: group points by membership across the colours."""
    _check_parent(P, c)
    return TypePartition(P, 0, _initial_block_of(P, c.masks))


def refine_once(t: TypePartition) -> TypePartition:
    """One refinement step; requires a finite-stage partition."""
    if t.stage is None:
        raise ValueError("cannot refine an omega partition")
    return TypePartition(t.parent, t.stage + 1, _refine_block_of(t.parent, t.block_of))


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
    block_of, stabilized = _omega_block_of(P, c.masks)
    return TypePartition(P, None, block_of, stabilized_at=stabilized)


def is_coloured(P: Poset, c: Colouring) -> bool:
    return omega_types(P, c).is_discrete


def find_k_colouring(
    P: Poset,
    k: int,
    budget_upsets: Optional[int] = None,
    budget_tuples: Optional[int] = None,
) -> Optional[Colouring]:
    """First k-tuple of upsets (canonical order) whose omega-types are
    discrete, or None when no k-colouring exists."""
    for tup in upset_tuples(upset_masks(P, budget_upsets), k, budget_tuples):
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
