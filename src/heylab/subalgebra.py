"""Implication-rank-stratified generated subalgebras.

The closure of a generator set G is computed in strata: S_0 is the
meet/join closure of G with the constants, and each S_{n+1} is the
meet/join closure of S_n together with all implications between S_n
elements. Implication is the only operation that raises rank, so the first
stratum an upset appears in is its minimal implication rank. Each element
gets a witness term, stored as a DAG keyed by element mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .algebra import imp_mask
from .colouring import (
    _initial_blocks,
    _omega_block_of,
    _refine_block_of,
    omega_class_count,
)
from .poset import (
    DEFAULT_UPSET_BUDGET,
    Poset,
    over_budget,
    upset_masks,
    upsets_of,
)

# witness terms: ('0',) | ('1',) | ('g', i) | (op, left_mask, right_mask)
_OP_TEXT = {"and": "and", "or": "or", "imp": "->"}


@dataclass
class RankedAlgebra:
    """The generated subalgebra of Up(P), stratified by implication rank."""

    parent: Poset
    strata: tuple
    ranks: dict
    witnesses: dict

    @property
    def elements(self) -> frozenset:
        return self.strata[-1]

    def rank_of(self, mask: int) -> Optional[int]:
        """Minimal implication rank of mask; None when it is not generated."""
        return self.ranks.get(mask)

    def witness_text(self, mask: int) -> str:
        """Prefix-notation witness term evaluating to mask over the generators."""
        return self._fold(
            mask,
            lambda m, t: f"g{t[1]}" if t[0] == "g" else t[0],
            lambda op, a, b: f"({_OP_TEXT[op]} {a} {b})",
        )

    def eval_witness(self, mask: int) -> int:
        """Re-evaluate the witness term of mask (soundness check hook)."""
        ops = {
            "and": int.__and__,
            "or": int.__or__,
            "imp": lambda a, b: imp_mask(self.parent, a, b),
        }
        return self._fold(
            mask,
            lambda m, t: {"0": 0, "1": self.parent.full_mask, "g": m}[t[0]],
            lambda op, a, b: ops[op](a, b),
        )

    def _fold(self, mask: int, leaf, node):
        """The value of the witness term of mask, where a constant or
        generator term t of element m has value leaf(m, t) and (op, a, b)
        has node(op, value of a, value of b). The terms share subterms;
        each one is valued once per call, without recursion."""
        value: dict = {}
        todo = [mask]
        while todo:
            m = todo.pop()
            if m in value:
                continue
            t = self.witnesses[m]
            if len(t) < 3:
                value[m] = leaf(m, t)
            elif t[1] not in value or t[2] not in value:
                todo += [m, t[1], t[2]]
            else:
                value[m] = node(t[0], value[t[1]], value[t[2]])
        return value[mask]


def _lattice_close(seeds, witnesses: dict, cap: int, old=frozenset()) -> set:
    """The meet/join closure of seeds. old, when given, is a lattice-closed
    subset of them: a pair of its elements gives nothing new, so an element
    of old is paired only with the fresh elements before it."""
    elems = sorted(set(seeds))
    seen = set(elems)
    fresh = []
    for i, a in enumerate(elems):
        if a in old:
            partners = fresh
        else:
            fresh.append(a)
            partners = elems[: i + 1]
        for b in partners:
            m = a & b
            if m not in seen:
                seen.add(m)
                elems.append(m)
                witnesses.setdefault(m, ("and", a, b))
            m = a | b
            if m not in seen:
                seen.add(m)
                elems.append(m)
                witnesses.setdefault(m, ("or", a, b))
        if len(seen) > cap:
            raise over_budget(len(seen), cap, "upsets")
    return seen


def generate(P: Poset, G: Iterable, budget: Optional[int] = None) -> RankedAlgebra:
    """Rank-stratified closure of the generator masks G under meet, join and
    implication, with the constants seeded at rank 0."""
    cap = DEFAULT_UPSET_BUDGET if budget is None else budget
    gmasks = list(G)
    witnesses = {0: ("0",), P.full_mask: ("1",)}
    for i, m in enumerate(gmasks):
        witnesses.setdefault(m, ("g", i))
    seeds = set(gmasks) | {0, P.full_mask}
    cur = _lattice_close(seeds, witnesses, cap)
    strata = [frozenset(cur)]
    ranks = {m: 0 for m in sorted(cur)}
    # semi-naive rounds: a pair of elements of the previous stratum was
    # formed in the previous round, and its implication is already in cur
    prev: set = set()
    while True:
        cand = set(cur)
        cur_sorted = sorted(cur)
        new_sorted = sorted(cur - prev)
        for a in cur_sorted:
            for b in new_sorted if a in prev else cur_sorted:
                m = imp_mask(P, a, b)
                if m not in cand:
                    cand.add(m)
                    witnesses.setdefault(m, ("imp", a, b))
        nxt = _lattice_close(cand, witnesses, cap, cur)
        if nxt == cur:
            return RankedAlgebra(P, tuple(strata), ranks, witnesses)
        strata.append(frozenset(nxt))
        for m in sorted(nxt - cur):
            ranks[m] = len(strata) - 1
        prev, cur = cur, nxt


def quotient_size(P: Poset, G: Sequence, budget: Optional[int] = None) -> int:
    """|<G>| computed on the dual side, without closing G.

    By finite Esakia duality, <G> is exactly the set of upsets of P that are
    unions of omega-classes of G, so |<G>| is the number of upsets of the
    quotient P/omega_G. Each class of that quotient sees the same classes
    above it from every one of its points. The budget caps the count, as it
    caps the closure in generate().
    """
    cap = DEFAULT_UPSET_BUDGET if budget is None else budget
    blocks, _, downs = _omega_block_of(P, G)
    # class c lies above class b when the down-closure of c meets b
    up = [0] * len(blocks)
    for c, d in enumerate(map(downs.get, blocks)):
        for b, B in enumerate(blocks):
            if B & d:
                up[b] |= 1 << c
    return len(upsets_of(up, cap))


def rank_type_mismatches(
    P: Poset,
    G: Iterable,
    max_stage: int,
    budget: Optional[int] = None,
) -> list:
    """Stages n <= max_stage where the stage-n type partition differs from
    the partition induced by membership in rank-<=n generated upsets. A
    refinement that changes nothing is the fixpoint, which every later
    stage repeats; past it and the last stratum, every stage repeats the
    last comparison, so the walk stops there."""
    gmasks = list(G)
    ra = generate(P, gmasks, budget)
    rank_blocks = [
        set(_initial_blocks(P, s)) for s in ra.strata[: max_stage + 1]
    ]
    bad = []
    blocks = _initial_blocks(P, gmasks)
    stable = False
    for n in range(max_stage + 1):
        if n > 0 and not stable:
            blocks, before = _refine_block_of(P, blocks), blocks
            stable = len(blocks) == len(before)
        if rank_blocks[min(n, len(rank_blocks) - 1)] != set(blocks):
            bad.append(n)
        if stable and n >= len(rank_blocks) - 1:
            if bad[-1:] == [n]:
                bad.extend(range(n + 1, max_stage + 1))
            break
    return bad


def duality_sides(P: Poset, G: Iterable, budget: Optional[int] = None) -> tuple:
    """(G generates all of Up(P), the omega-types of G are discrete); the
    budget caps both the upsets of P and the generated subalgebra."""
    gmasks = list(G)
    size = len(generate(P, gmasks, budget).elements)
    return size == len(upset_masks(P, budget)), omega_class_count(P, gmasks) == P.n
