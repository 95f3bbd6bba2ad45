"""Implication-rank-stratified generated subalgebras.

The closure of a generator set G is computed in strata: S_0 is the
meet/join closure of G with the constants, and each S_{n+1} is the
meet/join closure of S_n together with all implications between S_n
elements. Implication is the only operation that raises rank, so the first
stratum an upset appears in is its minimal implication rank. Each element
gets a witness term, stored as a DAG keyed by element mask.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import Iterable, Optional, Sequence

from .algebra import imp_mask
from .colouring import _omega_block_of, _split, _stages, omega_class_count
from .poset import (
    Poset,
    budget_cap,
    closed_unions,
    down_closure_of,
    over_budget,
    upset_masks,
)

# witness terms: ('0',) | ('1',) | ('g', i) | (op, left_mask, right_mask)
_OP_TEXT = {"and": "and", "or": "or", "imp": "->"}


class RankedAlgebra:
    """The generated subalgebra of Up(P), stratified by implication rank."""

    __slots__ = ("parent", "strata", "ranks", "witnesses")

    def __init__(self, parent: Poset, strata: tuple, ranks: dict, witnesses: dict):
        self.parent, self.strata = parent, strata
        self.ranks, self.witnesses = ranks, witnesses

    @property
    def elements(self) -> frozenset:
        return self.strata[-1]

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


def _lattice_close(witnesses: dict, cap: int, consts, old=frozenset()) -> list:
    """Close the table witnesses, whose keys are its elements, the constants
    consts among them, under meet and join in place; return the others
    ascending. A pair with a constant gives nothing new (0 & a = 0, 0 | a =
    a, 1 & a = a, 1 | a = 1), so the constants are paired with nothing. old,
    when given, is a lattice-closed subset of the table: a pair of its
    elements gives nothing new, so an element of old is paired only with the
    fresh elements before it, and a fresh one with every element before it."""
    if len(witnesses) > cap:
        raise over_budget(len(witnesses), cap, "upsets")
    elems = sorted(witnesses.keys() - consts)
    fresh = []
    for i, a in enumerate(elems):
        if a in old:
            partners = fresh
        else:
            fresh.append(a)
            partners = elems[:i]
        for b in partners:
            m = a & b
            if m not in witnesses:
                witnesses[m] = ("and", a, b)
                elems.append(m)
            m = a | b
            if m not in witnesses:
                witnesses[m] = ("or", a, b)
                elems.append(m)
        if len(witnesses) > cap:
            raise over_budget(len(witnesses), cap, "upsets")
    elems.sort()
    return elems


def generate(P: Poset, G: Iterable, budget: Optional[int] = None) -> RankedAlgebra:
    """Rank-stratified closure of the generator masks G under meet, join and
    implication, with the constants seeded at rank 0."""
    cap = budget_cap(budget)
    witnesses = {0: ("0",), P.full_mask: ("1",)}
    for i, m in enumerate(G):
        witnesses.setdefault(m, ("g", i))
    consts = {0, P.full_mask}
    elems = [0, *_lattice_close(witnesses, cap, consts)]
    strata = [frozenset(witnesses)]
    ranks = dict.fromkeys([*elems, P.full_mask], 0)
    # semi-naive rounds, each adding to the table in place: a pair of elements
    # of old, the stratum before, was formed in the round before, and its
    # implication is in the table already. 0 -> b, a -> 1 and 1 -> b give 1, 1
    # and b, so 0 and 1 are left out of the pairs, except 0 on the right: a ->
    # 0 is the complement of a. Only b a proper submask of a is paired with a:
    # a -> b = a -> (a & b), and a & b is in the table and at most b as an int,
    # so the ascending loop reaches it first and adds whatever a -> b would (a
    # & b = a gives 1; when a and a & b are both old, a -> (a & b) is in it).
    old, new = frozenset(), elems
    # imp_mask inlined: a -> b is the complement of the down-closure of
    # a \ b, which is a ^ b for b a submask of a
    close, full = down_closure_of(P), P.full_mask
    while True:
        for a in elems:  # a = 0 breaks at once
            for b in new if a in old else elems:
                if b >= a:
                    break
                if b & ~a:
                    continue
                m = full & ~close(a ^ b)
                if m not in witnesses:
                    witnesses[m] = ("imp", a, b)
        if len(witnesses) == len(strata[-1]):  # lattice-closed already
            return RankedAlgebra(P, tuple(strata), ranks, witnesses)
        old = strata[-1]
        elems = [0, *_lattice_close(witnesses, cap, consts, old)]
        strata.append(frozenset(witnesses))
        new = [m for m in elems if m not in old]
        ranks.update(dict.fromkeys(new, len(strata) - 1))


def quotient_size(P: Poset, G: Sequence, budget: Optional[int] = None) -> int:
    """|<G>| computed on the dual side, without closing G.

    By finite Esakia duality, <G> is exactly the set of upsets of P that are
    unions of omega-classes of G, so |<G>| is the number of upsets of the
    quotient P/omega_G. Each class of that quotient sees the same classes
    above it from every one of its points. The budget caps the count, as it
    caps the closure in generate().
    """
    blocks, _, downs = _omega_block_of(P, G)
    return quotient_upset_count(blocks, downs, budget)


def quotient_upset_count(
    blocks: Sequence[int], downs: dict, budget: Optional[int] = None
) -> int:
    """The number of upsets of the quotient whose classes are the omega-stable
    blocks, downs[b] the down-closure of block b; the budget caps the count.
    It counts their complements, the down-sets: each down-closure is a union
    of blocks, a lower class's is a proper submask and so a smaller int, and
    in that order a block joins the down-sets so far that hold the rest of it."""
    pairs = ((b, downs[b] & ~b) for b in sorted(blocks, key=downs.get))
    return len(closed_unions(pairs, budget_cap(budget)))


def rank_type_mismatches(
    P: Poset,
    G: Iterable,
    max_stage: int,
    budget: Optional[int] = None,
) -> list:
    """Stages n <= max_stage where the stage-n type partition differs from
    the partition induced by membership in rank-<=n generated upsets. Past
    the last stratum and past the omega fixpoint, the first stage that
    refines to itself, each partition repeats, so the two are compared in
    one pass up to the later of the two, and that last comparison stands
    for every stage after it."""
    gmasks = list(G)
    strata = generate(P, gmasks, budget).strata
    # each stratum holds the one before, so its partition is the one before
    # split by its new elements; a sequence that has run out is filled with
    # the empty set, which leaves its partition as it was
    pairs = zip_longest(strata, _stages(P, gmasks, {}), fillvalue=frozenset())
    part, before, bad, n = [P.full_mask], frozenset(), [], -1
    for n, (s, stage) in zip(range(max_stage + 1), pairs):
        part, before = _split(part, s - before)[0], s
        blocks = stage or blocks
        if set(part) != set(blocks):
            bad.append(n)
    if bad[-1:] == [n]:
        bad += range(n + 1, max_stage + 1)
    return bad


def duality_sides(P: Poset, G: Iterable, budget: Optional[int] = None) -> tuple:
    """(G generates all of Up(P), the omega-types of G are discrete); the
    budget caps both the upsets of P and the generated subalgebra."""
    gmasks = list(G)
    size = len(generate(P, gmasks, budget).elements)
    return size == len(upset_masks(P, budget)), omega_class_count(P, gmasks) == P.n
