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
from typing import Iterable, Optional, Union

from .algebra import imp_mask
from .colouring import _initial_block_of, _refine_block_of, omega_class_count
from .errors import BudgetExceeded
from .poset import DEFAULT_UPSET_BUDGET, Poset, Upset, upset_masks

# witness terms: ('0',) | ('1',) | ('g', i) | (op, left_mask, right_mask)
_OP_TEXT = {"and": "and", "or": "or", "imp": "->"}


@dataclass
class RankedAlgebra:
    """The generated subalgebra of Up(P), stratified by implication rank."""

    parent: Poset
    strata: tuple
    ranks: dict
    witnesses: dict
    closed: bool

    @property
    def elements(self) -> frozenset:
        return self.strata[-1]

    def rank_of(self, U: Union[Upset, int]) -> Optional[int]:
        """Minimal implication rank of U, or None when U is not generated."""
        mask = U.mask if isinstance(U, Upset) else U
        return self.ranks.get(mask)

    def witness_text(self, U: Union[Upset, int]) -> str:
        """Prefix-notation witness term evaluating to U over the generators."""
        mask = U.mask if isinstance(U, Upset) else U
        t = self.witnesses[mask]
        if t[0] == "g":
            return f"g{t[1]}"
        if t[0] in ("0", "1"):
            return t[0]
        op, a, b = t
        return f"({_OP_TEXT[op]} {self.witness_text(a)} {self.witness_text(b)})"

    def eval_witness(self, mask: int) -> int:
        """Re-evaluate the witness term of mask (soundness check hook)."""
        t = self.witnesses[mask]
        if t[0] == "0":
            return 0
        if t[0] == "1":
            return self.parent.full_mask
        if t[0] == "g":
            return mask
        op, a, b = t
        va, vb = self.eval_witness(a), self.eval_witness(b)
        if op == "and":
            return va & vb
        if op == "or":
            return va | vb
        return imp_mask(self.parent, va, vb)


def _norm_masks(gens: Iterable) -> list:
    out = []
    for g in gens:
        out.append(g.mask if isinstance(g, Upset) else g)
    return out


def _lattice_close(P: Poset, seeds, witnesses: Optional[dict], cap: int) -> set:
    elems = sorted(set(seeds))
    seen = set(elems)
    i = 0
    while i < len(elems):
        a = elems[i]
        for j in range(i + 1):
            b = elems[j]
            m = a & b
            if m not in seen:
                seen.add(m)
                elems.append(m)
                if witnesses is not None:
                    witnesses.setdefault(m, ("and", a, b))
            m = a | b
            if m not in seen:
                seen.add(m)
                elems.append(m)
                if witnesses is not None:
                    witnesses.setdefault(m, ("or", a, b))
        if len(seen) > cap:
            raise BudgetExceeded(f"lattice closure exceeds the budget of {cap}")
        i += 1
    return seen


def lattice_closure(P: Poset, S: Iterable, budget: Optional[int] = None) -> frozenset:
    """Smallest set of upset masks containing S, 0 and 1 and closed under
    pairwise intersection and union."""
    cap = DEFAULT_UPSET_BUDGET if budget is None else budget
    seeds = set(_norm_masks(S)) | {0, P.full_mask}
    return frozenset(_lattice_close(P, seeds, None, cap))


def generate(P: Poset, G: Iterable, budget: Optional[int] = None) -> RankedAlgebra:
    """Rank-stratified closure of the generators G under meet, join and
    implication, with the constants seeded at rank 0."""
    cap = DEFAULT_UPSET_BUDGET if budget is None else budget
    gmasks = _norm_masks(G)
    witnesses = {0: ("0",), P.full_mask: ("1",)}
    for i, m in enumerate(gmasks):
        witnesses.setdefault(m, ("g", i))
    seeds = set(gmasks) | {0, P.full_mask}
    cur = _lattice_close(P, seeds, witnesses, cap)
    strata = [frozenset(cur)]
    ranks = {m: 0 for m in sorted(cur)}
    closed = False
    while not closed:
        cand = set(cur)
        cur_sorted = sorted(cur)
        for a in cur_sorted:
            for b in cur_sorted:
                m = imp_mask(P, a, b)
                if m not in cand:
                    cand.add(m)
                    witnesses.setdefault(m, ("imp", a, b))
        nxt = _lattice_close(P, cand, witnesses, cap)
        if nxt == cur:
            closed = True
        else:
            strata.append(frozenset(nxt))
            stage = len(strata) - 1
            for m in sorted(nxt - cur):
                ranks[m] = stage
            cur = nxt
    return RankedAlgebra(P, tuple(strata), ranks, witnesses, closed)


def rank_type_mismatches(
    P: Poset,
    G: Iterable,
    max_stage: int,
    budget: Optional[int] = None,
) -> list:
    """Stages n <= max_stage where the stage-n type partition differs from
    the partition induced by membership in rank-<=n generated upsets."""
    gmasks = _norm_masks(G)
    ra = generate(P, gmasks, budget)
    bad = []
    block_of = _initial_block_of(P, gmasks)
    for n in range(max_stage + 1):
        if n > 0:
            block_of = _refine_block_of(P, block_of)
        stratum = sorted(ra.strata[min(n, len(ra.strata) - 1)])
        rank_block_of = _initial_block_of(P, stratum)
        if rank_block_of != block_of:
            bad.append(n)
    return bad


def duality_sides(P: Poset, G: Iterable, budget: Optional[int] = None) -> tuple:
    """(G generates all of Up(P), the omega-types of G are discrete); the
    budget caps both the upsets of P and the generated subalgebra."""
    gmasks = _norm_masks(G)
    size = len(generate(P, gmasks, budget).elements)
    return size == len(upset_masks(P, budget)), omega_class_count(P, gmasks) == P.n


def check_duality_theorem(P: Poset, G: Iterable, budget: Optional[int] = None) -> bool:
    """G generates all of Up(P) exactly when its omega-types are discrete."""
    generates_all, coloured = duality_sides(P, G, budget)
    return generates_all == coloured
