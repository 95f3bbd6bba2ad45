"""Subalgebra closure inside abstract finite algebras, products, and the
strict-generation report for ladder truncations."""

from __future__ import annotations

from itertools import combinations_with_replacement
from typing import Iterable, Optional, Sequence

from .algebra import FiniteHeytingAlgebra
from .colouring import omega_walk
from .errors import ForeignElement
from .ladder import LadderSpec, build_ladder, canonical_colouring
from .poset import (
    check_budget,
    check_multiset_budget,
    upset_lists,
    upset_masks,
)
# generate is no longer called here, but stays importable under this name:
# perfbench/probecheck.py patches heylab.variety.generate
from .subalgebra import generate  # noqa: F401
from .subalgebra import quotient_size, quotient_upset_count


def _check_elements(A: FiniteHeytingAlgebra, gens: Iterable[int]) -> list:
    gens = list(gens)
    for g in gens:
        if type(g) is not int or g < 0 or g >= A.size:
            raise ForeignElement(f"element index {g!r} not in the algebra")
    return gens


def subalgebra_closure(A: FiniteHeytingAlgebra, gens: Iterable[int]) -> frozenset:
    """Indices of the subalgebra generated by gens with 0 and 1 seeded: each
    element is paired with itself and every element before it."""
    elems = sorted(set(_check_elements(A, gens)) | {A.bottom, A.top})
    seen = set(elems)
    imp = A.imp
    for i, a in enumerate(elems):  # elems grows as it is walked
        meet_a, join_a, imp_a = A.meet[a], A.join[a], imp[a]
        for b in elems[: i + 1]:
            if (m := meet_a[b]) not in seen:
                seen.add(m)
                elems.append(m)
            if (m := join_a[b]) not in seen:
                seen.add(m)
                elems.append(m)
            if (m := imp_a[b]) not in seen:
                seen.add(m)
                elems.append(m)
            if (m := imp[b][a]) not in seen:
                seen.add(m)
                elems.append(m)
    return frozenset(seen)


def algebra_product(
    A: FiniteHeytingAlgebra,
    B: FiniteHeytingAlgebra,
    budget: Optional[int] = None,
) -> FiniteHeytingAlgebra:
    """Componentwise product; element labels are label pairs. The budget
    caps the (|A|*|B|)**2 entries of each operation table, checked before
    any table is built."""
    check_budget((A.size * B.size) ** 2, budget, "entries per product table")
    nb = B.size
    elements = tuple(
        (A.elements[i], B.elements[j]) for i in range(A.size) for j in range(nb)
    )

    def table(ta, tb):
        rows = []
        for i in range(A.size):
            for j in range(nb):
                rows.append(
                    tuple(
                        ta[i][p] * nb + tb[j][q]
                        for p in range(A.size)
                        for q in range(nb)
                    )
                )
        return tuple(rows)

    return FiniteHeytingAlgebra(
        elements=elements,
        meet=table(A.meet, B.meet),
        join=table(A.join, B.join),
        imp=table(A.imp, B.imp),
        bottom=A.bottom * nb + B.bottom,
        top=A.top * nb + B.top,
    )


def strictness_report(
    n: int,
    depths: Sequence[int],
    budget_upsets: Optional[int] = None,
    budget_tuples: Optional[int] = None,
) -> list:
    """Per-depth generation data for bottomed parameter-n ladders.

    For each depth: the full upset-algebra size, the largest subalgebra
    generated by any n upsets (scanned exhaustively at the upset level),
    and whether the canonical (n+1)-colouring generates everything. Each
    subalgebra is sized on its omega-quotient, as by quotient_size, with
    the multisets refined along omega_walk. The bottom point's class is the
    least, so c classes have at most 2**(c-1) + 1 upsets, and a quotient
    that cannot beat the largest so far is not counted. The upset budget
    caps each truncation's upsets, and so each generated subalgebra; the
    tuple budget caps the C(|Up|+n-1, n) generator multisets of a depth.
    """
    rows = []
    for spec in [LadderSpec(n, d) for d in depths]:
        P = build_ladder(spec, budget_upsets)
        masks = upset_masks(P, budget_upsets)
        check_multiset_budget(len(masks), n, budget_tuples)
        best = 0
        witness: tuple = ()
        tuples = combinations_with_replacement(masks, n)
        for tup, blocks, downs in omega_walk(P, tuples):
            if (1 << len(blocks) - 1) + 1 <= best:
                continue
            size = quotient_upset_count(blocks, downs, budget_upsets)
            if size > best:
                best, witness = size, tup
        canonical_size = quotient_size(P, canonical_colouring(n), budget_upsets)
        rows.append(
            {
                "depth": spec.depth,
                "k": n,
                "algebra_size": len(masks),
                "max_k_generated_size": best,
                "witness": upset_lists(witness),
                "canonical_generates_full": canonical_size == len(masks),
            }
        )
    return rows
