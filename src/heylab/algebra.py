"""The Heyting algebra of upsets of a finite poset.

Upsets are point masks: meet and join are & and |, and imp_mask computes
the implication u -> v as the complement of the down-closure of u \\ v, read
by one table lookup per 8-point slice from the poset's cached kernel
(poset.down_closure_of).
Operation-table form (FiniteHeytingAlgebra) lets products and abstract
closures work without the poset.
"""

from __future__ import annotations

from typing import Optional

from .errors import InvalidAlgebra
from .poset import (
    Poset,
    check_budget,
    check_tuple_budget,
    down_closure_of,
    iter_bits,
    upset_masks,
)


def imp_mask(P: Poset, u: int, v: int) -> int:
    """Heyting implication on masks: the complement of the down-closure of
    u \\ v, one table lookup per 8-point slice of u \\ v (no point loop)."""
    return P.full_mask & ~down_closure_of(P)(u & ~v)


class FiniteHeytingAlgebra:
    """A finite Heyting algebra in operation-table form.

    elements holds one hashable label per element (sorted point-index tuples
    for upset algebras, label pairs for products); the tables map element
    indices to element indices. The constructor trusts its arguments.
    """

    __slots__ = ("elements", "meet", "join", "imp", "bottom", "top")

    def __init__(self, elements, meet, join, imp, bottom: int, top: int):
        self.elements, self.meet, self.join, self.imp = elements, meet, join, imp
        self.bottom, self.top = bottom, top

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteHeytingAlgebra):
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self.__slots__)

    @property
    def size(self) -> int:
        return len(self.elements)

    def leq(self, a: int, b: int) -> bool:
        return self.meet[a][b] == a

    def to_json(self) -> dict:
        def as_lists(label):
            if isinstance(label, tuple):
                return [as_lists(x) for x in label]
            return label

        return {
            "size": self.size,
            "elements": [as_lists(e) for e in self.elements],
            "meet": [list(r) for r in self.meet],
            "join": [list(r) for r in self.join],
            "imp": [list(r) for r in self.imp],
            "bottom": self.bottom,
            "top": self.top,
        }


def check_heyting_laws(A: FiniteHeytingAlgebra, budget: Optional[int] = None) -> None:
    """Raise InvalidAlgebra unless the tables form a Heyting algebra: the
    order a <= b iff meet[a][b] == a is a partial order, meet and join are
    its glb and lub, bottom and top are extremal, and c <= imp[a][b] iff
    meet[c][a] <= b. Its size**3 element triples count against the tuple
    budget."""
    n = A.size
    check_tuple_budget(n ** 3, budget)
    # down[a] and up[a]: bitmasks of the elements below and above a
    down = [sum(1 << c for c in range(n) if A.meet[c][a] == c) for a in range(n)]
    up = [sum(1 << c for c in range(n) if A.meet[a][c] == a) for a in range(n)]
    full = (1 << n) - 1
    for a in range(n):
        # reflexive and antisymmetric at a, and what is below a is below it
        if down[a] & up[a] != 1 << a or any(
            down[b] & ~down[a] for b in range(n) if down[a] >> b & 1
        ):
            raise InvalidAlgebra(
                f"the order read off meet is not a partial order at element {a}"
            )
    if up[A.bottom] != full or down[A.top] != full:
        raise InvalidAlgebra("bottom and top are not the least and greatest elements")
    for a in range(n):
        for b in range(n):
            if down[a] & down[b] != down[A.meet[a][b]]:
                raise InvalidAlgebra(f"meet[{a}][{b}] is not the greatest lower bound")
            if up[a] & up[b] != up[A.join[a][b]]:
                raise InvalidAlgebra(f"join[{a}][{b}] is not the least upper bound")
            residual = sum(1 << c for c in range(n) if down[b] >> A.meet[c][a] & 1)
            if residual != down[A.imp[a][b]]:
                raise InvalidAlgebra(f"imp[{a}][{b}] is not the residual of {b} by {a}")


def algebra_from_json(data: dict, budget: Optional[int] = None) -> FiniteHeytingAlgebra:
    """Rebuild an exported algebra. Raises InvalidAlgebra unless size is the
    number of elements, every table is square over the elements, every
    table entry, bottom and top is an element index and the tables satisfy
    check_heyting_laws, whose work the budget caps."""

    def as_tuples(label):
        if isinstance(label, list):
            return tuple(as_tuples(x) for x in label)
        return label

    if not isinstance(data["elements"], list):
        raise InvalidAlgebra("elements must be a list")
    elements = tuple(as_tuples(e) for e in data["elements"])
    size = len(elements)
    if type(data["size"]) is not int or data["size"] != size:
        raise InvalidAlgebra(f"size {data['size']!r} does not match the {size} elements")

    def index(x, what: str) -> int:
        if type(x) is not int or not 0 <= x < size:
            raise InvalidAlgebra(f"{what} {x!r} is not an element index below {size}")
        return x

    def table(name: str) -> tuple:
        rows = data[name]
        if not isinstance(rows, list) or len(rows) != size or any(
            not isinstance(r, list) or len(r) != size for r in rows
        ):
            raise InvalidAlgebra(f"the {name} table is not {size} x {size}")
        return tuple(tuple(index(x, f"{name} entry") for x in r) for r in rows)

    A = FiniteHeytingAlgebra(
        elements=elements,
        meet=table("meet"),
        join=table("join"),
        imp=table("imp"),
        bottom=index(data["bottom"], "bottom"),
        top=index(data["top"], "top"),
    )
    check_heyting_laws(A, budget)
    return A


def algebra_of(P: Poset, budget: Optional[int] = None) -> FiniteHeytingAlgebra:
    """The full Heyting algebra Up(P) with populated operation tables.

    Elements are ordered lexicographically on the bit-vector, so the table
    layout is reproducible across runs. The budget caps the upsets, and
    then the size**2 entries of each operation table, checked before any
    table is built.
    """
    masks = upset_masks(P, budget)
    check_budget(len(masks) ** 2, budget, "entries per algebra table")
    idx = {m: i for i, m in enumerate(masks)}
    # imp_mask's kernel, read once per table rather than called per entry
    close, full = down_closure_of(P), P.full_mask
    meet_t = tuple(tuple([idx[a & b] for b in masks]) for a in masks)
    join_t = tuple(tuple([idx[a | b] for b in masks]) for a in masks)
    imp_t = tuple(
        tuple([idx[full & ~close(a & ~b)] for b in masks]) for a in masks
    )
    elements = tuple(tuple(iter_bits(m)) for m in masks)
    return FiniteHeytingAlgebra(
        elements=elements,
        meet=meet_t,
        join=join_t,
        imp=imp_t,
        bottom=idx[0],
        top=idx[P.full_mask],
    )
