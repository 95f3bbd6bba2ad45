"""Finite posets with bit-vector subset internals.

Points carry string names for I/O; every algorithm works on dense integer
indices, and subsets of points are packed into Python ints (bit i = point i).
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .errors import BudgetExceeded, CycleError, EmptyPoset, ForeignPoint

DEFAULT_UPSET_BUDGET = 1 << 20
DEFAULT_TUPLE_BUDGET = 1 << 20
# the seed of random corpora and of the CLI's --seed
DEFAULT_SEED = 2718


# a budget message writes a count or cap past this many bits by its power of two
EXACT_COUNT_BITS = 64


def over_budget(count, cap: int, what: str, flag: str = "--budget-upsets"):
    """A BudgetExceeded in the one form "<count> <what> exceed the budget of
    <cap> (<flag>)"; check_budget raises it, and only a hot loop tests count
    > cap itself. An int count or cap past EXACT_COUNT_BITS bits is written
    "2 ** <e> or more", e its bit length less one, so the message stays
    short; a caller that must not form a count gives that text itself."""
    count, cap = (
        f"2 ** {x.bit_length() - 1} or more"
        if isinstance(x, int) and x.bit_length() > EXACT_COUNT_BITS
        else x
        for x in (count, cap)
    )
    return BudgetExceeded(f"{count} {what} exceed the budget of {cap} ({flag})")


def budget_cap(budget: Optional[int], flag: str = "--budget-upsets") -> int:
    """The cap under flag: budget, or the flag's default cap when it is None."""
    default = DEFAULT_TUPLE_BUDGET if flag == "--budget-tuples" else DEFAULT_UPSET_BUDGET
    return default if budget is None else budget


def check_budget(count, budget: Optional[int], what: str, flag: str = "--budget-upsets"):
    """The one budget gate: raise over_budget's BudgetExceeded when count of
    what is past budget_cap(budget, flag)."""
    cap = budget_cap(budget, flag)
    if count > cap:
        raise over_budget(count, cap, what, flag)


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def upset_lists(masks) -> list:
    """Each mask as the list of its point indices, ascending."""
    return [list(iter_bits(m)) for m in masks]


class Poset:
    """An immutable finite partial order over named points.

    up[i] is the bitmask of all j with i <= j (reflexive, so bit i is set);
    down[i] is the dual. Instances should be built through validate(), which
    closes and checks an arbitrary input relation; the constructor trusts
    its arguments.
    """

    __slots__ = (
        "points", "up", "down", "level_tags", "full_mask", "_index",
        "_upset_masks", "_cover_walk", "_down_closure", "__weakref__",
    )

    def __init__(
        self,
        points: Iterable[str],
        up: Iterable[int],
        down: Iterable[int],
        level_tags: Optional[Mapping[int, int]] = None,
    ):
        self.points = tuple(points)
        self.up = tuple(up)
        self.down = tuple(down)
        self.level_tags = dict(level_tags) if level_tags is not None else None
        self.full_mask = (1 << len(self.points)) - 1
        self._index = {name: i for i, name in enumerate(self.points)}
        self._upset_masks: Optional[tuple] = None
        self._cover_walk: Optional[tuple] = None
        self._down_closure: Optional[Callable[[int], int]] = None

    @property
    def n(self) -> int:
        return len(self.points)

    def leq(self, i: int, j: int) -> bool:
        return bool(self.up[i] >> j & 1)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ForeignPoint(f"unknown point {name!r}") from None

    def mask_of_names(self, names: Iterable[str]) -> int:
        m = 0
        for name in names:
            m |= 1 << self.index(name)
        return m

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poset):
            return NotImplemented
        return self.points == other.points and self.up == other.up

    def __hash__(self) -> int:
        return hash((self.points, self.up))

    def __repr__(self) -> str:
        return f"Poset({len(self.points)} points)"


def validate(
    points: Iterable[str],
    raw_leq: Iterable,
    level_tags: Optional[Mapping[int, int]] = None,
) -> Poset:
    """Build a Poset from any binary relation on the points.

    The input relation is closed reflexively and transitively; a cycle
    through two or more points raises CycleError. Pairs are (i, j) meaning
    point i <= point j, with indices into the points list.
    """
    pts = list(points)
    if not pts:
        raise EmptyPoset("a poset needs at least one point")
    if len(set(pts)) != len(pts):
        raise ValueError("duplicate point names")
    n = len(pts)
    succ = [0] * n
    for i, j in raw_leq:
        if not (0 <= i < n and 0 <= j < n):
            raise ForeignPoint(f"relation pair ({i}, {j}) out of range")
        if i != j:
            succ[i] |= 1 << j
    # one depth-first pass: a point finishes once all its successors have,
    # and its up-set is itself joined with theirs (reverse topological
    # order); a successor still on the path closes a cycle
    up = [0] * n
    finished = []
    done = 0
    for root in range(n):
        if done >> root & 1:
            continue
        path, on_path = [root], 1 << root
        while path:
            i = path[-1]
            pending = succ[i] & ~done
            if pending & on_path:
                j = (pending & on_path).bit_length() - 1
                raise CycleError(f"{pts[j]} <= {pts[i]} <= {pts[j]}")
            if pending:
                low = pending & -pending
                path.append(low.bit_length() - 1)
                on_path |= low
                continue
            path.pop()
            m = 1 << i
            for j in iter_bits(succ[i]):
                m |= up[j]
            up[i] = m
            on_path &= ~(1 << i)
            done |= 1 << i
            finished.append(i)
    # down-sets in topological order: each point passes its own on
    down = [1 << i for i in range(n)]
    for i in reversed(finished):
        for j in iter_bits(succ[i]):
            down[j] |= down[i]
    return Poset(pts, up, down, level_tags)


def union_lookup(vectors: Sequence[int]) -> Callable[[int], int]:
    """A callable taking a mask to the OR of vectors[x] over its bits x.

    It holds one table per slice of 8 bits, entry s of a slice's table the
    OR over the bits of s; a table is built by doubling, the entries that
    hold a slice's bit j being those without it ORed with its vector. With
    one slice the callable is the table's own lookup; with more, it ORs one
    lookup per non-empty slice of the mask."""
    tables = []
    for lo in range(0, len(vectors), 8):
        table = [0]
        for v in vectors[lo : lo + 8]:
            table += [t | v for t in table]
        tables.append(table)
    if len(tables) == 1:
        return tables[0].__getitem__

    def lookup(mask: int) -> int:
        m = 0
        for table in tables:
            if mask & 0xFF:
                m |= table[mask & 0xFF]
            mask >>= 8
            if not mask:
                break
        return m

    return lookup


def down_closure_of(P: Poset) -> Callable[[int], int]:
    """The down-closure of a point mask, as a union_lookup of the down-sets
    built on first use and cached on the poset."""
    if P._down_closure is None:
        P._down_closure = union_lookup(P.down)
    return P._down_closure


def is_upset_mask(P: Poset, mask: int) -> bool:
    for i in iter_bits(mask):
        if P.up[i] & ~mask:
            return False
    return True


def upset_masks(P: Poset, budget: Optional[int] = None) -> tuple:
    """All up-closed subsets of P as masks, sorted ascending.

    The canonical order is lexicographic on the bit-vector, i.e. plain
    integer order on masks; the empty upset comes first and the full set
    last. Results are cached on the poset.
    """
    if P._upset_masks is None:
        P._upset_masks = tuple(sorted(upsets_of(P.up, budget_cap(budget))))
    else:
        check_budget(len(P._upset_masks), budget, "upsets")
    return P._upset_masks


def _top_down(up: Sequence[int]) -> list:
    """The points ordered so that each comes after everything strictly above
    it: a strictly larger point has a strictly smaller up-set."""
    return sorted(range(len(up)), key=lambda i: (up[i].bit_count(), i))


def upsets_of(up: Sequence[int], cap: int) -> list:
    """Every up-closed subset of the order whose point i has up-set up[i]
    (a bitmask with bit i set), unsorted; BudgetExceeded past cap of them.

    The points are taken from the maximal ones downward, so that when a
    point is added everything strictly above it is already decided: it
    extends exactly the upsets found so far that hold all of its strict
    up-set. No recursion, so deep orders (long chains) are fine.
    """
    return closed_unions(((1 << i, up[i] & ~(1 << i)) for i in _top_down(up)), cap)


def closed_unions(pairs, cap):
    """Every union of masks of pairs, (mask, needs) int masks each after
    those its needs are made of, that holds the needs of each of its masks,
    unsorted: a mask joins the unions so far that hold its needs. Over cap
    (an int) of them raises BudgetExceeded."""
    out = [0]
    for mask, needs in pairs:
        out += [u | mask for u in out if u & needs == needs]
        if len(out) > cap:
            raise over_budget(len(out), cap, "upsets")
    return out


def cover_walk(P: Poset) -> tuple:
    """(i, upper covers of i) for every point i, in _top_down order. Cached
    on the poset."""
    if P._cover_walk is None:
        walk = []
        for i in _top_down(P.up):
            # drop what lies strictly above each remaining candidate
            cov = rest = P.up[i] & ~(1 << i)
            while rest:
                low = rest & -rest
                cov &= ~P.up[low.bit_length() - 1] | low
                rest = cov & ~((low << 1) - 1)
            walk.append((i, tuple(iter_bits(cov))))
        P._cover_walk = tuple(walk)
    return P._cover_walk


def check_tuple_budget(
    count: int, budget: Optional[int] = None, what: str = "tuples"
) -> None:
    """check_budget under --budget-tuples: a scan of count tuples (or count
    of what)."""
    check_budget(count, budget, what, "--budget-tuples")


def check_multiset_budget(n: int, k: int, budget: Optional[int] = None) -> None:
    """check_tuple_budget for the C(n+k-1, k) k-multisets of n >= 1 items.
    The count is formed one factor at a time, each partial product a
    binomial no larger than the count, and only until it is past both the
    cap and EXACT_COUNT_BITS bits: over_budget's "2 ** <e> or more" then
    holds of the count too, however large k is."""
    cap = budget_cap(budget, "--budget-tuples")
    m = min(k, n - 1)
    count = 1
    for i in range(1, m + 1):
        count = count * (n + k - 1 - m + i) // i
        if count > cap and count.bit_length() > EXACT_COUNT_BITS:
            break
    check_tuple_budget(count, cap)


def upset_multisets(items: Sequence, k: int, budget: Optional[int] = None):
    """Every k-multiset of items, ascending, once their C(len(items)+k-1, k)
    count is within the tuple budget. Sorting a tuple never moves it later
    in product order: where only a tuple's set matters, the first multiset
    with a property is the first ordered tuple with it."""
    check_multiset_budget(len(items), k, budget)
    return combinations_with_replacement(items, k)


def covers(P: Poset) -> list:
    """Cover pairs (i, j): i < j with nothing strictly in between."""
    return sorted((i, j) for i, ups in cover_walk(P) for j in ups)


def poset_to_json(P: Poset) -> dict:
    pairs = []
    for i in range(P.n):
        for j in iter_bits(P.up[i] & ~(1 << i)):
            pairs.append([i, j])
    data = {"points": list(P.points), "leq": sorted(pairs)}
    if P.level_tags is not None:
        data["levels"] = {P.points[i]: lvl for i, lvl in sorted(P.level_tags.items())}
    return data


def poset_from_json(data: dict) -> Poset:
    """Read a poset file; ValueError unless points is a list of names, leq
    a list of [i, j] index pairs and levels maps point names to integers."""
    points, leq = data["points"], data["leq"]
    if type(points) is not list or any(type(p) is not str for p in points):
        raise ValueError("points must be a list of point names")
    if type(leq) is not list:
        raise ValueError("leq must be a list of [i, j] index pairs")
    pairs = []
    for p in leq:
        if not (type(p) is list and len(p) == 2 and type(p[0]) is type(p[1]) is int):
            raise ValueError(f"leq entry {p!r} is not an [i, j] index pair")
        pairs.append((p[0], p[1]))
    tags = None
    if "levels" in data:
        if not isinstance(data["levels"], dict):
            raise ValueError("levels must map point names to levels")
        name_to_idx, tags = {name: i for i, name in enumerate(points)}, {}
        for name, lvl in data["levels"].items():
            if name not in name_to_idx:
                raise ValueError(f"levels names {name!r}, which is not a point")
            if type(lvl) is not int:
                raise ValueError(f"level of point {name!r} must be an integer")
            tags[name_to_idx[name]] = lvl
    return validate(points, pairs, tags)


def poset_to_dot(P: Poset) -> str:
    """Hasse diagram in DOT, edges drawn upward (cover relations only)."""
    lines = ["digraph poset {", "  rankdir=BT;"]
    for i, name in enumerate(P.points):
        label = name
        if P.level_tags is not None and i in P.level_tags:
            label = f"{name} (L{P.level_tags[i]})"
        lines.append(f'  "{name}" [label="{label}"];')
    for i, j in covers(P):
        lines.append(f'  "{P.points[i]}" -> "{P.points[j]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
