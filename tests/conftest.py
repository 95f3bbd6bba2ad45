import random
from functools import cache

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from heylab import validate
from heylab.corpus import all_posets_up_to_iso, random_posets
from heylab.poset import upset_masks

# one profile for every property test: derandomized, so tier-1 is reproducible
settings.register_profile("heylab", derandomize=True, deadline=None, max_examples=300)
settings.load_profile("heylab")


@st.composite
def posets(draw, max_points=7, min_points=1):
    """A poset on p0, ..., p(n-1) whose order contains any chosen pairs i < j."""
    n = draw(st.integers(min_points, max_points))
    slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.booleans(), min_size=len(slots), max_size=len(slots)))
    return validate([f"p{i}" for i in range(n)], [s for s, c in zip(slots, chosen) if c])


class BoundedRandom(random.Random):
    """A generator that fails, instead of drawing for ever, past 1,000 draws."""

    def getrandbits(self, k):
        self.draws = getattr(self, "draws", 0) + 1
        assert self.draws <= 1000, "drew for ever"
        return super().getrandbits(k)


@st.composite
def posets_with_generators(draw):
    """A poset and a list of at most three of its upsets, as masks."""
    P = draw(posets())
    gens = draw(st.lists(st.sampled_from(upset_masks(P)), max_size=3))
    return P, gens


def oracle_quotient_upset_count(blocks, downs):
    """The number of upsets of the quotient whose classes are the blocks,
    downs[b] the down-closure of block b, counted on the class order itself:
    class c lies above class b when the down-closure of c meets b. The
    upsets of a set S of classes that hold a class x are those of S less
    up(x), each with up(x) added; those that miss x are those of S less
    down(x)."""
    up, down = [0] * len(blocks), [0] * len(blocks)
    for c, d in enumerate(map(downs.get, blocks)):
        for b, B in enumerate(blocks):
            if B & d:
                up[b] |= 1 << c
                down[c] |= 1 << b

    @cache
    def count(S):
        if not S:
            return 1
        x = S.bit_length() - 1
        return count(S & ~up[x]) + count(S & ~down[x])

    return count((1 << len(blocks)) - 1)


@pytest.fixture
def chain2():
    """b < t."""
    return validate(["b", "t"], [(0, 1)])


@pytest.fixture
def fork():
    """b below incomparable x, y."""
    return validate(["b", "x", "y"], [(0, 1), (0, 2)])


@pytest.fixture
def antichain3():
    return validate(["a", "b", "c"], [])


@pytest.fixture
def point():
    return validate(["p"], [])


@pytest.fixture(scope="session")
def small_corpus():
    """All posets on <= 4 points plus a few random ones; fast test corpus."""
    return all_posets_up_to_iso(4) + random_posets(20, seed=99, max_points=6)
