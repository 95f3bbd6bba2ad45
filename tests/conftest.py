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


@st.composite
def posets_with_generators(draw):
    """A poset and a list of at most three of its upsets, as masks."""
    P = draw(posets())
    gens = draw(st.lists(st.sampled_from(upset_masks(P)), max_size=3))
    return P, gens


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
