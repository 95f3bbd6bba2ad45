import hashlib
import json
import random
from itertools import permutations

import pytest
from conftest import posets
from hypothesis import given
from hypothesis import strategies as st

from heylab.corpus import (
    MAX_EXHAUSTIVE_POINTS,
    all_posets_up_to_iso,
    canonical_form,
    corpus_from_spec,
    random_poset,
    random_posets,
)
from heylab.errors import BudgetExceeded
from heylab.poset import poset_to_json, validate

# sha256 of json.dumps([poset_to_json(P) for P in all_posets_up_to_iso(6)])
# as emitted by the brute-force scan below: points, up-sets and order.
EXHAUSTIVE6_DIGEST = "03a933588e32b263e2a22bd7455c3642c1ae339d978ca4a62214263ec343f7e6"


# -- brute-force oracle: scan every relation on the index order, keep the
# transitive ones, canonicalise by the least relabeling over all n!


def _transitive(pairs: frozenset, n: int) -> bool:
    succ = {i: set() for i in range(n)}
    for a, b in pairs:
        succ[a].add(b)
    for a, b in pairs:
        for c in succ[b]:
            if c not in succ[a]:
                return False
    return True


def _brute_relations(n: int):
    """Yield every transitive relation contained in the index order."""
    slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for bits in range(1 << len(slots)):
        pairs = frozenset(slots[b] for b in range(len(slots)) if bits >> b & 1)
        if _transitive(pairs, n):
            yield pairs


def _brute_form(pairs: frozenset, n: int) -> tuple:
    return min(
        tuple(sorted((p[a], p[b]) for a, b in pairs))
        for p in permutations(range(n))
    )


def _brute_all_posets(max_points: int) -> list:
    out = []
    for n in range(1, max_points + 1):
        seen = set()
        for pairs in _brute_relations(n):
            form = _brute_form(pairs, n)
            if form not in seen:
                seen.add(form)
                out.append(validate([f"p{i}" for i in range(n)], sorted(pairs)))
    return out


def _form_of_pairs(pairs, n: int) -> int:
    up = [0] * n
    for a, b in pairs:
        up[a] |= 1 << b
    return canonical_form(up)


def _form_of_poset(P) -> int:
    return canonical_form([u & ~(1 << i) for i, u in enumerate(P.up)])


@pytest.fixture(scope="module")
def exhaustive6():
    return all_posets_up_to_iso(6)


def test_exhaustive_counts(exhaustive6):
    # posets on 1..6 points up to isomorphism, OEIS A000112
    by_size = {}
    for P in exhaustive6:
        by_size[P.n] = by_size.get(P.n, 0) + 1
    assert by_size == {1: 1, 2: 2, 3: 5, 4: 16, 5: 63, 6: 318}
    assert len(exhaustive6) == 405


def test_exhaustive_order_and_representatives(exhaustive6):
    payload = json.dumps([poset_to_json(P) for P in exhaustive6])
    assert hashlib.sha256(payload.encode()).hexdigest() == EXHAUSTIVE6_DIGEST


def test_exhaustive_matches_brute_force_scan():
    assert all_posets_up_to_iso(5) == _brute_all_posets(5)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_canonical_form_classes_match_brute_force(n):
    to_brute, to_form = {}, {}
    for pairs in _brute_relations(n):
        form, brute = _form_of_pairs(pairs, n), _brute_form(pairs, n)
        assert to_brute.setdefault(form, brute) == brute
        assert to_form.setdefault(brute, form) == form


@st.composite
def relabeled_posets(draw):
    P = draw(posets())
    perm = draw(st.permutations(range(P.n)))
    pairs = [(perm[i], perm[j]) for i in range(P.n) for j in range(P.n) if P.leq(i, j)]
    return P, validate(P.points, pairs)


@given(relabeled_posets())
def test_canonical_form_ignores_relabeling(case):
    P, Q = case
    assert _form_of_poset(P) == _form_of_poset(Q)


def test_exhaustive_no_duplicates():
    corpus = all_posets_up_to_iso(4)
    seen = {(P.points, P.up) for P in corpus}
    assert len(seen) == len(corpus)


def test_random_posets_deterministic():
    a = random_posets(15, seed=5)
    b = random_posets(15, seed=5)
    assert [poset_to_json(P) for P in a] == [poset_to_json(P) for P in b]
    c = random_posets(15, seed=6)
    assert [poset_to_json(P) for P in a] != [poset_to_json(P) for P in c]


def test_random_poset_is_valid():
    rng = random.Random(3)
    for _ in range(30):
        P = random_poset(rng, rng.randint(2, 7))
        for i in range(P.n):
            assert P.leq(i, i)
            for j in range(P.n):
                if i != j and P.leq(i, j):
                    assert not P.leq(j, i)


def test_corpus_from_spec():
    corpus = corpus_from_spec("exhaustive3,random5:42")
    assert len(corpus) == 8 + 5
    assert corpus_from_spec("random3") is not None
    assert len(corpus_from_spec("random4")) == 4
    with pytest.raises(ValueError):
        corpus_from_spec("bogus7")


@pytest.mark.parametrize(
    "item",
    [
        "exhaustive0",
        "exhaustive-1",
        "exhaustive",
        "exhaustiveX",
        "random0",
        "random",
        "random:3",
        "random5:x",
        "random5:",
        "",
    ],
)
def test_corpus_from_spec_rejects_malformed_items(item):
    with pytest.raises(ValueError, match=repr(item)):
        corpus_from_spec(f"exhaustive2,{item}")


def test_corpus_from_spec_exhaustive_limit():
    with pytest.raises(BudgetExceeded, match=f"'exhaustive{MAX_EXHAUSTIVE_POINTS + 1}'"):
        corpus_from_spec(f"exhaustive{MAX_EXHAUSTIVE_POINTS + 1}")
    assert len(corpus_from_spec("random2:-5")) == 2
