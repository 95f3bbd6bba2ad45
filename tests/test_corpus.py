import gc
import hashlib
import json
import random
import weakref
from collections import Counter
from itertools import permutations
from typing import Iterator

import pytest
from conftest import posets
from hypothesis import given
from hypothesis import strategies as st

from heylab import corpus, verify
from heylab.corpus import (
    MAX_EXHAUSTIVE_POINTS,
    POSET_COUNTS,
    SpecCorpus,
    _slots,
    all_posets_up_to_iso,
    corpus_from_spec,
    least_bits,
    random_poset,
    random_posets,
)
from heylab.errors import BudgetExceeded
from heylab.poset import iter_bits, poset_to_json, upsets_of, validate

# sha256 of json.dumps([poset_to_json(P) for P in all_posets_up_to_iso(6)])
# as emitted by the brute-force scan below: points, up-sets and order.
EXHAUSTIVE6_DIGEST = "03a933588e32b263e2a22bd7455c3642c1ae339d978ca4a62214263ec343f7e6"
# the same for all_posets_up_to_iso(7), as emitted by the labelled-order
# walk below
EXHAUSTIVE7_DIGEST = "b0e106e19d0592329c04ee0fd9f809f77c7cd5626cc43fd5eb7a1f6c3217e166"


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


# -- labelled-order oracle: key every strict order contained in the index
# order by its least_bits, and check that each key is the least `bits` of
# the orders that share it; the A000112 counts then rule out split and
# merged classes


def _natural_orders(n: int) -> Iterator[tuple]:
    """Yield (bits, up) for every strict order on n points that is
    contained in the index order, with up its strict up-set masks.

    Points are added in index order; each new point is maximal so far and
    its strict down-set is any down-set of the points before it.
    """
    slot = {pair: 1 << b for b, pair in enumerate(_slots(n))}

    def extend(k: int, up: tuple, down: tuple, bits: int):
        if k == n:
            yield bits, up
            return
        # the down-sets of points 0..k-1, each with the bits of its pairs
        # below the new point k
        downsets = [(0, 0)]
        for i in range(k):
            below = down[i]
            downsets += [
                (d | 1 << i, b | slot[i, k]) for d, b in downsets if below & ~d == 0
            ]
        top = 1 << k
        for d, b in downsets:
            up_k = tuple(u | top if d >> i & 1 else u for i, u in enumerate(up))
            yield from extend(k + 1, up_k + (0,), down + (d,), bits | b)

    yield from extend(0, (), (), 0)


def _walk_all_posets(max_points: int) -> list:
    out = []
    for n in range(1, max_points + 1):
        least = {}
        for bits, up in _natural_orders(n):
            key = least_bits(up)
            least[key] = min(least.get(key, bits), bits)
        assert all(key == bits for key, bits in least.items())
        slots = _slots(n)
        points = [f"p{i}" for i in range(n)]
        for bits in sorted(least):
            out.append(validate(points, [slots[b] for b in iter_bits(bits)]))
    return out


# -- unfiltered oracle: the search without the down-set test, so every
# candidate is labelled, and every representative closed by validate


def _candidates(up) -> list:
    """Every child of the order with strict up-sets up: a new maximal point
    above each of its down-sets."""
    top = 1 << len(up)
    reflexive = [u | 1 << i for i, u in enumerate(up)]
    downs = [(top - 1) ^ upset for upset in upsets_of(reflexive, top)]
    return [
        [u | top if down >> i & 1 else u for i, u in enumerate(up)] + [0]
        for down in downs
    ]


def _unfiltered_all_posets(max_points: int) -> list:
    out = []
    classes = {least_bits(()): ()}
    for n in range(1, max_points + 1):
        parents, classes = classes.values(), {}
        for up in parents:
            for child in _candidates(up):
                classes.setdefault(least_bits(child), child)
        slots = _slots(n)
        points = [f"p{i}" for i in range(n)]
        for bits in sorted(classes):
            out.append(validate(points, [slots[b] for b in iter_bits(bits)]))
    return out


# -- placing oracle: the search least_bits ran before its cell search. It
# tries every placing of points whose rows tie, one point per step, and
# prunes twins (points with equal strict up- and down-sets) to the first


def oracle_least_bits(up) -> int:
    n = len(up)
    down = [0] * n
    for i, u in enumerate(up):
        for j in iter_bits(u):
            down[j] |= 1 << i
    seen, twins_before = {}, []
    for x in range(n):
        key = (up[x], down[x])
        twins_before.append(seen.get(key, 0))
        seen[key] = twins_before[x] | 1 << x
    bits = 0
    placings = [(0, ())]  # (mask of labelled points, those points, last first)
    for k in range(n):
        least, kept = None, []
        for done, placed in placings:
            for x in range(n):
                ux = up[x]
                if done >> x & 1 or (ux | twins_before[x]) & ~done:
                    continue
                row = 0
                bit = 1
                for y in placed:
                    if ux >> y & 1:
                        row |= bit
                    bit <<= 1
                if least is None or row < least:
                    least, kept = row, []
                if row == least:
                    kept.append((done | 1 << x, (x,) + placed))
        bits = bits << k | least
        placings = kept
    return bits


def _bits_of_pairs(pairs, n: int) -> int:
    return sum(1 << b for b, pair in enumerate(_slots(n)) if pair in pairs)


def _strict_up(P) -> list:
    return [u & ~(1 << i) for i, u in enumerate(P.up)]


def _up_of_pairs(pairs, n: int) -> list:
    up = [0] * n
    for a, b in pairs:
        up[a] |= 1 << b
    return up


def _brute_form_of_poset(P) -> tuple:
    pairs = [(i, j) for i in range(P.n) for j in range(P.n) if i != j and P.leq(i, j)]
    return _brute_form(frozenset(pairs), P.n)


def _digest(posets) -> str:
    payload = json.dumps([poset_to_json(P) for P in posets])
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.fixture(scope="module")
def exhaustive6():
    return all_posets_up_to_iso(6)


@pytest.fixture(scope="module")
def exhaustive7():
    return all_posets_up_to_iso(7)


def test_exhaustive_counts(exhaustive7):
    # posets on 1..7 points up to isomorphism, OEIS A000112
    by_size = {}
    for P in exhaustive7:
        by_size[P.n] = by_size.get(P.n, 0) + 1
    assert by_size == {1: 1, 2: 2, 3: 5, 4: 16, 5: 63, 6: 318, 7: 2045}
    assert len(exhaustive7) == 2450


def test_exhaustive_order_and_representatives(exhaustive6, exhaustive7):
    assert _digest(exhaustive6) == EXHAUSTIVE6_DIGEST
    assert _digest(exhaustive7) == EXHAUSTIVE7_DIGEST


def test_exhaustive_matches_brute_force_scan():
    assert all_posets_up_to_iso(5) == _brute_all_posets(5)


def test_exhaustive_matches_unfiltered_search(exhaustive7):
    # the down-set test drops candidates, never a class, and a
    # representative built from its key is the one validate closes
    assert [(P.points, P.up, P.down) for P in exhaustive7] == [
        (P.points, P.up, P.down) for P in _unfiltered_all_posets(7)
    ]


def _passes_downset_test(child: list) -> bool:
    """No maximal point of child has a larger down-set than its last point,
    the new one; child[i] is point i's strict up-set mask."""
    n = len(child)
    below = [sum(u >> j & 1 for u in child) for j in range(n)]
    return all(below[j] <= below[n - 1] for j in range(n) if child[j] == 0)


def test_exhaustive_labels_exactly_the_candidates_that_pass(monkeypatch):
    # from the classes the search keeps on n-1 points, every candidate on n
    # points is labelled exactly when it passes the test read straight from
    # its down-sets (462 of the 766 candidates on 6 points)
    labelled = []
    monkeypatch.setattr(
        corpus, "least_bits", lambda up: labelled.append(list(up)) or least_bits(up)
    )
    all_posets_up_to_iso(6)
    kept = {}
    for up in labelled:
        kept.setdefault(len(up), {}).setdefault(least_bits(up), up)
    for n in range(1, 7):
        candidates = [c for up in kept[n - 1].values() for c in _candidates(up)]
        passing = [c for c in candidates if _passes_downset_test(c)]
        assert [up for up in labelled if len(up) == n] == passing
    assert (len(passing), len(candidates)) == (462, 766)


def test_exhaustive_matches_labelled_order_walk(exhaustive6):
    assert exhaustive6 == _walk_all_posets(6)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_least_bits_matches_brute_force(n):
    # every transitive relation on the index order is a natural labelling
    # of its class, so the least bits of a class is the least over them
    least, rels = {}, []
    for pairs in _brute_relations(n):
        brute, bits = _brute_form(pairs, n), _bits_of_pairs(pairs, n)
        least[brute] = min(least.get(brute, bits), bits)
        rels.append((brute, pairs))
    for brute, pairs in rels:
        assert least_bits(_up_of_pairs(pairs, n)) == least[brute]


@st.composite
def relabeled_posets(draw, max_points=7):
    P = draw(posets(max_points=max_points))
    perm = draw(st.permutations(range(P.n)))
    pairs = [(perm[i], perm[j]) for i in range(P.n) for j in range(P.n) if P.leq(i, j)]
    return P, validate(P.points, pairs)


@given(relabeled_posets(), st.data())
def test_least_bits_is_an_isomorphism_invariant(case, data):
    # unchanged under relabelling, and on two posets of one size (at most 6
    # points, for the brute force) equal exactly where they are isomorphic
    P, Q = case
    assert least_bits(_strict_up(P)) == least_bits(_strict_up(Q))
    n = min(P.n, 6)
    R, S = (data.draw(posets(min_points=n, max_points=n)) for _ in range(2))
    same = least_bits(_strict_up(R)) == least_bits(_strict_up(S))
    assert same == (_brute_form_of_poset(R) == _brute_form_of_poset(S))


def test_least_bits_matches_the_placing_oracle_on_every_labelled_candidate(
    monkeypatch,
):
    # every candidate that the search on 7 points labels (3,570 in all)
    labelled = []
    monkeypatch.setattr(
        corpus, "least_bits", lambda up: labelled.append(list(up)) or least_bits(up)
    )
    all_posets_up_to_iso(7)
    assert len(labelled) == 3570
    for up in labelled:
        assert least_bits(up) == oracle_least_bits(up)


@given(relabeled_posets(max_points=9))
def test_least_bits_matches_the_placing_oracle(case):
    for P in case:
        up = _strict_up(P)
        assert least_bits(up) == oracle_least_bits(up)


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


@pytest.mark.parametrize("item", ["exhaustive0", "random5:x", "bogus7", ""])
def test_spec_corpus_raises_what_corpus_from_spec_raises(item):
    with pytest.raises(ValueError, match=repr(item)):
        SpecCorpus(f"exhaustive2,{item}")
    with pytest.raises(BudgetExceeded, match="'exhaustive10'"):
        SpecCorpus(f"exhaustive10,{item}")


def test_spec_corpus_counts_each_item(exhaustive7):
    # POSET_COUNTS against the enumeration; 8 and 9 points are counted only
    assert len(POSET_COUNTS) == MAX_EXHAUSTIVE_POINTS + 1
    by_size = Counter(P.n for P in exhaustive7)
    assert [by_size[k] for k in range(1, 8)] == list(POSET_COUNTS[1:8])
    assert POSET_COUNTS[8] == 16999 and len(SpecCorpus("exhaustive8")) == 19449
    assert POSET_COUNTS[9] == 183231 and len(SpecCorpus("exhaustive9")) == 202680
    for spec in ("exhaustive6", "exhaustive1,random7:3", "random4, exhaustive3"):
        corpus = SpecCorpus(spec)
        assert len(corpus) == len(list(corpus))
        assert list(corpus) == corpus_from_spec(spec)


def test_spec_corpus_streams_each_size_as_it_is_built(monkeypatch, exhaustive7):
    # a poset on n points is drawn before any candidate on n + 1 points is
    # labelled, and the stream is the listed corpus, poset by poset
    labelled, label = [], corpus.least_bits
    monkeypatch.setattr(
        corpus, "least_bits", lambda up: labelled.append(len(up)) or label(up)
    )
    streamed = []
    for P in SpecCorpus("exhaustive7"):
        assert max(labelled) == P.n
        streamed.append(P)
    assert streamed == exhaustive7


def test_spec_corpus_frees_each_poset_once_its_checks_end(monkeypatch):
    # a lemma over a streamed corpus holds one poset at a time: when the
    # second poset's checks begin, the first is gone
    refs, masks_of = [], verify.upset_masks

    def recording(P, budget=None):
        gc.collect()
        assert [r() for r in refs] == [None] * len(refs)
        refs.append(weakref.ref(P))
        return masks_of(P, budget)

    monkeypatch.setattr(verify, "upset_masks", recording)
    assert verify.verify_residuation(SpecCorpus("exhaustive4"))["passed"]
    assert len(refs) == sum(POSET_COUNTS[1:5])


def test_corpus_from_spec_exhaustive_limit():
    with pytest.raises(BudgetExceeded, match=f"'exhaustive{MAX_EXHAUSTIVE_POINTS + 1}'"):
        corpus_from_spec(f"exhaustive{MAX_EXHAUSTIVE_POINTS + 1}")
    assert len(corpus_from_spec("random2:-5")) == 2
