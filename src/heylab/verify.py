"""Named verifications over poset corpora and ladder truncations.

Each function returns a JSON-able report dict with a "passed" flag and, on
failure, counterexample payloads sufficient to replay the offending
instance. All sampling is seeded, and the seed is recorded in the report,
so identical arguments give byte-identical reports. Each lemma imports the
modules it runs in its own body; LEMMAS and OPTIONS declare what it takes.
"""

from __future__ import annotations

import os
import random
import sys
from functools import partial
from itertools import chain
from operator import itemgetter
from typing import NamedTuple, Optional, Sequence

from .colouring import random_tuples
from .ladder import (
    LadderSpec,
    build_ladder,
    canonical_colouring,
    check_ladder_budget,
    collapse_check,
    next_level_bound_check,
    non_colourability_scan,
    supported_within,
    verify_canonical,
)
from .poset import (
    DEFAULT_SEED,
    EXACT_COUNT_BITS,
    Poset,
    check_tuple_budget,
    iter_bits,
    poset_to_json,
    union_lookup,
    upset_lists,
    upset_masks,
)

DEFAULT_CORPUS = "exhaustive5,random200:2718"
COLLAPSE_SUPPORT_LEVELS = 3


def _sample_generator_sets(masks, count: int, rng: random.Random):
    """Yield a seeded sample of one- and two-upset generator sets after the
    empty set, count in all; each is drawn only when it is asked for.

    The sets and the stream are those of sorted(rng.sample(pool,
    rng.randint(1, min(2, n)))), drawn without sample's copy of the pool:
    randint(1, m) is 1 + randrange(m), and sample draws j below n, then k
    below n - 1 (n - 1 standing in for j) when n <= 21, else k below n
    until k != j. Each randrange(m) is read from rng.getrandbits as
    randrange draws it: m.bit_length() bits, drawn again while they are m
    or more. An empty pool raises randrange's ValueError. A count below 1
    yields nothing."""
    if count < 1:
        return
    yield ()
    pool = list(masks)
    n = len(pool)
    if not n and count > 1:
        raise ValueError("empty range for randrange()")
    getrandbits = rng.getrandbits
    sizes = min(2, n)  # a set has 1 + randrange(sizes) upsets
    short = n - 1  # sample's second draw is below n - 1 when n <= 21
    size_bits, bits, short_bits = sizes.bit_length(), n.bit_length(), short.bit_length()
    for _ in range(count - 1):
        r = getrandbits(size_bits)
        while r >= sizes:
            r = getrandbits(size_bits)
        j = getrandbits(bits)
        while j >= n:
            j = getrandbits(bits)
        if not r:
            yield (pool[j],)
            continue
        if n <= 21:
            k = getrandbits(short_bits)
            while k >= short:
                k = getrandbits(short_bits)
            if k == j:
                k = short
        else:
            k = j
            while k == j:
                k = getrandbits(bits)
                while k >= n:
                    k = getrandbits(bits)
        a, b = pool[j], pool[k]
        yield (a, b) if a < b else (b, a)


def _report(lemma: str, failures: list, **fields) -> dict:
    return {"lemma": lemma, **fields, "failures": failures, "passed": not failures}


def verify_residuation(
    corpus: Sequence[Poset],
    budget_upsets: Optional[int] = None,
    budget_tuples: Optional[int] = None,
) -> dict:
    """Residuation over every upset triple (a, b, c): a & b <= c exactly
    when a <= b -> c. budget_tuples caps a running count of the |Up(P)|**2
    (b, c) pairs, checked at each poset before its work. Distributivity
    holds by construction, since meet and join are & and | on masks, so it
    is not tested.

    Each (b, c) tests every a at once: residuation holds at a when a & (b &
    ~c) and a & ~(b -> c) are empty together. Over the upset indices,
    hit(M) is the set of a with a & M != 0: the union of holding[x], the
    indices of the upsets that hold x, over the points x of M. Failures are
    listed in (b, c, a) order."""
    from .algebra import imp_mask

    failures = []
    triples = pairs = 0
    for P in corpus:
        masks = upset_masks(P, budget_upsets)
        pairs += len(masks) ** 2
        check_tuple_budget(pairs, budget_tuples, "(b, c) pairs")
        holding = [
            sum(1 << i for i, a in enumerate(masks) if a >> x & 1)
            for x in range(P.n)
        ]
        hit = union_lookup(holding)
        full = P.full_mask
        for b in masks:
            for c in masks:
                imp = imp_mask(P, b, c)
                bad = hit(b & ~c) ^ hit(full & ~imp)
                if bad:  # most pairs fail nowhere: skip iter_bits' set-up
                    for i in iter_bits(bad):
                        triple = upset_lists((masks[i], b, c))
                        failures.append({"poset": poset_to_json(P), "triple": triple})
        triples += len(masks) ** 3
    return _report("residuation", failures, posets=len(corpus), triples=triples)


def _shares(posets: int, gens_per_poset: int) -> int:
    """How many processes check a sampled lemma's posets: one per CPU this
    process may run on, at most one per poset. One process runs it when
    there is nothing to split, when fork is missing or unsafe (another
    thread is running), or when a tracer or profiler is set, so that it
    sees the whole lemma."""
    threading = sys.modules.get("threading")
    if (
        gens_per_poset == 0 or posets < 2 or not hasattr(os, "fork")
        or (threading is not None and threading.active_count() > 1)
        or sys.gettrace() is not None or sys.getprofile() is not None
    ):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return min(len(os.sched_getaffinity(0)), posets)
    return min(os.cpu_count() or 1, posets)


def _share_child(walk, share: int, shares: int, write_end: int) -> None:
    """Run walk's share in a forked child and pickle its outcome to
    write_end; an error that does not survive pickling is sent as a
    RuntimeError naming it. The child ends with os._exit whatever happens,
    so no caller's cleanup runs twice."""
    import pickle

    code = 1
    try:
        result, error = walk(share, shares)
        if error is not None:
            try:
                pickle.loads(pickle.dumps(error[1]))
            except Exception:
                error = error[0], RuntimeError(repr(error[1]))
        data = pickle.dumps((result, error))
        with open(write_end, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)


def _in_shares(walk, shares: int) -> list:
    """The results of walk(share, shares) for each share below shares, in
    share order: share 0 runs in this process and every other share in a
    forked child that pickles its outcome back through a pipe. A walk
    returns (result, error), error being None or (key, exception): of the
    shares that erred, the exception with the least key, then the least
    share, is raised once every share is done. Every child is reaped before
    this returns or raises; if this process fails or is interrupted first,
    its children are killed."""
    if shares > 1:
        import pickle  # before the forks, so that no child loads it again
    children = []  # (pid, read end) of shares 1, 2, ...
    done = False
    try:
        for share in range(1, shares):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to hand the pipe to
                os.close(read_end)
                os.close(write_end)
                raise
            if not pid:
                os.close(read_end)
                _share_child(walk, share, shares, write_end)
            os.close(write_end)
            children.append((pid, read_end))
        outcomes = [walk(0, shares)]
        for share, (_, read_end) in enumerate(children, 1):
            with open(read_end, "rb", closefd=False) as pipe:
                data = pipe.read()
            if not data:
                raise RuntimeError(f"share {share} of {shares} ended without a result")
            outcomes.append(pickle.loads(data))
        done = True
    finally:
        for pid, read_end in children:
            os.close(read_end)
            if not done:
                import signal

                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    errors = [(e[0], s, e[1]) for s, (_, e) in enumerate(outcomes) if e is not None]
    if errors:
        raise min(errors, key=itemgetter(0, 1))[2]
    return [result for result, _ in outcomes]


def _walk_share(corpus, gens_per_poset, seed, budget_upsets, check, share, shares):
    """Walk every poset of corpus and its seeded draws, and check the draws
    of the posets whose index is share mod shares. Return (failures as
    (poset index, payload) pairs, error), error being None or (poset index,
    the first exception raised)."""
    found = []
    index = 0
    rng = random.Random(seed)
    try:
        for P in corpus:
            masks = upset_masks(P, budget_upsets)
            memo: dict = {}
            for G in _sample_generator_sets(masks, gens_per_poset, rng):
                if index % shares != share:  # drawn only to keep the stream
                    continue
                if G not in memo:
                    memo[G] = check(P, G)
                details = memo[G]
                if details is not None:
                    failure = {"poset": poset_to_json(P), "generators": upset_lists(G)}
                    found.append((index, {**failure, **details}))
            index += 1
    except Exception as error:
        return found, (index, error)
    return found, None


def _sampled_lemma(
    lemma, corpus, gens_per_poset, seed, budget_upsets, check, checks_per_run=1,
    budget_tuples=None, **fields,
) -> dict:
    """Run check(P, G) on each seeded generator set G of each poset P; a
    check returns the details of a failure, or None. The report's checks,
    posets x gens_per_poset x checks_per_run, are capped by budget_tuples
    before any set is drawn. A check depends only on (P, G), so a set drawn
    again for the same poset reuses its result: the memo holds one poset's
    draws at a time. Every draw still counts, and fails, as often as it is
    drawn.

    The posets are checked in _shares shares, one process each: every share
    walks the whole corpus and draw stream and checks the posets whose
    index it holds mod the share count. Their failures merge in corpus
    order, and an error is the one of the least poset index, so the report,
    or the exception, is the one that one process gives."""
    _check_minimum("gens_per_poset", gens_per_poset, 0)
    checks = len(corpus) * gens_per_poset * checks_per_run
    check_tuple_budget(checks, budget_tuples, "checks")
    walk = partial(_walk_share, corpus, gens_per_poset, seed, budget_upsets, check)
    results = _in_shares(walk, _shares(len(corpus), gens_per_poset))
    found = sorted(chain.from_iterable(results), key=itemgetter(0))
    return _report(
        lemma, [failure for _, failure in found], seed=seed, posets=len(corpus),
        gens_per_poset=gens_per_poset, checks=checks, **fields,
    )


def verify_rank_type(
    corpus: Sequence[Poset],
    gens_per_poset: int = 20,
    max_stage: int = 5,
    seed: int = DEFAULT_SEED,
    budget_upsets: Optional[int] = None,
    budget_tuples: Optional[int] = None,
) -> dict:
    """Stage-n types against rank-<=n membership, all stages up to max_stage."""
    from .subalgebra import rank_type_mismatches

    _check_minimum("max_stage", max_stage)

    def check(P, G):
        bad = rank_type_mismatches(P, G, max_stage, budget_upsets)
        return {"stages": bad} if bad else None

    return _sampled_lemma(
        "rank-type", corpus, gens_per_poset, seed, budget_upsets, check,
        checks_per_run=max_stage + 1, budget_tuples=budget_tuples, max_stage=max_stage,
    )


def verify_duality(
    corpus: Sequence[Poset],
    gens_per_poset: int = 20,
    seed: int = DEFAULT_SEED,
    budget_upsets: Optional[int] = None,
    budget_tuples: Optional[int] = None,
) -> dict:
    """The generation/colouring biconditional over a sampled corpus."""
    from .subalgebra import duality_sides

    def check(P, G):
        generates_all, coloured = duality_sides(P, G, budget_upsets)
        if generates_all != coloured:
            return {"generates_all": generates_all, "coloured": coloured}
        return None

    return _sampled_lemma(
        "duality", corpus, gens_per_poset, seed, budget_upsets, check,
        budget_tuples=budget_tuples,
    )


def _canonical_depth(n: int) -> int:
    """The deepest truncation the canonical lemma checks for n by default."""
    return 6 if n >= 2 else 8


def verify_canonical_range(
    cases=tuple((n, _canonical_depth(n)) for n in range(3)),
    budget_upsets: Optional[int] = None,
) -> dict:
    """Canonical colouring isolates everything, over a grid of truncations.
    Every case's deepest truncation is checked against the upset budget
    before any is built."""
    for n, max_depth in cases:
        check_ladder_budget(LadderSpec(n, max_depth), budget_upsets)
    failures = []
    checks = 0
    for n, max_depth in cases:
        for depth in range(1, max_depth + 1):
            checks += 1
            if not verify_canonical(n, depth, budget_upsets):
                failures.append({"n": n, "depth": depth})
    return _report("canonical", failures, cases=[list(c) for c in cases], checks=checks)


def verify_collapse(
    n: int,
    samples: int = 100,
    seed: int = DEFAULT_SEED,
    depth: Optional[int] = None,
    budget_upsets: Optional[int] = None,
    budget_tuples: Optional[int] = None,
) -> dict:
    """Collapse bound for seeded random n-colourings supported near the top,
    on 2**n + 6 levels unless depth is given. A shallower depth leaves fewer
    than 2**n + 3 colour-free levels below the colours and is refused. The
    samples are capped by budget_tuples before the ladder is built."""
    _check_minimum("samples", samples)
    check_tuple_budget(samples, budget_tuples)
    # LadderSpec refuses n < 0, and the gate a huge n, before 2**n is formed
    if not 0 <= n < EXACT_COUNT_BITS:
        check_ladder_budget(LadderSpec(n, 1), budget_upsets)
    least = 2 ** n + 3 + COLLAPSE_SUPPORT_LEVELS
    if depth is None:
        depth = least
    elif depth < least:
        raise ValueError(f"--depth must be >= {least} for collapse, got {depth}")
    spec = LadderSpec(n, depth)
    P = build_ladder(spec, budget_upsets)
    pool = [
        m for m in upset_masks(P, budget_upsets)
        if supported_within(spec, m, COLLAPSE_SUPPORT_LEVELS - 1)
    ]
    failures = []
    for masks in random_tuples(pool, n, samples, seed):
        report = collapse_check(spec, P, masks)
        if not report["bound_satisfied"]:
            failures.append({"colours": upset_lists(masks), "report": report})
    return _report(
        "collapse", failures, n=n, depth=depth, samples=samples, seed=seed,
        support_levels=COLLAPSE_SUPPORT_LEVELS,
    )


def verify_non_colourable(
    n: int,
    depth: int,
    k: Optional[int] = None,
    samples: Optional[int] = None,
    seed: int = DEFAULT_SEED,
    budget_upsets: Optional[int] = None,
    budget_tuples: Optional[int] = None,
) -> dict:
    _check_minimum("k", k)
    _check_minimum("samples", samples)
    scan = non_colourability_scan(
        n, depth, k=k, samples=samples, seed=seed,
        budget_upsets=budget_upsets, budget_tuples=budget_tuples,
    )
    scan["lemma"] = "non-colourable"
    scan["passed"] = scan["coloured_found"] == 0
    return scan


def verify_next_level(
    n: int,
    depth: int,
    samples: int = 100,
    seed: int = DEFAULT_SEED,
    k: Optional[int] = None,
    budget_upsets: Optional[int] = None,
    budget_tuples: Optional[int] = None,
) -> dict:
    """Next-level class bound for seeded random colourings plus the
    canonical colouring. The samples are capped by budget_tuples before the
    ladder is built."""
    _check_minimum("k", k)
    _check_minimum("samples", samples)
    check_tuple_budget(samples, budget_tuples)
    spec = LadderSpec(n, depth)
    P = build_ladder(spec, budget_upsets)
    k = n if k is None else k
    trials = chain(
        [canonical_colouring(n)],
        random_tuples(upset_masks(P, budget_upsets), k, samples, seed),
    )
    failures = []
    for masks in trials:
        if not next_level_bound_check(spec, P, masks):
            failures.append({"colours": upset_lists(masks)})
    return _report(
        "next-level", failures, n=n, depth=depth, k=k, samples=samples, seed=seed
    )


def verify_strictness(
    n: int = 1,
    depths: Sequence[int] = (4, 5, 6, 7, 8),
    budget_upsets: Optional[int] = None,
    budget_tuples: Optional[int] = None,
) -> dict:
    """Constant max n-generated size, growing full algebra, canonical
    generation at every depth. The depths must be strictly increasing: the
    lemma says that the algebra grows with the depth, so a report over
    depths out of order would test their order, not the lemma."""
    from .variety import strictness_report

    depths = list(depths)
    for i, (a, b) in enumerate(zip(depths, depths[1:]), 2):
        if a >= b:
            raise ValueError(
                f"--depths must be strictly increasing; entry {i} is not above"
                f" entry {i - 1}"
            )
    rows = strictness_report(n, depths, budget_upsets, budget_tuples)
    sizes = [r["algebra_size"] for r in rows]
    maxgen = [r["max_k_generated_size"] for r in rows]
    constant = len(set(maxgen)) == 1
    increasing = all(a < b for a, b in zip(sizes, sizes[1:]))
    canonical = all(r["canonical_generates_full"] for r in rows)
    return {
        "lemma": "strictness",
        "n": n,
        "depths": depths,
        "rows": rows,
        "max_generated_constant": constant,
        "algebra_size_strictly_increasing": increasing,
        "canonical_generates_full_everywhere": canonical,
        "passed": constant and increasing and canonical,
    }


def verify_oracle_equivalence(
    corpus: Sequence[Poset],
    gens_per_poset: int = 20,
    seed: int = DEFAULT_SEED,
    budget_upsets: Optional[int] = None,
    budget_tuples: Optional[int] = None,
) -> dict:
    """Table-based closure size against the rank-stratified closure size,
    on the same sampled instances as the rank-type check."""
    from .algebra import algebra_of
    from .subalgebra import generate
    from .variety import subalgebra_closure

    tables = [None, None, None]  # the poset at hand, its algebra, mask -> index

    def check(P, G):
        if tables[0] is not P:
            A = algebra_of(P, budget_upsets)
            index = {m: i for i, m in enumerate(upset_masks(P, budget_upsets))}
            tables[:] = P, A, index
        _, A, index = tables
        table_size = len(subalgebra_closure(A, [index[m] for m in G]))
        strata_size = len(generate(P, G, budget_upsets).elements)
        if table_size != strata_size:
            return {"table_size": table_size, "strata_size": strata_size}
        return None

    return _sampled_lemma(
        "oracle-equivalence", corpus, gens_per_poset, seed, budget_upsets, check,
        budget_tuples=budget_tuples,
    )


def _verify_canonical_entry(
    n: Optional[int] = None,
    depth: Optional[int] = None,
    budget_upsets: Optional[int] = None,
) -> dict:
    if n is None:
        if depth is not None:
            raise ValueError("--depth needs --n")
        return verify_canonical_range(budget_upsets=budget_upsets)
    max_depth = depth if depth is not None else _canonical_depth(n)
    return verify_canonical_range(cases=((n, max_depth),), budget_upsets=budget_upsets)


# A lemma option: the type its flag reads (--depths: a comma-separated list),
# the least value run_verification accepts (None: any), its --help text.
Option = NamedTuple("Option", [("type", type), ("least", Optional[int]), ("help", str)])

# Every lemma option, in the order `verify --help` lists them.
OPTIONS = {
    "corpus": Option(str, None, "e.g. " + DEFAULT_CORPUS),
    "n": Option(int, None, "Number of colours n (ladder width 2**n + 1)."),
    "depth": Option(int, 1, "Depth of the ladder truncation."),
    "depths": Option(str, None, "Comma-separated depth list."),
    "k": Option(int, 0, "Colours per colouring (default: n)."),
    "samples": Option(int, 0, "Seeded random colourings to check."),
    "gens_per_poset": Option(int, 1, "Generator sets drawn per poset (default: 20)."),
    "max_stage": Option(int, 0, "Last refinement stage compared (default: 5)."),
}

_BUDGETS = " budget_upsets budget_tuples"

# The lemmas by CLI name, each with the name of its function, looked up at
# each run so that a rebinding is what is called, and the keywords it takes:
# its options (a trailing "!" marks one it needs), corpus, seed, budgets.
LEMMAS = {
    "residuation": ("verify_residuation", "corpus" + _BUDGETS),
    "rank-type": ("verify_rank_type", "corpus gens_per_poset max_stage seed" + _BUDGETS),
    "duality": ("verify_duality", "corpus gens_per_poset seed" + _BUDGETS),
    "canonical": ("_verify_canonical_entry", "n depth budget_upsets"),
    "collapse": ("verify_collapse", "n! samples depth seed" + _BUDGETS),
    "non-colourable": ("verify_non_colourable", "n! depth! k samples seed" + _BUDGETS),
    "next-level": ("verify_next_level", "n! depth! samples k seed" + _BUDGETS),
    "strictness": ("verify_strictness", "n depths" + _BUDGETS),
    "oracle": ("verify_oracle_equivalence", "corpus gens_per_poset seed" + _BUDGETS),
}


def _flag(param: str) -> str:
    return "--" + param.replace("_", "-")


def _check_minimum(key: str, value: Optional[int], least: Optional[int] = None) -> None:
    """Refuse value below least, by default the option's least in OPTIONS."""
    least = OPTIONS[key].least if least is None else least
    if None not in (value, least) and value < least:
        raise ValueError(f"{_flag(key)} must be >= {least}, got {value}")


def run_verification(
    name: str,
    corpus: Optional[str] = None,
    seed: Optional[int] = None,
    budget_upsets: Optional[int] = None,
    budget_tuples: Optional[int] = None,
    **options,
) -> dict:
    """Dispatch a verification by its CLI name.

    A lemma that takes a corpus gets the posets of corpus, the default
    corpus when corpus is None, built only once the lemma has checked its
    budget against their number; seed and the budgets go to every lemma that
    takes them. An option left None is not given. A ValueError names the
    flag of an option the lemma does not take, lacks or gets out of range.
    """
    if name not in LEMMAS:
        raise ValueError(f"unknown lemma {name!r}")
    fn_name, takes = LEMMAS[name]
    names = takes.replace("!", "").split()
    kwargs = {key: value for key, value in options.items() if value is not None}
    if corpus is not None:
        kwargs["corpus"] = corpus
    for key, value in kwargs.items():
        if key not in names:
            raise ValueError(f"lemma {name!r} does not take {_flag(key)}")
        _check_minimum(key, value)
    for key in takes.split():
        if key[-1] == "!" and key[:-1] not in kwargs:
            raise ValueError(f"lemma {name!r} needs {_flag(key[:-1])}")
    if "corpus" in names:
        from .corpus import SpecCorpus

        kwargs["corpus"] = SpecCorpus(corpus or DEFAULT_CORPUS)
    given = dict(seed=seed, budget_upsets=budget_upsets, budget_tuples=budget_tuples)
    kwargs.update((k, v) for k, v in given.items() if v is not None and k in names)
    return globals()[fn_name](**kwargs)
