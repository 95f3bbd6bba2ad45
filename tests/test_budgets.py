"""The budget gates: each admits a count equal to its cap and refuses one
past it with over_budget's one-line message, and the decision of what a
missing budget means and when a count is past its cap lives in heylab.poset.
"""

import ast
from pathlib import Path

import pytest

import heylab
from heylab.algebra import algebra_of, check_heyting_laws
from heylab.corpus import all_posets_up_to_iso
from heylab.errors import BudgetExceeded
from heylab.ladder import LadderSpec, build_ladder
from heylab.poset import upset_masks, validate
from heylab.subalgebra import generate, quotient_size
from heylab.variety import algebra_product
from heylab.verify import verify_rank_type, verify_residuation, verify_strictness

PACKAGE = Path(heylab.__file__).resolve().parent


def antichain3():
    # a fresh poset each call, so that no upsets are cached on it
    return validate(["a", "b", "c"], [])


def fork_algebra():
    return algebra_of(validate(["b", "l", "r"], [(0, 1), (0, 2)]))


def cached_upsets(budget):
    P = antichain3()
    upset_masks(P)
    return upset_masks(P, budget)


SINGLETONS = (1, 2, 4)
UPSETS, TUPLES = "--budget-upsets", "--budget-tuples"

# (a call given the budget, the count its gate meets, what, flag)
GATES = {
    "fresh-upsets": (lambda b: upset_masks(antichain3(), b), 8, "upsets", UPSETS),
    "cached-upsets": (cached_upsets, 8, "upsets", UPSETS),
    "algebra-table": (
        lambda b: algebra_of(antichain3(), b), 64, "entries per algebra table", UPSETS
    ),
    "product-table": (
        lambda b: algebra_product(fork_algebra(), fork_algebra(), b),
        625, "entries per product table", UPSETS,
    ),
    # 6 points and 5 rule pairs
    "ladder-points": (
        lambda b: build_ladder(LadderSpec(2, 1), b), 6, "ladder points", UPSETS
    ),
    # 10 points and 32 rule pairs
    "ladder-pairs": (
        lambda b: build_ladder(LadderSpec(1, 3), b), 32, "ladder pairs", UPSETS
    ),
    "generate": (lambda b: generate(antichain3(), SINGLETONS, b), 8, "upsets", UPSETS),
    # the constants alone, checked as the closure starts
    "generate-constants": (
        lambda b: generate(validate(["p"], []), (), b), 2, "upsets", UPSETS
    ),
    "quotient": (
        lambda b: quotient_size(antichain3(), SINGLETONS, b), 8, "upsets", UPSETS
    ),
    # the 8 posets on 3 points have 195 (b, c) pairs in all
    "residuation-pairs": (
        lambda b: verify_residuation(all_posets_up_to_iso(3), budget_tuples=b),
        195, "(b, c) pairs", TUPLES,
    ),
    # 8 posets x 2 draws x 2 stages
    "sampled-checks": (
        lambda b: verify_rank_type(
            all_posets_up_to_iso(3), gens_per_poset=2, max_stage=1, budget_tuples=b
        ),
        32, "checks", TUPLES,
    ),
    # 27 upsets at depth 3, so 27 one-upset multisets
    "strictness-multisets": (
        lambda b: verify_strictness(1, [3], budget_tuples=b), 27, "tuples", TUPLES
    ),
    # 8 elements, so 512 element triples
    "heyting-laws": (
        lambda b: check_heyting_laws(algebra_of(antichain3()), b), 512, "tuples", TUPLES
    ),
}


@pytest.mark.parametrize("run, count, what, flag", GATES.values(), ids=list(GATES))
def test_gate_admits_its_cap_and_refuses_one_less(run, count, what, flag):
    run(count)
    with pytest.raises(BudgetExceeded) as caught:
        run(count - 1)
    assert str(caught.value) == f"{count} {what} exceed the budget of {count - 1} ({flag})"


def _name(node):
    """The name a Name, an attribute, an import alias or a def stands for."""
    return getattr(node, "id", None) or getattr(node, "attr", None) or getattr(
        node, "name", None
    )


def _nodes():
    """(module, enclosing top-level function or None, node) for every node
    of every module of the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            function = top.name if isinstance(top, ast.FunctionDef) else None
            for node in ast.walk(top):
                yield path.stem, function, node


def test_default_caps_are_named_only_in_poset_and_the_help():
    named = {
        module for module, _, node in _nodes()
        if _name(node) in ("DEFAULT_UPSET_BUDGET", "DEFAULT_TUPLE_BUDGET")
    }
    assert named == {"poset", "cli"}


def test_only_the_gate_and_the_hot_loops_raise_over_budget():
    calls = [
        (module, function, node) for module, function, node in _nodes()
        if isinstance(node, ast.Call) and _name(node.func) == "over_budget"
    ]
    sites = {(m, f) for m, f, _ in calls if m != "poset"}
    assert sites == {("subalgebra", "_lattice_close"), ("ladder", "check_ladder_budget")}
    # the ladder's one call is its exponent gate, which writes the count as text
    (ladder_call,) = [node for m, _, node in calls if m == "ladder"]
    assert isinstance(ladder_call.args[0], ast.JoinedStr)
