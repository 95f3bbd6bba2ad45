"""heylab: Heyting algebras of upsets over finite posets, type-refinement
colourings, rank-stratified subalgebra generation, and ladder-space
experiments.

The public names below load their home module on first use (PEP 562), so
`import heylab`, and each CLI command, compiles only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# home module -> the public names it gives the package
_HOMES = {
    "algebra": ("FiniteHeytingAlgebra", "algebra_of"),
    "colouring": ("find_k_colouring", "stage_types"),
    "errors": (
        "BudgetExceeded",
        "CycleError",
        "EmptyPoset",
        "ForeignElement",
        "ForeignPoint",
        "HeylabError",
        "InvalidAlgebra",
        "PosetMismatch",
        "SupportTooDeep",
    ),
    "ladder": (
        "LadderSpec",
        "build_ladder",
        "canonical_colouring",
        "collapse_check",
        "next_level_bound_check",
        "verify_canonical",
    ),
    "poset": ("Poset", "poset_from_json", "poset_to_dot", "poset_to_json", "validate"),
    "subalgebra": ("RankedAlgebra", "generate", "quotient_size"),
    "variety": ("algebra_product", "strictness_report"),
}
_HOME_OF = {name: home for home, names in _HOMES.items() for name in names}


def __getattr__(name: str):
    home = _HOME_OF.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOME_OF})
