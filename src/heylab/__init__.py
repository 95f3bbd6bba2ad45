"""heylab: Heyting algebras of upsets over finite posets, type-refinement
colourings, rank-stratified subalgebra generation, and ladder-space
experiments."""

from .algebra import (
    FiniteHeytingAlgebra,
    algebra_of,
)
from .colouring import find_k_colouring, stage_types
from .errors import (
    BudgetExceeded,
    CycleError,
    EmptyPoset,
    ForeignElement,
    ForeignPoint,
    HeylabError,
    InvalidAlgebra,
    PosetMismatch,
    SupportTooDeep,
)
from .ladder import (
    LadderSpec,
    build_ladder,
    canonical_colouring,
    collapse_check,
    next_level_bound_check,
    verify_canonical,
)
from .poset import (
    Poset,
    poset_from_json,
    poset_to_dot,
    poset_to_json,
    validate,
)
from .subalgebra import (
    RankedAlgebra,
    generate,
    quotient_size,
)
from .variety import algebra_product, strictness_report

__version__ = "0.1.0"
