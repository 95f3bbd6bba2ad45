"""heylab: Heyting algebras of upsets over finite posets, type-refinement
colourings, rank-stratified subalgebra generation, and ladder-space
experiments."""

from .algebra import (
    FiniteHeytingAlgebra,
    algebra_of,
    implies,
    join,
    meet,
    neg,
)
from .colouring import (
    Colouring,
    TypePartition,
    find_k_colouring,
    initial_partition,
    min_colours,
    omega_types,
    refine_once,
    stage_types,
)
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
    CollapseReport,
    LadderSpec,
    build_ladder,
    canonical_colouring,
    collapse_check,
    next_level_bound_check,
    verify_canonical,
)
from .poset import (
    Poset,
    Upset,
    down_closure,
    enumerate_upsets,
    maximal_points,
    minimal_points,
    poset_from_json,
    poset_to_dot,
    poset_to_json,
    up_closure,
    validate,
)
from .subalgebra import (
    RankedAlgebra,
    generate,
    quotient_size,
)
from .variety import algebra_product, strictness_report

__version__ = "0.1.0"
