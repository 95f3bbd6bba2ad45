"""Exception types shared across the package."""


class HeylabError(Exception):
    """Base class for all heylab errors."""


class EmptyPoset(HeylabError):
    """Raised when a poset would have no points."""


class CycleError(HeylabError):
    """Raised when the closure of an order relation violates antisymmetry."""


class ForeignPoint(HeylabError):
    """Raised when a point does not belong to the poset at hand."""


class PosetMismatch(HeylabError):
    """Raised when a colouring is used with a different poset."""


class BudgetExceeded(HeylabError):
    """Raised when an enumeration or search exceeds its configured cap."""


class InvalidAlgebra(HeylabError):
    """Raised when algebra tables are malformed or index outside the algebra."""


class ForeignElement(HeylabError):
    """Raised when an element index does not belong to the algebra."""


class SupportTooDeep(HeylabError):
    """Raised when a colouring's support leaves no colour-free tail levels."""
