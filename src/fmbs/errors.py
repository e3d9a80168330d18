"""Exception types shared across the package."""


class FmbsError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(FmbsError):
    """Operands have incompatible shapes."""


class NonFiniteInput(FmbsError, ValueError):
    """A matrix operand holds a NaN or infinite entry."""


class NotPositiveDefinite(FmbsError):
    """A matrix required to be symmetric positive definite is not."""


class DegenerateSchur(FmbsError):
    """A Schur complement fell to or below the positivity floor."""


class BudgetError(FmbsError):
    """The requested sample budget cannot be satisfied."""


class TooLarge(FmbsError):
    """The problem size exceeds a hard enumeration guard."""


class ParseError(FmbsError):
    """A matrix file is malformed."""


class InvalidSpec(FmbsError):
    """A generator specification is invalid."""
