"""Exception types shared across the package."""


class FmbsError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(FmbsError):
    """Operands have incompatible shapes."""


class NonFiniteInput(FmbsError, ValueError):
    """A matrix or vector operand holds a NaN or infinite entry."""


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


class InvalidParameter(FmbsError, ValueError):
    """A scalar argument (shift, noise variance, trial count, file format) is out of range."""


class InvalidSampleSet(FmbsError, ValueError, IndexError):
    """A sample set is empty, not integral, out of range or repeats an index.

    It is both a ValueError and an IndexError, so a handler written for
    either builtin catches every case.
    """
