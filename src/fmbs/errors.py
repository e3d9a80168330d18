"""Exception types shared across the package.

``InputError`` is the base of every error that blames the caller's input:
a shape, entry, scalar, sample set, budget, specification or file.  The
other FmbsError subclasses report a selection or an evaluation that
failed on input that passed every check.
"""


class FmbsError(Exception):
    """Base class for every error raised by this package."""


class InputError(FmbsError):
    """Base class for the errors that blame the input."""


class DimensionError(InputError):
    """Operands have incompatible shapes."""


class NonFiniteInput(InputError, ValueError):
    """A matrix or vector operand holds an entry that is not a finite number."""


class NotPositiveDefinite(FmbsError):
    """A matrix required to be symmetric positive definite is not."""


class DegenerateSchur(FmbsError):
    """A Schur complement fell to or below the positivity floor.

    Past depth K, fmbs raises it also when its K-space state overflows.
    """


class BudgetError(InputError):
    """The requested sample budget cannot be satisfied."""


class TooLarge(FmbsError):
    """The problem size exceeds a hard enumeration guard."""


class ParseError(InputError):
    """A matrix file is malformed."""


class InvalidSpec(InputError):
    """A generator specification is invalid."""


class InvalidParameter(InputError, ValueError):
    """A scalar argument (shift, noise variance, seed, count, file format) is out of range."""


class InvalidSampleSet(InputError, ValueError, IndexError):
    """A sample set is empty, not integral, out of range or repeats an index.

    It is both a ValueError and an IndexError, so a handler written for
    either builtin catches every case.
    """
