"""Exception hierarchy shared by all cfq modules."""


class CfqError(Exception):
    """Base class for all domain errors raised by cfq."""


class InvalidFraction(CfqError):
    """Numerator/denominator pair is not a reduced fraction in (0, 1)."""


class InvalidWindow(CfqError):
    """Digit window violates 1 <= eta <= theta."""


class InvalidWeight(CfqError):
    """Weight function is negative or decreasing on the queried window."""


class NotCoprime(CfqError):
    """Arguments required to be coprime are not."""


class BadDigit(CfqError):
    """Partial-quotient argument outside its admissible range."""


class WrongHalf(CfqError):
    """Reflection applied to a numerator from the wrong half of Z_N*."""


class EmptySet(CfqError):
    """Operation requires a non-empty point set."""


class BadRange(CfqError):
    """Interval argument is degenerate or not contained in [0, 1]."""


class BadSpec(CfqError):
    """Malformed step-function or statistic specification."""


class InvalidSpec(BadSpec):
    """Statistic selector with out-of-range parameters."""


class LimitExceeded(CfqError):
    """Input beyond the documented size limit of an operation."""


class InvariantError(CfqError):
    """An internal consistency check failed: a bug, or unvalidated input."""
