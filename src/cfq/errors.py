"""Exception hierarchy, size limits and kind names shared by cfq modules."""


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


# The size limits and kind names live here, beside the errors they raise, so
# the CLI's help and choices can quote them without loading their modules.

#: The kinds of ensemble.StatSpec, and the built-in kinds of core.WeightFn.
STAT_KINDS = ("S", "M", "L", "S_alt", "D", "restricted")
WEIGHT_KINDS = ("one", "identity", "square")

#: Largest N of scan and digit_histogram.  Each worker's range is one
#: core._unit_table of a byte per numerator, N/2 bytes at 1 worker, and a
#: scan keeps one tail table of about N^(2/3) entries per list: an S scan
#: peaked at 68 MB at N = 10^8, 70 MB at the prime 99,999,989 and 22 MB
#: at 10^7.  Time grows with N: 3.5-4 s on one CPU at 10^7, 20-51 s at
#: 10^8.
SCAN_LIMIT = 10 ** 8

#: Most digits m in one table or sum: the m_max of digit_histogram (each
#: worker allocates m_max + 2 counters, and the result holds five
#: m_max-entry tables), and the windows [eta, theta] and [b, c] that
#: constants and mu_window sum over (under 0.5 s at 10^5 on one CPU).
HISTOGRAM_LIMIT = 10 ** 5

#: Full enumeration only; beyond this denominator the searches refuse to run.
SEARCH_LIMIT = 10 ** 7

#: Largest order Q of the Farey limit-law comparisons: F_Q has about
#: 3 Q^2 / pi^2 members (3 * 10^7 at the limit), scanned Z_N* by Z_N*.
FAREY_LIMIT = 10 ** 4

#: Largest N for the discrepancy point set {a/N : a in Z_N*}: its
#: phi(N) < 10^6 points take about 160 MB and 1.5 s to build and sweep on
#: one CPU.  The extreme-discrepancy sweep rescales its M points to L, the
#: lcm of their denominator and the range's, and refuses to when
#: M * L.bit_length() exceeds DISCREPANCY_LIMIT * 64 bits, what the largest
#: permitted point set takes at word size, so a range with a huge
#: denominator cannot make it allocate gigabytes.
DISCREPANCY_LIMIT = 10 ** 6

#: Most decimal digits of a numerator or denominator that discrepancy
#: prints: Python's default bound on converting an int to a string, so a
#: larger result is refused with exit 4 before anything is written,
#: whatever bound the interpreter is set to.
PRINT_DIGITS_LIMIT = 4300

#: The direct Dedekind sum walks all residues once; beyond this it is
#: pointless next to the closed form.
DIRECT_LIMIT = 10 ** 6


class InvariantError(CfqError):
    """An internal consistency check failed: a bug, or unvalidated input."""
