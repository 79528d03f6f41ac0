"""Canonical continued-fraction expansion and per-fraction statistics.

Every fraction a/N handled here is reduced, with 1 <= a <= N-1 and N >= 2.
Expansions use the canonical form [0; a_1, ..., a_r] with a_r >= 2 (for
r >= 2; a single digit equals N and is always >= 2).  cf_walk is the one
full Euclid walk: it yields the digits together with q_{r-1}, the
next-to-last convergent denominator, which fixes the digit-reversed
partner a* and the Dedekind sum.  cf_digits is its digit list; every
statistic of the whole expansion is a fold of that list (sum, max,
count_in, alt_sum, windowed_sum).
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Union

from .errors import InvalidFraction, InvalidWeight, InvalidWindow, LimitExceeded

#: Denominators at or above this limit are rejected by the constructor so
#: that downstream consumers can rely on products q_i * q_{i-1} staying well
#: inside machine-word range in any 128-bit backend they may hand data to.
MAX_DENOMINATOR = 1 << 62

if TYPE_CHECKING:
    from fractions import Fraction

#: An exact value: a scan, search or Farey command builds no Fraction, so
#: this module does not import fractions outside annotations.
Rational = Union[int, "Fraction"]


class Record:
    """Immutable record: equal and hashed by its class and field values.

    A subclass names its fields in __slots__ (at least two, so that their
    values form a tuple).  Record's __init__ binds its arguments, by
    position or keyword, to those fields; a record writes its own __init__
    only to validate its fields, storing them with object.__setattr__ and
    then checking them.  Record adds the Name(field=value, ...) repr,
    pickling and copying through __init__, and AttributeError on
    assignment or deletion.  The records are plain slotted classes rather
    than generated ones: importing the standard library's class generator
    (which loads inspect) and building each class through exec cost about
    25 ms of the start-up of every cfq command.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._values = attrgetter(*cls.__slots__)

    def __init__(self, *args, **kwargs) -> None:
        names = self.__slots__
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} "
                            f"fields, got {len(args)}")
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        for name, value in kwargs.items():
            if name not in names[len(args):]:
                raise TypeError(f"{type(self).__name__} got an unexpected "
                                f"or repeated field {name!r}")
            object.__setattr__(self, name, value)
        if len(args) + len(kwargs) < len(names):
            raise TypeError(f"{type(self).__name__} needs all of "
                            f"{', '.join(names)}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        return (f"{type(self).__qualname__}("
                + ", ".join(f"{name}={getattr(self, name)!r}"
                            for name in self.__slots__) + ")")

    def __setattr__(self, name, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return self.__class__, self._values(self)


class ReducedFraction(Record):
    """A reduced fraction a/N with gcd(a, N) = 1 and 0 < a/N < 1."""

    __slots__ = ("a", "N")

    def __init__(self, a: int, N: int) -> None:
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "N", N)
        if N < 2:
            raise InvalidFraction(f"denominator must be >= 2, got {N}")
        if N >= MAX_DENOMINATOR:
            raise LimitExceeded(f"denominator {N} >= 2^62")
        if not 1 <= a <= N - 1:
            raise InvalidFraction(f"numerator {a} not in [1, {N - 1}]")
        if math.gcd(a, N) != 1:
            raise InvalidFraction(f"gcd({a}, {N}) != 1")


def cf_walk(a: int, N: int) -> tuple[list[int], int]:
    """(digits, q_{r-1}): the canonical partial quotients of a/N and its
    next-to-last convergent denominator (assumes 0 < a < N, gcd = 1)."""
    digits = []
    q0, q1 = 0, 1  # (q_{i-1}, q_i)
    while a:
        d = N // a
        digits.append(d)
        q0, q1 = q1, d * q1 + q0
        N, a = a, N % a
    return digits, q0


def cf_digits(a: int, N: int) -> list[int]:
    """Canonical partial quotients of a/N (assumes 0 < a < N, gcd = 1)."""
    return cf_walk(a, N)[0]


def convergents_of(digits: Sequence[int]) -> list[tuple[int, int]]:
    """Convergent table (p_i, q_i), i = 0..r, with (p_0, q_0) = (0, 1)."""
    table = [(0, 1)]
    p0, q0 = 1, 0  # (p_{-1}, q_{-1})
    p1, q1 = 0, 1
    for d in digits:
        p0, q0, p1, q1 = p1, q1, d * p1 + p0, d * q1 + q0
        table.append((p1, q1))
    return table


class ContinuedFraction(Record):
    """Digit list plus convergent table of one reduced fraction."""

    __slots__ = ("digits", "convergents")

    @property
    def length(self) -> int:
        return len(self.digits)

    @property
    def a(self) -> int:
        return self.convergents[-1][0]

    @property
    def N(self) -> int:
        return self.convergents[-1][1]


def expand(frac: ReducedFraction) -> ContinuedFraction:
    """Canonical expansion of a/N together with its convergent table."""
    digits = cf_digits(frac.a, frac.N)
    return ContinuedFraction(tuple(digits), tuple(convergents_of(digits)))


class Window(Record):
    """Digit window [eta, theta]; theta=None means no upper cutoff."""

    __slots__ = ("eta", "theta")

    def __init__(self, eta: int, theta: Optional[int] = None) -> None:
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "theta", theta)
        if eta < 1:
            raise InvalidWindow(f"eta must be >= 1, got {eta}")
        if theta is not None and theta < eta:
            raise InvalidWindow(f"need eta <= theta, got ({eta}, {theta})")

    def contains(self, m: int) -> bool:
        if m < self.eta:
            return False
        return self.theta is None or m <= self.theta

    def finite_theta(self) -> int:
        if self.theta is None:
            raise InvalidWindow("operation requires a finite upper cutoff")
        return self.theta


class WeightFn:
    """Non-negative, non-decreasing weight f on digit values.

    Built-ins: constant one, identity, square.  Tabulated weights carry
    explicit values on a contiguous digit range and refuse queries outside
    it (no extrapolation).
    """

    __slots__ = ("kind", "table", "table_start")

    def __init__(self, kind: str, table: Optional[Sequence[Rational]] = None,
                 table_start: int = 1):
        if kind not in ("one", "identity", "square", "table"):
            raise InvalidWeight(f"unknown weight kind {kind!r}")
        if kind == "table":
            if not table:
                raise InvalidWeight("tabulated weight needs at least one value")
            from fractions import Fraction
            vals = tuple(Fraction(v) for v in table)
            if any(v < 0 for v in vals):
                raise InvalidWeight("weight values must be non-negative")
            if any(u > v for u, v in zip(vals, vals[1:])):
                raise InvalidWeight("weight values must be non-decreasing")
            self.table = vals
            self.table_start = table_start
        else:
            self.table = None
            self.table_start = table_start
        self.kind = kind

    @classmethod
    def one(cls) -> "WeightFn":
        return cls("one")

    @classmethod
    def identity(cls) -> "WeightFn":
        return cls("identity")

    @classmethod
    def square(cls) -> "WeightFn":
        return cls("square")

    @classmethod
    def from_table(cls, values: Iterable[Rational], start: int = 1) -> "WeightFn":
        return cls("table", table=list(values), table_start=start)

    def __call__(self, m: int) -> Rational:
        if m < 1:
            raise InvalidWeight(f"weights are defined on positive digits, got {m}")
        if self.kind == "one":
            return 1
        if self.kind == "identity":
            return m
        if self.kind == "square":
            return m * m
        idx = m - self.table_start
        if not 0 <= idx < len(self.table):
            raise InvalidWeight(
                f"tabulated weight covers [{self.table_start}, "
                f"{self.table_start + len(self.table) - 1}], queried at {m}")
        return self.table[idx]

    def validate_on(self, window: Window, max_digit: Optional[int] = None) -> None:
        """Check non-negativity/monotonicity on the window (raises InvalidWeight).

        For windows without an upper cutoff the built-ins are monotone by
        construction; a tabulated weight must cover the window up to
        max_digit (the largest digit that can occur, i.e. N).
        """
        if self.kind != "table":
            return
        hi = window.theta if window.theta is not None else max_digit
        if hi is None:
            raise InvalidWeight("tabulated weight needs a finite window")
        end = self.table_start + len(self.table) - 1
        if window.eta < self.table_start or hi > end:
            raise InvalidWeight(
                f"tabulated weight covers [{self.table_start}, {end}], "
                f"window needs [{window.eta}, {hi}]")

    def __repr__(self) -> str:
        if self.kind == "table":
            return f"WeightFn.from_table({list(self.table)}, start={self.table_start})"
        return f"WeightFn({self.kind!r})"


def count_in(digits: Sequence[int], b: int, c: int) -> int:
    """Number of digits in [b, c]."""
    count = 0
    for d in digits:
        if b <= d <= c:
            count += 1
    return count


def alt_sum(digits: Sequence[int]) -> int:
    """sum_i (-1)^i a_i over the digits a_1, a_2, ..."""
    return sum(digits[1::2]) - sum(digits[::2])


def windowed_sum(digits: Sequence[int], f: WeightFn, eta: int,
                 theta: Optional[int]) -> Rational:
    """Sum of f(d) over the digits d with eta <= d <= theta (None: no cap)."""
    total: Rational = 0
    for d in digits:
        if d >= eta and (theta is None or d <= theta):
            total += f(d)
    return total


def stat_sum(cf: ContinuedFraction) -> int:
    """S = sum of all partial quotients."""
    return sum(cf.digits)


def stat_max(cf: ContinuedFraction) -> int:
    """M = largest partial quotient."""
    return max(cf.digits)


def stat_count(cf: ContinuedFraction, b: int, c: int) -> int:
    """L_[b,c] = number of partial quotients in [b, c]."""
    if b < 1 or b > c:
        raise InvalidWindow(f"need 1 <= b <= c, got ({b}, {c})")
    return count_in(cf.digits, b, c)


def stat_alt(cf: ContinuedFraction) -> int:
    """Alternating sum of partial quotients, sum_i (-1)^i a_i."""
    return alt_sum(cf.digits)


def restricted_sum(cf: ContinuedFraction, f: WeightFn, w: Window) -> Rational:
    """Sum of f(a_i) over digits with eta <= a_i <= theta."""
    f.validate_on(w, max_digit=cf.N)
    return windowed_sum(cf.digits, f, w.eta, w.theta)


def even_odd_sums(cf: ContinuedFraction, w: Window) -> tuple[int, int]:
    """(S_e, S_o): windowed digit sums over even resp. odd indices (1-based)."""
    ident = WeightFn.identity()
    return (windowed_sum(cf.digits[1::2], ident, w.eta, w.theta),
            windowed_sum(cf.digits[::2], ident, w.eta, w.theta))
