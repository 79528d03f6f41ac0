"""Exact one-dimensional discrepancy and a Koksma-type inequality check.

The supremum defining the extreme discrepancy runs over all subintervals
of the given range, with every combination of endpoint inclusion; since
the point masses are atoms, closed degenerate intervals [v, v] are
admissible and the supremum is always attained at intervals whose
endpoints are point values or range endpoints.

A PointSet is sorted integer numerators over one denominator, so the
number of points below a value is a position in them: a bisection, or
read off in one pass over them.  The sweeps rescale them once, to the
lcm L of that denominator and the range's, and score each term at scale
M * L for M points: scaling keeps every comparison and tie, so value
and witness are exact, and only they are built as Fractions.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import Iterable, Sequence

from .core import Rational, Record, _units
from .errors import (DISCREPANCY_LIMIT, BadRange, BadSpec, EmptySet,
                     LimitExceeded)
from .weight import IntervalQ


class PointSet(Record):
    """Multiset of the points v / scale in [0, 1], v in sorted values."""

    __slots__ = ("scale", "values")

    def __init__(self, scale: int, values: tuple[int, ...]) -> None:
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "values", values)
        if scale < 1 or list(values) != sorted(values):
            raise BadRange("need scale >= 1 and sorted values")
        if values and not 0 <= values[0] <= values[-1] <= scale:
            raise BadRange("points must lie in [0, 1]")

    @property
    def points(self) -> tuple[Fraction, ...]:
        """The points as Fractions, in ascending order."""
        return tuple(Fraction(v, self.scale) for v in self.values)

    @classmethod
    def from_values(cls, values: Iterable[Rational]) -> "PointSet":
        L, V = _scaled([Fraction(v) for v in values])
        return cls(L, tuple(sorted(V)))

    @classmethod
    def reduced_fractions(cls, N: int) -> "PointSet":
        """The set {a/N : a in Z_N*} as points in (0, 1).

        N above DISCREPANCY_LIMIT raises LimitExceeded before anything is
        allocated.
        """
        if N < 2:
            raise BadRange(f"need N >= 2, got {N}")
        if N > DISCREPANCY_LIMIT:
            raise LimitExceeded(f"reduced fractions capped at N = "
                                f"{DISCREPANCY_LIMIT}")
        return cls(N, tuple(_units(N, 1, N)))

    def __len__(self) -> int:
        return len(self.values)

    def count(self, iv: IntervalQ) -> int:
        """Number of points in iv, honouring its open or closed ends."""
        # for x = p/q, #{v <= x scale} is bisect_right at floor(p scale / q)
        # and #{v < x scale} at floor((p scale - 1) / q)
        lo, hi = ((x.numerator * self.scale - strict) // x.denominator
                  for x, strict in ((iv.lo, iv.lo_closed),
                                    (iv.hi, not iv.hi_closed)))
        return bisect_right(self.values, hi) - bisect_right(self.values, lo)


class DiscrepancyReport(Record):
    __slots__ = ("value", "witness")


def _scaled(values: Sequence[Rational]) -> tuple[int, list[int]]:
    """(L, [x * L for x in values]) with L the lcm of their denominators."""
    L = math.lcm(*{x.denominator for x in values})
    return L, [x.numerator * (L // x.denominator) for x in values]


def star_discrepancy(ps: PointSet) -> DiscrepancyReport:
    """Sup over anchored intervals [0, t) of |count/M - t|, exact."""
    M, L = len(ps), ps.scale
    if M == 0:
        raise EmptySet("star discrepancy needs at least one point")
    best = -M * L
    witness = None
    for i, x in enumerate(ps.values, start=1):
        over = i * L - x * M
        under = x * M - (i - 1) * L
        if over > best:
            best, witness = over, (x, True)
        if under > best:
            # [0, 0) is empty, so x = 0 takes [0, 0]
            best, witness = under, (x, x == 0)
    x, hi_closed = witness
    return DiscrepancyReport(Fraction(best, M * L),
                             IntervalQ(Fraction(0), Fraction(x, L), True,
                                       hi_closed))


def extreme_discrepancy(ps: PointSet, rng: IntervalQ) -> DiscrepancyReport:
    """Sup over all subintervals I of rng of |count(I)/M - measure(I)|.

    Two sweeps.  The excess side is maximized by a closed interval whose
    endpoints are point values inside rng; writing the objective as
    (C(<=v_j)/M - v_j) + (v_i - C(<v_i)/M) splits it into independent
    endpoint terms, so a prefix-max pass finds the best pair.  The deficit
    side is maximized by an open interval with endpoints among the point
    values and the range endpoints, split the same way.

    Both sweeps score their terms at scale M * L (see the module
    docstring).  The counts come from one pass over the sorted numerators,
    so the cost is O(M).  Rescaled, the M numerators take about
    M * L.bit_length() bits; above DISCREPANCY_LIMIT * 64 this raises
    LimitExceeded before any is rescaled.
    """
    M = len(ps)
    if M == 0:
        raise EmptySet("extreme discrepancy needs at least one point")
    if rng.lo < 0 or rng.hi > 1:
        raise BadRange(f"range {rng} not within [0, 1]")
    if rng.measure == 0:
        raise BadRange("range must have positive measure")
    L = math.lcm(ps.scale, rng.lo.denominator, rng.hi.denominator)
    if M * L.bit_length() > DISCREPANCY_LIMIT * 64:
        raise LimitExceeded(f"discrepancy sweep capped at "
                            f"{DISCREPANCY_LIMIT * 64} bits, got {M} points "
                            f"of {L.bit_length()} bits once rescaled")
    k = L // ps.scale
    V = [v * k for v in ps.values] if k > 1 else ps.values
    lo, hi = int(rng.lo * L), int(rng.hi * L)
    # levels (v, #V < v, #V <= v) for lo, each distinct point value v with
    # lo < v < hi, and hi; #V <= v is the position after the last copy of v,
    # and no point lies between two levels, so #V < v is #V <= v of the
    # level before
    i, j = bisect_right(V, lo), bisect_left(V, hi)
    levels = [(lo, bisect_left(V, lo), i)]
    for n in range(i, j):
        if n + 1 == j or V[n + 1] != V[n]:
            levels.append((V[n], levels[-1][2], n + 1))
    levels.append((hi, levels[-1][2], bisect_right(V, hi)))
    best = -M * L
    witness = None

    # excess: closed [v_i, v_j], i <= j, over point values inside rng
    best_b = -10 * M * L
    best_lo = None
    for v, lt, le in levels:
        if lt == le or (v == lo and not rng.lo_closed) or (
                v == hi and not rng.hi_closed):
            continue
        b = v * M - lt * L
        if b > best_b:
            best_b, best_lo = b, v
        a = le * L - v * M
        if a + best_b > best:
            best = a + best_b
            witness = (best_lo, v, True)

    # deficit: open (lo, hi)
    best_d = -10 * M * L
    best_lo = None
    for v, lt, le in levels:
        # the open interval needs lo < hi, so score hi = v against the best
        # lo seen strictly earlier before admitting v as a lo candidate
        if best_lo is not None:
            e = v * M - lt * L
            if e + best_d > best:
                best = e + best_d
                witness = (best_lo, v, False)
        d = le * L - v * M
        if d > best_d:
            best_d, best_lo = d, v
    w_lo, w_hi, closed = witness
    return DiscrepancyReport(Fraction(best, M * L),
                             IntervalQ(Fraction(w_lo, L), Fraction(w_hi, L),
                                       closed, closed))


def reduced_fraction_discrepancy(N: int, rng: IntervalQ) -> DiscrepancyReport:
    """Extreme discrepancy of the reduced fractions a/N within rng."""
    return extreme_discrepancy(PointSet.reduced_fractions(N), rng)


#: Marks an invariant of a StepFn that is not yet computed.
_UNSET = object()


class StepFn:
    """Rational step function given as (interval, value) pieces.

    Pieces may overlap; the value at a point is the sum over pieces that
    contain it.  This matches how the digit-counting weight is built from
    its two interval families.

    A StepFn is immutable, so each invariant (integral, support,
    variation, the values scaled to integers) is computed on its first
    use and kept.
    """

    __slots__ = ("pieces", "_integral", "_support", "_variation", "_values")

    def __init__(self, pieces: Iterable[tuple[IntervalQ, Rational]]):
        checked = []
        for iv, v in pieces:
            if not isinstance(iv, IntervalQ):
                raise BadSpec("each piece needs an IntervalQ")
            if iv.lo < 0 or iv.hi > 1:
                raise BadSpec(f"piece {iv} not within [0, 1]")
            checked.append((iv, Fraction(v)))
        object.__setattr__(self, "pieces", tuple(checked))
        for name in self.__slots__[1:]:
            object.__setattr__(self, name, _UNSET)

    __setattr__ = Record.__setattr__
    __delattr__ = Record.__delattr__

    def __reduce__(self):
        return type(self), (self.pieces,)

    def _keep(self, name: str, value) -> None:
        object.__setattr__(self, name, value)

    def __call__(self, x) -> Fraction:
        x = Fraction(x)
        return sum((v for iv, v in self.pieces if iv.contains(x)),
                   start=Fraction(0))

    def integral(self) -> Fraction:
        if self._integral is _UNSET:
            total = sum((v * iv.measure for iv, v in self.pieces),
                        start=Fraction(0))
            self._keep("_integral", total)
        return self._integral

    def support(self) -> IntervalQ | None:
        """Closed hull of the pieces whose value is not zero, or None.

        The function vanishes outside it.  Pieces of nonzero values may
        still cancel, so the function need not be nonzero at its ends.
        """
        if self._support is _UNSET:
            live = [iv for iv, v in self.pieces if v != 0]
            hull = (IntervalQ(min(iv.lo for iv in live),
                              max(iv.hi for iv in live), True, True)
                    if live else None)
            self._keep("_support", hull)
        return self._support

    def _scaled(self) -> tuple[int, list[int]]:
        """(W, [v * W for each piece value v]), W the lcm of their
        denominators."""
        if self._values is _UNSET:
            self._keep("_values", _scaled([v for _, v in self.pieces]))
        return self._values

    def variation(self) -> Fraction:
        """Total variation on [0, 1], exact.

        A step function with rational breakpoints c_0 = 0 < ... < c_K = 1
        (the piece endpoints, 0 and 1) is constant on each open gap between
        them, so it is the sequence of values at c_0, on (c_0, c_1), at
        c_1, ..., at c_K.  A piece adds its value to a run of that sequence,
        so one difference array over the sequence holds every jump, and
        the variation is the sum of their absolute values.  Breakpoints
        and values are scaled to integers by the lcm of their denominators.
        """
        if self._variation is _UNSET:
            L, E = _scaled([e for iv, _ in self.pieces
                            for e in (iv.lo, iv.hi)])
            W, ws = self._scaled()
            # breakpoint j sits at position 2j, the gap after it at 2j + 1
            at = {c: 2 * j for j, c in enumerate(sorted(set(E) | {0, L}))}
            jumps = [0] * (len(at) * 2)
            for (iv, _), w, lo, hi in zip(self.pieces, ws, E[::2], E[1::2]):
                jumps[at[lo] + (not iv.lo_closed)] += w
                jumps[at[hi] + iv.hi_closed] -= w
            self._keep("_variation", Fraction(sum(map(abs, jumps[1:-1])), W))
        return self._variation


def koksma_check(g: StepFn, ps: PointSet) -> bool:
    """|mean of g over ps - integral of g| <= V(g) * extreme discrepancy.

    The discrepancy is taken over the support of g; a zero function passes
    trivially.  A support [v, v] of one point has the closed count of v
    over M as its discrepancy, since [v, v] is its only nonempty
    subinterval.
    """
    M = len(ps)
    if M == 0:
        raise EmptySet("koksma check needs at least one point")
    supp = g.support()
    # g summed over the points, piece by piece: value times points held,
    # in integers over the lcm W of the values
    W, ws = g._scaled()
    mean = Fraction(sum(w * ps.count(iv) for (iv, _), w in zip(g.pieces, ws)),
                    W * M)
    lhs = abs(mean - g.integral())
    if supp is None:
        return lhs == 0
    if supp.measure == 0:
        disc = Fraction(ps.count(supp), M)
    else:
        disc = extreme_discrepancy(ps, supp).value
    return lhs <= g.variation() * disc
