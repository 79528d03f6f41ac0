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

    def __init__(self, scale: int, values: Iterable[int]) -> None:
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "values", values := tuple(values))
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

    One pass over the levels: lo, each distinct point value strictly
    inside rng, and hi.  The objective splits into independent endpoint
    terms, x = v M - #(V < v) L and y = #(V <= v) L - v M at scale M * L,
    so each level computes both once and is scored against the best low
    end seen so far.  The excess side is a closed [u, v], u <= v, over
    point values inside rng: a low-end x plus a high-end y.  The deficit
    side is an open (u, v), u < v, over the levels: a low-end y plus a
    high-end x.  Each side keeps its first best pair, and the excess wins
    a tie.

    The terms are exact at scale M * L (see the module docstring).  The
    counts come from one pass over the sorted numerators, so the cost is
    O(M).  Rescaled, the M numerators take about M * L.bit_length() bits;
    above DISCREPANCY_LIMIT * 64 this raises LimitExceeded before any is
    rescaled.
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
    # low ends start below any real pair: their placeholder lo never wins
    low_x = low_y = -10 * M * L
    at_x = at_y = lo
    ex = de = -M * L
    ex_at = de_at = None
    for v, lt, le in levels:
        x, y = v * M - lt * L, le * L - v * M
        # deficit: score v as a high end before admitting it as a low end
        if x + low_y > de:
            de, de_at = x + low_y, (at_y, v)
        if y > low_y:
            low_y, at_y = y, v
        # excess: only point values inside rng are ends
        if lt < le and (v != lo or rng.lo_closed) and (
                v != hi or rng.hi_closed):
            if x > low_x:
                low_x, at_x = x, v
            if y + low_x > ex:
                ex, ex_at = y + low_x, (at_x, v)
    closed = ex >= de  # the excess wins a tie
    best, (w_lo, w_hi) = (ex, ex_at) if closed else (de, de_at)
    return DiscrepancyReport(Fraction(best, M * L),
                             IntervalQ(Fraction(w_lo, L), Fraction(w_hi, L),
                                       closed, closed))


def reduced_fraction_discrepancy(N: int, rng: IntervalQ) -> DiscrepancyReport:
    """Extreme discrepancy of the reduced fractions a/N within rng."""
    return extreme_discrepancy(PointSet.reduced_fractions(N), rng)


def _jump_variation(pieces, W: int, ws) -> Fraction:
    """Total variation on [0, 1] of the step function of pieces, whose
    values are ws / W, exact.

    A step function with rational breakpoints c_0 = 0 < ... < c_K = 1
    (the piece endpoints, 0 and 1) is constant on each open gap between
    them, so it is the sequence of values at c_0, on (c_0, c_1), at
    c_1, ..., at c_K.  A piece adds its value to a run of that sequence,
    so one difference array over the sequence holds every jump, and
    the variation is the sum of their absolute values.  Breakpoints
    are scaled to integers by the lcm of their denominators.
    """
    L, E = _scaled([e for iv, _ in pieces for e in (iv.lo, iv.hi)])
    # breakpoint j sits at position 2j, the gap after it at 2j + 1
    at = {c: 2 * j for j, c in enumerate(sorted(set(E) | {0, L}))}
    jumps = [0] * (len(at) * 2)
    for (iv, _), w, lo, hi in zip(pieces, ws, E[::2], E[1::2]):
        jumps[at[lo] + (not iv.lo_closed)] += w
        jumps[at[hi] + iv.hi_closed] -= w
    return Fraction(sum(map(abs, jumps[1:-1])), W)


class StepFn(Record):
    """Rational step function given as (interval, value) pieces.

    Pieces may overlap; the value at a point is the sum over pieces that
    contain it.  This matches how the digit-counting weight is built from
    its two interval families.

    A StepFn is built from its pieces alone, and __init__ computes its
    invariants as fields: the integral, the support, the variation, and
    _scaled, (W, the piece values times W) with W the lcm of their
    denominators.
    """

    __slots__ = ("pieces", "_integral", "_support", "_variation", "_scaled")

    def __init__(self, pieces: Iterable[tuple[IntervalQ, Rational]]):
        checked = []
        for iv, v in pieces:
            if not isinstance(iv, IntervalQ):
                raise BadSpec("each piece needs an IntervalQ")
            if iv.lo < 0 or iv.hi > 1:
                raise BadSpec(f"piece {iv} not within [0, 1]")
            checked.append((iv, Fraction(v)))
        pieces = tuple(checked)
        W, ws = _scaled([v for _, v in pieces])
        live = [iv for iv, v in pieces if v != 0]
        super().__init__(
            pieces,
            sum((v * iv.measure for iv, v in pieces), start=Fraction(0)),
            IntervalQ(min(iv.lo for iv in live), max(iv.hi for iv in live),
                      True, True) if live else None,
            _jump_variation(pieces, W, ws), (W, tuple(ws)))

    def __reduce__(self):
        return type(self), (self.pieces,)

    def __call__(self, x) -> Fraction:
        x = Fraction(x)
        return sum((v for iv, v in self.pieces if iv.contains(x)),
                   start=Fraction(0))

    def integral(self) -> Fraction:
        return self._integral

    def support(self) -> IntervalQ | None:
        """Closed hull of the pieces whose value is not zero, or None.

        The function vanishes outside it.  Pieces of nonzero values may
        still cancel, so the function need not be nonzero at its ends.
        """
        return self._support

    def variation(self) -> Fraction:
        """Total variation on [0, 1], exact (see _jump_variation)."""
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
    W, ws = g._scaled
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
