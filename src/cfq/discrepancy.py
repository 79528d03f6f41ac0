"""Exact one-dimensional discrepancy and a Koksma-type inequality check.

The supremum defining the extreme discrepancy runs over all subintervals
of the given range, with every combination of endpoint inclusion; since
the point masses are atoms, closed degenerate intervals [v, v] are
admissible and the supremum is always attained at intervals whose
endpoints are point values or range endpoints.

The sweeps run on plain integers.  The points and range endpoints are
scaled by L, the lcm of their denominators, and each term is scored at
scale M * L for M points.  Scaling by a positive constant keeps every
comparison and tie, so value and witness are those of the same sweep in
rationals, and the sweeps build a Fraction only for what they return.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .core import Rational
from .errors import BadRange, BadSpec, EmptySet, LimitExceeded
from .weight import IntervalQ

#: Largest N for the point set {a/N : a in Z_N*}: its phi(N) < 10^6 points
#: take about 270 MB and 5 s to build and sweep on one CPU.
DISCREPANCY_LIMIT = 10 ** 6


@dataclass(frozen=True, slots=True)
class PointSet:
    """Sorted multiset of rational points in [0, 1]."""

    points: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        # 0 <= p/q <= 1 with q > 0, compared on the integers
        if any(not 0 <= x.numerator <= x.denominator for x in self.points):
            raise BadRange("points must lie in [0, 1]")

    @classmethod
    def from_values(cls, values: Iterable[Rational]) -> "PointSet":
        return cls(tuple(sorted(Fraction(v) for v in values)))

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
        return cls(tuple(Fraction(a, N) for a in range(1, N)
                         if math.gcd(a, N) == 1))

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True, slots=True)
class DiscrepancyReport:
    value: Fraction
    witness: IntervalQ


def _scaled(values: Sequence[Rational]) -> tuple[int, list[int]]:
    """(L, [x * L for x in values]) with L the lcm of their denominators."""
    L = math.lcm(*{x.denominator for x in values})
    return L, [x.numerator * (L // x.denominator) for x in values]


def _levels(V: Sequence[int], lo: int, hi: int):
    """(v, #V < v, #V <= v) for lo, each distinct v in V with lo < v < hi,
    and hi, in ascending order, from one pass over the sorted V."""
    n, i = len(V), 0
    while i < n and V[i] < lo:
        i += 1
    v = lo
    while True:
        lt = i
        while i < n and V[i] == v:
            i += 1
        yield v, lt, i
        if v == hi:
            return
        v = V[i] if i < n and V[i] < hi else hi


def star_discrepancy(ps: PointSet) -> DiscrepancyReport:
    """Sup over anchored intervals [0, t) of |count/M - t|, exact."""
    M = len(ps)
    if M == 0:
        raise EmptySet("star discrepancy needs at least one point")
    L, V = _scaled(ps.points)
    V.sort()
    best = -M * L
    witness = None
    for i, x in enumerate(V, start=1):
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
    docstring).  The counts come from one pass over the sorted points, so
    the cost is O(M log M), that of the sort.
    """
    M = len(ps)
    if M == 0:
        raise EmptySet("extreme discrepancy needs at least one point")
    if rng.lo < 0 or rng.hi > 1:
        raise BadRange(f"range {rng} not within [0, 1]")
    if rng.measure == 0:
        raise BadRange("range must have positive measure")
    L, (lo, hi, *V) = _scaled((rng.lo, rng.hi, *ps.points))
    V.sort()
    levels = list(_levels(V, lo, hi))
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


class StepFn:
    """Rational step function given as (interval, value) pieces.

    Pieces may overlap; the value at a point is the sum over pieces that
    contain it.  This matches how the digit-counting weight is built from
    its two interval families.
    """

    __slots__ = ("pieces",)

    def __init__(self, pieces: Iterable[tuple[IntervalQ, Rational]]):
        checked = []
        for iv, v in pieces:
            if not isinstance(iv, IntervalQ):
                raise BadSpec("each piece needs an IntervalQ")
            if iv.lo < 0 or iv.hi > 1:
                raise BadSpec(f"piece {iv} not within [0, 1]")
            checked.append((iv, Fraction(v)))
        self.pieces = tuple(checked)

    def __call__(self, x) -> Fraction:
        x = Fraction(x)
        return sum((v for iv, v in self.pieces if iv.contains(x)),
                   start=Fraction(0))

    def integral(self) -> Fraction:
        return sum((v * iv.measure for iv, v in self.pieces),
                   start=Fraction(0))

    def support(self) -> IntervalQ | None:
        """Smallest closed interval outside which the function vanishes."""
        live = [iv for iv, v in self.pieces if v != 0]
        if not live:
            return None
        return IntervalQ(min(iv.lo for iv in live), max(iv.hi for iv in live),
                         True, True)

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
        L, E = _scaled([e for iv, _ in self.pieces for e in (iv.lo, iv.hi)])
        W, ws = _scaled([v for _, v in self.pieces])
        # breakpoint j sits at position 2j, the gap after it at 2j + 1
        at = {c: 2 * j for j, c in enumerate(sorted(set(E) | {0, L}))}
        jumps = [0] * (len(at) * 2)
        for (iv, _), w, lo, hi in zip(self.pieces, ws, E[::2], E[1::2]):
            jumps[at[lo] + (not iv.lo_closed)] += w
            jumps[at[hi] + iv.hi_closed] -= w
        return Fraction(sum(map(abs, jumps[1:-1])), W)


def koksma_check(g: StepFn, ps: PointSet) -> bool:
    """|mean of g over ps - integral of g| <= V(g) * extreme discrepancy.

    The discrepancy is taken over the support of g; a zero function passes
    trivially.
    """
    M = len(ps)
    if M == 0:
        raise EmptySet("koksma check needs at least one point")
    supp = g.support()
    mean = sum((g(x) for x in ps.points), start=Fraction(0)) / M
    lhs = abs(mean - g.integral())
    if supp is None or supp.measure == 0:
        return lhs == 0
    disc = extreme_discrepancy(ps, supp).value
    return lhs <= g.variation() * disc
