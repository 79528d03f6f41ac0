"""Farey fractions of order Q and comparisons against averaged limit laws.

The ensemble here averages over denominators as well as numerators, which
is the setting in which the classical limit laws (Hensley for the maximal
digit, Vardi's Cauchy law for Dedekind sums, the stable tail for the digit
sum) are actually proven.  Each law reads the ensemble.scan summary of
every Z_N*: hensley its tail counts at t ln N, vardi and bd its histogram
counts.  Statistics normalized by ln N or ln ln N skip members with N = 2
so the normalization is never degenerate.
"""

from __future__ import annotations

import math

from .core import ReducedFraction, Record
from .ensemble import StatSpec, digit_sum_center, hensley_limit, scan
from .errors import BadRange, LimitExceeded

#: Largest order Q of the limit-law comparisons: F_Q has about
#: 3 Q^2 / pi^2 members (3 * 10^7 at the limit), scanned Z_N* by Z_N*.
FAREY_LIMIT = 10 ** 4


def enumerate_farey(Q: int):
    """All reduced a/N with N <= Q in increasing value, excluding 0 and 1.

    Uses the mediant-based neighbor recurrence: from two consecutive
    fractions every later neighbor is determined by one integer division.
    """
    if Q < 2:
        raise BadRange(f"need Q >= 2, got {Q}")
    x0, y0, x1, y1 = 0, 1, 1, Q
    while x1 < y1:
        yield ReducedFraction(x1, y1)
        k = (Q + y0) // y1
        x0, y0, x1, y1 = x1, y1, k * x1 - x0, k * y1 - y0


def _scans(Q: int, kind: str, **options):
    """F_Q without 1/2 as the ensemble.scan(N, kind, **options) summaries
    over Z_N*, for 3 <= N <= Q.  Q is checked at the call, not at the
    first N."""
    if Q < 3:
        raise BadRange(f"need Q >= 3, got {Q}")
    if Q > FAREY_LIMIT:
        raise LimitExceeded(f"Farey order capped at Q = {FAREY_LIMIT}")
    return (scan(N, StatSpec(kind), **options) for N in range(3, Q + 1))


def hensley_tail(Q: int, t: float) -> tuple[float, float]:
    """(fraction of F_Q members with M >= t ln N, limit 1 - e^{-12/(pi^2 t)}).

    Sums the scans' tail counts at t.  Members with N = 2 are skipped.
    """
    scans = _scans(Q, "M", thresholds=[t])
    if t <= 0:
        raise BadRange(f"need t > 0, got {t}")
    hits = total = 0
    for summary in scans:
        hits += summary.tail_counts[t]
        total += summary.count
    return hits / total, hensley_limit(t)


def cauchy_cdf(x: float) -> float:
    return 0.5 + math.atan(x) / math.pi


class VardiReport(Record):
    __slots__ = ("Q", "count", "probes", "empirical_cdf", "cauchy_cdf",
                 "sup_distance")


def vardi_sample(Q: int, probes: tuple = (-4.0, -2.0, -1.0, -0.5, 0.0,
                                          0.5, 1.0, 2.0, 4.0)) -> VardiReport:
    """Distribution of 2 pi D(a/N) / ln N over F_Q against the Cauchy law.

    Report-only: empirical CDF at the probe points and the sup distance
    over those probes.  Members with N = 2 are skipped.
    """
    scans = _scans(Q, "D", with_histogram=True)
    probes = tuple(sorted(probes))
    below = [0] * len(probes)
    total = 0
    for summary in scans:
        for raw, mult in summary.counts.items():  # D = raw/scale
            total += mult
            v = 2 * math.pi * raw / (summary.scale * math.log(summary.N))
            for j, p in enumerate(probes):
                if v <= p:
                    below[j] += mult
    emp = tuple(b / total for b in below)
    cau = tuple(cauchy_cdf(p) for p in probes)
    sup = max(abs(e - c) for e, c in zip(emp, cau))
    return VardiReport(Q=Q, count=total, probes=probes, empirical_cdf=emp,
                       cauchy_cdf=cau, sup_distance=sup)


def bd_tail(Q: int, t: float) -> tuple[float, float]:
    """Tail shape of the centered, rescaled digit sum over F_Q.

    Returns (fraction with (S - (12/pi^2) ln N ln ln N)/ln N >= t,
    t * fraction).  Report-only; members with N = 2 are skipped.
    """
    hits = total = 0
    for summary in _scans(Q, "S", with_histogram=True):
        logN = math.log(summary.N)
        center = digit_sum_center(summary.N)
        for s, mult in summary.counts.items():
            total += mult
            if (s - center) / logN >= t:
                hits += mult
    frac_ = hits / total
    return frac_, t * frac_


def farey_count(Q: int) -> int:
    """|F_Q| as enumerated (equals the totient summatory function minus 1)."""
    return sum(1 for _ in enumerate_farey(Q))
