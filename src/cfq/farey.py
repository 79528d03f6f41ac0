"""Farey fractions of order Q and comparisons against averaged limit laws.

The ensemble here averages over denominators as well as numerators, which
is the setting in which the classical limit laws (Hensley for the maximal
digit, Vardi's Cauchy law for Dedekind sums, the stable tail for the digit
sum) are actually proven.  Statistics normalized by ln N or ln ln N skip
members with N = 2 so the normalization is never degenerate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import ReducedFraction, cf_digits
from .dedekind import dedekind_scaled
from .errors import BadRange, LimitExceeded

PI2 = math.pi ** 2
#: Largest order Q of the limit-law comparisons: F_Q has about
#: 3 Q^2 / pi^2 members (3 * 10^7 at the limit), each walked once.
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


def _members(Q: int):
    """Members a/N of F_Q with N >= 3, the ones normalized by ln N.

    Q above FAREY_LIMIT raises LimitExceeded.
    """
    if Q < 3:
        raise BadRange(f"need Q >= 3, got {Q}")
    if Q > FAREY_LIMIT:
        raise LimitExceeded(f"Farey order capped at Q = {FAREY_LIMIT}")
    return (frac for frac in enumerate_farey(Q) if frac.N >= 3)


def hensley_tail(Q: int, t: float) -> tuple[float, float]:
    """(fraction of F_Q members with M >= t ln N, limit 1 - e^{-12/(pi^2 t)}).

    Members with N = 2 are skipped.
    """
    members = _members(Q)
    if t <= 0:
        raise BadRange(f"need t > 0, got {t}")
    hits = 0
    total = 0
    for frac in members:
        total += 1
        if max(cf_digits(frac.a, frac.N)) >= t * math.log(frac.N):
            hits += 1
    return hits / total, 1 - math.exp(-12 / (PI2 * t))


def cauchy_cdf(x: float) -> float:
    return 0.5 + math.atan(x) / math.pi


@dataclass(frozen=True)
class VardiReport:
    Q: int
    count: int
    probes: tuple[float, ...]
    empirical_cdf: tuple[float, ...]
    cauchy_cdf: tuple[float, ...]
    sup_distance: float


def vardi_sample(Q: int, probes: tuple = (-4.0, -2.0, -1.0, -0.5, 0.0,
                                          0.5, 1.0, 2.0, 4.0)) -> VardiReport:
    """Distribution of 2 pi D(a/N) / ln N over F_Q against the Cauchy law.

    Report-only: empirical CDF at the probe points and the sup distance
    over those probes.  Members with N = 2 are skipped.
    """
    members = _members(Q)
    probes = tuple(sorted(probes))
    below = [0] * len(probes)
    total = 0
    for frac in members:
        total += 1
        # 2 pi D / ln N with D = scaled / (24 N)
        v = 2 * math.pi * dedekind_scaled(frac.a, frac.N) / (24 * frac.N
                                                             * math.log(frac.N))
        for j, p in enumerate(probes):
            if v <= p:
                below[j] += 1
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
    members = _members(Q)
    hits = 0
    total = 0
    for frac in members:
        total += 1
        logN = math.log(frac.N)
        center = (12 / PI2) * logN * math.log(logN)
        s = sum(cf_digits(frac.a, frac.N))
        if (s - center) / logN >= t:
            hits += 1
    frac_ = hits / total
    return frac_, t * frac_


def farey_count(Q: int) -> int:
    """|F_Q| as enumerated (equals the totient summatory function minus 1)."""
    return sum(1 for _ in enumerate_farey(Q))
