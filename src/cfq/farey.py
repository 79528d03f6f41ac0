"""Farey fractions of order Q and comparisons against averaged limit laws.

The ensemble here averages over denominators as well as numerators, which
is the setting in which the classical limit laws (Hensley for the maximal
digit, Vardi's Cauchy law for Dedekind sums, the stable tail for the digit
sum) are actually proven.  Each law adds the tail counts of the
ensemble.scan of every Z_N* in _tails; vardi reads them at t = -p/(2 pi)
by D's sign symmetry.  Statistics normalized by ln N or ln ln N skip
members with N = 2 so the normalization is never degenerate.
"""

from __future__ import annotations

import math

from .core import ReducedFraction, Record, digit_sum_center
from .ensemble import StatSpec, hensley_limit, scan
from .errors import FAREY_LIMIT, BadRange, LimitExceeded


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


def _scans(Q: int) -> range:
    """The N whose Z_N* make up F_Q without 1/2: 3 <= N <= Q."""
    if Q < 3:
        raise BadRange(f"need Q >= 3, got {Q}")
    if Q > FAREY_LIMIT:
        raise LimitExceeded(f"Farey order capped at Q = {FAREY_LIMIT}")
    return range(3, Q + 1)


def _tails(Q: int, spec: StatSpec, ts: list, center=None) -> tuple:
    """(members of F_Q with N >= 3, their tail counts at each t of ts): the
    sums of the scans of spec over each Z_N*, about center(N) if given."""
    total, hits = 0, [0] * len(ts)
    for N in _scans(Q):
        options = {"thresholds": ts}
        if center is not None:
            options["center"] = center(N)
        summary = scan(N, spec, **options)
        total += summary.count
        hits = [h + summary.tail_counts[t] for h, t in zip(hits, ts)]
    return total, hits


def hensley_tail(Q: int, t: float) -> tuple[float, float]:
    """(fraction of F_Q members with M >= t ln N, limit 1 - e^{-12/(pi^2 t)}).

    Sums the scans' tail counts at t.  Members with N = 2 are skipped.
    """
    _scans(Q)  # Q is checked before t
    if t <= 0:
        raise BadRange(f"need t > 0, got {t}")
    total, (hits,) = _tails(Q, StatSpec("M"), [t])
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
    _scans(Q)  # Q is checked before the probes
    if not probes:
        raise BadRange("vardi_sample needs at least one probe")
    probes = tuple(sorted(probes))
    # D((N - a)/N) = -D(a/N), so as many members have 2 pi D / ln N <= p
    # as have D >= -p ln N / (2 pi): the scan's tail at t = -p / (2 pi)
    total, below = _tails(Q, StatSpec("D"),
                          [-p / (2 * math.pi) for p in probes])
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
    total, (hits,) = _tails(Q, StatSpec("S"), [t], center=digit_sum_center)
    frac_ = hits / total
    return frac_, t * frac_
