"""Extremal fractions: minimal digit sum or maximal digit over Z_N*.

Small values of S(a/N) or M(a/N) mark good lattice points.  Both minima
are exact; ties go to the smallest numerator.  The S minimum walks one
member per symmetry orbit of Z_N*; the M search and the Zaremba scan walk
all of Z_N*, pruned at the first digit reaching a bound.
"""

from __future__ import annotations

import math

from .core import Record
from .ensemble import _representatives, digit_sum_center
from .errors import BadRange, InvariantError, LimitExceeded

#: Full enumeration only; beyond this denominator the scans refuse to run.
SEARCH_LIMIT = 10 ** 7


class ExtremalRecord(Record):
    __slots__ = ("N", "argmin_a", "min_value", "bound_value", "bound_holds")


def _check_N(N: int) -> None:
    if N < 2:
        raise BadRange(f"need N >= 2, got {N}")
    if N > SEARCH_LIMIT:
        raise LimitExceeded(f"search capped at N = {SEARCH_LIMIT}")


def _max_digit_below(a: int, N: int, bound: int) -> int | None:
    """Largest partial quotient of a/N, or None at the first one >= bound."""
    m = 0
    while a:
        q = N // a
        if q >= bound:
            return None
        if q > m:
            m = q
        N, a = a, N % a
    return m


def min_sum(N: int) -> ExtremalRecord:
    """Minimum of S(a/N) over Z_N*, with the heuristic main-term bound.

    bound_value is (12/pi^2) ln N ln ln N; whether the minimum lies below
    it is reported, not asserted, since the accompanying O(ln N) term has
    an unspecified constant.  An orbit a, N - a, a*, N - a* shares S, and
    ensemble._representatives yields its smallest member a in ascending
    order, so the first strict record is the smallest argmin.
    """
    _check_N(N)
    best, best_a = N + 1, None  # S(a/N) <= q_r = N
    for a, _, digits in _representatives(N, 1, N // 2 + 1):
        s = sum(digits)
        if s < best:
            best, best_a = s, a
    bound = digit_sum_center(N) if N >= 3 else float("inf")
    return ExtremalRecord(N=N, argmin_a=best_a, min_value=best,
                          bound_value=bound, bound_holds=best <= bound)


def min_max_quotient(N: int) -> ExtremalRecord:
    """Minimum of M(a/N) over Z_N*; always at most 3 ln N."""
    _check_N(N)
    best, best_a = N + 1, None  # every digit of a/N is at most N
    for a in range(1, N):
        if math.gcd(a, N) == 1:
            m = _max_digit_below(a, N, best)
            if m is not None:
                best, best_a = m, a
    bound = 3 * math.log(N)
    if best > bound:
        raise InvariantError(f"min M over Z_{N}* is {best} > 3 ln N = {bound}")
    return ExtremalRecord(N=N, argmin_a=best_a, min_value=best,
                          bound_value=bound, bound_holds=True)


def zaremba_scan(N_lo: int, N_hi: int, K: int) -> list[int]:
    """Denominators in [N_lo, N_hi] with no numerator keeping all digits <= K.

    Stops scanning a denominator at its first witness, so the common case
    (a witness exists) is fast; an empty result supports the conjectured
    bound K on the range.
    """
    if not 2 <= N_lo <= N_hi:
        raise BadRange(f"need 2 <= N_lo <= N_hi, got ({N_lo}, {N_hi})")
    if K < 1:
        raise BadRange(f"need K >= 1, got {K}")
    _check_N(N_hi)
    bad = []
    for N in range(N_lo, N_hi + 1):
        for a in range(1, N):
            if (math.gcd(a, N) == 1
                    and _max_digit_below(a, N, K + 1) is not None):
                break
        else:
            bad.append(N)
    return bad
