"""Extremal fractions: minimal digit sum or maximal digit over Z_N*.

Small values of S(a/N) or M(a/N) mark good lattice points.  Both minima
are exact; ties go to the smallest numerator.  Each search walks Z_N* in
ascending order as core._units enumerates it, with no gcd per numerator,
and stops a walk at the first digit (M) or running sum (S) that reaches
the best value so far.  The S minimum walks a <= N/2, since S(N - a) =
S(a); the M search and the Zaremba scan skip the numerators whose first
digit N // a already reaches their bound.
"""

from __future__ import annotations

import math

from .core import Record, _prime_factors, _units, digit_sum_center
from .errors import SEARCH_LIMIT, BadRange, InvariantError, LimitExceeded


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


def _sum_below(a: int, N: int, bound: int) -> int | None:
    """Sum of the partial quotients of a/N, or None once it reaches bound."""
    s = 0
    while a:
        s += N // a
        if s >= bound:
            return None
        N, a = a, N % a
    return s


def min_sum(N: int) -> ExtremalRecord:
    """Minimum of S(a/N) over Z_N*, with the heuristic main-term bound.

    bound_value is (12/pi^2) ln N ln ln N; whether the minimum lies below
    it is reported, not asserted, since the accompanying O(ln N) term has
    an unspecified constant.  The digits of N - a are [1, a_1 - 1, a_2,
    ...], so S(N - a) = S(a) and the smallest argmin is at most N/2; the
    walk over a <= N/2 in ascending order keeps strict records only, so
    its last record is the smallest argmin.
    """
    _check_N(N)
    best, best_a = N + 1, None  # S(a/N) <= q_r = N
    for a in _units(N, 1, N // 2 + 1):
        s = _sum_below(a, N, best)
        if s is not None:
            best, best_a = s, a
    bound = digit_sum_center(N) if N >= 3 else float("inf")
    return ExtremalRecord(N, best_a, best, bound, best <= bound)


def min_max_quotient(N: int) -> ExtremalRecord:
    """Minimum of M(a/N) over Z_N*; always at most 3 ln N.

    The search starts from B = floor(3 ln N) + 1, so it walks only the
    numerators a > N // B, whose first digit N // a is below B.
    """
    _check_N(N)
    bound = 3 * math.log(N)
    best, best_a = math.floor(bound) + 1, None
    for a in _units(N, N // best + 1, N):
        m = _max_digit_below(a, N, best)
        if m is not None:
            best, best_a = m, a
    if best_a is None:
        raise InvariantError(f"min M over Z_{N}* exceeds 3 ln N = {bound}")
    return ExtremalRecord(N, best_a, best, bound, True)


def _witness(N: int, lo: int, hi: int, bound: int, primes: list) -> bool:
    """Whether some a in [lo, hi) prime to N has every digit of a/N below
    bound.  [lo, hi) is sieved in blocks of isqrt(N) + 1 numerators,
    doubling, up to the first witness: about twice what the walk reads."""
    size = math.isqrt(N) + 1
    while lo < hi:
        for a in _units(N, lo, min(lo + size, hi), primes):
            if _max_digit_below(a, N, bound) is not None:
                return True
        lo, size = lo + size, 2 * size
    return False


def zaremba_scan(N_lo: int, N_hi: int, K: int) -> list[int]:
    """Denominators in [N_lo, N_hi] with no numerator keeping all digits <= K.

    Skips the numerators a <= N // (K + 1), whose first digit exceeds K,
    and stops scanning a denominator at its first witness, so the common
    case (a witness exists) is fast; an empty result supports the
    conjectured bound K on the range.
    """
    if not 2 <= N_lo <= N_hi:
        raise BadRange(f"need 2 <= N_lo <= N_hi, got ({N_lo}, {N_hi})")
    if K < 1:
        raise BadRange(f"need K >= 1, got {K}")
    _check_N(N_hi)
    return [N for N in range(N_lo, N_hi + 1)
            if not _witness(N, N // (K + 1) + 1, N, K + 1, _prime_factors(N))]
