"""Extremal fractions: minimal digit sum or maximal digit over Z_N*.

Small values of S(a/N) or M(a/N) mark good lattice points.  Both minima
are exact; ties go to the smallest numerator.  Each search walks Z_N* in
ascending order as core._units enumerates it, with no gcd per numerator,
and stops a walk at the first digit (M) or running sum (S) that reaches
the best value so far.  The S minimum walks a <= N/2, since S(N - a) =
S(a); the M search and the Zaremba scan skip the numerators whose first
digit N // a already reaches their bound.

A range search (search) meets both minima from below instead: it walks,
once for the whole range, the tree of expansions [0; a_1, ..., a_r] whose
digits are bounded (M: trees at K = 2, then 3) or whose digit sum is
(S: one tree of sum <= floor(digit_sum_center(hi)), rooted at a_1 >= 2,
the fractions a <= N/2), and runs the per-N search only for the N the
tree does not reach.  It takes the tree when the range holds at least the
upper half of [1, hi]; a narrower range keeps the per-N search.
"""

from __future__ import annotations

import math
from math import inf

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


def _sum_record(N: int, a: int, s: int) -> ExtremalRecord:
    bound = digit_sum_center(N) if N >= 3 else inf
    return ExtremalRecord(N, a, s, bound, s <= bound)


def _max_record(N: int, a: int, m: int) -> ExtremalRecord:
    bound = 3 * math.log(N)
    if m > bound:
        raise InvariantError(f"min M over Z_{N}* exceeds 3 ln N = {bound}")
    return ExtremalRecord(N, a, m, bound, True)


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
    return _sum_record(N, best_a, best)


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
    return _max_record(N, best_a, best)  # best > bound if no a beat it


def _tree(lo: int, hi: int, first: int, K: int, s_max: int,
          scale: int) -> list:
    """The least s * scale + p over the canonical expansions p/q = [0; a_1,
    ..., a_r] (a_r >= 2) with lo <= q <= hi, a_1 >= first, every digit <= K
    and digit sum s <= s_max, as a list by q - lo that holds inf where no
    expansion reaches q.

    The walk is depth first: a child of [0; ..., a_k] appends a digit a,
    (p, q) = a (p_k, q_k) + (p_{k-1}, q_{k-1}), so its q grows with a and
    the children stop at the first q past hi.  A node is stacked only if
    it has a child.  The child of digit 1 is never recorded, since its
    expansion is not canonical, but it is stacked like the others.
    """
    best = [inf] * (hi - lo + 1)
    stack = []
    for a in range(first, min(K, s_max, hi) + 1):  # [0; a] = 1/a
        if a >= lo:
            best[a - lo] = a * scale + 1
        if a < min(s_max, hi):
            stack.append((0, 1, 1, a, a))
    while stack:
        p0, q0, p, q, s = stack.pop()
        p1, q1 = p + p0, q + q0  # the child of digit 1
        if q1 + q <= hi and s + 1 < s_max:
            stack.append((p, q, p1, q1, s + 1))
        for s1 in range(s + 2, s + min(K, s_max - s, (hi - q0) // q) + 1):
            p1 += p
            q1 += q
            if q1 >= lo:
                key = s1 * scale + p1
                if key < best[q1 - lo]:
                    best[q1 - lo] = key
            if q1 + q <= hi and s1 < s_max:
                stack.append((p, q, p1, q1, s1))
    return best


def _tree_minima(lo: int, hi: int, stat: str) -> dict[int, tuple[int, int]]:
    """{N: (least argmin, min)} for the N in [lo, hi] that stat's tree
    reaches.  The digit bounds are the one rule of the range path:

    M: a tree at K = 2, then one at K = 3.  Every last digit is >= 2, so
    min M >= 2, the first K whose tree reaches N is min M, and the least p
    there is the least argmin.  The trees grow like hi^(2 delta_K), with
    delta_K the Hausdorff dimension of the reals whose digits are all <= K
    (delta_3 ~ 0.706, delta_4 ~ 0.789): over 2..5000 the K = 3 tree leaves
    36 N to the per-N search, and a K = 4 tree, which would reach 33 of
    them, costs about 3.5 times as much.
    S: one tree of digit sum <= floor(digit_sum_center(hi)), the paper's
    centre of S at hi, rooted at a_1 >= 2, the a <= N/2 that hold the least
    argmin (S(N - a) = S(a)).  A node that reaches N has S <= the bound, so
    the tree finds the least (S, a) of every N whose min S is within it.
    """
    if stat == "S":
        s_max = math.floor(digit_sum_center(hi))
        width = hi + 1
        return {lo + i: (key % width, key // width)
                for i, key in enumerate(_tree(lo, hi, 2, s_max, s_max,
                                              width)) if key < inf}
    found = {}
    for K in (3, 2):  # K = 2 overwrites the N it reaches
        found.update((lo + i, (p, K)) for i, p in
                     enumerate(_tree(lo, hi, 1, K, hi, 0)) if p < inf)
    return found


def search(lo: int, hi: int, stat: str = "M", per_N=None):
    """The ExtremalRecord of stat's minimum ("S" or "M") for N = lo, ...,
    hi, in order, each the record min_sum(N) or min_max_quotient(N)
    returns; per_N (by default that function) makes the record of each N
    the tree does not reach, as the iterator reaches it.

    Both ends are checked, and the tree is walked, before the first record.
    The tree's cost depends on hi alone and stays below the per-N search of
    [hi/2, hi]: at hi = 5000, 2 * 10^4 and 4 * 10^4 the M tree costs 0.1,
    0.07 and 0.04 of it and the S tree 0.5, 0.7 and 0.8.  So the rule of
    the range path takes the tree when the range holds at least the upper
    half of [1, hi], 2 lo <= hi; a narrower range runs per_N for every N.
    """
    _check_N(lo)
    _check_N(hi)
    record, finder = ((_sum_record, min_sum) if stat == "S"
                      else (_max_record, min_max_quotient))
    per_N = per_N or finder
    found = _tree_minima(lo, hi, stat) if 2 * lo <= hi else {}
    return (record(N, *found[N]) if N in found else per_N(N)
            for N in range(lo, hi + 1))


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
