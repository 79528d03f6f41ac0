"""Interval families around reduced fractions and the digit-counting weights.

For b/k = [0; b_1, ..., b_s] (b_s > 1) and a digit value m, the interval
I(b/k, m) has endpoints [0; b_1..b_s, m] (included iff m > 1) and
[0; b_1..b_s, m+1] (excluded); I'(b/k, m) has endpoints
[0; b_1..b_{s-1}, b_s - 1, 1, m] (included iff m > 1) and the same list
ending in m+1 (excluded).  A point x lies in I(b/k, m) exactly when the
expansion of x continues b_1..b_s with digit m, and in I'(b/k, m) when it
continues the prefix through a digit 1.  Summing f(m) over both families
for all prefixes b/k therefore counts weighted digit occurrences.
Both families are one formula on a convergent pair (P, Q, P', Q'), with
endpoints (m P + P')/(m Q + Q') and ((m+1) P + P')/((m+1) Q + Q'); the
pairs come from `prefix_convergents`, where k = 1 takes the empty prefix.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

from .core import (ReducedFraction, Rational, Record, WeightFn, Window,
                   _units, cf_digits, convergents_of, gauss_mass,
                   windowed_sum)
from .errors import BadDigit, InvalidWindow, NotCoprime


class IntervalQ(Record):
    """Rational interval with explicit endpoint inclusion flags."""

    __slots__ = ("lo", "hi", "lo_closed", "hi_closed")

    def __init__(self, lo: Fraction, hi: Fraction, lo_closed: bool,
                 hi_closed: bool) -> None:
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "lo_closed", lo_closed)
        object.__setattr__(self, "hi_closed", hi_closed)
        if lo > hi or (lo == hi and not (lo_closed and hi_closed)):
            raise InvalidWindow(f"empty interval ({lo}, {hi})")

    @property
    def measure(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, x) -> bool:
        if x < self.lo or x > self.hi:
            return False
        if x == self.lo and not self.lo_closed:
            return False
        if x == self.hi and not self.hi_closed:
            return False
        return True

    def __str__(self) -> str:
        return (("[" if self.lo_closed else "(") + f"{self.lo}, {self.hi}"
                + ("]" if self.hi_closed else ")"))


def _check_prefix(b: int, k: int, m: int) -> None:
    if m < 1:
        raise BadDigit(f"digit value must be >= 1, got {m}")
    if k < 1 or not 1 <= b <= k:
        raise NotCoprime(f"need 1 <= b <= k with k >= 1, got b={b}, k={k}")
    if math.gcd(b, k) != 1:
        raise NotCoprime(f"gcd({b}, {k}) != 1")


_Pair = tuple[int, int, int, int]


@lru_cache(maxsize=65536)
def prefix_convergents(b: int, k: int) -> tuple[_Pair, _Pair]:
    """The convergent pairs (P, Q, P', Q') of I(b/k, .) and I'(b/k, .).

    For k >= 2 these are (p_s, q_s, p_{s-1}, q_{s-1}) and the last two
    convergents of [0; b_1..b_{s-1}, b_s - 1, 1]; for k = 1 they are the
    empty prefix and [0; 1].
    """
    if k == 1:
        return (0, 1, 1, 0), (1, 1, 0, 1)
    conv = convergents_of(cf_digits(b, k))
    (ps, qs), (ps1, qs1) = conv[-1], conv[-2]
    return (ps, qs, ps1, qs1), (ps, qs, ps - ps1, qs - qs1)


def _interval(pair: _Pair, m: int) -> IntervalQ:
    P, Q, P1, Q1 = pair
    e1 = Fraction(m * P + P1, m * Q + Q1)  # included iff m > 1
    e2 = Fraction((m + 1) * P + P1, (m + 1) * Q + Q1)  # always excluded
    if e1 < e2:
        return IntervalQ(e1, e2, m > 1, False)
    return IntervalQ(e2, e1, False, m > 1)


def _sum_terms(terms: list[tuple[Rational, int]]) -> Fraction:
    """Exact sum of n/d over (n, d) terms: one integer sum over the lcm of
    the denominators, and one Fraction at the end (n may be a Fraction)."""
    L = math.lcm(*(d for _, d in terms))
    return Fraction(sum(n * (L // d) for n, d in terms), L)


def interval_I(b: int, k: int, m: int) -> IntervalQ:
    """The interval I(b/k, m) of points whose next digit after b/k is m."""
    _check_prefix(b, k, m)
    return _interval(prefix_convergents(b, k)[0], m)


def interval_Iprime(b: int, k: int, m: int) -> IntervalQ:
    """The interval I'(b/k, m): next digit is m after an intervening 1."""
    _check_prefix(b, k, m)
    return _interval(prefix_convergents(b, k)[1], m)


def interval_left(b: int, k: int, m: int) -> IntervalQ:
    """Whichever of I(b/k, m), I'(b/k, m) lies left of b/k."""
    if k < 2:
        raise NotCoprime("one-sided intervals need k >= 2")
    iv = interval_I(b, k, m)
    if iv.hi <= Fraction(b, k):
        return iv
    return interval_Iprime(b, k, m)


def weight_hits(b: int, k: int, x) -> list[int]:
    """Digit values m with x in I(b/k, m) or I'(b/k, m), with multiplicity."""
    _check_prefix(b, k, 1)
    x = Fraction(x)
    return list(_hits_at_fraction(b, k, x.numerator, x.denominator))


@lru_cache(maxsize=262144)
def _hits_at_fraction(b: int, k: int, a: int, N: int) -> tuple[int, ...]:
    """Digit values m with a/N in I(b/k, m) or I'(b/k, m), in integers.

    Each family's endpoints (t P + P') / (t Q + Q') move monotonically in
    t, and a/N equals the endpoint at t = (N P' - a Q') / (a Q - N P).
    So m = floor(t) is the one candidate per family, found by one exact
    floor division: a/N lies in the interval for m when m > 1 (a/N on the
    included endpoint when t = m), or when m = 1 and t is not an integer
    (the endpoint at t = 1 is excluded).  When a Q = N P, a/N is the
    prefix itself, the limit t -> infinity, and lies in neither family.
    The cost is independent of the window size, and a/N need not be
    reduced.
    """
    hits = []
    for P, Q, P1, Q1 in prefix_convergents(b, k):
        divisor = a * Q - N * P
        if divisor:
            m, rem = divmod(N * P1 - a * Q1, divisor)
            if m > 1 or (m == 1 and rem):
                hits.append(m)
    return tuple(hits)


def weight_eval(b: int, k: int, x, f: WeightFn, w: Window) -> Rational:
    """w_{f,eta,theta}(b/k, x): weighted indicator sum over both families."""
    return windowed_sum(weight_hits(b, k, x), f, w.eta, w.theta)


def weight_row_at(a: int, N: int, k: int, f: WeightFn, w: Window) -> Rational:
    """Sum of w(b/k, a/N) over b in Z_k* (0 for k < 1, which has no prefix)."""
    if k < 1:
        return 0
    # Both interval families around b/k live within 1/k^2 of b/k, so only
    # numerators b with |a k - b N| k <= N can contribute.  With q, r =
    # divmod(a k, N), a k - b N is r for b = q and r - N for b = q + 1;
    # every other b is at least N away, out of reach for k >= 2.  For k = 1
    # the one other b within N is q - 1 when r = 0, below 1 for a <= N.
    q, r = divmod(a * k, N)
    total: Rational = 0
    if r * k <= N and 0 < q <= k and math.gcd(q, k) == 1:
        total += windowed_sum(_hits_at_fraction(q, k, a, N), f, w.eta,
                              w.theta)
    if (N - r) * k <= N and q < k and math.gcd(q + 1, k) == 1:
        total += windowed_sum(_hits_at_fraction(q + 1, k, a, N), f, w.eta,
                              w.theta)
    return total


def counting_identity_check(frac: ReducedFraction, A: Iterable[int],
                            f: WeightFn, w: Window) -> bool:
    """Exact check of the prefix-restricted digit-count identity.

    Left side: sum of f(a_i) over digits in the window whose preceding
    convergent denominator q_{i-1} lies in A.  Right side: the weight sums
    over all prefixes b/k with k in A, evaluated at a/N.
    """
    digits = cf_digits(frac.a, frac.N)
    conv = convergents_of(digits)
    f.validate_on(w, max_digit=frac.N)
    moduli = set(A)
    # digit a_i pairs with (p_{i-1}, q_{i-1})
    lhs = windowed_sum([d for d, (_, q) in zip(digits, conv) if q in moduli],
                       f, w.eta, w.theta)
    rhs: Rational = 0
    for k in moduli:
        rhs += weight_row_at(frac.a, frac.N, k, f, w)
    return lhs == rhs


def row_sum(N: int, k: int, f: WeightFn, w: Window) -> Fraction:
    """W_{k,f}: the weight row averaged over a in Z_N*, exact."""
    if not 1 <= k <= N - 1:
        raise InvalidWindow(f"need 1 <= k <= N-1, got k={k}, N={N}")
    f.validate_on(w, max_digit=N)
    units = list(_units(N, 1, N))
    total = sum(weight_row_at(a, N, k, f, w) for a in units)
    return Fraction(total) / len(units)


def integral_row(k: int, f: WeightFn, w: Window) -> tuple[Fraction, float]:
    """(exact, main_term) for the integral of the weight row over [0, 1].

    exact sums the closed-form interval measures over b in Z_k*;
    main_term is (2 phi(k)/k^2) * sum f(m) log(1 + 1/(m(m+2))).
    """
    if k < 1:
        raise NotCoprime(f"row integral needs k >= 1, got k={k}")
    theta = w.finite_theta()
    f.validate_on(w)
    weights = [(m, fm) for m in range(w.eta, theta + 1) if (fm := f(m))]
    units = list(_units(k, 1, k + 1))  # Z_k*, which is {1} for k = 1
    terms = []
    for b in units:
        for _, Q, _, Q1 in prefix_convergents(b, k):
            for m, fm in weights:  # fm times 1/((m Q + Q') ((m+1) Q + Q'))
                terms.append((fm, (m * Q + Q1) * ((m + 1) * Q + Q1)))
    main = (2 * len(units) / k ** 2) * sum(
        float(fm) * gauss_mass(m) for m, fm in weights)
    return _sum_terms(terms), main


def _bijection_rhs(k: int, f: WeightFn, w: Window) -> Fraction:
    """The row integral with q_{s-1}/k replaced by b/k over Z_k*.

    Sums f(m)/k^2 (1/((m + x)(m + 1 + x)) + 1/((m + 1 - x)(m + 2 - x)))
    at x = b/k over the window; with x = b/k each term is f(m) over an
    integer, (m k + b)((m + 1) k + b) or ((m + 1) k - b)((m + 2) k - b).
    """
    terms = []
    units = list(_units(k, 1, k))
    for m in range(w.eta, w.finite_theta() + 1):
        fm = f(m)
        if not fm:
            continue
        for b in units:
            terms.append((fm, (m * k + b) * ((m + 1) * k + b)))
            terms.append((fm, ((m + 1) * k - b) * ((m + 2) * k - b)))
    return _sum_terms(terms)


def bijection_identity_check(k: int, f: WeightFn, w: Window) -> bool:
    """Exact identity behind the row integral: b -> q_{s-1} is a bijection.

    Compares the summed closed-form measures against the same sum written
    with q_{s-1}/k replaced by a fresh b/k running over Z_k*.
    """
    if k < 2:
        raise NotCoprime("bijection identity needs k >= 2")
    lhs, _ = integral_row(k, f, w)
    return lhs == _bijection_rhs(k, f, w)


def weight_step_pieces(b: int, k: int, f: WeightFn, w: Window) -> list[tuple[IntervalQ, Rational]]:
    """The weight function as (interval, value) pieces for step-function use."""
    theta = w.finite_theta()
    f.validate_on(w)
    pieces = []
    for m in range(w.eta, theta + 1):
        v = f(m)
        if v:
            pieces.append((interval_I(b, k, m), v))
            pieces.append((interval_Iprime(b, k, m), v))
    return pieces
