"""Dedekind sums, exact, via the direct sum and via partial quotients.

D(a, N) = sum_{b=1}^{N-1} ((b/N)) ((ab/N)) with ((x)) the sawtooth.
The closed form through the expansion a/N = [0; a_1, ..., a_r] uses the
alternating digit sum together with the next-to-last convergent
denominator q_{r-1} of the same expansion:

    D(a, N) = ((-1)^r - 1)/8 + (1/12) (a/N - (-1)^r q_{r-1}/N - S_alt)

where S_alt = sum_i (-1)^i a_i.  Continuants are symmetric, so q_{r-1}
is also the numerator of the reversed expansion [0; a_r, ..., a_1].
core.cf_walk yields the digits and q_{r-1} in one Euclid walk, and
closed_form turns them into 24 N D(a, N); ensemble scans call it on the
walk they already made.
"""

from __future__ import annotations

from fractions import Fraction

from .core import ReducedFraction, alt_sum, cf_walk, expand, stat_alt
from .errors import InvariantError, LimitExceeded, NotCoprime

#: The direct sum walks all residues once; beyond this it is pointless
#: next to the closed form.
DIRECT_LIMIT = 10 ** 6


def dedekind_direct(frac: ReducedFraction) -> Fraction:
    """D(a, N) by the defining sum over residues, O(N)."""
    N = frac.N
    if N > DIRECT_LIMIT:
        raise LimitExceeded(f"direct sum capped at N = {DIRECT_LIMIT}")
    a = frac.a
    total = 0
    c = 0
    for b in range(1, N):
        c = (c + a) % N
        if c:
            total += (2 * b - N) * (2 * c - N)
    return Fraction(total, 4 * N * N)


def dedekind_bh(frac: ReducedFraction) -> Fraction:
    """D(a, N) from the partial quotients of a/N, O(log N)."""
    return Fraction(dedekind_scaled(frac.a, frac.N), 24 * frac.N)


def dedekind_scaled(a: int, N: int) -> int:
    """24 N D(a, N) as an integer, from one Euclid walk."""
    digits, q = cf_walk(a, N)
    # a q_{r-1} = (-1)^(r-1) mod N holds exactly when gcd(a, N) = 1
    if (a * q - (-1) ** (len(digits) - 1)) % N:
        raise InvariantError(f"{a}/{N} is not reduced")
    return closed_form(a, N, digits, q)


def closed_form(a: int, N: int, digits: list[int], q: int) -> int:
    """24 N D(a, N) from the digits of a/N and q = q_{r-1}."""
    sign = -1 if len(digits) % 2 else 1  # (-1)^r
    return 3 * N * (sign - 1) + 2 * (a - sign * q) - 2 * N * alt_sum(digits)


def reciprocity_check(a: int, b: int) -> bool:
    """s(a, b) + s(b, a) = -1/4 + (a^2 + b^2 + 1)/(12 a b), exact."""
    import math
    if a < 1 or b < 1 or math.gcd(a, b) != 1:
        raise NotCoprime(f"reciprocity needs coprime positive a, b, got ({a}, {b})")
    lhs = _sum_mod(a, b) + _sum_mod(b, a)
    rhs = Fraction(-1, 4) + Fraction(a * a + b * b + 1, 12 * a * b)
    return lhs == rhs


def _sum_mod(a: int, b: int) -> Fraction:
    """s(a, b) = D(a mod b, b), with s(*, 1) = 0."""
    if b == 1:
        return Fraction(0)
    return dedekind_bh(ReducedFraction(a % b, b))


def alt_sum_bound_holds(frac: ReducedFraction) -> bool:
    """|D(a, N) + S_alt / 12| < 1/2: the closed form leaves only small terms."""
    cf = expand(frac)
    return abs(dedekind_bh(frac) + Fraction(stat_alt(cf), 12)) < Fraction(1, 2)
