"""Dedekind sums, exact, via the direct sum and via partial quotients.

D(a, N) = sum_{b=1}^{N-1} ((b/N)) ((ab/N)) with ((x)) the sawtooth.
The closed form through the expansion a/N = [0; a_1, ..., a_r] uses the
alternating digit sum together with the next-to-last convergent
denominator q_{r-1} of the same expansion:

    D(a, N) = ((-1)^r - 1)/8 + (1/12) (a/N - (-1)^r q_{r-1}/N - S_alt)

where S_alt = sum_i (-1)^i a_i.  Continuants are symmetric, so q_{r-1}
is also the numerator of the reversed expansion [0; a_r, ..., a_1].
closed_form turns the parity of r, S_alt and q_{r-1} into 24 N D(a, N):
dedekind_scaled reads them off one core.cf_walk, and a D scan off the
walk it already made, which folds S_alt without a digit list.  A D scan
imports only closed_form, so fractions is imported by the functions
that return a Fraction.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .core import Rational, ReducedFraction, alt_sum, cf_walk
from .errors import DIRECT_LIMIT, InvariantError, LimitExceeded, NotCoprime

if TYPE_CHECKING:
    from fractions import Fraction


def dedekind_direct(frac: ReducedFraction) -> Fraction:
    """D(a, N) by the defining sum over residues, O(N)."""
    from fractions import Fraction
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
    from fractions import Fraction
    return Fraction(dedekind_scaled(frac.a, frac.N), 24 * frac.N)


def dedekind_scaled(a: int, N: int) -> int:
    """24 N D(a, N) as an integer, from one Euclid walk."""
    digits, q = cf_walk(a, N)
    # a q_{r-1} = (-1)^(r-1) mod N holds exactly when gcd(a, N) = 1
    if (a * q - (-1) ** (len(digits) - 1)) % N:
        raise InvariantError(f"{a}/{N} is not reduced")
    return closed_form(a, N, len(digits) % 2, alt_sum(digits), q)


def closed_form(a: int, N: int, odd: bool, s_alt: int, q: int) -> int:
    """24 N D(a, N) from the parity of the length r of a/N's expansion (odd
    when r is), its alternating digit sum s_alt and q = q_{r-1}."""
    sign = -1 if odd else 1  # (-1)^r
    return 3 * N * (sign - 1) + 2 * (a - sign * q) - 2 * N * s_alt


def reciprocity_check(a: int, b: int) -> bool:
    """s(a, b) + s(b, a) = -1/4 + (a^2 + b^2 + 1)/(12 a b), exact."""
    if a < 1 or b < 1 or math.gcd(a, b) != 1:
        raise NotCoprime(f"reciprocity needs coprime positive a, b, got ({a}, {b})")
    from fractions import Fraction
    lhs = _sum_mod(a, b) + _sum_mod(b, a)
    rhs = Fraction(-1, 4) + Fraction(a * a + b * b + 1, 12 * a * b)
    return lhs == rhs


def _sum_mod(a: int, b: int) -> Rational:
    """s(a, b) = D(a mod b, b), with s(*, 1) = 0."""
    if b == 1:
        return 0
    return dedekind_bh(ReducedFraction(a % b, b))
