"""Digit-reversal bijections on the two halves of Z_N*.

For a <= N/2 the expansion a/N = [0; a_1, ..., a_r] starts with a_1 >= 2,
and the reversed list [0; a_r, ..., a_1] is another canonical expansion
with denominator N.  Continuants are symmetric, so its numerator is the
next-to-last convergent denominator q_{r-1} of a/N: a* = q_{r-1}.  For
a > N/2 the expansion starts with a_1 = 1; rewriting the tail as
a_r - 1, 1, reversing, and merging the trailing 1 into its predecessor
gives a canonical expansion with numerator a* = N - q_{r-1}.
Both maps are involutions on their half, and the convergent denominators
of a/N and a*/N interlock so that matched products sum to N at every
index.  The identity check walks a/N once, for its digits and a*, and
a*/N once, for the denominators it is matched against.
"""

from __future__ import annotations

from .core import ReducedFraction, Record, cf_walk
from .errors import WrongHalf


class ReflectionRecord(Record):
    __slots__ = ("source", "image", "half")  # half: "lower" or "upper"


def reflect_lower(frac: ReducedFraction) -> ReducedFraction:
    """Image a* with a*/N = [0; a_r, ..., a_1]; requires a <= N/2."""
    if 2 * frac.a > frac.N:
        raise WrongHalf(f"{frac.a}/{frac.N} is in the upper half")
    return ReducedFraction(cf_walk(frac.a, frac.N)[1], frac.N)


def reflect_upper(frac: ReducedFraction) -> ReducedFraction:
    """Image a* of the upper-half reflection; requires a > N/2."""
    if 2 * frac.a <= frac.N:
        raise WrongHalf(f"{frac.a}/{frac.N} is in the lower half")
    return ReducedFraction(frac.N - cf_walk(frac.a, frac.N)[1], frac.N)


def reflect(frac: ReducedFraction) -> ReflectionRecord:
    """Reflection record for either half of Z_N*."""
    if 2 * frac.a <= frac.N:
        return ReflectionRecord(frac, reflect_lower(frac), "lower")
    return ReflectionRecord(frac, reflect_upper(frac), "upper")


def verify_continuant_identity(frac: ReducedFraction) -> tuple[bool, list[tuple[int, int]]]:
    """Check the interlocking continuant identity at every admissible index.

    Lower half (a <= N/2), for 1 <= i <= r:
        q_i(a/N) q_{r-i}(a*/N) + q_{i-1}(a/N) q_{r-i-1}(a*/N) = N
    Upper half (a > N/2), for 2 <= i <= r-1, the a* index shifts by one:
        q_i(a/N) q_{r-i+1}(a*/N) + q_{i-1}(a/N) q_{r-i}(a*/N) = N

    q_{-1} = 0 throughout.  Returns (all_hold, [(i, lhs), ...]).
    """
    a, N = frac.a, frac.N
    digits, q_prev = cf_walk(a, N)
    r = len(digits)
    s = 0 if 2 * a <= N else 1  # the a* index shift
    star_digits = cf_walk(N - q_prev if s else q_prev, N)[0]
    # q[i + 1] = q_i of a/N and t[j + 1] = q_j of a*/N, from q_{-1} = 0
    q, t = _denominators(digits), _denominators(star_digits)
    witness = [(i, q[i + 1] * t[r - i + s + 1] + q[i] * t[r - i + s])
               for i in range(1 + s, r + 1 - s)]
    return all(lhs == N for _, lhs in witness), witness


def _denominators(digits: list[int]) -> list[int]:
    """q_{-1} = 0, q_0 = 1, ..., q_r: the convergent denominators."""
    q = [0, 1]
    for d in digits:
        q.append(d * q[-1] + q[-2])
    return q
