import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cfq.core import ReducedFraction, cf_digits, convergents_of, expand, stat_alt
from cfq.dedekind import (dedekind_bh, dedekind_direct, dedekind_scaled,
                          reciprocity_check)
from cfq.errors import InvariantError, LimitExceeded, NotCoprime


def test_known_values():
    assert dedekind_bh(ReducedFraction(1, 3)) == Fraction(1, 18)
    assert dedekind_bh(ReducedFraction(1, 2)) == 0
    # antisymmetry: D(N - a, N) = -D(a, N)
    for N in (7, 12, 101):
        for a in range(1, N):
            if math.gcd(a, N) == 1:
                assert dedekind_bh(ReducedFraction(N - a, N)) == \
                    -dedekind_bh(ReducedFraction(a, N))


def test_direct_equals_bh_small():
    for N in range(2, 101):
        for a in range(1, N):
            if math.gcd(a, N) != 1:
                continue
            frac = ReducedFraction(a, N)
            d = dedekind_bh(frac)
            assert dedekind_direct(frac) == d
            assert dedekind_scaled(a, N) == 24 * N * d


def test_direct_limit():
    with pytest.raises(LimitExceeded):
        dedekind_direct(ReducedFraction(1, 10 ** 6 + 3))


def test_reciprocity():
    assert reciprocity_check(1, 1)
    for a in range(1, 40):
        for b in range(1, 40):
            if math.gcd(a, b) == 1:
                assert reciprocity_check(a, b)
    with pytest.raises(NotCoprime):
        reciprocity_check(2, 4)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=10 ** 6),
       st.integers(min_value=1, max_value=10 ** 6))
def test_reciprocity_random(a, b):
    if math.gcd(a, b) != 1:
        return
    assert reciprocity_check(a, b)


def alt_sum_bound_holds(frac):
    """|D(a, N) + S_alt / 12| < 1/2: the closed form leaves only small terms."""
    resid = dedekind_bh(frac) + Fraction(stat_alt(expand(frac)), 12)
    return abs(resid) < Fraction(1, 2)


def test_alt_sum_bound():
    for N in range(2, 200):
        for a in range(1, N):
            if math.gcd(a, N) != 1:
                continue
            assert alt_sum_bound_holds(ReducedFraction(a, N))


def _reversed_expansion_scaled(a, N):
    """24 N D(a, N) through the reversed digit list, the earlier formula."""
    digits = cf_digits(a, N)
    p_rev, q_rev = convergents_of(digits[::-1])[-1]
    assert q_rev == N
    sign = -1 if len(digits) % 2 else 1
    s_alt = sum(-d if i % 2 else d for i, d in enumerate(digits, start=1))
    return 3 * N * (sign - 1) + 2 * (a - sign * p_rev) - 2 * s_alt * N


def test_forward_walk_matches_reversed_expansion():
    for N in range(2, 600):
        for a in range(1, N):
            if math.gcd(a, N) == 1:
                assert dedekind_scaled(a, N) == _reversed_expansion_scaled(a, N), (a, N)


def test_scaled_rejects_unreduced_pair():
    with pytest.raises(InvariantError):
        dedekind_scaled(2, 4)
    with pytest.raises(InvariantError):
        dedekind_scaled(6, 9)
