import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cfq.core import (ReducedFraction, WeightFn, Window, _unit_table, _units,
                      cf_digits, convergents_of, even_odd_sums, expand,
                      restricted_sum, stat_alt, stat_count, stat_max, stat_sum)
from cfq.errors import (InvalidFraction, InvalidWeight, InvalidWindow,
                        LimitExceeded)


def coprime_pairs(max_N):
    for N in range(2, max_N + 1):
        for a in range(1, N):
            if math.gcd(a, N) == 1:
                yield a, N


def test_known_expansion():
    cf = expand(ReducedFraction(7, 10))
    assert cf.digits == (1, 2, 3)
    assert cf.convergents == ((0, 1), (1, 1), (2, 3), (7, 10))
    assert stat_sum(cf) == 6
    assert stat_max(cf) == 3
    assert stat_alt(cf) == -2
    assert stat_count(cf, 1, 2) == 2


def test_single_digit():
    cf = expand(ReducedFraction(1, 9))
    assert cf.digits == (9,)


def test_constructor_validation():
    with pytest.raises(InvalidFraction):
        ReducedFraction(4, 10)
    with pytest.raises(InvalidFraction):
        ReducedFraction(0, 5)
    with pytest.raises(InvalidFraction):
        ReducedFraction(5, 5)
    with pytest.raises(InvalidFraction):
        ReducedFraction(1, 1)
    with pytest.raises(LimitExceeded):
        ReducedFraction(1, 1 << 62)


def test_round_trip_exhaustive_small():
    for a, N in coprime_pairs(150):
        digits = cf_digits(a, N)
        assert digits[-1] >= 2
        assert all(d >= 1 for d in digits)
        assert convergents_of(digits)[-1] == (a, N)


def test_determinant_identity():
    for a, N in coprime_pairs(80):
        conv = convergents_of(cf_digits(a, N))
        prev_p, prev_q = 1, 0
        for p, q in conv:
            assert abs(p * prev_q - prev_p * q) == 1 or (p, q) == (0, 1)
            prev_p, prev_q = p, q


@given(st.integers(min_value=2, max_value=10 ** 12),
       st.integers(min_value=1, max_value=10 ** 12))
def test_round_trip_random(N, a):
    a = a % N
    if a == 0 or math.gcd(a, N) != 1:
        return
    digits = cf_digits(a, N)
    assert digits[-1] >= 2
    assert convergents_of(digits)[-1] == (a, N)


@given(st.lists(st.integers(min_value=1, max_value=50), min_size=1,
                max_size=12))
def test_evaluate_matches_fraction_fold(digits):
    p, q = convergents_of(digits)[-1]
    value = Fraction(0)
    for d in reversed(digits):
        value = Fraction(1, d + value)
    assert Fraction(p, q) == value


def test_window():
    with pytest.raises(InvalidWindow):
        Window(0)
    with pytest.raises(InvalidWindow):
        Window(5, 4)
    with pytest.raises(InvalidWindow):
        Window(1).finite_theta()


def test_weight_builtins():
    assert WeightFn.one()(17) == 1
    assert WeightFn.identity()(17) == 17
    assert WeightFn.square()(5) == 25
    t = WeightFn.from_table([1, 1, 4], start=2)
    assert t(2) == 1 and t(4) == 4
    with pytest.raises(InvalidWeight):
        t(5)
    with pytest.raises(InvalidWeight):
        WeightFn.from_table([3, 2, 1])
    with pytest.raises(InvalidWeight):
        WeightFn.from_table([-1, 0])
    with pytest.raises(InvalidWeight):
        t.validate_on(Window(2, 7))
    t.validate_on(Window(2, 4))


def test_restricted_and_parity_sums():
    cf = expand(ReducedFraction(7, 10))  # digits 1, 2, 3
    assert restricted_sum(cf, WeightFn.identity(), Window(2, 3)) == 5
    assert restricted_sum(cf, WeightFn.one(), Window(1, 10)) == 3
    s_even, s_odd = even_odd_sums(cf, Window(1, 10))
    assert (s_even, s_odd) == (2, 4)
    assert stat_sum(cf) == s_even + s_odd
    assert stat_alt(cf) == s_even - s_odd


def test_stat_count_window_validation():
    cf = expand(ReducedFraction(7, 10))
    with pytest.raises(InvalidWindow):
        stat_count(cf, 0, 3)
    with pytest.raises(InvalidWindow):
        stat_count(cf, 4, 2)


@pytest.mark.parametrize("seed", [1, 3, 7, 2 ** 22])
def test_units_match_gcd_filter(seed):
    # [1, N) is Z_N*, and [1, N + 1) adds N itself, which only Z_1* = {1}
    # keeps; unaligned [lo, hi) start the table off every multiple of a
    # factor
    rng = random.Random(seed)
    for N in [*range(1, 401), 2310, 30030]:
        ranges = [(1, N), (1, N + 1)] + [
            sorted((rng.randint(1, N + 1), rng.randint(1, N + 1)))
            for _ in range(3)]
        for lo, hi in ranges:
            assert list(_units(N, lo, hi)) == [
                a for a in range(lo, hi) if math.gcd(a, N) == 1], (N, lo, hi)


@pytest.mark.parametrize("N", [2 ** 21, 2 * 10 ** 6, 2 * 1000003,
                               2 * 3 * 5 * 7 * 11 * 13 * 17 * 2])
def test_unit_table_of_an_even_N_peaks_near_its_size(N):
    # The representatives' table of [1, N/2] at an even N: p = 2 clears
    # its multiples in a short repeated pattern, not from a zero buffer of
    # N/4 bytes (and a bytes one would be copied once more); only the
    # first prime outside the pattern, here at least 11, takes a buffer,
    # of at most a tenth of the table.
    tracemalloc.start()
    try:
        table = _unit_table(N, 1, N // 2 + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert list(table[:2310]) == [math.gcd(a, N) == 1
                                  for a in range(1, 2311)]
    assert len(table) == N // 2
    assert peak <= len(table) * 1.1, (peak, len(table))
