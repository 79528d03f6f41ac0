import math

import pytest

from cfq.core import cf_digits
from cfq.errors import BadRange, LimitExceeded
from cfq.search import min_max_quotient, min_sum, zaremba_scan


def test_min_sum_examples():
    r = min_sum(10)
    assert (r.min_value, r.argmin_a) == (6, 3)  # tie with a = 7 goes to 3
    assert min_sum(2).min_value == 2
    r = min_sum(6)
    assert (r.min_value, r.argmin_a) == (6, 1)


def test_min_max_examples():
    r = min_max_quotient(6)
    assert (r.min_value, r.argmin_a) == (5, 5)
    r = min_max_quotient(10)
    assert (r.min_value, r.argmin_a) == (3, 3)
    r = min_max_quotient(2)
    assert r.min_value == 2 and r.bound_holds


def test_min_sum_lower_bound():
    for N in range(2, 300):
        assert min_sum(N).min_value >= math.log(N)


def test_min_max_bound_small():
    for N in range(2, 500):
        r = min_max_quotient(N)
        assert r.min_value <= 3 * math.log(N)


def test_zaremba_examples():
    assert zaremba_scan(2, 100, 5) == []
    assert zaremba_scan(2, 3, 1) == [2, 3]
    assert zaremba_scan(2, 60, 60) == []


def test_validation():
    with pytest.raises(BadRange):
        min_sum(1)
    with pytest.raises(BadRange):
        zaremba_scan(5, 4, 3)
    with pytest.raises(LimitExceeded):
        min_sum(10 ** 7 + 1)
    with pytest.raises(LimitExceeded):
        zaremba_scan(2, 10 ** 7 + 1, 5)


def test_search_matches_full_expansion_brute_force():
    for N in [*range(2, 401), 10007, 30030]:
        units = [a for a in range(1, N) if math.gcd(a, N) == 1]
        for finder, fold in ((min_sum, sum), (min_max_quotient, max)):
            r = finder(N)
            expected = min((fold(cf_digits(a, N)), a) for a in units)
            assert (r.min_value, r.argmin_a) == expected, (finder, N)
    for K in range(1, 5):
        brute = [N for N in range(2, 401)
                 if all(max(cf_digits(a, N)) > K
                        for a in range(1, N) if math.gcd(a, N) == 1)]
        assert zaremba_scan(2, 400, K) == brute, K
