import math
from types import SimpleNamespace

import pytest

from cfq import search
from cfq.core import _units, cf_digits, digit_sum_center
from cfq.errors import BadRange, InvariantError, LimitExceeded
from cfq.search import min_max_quotient, min_sum, zaremba_scan
from test_ensemble import _gcd_filter_representatives


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
    for K in range(1, 7):
        brute = [N for N in range(2, 401)
                 if all(max(cf_digits(a, N)) > K
                        for a in range(1, N) if math.gcd(a, N) == 1)]
        assert zaremba_scan(2, 400, K) == brute, K


# The searches as they were before they skipped numerators: the S minimum
# walked one member per orbit to its last digit, the M search and the
# Zaremba scan started every N at a = 1.
def _full_walk_min_sum(N):
    best, best_a = N + 1, None
    for a, _, digits in _gcd_filter_representatives(N, 1, N // 2 + 1):
        s = sum(digits)
        if s < best:
            best, best_a = s, a
    bound = digit_sum_center(N) if N >= 3 else float("inf")
    return (N, best_a, best, bound, best <= bound)


def _full_walk_min_max_quotient(N):
    best, best_a = N + 1, None
    for a in _units(N, 1, N):
        m = search._max_digit_below(a, N, best)
        if m is not None:
            best, best_a = m, a
    bound = 3 * math.log(N)
    assert best <= bound
    return (N, best_a, best, bound, True)


def _full_walk_zaremba_scan(N_lo, N_hi, K):
    bad = []
    for N in range(N_lo, N_hi + 1):
        for a in _units(N, 1, N):
            if search._max_digit_below(a, N, K + 1) is not None:
                break
        else:
            bad.append(N)
    return bad


def _fields(r):
    return (r.N, r.argmin_a, r.min_value, r.bound_value, r.bound_holds)


def test_searches_match_their_full_walks():
    for N in range(2, 1501):
        assert _fields(min_sum(N)) == _full_walk_min_sum(N), N
        assert (_fields(min_max_quotient(N))
                == _full_walk_min_max_quotient(N)), N
    for K in range(1, 7):
        assert zaremba_scan(2, 1500, K) == _full_walk_zaremba_scan(2, 1500,
                                                                   K), K


def _record_calls(monkeypatch, name):
    calls = []
    real = getattr(search, name)

    def probe(a, N, bound):
        calls.append((a, N, bound))
        return real(a, N, bound)
    monkeypatch.setattr(search, name, probe)
    return calls


def test_searches_walk_only_numerators_that_can_win(monkeypatch):
    maxes = _record_calls(monkeypatch, "_max_digit_below")
    sums = _record_calls(monkeypatch, "_sum_below")
    for N in range(2, 400):
        min_sum(N)
        assert sums and all(a <= N // 2 for a, _, _ in sums), N
        sums.clear()
        min_max_quotient(N)
        B = math.floor(3 * math.log(N)) + 1
        assert maxes and all(a > N // B for a, _, _ in maxes), N
        maxes.clear()
    for K in range(1, 7):
        zaremba_scan(2, 400, K)
        assert all(a > N // (K + 1) for a, N, _ in maxes), K
        maxes.clear()


def test_min_max_raises_when_no_numerator_is_within_the_bound(monkeypatch):
    # with ln N read as 1, the bound 3 is below min M(a/6) = 5, so the
    # search starts at B = 4 and no numerator beats it
    monkeypatch.setattr(search, "math",
                        SimpleNamespace(log=lambda N: 1.0, floor=math.floor))
    with pytest.raises(InvariantError) as info:
        min_max_quotient(6)
    message = str(info.value)
    assert message == "min M over Z_6* exceeds 3 ln N = 3.0"
    assert "4" not in message


@pytest.mark.parametrize("K", [1, 2, 3, 5])
def test_zaremba_scan_matches_brute_force(K):
    # K = 1 and 2 leave many N without a witness, whose every block is read
    ref = [N for N in range(2, 401)
           if not any(max(cf_digits(a, N)) <= K for a in range(1, N)
                      if math.gcd(a, N) == 1)]
    assert zaremba_scan(2, 400, K) == ref


def test_zaremba_scan_sieves_about_what_it_reads(monkeypatch):
    # Blocks start at s = isqrt(N) + 1 numerators and double, so a scan
    # that stops at its first witness a has sieved at most 2 (a - lo) + s
    # numerators; and N is factored once, not once per block.
    sieved, factored = [], []
    units, factors = search._units, search._prime_factors
    monkeypatch.setattr(search, "_units", lambda N, lo, hi, primes: (
        sieved.append(hi - lo), units(N, lo, hi, primes))[1])
    monkeypatch.setattr(search, "_prime_factors", lambda N: (
        factored.append(N), factors(N))[1])
    for N in (10 ** 5 + 3, 2 * 3 * 5 * 7 * 11 * 13 * 17, 10 ** 6):
        sieved.clear()
        factored.clear()
        assert zaremba_scan(N, N, 5) == []
        lo = N // 6 + 1
        first = next(a for a in units(N, lo, N, None)
                     if max(cf_digits(a, N)) <= 5)
        assert factored == [N]
        assert sum(sieved) <= 2 * (first - lo) + math.isqrt(N) + 1, N


def _row(r):
    return (*_fields(r), r.min_value - r.bound_value)


def _range_rows(lo, hi, stat):
    """The range path's rows and the N it handed to the per-N search."""
    finder = min_sum if stat == "S" else min_max_quotient
    per_N = []
    rows = [_row(r) for r in search.search(
        lo, hi, stat, lambda N: (per_N.append(N), finder(N))[1])]
    return rows, per_N


@pytest.mark.parametrize("stat", ["M", "S"])
@pytest.mark.parametrize("lo, hi", [(2, 2000), (3, 601), (6, 603), (2, 3),
                                    (2, 2), (3, 3), (997, 997)])
def test_range_search_matches_the_per_N_search(stat, lo, hi):
    # Row by row (N, argmin, min, bound, bound_holds, margin); the tree hands
    # to the per-N search exactly the N whose minimum lies past its digit
    # bound: min M > 3, or min S > floor(digit_sum_center(hi)).
    finder = min_sum if stat == "S" else min_max_quotient
    expected = [_row(finder(N)) for N in range(lo, hi + 1)]
    rows, per_N = _range_rows(lo, hi, stat)
    assert rows == expected
    if 2 * lo <= hi:
        bound = math.floor(digit_sum_center(hi)) if stat == "S" else 3
        assert per_N == [row[0] for row in expected if row[2] > bound]
    else:
        assert per_N == list(range(lo, hi + 1))


def test_range_search_matches_for_every_small_hi():
    # small hi puts the S tree's bound at 2 or below (at hi = 4 it is 0)
    for hi in range(2, 80):
        for stat, finder in (("M", min_max_quotient), ("S", min_sum)):
            assert _range_rows(2, hi, stat)[0] == [
                _row(finder(N)) for N in range(2, hi + 1)], (stat, hi)


@pytest.mark.parametrize("stat", ["M", "S"])
def test_narrow_ranges_take_the_per_N_search(monkeypatch, stat):
    # The tree's cost depends on hi alone, so a narrow range high up walks
    # no tree: every N goes to the per-N search.
    walks = []
    tree = search._tree
    monkeypatch.setattr(search, "_tree",
                        lambda *args: (walks.append(args), tree(*args))[1])
    finder = min_sum if stat == "S" else min_max_quotient
    rows, per_N = _range_rows(100000, 100004, stat)
    assert rows == [_row(finder(N)) for N in range(100000, 100005)]
    assert per_N == list(range(100000, 100005)) and walks == []
    # Just below the limit one per-N search takes about a second, so the
    # per-N search is a stand-in here.
    lo = search.SEARCH_LIMIT - 3
    assert list(search.search(lo, search.SEARCH_LIMIT, stat, lambda N: -N)) \
        == [-N for N in range(lo, search.SEARCH_LIMIT + 1)]
    assert walks == []
    search.search(2, 20, stat)
    assert walks


@pytest.mark.parametrize("log", [1.0, 0.9])
def test_range_search_raises_where_the_per_N_search_does(monkeypatch, log):
    # With ln N read as 1 the per-N search raises at N = 6, which no tree
    # reaches; read as 0.9 the bound 2.7 is below min M(a/4) = 3, where
    # the K = 3 tree reaches 4.
    monkeypatch.setattr(search, "math",
                        SimpleNamespace(log=lambda N: log, floor=math.floor))

    def until_raised(records):
        rows = []
        with pytest.raises(InvariantError) as info:
            for r in records:
                rows.append(_row(r))
        return rows, str(info.value)

    rows, message = until_raised(search.search(2, 40, "M"))
    assert (rows, message) == until_raised(map(min_max_quotient,
                                               range(2, 41)))
    assert len(rows) == {1.0: 4, 0.9: 2}[log]


def test_range_search_checks_both_ends_before_the_first_record():
    with pytest.raises(LimitExceeded):
        search.search(2, search.SEARCH_LIMIT + 1)
    with pytest.raises(BadRange):
        search.search(1, 3, "S")
