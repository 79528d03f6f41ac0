import math
from collections import Counter
from fractions import Fraction

import pytest

from cfq.core import (ReducedFraction, WeightFn, Window, cf_digits, expand,
                      restricted_sum, stat_alt, stat_count, stat_max, stat_sum)
from cfq.ensemble import (StatSpec, constants, digit_histogram,
                          enumerate_coprime, euler_phi, mu_window,
                          panov_mean_report, scan, thm_harness)
from cfq.errors import InvalidSpec, LimitExceeded
from cfq.weight import weight_row_at


def test_enumerate_coprime():
    assert [f.a for f in enumerate_coprime(6)] == [1, 5]
    assert [f.a for f in enumerate_coprime(12)] == [1, 5, 7, 11]
    assert [f.a for f in enumerate_coprime(7)] == list(range(1, 7))


def test_euler_phi():
    assert euler_phi(1) == 1
    for N in range(2, 300):
        assert euler_phi(N) == sum(1 for a in range(1, N + 1)
                                   if math.gcd(a, N) == 1)


def test_spec_validation():
    with pytest.raises(InvalidSpec):
        StatSpec("bogus")
    with pytest.raises(InvalidSpec):
        StatSpec("L", b=3, c=1)
    with pytest.raises(InvalidSpec):
        StatSpec("restricted")


def test_scan_hand_examples():
    s = scan(10, StatSpec("S"))
    assert s.sum_scaled == 32 and s.mean == 8.0 and s.phi == 4
    assert scan(3, StatSpec("M")).mean == 2.5
    assert scan(2, StatSpec("S")).mean == 2.0
    assert scan(10, StatSpec("L", b=1, c=1)).exact_mean == Fraction(1, 2)


def test_scan_limit():
    with pytest.raises(LimitExceeded):
        scan(1 << 62, StatSpec("S"))


def test_scan_tail_example():
    t = 9 / math.log(10)
    s = scan(10, StatSpec("M"), thresholds=[t])
    assert s.tail_fraction(t) == 0.5  # M values 10, 3, 3, 9


def test_scan_determinism_across_workers():
    for spec in (StatSpec("S"), StatSpec("D"),
                 StatSpec("restricted", f=WeightFn.identity(), eta=1, theta=4)):
        one = scan(1009, spec, thresholds=[2.0, 4.0], absolute=True,
                   workers=1, with_histogram=True)
        eight = scan(1009, spec, thresholds=[2.0, 4.0], absolute=True,
                     workers=8, with_histogram=True)
        assert one.sum_scaled == eight.sum_scaled
        assert one.sumsq_scaled == eight.sumsq_scaled
        assert one.tail_counts == eight.tail_counts
        assert one.histogram == eight.histogram


def test_variance_nonnegative_and_exact():
    s = scan(101, StatSpec("S"))
    assert s.exact_variance >= 0
    values = []
    for a in range(1, 101):
        if math.gcd(a, 101) == 1:
            from cfq.core import cf_digits
            values.append(sum(cf_digits(a, 101)))
    mean = Fraction(sum(values), len(values))
    var = Fraction(sum(v * v for v in values), len(values)) - mean * mean
    assert s.exact_mean == mean and s.exact_variance == var


def test_scan_sum_matches_weight_identity():
    # identity (10) summed over the full modulus set gives the plain digit sum
    w = Window(1, 120)
    f = WeightFn.identity()
    for N in (30, 47, 120):
        total = 0
        for a in range(1, N):
            if math.gcd(a, N) == 1:
                total += sum(weight_row_at(a, N, k, f, Window(1, N))
                             for k in range(1, N))
        assert total == scan(N, StatSpec("S")).sum_scaled


def test_dedekind_scan_consistency():
    from cfq.dedekind import dedekind_bh
    s = scan(101, StatSpec("D"))
    brute = sum(dedekind_bh(ReducedFraction(a, 101)) for a in range(1, 101))
    assert Fraction(s.sum_scaled, s.scale) == brute
    # antisymmetry makes the ensemble mean vanish
    assert s.sum_scaled == 0


def test_digit_histogram_example():
    h = digit_histogram(10, 10)
    assert h["counts"][3] == 3
    assert h["counts"][9] == 1 and h["counts"][10] == 1
    assert h["overflow"] == 0
    assert abs(h["target"][1] - 0.415037) < 1e-5
    # digits above the cutoff are tallied separately
    assert digit_histogram(10, 5)["overflow"] == 2


def test_digit_histogram_counts_match_L_scan():
    for N in (101, 1009):
        h = digit_histogram(N, 6)
        for m in range(1, 7):
            assert h["counts"][m] == scan(N, StatSpec("L", b=m, c=m)).sum_scaled


def test_digit_histogram_last_and_interior_match_brute_force():
    for N in range(3, 301):
        last = [0] * (N + 1)
        inner = [0] * (N + 1)
        for a in range(1, N):
            if math.gcd(a, N) != 1:
                continue
            digits = cf_digits(a, N)
            last[digits[-1]] += 1
            for d in digits[:-1]:
                inner[d] += 1
        for workers in (1, 2):
            h = digit_histogram(N, N, workers=workers)
            for m in range(1, N + 1):
                assert h["last_counts"][m] == last[m], (N, workers, m)
                assert h["counts"][m] - h["last_counts"][m] == inner[m], \
                    (N, workers, m)


def test_constants_examples():
    tc = constants(WeightFn.identity(), Window(1, 2), 1, 1)
    expected_A = (12 / math.pi ** 2) * (math.log(4 / 3) + 2 * math.log(9 / 8))
    assert abs(tc.A - expected_A) < 1e-12
    assert abs(tc.B - (tc.A + 1)) < 1e-12
    assert abs(tc.C - 10 / tc.B) < 1e-12
    assert min(tc.A, tc.B, tc.C, tc.D, tc.Dprime, tc.Xi, tc.mu) > 0
    one = constants(WeightFn.one(), Window(2, 5), 1, 1)
    assert abs(one.Xi - (2 / 6 + 2 / 42)) < 1e-12
    assert abs(mu_window(1, 1) - 0.3498) < 5e-4
    with pytest.raises(ZeroDivisionError):
        constants(WeightFn.from_table([0, 0], start=1), Window(1, 2), 1, 1)


def test_harness_shapes():
    r = thm_harness(10007, "T3", b=1, c=1)
    assert r["ok"] and abs(r["ratio"] - 1) <= 0.10
    r = thm_harness(10007, "T2", [2.0, 4.0])
    assert r["monotone"]
    r = thm_harness(10007, "T1", [8.0, 16.0])
    assert all(row["product"] <= 3 for row in r["rows"])
    r = thm_harness(10007, "T4", [8.0, 16.0])
    assert all(row["product"] <= 3 for row in r["rows"])
    with pytest.raises(InvalidSpec):
        thm_harness(10007, "T9")


def test_tail_monotone_in_t():
    s = scan(10007, StatSpec("M"), thresholds=[1.0, 2.0, 4.0, 8.0])
    fr = [s.tail_fraction(t) for t in (1.0, 2.0, 4.0, 8.0)]
    assert fr == sorted(fr, reverse=True)


def test_panov_example():
    r = panov_mean_report(10)
    assert r["exact_mean"] == 8
    assert abs(r["target"] - 3.224) < 5e-3
    assert abs(r["ratio"] - 2.48) < 0.02


def test_partition_ranges_and_processes():
    from cfq.ensemble import _partition
    # exactly `workers` contiguous, non-empty ranges when workers <= N - 1
    ranges, processes = _partition(1009, 8, cpus=2)
    assert len(ranges) == 8 and processes == 2
    assert ranges[0][0] == 1 and ranges[-1][1] == 1009
    assert all(lo < hi == nxt for (lo, hi), (nxt, _) in zip(ranges, ranges[1:]))
    # more workers than numerators: one range per numerator, still 2 processes
    assert _partition(50, 10 ** 6, cpus=2) == ([(a, a + 1) for a in range(1, 50)], 2)
    assert _partition(50, 10 ** 6, cpus=1)[1] == 1
    assert _partition(50, 0, cpus=2) == ([(1, 50)], 1)
    assert _partition(2, 8, cpus=2) == ([(1, 2)], 1)


def test_serial_fallback_without_fork(monkeypatch):
    import multiprocessing
    import os

    def no_pool(*args):
        raise AssertionError("a process pool was created")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                        lambda: ["spawn"])
    monkeypatch.setattr(multiprocessing, "get_context", no_pool)
    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    for spec in (StatSpec("S"), StatSpec("D")):
        assert scan(50, spec, thresholds=[1.0], workers=2) == \
            scan(50, spec, thresholds=[1.0], workers=1)
    assert digit_histogram(50, 5, workers=2) == digit_histogram(50, 5, workers=1)


def test_dedekind_histogram_keys_are_exact():
    from cfq.dedekind import dedekind_bh
    N = 101
    s = scan(N, StatSpec("D"), with_histogram=True)
    assert set(s.histogram) == {dedekind_bh(ReducedFraction(a, N))
                                for a in range(1, N)}
    assert all(isinstance(k, Fraction) for k in s.histogram)
    assert sum(k * v for k, v in s.histogram.items()) == \
        Fraction(s.sum_scaled, s.scale)
    assert all(type(k) is int for k in scan(N, StatSpec("S"),
                                            with_histogram=True).histogram)


def test_scan_histograms_match_core_statistics():
    cases = [
        (StatSpec("S"), stat_sum),
        (StatSpec("M"), stat_max),
        (StatSpec("L", b=1, c=2), lambda cf: stat_count(cf, 1, 2)),
        (StatSpec("L", b=2, c=5), lambda cf: stat_count(cf, 2, 5)),
        (StatSpec("S_alt"), stat_alt),
        (StatSpec("restricted", f=WeightFn.identity(), eta=2),
         lambda cf: restricted_sum(cf, WeightFn.identity(), Window(2))),
        (StatSpec("restricted", f=WeightFn.square(), eta=1, theta=3),
         lambda cf: restricted_sum(cf, WeightFn.square(), Window(1, 3))),
    ]
    for N in range(2, 151):
        cfs = [expand(frac) for frac in enumerate_coprime(N)]
        for spec, stat in cases:
            hist = scan(N, spec, with_histogram=True).histogram
            assert hist == Counter(stat(cf) for cf in cfs), (N, spec.label())
