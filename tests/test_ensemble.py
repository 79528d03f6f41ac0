import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cfq.core import (ReducedFraction, WeightFn, Window, cf_digits, cf_walk,
                      expand, restricted_sum, stat_alt, stat_count, stat_max,
                      stat_sum)
from cfq.ensemble import (EnsembleSummary, StatSpec, digit_histogram,
                          euler_phi, scan)
from cfq.errors import InvalidSpec, LimitExceeded
from cfq.core import alt_sum, count_in, windowed_sum
from cfq.dedekind import dedekind_scaled
from cfq.ensemble import HISTOGRAM_LIMIT, PI2, STAT_KINDS, _representatives
from cfq.theorems import constants, mu_window, panov_mean_report, thm_harness
from cfq.weight import weight_row_at


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


def test_harness_shapes(monkeypatch):
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
    # a T3 window over the limit is rejected before Z_N* is scanned
    monkeypatch.setattr("cfq.ensemble.scan", None)
    with pytest.raises(LimitExceeded):
        thm_harness(10007, "T3", b=1, c=HISTOGRAM_LIMIT + 1)


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


def test_dedekind_histogram_keys_are_built_when_read(monkeypatch):
    from cfq.farey import vardi_sample
    built = []
    real_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return real_new(cls, *args, **kwargs)

    # every Fraction is built through fractions.Fraction.__new__, whichever
    # module imports the class
    monkeypatch.setattr(Fraction, "__new__", counting_new)
    s = scan(101, StatSpec("D"), with_histogram=True)
    vardi_sample(30)
    assert built == []
    hist = s.histogram
    assert len(built) == len(s.counts) > 0
    assert hist == {Fraction(raw, s.scale): v for raw, v in s.counts.items()}


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
        cfs = [expand(ReducedFraction(a, N)) for a in range(1, N)
               if math.gcd(a, N) == 1]
        for spec, stat in cases:
            hist = scan(N, spec, with_histogram=True).histogram
            assert hist == Counter(stat(cf) for cf in cfs), (N, spec.label())


def _reference_scan(N, spec, thresholds, center, absolute):
    """The per-numerator scan: one walk and one fold for every a in Z_N*,
    as (count, sum, sum of squares, tail counts, histogram)."""
    scale = 24 * N if spec.kind == "D" else 1
    if spec.kind == "D":
        def value(a):
            return dedekind_scaled(a, N)
    else:
        fold, params = {"S": (sum, ()), "M": (max, ()), "S_alt": (alt_sum, ()),
                        "L": (count_in, (spec.b, spec.c)),
                        "restricted": (windowed_sum,
                                       (spec.f, spec.eta, spec.theta))}[spec.kind]

        def value(a):
            return fold(cf_digits(a, N), *params)
    logN = math.log(N)
    cuts = [t * logN for t in thresholds]
    tails = [0] * len(thresholds)
    hist = {}
    count = total = total_sq = 0
    for a in range(1, N):
        if math.gcd(a, N) != 1:
            continue
        raw = value(a)
        count += 1
        total += raw
        total_sq += raw * raw
        hist[raw] = hist.get(raw, 0) + 1
        z = raw / scale - center
        if absolute:
            z = abs(z)
        for j, cut in enumerate(cuts):
            if z >= cut:
                tails[j] += 1
    hist = {Fraction(raw, scale) if scale != 1 else raw: v
            for raw, v in hist.items()}
    return count, total, total_sq, dict(zip(thresholds, tails)), hist


def _reference_digit_histogram(N, m_max):
    """digit_histogram from one walk of every a in Z_N*."""
    counts = [0] * (m_max + 1)
    last = [0] * (m_max + 1)
    overflow = 0
    for a in range(1, N):
        if math.gcd(a, N) != 1:
            continue
        digits = cf_digits(a, N)
        for q in digits:
            if q <= m_max:
                counts[q] += 1
            else:
                overflow += 1
        if digits[-1] <= m_max:
            last[digits[-1]] += 1
    counts = {m: counts[m] for m in range(1, m_max + 1)}
    last = {m: last[m] for m in counts}
    phi = euler_phi(N)
    norm = PI2 / (12 * math.log(2) * math.log(N))
    return {"N": N, "phi": phi, "counts": counts,
            "freq": {m: norm * counts[m] / phi for m in counts},
            "target": {m: math.log2(1 + 1 / (m * (m + 2))) for m in counts},
            "overflow": overflow, "last_counts": last,
            "interior_freq": {m: norm * (counts[m] - last[m]) / phi
                              for m in counts}}


def test_orbit_scan_matches_per_numerator_reference():
    specs = [StatSpec("S"), StatSpec("M"), StatSpec("S_alt"), StatSpec("D"),
             StatSpec("L", b=1, c=1), StatSpec("L", b=2, c=5),
             StatSpec("L", b=1, c=3),
             StatSpec("restricted", f=WeightFn.identity(), eta=2),
             StatSpec("restricted", f=WeightFn.square(), eta=1, theta=3)]
    thresholds = [0.05, 0.3, 1.0, 3.0]
    cases = [(N, 1) for N in list(range(2, 601)) + [30030]] + \
        [(N, 2) for N in (2, 3, 4, 1009, 30030)]
    for N, workers in cases:
        center, absolute = (1.5, True) if N % 2 else (-0.25, False)
        for spec in specs:
            s = scan(N, spec, thresholds=thresholds, workers=workers,
                     with_histogram=True, center=center, absolute=absolute)
            got = (s.count, s.sum_scaled, s.sumsq_scaled, s.tail_counts,
                   s.histogram)
            assert got == _reference_scan(N, spec, thresholds, center,
                                          absolute), (N, workers, spec.label())
        if N >= 3:
            for m_max in (1, 3, N + 1):
                assert digit_histogram(N, m_max, workers=workers) == \
                    _reference_digit_histogram(N, m_max), (N, workers, m_max)


@st.composite
def _specs(draw):
    kind = draw(st.sampled_from(STAT_KINDS))
    if kind == "L":
        b = draw(st.integers(1, 6))
        return StatSpec("L", b=b, c=draw(st.integers(b, 12)))
    if kind == "restricted":
        eta = draw(st.integers(1, 5))
        theta = draw(st.one_of(st.none(), st.integers(eta, 12)))
        weights = [WeightFn.one(), WeightFn.square(), WeightFn.identity()]
        if theta is not None:  # a rational table on the window
            steps = draw(st.lists(st.fractions(0, 3, max_denominator=7),
                                  min_size=theta - eta + 1,
                                  max_size=theta - eta + 1))
            weights.append(WeightFn.from_table(
                [sum(steps[:i + 1]) for i in range(len(steps))], start=eta))
        return StatSpec("restricted", f=draw(st.sampled_from(weights)),
                        eta=eta, theta=theta)
    return StatSpec(kind)


@settings(max_examples=80, deadline=None)
@given(N=st.integers(2, 700), spec=_specs(),
       thresholds=st.lists(st.one_of(st.just(0.0),
                                     st.floats(-3, 6, allow_nan=False)),
                           max_size=4, unique=True),
       center=st.floats(-10, 30, allow_nan=False), absolute=st.booleans(),
       workers=st.sampled_from((1, 3)))
def test_scan_fold_matches_reference(N, spec, thresholds, center, absolute,
                                     workers):
    ref = _reference_scan(N, spec, thresholds, center, absolute)
    s = scan(N, spec, thresholds=thresholds, workers=workers,
             with_histogram=True, center=center, absolute=absolute)
    assert (s.count, s.sum_scaled, s.sumsq_scaled, s.tail_counts,
            s.histogram) == ref
    plain = scan(N, spec, thresholds=thresholds, workers=workers,
                 center=center, absolute=absolute)
    assert plain.counts is None and plain.histogram is None
    assert (plain.count, plain.sum_scaled, plain.sumsq_scaled,
            plain.tail_counts) == ref[:4]


def test_orbit_member_digits():
    # a < N/2 with a* = min(a^-1, N - a^-1): a* has the reversed digits,
    # N - a and N - a* swap the first digit d for 1, d - 1
    for N in range(3, 300):
        for a in range(1, (N + 1) // 2):
            if math.gcd(a, N) != 1:
                continue
            d = cf_digits(a, N)
            inv = pow(a, -1, N)
            star = min(inv, N - inv)
            assert cf_walk(a, N) == (d, star), (N, a)
            assert cf_digits(star, N) == d[::-1], (N, a)
            assert cf_digits(N - a, N) == [1, d[0] - 1] + d[1:], (N, a)
            assert cf_digits(N - star, N) == [1, d[-1] - 1] + d[-2::-1], (N, a)
    # r = 1: a = 1 is a palindrome, N - 1 = [0; 1, N - 1]
    assert cf_digits(1, 7) == [7] and cf_digits(6, 7) == [1, 6]
    # a palindrome has a^2 = +-1: 3^2 = -1 mod 10, 4^2 = 1 mod 15
    assert cf_digits(3, 10) == [3, 3] and cf_digits(4, 15) == [3, 1, 3]


def test_representatives_partition_units_into_orbits(monkeypatch):
    for N in range(2, 300):
        members = []
        for a, star, digits in _representatives(N, 1, N // 2 + 1):
            assert digits == cf_digits(a, N), (N, a)
            orbit = {a, N - a, star, N - star}
            assert len(orbit) == (1 if N == 2 else 2 if star == a else 4)
            assert (star == a) == (a * a % N in (1, N - 1)), (N, a)
            members += orbit
        assert sorted(members) == [a for a in range(1, N)
                                   if math.gcd(a, N) == 1], N
        # a range sees a partner a* only inside itself
        for cut in (2, N // 4 + 1, N // 3 + 1):
            if 1 < cut <= N // 2:
                assert list(_representatives(N, 1, cut)) + \
                    list(_representatives(N, cut, N // 2 + 1)) == \
                    list(_representatives(N, 1, N // 2 + 1)), (N, cut)
    # marks a* only inside a block: blocks of 5 numerators change nothing,
    # and the walks of partners from earlier blocks or ranges are discarded
    whole = {N: list(_representatives(N, 1, N // 2 + 1)) for N in (97, 1009)}
    monkeypatch.setattr("cfq.ensemble.MARK_BLOCK", 5)
    for N, reps in whole.items():
        assert list(_representatives(N, 1, N // 2 + 1)) == reps
        assert digit_histogram(N, 4) == _reference_digit_histogram(N, 4)
        for spec in (StatSpec("S"), StatSpec("M"), StatSpec("D")):
            ref = _reference_scan(N, spec, [1.0], 0.0, True)
            for workers in (1, 3):
                s = scan(N, spec, thresholds=[1.0], workers=workers,
                         with_histogram=True, absolute=True)
                assert (s.count, s.sum_scaled, s.sumsq_scaled, s.tail_counts,
                        s.histogram) == ref, (N, spec.label(), workers)
    monkeypatch.undo()
    # N = 2: {1}; N = 3, 4, 6: {1, N - 1}
    for N in (2, 3, 4, 6):
        assert list(_representatives(N, 1, N // 2 + 1)) == [(1, 1, [N])]
        assert scan(N, StatSpec("M"), with_histogram=True).histogram == \
            Counter(max(cf_digits(a, N)) for a in range(1, N)
                    if math.gcd(a, N) == 1)


@settings(max_examples=300, deadline=None)
@given(count=st.integers(1, 10 ** 12),
       scale=st.one_of(st.just(1), st.integers(1, 10 ** 9),
                       st.integers(2, 10 ** 8).map(lambda N: 24 * N)),
       total=st.one_of(st.integers(-2 ** 64, 2 ** 64),
                       st.integers(2 ** 53, 2 ** 120)),
       spread=st.integers(0, 2 ** 130),
       den=st.one_of(st.just(1), st.integers(2, 10 ** 6)))
def test_float_moments_equal_the_exact_ones_rounded(count, scale, total,
                                                    spread, den):
    # sumsq * count >= total^2 for any real data (Cauchy-Schwarz); spread
    # is the surplus, so the variance is any rational the data can give
    sumsq = -(-(total * total + spread) // count)
    if den > 1:  # the Fraction sums of a table weight, over den and den^2
        total, sumsq = Fraction(total, den), Fraction(sumsq, den * den)
    s = EnsembleSummary(N=2, phi=1, spec=StatSpec("S"), count=count,
                        scale=scale, sum_scaled=total, sumsq_scaled=sumsq,
                        tail_counts={}, counts=None, center=0.0,
                        absolute=False)
    assert s.exact_mean == Fraction(total, scale * count)
    assert s.exact_variance == (Fraction(sumsq, scale ** 2 * count)
                                - Fraction(total, scale * count) ** 2)
    assert type(s.mean) is float and s.mean == float(s.exact_mean)
    assert type(s.variance) is float
    assert s.variance == float(s.exact_variance)


def test_moments_of_a_table_weight_are_floats():
    # a table weight's values are Fractions, and so are the scan's sums
    spec = StatSpec("restricted", eta=1, theta=7,
                    f=WeightFn.from_table([1 / 3, 1 / 2, 1, 2, 3, 5, 8]))
    s = scan(11, spec)
    assert type(s.sum_scaled) is Fraction
    assert type(s.mean) is float and s.mean == float(s.exact_mean)
    assert type(s.variance) is float
    assert s.variance == float(s.exact_variance)
