import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cfq.core import ReducedFraction, WeightFn, Window, cf_digits, convergents_of
from cfq.errors import BadDigit, InvalidWeight, InvalidWindow, NotCoprime
from cfq.weight import (IntervalQ, _bijection_rhs, _hits_at_fraction,
                        _interval, bijection_identity_check,
                        counting_identity_check, integral_row, interval_I,
                        interval_Iprime, interval_left, prefix_convergents,
                        row_sum, weight_eval, weight_hits, weight_row_at,
                        weight_step_pieces)


def _prefix_denominators(b, k):
    """(q_s, q_{s-1}) of b/k = [0; b_1, ..., b_s] and of its I' prefix
    [0; b_1, ..., b_s - 1, 1]; for k = 1 the empty prefix and [0; 1]."""
    if k == 1:
        return (1, 0), (1, 1)
    conv = convergents_of(cf_digits(b, k))
    qs, qs1 = conv[-1][1], conv[-2][1]
    return (qs, qs1), (qs, qs - qs1)


def _closed_measure(Q, Q1, m):
    return Fraction(1, (m * Q + Q1) * ((m + 1) * Q + Q1))


def measure_I(b, k, m):
    """Closed-form Lebesgue measure of I(b/k, m), the oracle for integral_row."""
    return _closed_measure(*_prefix_denominators(b, k)[0], m)


def measure_Iprime(b, k, m):
    """Closed-form Lebesgue measure of I'(b/k, m)."""
    return _closed_measure(*_prefix_denominators(b, k)[1], m)


def brute_hits(b, k, x, m_max):
    """Every digit m <= m_max whose I(b/k, m) or I'(b/k, m) holds x.

    A hit m is a partial quotient of x (or, at an endpoint, the
    denominator of x is m Q + Q' >= m), so m_max = x.denominator finds
    every hit."""
    out = []
    for m in range(1, m_max + 1):
        if interval_I(b, k, m).contains(x):
            out.append(m)
        if interval_Iprime(b, k, m).contains(x):
            out.append(m)
    return sorted(out)


def test_interval_examples():
    iv = interval_I(1, 2, 1)
    assert (iv.lo, iv.hi) == (Fraction(1, 3), Fraction(2, 5))
    assert not iv.lo_closed and not iv.hi_closed
    assert iv.measure == measure_I(1, 2, 1) == Fraction(1, 15)
    iv = interval_Iprime(1, 2, 1)
    assert (iv.lo, iv.hi) == (Fraction(3, 5), Fraction(2, 3))
    assert iv.measure == measure_Iprime(1, 2, 1) == Fraction(1, 15)
    # closed left endpoint once the digit exceeds 1
    assert interval_I(1, 2, 2).contains(interval_I(1, 2, 2).lo) or \
        interval_I(1, 2, 2).contains(interval_I(1, 2, 2).hi)


def test_interval_k1_specials():
    assert str(interval_I(1, 1, 1)) == "(1/2, 1)"
    assert str(interval_I(1, 1, 3)) == "(1/4, 1/3]"
    assert str(interval_Iprime(1, 1, 1)) == "(1/2, 2/3)"
    assert str(interval_Iprime(1, 1, 4)) == "[4/5, 5/6)"
    assert measure_I(1, 1, 1) == Fraction(1, 2)
    assert measure_Iprime(1, 1, 1) == Fraction(1, 6)
    assert measure_I(1, 1, 4) == Fraction(1, 20)


def test_intervals_match_digit_definition():
    # Both families straight from the module docstring: the endpoints are
    # the prefix continued by m (included iff m > 1) and by m + 1 (excluded).
    for k in range(1, 31):
        for b in range(1, k + 1):
            if math.gcd(b, k) != 1 or (b == k and k > 1):
                continue
            d = cf_digits(b, k) if k > 1 else []
            prime = d[:-1] + [d[-1] - 1, 1] if k > 1 else [1]
            for interval, prefix in ((interval_I, d), (interval_Iprime, prime)):
                for m in range(1, 9):
                    iv = interval(b, k, m)
                    e1 = Fraction(*convergents_of(prefix + [m])[-1])
                    e2 = Fraction(*convergents_of(prefix + [m + 1])[-1])
                    assert {iv.lo, iv.hi} == {e1, e2}
                    assert iv.contains(e1) == (m > 1)
                    assert not iv.contains(e2)


def test_interval_validation():
    with pytest.raises(NotCoprime):
        interval_I(2, 4, 1)
    with pytest.raises(BadDigit):
        interval_I(1, 2, 0)
    with pytest.raises(NotCoprime):
        interval_left(1, 1, 2)
    with pytest.raises(InvalidWindow):
        IntervalQ(Fraction(1, 2), Fraction(1, 3), True, True)
    with pytest.raises(InvalidWindow):
        IntervalQ(Fraction(1, 2), Fraction(1, 2), True, False)
    # degenerate allowed when both endpoints are closed
    atom = IntervalQ(Fraction(1, 2), Fraction(1, 2), True, True)
    assert atom.contains(Fraction(1, 2)) and atom.measure == 0


def test_measures_match_intervals():
    for k in range(1, 12):
        for b in range(1, k + 1):
            if math.gcd(b, k) != 1 or (b == k and k > 1):
                continue
            for m in range(1, 8):
                assert interval_I(b, k, m).measure == measure_I(b, k, m)
                assert interval_Iprime(b, k, m).measure == measure_Iprime(b, k, m)


def test_interval_left_is_left():
    for k in range(2, 15):
        for b in range(1, k):
            if math.gcd(b, k) != 1:
                continue
            for m in range(1, 6):
                iv = interval_left(b, k, m)
                assert iv.hi <= Fraction(b, k)


def test_hits_against_brute():
    random.seed(11)
    for _ in range(800):
        k = random.randint(1, 10)
        bs = [b for b in range(1, k + 1)
              if math.gcd(b, k) == 1 and (b < k or k == 1)]
        b = random.choice(bs)
        den = random.randint(2, 120)
        num = random.randint(1, den - 1)
        x = Fraction(num, den)
        hits = brute_hits(b, k, x, x.denominator)
        assert sorted(weight_hits(b, k, x)) == hits


def test_integer_hits_against_brute_unreduced():
    # a/N is taken as given, reduced or not
    random.seed(13)
    for _ in range(400):
        k = random.randint(1, 10)
        bs = [b for b in range(1, k + 1)
              if math.gcd(b, k) == 1 and (b < k or k == 1)]
        b = random.choice(bs)
        den = random.randint(2, 60)
        num = random.randint(1, den - 1)
        g = random.randint(1, 4)
        x = Fraction(num, den)
        assert sorted(_hits_at_fraction(b, k, g * num, g * den)) == \
            brute_hits(b, k, x, x.denominator), (b, k, num, den, g)


def fraction_hits(b, k, x):
    """The Fraction form of the hit search: invert the endpoint formula
    x = (t P + P') / (t Q + Q') for t, then confirm exact membership."""
    hits = []
    for pair in prefix_convergents(b, k):
        P, Q, P1, Q1 = pair
        denom = x * Q - P
        if denom == 0:
            continue
        base = math.floor((P1 - x * Q1) / denom)
        for m in range(max(1, base - 1), max(1, base) + 2):
            if _interval(pair, m).contains(x):
                hits.append(m)
    return hits


def test_integer_hits_match_fraction_hits():
    random.seed(12)
    for _ in range(800):
        k = random.randint(1, 10)
        bs = [b for b in range(1, k + 1)
              if math.gcd(b, k) == 1 and (b < k or k == 1)]
        b = random.choice(bs)
        N = random.randint(2, 200)
        a = random.randint(1, N - 1)
        assert sorted(weight_hits(b, k, Fraction(a, N))) == \
            sorted(fraction_hits(b, k, Fraction(a, N))), (b, k, a, N)


def three_candidate_hits(pairs, a, N):
    """The earlier integer hit search on the convergent pairs of b/k:
    floor of the inverted endpoint formula, then the candidates
    base - 1 .. base + 1 checked against both endpoints by the signs of
    a q - N p, which is linear in m.  Returns the hits and whether a/N
    is the included endpoint of one of them."""
    hits = []
    on_endpoint = False
    for P, Q, P1, Q1 in pairs:
        denom = a * Q - N * P
        if denom == 0:
            continue
        num = N * P1 - a * Q1
        base = num // denom
        for m in range(max(1, base - 1), max(1, base) + 2):
            c1 = m * denom - num  # a (m Q + Q') - N (m P + P')
            c2 = c1 + denom
            if (c1 > 0 > c2) or (c1 < 0 < c2) or (c1 == 0 and m > 1):
                hits.append(m)
                on_endpoint = on_endpoint or c1 == 0
    return tuple(hits), on_endpoint


def test_divmod_hits_match_three_candidates():
    # every prefix b/k with k <= 12 against every a/N, 2 <= N <= 80,
    # reduced or not; the uncached function keeps the cache small
    hits_at = _hits_at_fraction.__wrapped__
    endpoints, digits = 0, set()
    for k in range(1, 13):
        for b in range(1, k + 1):
            if math.gcd(b, k) != 1 or (b == k and k > 1):
                continue
            pairs = prefix_convergents(b, k)
            for N in range(2, 81):
                for a in range(1, N):
                    ref, on_endpoint = three_candidate_hits(pairs, a, N)
                    assert hits_at(b, k, a, N) == ref, (b, k, a, N)
                    endpoints += on_endpoint
                    digits.update(ref)
    # the grid holds included endpoints, hits with m = 1 and with m > 1
    assert endpoints and 1 in digits and max(digits) > 1


DIFF_WEIGHTS = (
    (WeightFn.one(), Window(1, 5)),
    (WeightFn.identity(), Window(2, 6)),
    (WeightFn.from_table([Fraction(1, 3), Fraction(1, 2), 2, Fraction(7, 2),
                          5], start=2), Window(2, 6)),
)


def test_integral_row_matches_fraction_form():
    for k in range(1, 121):
        for f, w in DIFF_WEIGHTS:
            ref = Fraction(0)
            for b in range(1, k + 1):
                if math.gcd(b, k) != 1:
                    continue
                for m in range(w.eta, w.theta + 1):
                    ref += Fraction(f(m)) * (measure_I(b, k, m)
                                             + measure_Iprime(b, k, m))
            assert integral_row(k, f, w)[0] == ref, (k, f.kind)


def test_bijection_rhs_matches_fraction_form():
    for k in range(2, 121):
        for f, w in DIFF_WEIGHTS:
            ref = Fraction(0)
            for m in range(w.eta, w.theta + 1):
                fm = Fraction(f(m))
                acc = Fraction(0)
                for b in range(1, k):
                    if math.gcd(b, k) != 1:
                        continue
                    bk = Fraction(b, k)
                    acc += (1 / ((m + bk) * (m + 1 + bk))
                            + 1 / ((m + 1 - bk) * (m + 2 - bk)))
                ref += fm / k ** 2 * acc
            assert _bijection_rhs(k, f, w) == ref, (k, f.kind)
            assert bijection_identity_check(k, f, w)


def test_weight_eval_window_filter():
    # 7/10 continues the prefix 2/3 = [0;1,2] with digit 3
    assert weight_eval(2, 3, Fraction(7, 10), WeightFn.identity(),
                       Window(1, 5)) == 3
    assert weight_eval(2, 3, Fraction(7, 10), WeightFn.identity(),
                       Window(4, 9)) == 0


def test_counting_identity_small():
    for N in range(3, 61):
        sq = set(range(1, math.isqrt(N) + 1))
        full = set(range(1, N))
        for a in range(1, N):
            if math.gcd(a, N) != 1:
                continue
            frac = ReducedFraction(a, N)
            for f in (WeightFn.one(), WeightFn.identity()):
                for w in (Window(1, 4), Window(2, 7), Window(1, N)):
                    for A in (full, sq):
                        assert counting_identity_check(frac, A, f, w)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=400),
       st.integers(min_value=1, max_value=400),
       st.integers(min_value=1, max_value=6))
def test_counting_identity_random(N, a, eta):
    a = a % N
    if a == 0 or math.gcd(a, N) != 1:
        return
    frac = ReducedFraction(a, N)
    A = set(range(1, math.isqrt(N) + 1))
    assert counting_identity_check(frac, A, WeightFn.identity(),
                                   Window(eta, eta + 4))


def test_bijection_identity():
    for k in range(2, 41):
        assert bijection_identity_check(k, WeightFn.one(), Window(1, 5))
        assert bijection_identity_check(k, WeightFn.identity(), Window(2, 6))
    with pytest.raises(NotCoprime):
        bijection_identity_check(1, WeightFn.one(), Window(1, 5))


def test_integral_row_exact_vs_measures():
    f, w = WeightFn.one(), Window(1, 5)
    for k in (1, 2, 3, 7, 10):
        exact, main = integral_row(k, f, w)
        brute = Fraction(0)
        for b in range(1, k + 1):
            if math.gcd(b, k) != 1 or (b == k and k > 1):
                continue
            for m in range(w.eta, w.theta + 1):
                brute += measure_I(b, k, m) + measure_Iprime(b, k, m)
        assert exact == brute
        assert abs(float(exact) - main) < 0.3 / k ** 2 + 0.05


def test_integral_row_rejects_moduli_below_one():
    for k in (0, -3):
        with pytest.raises(NotCoprime):
            integral_row(k, WeightFn.one(), Window(1, 5))


def test_row_sum_averages_counting_identity():
    # averaging identity (sum over k of row means) equals mean of the
    # restricted digit sum over the ensemble
    from cfq.core import cf_digits
    N = 61
    f = WeightFn.identity()
    w = Window(1, N)
    total_rows = Fraction(0)
    for k in range(1, N):
        total_rows += row_sum(N, k, f, w)
    mean_S = Fraction(sum(sum(cf_digits(a, N)) for a in range(1, N)
                          if math.gcd(a, N) == 1), N - 1)
    assert total_rows == mean_S


def test_weight_row_at_matches_eval():
    random.seed(13)
    f, w = WeightFn.identity(), Window(1, 9)
    for _ in range(200):
        N = random.randint(3, 150)
        a = random.choice([x for x in range(1, N) if math.gcd(x, N) == 1])
        k = random.randint(1, N - 1)
        x = Fraction(a, N)
        brute = sum(weight_eval(b, k, x, f, w)
                    for b in range(1, k + 1)
                    if math.gcd(b, k) == 1 and (b < k or k == 1))
        assert weight_row_at(a, N, k, f, w) == brute


def test_row_window_matches_every_prefix():
    # The window |a k - b N| k <= N against every b in Z_k*, for every
    # a/N with N <= 60, reduced or not, and 1 <= k <= N + 1.  The brute
    # side uses the uncached hit search, and the entries weight_row_at
    # puts in the cache are dropped at the end.
    hits_at = _hits_at_fraction.__wrapped__
    f, w = WeightFn.identity(), Window(1)
    for k in range(1, 62):
        units = [b for b in range(1, k + 1) if math.gcd(b, k) == 1]
        for N in range(max(2, k - 1), 61):
            for a in range(1, N):
                brute = sum(m for b in units for m in hits_at(b, k, a, N))
                assert weight_row_at(a, N, k, f, w) == brute, (a, N, k)
    _hits_at_fraction.cache_clear()


def test_moduli_below_one_add_nothing():
    f, w = WeightFn.identity(), Window(1, 6)
    for N in range(2, 30):
        for a in range(1, N):
            assert weight_row_at(a, N, 0, f, w) == 0
            assert weight_row_at(a, N, -3, f, w) == 0
            if math.gcd(a, N) == 1:
                frac = ReducedFraction(a, N)
                assert counting_identity_check(frac, {0, -3, 1, 2}, f, w) \
                    == counting_identity_check(frac, {1, 2}, f, w)


def test_step_pieces():
    pieces = weight_step_pieces(1, 2, WeightFn.identity(), Window(1, 3))
    assert len(pieces) == 6
    assert all(v == m for (iv, v), m in zip(pieces, [1, 1, 2, 2, 3, 3]))


def _windowed_row_at(a, N, k, f, w):
    """weight_row_at with no reach test: every b of its window is tried."""
    if k < 1:
        return 0
    Nk, ak2 = N * k, a * k * k
    total = 0
    for b in range(max(1, -((N - ak2) // Nk)), min(k, (ak2 + N) // Nk) + 1):
        if math.gcd(b, k) == 1:
            for m in _hits_at_fraction(b, k, a, N):
                if w.eta <= m and (w.theta is None or m <= w.theta):
                    total += f(m)
    return total


def test_reach_test_skips_only_empty_windows():
    # For every a/N with N <= 60 and 0 <= a <= N, reduced or not, and every
    # 1 <= k <= N + 1: the same row with and without the reach test, for
    # a built-in and a table weight, and an empty b window wherever the
    # test finds a k - b N out of reach.
    skipped = 0
    for N in range(1, 61):
        weights = ((WeightFn.identity(), Window(1)),
                   (WeightFn("table", range(1, N + 2)), Window(1, N + 1)))
        for a in range(N + 1):
            for k in range(1, N + 2):
                for f, w in weights:
                    assert weight_row_at(a, N, k, f, w) \
                        == _windowed_row_at(a, N, k, f, w), (a, N, k, f)
                r = a * k % N
                if r * k > N and (N - r) * k > N:
                    skipped += 1
                    Nk, ak2 = N * k, a * k * k
                    assert max(1, -((N - ak2) // Nk)) \
                        > min(k, (ak2 + N) // Nk), (a, N, k)
    assert skipped > 0
    _hits_at_fraction.cache_clear()


def test_row_sum_checks_its_weight_first():
    # The table covers [1, 3] and the window needs [1, 5]: no (N, k) is
    # summed, whether or not its rows reach a digit the table lacks.
    short = WeightFn("table", [1, 2, 3])
    for N, k in ((7, 2), (11, 2), (13, 2), (29, 2)):
        with pytest.raises(InvalidWeight, match=r"covers \[1, 3\]"):
            row_sum(N, k, short, Window(1, 5))
    full = WeightFn("table", [1, 2, 3, 4, 5])
    for N, k in ((7, 2), (11, 2), (29, 3)):
        assert row_sum(N, k, full, Window(1, 5)) \
            == row_sum(N, k, WeightFn.identity(), Window(1, 5))
