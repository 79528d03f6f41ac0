"""Acceptance gate: one test per criterion, one printed verdict line each,
and a check of criterion 06's oracle on the open ranges it does not draw.

Verdict lines suspend pytest capture so they are visible in any run mode.
"""

import itertools
import json
import math
import random
import sys
import time
from fractions import Fraction

import pytest

from cfq.cli import main as cli_main
from cfq.core import ReducedFraction, WeightFn, Window, cf_digits
from cfq.dedekind import dedekind_bh, dedekind_direct, reciprocity_check
from cfq.discrepancy import (PointSet, StepFn, extreme_discrepancy,
                             koksma_check)
from cfq.ensemble import digit_histogram
from cfq.farey import hensley_tail
from cfq.reflect import reflect_lower, reflect_upper, verify_continuant_identity
from cfq.search import min_max_quotient, zaremba_scan
from cfq.theorems import thm_harness
from cfq.weight import (IntervalQ, bijection_identity_check,
                        counting_identity_check, weight_step_pieces)

BIG_N = 10 ** 6 + 3
UNIT = IntervalQ(Fraction(0), Fraction(1), True, True)


_CAPSYS = None


@pytest.fixture(autouse=True)
def _verdict_capture(capsys):
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def verdict(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def test_criterion_01_round_trip():
    t0 = time.perf_counter()
    failures = 0
    gcd = math.gcd
    for N in range(2, 501):
        for a in range(1, N):
            if gcd(a, N) != 1:
                continue
            digits = cf_digits(a, N)
            if digits[-1] < 2:
                failures += 1
            p0, q0, p1, q1 = 1, 0, 0, 1
            for d in digits:
                p0, q0, p1, q1 = p1, q1, d * p1 + p0, d * q1 + q0
                if p1 * q0 - p0 * q1 not in (1, -1):
                    failures += 1
            if (p1, q1) != (a, N):
                failures += 1
    dt = time.perf_counter() - t0
    verdict(1, failures == 0 and dt < 2.0,
            f"round-trip N<=500, {failures} failures, {dt:.2f}s (< 2s)")


def test_criterion_02_dedekind():
    t0 = time.perf_counter()
    failures = 0
    for N in range(2, 201):
        for a in range(1, N):
            if math.gcd(a, N) != 1:
                continue
            frac = ReducedFraction(a, N)
            if dedekind_bh(frac) != dedekind_direct(frac):
                failures += 1
    for b in range(3, 201):
        for a in range(2, b):
            if math.gcd(a, b) == 1 and not reciprocity_check(a, b):
                failures += 1
    for N in range(2, 501):
        for a in range(1, N):
            if math.gcd(a, N) != 1:
                continue
            digits = cf_digits(a, N)
            s_alt = sum(-d if i % 2 else d
                        for i, d in enumerate(digits, start=1))
            resid = dedekind_bh(ReducedFraction(a, N)) + Fraction(s_alt, 12)
            if not abs(resid) < Fraction(1, 2):
                failures += 1
    dt = time.perf_counter() - t0
    verdict(2, failures == 0 and dt < 30.0,
            f"Dedekind equivalence/reciprocity/residual, {failures} failures, "
            f"{dt:.1f}s (< 30s)")


def test_criterion_03_counting_identity():
    failures = 0
    weights = (WeightFn.one(), WeightFn.identity())
    for N in range(3, 121):
        full = set(range(1, N))
        sqrt_set = set(range(1, math.isqrt(N) + 1))
        windows = (Window(1, 4), Window(2, 7), Window(1, N))
        for a in range(1, N):
            if math.gcd(a, N) != 1:
                continue
            frac = ReducedFraction(a, N)
            for f, w, A in itertools.product(weights, windows,
                                             (full, sqrt_set)):
                if not counting_identity_check(frac, A, f, w):
                    failures += 1
    verdict(3, failures == 0,
            f"counting identity N<=120 over all combos, {failures} failures")


def test_criterion_04_bijection_identity():
    failures = 0
    for k in range(2, 101):
        for f in (WeightFn.one(), WeightFn.identity()):
            if not bijection_identity_check(k, f, Window(1, 5)):
                failures += 1
    verdict(4, failures == 0,
            f"bijection identity k<=100, {failures} failures")


def test_criterion_05_reflection():
    failures = 0
    for N in range(2, 301):
        lower_seen = set()
        upper_seen = set()
        for a in range(1, N):
            if math.gcd(a, N) != 1:
                continue
            frac = ReducedFraction(a, N)
            ok, _ = verify_continuant_identity(frac)
            if not ok:
                failures += 1
            if 2 * a <= N:
                img = reflect_lower(frac)
                lower_seen.add(img.a)
                if reflect_lower(img).a != a or 2 * img.a > N:
                    failures += 1
            else:
                img = reflect_upper(frac)
                upper_seen.add(img.a)
                if reflect_upper(img).a != a or 2 * img.a <= N:
                    failures += 1
        lower_all = {a for a in range(1, N // 2 + 1) if math.gcd(a, N) == 1}
        upper_all = {a for a in range(N // 2 + 1, N) if math.gcd(a, N) == 1}
        if lower_seen != lower_all or upper_seen != upper_all:
            failures += 1
    verdict(5, failures == 0,
            f"reflection identity + involution N<=300, {failures} failures")


def _brute_extreme(ps: PointSet, rng: IntervalQ) -> Fraction:
    # Every point and both range ends as integers over one L, so each
    # endpoint pair scores |n_in L - width M| and one Fraction is built.
    # A subinterval may close an end only where rng does: at an open range
    # end it is open, and no [v, v] sits there.
    import bisect
    L = math.lcm(ps.scale, rng.lo.denominator, rng.hi.denominator)
    pts = [v * (L // ps.scale) for v in ps.values]
    M = len(pts)
    rlo, rhi = (x.numerator * (L // x.denominator) for x in (rng.lo, rng.hi))
    cands = sorted({x for x in pts if rlo <= x <= rhi
                    and (x != rlo or rng.lo_closed)
                    and (x != rhi or rng.hi_closed)} | {rlo, rhi})
    best = -1
    for i, lo in enumerate(cands):
        le_lo = bisect.bisect_right(pts, lo)
        lt_lo = bisect.bisect_left(pts, lo)
        lo_closes = lo != rlo or rng.lo_closed
        starts = [lt_lo, le_lo] if lo_closes else [le_lo]  # [lo or (lo
        for hi in cands[i:]:
            le_hi = bisect.bisect_right(pts, hi)
            lt_hi = bisect.bisect_left(pts, hi)
            hi_closes = hi != rhi or rng.hi_closed
            ends = [le_hi, lt_hi] if hi_closes else [lt_hi]  # hi] or hi)
            width = hi - lo
            if lo < hi:
                counts = {e - s for s in starts for e in ends}
            else:
                counts = {le_lo - lt_lo} if lo_closes and hi_closes else set()
            for n_in in counts:
                best = max(best, abs(n_in * L - width * M))
    return Fraction(best, L * M)


def test_criterion_06_discrepancy_and_koksma():
    failures = 0
    rnd = random.Random(2024)
    for trial in range(200):
        M = rnd.randint(1, 64)
        pts = PointSet.from_values(
            [Fraction(rnd.randint(0, 96), 96) for _ in range(M)])
        if trial % 4 == 0:
            lo = Fraction(rnd.randint(0, 40), 96)
            hi = Fraction(rnd.randint(48, 96), 96)
            rng = IntervalQ(lo, hi, True, True)
        else:
            rng = UNIT
        if extreme_discrepancy(pts, rng).value != _brute_extreme(pts, rng):
            failures += 1
    koksma_failures = 0
    prefixes = ((1, 1), (1, 2), (2, 3), (2, 5), (3, 7))
    steps = [StepFn(weight_step_pieces(b, k, f, Window(1, 5)))
             for b, k in prefixes
             for f in (WeightFn.one(), WeightFn.identity())]
    for N in range(2, 201):
        ps = PointSet.reduced_fractions(N)
        for g in steps:
            if not koksma_check(g, ps):
                koksma_failures += 1
    verdict(6, failures == 0 and koksma_failures == 0,
            f"sweep vs brute on 200 sets ({failures} mismatches), koksma "
            f"N<=200 ({koksma_failures} failures)")


def test_criterion_06_oracle_on_open_ranges():
    # The oracle of criterion 06 at an open range end: on random sets over
    # 96ths, with the low end, the high end and then both ends open, it
    # equals the sweep (the criterion itself draws closed ranges only).
    rnd = random.Random(2025)
    for trial in range(300):
        pts = PointSet.from_values([Fraction(rnd.randint(0, 96), 96)
                                    for _ in range(rnd.randint(1, 64))])
        lo = Fraction(rnd.randint(0, 60), 96)
        hi = Fraction(rnd.randint(61, 96), 96)
        closed = [(False, True), (True, False), (False, False)][trial % 3]
        rng = IntervalQ(lo, hi, *closed)
        assert _brute_extreme(pts, rng) \
            == extreme_discrepancy(pts, rng).value, (pts, rng)


def test_criterion_07_gauss_kuzmin_fit():
    t0 = time.perf_counter()
    h = digit_histogram(BIG_N, 5)
    dt = time.perf_counter() - t0
    # The fit is asserted on the interior digits a_1..a_{r-1}.  The final
    # digit a_r >= 2 is forced by the canonical convention and follows its
    # own exact law (about 2/(m(m+1))), asserted separately; together the
    # two checks cover every digit.  The all-digit deviations, which carry
    # an O(1/ln N) term from a_r (m=2: about 0.337/ln N), are reported.
    diffs = {m: h["freq"][m] - h["target"][m] for m in range(1, 6)}
    inner = {m: h["interior_freq"][m] - h["target"][m] for m in range(1, 6)}
    worst = max(abs(d) for d in inner.values())
    last_law = {m: 2 * sum(1 for b in range(BIG_N // (m + 1) + 1,
                                            BIG_N // m + 1)
                           if math.gcd(b, BIG_N) == 1)
                for m in range(2, 6)}
    last_ok = (h["last_counts"][1] == 0
               and all(h["last_counts"][m] == last_law[m] for m in last_law))
    detail = ", ".join(f"m={m}: {d:+.4f}" for m, d in inner.items())
    all_detail = ", ".join(f"m={m}: {d:+.4f}" for m, d in diffs.items())
    verdict(7, worst <= 0.02 and last_ok and dt < 60.0,
            f"GK fit of interior digits at N=10^6+3 within +-0.02 ({detail}); "
            f"last digit exact law {'holds' if last_ok else 'FAILS'}; "
            f"all digits ({all_detail}), {dt:.1f}s (< 60s)")


def test_criterion_08_t3_mean():
    r = thm_harness(BIG_N, "T3", b=1, c=1)
    verdict(8, abs(r["ratio"] - 1) <= 0.10,
            f"T3 mean ratio {r['ratio']:.4f} within 1 +- 0.10")


def test_criterion_09_t2_tail():
    r = thm_harness(BIG_N, "T2", [2.0, 4.0, 8.0])
    detail = ", ".join(f"t={row['t']:g}: {row['fraction']:.4f} in "
                       f"[{0.7 * row['bound']:.4f}, {1.25 * row['bound']:.4f}]"
                       for row in r["rows"])
    verdict(9, r["ok"], f"T2 tails monotone={r['monotone']}; {detail}")


def test_criterion_10_t1_shape():
    r = thm_harness(BIG_N, "T1", [4.0, 8.0, 16.0, 32.0])
    # calibration at N = 10^4 + 7 with this code path gave products
    # 0.764, 0.747, 0.681, 0.595; the bound 3 leaves ample slack
    detail = ", ".join(f"t={row['t']:g}: {row['product']:.3f}"
                       for row in r["rows"])
    verdict(10, r["ok"], f"T1 products <= 3 ({detail})")


def test_criterion_11_t4_shape():
    r = thm_harness(BIG_N, "T4", [4.0, 8.0, 16.0, 32.0])
    # calibration at N = 10^4 + 7: products 0.049, 0.040, 0.029, 0.019
    detail = ", ".join(f"t={row['t']:g}: {row['product']:.3f}"
                       for row in r["rows"])
    verdict(11, r["ok"], f"T4 products <= 3 ({detail})")


def test_criterion_12_hensley_farey():
    t0 = time.perf_counter()
    emp, lim = hensley_tail(500, 2.0)
    dt = time.perf_counter() - t0
    verdict(12, abs(emp - lim) <= 0.05 and dt < 30.0,
            f"Hensley Q=500 t=2: {emp:.4f} vs {lim:.4f} "
            f"(diff {emp - lim:+.4f}), {dt:.1f}s (< 30s)")


def test_criterion_13_search():
    failures = 0
    for N in range(2, 5001):
        r = min_max_quotient(N)
        if r.min_value > 3 * math.log(N):
            failures += 1
    empty = zaremba_scan(2, 5000, 5) == []
    verdict(13, failures == 0 and empty,
            f"min M <= 3 ln N for N<=5000 ({failures} failures), "
            f"zaremba(2,5000,5) empty={empty}")


def test_criterion_14_determinism(tmp_path, capsys):
    one = tmp_path / "w1.json"
    eight = tmp_path / "w8.json"
    args = ["scan", str(BIG_N), "--stat", "M", "--t", "2,4,8"]
    assert cli_main(["-o", str(one)] + args + ["--workers", "1"]) == 0
    assert cli_main(["-o", str(eight)] + args + ["--workers", "8"]) == 0
    same = one.read_bytes() == eight.read_bytes()
    verdict(14, same,
            f"scan N=10^6+3 output byte-identical for 1 vs 8 workers: {same}")
