import bisect
import itertools
import math
import random
from fractions import Fraction

import pytest

from cfq.core import WeightFn, Window
from cfq.discrepancy import (DiscrepancyReport, PointSet, StepFn,
                             extreme_discrepancy, koksma_check,
                             reduced_fraction_discrepancy, star_discrepancy)
from cfq.errors import (DISCREPANCY_LIMIT, BadRange, BadSpec, EmptySet,
                        LimitExceeded)
from cfq.weight import IntervalQ, weight_step_pieces

UNIT = IntervalQ(Fraction(0), Fraction(1), True, True)


def is_subset(iv: IntervalQ, other: IntervalQ) -> bool:
    """iv lies in other, honouring both intervals' open or closed ends."""
    if iv.lo < other.lo or (iv.lo == other.lo
                            and iv.lo_closed and not other.lo_closed):
        return False
    if iv.hi > other.hi or (iv.hi == other.hi
                            and iv.hi_closed and not other.hi_closed):
        return False
    return True


def brute_extreme(ps: PointSet, rng: IntervalQ) -> Fraction:
    """O(M^2) oracle: every endpoint pair, every inclusion combination."""
    pts = ps.points
    M = len(pts)
    cands = sorted({x for x in pts if rng.contains(x)} | {rng.lo, rng.hi})
    best = Fraction(-1)
    for lo, hi in itertools.combinations_with_replacement(cands, 2):
        for lo_closed in (True, False):
            for hi_closed in (True, False):
                if lo == hi and not (lo_closed and hi_closed):
                    continue
                iv = IntervalQ(lo, hi, lo_closed, hi_closed)
                if not is_subset(iv, rng):
                    continue
                count = sum(1 for x in pts if iv.contains(x))
                best = max(best, abs(Fraction(count, M) - iv.measure))
    return best


def test_star_examples():
    assert star_discrepancy(
        PointSet.from_values([Fraction(1, 6), Fraction(5, 6)])).value == \
        Fraction(1, 3)
    assert star_discrepancy(PointSet.reduced_fractions(5)).value == \
        Fraction(1, 5)
    assert star_discrepancy(
        PointSet.from_values([Fraction(1, 2)])).value == Fraction(1, 2)


def test_star_witness_achieves_value():
    random.seed(2)
    for _ in range(50):
        pts = PointSet.from_values(
            [Fraction(random.randint(0, 30), 30) for _ in range(8)])
        rep = star_discrepancy(pts)
        count = sum(1 for x in pts.points if rep.witness.contains(x))
        assert abs(Fraction(count, len(pts)) - rep.witness.measure) == rep.value


def test_extreme_examples():
    two = PointSet.from_values([Fraction(1, 6), Fraction(5, 6)])
    rep = extreme_discrepancy(two, UNIT)
    assert rep.value == Fraction(2, 3)  # open (1/6, 5/6) misses both points
    # single atom: the degenerate closed interval [1/2, 1/2] realizes 1
    assert extreme_discrepancy(
        PointSet.from_values([Fraction(1, 2)]), UNIT).value == 1
    eq4 = PointSet.from_values([Fraction(2 * i - 1, 8) for i in range(1, 5)])
    assert extreme_discrepancy(eq4, UNIT).value == Fraction(1, 4)


def test_extreme_validation():
    with pytest.raises(EmptySet):
        extreme_discrepancy(PointSet.from_values([]), UNIT)
    with pytest.raises(EmptySet):
        star_discrepancy(PointSet.from_values([]))
    with pytest.raises(BadRange):
        extreme_discrepancy(PointSet.from_values([Fraction(1, 2)]),
                            IntervalQ(Fraction(1, 4), Fraction(1, 4),
                                      True, True))
    with pytest.raises(BadRange):
        PointSet.from_values([Fraction(3, 2)])
    # direct construction: sorted numerators in [0, scale], scale >= 1
    for scale, values in ((6, (5, 1)), (6, (7,)), (0, (0,))):
        with pytest.raises(BadRange):
            PointSet(scale, values)


def test_extreme_bit_budget():
    # M points rescaled to L take M * L.bit_length() bits; exactly the
    # budget is swept, one bit more is refused before anything is rescaled
    M = 1000
    bits = DISCREPANCY_LIMIT * 64 // M
    ps = PointSet(1, (0,) * (M // 2) + (1,) * (M // 2))
    tiny = IntervalQ(Fraction(0), Fraction(1, 2 ** (bits - 1)), True, True)
    rep = extreme_discrepancy(ps, tiny)
    assert rep.value == Fraction(1, 2)
    assert str(rep.witness) == "[0, 0]"
    with pytest.raises(LimitExceeded, match="discrepancy sweep capped"):
        extreme_discrepancy(ps, IntervalQ(Fraction(0), Fraction(1, 2 ** bits),
                                          True, True))


def test_sweep_matches_brute_force():
    random.seed(4)
    for trial in range(120):
        M = random.randint(1, 24)
        pts = PointSet.from_values(
            [Fraction(random.randint(0, 48), 48) for _ in range(M)])
        if trial % 3 == 0:
            lo = Fraction(random.randint(0, 20), 48)
            hi = Fraction(random.randint(24, 48), 48)
            rng = IntervalQ(lo, hi, True, True)
        else:
            rng = UNIT
        rep = extreme_discrepancy(pts, rng)
        assert rep.value == brute_extreme(pts, rng)
        count = sum(1 for x in pts.points if rep.witness.contains(x))
        assert abs(Fraction(count, len(pts)) - rep.witness.measure) == rep.value
        # monotone in the range, and sandwiched by the star discrepancy
        full = extreme_discrepancy(pts, UNIT).value
        assert rep.value <= full
        star = star_discrepancy(pts).value
        assert star <= full <= 2 * star


def test_reduced_fraction_examples():
    assert reduced_fraction_discrepancy(6, UNIT).value == \
        extreme_discrepancy(PointSet.from_values(
            [Fraction(1, 6), Fraction(5, 6)]), UNIT).value
    for p in (11, 37, 101):
        assert reduced_fraction_discrepancy(p, UNIT).value <= \
            Fraction(2, p - 1)


def test_reduced_fraction_discrepancy_envelope():
    for N in range(10 ** 4, 10 ** 4 + 101):
        rep = reduced_fraction_discrepancy(N, UNIT)
        assert rep.value <= Fraction(5, 100), (N, rep.value)


def test_stepfn_basics():
    g = StepFn([(IntervalQ(Fraction(1, 4), Fraction(1, 2), True, True), 1)])
    assert g(Fraction(1, 3)) == 1 and g(Fraction(3, 4)) == 0
    assert g.integral() == Fraction(1, 4)
    assert g.variation() == 2
    assert g.support().lo == Fraction(1, 4)
    # overlapping pieces add up
    h = StepFn([(IntervalQ(Fraction(0), Fraction(1, 2), True, True), 1),
                (IntervalQ(Fraction(1, 4), Fraction(3, 4), True, True), 2)])
    assert h(Fraction(3, 8)) == 3
    assert h.integral() == Fraction(1, 2) + 1
    # value walk on [0, 1]: 1 -> 3 -> 2 -> 0; no jump into 0 itself
    assert h.variation() == 2 + 1 + 2
    with pytest.raises(BadSpec):
        StepFn([(IntervalQ(Fraction(1, 2), Fraction(3, 2), True, True), 1)])


def test_koksma_examples():
    g = StepFn([(IntervalQ(Fraction(1, 4), Fraction(1, 2), True, True), 1)])
    ps = PointSet.from_values([Fraction(1, 6), Fraction(5, 6)])
    assert koksma_check(g, ps)
    assert koksma_check(StepFn([]), ps)
    g30 = StepFn(weight_step_pieces(1, 2, WeightFn.one(), Window(1, 5)))
    assert koksma_check(g30, PointSet.reduced_fractions(30))


def test_koksma_weight_pairs():
    prefixes = [(1, 1), (1, 2), (1, 3), (2, 3), (2, 5)]
    weights = [WeightFn.one(), WeightFn.identity()]
    for N in range(2, 201, 13):
        ps = PointSet.reduced_fractions(N)
        for b, k in prefixes:
            for f in weights:
                g = StepFn(weight_step_pieces(b, k, f, Window(1, 5)))
                assert koksma_check(g, ps), (N, b, k)


def _fraction_extreme(ps: PointSet, rng: IntervalQ) -> DiscrepancyReport:
    """The rational sweep that the integer sweep replaced, kept as oracle."""
    M = len(ps)
    pts = ps.points
    best, witness = Fraction(-1), None
    inside = sorted({x for x in pts if rng.contains(x)})
    best_b, best_lo = Fraction(-10), None
    for v in inside:
        b = v - Fraction(bisect.bisect_left(pts, v), M)
        if b > best_b:
            best_b, best_lo = b, v
        a = Fraction(bisect.bisect_right(pts, v), M) - v
        if a + best_b > best:
            best = a + best_b
            witness = IntervalQ(best_lo, v, True, True)
    best_d, best_lo = Fraction(-10), None
    for v in sorted(set(inside) | {rng.lo, rng.hi}):
        if best_lo is not None:
            e = v - Fraction(bisect.bisect_left(pts, v), M)
            if e + best_d > best:
                best = e + best_d
                witness = IntervalQ(best_lo, v, False, False)
        d = Fraction(bisect.bisect_right(pts, v), M) - v
        if d > best_d:
            best_d, best_lo = d, v
    return DiscrepancyReport(best, witness)


def _fraction_star(ps: PointSet) -> DiscrepancyReport:
    M = len(ps)
    best, witness = Fraction(-1), None
    for i, x in enumerate(ps.points, start=1):
        over = Fraction(i, M) - x
        under = x - Fraction(i - 1, M)
        if over > best:
            best, witness = over, IntervalQ(Fraction(0), x, True, True)
        if under > best:
            best = under
            witness = (IntervalQ(Fraction(0), x, True, False) if x > 0
                       else IntervalQ(Fraction(0), x, True, True))
    return DiscrepancyReport(best, witness)


def _midpoint_variation(g: StepFn) -> Fraction:
    """Evaluate at every breakpoint and gap midpoint, O(P^2)."""
    crit = sorted({e for iv, _ in g.pieces for e in (iv.lo, iv.hi)}
                  | {Fraction(0), Fraction(1)})
    total = Fraction(0)
    prev = g(crit[0])
    for lo, hi in zip(crit, crit[1:]):
        at_lo, between = g(lo), g((lo + hi) / 2)
        total += abs(at_lo - prev) + abs(between - at_lo)
        prev = between
    return total + abs(g(crit[-1]) - prev)


def _same_report(got: DiscrepancyReport, want: DiscrepancyReport) -> bool:
    return (got.value, str(got.witness)) == (want.value, str(want.witness))


def _random_interval(rnd: random.Random, dens, degenerate=True) -> IntervalQ:
    while True:
        den = rnd.choice(dens)
        lo, hi = sorted(Fraction(rnd.randint(0, den), den) for _ in range(2))
        closed = rnd.random() < 0.5, rnd.random() < 0.5
        if lo < hi or (degenerate and lo == hi and rnd.random() < 0.3):
            return IntervalQ(lo, hi, *((True, True) if lo == hi else closed))


def test_integer_sweep_matches_fraction_sweep():
    rnd = random.Random(7)
    # a stream of its own, so the point sets do not depend on it
    rnd_iv = random.Random(8)
    dens = (1, 2, 3, 5, 6, 7, 12, 30, 97)
    for trial in range(2000):
        rng = UNIT if trial % 4 == 0 else _random_interval(rnd, dens, False)
        M = rnd.randint(1, 30)
        values = [Fraction(rnd.randint(0, den), den)
                  for den in rnd.choices(dens, k=M)]
        # duplicates, both ends of [0, 1] and both ends of the range
        values += rnd.sample([values[0], Fraction(0), Fraction(1),
                              rng.lo, rng.hi], rnd.randint(0, 3))
        ps = PointSet.from_values(values)
        assert ps.points == tuple(sorted(map(Fraction, values)))
        iv = _random_interval(rnd_iv, dens)
        assert ps.count(iv) == sum(1 for x in ps.points if iv.contains(x))
        assert _same_report(extreme_discrepancy(ps, rng),
                            _fraction_extreme(ps, rng)), (values, rng)
        assert _same_report(star_discrepancy(ps), _fraction_star(ps)), values
    for N in range(2, 301):
        ps = PointSet.reduced_fractions(N)
        assert _same_report(reduced_fraction_discrepancy(N, UNIT),
                            _fraction_extreme(ps, UNIT)), N
        assert _same_report(star_discrepancy(ps), _fraction_star(ps)), N
    third = IntervalQ(Fraction(1, 3), Fraction(2, 3), True, True)
    for N in range(10 ** 4, 10 ** 4 + 6):
        ps = PointSet.reduced_fractions(N)
        for rng in (UNIT, third):
            assert _same_report(reduced_fraction_discrepancy(N, rng),
                                _fraction_extreme(ps, rng)), (N, rng)
    for _ in range(500):
        g = StepFn((_random_interval(rnd, dens),
                    Fraction(rnd.randint(-6, 6), rnd.choice((1, 2, 3))))
                   for _ in range(rnd.randint(0, 8)))
        assert g.variation() == _midpoint_variation(g), g.pieces
