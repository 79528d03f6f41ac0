import functools
import math

import pytest

import cfq.farey
from cfq.core import cf_digits, digit_sum_center
from cfq.dedekind import dedekind_scaled
from cfq.ensemble import StatSpec, euler_phi, scan
from cfq.errors import BadRange
from cfq.farey import (VardiReport, bd_tail, cauchy_cdf, enumerate_farey,
                       hensley_tail, vardi_sample)


def test_enumeration_examples():
    assert [(f.a, f.N) for f in enumerate_farey(3)] == [(1, 3), (1, 2), (2, 3)]
    assert [(f.a, f.N) for f in enumerate_farey(2)] == [(1, 2)]
    assert sum(1 for _ in enumerate_farey(5)) == 9
    with pytest.raises(BadRange):
        list(enumerate_farey(1))


def test_count_identity():
    for Q in (2, 3, 10, 57, 200, 1000):
        assert sum(1 for _ in enumerate_farey(Q)) == sum(euler_phi(n) for n in range(2, Q + 1))


def test_neighbor_property_and_order():
    prev = None
    for f in enumerate_farey(60):
        assert 1 <= f.a < f.N <= 60
        if prev is not None:
            assert f.a * prev.N - prev.a * f.N == 1
            assert f.a * prev.N > prev.a * f.N
        prev = f


def test_hensley_limit_values():
    _, lim = hensley_tail(50, 2.0)
    assert abs(lim - 0.4555) < 1e-4
    _, lim = hensley_tail(50, 1000.0)
    assert lim < 1e-2


def test_hensley_monotone_in_t():
    fr = [hensley_tail(120, t)[0] for t in (1.0, 2.0, 4.0, 8.0)]
    assert fr == sorted(fr, reverse=True)
    with pytest.raises(BadRange):
        hensley_tail(120, 0.0)
    with pytest.raises(BadRange):
        hensley_tail(2, 1.0)


def test_vardi_symmetry():
    r = vardi_sample(200)
    i = r.probes.index(0.0)
    # Dedekind antisymmetry pairs a with N - a
    assert abs(r.empirical_cdf[i] - 0.5) < 0.02
    assert abs(r.cauchy_cdf[r.probes.index(1.0)] - 0.75) < 1e-12
    assert 0 <= r.sup_distance <= 1


def test_bd_tail_trivials():
    frac, prod = bd_tail(120, 1e9)
    assert frac == 0 and prod == 0
    frac, _ = bd_tail(120, -1e9)
    assert frac == 1


# Reference laws: one loop over the members a/N of F_Q with one Euclid
# walk each, no histograms.  Members and walks are cached, so each t
# reuses them.

@functools.cache
def _members_ref(Q):
    return tuple(frac for frac in enumerate_farey(Q) if frac.N >= 3)


_digits = functools.cache(cf_digits)
_dedekind = functools.cache(dedekind_scaled)


def _hensley_ref(Q, t):
    hits = 0
    total = 0
    for frac in _members_ref(Q):
        total += 1
        if max(_digits(frac.a, frac.N)) >= t * math.log(frac.N):
            hits += 1
    return hits / total, 1 - math.exp(-12 / (math.pi ** 2 * t))


def _vardi_ref(Q, probes):
    probes = tuple(sorted(probes))
    below = [0] * len(probes)
    total = 0
    for frac in _members_ref(Q):
        total += 1
        v = 2 * math.pi * _dedekind(frac.a, frac.N) / (24 * frac.N
                                                       * math.log(frac.N))
        for j, p in enumerate(probes):
            if v <= p:
                below[j] += 1
    emp = tuple(b / total for b in below)
    cau = tuple(cauchy_cdf(p) for p in probes)
    sup = max(abs(e - c) for e, c in zip(emp, cau))
    return VardiReport(Q=Q, count=total, probes=probes, empirical_cdf=emp,
                       cauchy_cdf=cau, sup_distance=sup)


def _bd_ref(Q, t):
    hits = 0
    total = 0
    for frac in _members_ref(Q):
        total += 1
        logN = math.log(frac.N)
        center = (12 / math.pi ** 2) * logN * math.log(logN)
        s = sum(_digits(frac.a, frac.N))
        if (s - center) / logN >= t:
            hits += 1
    frac_ = hits / total
    return frac_, t * frac_


def test_laws_match_per_member_reference():
    # t = k / ln N0 puts t ln N0 exactly on k, a maximal digit of Z_N0*,
    # so the hensley comparison is tested on its boundary
    boundary = [k / math.log(N0) for k, N0 in
                ((2, 7), (3, 10), (5, 23), (8, 41), (4, 55), (7, 150),
                 (6, 199))]
    default = vardi_sample.__defaults__[0]
    for Q in [*range(3, 61), 198, 199, 200, 201, 500]:
        for t in [0.5, 1, 2, 3.7, *boundary]:
            assert hensley_tail(Q, t) == _hensley_ref(Q, t), (Q, t)
        for t in (-1e9, -0.5, 0, 0.3, 1, 2, 1e9):
            assert bd_tail(Q, t) == _bd_ref(Q, t), (Q, t)
        for probes in (default, (1e-12, 0.0, -1e-12, -3.0, 0.25)):
            assert vardi_sample(Q, probes) == _vardi_ref(Q, probes), Q


def test_vardi_tails_match_histogram_per_N():
    # D((N - a)/N) = -D(a/N): for each N alone, the tail at t = -p/(2 pi)
    # counts the members with 2 pi D / ln N <= p
    default = vardi_sample.__defaults__[0]
    cases = [(probes, [-p / (2 * math.pi) for p in probes])
             for probes in (default, (1e-12, 0.0, -1e-12, -3.0, 0.25))]
    for N in range(3, 401):
        summary = scan(N, StatSpec("D"), with_histogram=True)
        values = [(2 * math.pi * raw / (summary.scale * math.log(N)), mult)
                  for raw, mult in summary.counts.items()]
        for probes, ts in cases:
            tails = scan(N, StatSpec("D"), thresholds=ts).tail_counts
            assert [tails[t] for t in ts] == [
                sum(mult for v, mult in values if v <= p) for p in probes
            ], (N, probes)


def test_vardi_rejects_no_probes_before_scanning(monkeypatch):
    calls = []
    monkeypatch.setattr(cfq.farey, "scan",
                        lambda *args, **kwargs: calls.append(args))
    with pytest.raises(BadRange, match="probe"):
        vardi_sample(2000, probes=())
    assert calls == []


def test_laws_ask_scan_for_what_they_read(monkeypatch):
    # Every law sums the scan's tail counts with no histogram: hensley's
    # at t, bd's at t about each N's center, vardi's at -p/(2 pi)
    calls = []
    scan = cfq.farey.scan

    def recording_scan(N, spec, **options):
        calls.append((spec.kind, options))
        return scan(N, spec, **options)

    monkeypatch.setattr(cfq.farey, "scan", recording_scan)
    assert hensley_tail(60, 2.0) == _hensley_ref(60, 2.0)
    assert calls and all(kind == "M" and options == {"thresholds": [2.0]}
                         for kind, options in calls)
    calls.clear()
    vardi_sample(30)
    default = vardi_sample.__defaults__[0]
    assert calls == [("D", {"thresholds": [-p / (2 * math.pi)
                                           for p in sorted(default)]})
                     for N in range(3, 31)]
    calls.clear()
    assert bd_tail(30, 1.0) == _bd_ref(30, 1.0)
    assert calls == [("S", {"thresholds": [1.0],
                            "center": digit_sum_center(N)})
                     for N in range(3, 31)]
