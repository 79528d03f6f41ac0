"""Exact ensemble scans over Z_N*; the theorem harnesses that read them
are in cfq.theorems.

A scan visits Z_N* one symmetry orbit at a time.  The maps a -> N - a
and a -> a^-1 mod N generate a group of order 4; the orbit of a <= N/2
is {a, N - a, a*, N - a*} with a* = min(a^-1, N - a^-1) = q_{r-1}(a),
whose digits are those of a reversed, while N - a has [1, a_1 - 1, a_2,
..., a_r].  One walk of a (core.cf_walk) gives its digits and a*; only
a <= a* is kept, and a* is not walked (about phi(N)/4 Euclid walks).
The digits of a give every member's statistic as (value, multiplicity)
pairs.  A palindrome (a* = a) has two members, and N = 2 the one member 1.
S, M, L, S_alt and restricted take few distinct values (S 479 of 40,008
members at N = 40009), so a worker only counts the members of each raw
value, and the scan folds the merged counts once per value into exact
first and second moments plus tail counts against thresholds that scale
with ln N.  D takes about phi(N)/2 values, so a worker folds its pairs
as they come, unless a histogram is asked for.  Either way the tail test
is the one rule of _fold.
Workers split the representative range [1, N/2] into contiguous ranges;
the merge is plain addition of exact counts or accumulators, so the
result does not depend on the worker count.
"""

from __future__ import annotations

import math
import os
from functools import cache
from itertools import chain
from typing import TYPE_CHECKING, Optional

from .core import (Record, WeightFn, Window, alt_sum, cf_walk, count_in,
                   windowed_sum)
from .errors import (HISTOGRAM_LIMIT, SCAN_LIMIT, InvalidSpec, InvariantError,
                     LimitExceeded)

if TYPE_CHECKING:
    from fractions import Fraction

PI2 = math.pi ** 2

STAT_KINDS = ("S", "M", "L", "S_alt", "D", "restricted")

#: Numerators per block of a scan range: each block marks partners in a
#: table of this many bytes, so memory stays bounded whatever N is.
MARK_BLOCK = 1 << 22


class StatSpec(Record):
    """Statistic selector: S, M, L (needs b, c), S_alt, D, or restricted
    (needs f, eta, theta)."""

    __slots__ = ("kind", "b", "c", "f", "eta", "theta")

    def __init__(self, kind: str, b: Optional[int] = None,
                 c: Optional[int] = None, f: Optional[WeightFn] = None,
                 eta: Optional[int] = None,
                 theta: Optional[int] = None) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "theta", theta)
        if kind not in STAT_KINDS:
            raise InvalidSpec(f"unknown statistic {kind!r}")
        if kind == "L":
            if b is None or c is None or b < 1 or b > c:
                raise InvalidSpec(f"L needs 1 <= b <= c, got ({b}, {c})")
        if kind == "restricted":
            if f is None or eta is None:
                raise InvalidSpec("restricted needs a weight and a window")
            Window(eta, theta)

    def label(self) -> str:
        if self.kind == "L":
            return f"L[{self.b},{self.c}]"
        if self.kind == "restricted":
            hi = "inf" if self.theta is None else self.theta
            return f"restricted[{self.eta},{hi}]"
        return self.kind


def euler_phi(N: int) -> int:
    """phi(N) by trial-division factorization."""
    if N < 1:
        raise InvalidSpec(f"phi needs N >= 1, got {N}")
    result = N
    n = N
    p = 2
    while p * p <= n:
        if n % p == 0:
            result -= result // p
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        result -= result // n
    return result


class EnsembleSummary(Record):
    """Exact moments and tail counts of one statistic over Z_N*, immutable
    like every record (its fields cannot be reassigned).

    Accumulators are kept at an integer scale so Dedekind sums (denominator
    dividing 24N) stay exact: the statistic's value is raw/scale.  counts,
    present when the scan asked for a histogram, maps each raw value to its
    number of members; histogram is its view keyed by the exact values.
    """

    __slots__ = ("N", "phi", "spec", "count", "scale", "sum_scaled",
                 "sumsq_scaled", "tail_counts", "counts", "center",
                 "absolute")

    @property
    def exact_mean(self) -> Fraction:
        from fractions import Fraction
        return Fraction(self.sum_scaled, self.scale * self.count)

    @property
    def exact_variance(self) -> Fraction:
        from fractions import Fraction
        return Fraction(self.sumsq_scaled * self.count - self.sum_scaled ** 2,
                        (self.scale * self.count) ** 2)

    # Python rounds int / int correctly, and float() of the Fraction that
    # a table weight's sums give, so each float below equals the float of
    # the exact value above, with no Fraction built from integer sums.
    @property
    def mean(self) -> float:
        return float(self.sum_scaled / (self.scale * self.count))

    @property
    def variance(self) -> float:
        return float((self.sumsq_scaled * self.count - self.sum_scaled ** 2)
                     / (self.scale * self.count) ** 2)

    def tail_fraction(self, t: float) -> float:
        return self.tail_counts[t] / self.count

    @property
    def histogram(self) -> Optional[dict]:
        """Member counts keyed by the exact value: counts itself at scale 1,
        Fraction(raw, scale) keys (for D) built when read."""
        if self.counts is None or self.scale == 1:
            return self.counts
        from fractions import Fraction
        return {Fraction(raw, self.scale): v for raw, v in self.counts.items()}


def _partition(N: int, workers: int, cpus: int) -> tuple[list, int]:
    """(ranges, processes) for splitting [1, N-1] among workers.

    The ranges are min(workers, N-1) contiguous, non-empty [lo, hi) pieces;
    they run on at most `cpus` processes.
    """
    workers = max(1, min(workers, N - 1))
    bounds = [1 + (N - 1) * i // workers for i in range(workers + 1)]
    return list(zip(bounds, bounds[1:])), min(workers, cpus)


def _map_ranges(range_fn, N: int, workers: int, *args) -> list:
    """range_fn((N, lo, hi, *args)) for each range of _partition over the
    orbit representatives [1, N/2], in order.

    The ranges run serially where the platform cannot fork.
    """
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    ranges, processes = _partition(N // 2 + 1, workers, cpus)
    jobs = [(N, lo, hi) + args for lo, hi in ranges]
    if processes > 1:
        import multiprocessing  # only a forking run pays for the import
        if "fork" in multiprocessing.get_all_start_methods():
            with multiprocessing.get_context("fork").Pool(processes) as pool:
                return pool.map(range_fn, jobs)
    return [range_fn(job) for job in jobs]


def _representatives(N: int, lo: int, hi: int):
    """(a, a*, digits of a/N), all from one walk, for each orbit
    representative a in [lo, hi): a coprime to N with a <= a* = q_{r-1}(a).

    Each block of MARK_BLOCK numerators marks the partners a* > a inside
    it, which are then not walked; a partner of a representative in an
    earlier block or range costs one discarded walk.
    """
    for start in range(lo, hi, MARK_BLOCK):
        end = min(start + MARK_BLOCK, hi)
        seen = bytearray(end - start)
        for a in range(start, end):
            if seen[a - start] or math.gcd(a, N) != 1:
                continue
            digits, star = cf_walk(a, N)
            if a <= star:
                if star < end:
                    seen[star - start] = 1
                yield a, star, digits


def _orbit_fn(spec: StatSpec, N: int):
    """(a, a*, digits d of a/N) -> (raw value, multiplicity) pairs of spec
    over the members a, N - a, a*, N - a* of the orbit of a < N/2, a's own
    value first.  The raw value is a fold of d, or 24 N D(a/N).

    Built in the worker, since a closure does not pickle.
    """
    if spec.kind == "D":
        from .dedekind import closed_form  # no other kind loads dedekind

        # D(a^-1/N) = D(a/N) and D((N-a)/N) = -D(a/N)
        def dedekind_pairs(a, star, d):
            v = closed_form(a, N, d, star)
            return (v, 2), (-v, 2)
        return dedekind_pairs
    if spec.kind == "S":
        return lambda a, star, d: ((sum(d), 4),)
    if spec.kind == "M":
        def max_pairs(a, star, d):
            m = max(d)
            # N - a (N - a*) has m - 1 when a_1 (a_r) is the only maximum
            k = 0 if d.count(m) > 1 else (d[0] == m) + (d[-1] == m)
            return ((m, 4 - k), (m - 1, k)) if k else ((m, 4),)
        return max_pairs
    if spec.kind == "S_alt":
        def alt_pairs(a, star, d):
            s = alt_sum(d)
            # a* has S_alt (-1)^(r-1) s, which is s if r is odd or s = 0
            if len(d) % 2 or not s:
                return (s, 2), (-s - 2, 2)
            return (s, 1), (-s - 2, 1), (-s, 1), (s - 2, 1)
        return alt_pairs
    fold, params = ((count_in, (spec.b, spec.c)) if spec.kind == "L" else
                    (windowed_sum, (spec.f, spec.eta, spec.theta)))

    @cache
    def delta(x):
        """The change of an additive fold when x becomes 1, x - 1."""
        return fold((1, x - 1), *params) - fold((x,), *params)

    def additive_pairs(a, star, d):
        F = fold(d, *params)
        first, last = delta(d[0]), delta(d[-1])
        if first == last:
            return ((F, 4),) if not first else ((F, 2), (F + first, 2))
        return (F, 2), (F + first, 1), (F + last, 1)
    return additive_pairs


def _palindrome(pairs, a: int, N: int):
    """The pairs of a palindrome a = a*, which _orbit_fn lists twice; for
    N = 2 the one member 1."""
    if 2 * a < N:
        return [(raw, mult // 2) for raw, mult in pairs]
    return ((pairs[0][0], 1),)


def _fold(pairs, cuts, scale: int, center: float, absolute: bool) -> tuple:
    """(count, sum, sum of squares, tail counts) of (raw, multiplicity)
    pairs.  The one tail rule: raw counts toward cuts[j] when z >= cuts[j],
    z = raw/scale - center, or |z| if absolute."""
    count = total = total_sq = 0
    tails = [0] * len(cuts)
    indexed = tuple(enumerate(cuts))
    for raw, mult in pairs:
        count += mult
        total += raw * mult
        total_sq += raw * raw * mult
        if indexed:
            z = raw / scale - center
            if absolute:
                z = abs(z)
            for j, cut in indexed:
                if z >= cut:
                    tails[j] += mult
    return count, total, total_sq, tails


def _scan_range(args):
    """The members of the orbits of the representatives in [lo, hi): their
    counts {raw value: members} if counted (every kind but D without a
    histogram), else _fold of their pairs."""
    N, lo, hi, spec, counted, fold_args = args
    orbit = _orbit_fn(spec, N)
    if not counted:
        return _fold(chain.from_iterable(
            _palindrome(orbit(a, star, d), a, N) if star == a
            else orbit(a, star, d)
            for a, star, d in _representatives(N, lo, hi)), *fold_args)
    counts: dict = {}
    get = counts.get
    for a, star, d in _representatives(N, lo, hi):
        pairs = orbit(a, star, d)
        if star == a:
            pairs = _palindrome(pairs, a, N)
        for raw, mult in pairs:
            counts[raw] = get(raw, 0) + mult
    return counts


def scan(N: int, spec: StatSpec, thresholds: Optional[list] = None,
         workers: int = 1, with_histogram: bool = False,
         center: float = 0.0, absolute: bool = False) -> EnsembleSummary:
    """Exact moments/tails of spec over Z_N*, threshold t means t * ln N.

    N above SCAN_LIMIT raises LimitExceeded.
    """
    if N < 2:
        raise InvalidSpec(f"need N >= 2, got {N}")
    if N > SCAN_LIMIT:
        raise LimitExceeded(f"scan capped at N = {SCAN_LIMIT}")
    thresholds = list(thresholds or [])
    scale = 24 * N if spec.kind == "D" else 1
    if spec.kind == "restricted":
        spec.f.validate_on(Window(spec.eta, spec.theta), max_digit=N)
    logN = math.log(N)
    fold_args = ([t * logN for t in thresholds], scale, center, absolute)
    counted = with_histogram or spec.kind != "D"
    parts = _map_ranges(_scan_range, N, workers, spec, counted, fold_args)
    counts = None
    if counted:
        counts = parts[0]
        for p in parts[1:]:
            for raw, v in p.items():
                counts[raw] = counts.get(raw, 0) + v
        parts = [_fold(counts.items(), *fold_args)]
    count = sum(p[0] for p in parts)
    tails = {t: sum(p[3][j] for p in parts) for j, t in enumerate(thresholds)}
    phi = euler_phi(N)
    if count != phi:
        raise InvariantError(f"scan visited {count} numerators, phi({N}) = {phi}")
    return EnsembleSummary(N=N, phi=phi, spec=spec, count=count, scale=scale,
                           sum_scaled=sum(p[1] for p in parts),
                           sumsq_scaled=sum(p[2] for p in parts),
                           tail_counts=tails,
                           counts=counts if with_histogram else None,
                           center=center, absolute=absolute)


def _digit_range(args):
    """(counts, last) over the orbits of the representatives in [lo, hi);
    index m_max + 1 of counts holds the digits above m_max."""
    N, lo, hi, m_max = args
    top = m_max + 1
    counts = [0] * (top + 1)
    last = [0] * top
    for a, star, d in _representatives(N, lo, hi):
        # Every member carries the digits of a, except that N - a and
        # N - a* swap a_1 and a_r for 1, a_1 - 1 and 1, a_r - 1.  A
        # palindrome has no separate a*, N - a*.
        ends = (d[0],) if star == a else (d[0], d[-1])
        w = len(ends)
        for q in d:
            counts[q if q <= m_max else top] += 2 * w
        counts[1] += w
        for q in ends:
            if q <= top:
                counts[q] -= 1
                counts[q - 1] += 1
        # a and N - a end in a_r, a* and N - a* in a_1; N - 1 = [0; 1, N-1]
        for q in (d[-1], d[0] if len(d) > 1 else d[0] - 1):
            if q <= m_max:
                last[q] += w
    return counts, last


def digit_histogram(N: int, m_max: int, workers: int = 1) -> dict:
    """Digit-value counts over Z_N* and Gauss-Kuzmin normalized frequencies.

    Every digit a_1, ..., a_r of the canonical expansion [0; a_1, ..., a_r]
    (a_r >= 2) is counted.  The normalized frequency of m is
    (pi^2 / (12 ln 2 ln N)) count(m)/phi(N), to be compared with
    log2(1 + 1/(m (m+2))).

    The final digit a_r is forced by the convention and does not follow
    Gauss-Kuzmin: for 2 <= m <= N-2 its count is exactly
    2 #{b in Z_N* : N/(m+1) < b <= N/m}, a share of about 2/(m(m+1)) of
    Z_N*, and never 1.  Since an expansion has about 0.84 ln N digits,
    this adds a term of order 1/ln N to freq (about 0.337/ln N at m = 2).

    Keys: counts and freq over all digits; target; overflow, the number
    of digits above m_max; last_counts, the count of a_r = m; and
    interior_freq, the normalized frequency of a_1, ..., a_{r-1} alone
    (the same under either end convention), with the same norm as freq.
    N above SCAN_LIMIT or m_max above HISTOGRAM_LIMIT raises LimitExceeded.
    """
    if N < 3:
        raise InvalidSpec(f"need N >= 3, got {N}")
    if N > SCAN_LIMIT:
        raise LimitExceeded(f"scan capped at N = {SCAN_LIMIT}")
    if m_max < 1:
        raise InvalidSpec(f"need m_max >= 1, got {m_max}")
    if m_max > HISTOGRAM_LIMIT:
        raise LimitExceeded(f"m_max {m_max} > {HISTOGRAM_LIMIT}")
    parts = _map_ranges(_digit_range, N, workers, m_max)
    counts = {m: sum(p[0][m] for p in parts) for m in range(1, m_max + 1)}
    last = {m: sum(p[1][m] for p in parts) for m in counts}
    phi = euler_phi(N)
    norm = PI2 / (12 * math.log(2) * math.log(N))
    freq = {m: norm * counts[m] / phi for m in counts}
    interior = {m: norm * (counts[m] - last[m]) / phi for m in counts}
    target = {m: math.log2(1 + 1 / (m * (m + 2))) for m in counts}
    return {"N": N, "phi": phi, "counts": counts, "freq": freq,
            "target": target,
            "overflow": sum(p[0][m_max + 1] for p in parts),
            "last_counts": last, "interior_freq": interior}


def digit_sum_center(N: int) -> float:
    """(12/pi^2) ln N ln ln N, the main term of S(a/N) over Z_N* (T1)."""
    logN = math.log(N)
    return (12 / PI2) * logN * math.log(logN)


def hensley_limit(t: float) -> float:
    """1 - e^{-12/(pi^2 t)}, Hensley's limit of P(M >= t ln N) over F_Q."""
    return 1 - math.exp(-12 / (PI2 * t))
