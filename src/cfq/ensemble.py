"""Exact ensemble scans over Z_N*; the theorem harnesses that read them
are in cfq.theorems.

A scan visits Z_N* one symmetry orbit at a time.  The maps a -> N - a
and a -> a^-1 mod N generate a group of order 4; the orbit of a <= N/2
is {a, N - a, a*, N - a*} with a* = min(a^-1, N - a^-1) = q_{r-1}(a),
whose digits are those of a reversed, while N - a has [1, a_1 - 1, a_2,
..., a_r].  Only a <= a* is kept, and a* is not walked (about phi(N)/4
Euclid walks).  A palindrome (a* = a) has two members, and N = 2 the one
member 1.  Scans and gk walk Z_N* in _orbits, which folds each digit of
a/N into the statistic as it goes, and once its divisor is below T,
about N^(1/3), reads the fold of the rest b/n and the convergent that
gives a* from a table of every b/n with n < T (_tail_table), built once
per size and kind without a walk.  S, M, L, S_alt and restricted take
few distinct values (S 479 of 40,008 members at N = 40009), so a worker
counts the members of each raw value and folds each value once into
exact first and second moments plus tail counts against thresholds that
scale with ln N.  D takes about phi(N)/2 values, so its pairs stream
into the fold unless a histogram is asked for.  Either way the tail test
is the one rule of _fold.  digit_histogram counts the digits that _orbits
walks, and each tail's once per range.
Workers split the representative range [1, N/2] into contiguous ranges;
_map_ranges, the one driver of scans and gk, adds their vectors
element-wise and their histogram counts key by key, and checks phi(N),
so the result does not depend on the worker count.
"""

from __future__ import annotations

import math
import os
from functools import lru_cache
from itertools import compress
from typing import TYPE_CHECKING, Optional

from .core import (PI2, Record, WeightFn, Window, _prime_factors,
                   _unit_table)
from .errors import (HISTOGRAM_LIMIT, SCAN_LIMIT, STAT_KINDS, InvalidSpec,
                     InvariantError, LimitExceeded)

if TYPE_CHECKING:
    from fractions import Fraction


class StatSpec(Record):
    """Statistic selector: S, M, S_alt and D read no parameter, L reads b
    and c, and restricted reads f (one unless given), eta and theta.  A
    parameter that the kind does not read must be None."""

    __slots__ = ("kind", "b", "c", "f", "eta", "theta")

    #: The parameters each kind reads; an unlisted kind reads none.
    _READS = {"L": ("b", "c"), "restricted": ("f", "eta", "theta")}

    def __init__(self, kind: str, b: Optional[int] = None,
                 c: Optional[int] = None, f: Optional[WeightFn] = None,
                 eta: Optional[int] = None,
                 theta: Optional[int] = None) -> None:
        if kind == "restricted" and f is None:
            f = WeightFn.one()
        super().__init__(kind, b, c, f, eta, theta)
        if kind not in STAT_KINDS:
            raise InvalidSpec(f"unknown statistic {kind!r}")
        reads = self._READS.get(kind, ())
        if unread := [name for name in self.__slots__[1:] if name not in reads
                      and getattr(self, name) is not None]:
            raise InvalidSpec(f"{kind} takes no {', '.join(unread)}")
        if kind == "L" and (b is None or c is None or b < 1 or b > c):
            raise InvalidSpec(f"L needs 1 <= b <= c, got ({b}, {c})")
        if kind == "restricted":
            if eta is None:
                raise InvalidSpec("restricted needs eta")
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
    for p in _prime_factors(N):
        result -= result // p
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


def _partition(stop: int, workers: int, cpus: int) -> tuple[list, int]:
    """(ranges, processes) for splitting [1, stop) among workers.

    The ranges are min(workers, stop-1) contiguous, non-empty [lo, hi) pieces;
    they run on at most `cpus` processes.
    """
    workers = max(1, min(workers, stop - 1))
    bounds = [1 + (stop - 1) * i // workers for i in range(workers + 1)]
    return list(zip(bounds, bounds[1:])), min(workers, cpus)


def _map_ranges(walk: str, range_fn, N: int, spec: Optional[StatSpec],
                workers: int, *args) -> tuple:
    """(phi(N), vector, counts) of walk, the one driver of the scans and gk.

    It builds spec's tail table, which forked workers inherit, and runs
    range_fn((N, lo, hi, spec, *args)) over each range of _partition of
    the orbit representatives [1, N/2], serially where the platform cannot
    fork.  A range returns (vector, counts or None), its member count
    first; the merge adds the vectors element-wise and the counts key by
    key, and the member count must be phi(N).
    """
    _tails_for(N, spec)
    cpus = 1  # one worker runs in this process whatever the CPU count
    if workers >= 2:
        cpus = (len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
    ranges, processes = _partition(N // 2 + 1, workers, cpus)
    jobs = [(N, lo, hi, spec) + args for lo, hi in ranges]
    parts = None
    if processes > 1:
        import multiprocessing  # only a forking run pays for the import
        if "fork" in multiprocessing.get_all_start_methods():
            with multiprocessing.get_context("fork").Pool(processes) as pool:
                parts = pool.map(range_fn, jobs)
    vectors, (counts, *rest) = zip(*(parts or map(range_fn, jobs)))
    vector = [*map(sum, zip(*vectors))]
    for part in filter(None, rest):  # None unless a histogram is asked for
        for key, n in part.items():
            counts[key] = counts.get(key, 0) + n
    if vector[0] != (phi := euler_phi(N)):
        raise InvariantError(f"{walk} visited {vector[0]} numerators, "
                             f"phi({N}) = {phi}")
    return phi, vector, counts


def _tail_size(N: int) -> int:
    """T, below which a scan's walk of a/N hands its divisor over to the
    tail table: about N^(1/3), and at least 2.  A walk then reads about a
    third of a/N's digits from the table, which holds T^2 entries per list
    (T = 34 at N = 4*10^4, 215 at 10^7, 464 at SCAN_LIMIT).  A quarter of
    sqrt(N) read 5 % faster at N = 10^6+3 (S: 272 against 285 ms), but at
    10^7 its lists would take 15 MB against the scan's 20 MB peak."""
    return max(2, round(N ** (1 / 3)))


@lru_cache(maxsize=1)
def _tail_table(T: int, fold) -> dict:
    """Every tail b/n of a scan's walks, 0 <= b < n < T, as flat lists
    indexed n T + b; index T, 0/1, is the empty tail.  Entry b/n is built
    from b/n = [0; d, rest], d = n // b and rest = (n mod b)/b, whose
    entry is built first, so the table walks nothing.  Every fold keeps
    P and Q, the convergent p_{k-1}/q_{k-1} before the last of b/n's k
    digits, and F, b/n's fold; besides, by fold (see _tails_for):
      S_alt: sign, (-1)^k;
      M: R, whether the maximum F repeats;
      a window (f, eta, theta): weight, d -> f(d) on the window, else 0,
        and delta, the change of a window sum when a digit d >= 2 becomes
        1, d - 1; and W and D, the two for each d < T.
    Entries of b/n with gcd(b, n) > 1 are never read.  The last table is
    kept, and read only: T grows with N, so a range or a Farey law, which
    take N in ascending order, builds each size once."""
    size = T * T
    P, Q, F = [1] * size, [0] * size, [0] * size
    t = {"T": T, "P": P, "Q": Q, "F": F}
    if fold == "S_alt":
        sign = t["sign"] = [1] * size
    elif fold == "M":
        R = t["R"] = [False] * size
    elif fold != "S":
        f, eta, theta = fold

        def weight(d):
            return f(d) if eta <= d and (theta is None or d <= theta) else 0

        def delta(d):
            return weight(1) + weight(d - 1) - weight(d)
        W = [weight(d) for d in range(T)]
        t.update(weight=weight, delta=delta, W=W,
                 D=[0, 0] + [delta(d) for d in range(2, T)])
    for n in range(2, T):
        for b in range(1, n):
            d = n // b
            i, j = n * T + b, b * T + n % b
            P[i], Q[i] = Q[j], d * Q[j] + P[j]
            if fold == "S":
                F[i] = d + F[j]
            elif fold == "S_alt":
                F[i] = -d - F[j]
                sign[i] = -sign[j]
            elif fold != "M":
                F[i] = W[d] + F[j]
            elif d >= F[j]:
                F[i], R[i] = d, d == F[j]
            else:
                F[i], R[i] = F[j], R[j]
    return t


def _tails_for(N: int, spec: Optional[StatSpec]) -> dict:
    """The tail table for a scan of spec over Z_N*, whose entries fold the
    digit sum (S, and None, whose digit mode reads P and Q), the
    alternating sum (S_alt, D), the maximum (M), or the weighted sum over
    a digit window, (f, eta, theta) (L, restricted)."""
    kind = spec.kind if spec else "S"
    if kind == "L":
        fold = WeightFn.one(), spec.b, spec.c
    elif kind == "restricted":
        fold = spec.f, spec.eta, spec.theta
    else:
        fold = "S_alt" if kind == "D" else kind
    return _tail_table(_tail_size(N), fold)


def _orbits(N: int, lo: int, hi: int, spec: Optional[StatSpec], counts: dict):
    """Fold spec over the members of the orbits of the representatives in
    [lo, hi): count the members of each raw value into counts, or, for D,
    yield (raw, multiplicity) pairs.  The raw value is the fold of the
    digits of a member, or 24 N D(a/N).  With spec None, gk's digit mode,
    yield (a, a*, prefix, i): the digits walked, a_1 first, and the tail.

    A representative a <= a* = q_{r-1}(a) clears a* in the range's
    core._unit_table, which compress reads as it goes, so only a partner
    in an earlier range costs a discarded walk.  The walk folds each digit
    into s (the digit mode lists it), keeps (q_{j-1}, q_j), and stops once
    its divisor is below T; the rest of a/N is a tail b/n, index i, of
    _tails_for(N, spec), whose entry completes s and gives a* = q_j Q +
    q_{j-1} P.  Each kind's step on d, beside its entry for [0; d, rest]:
      S: s += d (d + F of rest);
      S_alt, D: s = d - s, (-1)^j S_alt of the j digits so far (-d - F);
      M: s = max(s, d), rep whether the maximum repeats (max(d, F), R);
      a window: s += W[d] (W[d] + F), and the digit mode W[d] = (d,).
    The orbit of a < N/2 is {a, a*, N - a, N - a*}, {a, N - a} if a = a*
    and {1} at N = 2: a* = [0; a_r, ..., a_1], so a_r = N // a*, and N - a
    (N - a*) has 1, a_1 - 1 (1, a_r - 1) where a (a*) has a_1 (a_r).
    """
    t = _tails_for(N, spec)
    T, P, Q, F = t["T"], t["P"], t["Q"], t["F"]
    sign, R, weight, delta, W, D = map(
        t.get, ("sign", "R", "weight", "delta", "W", "D"))
    kind = spec.kind if spec else None
    is_sum, is_alt, is_max = kind == "S", kind in ("S_alt", "D"), kind == "M"
    if not kind:  # the digit mode steps as a window whose weight lists d
        W, weight = [(d,) for d in range(T)], lambda d: (d,)
    if kind == "D":
        from .dedekind import closed_form  # no other kind loads dedekind
    get = counts.get
    units = _unit_table(N, lo, hi)
    for a in compress(range(lo, hi), units):
        d = d1 = N // a
        x, y = a, N - d * a
        q0, q1 = 1, d
        if is_sum or is_alt or is_max:
            s, rep = d, False
        elif kind:
            s = W[d] if d < T else weight(d)
        else:
            s = [d]  # a list, which each window step extends in place
        while x >= T:
            d = x // y
            x, y = y, x - d * y
            q0, q1 = q1, d * q1 + q0
            if is_sum:
                s += d
            elif is_alt:
                s = d - s
            elif is_max:
                if d >= s:
                    rep, s = d == s, d
            else:
                s += W[d] if d < T else weight(d)
        i = x * T + y
        star = q1 * Q[i] + q0 * P[i]
        if a > star:
            continue  # the representative a* < a lies in an earlier range
        if star < hi:
            units[star - lo] = 0
        # members a, a* (own) and N - a, N - a* (neg)
        own = neg = 2
        if star == a:
            own, neg = 1, 1 if 2 * a < N else 0
        if is_sum:
            s += F[i]
            counts[s] = get(s, 0) + own + neg
            continue
        # the raw values of a, a*, N - a and N - a*
        if is_alt:
            s = sign[i] * (s + F[i])  # (-1)^r S_alt(a/N)
            odd = a * star % N == 1  # a q_{r-1} = (-1)^(r-1) mod N
            if odd:
                s = -s
            if kind == "D":
                v = closed_form(a, N, odd, s, star)
                yield v, own  # D(a*/N) = D(a/N) = -D((N - a)/N)
                yield -v, neg
                continue
            # S_alt(a*) = (-1)^(r-1) S_alt(a), S_alt(N - a) = -S_alt(a) - 2
            va, vs = s, s if odd else -s
            na, ns = -va - 2, -vs - 2
        elif is_max:
            if F[i] > s:
                s, rep = F[i], R[i]
            elif F[i] == s:
                rep = True
            # N - a (N - a*) has s - 1 when a_1 (a_r) is the one maximum
            va = vs = s
            na = s - (not rep and d1 == s)
            ns = s - (not rep and N // star == s)
        elif kind:  # a window
            s += F[i]
            dr = N // star
            va = vs = s
            na = s + (D[d1] if d1 < T else delta(d1))
            ns = s + (D[dr] if dr < T else delta(dr))
        else:
            yield a, star, s, i
            continue
        if va == vs:
            counts[va] = get(va, 0) + own
        else:
            counts[va] = get(va, 0) + 1
            counts[vs] = get(vs, 0) + 1
        if na != ns:
            counts[na] = get(na, 0) + 1
            counts[ns] = get(ns, 0) + 1
        elif neg:
            counts[na] = get(na, 0) + neg


def _fold(pairs, cuts, scale: int, center: float, absolute: bool) -> list:
    """[count, sum, sum of squares, *tail counts] of (raw, multiplicity)
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
    return [count, total, total_sq, *tails]


def _scan_range(args):
    """(_fold of the members of the orbits of the representatives in
    [lo, hi), their counts {raw value: members} if a histogram is asked
    for).  Every kind but D counts its members as it walks and folds each
    raw value once; D's pairs stream into _fold unless a histogram is
    asked for."""
    N, lo, hi, spec, with_histogram, fold_args = args
    counts: dict = {}
    pairs = _orbits(N, lo, hi, spec, counts)
    if spec.kind == "D" and not with_histogram:
        return _fold(pairs, *fold_args), None
    get = counts.get
    for raw, mult in pairs:  # D's; the other kinds yield none
        counts[raw] = get(raw, 0) + mult
    return (_fold(counts.items(), *fold_args),
            counts if with_histogram else None)


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
    phi, (count, sum_scaled, sumsq_scaled, *tails), counts = _map_ranges(
        "scan", _scan_range, N, spec, workers, with_histogram, fold_args)
    # by position: a keyword build costs Record.__init__ a slice per field
    return EnsembleSummary(N, phi, spec, count, scale, sum_scaled,
                           sumsq_scaled, dict(zip(thresholds, tails)),
                           counts, center, absolute)


def _digit_range(args):
    """([members, *counts, *last], None) over the orbits of the
    representatives in [lo, hi), each member one last digit; index m_max
    + 1 of counts and last holds the digits above m_max.  A tail i's
    digits count once, for its hits[i] members, in a pass over the table,
    n descending, that hands b/n's hits to n // b and to (n mod b)/b."""
    N, lo, hi, spec, m_max = args
    top = m_max + 1
    counts = [0] * (top + 1)
    ends = [0] * (top + 2)  # the a_1 and a_r that N - a and N - a* swap
    T = _tails_for(N, spec)["T"]
    hits = [0] * (T * T)
    for a, star, prefix, i in _orbits(N, lo, hi, spec, {}):
        # a, a*, N - a, N - a* carry a's digits (a palindrome has no a*,
        # N - a*), but N - a (N - a*) swaps a_1 (a_r) for 1, a_1 - 1
        k = 2 if star == a else 4
        for q in prefix:
            counts[q if q <= m_max else top] += k
        hits[i] += k
        for q in (prefix[0],) if k == 2 else (prefix[0], N // star):
            ends[q if q <= top else top + 1] += 1
    for n in range(T - 1, 1, -1):
        for b in range(1, n):
            if h := hits[n * T + b]:
                counts[min(n // b, top)] += h
                hits[b * T + n % b] += h
    # a swapped end q <= top moves a count from q to q - 1, and adds a 1
    down = ends[1:top + 1] + [0]
    counts = [c - e + f for c, e, f in zip(counts, ends, down)]
    counts[1] += sum(ends)
    # a and N - a end in a_r, a* and N - a* in a_1, so each swapped end is
    # two last digits, except that N - 1 = [0; 1, N - 1] ends in N - 1
    last = [2 * e for e in ends[:top]] + [2 * (ends[top] + ends[top + 1])]
    if lo == 1:
        last[min(N, top)] -= 1
        last[min(N - 1, top)] += 1
    return [sum(last), *counts, *last], None


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
    phi, vector, _ = _map_ranges("digit_histogram", _digit_range, N, None,
                                 workers, m_max)
    every, final = vector[1:m_max + 3], vector[m_max + 3:]  # counts, last
    counts = dict(zip(range(1, m_max + 1), every[1:]))
    last = dict(zip(counts, final[1:]))
    norm = PI2 / (12 * math.log(2) * math.log(N))
    freq = {m: norm * counts[m] / phi for m in counts}
    interior = {m: norm * (counts[m] - last[m]) / phi for m in counts}
    target = {m: math.log2(1 + 1 / (m * (m + 2))) for m in counts}
    return {"N": N, "phi": phi, "counts": counts, "freq": freq,
            "target": target,
            "overflow": every[m_max + 1],
            "last_counts": last, "interior_freq": interior}


def hensley_limit(t: float) -> float:
    """1 - e^{-12/(pi^2 t)}, Hensley's limit of P(M >= t ln N) over F_Q."""
    return 1 - math.exp(-12 / (PI2 * t))
