"""The four benchmark workloads: seed -> command list, with fixed work counts.

Every input comes from a small menu chosen so that all entries cost about
the same, and entry 0 is the default size.  A seed selects entry
``seed % 4`` of every menu, so runs under different seeds measure nearly
the same amount of work on different inputs, and the golden digests
recorded for entries 0..3 cover every seed.

Every command is sized to take about 0.1-0.3 s on top of interpreter
start-up, so that a run repeats each one several times, each repeat
followed by the reference job it is measured against (see run.py).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache

#: zn-parallel is not listed in BENCHMARK.json: its wall time depends on
#: whether the host runs our second CPU at the time, which the one-process
#: reference job cannot cancel (see RESULTS.md).  It still runs by hand,
#: and its commands run in every traced run for the per-layer w2 metrics.
WORKLOADS = ("zn-big", "zn-parallel", "dense-range", "exact-rational")

#: Worker count of the zn-parallel workload; never more than the CPUs.
PARALLEL_WORKERS = 2

MENU_SIZE = 4
#: The ROADMAP baseline denominator: a traced run checks its Euclid step
#: count (12,109,287 over phi = 1,000,002 fractions).
BASELINE_N = 1000003
#: Primes just above 4 * 10^4.
BIG_PRIMES = (40009, 40013, 40031, 40037)
#: Highly composite N near 4 * 10^4, each with phi(N) = 8640
#: (phi/N ~ 0.2-0.22).
COMPOSITES = (43890, 41580, 40950, 39900)
#: zn-parallel range scan over [LO, LO + PARALLEL_SPAN - 1]; a pool is
#: forked for every N.
PARALLEL_LO, PARALLEL_SPAN = (3, 4, 5, 6), 30
#: dense-range scans [LO, LO + 597]; searches start one lower.
DENSE_LO = (3, 4, 5, 6)
#: Farey order Q near 200.
FAREY_Q = (200, 199, 201, 198)
#: exact-rational discrepancy at N0 and N0 + 1; each pair has sum phi
#: 3792-3800.
DISCREPANCY_N0 = (3000, 2999, 2861, 2830)
#: Denominator of the exact-rational row sums, a prime near 2000.
ROW_PRIMES = (2003, 2011, 2017, 2027)

#: The exact-rational script's parts (one process each) and their
#: argument ranges (see exact_script.py).
EXACT_PARTS = ("koksma", "row", "counting", "continuant", "bijection")
KOKSMA_MAX_N, KOKSMA_STEPS = 15, 10
ROW_MAX_K = 8
COUNTING_MAX_N, COUNTING_WEIGHTS = 45, 2
CONTINUANT_MAX_N = 150
BIJECTION_MAX_K, BIJECTION_WEIGHTS = 40, 2


def phi(n: int) -> int:
    """Euler's totient by trial division (independent of the program)."""
    result, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            result -= result // p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        result -= result // m
    return result


def phi_sum(lo: int, hi: int) -> int:
    return sum(phi(n) for n in range(lo, hi + 1))


@lru_cache(maxsize=None)
def zaremba_visits(lo: int, hi: int, K: int) -> int:
    """Numerators a Zaremba scan of [lo, hi] tests: each N stops at its
    first a coprime to N whose partial quotients are all <= K."""
    total = 0
    for N in range(lo, hi + 1):
        for a in range(1, N):
            if math.gcd(a, N) != 1:
                continue
            total += 1
            num, den = a, N
            while num and den // num <= K:
                den, num = num, den % num
            if not num:
                break
    return total


@dataclass(frozen=True)
class Command:
    """One step of a workload.

    ``kind`` is "cli" (``python -m cfq.cli ARGS``) or "script"
    (``python perfbench/exact_script.py N_ROW PART``).  ``fractions`` is the
    command's fixed work count: the reduced fractions a/N it enumerates.
    ``key`` names the command in traced runs and per-layer metrics.
    """

    key: str
    kind: str
    args: tuple[str, ...]
    fractions: int
    workers: int = 1

    @property
    def golden_key(self) -> str:
        # Output does not depend on the worker count, so it is not part
        # of the key: 2-worker runs must match the 1-worker digests.
        return " ".join((self.kind,) + self.args)

    def env(self, root: str) -> dict:
        return dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                    CFQ_WORKERS=str(self.workers))

    def argv(self, python: str) -> list[str]:
        if self.kind == "cli":
            return [python, "-m", "cfq.cli", *self.args]
        return [python, os.path.join("perfbench", "exact_script.py"),
                *self.args]


def _cli(key, *args, fractions, workers=1):
    return Command(key, "cli", tuple(str(a) for a in args), fractions, workers)


def big_scans(N: int, workers: int = 1) -> list[Command]:
    suffix = "_w2" if workers == 2 else ""
    n = phi(N)
    return [_cli(f"scan_{stat}{suffix}", "scan", N, "--stat", stat, *extra,
                 "--t", "2,4,8", fractions=n, workers=workers)
            for stat, extra in (("S", ()), ("M", ()),
                                ("L", ("--b", 1, "--c", 1)),
                                ("S_alt", ()), ("D", ()))]


def exact_part_fractions(part: str, n_row: int) -> int:
    return {
        "koksma": KOKSMA_STEPS * phi_sum(2, KOKSMA_MAX_N),
        # row sums, then the star discrepancy of the reduced set
        "row": ROW_MAX_K * phi(n_row) + phi(n_row),
        "counting": COUNTING_WEIGHTS * phi_sum(3, COUNTING_MAX_N),
        "continuant": phi_sum(2, CONTINUANT_MAX_N),
        "bijection": BIJECTION_WEIGHTS * phi_sum(2, BIJECTION_MAX_K),
    }[part]


def parallel_range(seed: int, workers: int) -> Command:
    """zn-parallel's range scan; its 1-worker twin is a traced-run probe."""
    lo = PARALLEL_LO[seed % MENU_SIZE]
    hi = lo + PARALLEL_SPAN - 1
    return _cli(f"range_w{workers}", "scan", "--range", lo, hi, "--stat", "M",
                fractions=phi_sum(lo, hi), workers=workers)


def commands(workload: str, seed: int) -> list[Command]:
    """The closed-loop command list of one workload under one seed."""
    i = seed % MENU_SIZE
    N = BIG_PRIMES[i]
    if workload == "zn-big":
        Nc = COMPOSITES[i]
        return big_scans(N) + [
            _cli("digit_histogram", "gk", N, "--max-digit", 5,
                 fractions=phi(N)),
            _cli("scan_composite", "scan", Nc, "--stat", "S",
                 fractions=phi(Nc)),
        ]
    if workload == "zn-parallel":
        w = PARALLEL_WORKERS
        scans = big_scans(N, workers=w)
        return [scans[1], scans[4],
                _cli("digit_histogram_w2", "gk", N, "--max-digit", 5,
                     fractions=phi(N), workers=w),
                parallel_range(seed, w)]
    if workload == "dense-range":
        lo, Q = DENSE_LO[i], FAREY_Q[i]
        search = phi_sum(lo - 1, lo + 597)
        farey = phi_sum(2, Q)  # |F_Q| without 0/1 and 1/1
        return [
            _cli("range_csv", "scan", "--range", lo, lo + 597,
                 "--format", "csv", fractions=phi_sum(lo, lo + 597)),
            _cli("search_M", "search", "--range", lo - 1, lo + 597,
                 fractions=search),
            _cli("search_S", "search", "--min-stat", "S", "--range",
                 lo - 1, lo + 597, fractions=search),
            _cli("zaremba", "search", "--zaremba", 5, "--range", lo - 1,
                 lo + 997, fractions=zaremba_visits(lo - 1, lo + 997, 5)),
            _cli("farey_hensley", "farey", Q, "--law", "hensley",
                 fractions=farey),
            _cli("farey_vardi", "farey", Q, "--law", "vardi",
                 fractions=farey),
            _cli("farey_bd", "farey", Q, "--law", "bd", fractions=farey),
        ]
    if workload == "exact-rational":
        n_row, N0 = ROW_PRIMES[i], DISCREPANCY_N0[i]
        return [Command(f"exact_{part}", "script", (str(n_row), part),
                        exact_part_fractions(part, n_row))
                for part in EXACT_PARTS] + [
            _cli("discrepancy", "discrepancy", n, fractions=phi(n))
            for n in range(N0, N0 + 2)]
    raise ValueError(f"unknown workload {workload!r}")


def usable_cpus() -> int:
    count = os.cpu_count() or 1
    if hasattr(os, "sched_getaffinity"):
        count = min(count, len(os.sched_getaffinity(0)))
    return count


def check_workers(cmd: Command) -> None:
    """Refuse any command that would ask for more workers than CPUs."""
    if not 1 <= cmd.workers <= usable_cpus():
        raise SystemExit(f"perfbench: {cmd.key} wants {cmd.workers} workers, "
                         f"this machine has {usable_cpus()} CPUs")
