"""exact-rational user script: the exact identities of the acceptance tests.

Calls the public functions the acceptance criteria use, in Fraction
arithmetic, and prints one deterministic line per result.  The work is
split into parts, so that each process stays short:

    PYTHONPATH=src python3 perfbench/exact_script.py N_ROW PART

where PART is one of koksma, row, counting, continuant and bijection.

The library is reached through its modules (``discrepancy.koksma_check``,
not a bare imported name), so a traced run can time each function by
replacing the module attribute.
"""

from __future__ import annotations

import importlib
import math
import sys

from cfq import discrepancy, weight
from cfq.core import ReducedFraction, WeightFn, Window

from workloads import (BIJECTION_MAX_K, CONTINUANT_MAX_N, COUNTING_MAX_N,
                       EXACT_PARTS, KOKSMA_MAX_N, ROW_MAX_K)

# ``from cfq import reflect`` would give the function cfq.reflect.reflect.
reflect = importlib.import_module("cfq.reflect")

PREFIXES = ((1, 1), (1, 2), (2, 3), (2, 5), (3, 7))
WEIGHTS = (WeightFn.one(), WeightFn.identity())
WINDOW = Window(1, 5)


def _coprime(N: int):
    return (a for a in range(1, N) if math.gcd(a, N) == 1)


def koksma(n_row: int, out) -> None:
    steps = [discrepancy.StepFn(weight.weight_step_pieces(b, k, f, WINDOW))
             for b, k in PREFIXES for f in WEIGHTS]
    held = total = 0
    for N in range(2, KOKSMA_MAX_N + 1):
        ps = discrepancy.PointSet.reduced_fractions(N)
        for g in steps:
            total += 1
            held += discrepancy.koksma_check(g, ps)
    out.write(f"koksma N<={KOKSMA_MAX_N}: {held}/{total}\n")


def row(n_row: int, out) -> None:
    for k in range(1, ROW_MAX_K + 1):
        value = weight.row_sum(n_row, k, WeightFn.identity(), WINDOW)
        out.write(f"row_sum N={n_row} k={k}: {value}\n")
    star = discrepancy.star_discrepancy(
        discrepancy.PointSet.reduced_fractions(n_row))
    out.write(f"star N={n_row}: {star.value} at {star.witness}\n")


def counting(n_row: int, out) -> None:
    held = total = 0
    for N in range(3, COUNTING_MAX_N + 1):
        moduli = range(1, N)
        for a in _coprime(N):
            for f in WEIGHTS:
                total += 1
                held += weight.counting_identity_check(
                    ReducedFraction(a, N), moduli, f, WINDOW)
    out.write(f"counting N<={COUNTING_MAX_N}: {held}/{total}\n")


def continuant(n_row: int, out) -> None:
    held = total = 0
    for N in range(2, CONTINUANT_MAX_N + 1):
        for a in _coprime(N):
            total += 1
            held += reflect.verify_continuant_identity(
                ReducedFraction(a, N))[0]
    out.write(f"continuant N<={CONTINUANT_MAX_N}: {held}/{total}\n")


def bijection(n_row: int, out) -> None:
    held = total = 0
    for k in range(2, BIJECTION_MAX_K + 1):
        for f in WEIGHTS:
            total += 1
            held += weight.bijection_identity_check(k, f, WINDOW)
    out.write(f"bijection k<={BIJECTION_MAX_K}: {held}/{total}\n")


PARTS = {"koksma": koksma, "row": row, "counting": counting,
         "continuant": continuant, "bijection": bijection}
assert tuple(PARTS) == EXACT_PARTS


def run(n_row: int, part: str, out) -> None:
    PARTS[part](n_row, out)


if __name__ == "__main__":
    run(int(sys.argv[1]), sys.argv[2], sys.stdout)
