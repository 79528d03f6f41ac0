"""Theorem constants and pass/fail harnesses over ensemble scans.

Only the constants command and the library's callers use these, so a
scan, search or Farey process neither imports nor compiles this module.
The harnesses import ensemble as they run: constants compiles no scan.
"""

from __future__ import annotations

import math
from typing import Optional

from .core import PI2, Record, WeightFn, Window, digit_sum_center, gauss_mass
from .errors import HISTOGRAM_LIMIT, InvalidSpec, InvalidWindow, LimitExceeded


class TheoremConstants(Record):
    __slots__ = ("A", "B", "C", "D", "Dprime", "Xi", "mu")


def constants(f: WeightFn, w: Window, b: int, c: int) -> TheoremConstants:
    """Expected-value and variance constants for the restricted digit sum.

    A = (12/pi^2) sum_{m=eta}^{theta} f(m) ln(1 + 1/(m(m+2)))
    B = A + f(theta)/theta
    C = 5 f(theta) / B          (needs f(theta) > 0)
    D = B sum f(m)/m^4,  D' = B sum f(m)/m^3
    Xi = 2 f(eta)^2/(eta(eta+1))
         + sum_{m=eta}^{theta-1} 2 (f(m+1)-f(m))^2 / ((m+1)(m+2))
         + 2 f(theta)^2 / ((theta+1)(theta+2))
    mu = (12/pi^2) sum_{m=b}^{c} ln(1 + 1/(m(m+2)))

    Either window above HISTOGRAM_LIMIT digits raises LimitExceeded.
    """
    eta, theta = w.eta, w.finite_theta()
    if theta - eta + 1 > HISTOGRAM_LIMIT:
        raise LimitExceeded(f"window [{eta}, {theta}] has more than "
                            f"{HISTOGRAM_LIMIT} digits")
    f.validate_on(w)
    mu = mu_window(b, c)
    A = (12 / PI2) * sum(float(f(m)) * gauss_mass(m)
                         for m in range(eta, theta + 1))
    B = A + float(f(theta)) / theta
    C = 5 * float(f(theta)) / B
    D = B * sum(float(f(m)) / m ** 4 for m in range(eta, theta + 1))
    Dprime = B * sum(float(f(m)) / m ** 3 for m in range(eta, theta + 1))
    Xi = (2 * float(f(eta)) ** 2 / (eta * (eta + 1))
          + sum(2 * float(f(m + 1) - f(m)) ** 2 / ((m + 1) * (m + 2))
                for m in range(eta, theta))
          + 2 * float(f(theta)) ** 2 / ((theta + 1) * (theta + 2)))
    return TheoremConstants(A=A, B=B, C=C, D=D, Dprime=Dprime, Xi=Xi, mu=mu)


def mu_window(b: int, c: int) -> float:
    """mu_[b,c] = (12/pi^2) sum_{m=b}^{c} ln(1 + 1/(m(m+2)))."""
    if b < 1 or b > c:
        raise InvalidWindow(f"need 1 <= b <= c, got ({b}, {c})")
    if c - b + 1 > HISTOGRAM_LIMIT:
        raise LimitExceeded(f"window [{b}, {c}] has more than "
                            f"{HISTOGRAM_LIMIT} digits")
    return (12 / PI2) * sum(map(gauss_mass, range(b, c + 1)))


def thm_harness(N: int, which: str, t_values: Optional[list] = None,
                b: int = 1, c: int = 1, workers: int = 1) -> dict:
    """Empirical tail/mean reports against the four ensemble theorems.

    T1: the digit sum concentrates at (12/pi^2) ln N ln ln N; the report
        checks t * P(|S - center| >= t ln N) <= 3 for each t.
    T2: P(M >= t ln N) should sit in [0.7, 1.25] * 12/(pi^2 t) and be
        non-increasing in t.
    T3: mean of L_[b,c] should be within 10 percent of mu_[b,c] ln N.
    T4: like T1 for |D(a/N)| without centering.
    """
    from .ensemble import StatSpec, hensley_limit, scan
    if N < 3:
        raise InvalidSpec(f"harness needs N >= 3, got {N}")
    logN = math.log(N)
    if which == "T3":
        spec = StatSpec("L", b=b, c=c)
        mu = mu_window(b, c)  # checks the window limit before the scan
        summary = scan(N, spec, workers=workers)
        ratio = summary.mean / (mu * logN)
        return {"theorem": "T3", "N": N, "b": b, "c": c,
                "mean": summary.mean, "variance": summary.variance,
                "mu": mu, "mu_lnN": mu * logN, "ratio": ratio,
                "ok": abs(ratio - 1) <= 0.10}
    t_values = list(t_values or [2.0, 4.0, 8.0])
    if which in ("T1", "T4"):
        center = digit_sum_center(N) if which == "T1" else 0.0
        summary = scan(N, StatSpec("S" if which == "T1" else "D"),
                       thresholds=t_values, workers=workers, center=center,
                       absolute=True)
        rows = [{"t": t, "fraction": summary.tail_fraction(t),
                 "product": t * summary.tail_fraction(t)} for t in t_values]
        report = {"theorem": which, "N": N, "center": center, "rows": rows,
                  "ok": all(r["product"] <= 3 for r in rows)}
        if which == "T4":
            del report["center"]  # D is not centered
        return report
    if which == "T2":
        summary = scan(N, StatSpec("M"), thresholds=t_values, workers=workers)
        rows = []
        for t in t_values:
            frac = summary.tail_fraction(t)
            bound = 12 / (PI2 * t)
            rows.append({"t": t, "fraction": frac, "bound": bound,
                         "hensley": hensley_limit(t),
                         "in_band": 0.7 * bound <= frac <= 1.25 * bound})
        fracs = [r["fraction"] for r in rows]
        mono = all(u >= v for u, v in zip(fracs, fracs[1:]))
        return {"theorem": "T2", "N": N, "rows": rows, "monotone": mono,
                "ok": mono and all(r["in_band"] for r in rows)}
    raise InvalidSpec(f"unknown harness {which!r}")


def panov_mean_report(N: int) -> dict:
    """Exact mean of S over Z_N* next to its (6/pi^2) (ln N)^2 main term."""
    from .ensemble import StatSpec, scan
    summary = scan(N, StatSpec("S"))
    target = (6 / PI2) * math.log(N) ** 2
    return {"N": N, "mean": summary.mean, "exact_mean": summary.exact_mean,
            "target": target, "ratio": summary.mean / target}
