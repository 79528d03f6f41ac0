"""Command-line front end.

Machine-readable output only: JSON (one object per line, keys sorted) or
CSV with a fixed column order.  Exact rationals are serialized as "p/q"
strings, floats as shortest round-trip decimals.  Exit codes: 0 success,
2 usage error or output that cannot be written (including a reader that
closes stdout early), 3 domain error, 4 size limit exceeded.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import stat
import sys
from fractions import Fraction
from typing import NoReturn

from .core import ReducedFraction, WeightFn, Window, expand, stat_alt, stat_max, stat_sum
from .dedekind import dedekind_bh
from .ensemble import StatSpec, constants, digit_histogram, scan
from .errors import (DISCREPANCY_LIMIT, FAREY_LIMIT, HISTOGRAM_LIMIT,
                     SCAN_LIMIT, SEARCH_LIMIT, CfqError, LimitExceeded)
# farey and search stay here, not in their commands: a traced benchmark run
# times them by patching these names on this module.
from .farey import bd_tail, hensley_tail, vardi_sample
from .search import _check_N, min_max_quotient, min_sum, zaremba_scan


def _frac_str(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def _weight_from_name(name: str) -> WeightFn:
    return {"one": WeightFn.one(), "identity": WeightFn.identity(),
            "square": WeightFn.square()}[name]


def _emit(out, line: str) -> None:
    out.write(line + "\n")


def _usage_error(message: str) -> NoReturn:
    print(f"cfq {message}", file=sys.stderr)
    raise SystemExit(2)


def _workers(command: str, args) -> int:
    """--workers, else CFQ_WORKERS, else 1; read only by the commands that
    use it, so a bad CFQ_WORKERS does not affect the others."""
    if args.workers is not None:
        return args.workers
    text = os.environ.get("CFQ_WORKERS") or "1"
    try:
        return positive_int(text)
    except argparse.ArgumentTypeError as exc:
        _usage_error(f"{command}: CFQ_WORKERS: {exc}")


def _check_range(command: str, rng) -> None:
    if rng is not None and rng[0] > rng[1]:
        _usage_error(f"{command}: --range LO HI needs LO <= HI, "
                     f"got {rng[0]} > {rng[1]}")


def fraction(text: str) -> Fraction:
    """argparse type for a rational given as p/q or a decimal."""
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError(str(exc)) from None


def positive_int(text: str) -> int:
    """argparse type for an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"need an integer >= 1, "
                                         f"got {text!r}")
    return value


def finite_float(text: str) -> float:
    """argparse type for a float other than nan and +-inf (not JSON)."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"need a finite number, got {text!r}")
    return value


def float_list(text: str) -> list[float]:
    """argparse type for comma-separated finite floats; empty text gives []."""
    return [finite_float(t) for t in text.split(",")] if text else []


def cmd_expand(args, out) -> int:
    frac = ReducedFraction(args.a, args.N)
    cf = expand(frac)
    record = {
        "a": frac.a,
        "N": frac.N,
        "digits": list(cf.digits),
        "convergents": [[p, q] for p, q in cf.convergents],
        "S": stat_sum(cf),
        "M": stat_max(cf),
        "S_alt": stat_alt(cf),
        "D": _frac_str(dedekind_bh(frac)),
    }
    _emit(out, json.dumps(record, sort_keys=True))
    return 0


def _spec_from_args(args) -> StatSpec:
    if args.stat == "L":
        return StatSpec("L", b=args.b, c=args.c)
    if args.stat == "restricted":
        return StatSpec("restricted", f=_weight_from_name(args.f),
                        eta=args.eta, theta=args.theta)
    return StatSpec(args.stat)


def _summary_record(summary) -> dict:
    rec = {
        "N": summary.N,
        "phi": summary.phi,
        "stat": summary.spec.label(),
        "mean": summary.mean,
        "variance": summary.variance,
    }
    for t in sorted(summary.tail_counts):
        rec[f"tail@{t:g}"] = summary.tail_fraction(t)
    return rec


def cmd_scan(args, out) -> int:
    if (args.N is None) == (args.range is None):
        _usage_error("scan: give either a single N or --range LO HI")
    _check_range("scan", args.range)
    if args.stat == "L" and (args.b is None or args.c is None):
        _usage_error("scan: --stat L needs --b and --c")
    if args.stat == "restricted" and args.eta is None:
        _usage_error("scan: --stat restricted needs --eta")
    thresholds = args.t or []
    labels = [f"tail@{t:g}" for t in thresholds]
    if (len(set(labels)) < len(labels)
            or len(set(thresholds)) < len(thresholds)):
        _usage_error("scan: --t thresholds must differ in value and in "
                     f"their columns, got {', '.join(labels)}")
    lo, hi = args.range or (args.N, args.N)
    if max(hi, hi - lo + 1) > SCAN_LIMIT:
        raise LimitExceeded(f"scan capped at N = {SCAN_LIMIT} and at "
                            f"{SCAN_LIMIT} values of N")
    workers = _workers("scan", args)
    spec = _spec_from_args(args)
    header_done = False
    for N in range(lo, hi + 1):
        summary = scan(N, spec, thresholds=thresholds, workers=workers)
        rec = _summary_record(summary)
        if args.format == "csv":
            if not header_done:
                _emit(out, ",".join(rec))
                header_done = True
            _emit(out, ",".join(repr(v) if isinstance(v, float) else str(v)
                                for v in rec.values()))
        else:
            _emit(out, json.dumps(rec, sort_keys=True))
    return 0


def cmd_dedekind(args, out) -> int:
    d = dedekind_bh(ReducedFraction(args.a, args.N))
    _emit(out, json.dumps({"N": args.N, "a": args.a, "D": _frac_str(d),
                           "D_decimal": float(d)}, sort_keys=True))
    return 0


def cmd_discrepancy(args, out) -> int:
    # Imported here, so the other commands do not load discrepancy and weight.
    from .discrepancy import reduced_fraction_discrepancy
    from .weight import IntervalQ
    rng = IntervalQ(args.lo, args.hi, True, True)
    report = reduced_fraction_discrepancy(args.N, rng)
    _emit(out, json.dumps({
        "N": args.N,
        "range": str(rng),
        "value": _frac_str(report.value),
        "value_decimal": float(report.value),
        "witness": str(report.witness),
    }, sort_keys=True))
    return 0


def cmd_search(args, out) -> int:
    _check_range("search", args.range)
    lo, hi = args.range
    if args.zaremba is not None:
        bad = zaremba_scan(lo, hi, args.zaremba)
        _emit(out, json.dumps({"K": args.zaremba, "range": [lo, hi],
                               "without_witness": bad}, sort_keys=True))
        return 0
    finder = min_sum if args.min_stat == "S" else min_max_quotient
    _check_N(lo)  # both ends, before the CSV header is written
    _check_N(hi)
    _emit(out, "N,argmin,min,bound,margin")
    for N in range(lo, hi + 1):
        rec = finder(N)
        margin = rec.min_value - rec.bound_value
        _emit(out, f"{rec.N},{rec.argmin_a},{rec.min_value},"
                   f"{rec.bound_value!r},{margin!r}")
    return 0


def cmd_farey(args, out) -> int:
    if args.law == "hensley":
        emp, lim = hensley_tail(args.Q, args.t)
        rec = {"Q": args.Q, "law": "hensley", "t": args.t,
               "fraction": emp, "limit": lim}
    elif args.law == "bd":
        frac, prod = bd_tail(args.Q, args.t)
        rec = {"Q": args.Q, "law": "bd", "t": args.t,
               "fraction": frac, "t_times_fraction": prod}
    else:
        r = vardi_sample(args.Q)
        rec = {"Q": args.Q, "law": "vardi", "count": r.count,
               "probes": list(r.probes),
               "empirical_cdf": list(r.empirical_cdf),
               "cauchy_cdf": list(r.cauchy_cdf),
               "sup_distance": r.sup_distance}
    _emit(out, json.dumps(rec, sort_keys=True))
    return 0


def cmd_gk(args, out) -> int:
    h = digit_histogram(args.N, args.max_digit,
                        workers=_workers("gk", args))
    _emit(out, "m,freq,target,diff")
    for m in range(1, args.max_digit + 1):
        _emit(out, f"{m},{h['freq'][m]!r},{h['target'][m]!r},"
                   f"{h['freq'][m] - h['target'][m]!r}")
    return 0


def cmd_constants(args, out) -> int:
    tc = constants(_weight_from_name(args.f), Window(args.eta, args.theta),
                   args.b, args.c)
    rec = {k: getattr(tc, k) for k in
           ("A", "B", "C", "D", "Dprime", "Xi", "mu")}
    rec.update({"f": args.f, "eta": args.eta, "theta": args.theta,
                "b": args.b, "c": args.c})
    _emit(out, json.dumps(rec, sort_keys=True))
    return 0


WORKERS_HELP = ("worker processes, at least 1; the default is CFQ_WORKERS, "
                "else 1")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfq",
        description="Exact statistics of partial quotients of reduced "
                    "fractions with fixed denominator.")
    parser.add_argument("-o", "--output", help="write output to this path "
                                               "instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="continued fraction record of a/N")
    p.add_argument("N", type=int)
    p.add_argument("a", type=int)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser(
        "scan",
        help="ensemble moments and tails over Z_N*; CSV columns are fixed "
             "as N, phi, stat, mean, variance, then one tail@t column per "
             "threshold")
    p.add_argument("N", type=int, nargs="?",
                   help=f"denominator, at most {SCAN_LIMIT}")
    p.add_argument("--range", type=int, nargs=2, metavar=("LO", "HI"),
                   help=f"scan every N in [LO, HI], one output line each; "
                        f"HI and the number of N at most {SCAN_LIMIT}")
    p.add_argument("--stat", default="S",
                   choices=["S", "M", "L", "S_alt", "D", "restricted"])
    p.add_argument("--t", type=float_list,
                   help="comma-separated tail thresholds (times ln N)")
    p.add_argument("--b", type=int, help="window start for --stat L")
    p.add_argument("--c", type=int, help="window end for --stat L")
    p.add_argument("--f", default="one", choices=["one", "identity", "square"],
                   help="weight for --stat restricted")
    p.add_argument("--eta", type=int, help="window start for restricted")
    p.add_argument("--theta", type=int, help="window end for restricted")
    p.add_argument("--workers", type=positive_int, help=WORKERS_HELP)
    p.add_argument("--format", default="json", choices=["json", "csv"])
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("dedekind", help="Dedekind sum D(a/N), exact")
    p.add_argument("N", type=int)
    p.add_argument("a", type=int)
    p.set_defaults(func=cmd_dedekind)

    p = sub.add_parser("discrepancy",
                       help="extreme discrepancy of {a/N} within a range")
    p.add_argument("N", type=int, help=f"denominator, at most "
                                       f"{DISCREPANCY_LIMIT}")
    p.add_argument("--lo", type=fraction, default="0",
                   help="range start, as p/q")
    p.add_argument("--hi", type=fraction, default="1",
                   help="range end, as p/q")
    p.set_defaults(func=cmd_discrepancy)

    p = sub.add_parser("search",
                       help="extremal fractions; CSV columns N, argmin, min, "
                            "bound, margin")
    p.add_argument("--min-stat", default="M", choices=["S", "M"])
    p.add_argument("--range", type=int, nargs=2, metavar=("LO", "HI"),
                   required=True, help=f"2 <= LO <= HI <= {SEARCH_LIMIT}")
    p.add_argument("--zaremba", type=int, metavar="K",
                   help="list denominators with no all-digits-<=K numerator")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("farey", help="Farey-ensemble limit-law comparisons")
    p.add_argument("Q", type=int, help=f"Farey order, at most {FAREY_LIMIT}")
    p.add_argument("--law", default="hensley",
                   choices=["hensley", "vardi", "bd"])
    p.add_argument("--t", type=finite_float, default=2.0)
    p.set_defaults(func=cmd_farey)

    p = sub.add_parser("gk",
                       help="digit histogram vs the Gauss-Kuzmin law; CSV "
                            "columns m, freq, target, diff")
    p.add_argument("N", type=int, help=f"denominator, at most {SCAN_LIMIT}")
    p.add_argument("--max-digit", type=int, default=5,
                   help=f"largest digit reported, at most {HISTOGRAM_LIMIT}")
    p.add_argument("--workers", type=positive_int, help=WORKERS_HELP)
    p.set_defaults(func=cmd_gk)

    p = sub.add_parser("constants", help="theorem constants for a weight")
    p.add_argument("--f", default="one", choices=["one", "identity", "square"])
    p.add_argument("--eta", type=int, default=1)
    p.add_argument("--theta", type=int, default=5)
    p.add_argument("--b", type=int, default=1)
    p.add_argument("--c", type=int, default=1)
    p.set_defaults(func=cmd_constants)

    return parser


def _cannot_write(path: str, reason: str) -> int:
    print(f"cfq: cannot write {path}: {reason}", file=sys.stderr)
    return 2


def _run(args, out) -> int:
    """Run the command, writing to out; domain and limit errors exit 3, 4."""
    try:
        return args.func(args, out)
    except LimitExceeded as exc:
        print(f"cfq: {exc}", file=sys.stderr)
        return 4
    except CfqError as exc:
        print(f"cfq: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ZeroDivisionError) as exc:
        print(f"cfq: {exc}", file=sys.stderr)
        return 3


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.output:
        try:
            code = _run(args, sys.stdout)
            sys.stdout.flush()
            return code
        except BrokenPipeError:
            # The reader closed stdout early.  Point stdout at devnull, so
            # the flush at exit raises no second error, and exit 2.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 2
    # -o FILE, FILE missing or a regular file: the command writes into a
    # new file next to FILE, which replaces FILE on success and is deleted
    # in every other case, so a rejected command or a failed write leaves
    # an existing FILE as it was.  Any other FILE (a device, a FIFO) is
    # written directly.  An OSError on FILE or the new file exits 2.
    try:
        regular = stat.S_ISREG(os.stat(args.output).st_mode)
    except FileNotFoundError:
        regular = True
    except OSError as exc:
        return _cannot_write(args.output, exc.strerror or str(exc))
    tmp = f"{args.output}.{os.getpid()}.tmp" if regular else None
    try:
        out = open(tmp, "x") if tmp else open(args.output, "w")
    except OSError as exc:
        return _cannot_write(args.output, exc.strerror or str(exc))
    try:
        with out:
            code = _run(args, out)
        if tmp and code == 0:
            os.replace(tmp, args.output)
        return code
    except OSError as exc:
        return _cannot_write(args.output, exc.strerror or str(exc))
    finally:
        if tmp:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)


if __name__ == "__main__":
    sys.exit(main())
