"""Command-line front end.

Each command returns its format and an iterable of records (dicts), and
_write alone turns them into output: a JSON object per line with sorted
keys, exact rationals as "p/q" strings and floats as shortest round-trip
decimals, or CSV under a header of the first record's keys, with the same
floats and, as RFC 4180 asks, a field that holds a comma quoted (the
stat label L[1,2]).  Exit codes: 0 success, 2 usage error or output that
cannot be written (including a reader that closes stdout early) or an
option that the mode does not read (search --min-stat with --zaremba,
farey --t with --law vardi), 3 domain error (also a scan window option
that its statistic does not read), 4 size limit exceeded.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import stat
import sys
from importlib import import_module
from typing import TYPE_CHECKING, NoReturn

from .errors import (DISCREPANCY_LIMIT, FAREY_LIMIT, HISTOGRAM_LIMIT,
                     PRINT_DIGITS_LIMIT, SCAN_LIMIT, SEARCH_LIMIT, STAT_KINDS,
                     WEIGHT_KINDS, CfqError, LimitExceeded)

# Every other module is imported by the command that runs it, so the parser
# compiles only this module and errors; fractions is imported where a
# command builds a Fraction, and json where _write prints JSON.
if TYPE_CHECKING:
    from fractions import Fraction


def _on_call(name: str):
    """A stand-in for cfq.<name> that loads it, through the package's name
    table, at its first call; it keeps the function in its own cell, not on
    this module, so a name patched here after that call sees later calls."""
    real = None

    def call(*args, **kwargs):
        nonlocal real
        if real is None:
            real = getattr(import_module("cfq"), name)
        return real(*args, **kwargs)
    call.__name__ = call.__qualname__ = name
    return call


# Module-level, since a traced benchmark run patches these eight on cfq.cli.
scan = _on_call("scan")
digit_histogram = _on_call("digit_histogram")
min_max_quotient = _on_call("min_max_quotient")
min_sum = _on_call("min_sum")
zaremba_scan = _on_call("zaremba_scan")
hensley_tail = _on_call("hensley_tail")
vardi_sample = _on_call("vardi_sample")
bd_tail = _on_call("bd_tail")


def _frac_str(x: Fraction) -> str:
    """The JSON hook that prints an exact rational as "p/q"."""
    return f"{x.numerator}/{x.denominator}"


def _csv_field(value) -> str:
    """value as a CSV field, quoted if it holds a comma (RFC 4180); no
    field of a cfq record holds a quote or a line break."""
    text = str(value)
    return f'"{text}"' if "," in text else text


def _write(out, fmt: str, records) -> None:
    """Write each record as it arrives, as a JSON line or a CSV row."""
    if fmt == "json":
        import json
        for rec in records:
            out.write(json.dumps(rec, sort_keys=True, default=_frac_str)
                      + "\n")
        return
    for i, rec in enumerate(records):
        if not i:
            out.write(",".join(map(_csv_field, rec)) + "\n")
        out.write(",".join(map(_csv_field, rec.values())) + "\n")


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
    from fractions import Fraction
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


def cmd_expand(args):
    from .core import ReducedFraction, expand, stat_alt, stat_max, stat_sum
    from .dedekind import dedekind_bh
    frac = ReducedFraction(args.a, args.N)
    cf = expand(frac)
    return "json", [{
        "a": frac.a,
        "N": frac.N,
        "digits": list(cf.digits),
        "convergents": [[p, q] for p, q in cf.convergents],
        "S": stat_sum(cf),
        "M": stat_max(cf),
        "S_alt": stat_alt(cf),
        "D": dedekind_bh(frac),
    }]


def _summary_record(summary, columns) -> dict:
    rec = {
        "N": summary.N,
        "phi": summary.phi,
        "stat": summary.spec.label(),
        "mean": summary.mean,
        "variance": summary.variance,
    }
    for t, label in columns:
        rec[label] = summary.tail_fraction(t)
    return rec


def cmd_scan(args):
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
    from .core import WeightFn
    from .ensemble import StatSpec
    spec = StatSpec(args.stat, b=args.b, c=args.c,
                    f=args.f and WeightFn(args.f), eta=args.eta,
                    theta=args.theta)
    columns = sorted(zip(thresholds, labels))
    return args.format, (
        _summary_record(scan(N, spec, thresholds=thresholds, workers=workers),
                        columns)
        for N in range(lo, hi + 1))


def cmd_dedekind(args):
    from .core import ReducedFraction
    from .dedekind import dedekind_bh
    d = dedekind_bh(ReducedFraction(args.a, args.N))
    return "json", [{"N": args.N, "a": args.a, "D": d, "D_decimal": float(d)}]


def cmd_discrepancy(args):
    from .discrepancy import IntervalQ, reduced_fraction_discrepancy
    rng = IntervalQ(args.lo, args.hi, True, True)
    report = reduced_fraction_discrepancy(args.N, rng)
    w = report.witness
    bound = 10 ** PRINT_DIGITS_LIMIT
    if any(abs(x.numerator) >= bound or x.denominator >= bound
           for x in (report.value, w.lo, w.hi, rng.lo, rng.hi)):
        raise LimitExceeded(f"discrepancy prints numerators and denominators "
                            f"of at most {PRINT_DIGITS_LIMIT} digits")
    return "json", [{
        "N": args.N,
        "range": str(rng),
        "value": report.value,
        "value_decimal": float(report.value),
        "witness": str(w),
    }]


def cmd_search(args):
    _check_range("search", args.range)
    lo, hi = args.range
    if args.zaremba is not None:
        if args.min_stat is not None:
            _usage_error("search: --min-stat does not apply to --zaremba")
        bad = zaremba_scan(lo, hi, args.zaremba)
        return "json", [{"K": args.zaremba, "range": [lo, hi],
                         "without_witness": bad}]
    from .search import search
    stat = args.min_stat or "M"
    rows = search(lo, hi, stat, min_sum if stat == "S" else min_max_quotient)
    return "csv", ({"N": r.N, "argmin": r.argmin_a, "min": r.min_value,
                    "bound": r.bound_value,
                    "margin": r.min_value - r.bound_value} for r in rows)


def cmd_farey(args):
    if args.law == "vardi":
        if args.t is not None:
            _usage_error("farey: --t does not apply to --law vardi")
        r = vardi_sample(args.Q)
        rec = {k: getattr(r, k) for k in r.__slots__}
    else:
        law, second = ((hensley_tail, "limit") if args.law == "hensley"
                       else (bd_tail, "t_times_fraction"))
        rec = {"Q": args.Q, "t": 2.0 if args.t is None else args.t}
        rec["fraction"], rec[second] = law(args.Q, rec["t"])
    rec["law"] = args.law
    return "json", [rec]


def cmd_gk(args):
    h = digit_histogram(args.N, args.max_digit,
                        workers=_workers("gk", args))
    freq, target = h["freq"], h["target"]
    return "csv", ({"m": m, "freq": freq[m], "target": target[m],
                    "diff": freq[m] - target[m]}
                   for m in range(1, args.max_digit + 1))


def cmd_constants(args):
    from .core import WeightFn, Window
    from .theorems import constants
    tc = constants(WeightFn(args.f), Window(args.eta, args.theta),
                   args.b, args.c)
    rec = {k: getattr(tc, k) for k in tc.__slots__}
    rec.update({"f": args.f, "eta": args.eta, "theta": args.theta,
                "b": args.b, "c": args.c})
    return "json", [rec]


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
    p.add_argument("--stat", default="S", choices=STAT_KINDS)
    p.add_argument("--t", type=float_list,
                   help="comma-separated tail thresholds (times ln N)")
    p.add_argument("--b", type=int, help="window start for --stat L")
    p.add_argument("--c", type=int, help="window end for --stat L")
    p.add_argument("--f", choices=WEIGHT_KINDS,
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
    p.add_argument("--min-stat", choices=["S", "M"])
    p.add_argument("--range", type=int, nargs=2, metavar=("LO", "HI"),
                   required=True, help=f"2 <= LO <= HI <= {SEARCH_LIMIT}")
    p.add_argument("--zaremba", type=int, metavar="K",
                   help="list denominators with no all-digits-<=K numerator")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("farey", help="Farey-ensemble limit-law comparisons")
    p.add_argument("Q", type=int, help=f"Farey order, at most {FAREY_LIMIT}")
    p.add_argument("--law", default="hensley",
                   choices=["hensley", "vardi", "bd"])
    p.add_argument("--t", type=finite_float)
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
    p.add_argument("--f", default="one", choices=WEIGHT_KINDS)
    p.add_argument("--eta", type=int, default=1)
    p.add_argument("--theta", type=int, default=5)
    p.add_argument("--b", type=int, default=1)
    p.add_argument("--c", type=int, default=1)
    p.set_defaults(func=cmd_constants)

    return parser


def _cannot_write(path: str, exc: OSError) -> int:
    print(f"cfq: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
    return 2


def _run(args, out) -> int:
    """Run the command, writing to out; domain and limit errors exit 3, 4,
    also when raised while a row is computed."""
    try:
        _write(out, *args.func(args))
        return 0
    except (CfqError, ValueError, ZeroDivisionError) as exc:
        print(f"cfq: {exc}", file=sys.stderr)
        return 4 if isinstance(exc, LimitExceeded) else 3


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
        return _cannot_write(args.output, exc)
    tmp = f"{args.output}.{os.getpid()}.tmp" if regular else None
    try:
        out = open(tmp, "x") if tmp else open(args.output, "w")
    except OSError as exc:
        return _cannot_write(args.output, exc)
    try:
        with out:
            code = _run(args, out)
        if tmp and code == 0:
            os.replace(tmp, args.output)
        return code
    except OSError as exc:
        return _cannot_write(args.output, exc)
    finally:
        if tmp:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)


def entry() -> NoReturn:
    """The process entry (``python -m cfq.cli`` and the ``cfq`` script).
    Once main has written its output, replaced an -o file and closed any
    worker pool, gc.freeze() lets the collection at exit skip the objects
    that die with the process; a library caller of main keeps collecting."""
    import gc
    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
