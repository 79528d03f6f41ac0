"""Traced run: per-layer metrics from spans around the program's functions.

The traced run executes the command lists of all four workloads in this
process (``cli.main`` into a StringIO, the exact-rational script through
its ``run`` function) with the library's public functions wrapped in
spans, plus a few direct probes (bare Euclid walk, Dedekind loop, Farey
enumeration, process start-up) and a check of the Euclid step count at the
ROADMAP baseline denominator.  Every traced run therefore reports the
same per-layer metrics at the seed's sizes.  Each of the selected
workload's own commands also runs once without spans, right before its
traced run; the summed difference is ``trace.overhead_s``.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import os
import statistics
import subprocess
import sys
import time
import traceback

import exact_script
from cfq import cli, dedekind, discrepancy, weight
from cfq.core import cf_digits
from cfq.farey import enumerate_farey
from tracer import Tracer
from workloads import (BASELINE_N, BIG_PRIMES, FAREY_Q, MENU_SIZE, WORKLOADS,
                       Command, check_workers, commands, parallel_range, phi)

reflect = importlib.import_module("cfq.reflect")  # cfq.reflect is a function

#: (owner, attribute, span name) of every public function timed.
TARGETS = (
    (cli, "scan", "ensemble.scan"),
    (cli, "digit_histogram", "ensemble.digit_histogram"),
    (cli, "min_max_quotient", "search.min_max_quotient"),
    (cli, "min_sum", "search.min_sum"),
    (cli, "zaremba_scan", "search.zaremba_scan"),
    (cli, "hensley_tail", "farey.hensley_tail"),
    (cli, "vardi_sample", "farey.vardi_sample"),
    (cli, "bd_tail", "farey.bd_tail"),
    (discrepancy.PointSet, "reduced_fractions",
     "discrepancy.reduced_fractions"),
    (discrepancy, "extreme_discrepancy", "discrepancy.extreme_discrepancy"),
    (discrepancy, "star_discrepancy", "discrepancy.star_discrepancy"),
    (discrepancy, "koksma_check", "discrepancy.koksma_check"),
    (discrepancy.StepFn, "variation", "discrepancy.variation"),
    (weight, "row_sum", "weight.row_sum"),
    (weight, "counting_identity_check", "weight.counting_identity_check"),
    (weight, "bijection_identity_check", "weight.bijection_identity_check"),
    (reflect, "verify_continuant_identity",
     "reflect.verify_continuant_identity"),
)

CACHES = (("prefix", weight.prefix_convergents),
          ("hits", weight._hits_at_fraction))


def span_name(cmd: Command) -> str:
    return f"{cmd.kind}.{cmd.key}"


def run_inprocess(cmd: Command) -> tuple[int, bytes]:
    """Run one command in this process; returns (exit code, stdout)."""
    check_workers(cmd)
    buf = io.StringIO()
    saved = os.environ.get("CFQ_WORKERS")
    os.environ["CFQ_WORKERS"] = str(cmd.workers)
    try:
        if cmd.kind == "script":
            for _, cache in CACHES:
                cache.cache_clear()
            exact_script.run(int(cmd.args[0]), cmd.args[1], buf)
            rc = 0
        else:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(list(cmd.args))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        # A crash is a failed command, as a non-zero exit is untraced.
        traceback.print_exc()
        rc = 1
    finally:
        if saved is None:
            del os.environ["CFQ_WORKERS"]
        else:
            os.environ["CFQ_WORKERS"] = saved
    return rc, buf.getvalue().encode()


def _walk(N: int) -> tuple[int, int]:
    fractions = steps = 0
    gcd = math.gcd
    for a in range(1, N):
        if gcd(a, N) == 1:
            fractions += 1
            steps += len(cf_digits(a, N))
    return fractions, steps


def _dedekind_loop(N: int) -> int:
    gcd, scaled = math.gcd, dedekind.dedekind_scaled
    return sum(scaled(a, N) for a in range(1, N) if gcd(a, N) == 1)


def _process_overhead(root: str, N: int, reps: int = 5) -> float:
    """Median CLI subprocess wall minus median in-process cli.main wall."""
    cmd = Command("overhead", "cli", ("dedekind", str(N), "2"), 1)
    sub, inproc = [], []
    for _ in range(reps):
        t = time.perf_counter()
        subprocess.run(cmd.argv(sys.executable), cwd=root, env=cmd.env(root),
                       capture_output=True, check=True, timeout=60)
        sub.append(time.perf_counter() - t)
        t = time.perf_counter()
        run_inprocess(cmd)
        inproc.append(time.perf_counter() - t)
    return statistics.median(sub) - statistics.median(inproc)


def _ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def traced_run(root: str, workload: str, seed: int, run_id: str, check,
               golden: dict) -> tuple[dict, Tracer, bool]:
    """Per-layer metrics of one traced run.

    ``check(cmd, rc, stdout)`` verifies a command's output against the
    golden digests; the Euclid step and Farey member counters are checked
    against the ones recorded in ``golden``.
    """
    own = commands(workload, seed)
    tracer = Tracer(workload, run_id)
    range_w1 = parallel_range(seed, 1)
    plan = [c for w in WORKLOADS for c in commands(w, seed)] + [range_w1]
    untraced_wall = 0.0
    out_bytes = 0
    # Cache hits and misses, summed over the script parts (each of which
    # starts with cleared caches).
    cache = {name: [0, 0] for name, _ in CACHES}
    for cmd in plan:
        if cmd in own:
            # The untraced twin runs right before the traced one, so that
            # both see the same machine load.
            t = time.perf_counter()
            check(cmd, *run_inprocess(cmd))
            untraced_wall += time.perf_counter() - t
        with tracer.patched(TARGETS), tracer.span(span_name(cmd)):
            rc, out = run_inprocess(cmd)
        if cmd.kind == "script":
            for name, fn in CACHES:
                info = fn.cache_info()
                cache[name][0] += info.hits
                cache[name][1] += info.misses
        else:
            out_bytes += len(out)
        check(cmd, rc, out)
    # Several commands may share a span name (the four discrepancy runs).
    traced_wall = sum(tracer.duration(name)
                      for name in {span_name(c) for c in own})

    i = seed % MENU_SIZE
    N, Q = BIG_PRIMES[i], FAREY_Q[i]
    with tracer.span("core.walk"):
        fractions, steps = _walk(N)
    with tracer.span("dedekind.scaled"):
        _dedekind_loop(N)
    with tracer.span("farey.enumerate"):
        members = sum(1 for _ in enumerate_farey(Q))
    overhead = _process_overhead(root, N)
    with tracer.span("core.baseline_walk"):
        baseline = _walk(BASELINE_N)
    # The recorded count is vardi's, which skips the one member with N = 2.
    want = (golden["euclid_steps"][str(N)],
            golden["counters"][f"dense-range/{i}"]["farey_members"] + 1,
            (phi(BASELINE_N), golden["euclid_steps"][str(BASELINE_N)]))
    got = (steps, members, baseline)
    counters_ok = got == want
    if not counters_ok:
        print(f"perfbench: COUNTER DRIFT (Euclid steps over Z_{N}*, members "
              f"of F_{Q}, (phi, Euclid steps) over Z_{BASELINE_N}*) = {got}, "
              f"recorded {want}", file=sys.stderr)

    st = tracer.self_time

    def under(name, key):
        return st(name, f"cli.{key}")

    scans = {s: under("ensemble.scan", f"scan_{s}")
             for s in ("S", "M", "L", "S_alt", "D", "M_w2", "D_w2",
                       "composite")}
    hist = under("ensemble.digit_histogram", "digit_histogram")
    hist_w2 = under("ensemble.digit_histogram", "digit_histogram_w2")
    walk = st("core.walk")
    scaled = st("dedekind.scaled")
    lo, hi = range_w1.args[2:4]
    n_range = int(hi) - int(lo) + 1
    m = {
        "core.walk_s": walk,
        "core.euclid_steps": steps,
        "core.fractions": fractions,
        "core.ns_per_step": walk / steps * 1e9,
        "ensemble.fold_s": scans["S"] - walk,
        "ensemble.digit_histogram_s": hist,
        "ensemble.digit_histogram_w2_s": hist_w2,
        "ensemble.w2_efficiency":
            (scans["M"] + scans["D"] + hist)
            / (2 * (scans["M_w2"] + scans["D_w2"] + hist_w2)),
        "ensemble.range_w1_per_N_ms":
            under("ensemble.scan", "range_w1") / n_range * 1e3,
        "ensemble.range_w2_per_N_ms":
            under("ensemble.scan", "range_w2") / n_range * 1e3,
        "dedekind.scaled_s": scaled,
        "dedekind.share_of_scan_D": scaled / scans["D"],
        "search.min_max_quotient_s": st("search.min_max_quotient"),
        "search.min_sum_s": st("search.min_sum"),
        "search.zaremba_s": st("search.zaremba_scan"),
        "farey.enumerate_s": st("farey.enumerate"),
        "farey.hensley_s": st("farey.hensley_tail"),
        "farey.vardi_s": st("farey.vardi_sample"),
        "farey.bd_s": st("farey.bd_tail"),
        "farey.members": members,
        "cli.format_s": sum(st(name) for name in
                            {span_name(c) for c in plan if c.kind == "cli"}),
        "cli.output_bytes": out_bytes,
        "cli.process_overhead_s": overhead,
        "discrepancy.reduced_fractions_s":
            st("discrepancy.reduced_fractions"),
        "discrepancy.extreme_s": st("discrepancy.extreme_discrepancy"),
        "discrepancy.star_s": st("discrepancy.star_discrepancy"),
        "discrepancy.koksma_s": st("discrepancy.koksma_check"),
        "discrepancy.variation_s": st("discrepancy.variation"),
        "weight.row_sum_s": st("weight.row_sum"),
        "weight.counting_identity_s": st("weight.counting_identity_check"),
        "weight.bijection_s": st("weight.bijection_identity_check"),
        "reflect.continuant_s": st("reflect.verify_continuant_identity"),
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    for s, v in scans.items():
        m[f"ensemble.scan_{s}_s"] = v
    for name, (hits, misses) in cache.items():
        m[f"weight.{name}_cache_hits"] = hits
        m[f"weight.{name}_cache_misses"] = misses
        m[f"weight.{name}_cache_hit_ratio"] = _ratio(hits, misses)
    return m, tracer, counters_ok
