"""cfq benchmark: closed-loop CLI workloads over Z_N*, end to end, per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload zn-big --seed 0 --seconds 25 --trace 0

One client runs the workload's commands in order, each as a fresh
``python -m cfq.cli`` (or script) process, starting the next only when the
previous has finished.  After at least one full pass it keeps cycling
until ``--seconds`` have passed.  Every command's stdout must match the
golden digest recorded for its arguments, and the per-pass work counters
must match the recorded ones.

``--trace 0`` reports the end-to-end metrics of the untraced loop.  On a
shared 2-CPU VM, other tenants slow the CPUs by up to 1.75x in phases
that last from seconds to minutes, longer than a run.  So after every
command the loop also runs a reference job, a fixed pure-Python Euclid
loop in a fresh interpreter that does not touch the program, and the
time metrics are the workload's times in units of the reference job's:
``wall_ref`` is the sum over the commands of each one's median wall time,
divided by the reference job's median wall time in the same run, and
``cpu_ref`` is the same for user plus sys time.  Both slow down together
in a busy phase, so their ratio stays put while raw seconds do not; the
raw seconds are printed above the result line.
``--trace 1`` runs layers.py instead, one fixed pass whatever ``--seconds``
says, and reports per-layer metrics.  ``--record`` re-records golden.json
from the current program.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics (value and unit per metric).  failed/attempted is the fail ratio,
printed above it but kept out of the metrics because it is 0 when all is
well: a command fails if it exits non-zero or its stdout differs from
golden.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import (BASELINE_N, BIG_PRIMES, MENU_SIZE, WORKLOADS,
                       check_workers, commands, phi)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
OUT_DIR = HERE / "out"
#: A run must end within 180 s: no command starts after HARD_STOP_S and
#: any command still running at KILL_AT_S is killed and counted as failed;
#: the reference job and set-up sample that may follow it are killed after
#: AUX_TIMEOUT_S each.
HARD_STOP_S, KILL_AT_S, AUX_TIMEOUT_S = 150.0, 160.0, 8.0
#: Fresh interpreters started before the loop to measure setup_s (one
#: more follows each pass); the median is reported.
SETUP_REPS = 5

E2E_UNITS = {"setup_s": "s", "wall_ref": "ref", "cpu_ref": "ref",
             "fractions_per_ref": "fractions/ref", "peak_rss_mb": "MB"}

#: The reference job: Euclid's algorithm over a/60013, a < 60000, in pure
#: Python; it prints its step count, REFERENCE_STEPS.
REFERENCE_CODE = """\
steps = 0
for a in range(1, 60000):
    x, y = a, 60013
    while x:
        x, y = y % x, x
        steps += 1
print(steps)
"""
REFERENCE_STEPS = 584509


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("ns_per_step"):
        return "ns"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_ratio", "efficiency", "share_of_scan_D")):
        return "ratio"
    return "count"


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def src_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def euclid_steps(N: int) -> int:
    """Partial quotients over Z_N*, counted independently of the program."""
    steps = 0
    for a in range(1, N):
        num, den, n = a, N, 0
        while num:
            den, num = num, den % num
            n += 1
        if den == 1:
            steps += n
    return steps


class Checker:
    """Counts attempted and failed commands against the golden digests."""

    def __init__(self, golden: dict):
        self.outputs = golden["outputs"]
        self.attempted = 0
        self.failed = 0

    def __call__(self, cmd, rc, out: bytes, err: bytes = b"") -> bool:
        self.attempted += 1
        want = self.outputs.get(cmd.golden_key)
        if rc == 0 and want is not None and digest(out) == want["sha256"]:
            return True
        self.failed += 1
        why = (f"exit {rc}" if rc != 0 else
               "no golden digest" if want is None else
               f"stdout differs ({len(out)} bytes, golden {want['bytes']})")
        tail = err.decode(errors="replace").strip().splitlines()[-3:]
        print(f"perfbench: FAIL ({why}): {cmd.golden_key}"
              + "".join(f"\n    {line}" for line in tail), file=sys.stderr)
        return False


def run_subprocess(cmd, timeout: float):
    """(exit code, stdout, stderr, wall s, children's user+sys s)."""
    check_workers(cmd)
    r0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t = time.perf_counter()
    proc = subprocess.Popen(cmd.argv(sys.executable), cwd=ROOT,
                            env=cmd.env(str(ROOT)), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        err += b"\nkilled: time limit"
    wall = time.perf_counter() - t
    r1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (r1.ru_utime + r1.ru_stime) - (r0.ru_utime + r0.ru_stime)
    return proc.returncode, out, err, wall, cpu


def farey_members(cmd, out: bytes):
    if cmd.key == "farey_vardi":
        return json.loads(out)["count"]
    return None


def pass_counters(cmds, outs) -> dict:
    counters = {"fractions": sum(c.fractions for c in cmds),
                "output_bytes": sum(len(o) for o in outs)}
    for c, o in zip(cmds, outs):
        members = farey_members(c, o)
        if members is not None:
            counters["farey_members"] = members
    return counters


def start_interpreter() -> float:
    """Wall time of one fresh interpreter running ``import cfq.cli``."""
    t = time.perf_counter()
    # Pipes let the wait end at exit; a plain wait with a timeout polls
    # at up to 50 ms intervals.
    subprocess.run([sys.executable, "-c", "import cfq.cli"], cwd=ROOT,
                   env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                   check=True, timeout=AUX_TIMEOUT_S, capture_output=True)
    return time.perf_counter() - t


def reference_job() -> tuple[float, float]:
    """(wall s, user+sys s) of one run of the reference job."""
    r0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", REFERENCE_CODE], cwd=ROOT,
                         check=True, timeout=AUX_TIMEOUT_S,
                         capture_output=True).stdout
    wall = time.perf_counter() - t
    r1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    if out != f"{REFERENCE_STEPS}\n".encode():
        raise SystemExit(f"perfbench: the reference job printed {out!r}")
    return wall, (r1.ru_utime + r1.ru_stime) - (r0.ru_utime + r0.ru_stime)


def untraced(workload: str, seed: int, seconds: float, golden: dict,
             check: Checker, start: float):
    cmds = commands(workload, seed)
    want = golden["counters"][f"{workload}/{seed % MENU_SIZE}"]
    start_interpreter()  # the first start may write bytecode caches
    # More set-up samples follow each pass, so that the median spans the
    # whole run rather than one moment of machine load.
    setup = [start_interpreter() for _ in range(SETUP_REPS)]
    samples = [[] for _ in cmds]
    reference = []
    passes, outs = [], []
    t0 = time.perf_counter()
    i = 0
    while i < len(cmds) or (time.perf_counter() - t0 < seconds
                            and time.perf_counter() - start < HARD_STOP_S):
        k = i % len(cmds)
        rc, out, err, wall, cpu = run_subprocess(
            cmds[k], KILL_AT_S - (time.perf_counter() - start))
        check(cmds[k], rc, out, err)
        samples[k].append((wall, cpu))
        reference.append(reference_job())
        outs.append(out)
        if k == len(cmds) - 1:
            passes.append(pass_counters(cmds, outs))
            outs = []
            setup.append(start_interpreter())
        i += 1
    counters_ok = all(p == want for p in passes)
    if not counters_ok:
        print(f"perfbench: COUNTER DRIFT {passes} != recorded {want}",
              file=sys.stderr)
    wall = sum(statistics.median(w for w, _ in s) for s in samples)
    cpu = sum(statistics.median(c for _, c in s) for s in samples)
    ref_wall = statistics.median(w for w, _ in reference)
    ref_cpu = statistics.median(c for _, c in reference)
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {"setup_s": statistics.median(setup),
               "wall_ref": wall / ref_wall, "cpu_ref": cpu / ref_cpu,
               "fractions_per_ref": want["fractions"] * ref_wall / wall,
               "peak_rss_mb": rss_kb / 1024}
    print(f"perfbench: raw medians: wall {wall:.4f} s, cpu {cpu:.4f} s, "
          f"{want['fractions'] / wall:.6g} fractions/s; reference job "
          f"wall {ref_wall:.4f} s, cpu {ref_cpu:.4f} s")
    counters = dict(passes[0], passes=round(i / len(cmds), 2),
                    src_lines=src_lines())
    return metrics, E2E_UNITS, counters, counters_ok


def traced(workload: str, seed: int, golden: dict, check: Checker):
    import layers  # imports cfq, so only after the checkout is verified

    run_id = f"{workload}-{seed}-{os.getpid()}-{time.time_ns()}"
    metrics, tracer, counters_ok = layers.traced_run(
        str(ROOT), workload, seed, run_id, check, golden)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.dump(OUT_DIR / f"trace-{workload}.jsonl.gz")
    units = {name: layer_unit(name) for name in metrics}
    counters = {"euclid_steps": metrics["core.euclid_steps"],
                "fractions": metrics["core.fractions"],
                "farey_members": metrics["farey.members"],
                "spans": len(tracer.spans), "src_lines": src_lines()}
    return metrics, units, counters, counters_ok


def record() -> None:
    """Re-record golden.json: digests and counters for every menu entry."""
    golden = {"outputs": {}, "counters": {}, "euclid_steps": {},
              "src_lines": src_lines()}
    golden["euclid_steps"][str(BASELINE_N)] = euclid_steps(BASELINE_N)
    for i in range(MENU_SIZE):
        for workload in WORKLOADS:
            cmds = commands(workload, i)
            outs = []
            for cmd in cmds:
                rc, out, err, wall, _ = run_subprocess(cmd, 600.0)
                if rc != 0:
                    sys.exit(f"perfbench: {cmd.golden_key} exited {rc}:\n"
                             + err.decode(errors="replace"))
                outs.append(out)
                entry = {"sha256": digest(out), "bytes": len(out)}
                if golden["outputs"].setdefault(cmd.golden_key,
                                                entry) != entry:
                    sys.exit(f"perfbench: {cmd.golden_key}: output depends "
                             "on the worker count")
                print(f"{wall:7.2f}s  {cmd.golden_key}", flush=True)
            golden["counters"][f"{workload}/{i}"] = pass_counters(cmds, outs)
        N = BIG_PRIMES[i]
        golden["euclid_steps"][str(N)] = euclid_steps(N)
        print(f"phi({N}) = {phi(N)}, Euclid steps "
              f"{golden['euclid_steps'][str(N)]}", flush=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def main() -> int:
    start = time.perf_counter()
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="re-record golden.json from the current program")
    args = p.parse_args()
    if not (ROOT / "src" / "cfq" / "cli.py").is_file():
        print(f"perfbench: no cfq sources under {ROOT / 'src'}; run from "
              "the root of a cfq checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.record:
        record()
        return 0
    if args.workload is None:
        p.error("--workload is required")
    golden = json.loads(GOLDEN.read_text())
    check = Checker(golden)
    if args.trace:
        metrics, units, counters, counters_ok = traced(
            args.workload, args.seed, golden, check)
    else:
        metrics, units, counters, counters_ok = untraced(
            args.workload, args.seed, args.seconds, golden, check, start)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for name in sorted(metrics):
        print(f"  {name:34s} {metrics[name]:>16.6g} {units[name]}")
    print(f"  {'fail_ratio':34s} {check.failed / check.attempted:>16.6g} "
          f"({check.failed} of {check.attempted} commands)")
    print("counters " + json.dumps(counters, sort_keys=True))
    print(json.dumps({
        "correct": counters_ok and check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in sorted(metrics)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
