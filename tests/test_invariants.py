"""Internal invariants still raise when Python runs with -O."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

CASES = {
    "scan": "from cfq import ensemble\n"
            "ensemble.euler_phi = lambda N: N\n"
            "ensemble.scan(10, ensemble.StatSpec('S'))\n",
    "dedekind": "from cfq.dedekind import dedekind_scaled\n"
                "dedekind_scaled(2, 4)\n",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_invariant_raises_under_optimize(case):
    script = ("from cfq.errors import InvariantError\n"
              "assert False, 'asserts must be stripped'\n"
              "try:\n"
              + "".join("    " + line + "\n" for line in CASES[case].splitlines())
              + "except InvariantError:\n"
                "    print('raised')\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "raised\n"
