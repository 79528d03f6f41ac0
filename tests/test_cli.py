import contextlib
import csv
import gc
import hashlib
import io
import json
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from cfq import cli
from cfq.cli import main
from cfq.errors import CfqError, LimitExceeded


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_expand(capsys):
    code, out, _ = run(capsys, "expand", "10", "7")
    assert code == 0
    rec = json.loads(out)
    assert rec["digits"] == [1, 2, 3]
    assert rec["S"] == 6 and rec["M"] == 3 and rec["S_alt"] == -2
    assert rec["D"] == "0/1"
    assert rec["convergents"][-1] == [7, 10]


def test_expand_trivial(capsys):
    code, out, _ = run(capsys, "expand", "9", "1")
    assert code == 0
    assert json.loads(out)["digits"] == [9]


def test_expand_domain_error(capsys):
    code, _, err = run(capsys, "expand", "10", "4")
    assert code == 3
    assert "gcd" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["expand", "ten", "7"])
    assert exc.value.code == 2


def test_scan_json(capsys):
    code, out, _ = run(capsys, "scan", "10", "--stat", "S")
    assert code == 0
    rec = json.loads(out)
    assert rec["mean"] == 8.0 and rec["phi"] == 4


def test_scan_trivial(capsys):
    code, out, _ = run(capsys, "scan", "2", "--stat", "S")
    assert json.loads(out)["mean"] == 2.0


def test_scan_csv_columns(capsys):
    code, out, _ = run(capsys, "scan", "10", "--stat", "S",
                       "--format", "csv", "--t", "1,2")
    lines = out.strip().splitlines()
    assert lines[0] == "N,phi,stat,mean,variance,tail@1,tail@2"
    assert lines[1].startswith("10,4,S,8.0,")


def test_scan_range_streams(capsys):
    code, out, _ = run(capsys, "scan", "--range", "3", "6", "--stat", "M")
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert [json.loads(l)["N"] for l in lines] == [3, 4, 5, 6]


@pytest.mark.parametrize("argv, name", [
    (["scan", "--range", "3", "6"], "scan"),
    (["search", "--range", "2", "6"], "min_max_quotient"),
])
def test_range_output_streams(monkeypatch, argv, name):
    # The rows written when each N is computed: the row of N is out before
    # N + 1 is computed, so a range holds one row at a time, not all of them.
    real = vars(cli)[name]
    out = io.StringIO()
    seen = []

    def rows():
        return sum(not line.startswith("N,")
                   for line in out.getvalue().splitlines())

    def probe(N, *args, **kwargs):
        seen.append((N, rows()))
        return real(N, *args, **kwargs)

    monkeypatch.setattr(cli, name, probe)
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    lo, hi = int(argv[2]), int(argv[3])
    assert seen == [(N, N - lo) for N in range(lo, hi + 1)]
    assert rows() == hi - lo + 1


# The bytes each subcommand writes, so a change to the output rule or to a
# command's records shows here and not only in the benchmark's digests.
PINNED = {
    "expand 10 7":
        '{"D": "0/1", "M": 3, "N": 10, "S": 6, "S_alt": -2, "a": 7, '
        '"convergents": [[0, 1], [1, 1], [2, 3], [7, 10]], '
        '"digits": [1, 2, 3]}\n',
    "dedekind 3 1":
        '{"D": "1/18", "D_decimal": 0.05555555555555555, "N": 3, "a": 1}\n',
    "discrepancy 6 --lo 1/7 --hi 5/7":
        '{"N": 6, "range": "[1/7, 5/7]", "value": "23/42", '
        '"value_decimal": 0.5476190476190477, "witness": "(1/6, 5/7)"}\n',
    "constants --f identity --eta 1 --theta 2":
        '{"A": 0.6361934551785612, "B": 1.636193455178561, '
        '"C": 6.111746730406448, "D": 1.840717637075881, '
        '"Dprime": 2.045241818973201, "Xi": 2.0, "b": 1, "c": 1, "eta": 1, '
        '"f": "identity", "mu": 0.3497794571219426, "theta": 2}\n',
    "scan 11 --stat D --t 0.1":
        '{"N": 11, "mean": 0.0, "phi": 10, "stat": "D", "tail@0.1": 0.1, '
        '"variance": 0.12107438016528925}\n',
    "scan --range 5 8 --stat L --b 1 --c 2 --format csv":
        "N,phi,stat,mean,variance\n"
        '5,4,"L[1,2]",1.5,1.25\n'
        '6,2,"L[1,2]",0.5,0.25\n'
        '7,6,"L[1,2]",1.3333333333333333,0.8888888888888888\n'
        '8,4,"L[1,2]",2.0,2.5\n',
    "search --range 2 8 --min-stat S":
        "N,argmin,min,bound,margin\n"
        "2,1,2,inf,-inf\n"
        "3,1,3,0.12562460857803964,2.8743753914219603\n"
        "4,1,4,0.5505524408331667,3.4494475591668334\n"
        "5,2,4,0.9312316753284733,3.0687683246715265\n"
        "6,1,6,1.2705076814174492,4.729492318582551\n"
        "7,2,5,1.575078808374472,3.424921191625528\n"
        "8,3,5,1.8509651776541085,3.1490348223458913\n",
    "search --range 2 8 --min-stat M":
        "N,argmin,min,bound,margin\n"
        "2,1,2,2.0794415416798357,-0.07944154167983575\n"
        "3,2,2,3.295836866004329,-1.2958368660043291\n"
        "4,3,3,4.1588830833596715,-1.1588830833596715\n"
        "5,2,2,4.828313737302301,-2.8283137373023006\n"
        "6,5,5,5.375278407684165,-0.3752784076841653\n"
        "7,5,2,5.8377304471659395,-3.8377304471659395\n"
        "8,3,2,6.238324625039507,-4.238324625039507\n",
    "search --zaremba 1 --range 2 8":
        '{"K": 1, "range": [2, 8], "without_witness": [2, 3, 4, 5, 6, 7, 8]}'
        "\n",
    "farey 6 --law hensley":
        '{"Q": 6, "fraction": 0.7, "law": "hensley", '
        '"limit": 0.4555216517453543, "t": 2.0}\n',
    "farey 6 --law vardi":
        '{"Q": 6, "cauchy_cdf": [0.07797913037736925, 0.14758361765043326, '
        "0.25, 0.35241638234956674, 0.5, 0.6475836176504333, 0.75, "
        '0.8524163823495667, 0.9220208696226307], "count": 10, '
        '"empirical_cdf": [0.0, 0.0, 0.0, 0.3, 0.6, 0.7, 1.0, 1.0, 1.0], '
        '"law": "vardi", "probes": [-4.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, '
        '2.0, 4.0], "sup_distance": 0.25}\n',
    "farey 6 --law bd":
        '{"Q": 6, "fraction": 0.8, "law": "bd", "t": 2.0, '
        '"t_times_fraction": 1.6}\n',
    "gk 11 --max-digit 3":
        "m,freq,target,diff\n"
        "1,0.5443215290774458,0.41503749927884376,0.12928402979860204\n"
        "2,0.34638642759473826,0.16992500144231237,0.17646142615242588\n"
        "3,0.14845132611203066,0.09310940439148145,0.055341921720549206\n",
}


@pytest.mark.parametrize("argv", sorted(PINNED))
def test_output_bytes_are_pinned(capsys, argv):
    assert run(capsys, *argv.split()) == (0, PINNED[argv], "")


# SHA-256 of each --help text at COLUMNS=80, keyed by subcommand ("" for
# cfq --help).  argparse lays help out differently across Python versions
# (3.10 heads the options "optional arguments:", 3.13 prints
# "-o, --output OUTPUT"), so the digests are those of Python 3.11.
HELP = {
    "": "480007ea363c7ca7212737e23ba0237d232bd3247d9a9118e8ffc20db656a2f6",
    "expand":
        "b671ed995fddff38bfc06fbccf0152e2594d34deb0a1c5ac41c6ae37881ba523",
    "scan": "12087368d755944778a97046dead2e8842de85ff3c834a752bd3c44797168722",
    "dedekind":
        "6af70c94a71bea3826cbab17044f3de93d16019bab42018f16c8bfeda3d3f41b",
    "discrepancy":
        "f521323373fcbfb2223bd625fcdffbcac6f569aa009357c0eb53ea61135a943d",
    "search":
        "4c80700a901d7165d0f2015909e6f5bdd6934a97412eba1b93c888e2cce641c6",
    "farey":
        "7eabdbca7313ebb2a6343d4d1fadfd21c303bfbac06d4a04cada1ead5d65570c",
    "gk": "e2506906b98b3e71d39bf2f0a7c254e212ad8229b051c8b74b48afe76086a2c4",
    "constants":
        "28ac9d9e7d5ff0986ded3fdda000deb1046bf18b655baf3c5773ea3b45ccf5dd",
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="the digests are of Python 3.11's argparse layout")
@pytest.mark.parametrize("command", sorted(HELP))
def test_help_bytes_are_pinned(monkeypatch, capsys, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([*command.split(), "--help"])
    out = capsys.readouterr()
    assert (exc.value.code, out.err) == (0, "")
    assert hashlib.sha256(out.out.encode()).hexdigest() == HELP[command]


def test_scan_negative_thresholds_after_equals(capsys):
    # argparse reads "-1,0" after "--t" as an option; "--t=" passes it on
    code, out, _ = run(capsys, "scan", "4", "--stat", "M", "--format", "csv",
                       "--t=-1,0")
    assert code == 0
    assert out.splitlines()[0] == "N,phi,stat,mean,variance,tail@-1,tail@0"
    with pytest.raises(SystemExit) as exc:
        main(["scan", "4", "--stat", "M", "--t", "-1,0"])
    assert exc.value.code == 2
    assert "--t: expected one argument" in capsys.readouterr().err


def test_scan_requires_one_target(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["scan", "5", "--range", "3", "6"])
    assert exc.value.code == 2


def test_scan_limit_exit_code(capsys):
    code, _, err = run(capsys, "scan", str(1 << 62), "--stat", "S")
    assert code == 4


def test_dedekind(capsys):
    code, out, _ = run(capsys, "dedekind", "3", "1")
    rec = json.loads(out)
    assert rec["D"] == "1/18"


def test_discrepancy(capsys):
    code, out, _ = run(capsys, "discrepancy", "6")
    rec = json.loads(out)
    assert rec["value"] == "2/3"


def test_search_rows(capsys):
    code, out, _ = run(capsys, "search", "--min-stat", "M",
                       "--range", "2", "100")
    lines = out.strip().splitlines()
    assert lines[0] == "N,argmin,min,bound,margin"
    assert len(lines) == 1 + 99


def test_search_zaremba(capsys):
    code, out, _ = run(capsys, "search", "--zaremba", "5",
                       "--range", "2", "100")
    assert json.loads(out)["without_witness"] == []


def test_farey(capsys):
    code, out, _ = run(capsys, "farey", "50", "--law", "hensley", "--t", "2")
    rec = json.loads(out)
    assert abs(rec["limit"] - 0.4555) < 1e-3


def test_gk_rows(capsys):
    code, out, _ = run(capsys, "gk", "1000", "--max-digit", "5")
    lines = out.strip().splitlines()
    assert lines[0] == "m,freq,target,diff"
    assert len(lines) == 6


def test_constants(capsys):
    code, out, _ = run(capsys, "constants", "--f", "identity",
                       "--eta", "1", "--theta", "2")
    rec = json.loads(out)
    assert abs(rec["B"] - (rec["A"] + 1)) < 1e-12


def test_workers_do_not_change_output(capsys):
    _, out1, _ = run(capsys, "scan", "1009", "--stat", "D", "--t", "2,4",
                     "--workers", "1")
    _, out8, _ = run(capsys, "scan", "1009", "--stat", "D", "--t", "2,4",
                     "--workers", "8")
    assert out1 == out8
    _, out1, _ = run(capsys, "scan", "--range", "2", "40", "--format", "csv",
                     "--t", "1,2", "--workers", "1")
    _, out8, _ = run(capsys, "scan", "--range", "2", "40", "--format", "csv",
                     "--t", "1,2", "--workers", "8")
    assert out1 == out8


def test_output_file(tmp_path, capsys):
    path = tmp_path / "out.json"
    code = main(["-o", str(path), "expand", "10", "7"])
    assert code == 0
    assert json.loads(path.read_text())["S"] == 6


def test_output_file_not_regular(tmp_path, capsys):
    # a FIFO at PATH is written through, not replaced by a regular file
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()),
                              daemon=True)
    reader.start()
    code = main(["-o", str(fifo), "expand", "10", "7"])
    reader.join(timeout=10)
    assert code == 0
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert json.loads(got[0])["S"] == 6
    assert [p.name for p in tmp_path.iterdir()] == ["out.fifo"]


@pytest.mark.parametrize("max_digit", ["-3", "0"])
def test_gk_rejects_nonpositive_max_digit(capsys, max_digit):
    code, out, err = run(capsys, "gk", "100", "--max-digit", max_digit)
    assert code == 3
    assert out == ""
    assert "m_max" in err


@pytest.mark.parametrize("argv, code, message", [
    (["scan", "--range", "5", "3"], 2, "LO <= HI"),
    (["search", "--range", "9", "3"], 2, "LO <= HI"),
    (["search", "--zaremba", "5", "--range", "9", "3"], 2, "LO <= HI"),
    (["search", "--zaremba", "0", "--range", "2", "5"], 3, "K >= 1"),
    (["scan", "101", "--t", "x"], 2, "--t"),
    (["discrepancy", "100", "--lo", "abc"], 2, "--lo"),
    (["discrepancy", "100", "--hi", "1/0"], 2, "--hi"),
    (["scan", "101", "--stat", "L"], 2, "--b and --c"),
    (["gk", "101", "--max-digit", str(10 ** 15)], 4, "m_max"),
    (["discrepancy", str(10 ** 15)], 4, "N = 1000000"),
    (["farey", str(10 ** 15)], 4, "Q = 10000"),
    (["scan", str(10 ** 15)], 4, "N = 100000000"),
    (["scan", "--range", "2", str(10 ** 12)], 4, "N = 100000000"),
    (["scan", "--range", str(-10 ** 12), "5"], 4, "100000000 values of N"),
    (["gk", str(10 ** 15)], 4, "N = 100000000"),
    (["search", "--range", "10000001", "10000002"], 4, "N = 10000000"),
    (["search", "--min-stat", "S", "--range", "1", "3"], 3, "N >= 2"),
    (["scan", "101", "--workers", "0"], 2, "--workers"),
    (["scan", "101", "--workers", "-5"], 2, "--workers"),
    (["gk", "101", "--workers", "0"], 2, "--workers"),
    (["farey", "10", "--t", "nan"], 2, "--t"),
    (["farey", "10", "--t", "inf"], 2, "--t"),
    (["farey", "10", "--t", "-inf"], 2, "--t"),
    (["farey", "10", "--t", "1e400"], 2, "--t"),
    (["scan", "10", "--t", "nan,inf"], 2, "--t"),
    (["scan", "10", "--t", "1,-inf"], 2, "--t"),
    (["constants", "--theta", str(10 ** 8)], 4, "100000 digits"),
    (["constants", "--c", str(10 ** 8)], 4, "100000 digits"),
    (["scan", "10", "--t", "2,2", "--format", "csv"], 2, "--t"),
    (["scan", "10", "--t", "2,2.0000001"], 2, "--t"),
    (["scan", "10", "--t", "0,-0", "--format", "csv"], 2, "--t"),
    (["scan", "101", "--stat", "restricted"], 2, "--eta"),
    (["search", "--zaremba", "5", "--range", "2", "10000001"], 4,
     "N = 10000000"),
])
def test_bad_input_exit_codes(capsys, argv, code, message):
    try:
        got = main(argv)
    except SystemExit as exc:
        got = exc.code
    out = capsys.readouterr()
    assert got == code
    assert out.out == ""
    assert message in out.err


@pytest.mark.parametrize("argv, message", [
    (["scan", "101", "--b", "0", "--eta", "-5", "--f", "square"],
     "S takes no b, f, eta"),
    (["scan", "101", "--stat", "M", "--c", "2"], "M takes no c"),
    (["scan", "101", "--stat", "S_alt", "--theta", "3"],
     "S_alt takes no theta"),
    (["scan", "--range", "3", "5", "--stat", "D", "--f", "one", "--format",
      "csv"], "D takes no f"),
    (["scan", "101", "--stat", "L", "--b", "1", "--c", "2", "--eta", "1"],
     "L takes no eta"),
    (["scan", "101", "--stat", "restricted", "--eta", "2", "--c", "9"],
     "restricted takes no c"),
])
def test_scan_refuses_window_options_its_statistic_does_not_read(
        tmp_path, capsys, argv, message):
    # A window option is checked only by the statistic that reads it, so
    # given for another one it is refused, whatever its value.
    assert run(capsys, *argv) == (3, "", f"cfq: {message}\n")
    path = tmp_path / "out.txt"
    path.write_text("earlier\n")
    assert run(capsys, "-o", str(path), *argv) == (3, "",
                                                   f"cfq: {message}\n")
    assert path.read_text() == "earlier\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


@pytest.mark.parametrize("argv, message", [
    (["search", "--min-stat", "S", "--zaremba", "5", "--range", "2", "10"],
     "search: --min-stat does not apply to --zaremba"),
    (["farey", "10", "--law", "vardi", "--t", "7"],
     "farey: --t does not apply to --law vardi"),
], ids=["search-min-stat-zaremba", "farey-t-vardi"])
def test_options_a_mode_does_not_read_are_usage_errors(tmp_path, capsys,
                                                       argv, message):
    # --zaremba reads no --min-stat and vardi no --t, so either is refused
    # before anything is written, to stdout or to an existing -o FILE
    path = tmp_path / "out.txt"
    path.write_text("earlier\n")
    for prefix in ([], ["-o", str(path)]):
        with pytest.raises(SystemExit) as exc:
            main(prefix + argv)
        assert exc.value.code == 2
        assert tuple(capsys.readouterr()) == ("", f"cfq {message}\n")
    assert path.read_text() == "earlier\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


@pytest.mark.parametrize("stat, window", [
    ("S", []), ("M", []), ("L", ["--b", "1", "--c", "2"]), ("S_alt", []),
    ("D", []), ("restricted", ["--eta", "2", "--theta", "5"]),
    ("restricted", ["--eta", "1", "--f", "square"]),
])
def test_scan_csv_rows_have_the_header_fields(capsys, stat, window):
    argv = ["scan", "--range", "5", "9", "--stat", stat, *window, "--t", "1"]
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0
    header, *rows = csv.reader(io.StringIO(out))
    assert header == ["N", "phi", "stat", "mean", "variance", "tail@1"]
    assert len(rows) == 5 and all(len(row) == len(header) for row in rows)
    # the stat field reads back as the label the JSON record gives
    code, out, _ = run(capsys, *argv)
    assert [row[2] for row in rows] == [json.loads(line)["stat"]
                                        for line in out.splitlines()]


@pytest.mark.parametrize("error, code", [
    (CfqError("a domain error"), 3),
    (LimitExceeded("a size limit"), 4),
    (ValueError("a bad value"), 3),
    (ZeroDivisionError("a zero divisor"), 3),
])
def test_errors_exit_with_their_codes(monkeypatch, capsys, error, code):
    # _run maps each error a command raises, here while its first row is
    # computed, to one exit code and one stderr line, and writes no row.
    def failing_scan(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "scan", failing_scan)
    assert run(capsys, "scan", "101") == (code, "", f"cfq: {error}\n")


@pytest.mark.parametrize("value", ["abc", "-2", "0"])
@pytest.mark.parametrize("argv", [["scan", "101"], ["gk", "101"]])
def test_bad_worker_variable(monkeypatch, capsys, argv, value):
    monkeypatch.setenv("CFQ_WORKERS", value)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    assert exc.value.code == 2
    assert out.out == ""
    assert f"cfq {argv[0]}: CFQ_WORKERS: " in out.err
    # only the commands with workers read the variable
    code, out, _ = run(capsys, "expand", "10", "7")
    assert code == 0 and json.loads(out)["S"] == 6


@pytest.mark.parametrize("argv, code", [
    (["scan", "--range", "5", "3"], 2),
    (["expand", "10", "4"], 3),
])
def test_output_file_survives_rejected_command(tmp_path, capsys, argv, code):
    path = tmp_path / "out.txt"
    path.write_text("earlier\n")
    try:
        got = main(["-o", str(path)] + argv)
    except SystemExit as exc:
        got = exc.code
    assert got == code
    assert path.read_text() == "earlier\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_unwritable_output_path(tmp_path, capsys):
    missing = tmp_path / "missing_dir" / "out.txt"
    # checked before the command runs, so a failing command also exits 2
    for argv in (["scan", "101"], ["expand", "10", "4"]):
        code, out, err = run(capsys, "-o", str(missing), *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"cfq: cannot write {missing}: ")
    assert not missing.parent.exists()
    # a directory as PATH passes the check and fails when written
    code, out, err = run(capsys, "-o", str(tmp_path), "expand", "10", "7")
    assert (code, out) == (2, "")
    assert err.startswith(f"cfq: cannot write {tmp_path}: ")
    # no temporary file is left next to PATH or in the directory
    assert list(tmp_path.iterdir()) == []
    assert [p.name for p in tmp_path.parent.iterdir()
            if p.name.startswith(tmp_path.name)] == [tmp_path.name]


def _src_env():
    """The environment with src/ first on PYTHONPATH, for a fresh cfq."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


@pytest.mark.parametrize("argv", [
    ["gk", "3", "--max-digit", "100000"],
    ["scan", "--range", "2", "3000", "--stat", "M"],
])
def test_reader_closing_stdout_exits_2(argv):
    # more output than a pipe holds, so the writer is still running when
    # the reader leaves after one line, as `| head -1` does
    proc = subprocess.Popen([sys.executable, "-m", "cfq.cli", *argv],
                            env=_src_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (2, b"")


def test_discrepancy_huge_range_denominator_exits_4():
    # 100002 points rescaled to a denominator of about 26,600 bits: refused
    # before the sweep rescales them, so the process stays small
    argv = ["discrepancy", "100003", "--lo", f"1/{10 ** 4000 + 7}",
            "--hi", f"3/{10 ** 4000 + 9}"]
    proc = subprocess.run([sys.executable, "-m", "cfq.cli", *argv],
                          env=_src_env(), capture_output=True, text=True,
                          timeout=60)
    assert (proc.returncode, proc.stdout) == (4, "")
    assert proc.stderr == ("cfq: discrepancy sweep capped at 64000000 bits, "
                           "got 100002 points of 26593 bits once rescaled\n")


def test_discrepancy_result_past_the_print_digits_exits_4(tmp_path):
    # inside the sweep's bit budget, but the value has a denominator of
    # 7999 digits, past Python's int-to-string bound of 4300: refused
    # before anything is written, so an existing output file is kept
    path = tmp_path / "out.txt"
    path.write_text("earlier\n")
    argv = ["discrepancy", "2003", "--lo", f"1/{10 ** 3999 + 9}",
            "--hi", f"1/{10 ** 3999 + 7}"]
    for out in ([], ["-o", str(path)]):
        proc = subprocess.run([sys.executable, "-m", "cfq.cli", *out, *argv],
                              env=_src_env(), capture_output=True, text=True,
                              timeout=60)
        assert (proc.returncode, proc.stdout) == (4, "")
        assert proc.stderr == ("cfq: discrepancy prints numerators and "
                               "denominators of at most 4300 digits\n")
    assert path.read_text() == "earlier\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


@pytest.mark.parametrize("argv, code", [
    (["scan", "101"], 0),
    (["-o", "OUT", "scan", "101"], 0),
    (["expand", "10", "4"], 3),
])
def test_main_leaves_collection_alone(tmp_path, capsys, argv, code):
    # only the process entry freezes the heap before exit; a library
    # caller of main keeps normal collection
    argv = [str(tmp_path / "out.json") if a == "OUT" else a for a in argv]
    before = gc.get_freeze_count()
    assert main(argv) == code
    assert gc.get_freeze_count() == before


def _process(argv):
    """Exit code, stdout and stderr of a fresh `python -m cfq.cli`."""
    proc = subprocess.run([sys.executable, "-m", "cfq.cli", *argv],
                          env=_src_env(), capture_output=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def _in_process(capsys, argv):
    """The same three for main called in this process."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out.encode(), out.err.encode()


@pytest.mark.parametrize("argv, code", [
    # more output than a 64 KiB pipe buffer holds
    (["scan", "--range", "2", "2000", "--format", "csv"], 0),
    (["--help"], 0),
    (["expand", "ten", "7"], 2),
    (["expand", "10", "4"], 3),
    (["scan", str(10 ** 15)], 4),
    # the fork path
    (["scan", "10007", "--stat", "D", "--t", "1", "--workers", "2"], 0),
])
def test_process_matches_in_process(monkeypatch, capsys, argv, code):
    # the process entry freezes the heap before the interpreter exits; its
    # exit code, stdout and stderr stay those of main called in-process
    monkeypatch.setenv("COLUMNS", "80")  # the --help width, both ways
    got = _in_process(capsys, argv)
    assert got[0] == code
    assert (bool(got[1]), bool(got[2])) == (code == 0, code != 0)
    if "--range" in argv:
        assert len(got[1]) > 1 << 16
    assert _process(argv) == got


def test_process_output_file_matches_in_process(tmp_path, capsys):
    argv = ["scan", "--range", "2", "300", "--format", "csv"]
    assert main(["-o", str(tmp_path / "main.csv"), *argv]) == 0
    assert capsys.readouterr() == ("", "")
    assert _process(["-o", str(tmp_path / "proc.csv"), *argv]) == (0, b"", b"")
    assert ((tmp_path / "proc.csv").read_bytes()
            == (tmp_path / "main.csv").read_bytes())
    # no FILE.<pid>.tmp is left next to either file
    assert sorted(p.name for p in tmp_path.iterdir()) == ["main.csv",
                                                          "proc.csv"]
