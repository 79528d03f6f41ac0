import json
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from cfq.cli import main


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


@pytest.mark.parametrize("argv", [
    ["gk", "3", "--max-digit", "100000"],
    ["scan", "--range", "2", "3000", "--stat", "M"],
])
def test_reader_closing_stdout_exits_2(argv):
    # more output than a pipe holds, so the writer is still running when
    # the reader leaves after one line, as `| head -1` does
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.Popen([sys.executable, "-m", "cfq.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (2, b"")
