"""A grammar-driven robustness test of the CLI.

Each example draws a subcommand of build_parser() and, for each of its
options, a value or none.  Every value is tagged: VALID lies in the
documented domain; BAD lies outside it (0, negatives, nan, inf, 1/0, empty
strings, repeated thresholds, reversed ranges, unknown choices, a missing
-o directory, an option that its mode does not read: a scan window option
that its statistic does not read, search --min-stat with --zaremba, farey
--t with --law vardi);
OVER is just above a size limit of cfq.errors or core.MAX_DENOMINATOR.
Valid sizes stay small (N at most 2000, --workers 1 or 2), so no example
does real work, and a value over a limit is refused before any work is
done.  main runs in-process and must:
- exit 0, 2, 3 or 4, with no exception other than SystemExit escaping;
- on a non-zero exit, write nothing to stdout and leave -o FILE as it was;
- on exit 0, write at least one line, and only JSON objects if the first
  line is one, else CSV rows with as many fields as their header;
- not exit 0 when a value is BAD or OVER, nor exit 4 when all are VALID;
- exit 2 or 4 when a value is OVER and none is BAD.
"""

import argparse
import contextlib
import csv
import io
import json
import math
import os
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from cfq import cli
from cfq.core import MAX_DENOMINATOR
from cfq.errors import (DISCREPANCY_LIMIT, FAREY_LIMIT, HISTOGRAM_LIMIT,
                        SCAN_LIMIT, SEARCH_LIMIT, STAT_KINDS, WEIGHT_KINDS)

VALID, BAD, OVER = "valid", "bad", "over"

#: Hostile tokens: integers below most domains, and tokens that are not
#: integers at all.
HOSTILE = (("0", "-1", "-7"), ("", "x", "1.5", "nan", "inf", "1/0"))

[SUBCOMMANDS] = [action.choices for action in cli.build_parser()._actions
                 if isinstance(action, argparse._SubParsersAction)]


def _actions(command):
    return [action for action in SUBCOMMANDS[command]._actions
            if not isinstance(action, argparse._HelpAction)]


def _within(token, lo, hi):
    try:
        return lo <= int(token) <= hi
    except ValueError:
        return False


def _size(draw, lo, hi, limit=None):
    """([token], tags): mostly VALID in [lo, hi]; else BAD, lo - 1 or a
    hostile token, as often an integer as not; else, given a limit, OVER it
    by one."""
    kind = draw(st.sampled_from([VALID] * 6 + [BAD] + [OVER] * bool(limit)))
    if kind == VALID:
        return [str(draw(st.integers(lo, hi)))], {VALID}
    if kind == OVER:
        return [str(limit + 1)], {OVER}
    numbers, others = HOSTILE
    pool = draw(st.sampled_from([(str(lo - 1), *numbers), others]))
    return [draw(st.sampled_from([t for t in pool
                                  if not _within(t, lo, hi)]))], {BAD}


def _token(draw, valid, bad):
    """([token], tags): mostly a VALID token of valid, else a BAD one."""
    if draw(st.integers(0, 5)):
        return [draw(st.sampled_from(valid))], {VALID}
    return [draw(st.sampled_from(bad))], {BAD}


def _pair(draw, lo, hi, limit):
    """LO HI of a --range, now and then reversed, which is BAD; HI alone
    can be OVER."""
    (first,), tags = _size(draw, lo, hi)
    (second,), more = _size(draw, lo, hi, limit)
    if tags == more == {VALID}:
        first, second = sorted((first, second), key=int,
                               reverse=not draw(st.integers(0, 3)))
        if first != second and int(first) > int(second):
            more = {BAD}
    return [first, second], tags | more


def _fraction(draw):
    """N a of expand and dedekind: BAD unless a is in Z_N*; N = 2^62 is
    the first denominator over core.MAX_DENOMINATOR's limit."""
    N, tags = _size(draw, 2, 2000, MAX_DENOMINATOR - 1)
    a, more = _size(draw, 1, 2000)
    if tags == more == {VALID}:
        n, k = int(N[0]), int(a[0])
        if k >= n or math.gcd(n, k) != 1:
            more = {BAD}
    return N + a, tags | more


def _ends(draw):
    """--lo and --hi of discrepancy, each left at its default or not: BAD
    unless 0 <= lo < hi <= 1.  OVER is a range whose discrepancy has a
    numerator or denominator of more than PRINT_DIGITS_LIMIT digits."""
    if not draw(st.integers(0, 5)):  # a length of 7999 digits
        return [f"--lo=1/{10 ** 3999 + 9}", f"--hi=1/{10 ** 3999 + 7}"], {OVER}
    tokens, values = [], []
    for flag, default in (("--lo", "0"), ("--hi", "1")):
        [text], _ = _token(draw, ("0", "1/3", "1/2", "2/3", "1", None),
                           ("-1/2", "3/2", "1/0", "abc", "", "nan"))
        if text is not None:
            tokens.append(f"{flag}={text}")
        try:
            values.append(Fraction(default if text is None else text))
        except (ValueError, ZeroDivisionError):
            return tokens, {BAD}
    lo, hi = values
    return tokens, {VALID if 0 <= lo < hi <= 1 else BAD}


def _target(draw):
    """N or --range LO HI of scan: BAD when both or neither is given."""
    kind = draw(st.sampled_from(["N"] * 4 + ["range"] * 3 + ["both", None]))
    N, tags = _size(draw, 2, 2000, SCAN_LIMIT)
    lo_hi, more = _pair(draw, 2, 12, SCAN_LIMIT)
    if kind == "N":
        return N, tags
    if kind == "range":
        return ["--range", *lo_hi], more
    return (N + ["--range", *lo_hi] if kind else []), {BAD}


def _window(low, high):
    """Both ends of a constants window or neither, since each has a
    default: BAD unless 1 <= low <= high; OVER when high - low + 1 is one
    above HISTOGRAM_LIMIT."""
    def draw_window(draw):
        if draw(st.booleans()):
            return [], {VALID}
        (lo,), tags = _size(draw, 1, 30)
        (hi,), more = _size(draw, 1, 30)
        if not draw(st.integers(0, 4)):
            hi = str((int(lo) if tags == {VALID} else 1) + HISTOGRAM_LIMIT)
            more = {OVER}
        elif tags == more == {VALID} and int(hi) < int(lo):
            more = {BAD}
        return [f"{low}={lo}", f"{high}={hi}"], tags | more
    return draw_window


THRESHOLDS = (("", "2", "1,2", "-1", "0", "4,1,2", "0.5,-0.5"),
              ("nan", "1,-inf", "1e400", "2,2", "0,-0", "2,2.0000001", "x",
               "1,,2"))


#: The window options of scan that each statistic reads; S, M, S_alt and
#: D read none.
READS = {"L": ("b", "c"), "restricted": ("f", "eta", "theta")}


def _statistic(draw):
    """--stat of scan, left at its default S or not, and its window
    options, each given or not.  A window option given for a statistic
    that does not read it is BAD, whatever its value.  A window end is
    checked only by its statistic, so any integer end is VALID."""
    [stat], tags = _token(draw, (None, *STAT_KINDS), ("bogus", ""))
    tokens = [] if stat is None else [f"--stat={stat}"]
    reads = READS.get(stat or "S", ())
    for dest in ("b", "c", "f", "eta", "theta"):
        # given in 4 of 6 draws if stat reads it, else in 1 of 6
        if draw(st.integers(0, 5)) >= (4 if dest in reads else 1):
            continue
        [value], more = (_token(draw, WEIGHT_KINDS, ("bogus", ""))
                         if dest == "f" else
                         _token(draw, ("-7", "0", "1", "2", "12"),
                                HOSTILE[1]))
        tokens.append(f"--{dest}={value}")
        tags |= more if dest in reads else {BAD}
    return tokens, tags


def _unread(mode, mode_fill, option, option_fill, unread):
    """A mode option and an option that only some modes read, each given
    or not: the option given with a mode value for which unread(value)
    holds (None when the mode is left at its default) is BAD, whatever its
    value."""
    def draw_pair(draw):
        tokens, tags, values = [], set(), {}
        for flag, fill in ((mode, mode_fill), (option, option_fill)):
            if draw(st.integers(0, 2)):
                [values[flag]], more = fill(draw)
                tokens.append(f"{flag}={values[flag]}")
                tags |= more
        if option in values and unread(values.get(mode)):
            tags.add(BAD)
        return tokens, tags
    return draw_pair


#: The values of each option that is not a choice or --workers, by command
#: and the dests it fills.
SLOTS = {
    "expand": {("N", "a"): _fraction},
    "dedekind": {("N", "a"): _fraction},
    "scan": {("N", "range"): _target,
             ("t",): lambda d: _token(d, *THRESHOLDS),
             ("stat", "b", "c", "f", "eta", "theta"): _statistic},
    "discrepancy": {("N",): lambda d: _size(d, 2, 300, DISCREPANCY_LIMIT),
                    ("lo", "hi"): _ends},
    "search": {("range",): lambda d: _pair(d, 2, 40, SEARCH_LIMIT),
               ("min_stat", "zaremba"): _unread(
                   "--zaremba", lambda d: _size(d, 1, 6), "--min-stat",
                   lambda d: _token(d, ("S", "M"), ("bogus", "")),
                   lambda zaremba: zaremba is not None)},
    "farey": {("Q",): lambda d: _size(d, 3, 30, FAREY_LIMIT),
              ("law", "t"): _unread(
                  "--law", lambda d: _token(d, ("hensley", "vardi", "bd"),
                                            ("bogus", "")),
                  "--t", lambda d: _token(d, ("2", "0.5", "3.7"),
                                          ("nan", "inf", "-inf", "1e400",
                                           "x", "")),
                  lambda law: law == "vardi")},
    "gk": {("N",): lambda d: _size(d, 3, 2000, SCAN_LIMIT),
           ("max_digit",): lambda d: _size(d, 1, 20, HISTOGRAM_LIMIT)},
    "constants": {("eta", "theta"): _window("--eta", "--theta"),
                  ("b", "c"): _window("--b", "--c")},
}


def _slot(command, action):
    """(dests, draw function) of the slot that fills action."""
    for dests, fill in SLOTS[command].items():
        if action.dest in dests:
            return dests, fill
    if action.choices:
        return (action.dest,), lambda d: _token(d, tuple(action.choices),
                                                ("bogus", ""))
    assert action.dest == "workers", (command, action.dest)
    return (action.dest,), lambda d: _size(d, 1, 2)


@st.composite
def _cases(draw):
    """(argv, tags) for one drawn subcommand."""
    command = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    argv, tags, done = [command], set(), set()
    for action in _actions(command):
        dests, fill = _slot(command, action)
        if dests[0] in done:
            continue
        done.update(dests)
        optional = ((action.option_strings and not action.required)
                    or action.nargs == "?")
        if optional and len(dests) == 1 and not draw(st.integers(0, 2)):
            continue
        tokens, more = fill(draw)
        if action.option_strings and len(dests) == 1:
            flag = action.option_strings[-1]
            tokens = ([flag, *tokens] if action.nargs == 2
                      else [f"{flag}={tokens[0]}"])
        argv += tokens
        tags |= more
    if not draw(st.integers(0, 31)):
        argv.append("--bogus")
        tags.add(BAD)
    return argv, tags


def test_every_subcommand_and_option_has_a_slot():
    assert sorted(SUBCOMMANDS) == sorted(SLOTS)
    for command in SUBCOMMANDS:
        for action in _actions(command):
            _slot(command, action)


def _main(argv):
    """(exit code, stdout, stderr) of cli.main called in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# Past defects, each once ended in exit 0, a traceback, the wrong code or
# CSV rows with more fields than their header.
@example(case=(["gk", "100", "--max-digit=-3"], {BAD}), output=None)
@example(case=(["gk", "100", "--max-digit=0"], {BAD}), output=None)
@example(case=(["scan", "--range", "5", "3"], {BAD}), output="file")
@example(case=(["search", "--range", "9", "3"], {BAD}), output=None)
@example(case=(["search", "--zaremba=0", "--range", "2", "5"], {BAD}),
         output=None)
@example(case=(["scan", "10", "--t=0,-0", "--format=csv"], {BAD}),
         output=None)
@example(case=(["expand", "10", "4"], {BAD}), output="file")
@example(case=(["discrepancy", "7", f"--lo=1/{10 ** 3999 + 9}",
                f"--hi=1/{10 ** 3999 + 7}"], {OVER}), output="file")
@example(case=(["scan", "101", "--b=0", "--eta=-5", "--f=square"], {BAD}),
         output="file")
@example(case=(["scan", "101", "--stat=L", "--b=1", "--c=2", "--theta=3"],
                {BAD}), output=None)
@example(case=(["scan", "7", "--stat=restricted", "--eta=2", "--c=9"],
                {BAD}), output=None)
@example(case=(["search", "--min-stat=S", "--zaremba=5", "--range", "2",
                "10"], {BAD}), output="file")
@example(case=(["farey", "10", "--law=vardi", "--t=7"], {BAD}), output=None)
@example(case=(["scan", "--range", "5", "7", "--stat=L", "--b=1", "--c=2",
                "--format=csv"], {VALID}), output=None)
@settings(max_examples=300, deadline=None)
@given(case=_cases(), output=st.sampled_from([None] * 4 + ["file"] * 3
                                              + ["missing"]))
def test_cli_exits_cleanly_on_drawn_argv(case, output):
    argv, tags = case
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ):
        os.environ.pop("CFQ_WORKERS", None)
        path = Path(tmp, "out.txt")
        if output == "file":
            path.write_text("earlier\n")
        elif output == "missing":
            path = Path(tmp, "missing", "out.txt")
            tags = tags | {BAD}
        code, out, err = _main(["-o", str(path), *argv] if output else argv)
        written = path.read_text() if path.is_file() else None
        left = sorted(p.name for p in Path(tmp).iterdir())
    assert code in (0, 2, 3, 4), (code, err)
    assert left == (["out.txt"] if written is not None else [])
    if code:
        assert out == ""
        assert written == ("earlier\n" if output == "file" else None)
    else:
        text = written if output else out
        assert text and (output is None or out == "")
        if text.startswith("{"):
            assert all(isinstance(json.loads(line), dict)
                       for line in text.splitlines())
        else:
            header, *rows = csv.reader(io.StringIO(text))
            assert all(len(row) == len(header) for row in rows), text
    if tags & {BAD, OVER}:
        assert code != 0, argv
    else:
        assert code != 4, (argv, err)
    if OVER in tags and BAD not in tags:
        assert code in (2, 4), (argv, code, err)
