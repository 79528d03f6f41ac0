"""The lazy package: its public names, and the modules each process loads."""

import ast
import importlib
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import cfq
from cfq import cli

SRC = Path(__file__).resolve().parents[1] / "src"

# Every name `import cfq` has offered, by the submodule that defines it.
PUBLIC = {
    "core": "ContinuedFraction ReducedFraction WeightFn Window cf_digits "
            "convergents_of even_odd_sums expand restricted_sum stat_alt "
            "stat_count stat_max stat_sum",
    "dedekind": "dedekind_bh dedekind_direct dedekind_scaled "
                "reciprocity_check",
    "discrepancy": "DiscrepancyReport IntervalQ PointSet StepFn "
                   "extreme_discrepancy koksma_check "
                   "reduced_fraction_discrepancy star_discrepancy",
    "ensemble": "EnsembleSummary StatSpec digit_histogram euler_phi scan",
    "errors": "CfqError",
    "farey": "bd_tail enumerate_farey hensley_tail vardi_sample",
    "reflect": "reflect reflect_lower reflect_upper "
               "verify_continuant_identity",
    "search": "ExtremalRecord min_max_quotient min_sum zaremba_scan",
    "theorems": "TheoremConstants constants panov_mean_report thm_harness",
    "weight": "bijection_identity_check counting_identity_check "
              "interval_I interval_Iprime interval_left row_sum integral_row "
              "weight_eval weight_hits weight_step_pieces",
}
NAMES = [(module, name) for module, names in PUBLIC.items()
         for name in names.split()]

# The functions a traced benchmark run times by patching them on cfq.cli,
# each with a command that calls it.
PROBED = {
    "scan": ["scan", "101"],
    "digit_histogram": ["gk", "101"],
    "min_max_quotient": ["search", "--range", "2", "10"],
    "min_sum": ["search", "--range", "2", "10", "--min-stat", "S"],
    "zaremba_scan": ["search", "--zaremba", "5", "--range", "2", "10"],
    "hensley_tail": ["farey", "10"],
    "vardi_sample": ["farey", "10", "--law", "vardi"],
    "bd_tail": ["farey", "10", "--law", "bd"],
}

# Modules that some commands do not need: core every command but --help
# loads; ensemble scan, gk and farey; search only search; farey only
# farey; discrepancy only discrepancy; dedekind only D, expand and
# dedekind; theorems only constants; fractions (with the decimal and
# numbers it imports) only a command that builds a Fraction; json only a
# command that prints JSON.  No command loads reflect or weight.
WATCHED = ["cfq.core", "cfq.dedekind", "cfq.discrepancy", "cfq.ensemble",
           "cfq.farey", "cfq.reflect", "cfq.search", "cfq.theorems",
           "cfq.weight", "decimal", "fractions", "json", "numbers"]
EXACT = ["decimal", "fractions", "numbers"]
SCAN = ["cfq.core", "cfq.ensemble"]

def _fresh(script: str) -> str:
    """stdout of script run in a fresh interpreter that finds cfq in src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_public_names_come_from_their_modules():
    assert len(NAMES) == 57
    for module, name in NAMES:
        source = importlib.import_module(f"cfq.{module}")
        assert getattr(cfq, name) is getattr(source, name), name
        assert vars(cfq)[name] is getattr(source, name), name


def _reads(tree) -> Counter:
    """How often each name or attribute is read in tree."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def test_every_function_has_a_caller():
    # A module-level function of cfq is public, or src/cfq or perfbench/
    # reads it outside its own def: a reference path that only the tests
    # call belongs in the tests.  Dunder hooks are called by the interpreter.
    trees = {path: ast.parse(path.read_text())
             for folder in (SRC / "cfq", SRC.parent / "perfbench")
             for path in sorted(folder.glob("*.py"))}
    reads = sum(map(_reads, trees.values()), Counter())
    uncalled = [f"{path.stem}.{node.name}"
                for path, tree in trees.items() if path.parent.name == "cfq"
                for node in tree.body
                if isinstance(node, ast.FunctionDef)
                and node.name not in cfq.__all__
                and not node.name.startswith("__")
                and reads[node.name] == _reads(node)[node.name]]
    assert uncalled == []


def _readers(node, scope: str, name: str):
    """The qualified scope of each read of name, or of an attribute called
    name, under node."""
    for child in ast.iter_child_nodes(node):
        if name in (getattr(child, "id", None), getattr(child, "attr", None)):
            yield scope
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield from _readers(child, f"{scope}.{child.name}", name)
        else:
            yield from _readers(child, scope, name)


def _src_readers(name):
    """Sorted _readers of name over every module of src/cfq."""
    return sorted(scope for path in sorted((SRC / "cfq").glob("*.py"))
                  for scope in _readers(ast.parse(path.read_text()),
                                        path.stem, name))


def test_units_are_enumerated_in_one_place():
    # A range over Z_N* comes from core._units; math.gcd only tests one
    # number (weight_row_at each of its two candidate prefixes), and only
    # _unit_table and euler_phi factor N.
    assert _src_readers("gcd") == ["core.ReducedFraction.__init__",
                                   "dedekind.reciprocity_check",
                                   "weight._check_prefix",
                                   "weight.weight_row_at",
                                   "weight.weight_row_at"]
    # The Zaremba scan factors each N once for the blocks it sieves, and
    # every table of units is sieved by _units or the one orbit walk.
    assert _src_readers("_prime_factors") == ["core._unit_table",
                                              "ensemble.euler_phi",
                                              "search.zaremba_scan"]
    assert _src_readers("_unit_table") == ["core._units", "ensemble._orbits"]


def _euclid_loops():
    """The scope of each loop in src/cfq that takes a quotient u // v of two
    names and a remainder of the same pair, u % v or u - e * v, or both
    through divmod(u, v): a Euclid step."""
    found = set()
    for path in sorted((SRC / "cfq").glob("*.py")):
        for scope, loop in _loops(ast.parse(path.read_text()), path.stem):
            quotients, remainders = set(), set()
            for node in ast.walk(loop):
                if isinstance(node, ast.Call) and ast.unparse(
                        node.func) == "divmod" and all(
                        isinstance(arg, ast.Name) for arg in node.args):
                    pair = tuple(arg.id for arg in node.args)
                    quotients.add(pair)
                    remainders.add(pair)
                if not (isinstance(node, ast.BinOp)
                        and isinstance(node.left, ast.Name)):
                    continue
                right = node.right
                if isinstance(right, ast.Name) and isinstance(
                        node.op, (ast.FloorDiv, ast.Mod)):
                    (quotients if isinstance(node.op, ast.FloorDiv)
                     else remainders).add((node.left.id, right.id))
                if isinstance(node.op, ast.Sub) and isinstance(
                        right, ast.BinOp) and isinstance(right.op, ast.Mult):
                    remainders.update((node.left.id, factor.id)
                                      for factor in (right.left, right.right)
                                      if isinstance(factor, ast.Name))
            if quotients & remainders:
                found.add(scope)
    return sorted(found)


def _loops(node, scope):
    """(qualified scope, loop) for each for or while loop under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield from _loops(child, f"{scope}.{child.name}")
            continue
        if isinstance(child, (ast.For, ast.While)):
            yield scope, child
        yield from _loops(child, scope)


def test_scans_walk_in_one_place():
    # The scans' table-ended walk replaced the digit-list pairs of
    # _orbit_fn and _palindrome, and gk's digit mode of it replaced
    # _representatives, so ensemble walks no fraction with cf_walk.
    # Euclid steps are taken by cf_walk (one fraction's digits), the orbit
    # walk, its tail table, gk's tail pass (_digit_range hands each
    # entry's count to its first digit and its rest) and the two pruned
    # search walks; trial division and the Farey neighbours are no Euclid
    # step.  The table's size is one rule of N.  _map_ranges, the one
    # driver of scan and gk, builds the table before it forks, merges the
    # ranges and checks that they visited phi(N) members.
    from cfq import ensemble
    for name in ("_orbit_fn", "_palindrome", "_representatives",
                 "_visited_phi"):
        assert not hasattr(ensemble, name), name
    assert [scope for scope in _src_readers("euler_phi")
            if scope.startswith("ensemble")] == ["ensemble._map_ranges"]
    assert _src_readers("_map_ranges") == ["ensemble.digit_histogram",
                                           "ensemble.scan"]
    assert [scope for scope in _src_readers("cf_walk")
            if scope.startswith("ensemble")] == []
    assert _euclid_loops() == ["core.cf_walk", "ensemble._digit_range",
                               "ensemble._orbits", "ensemble._tail_table",
                               "search._max_digit_below", "search._sum_below"]
    assert _src_readers("_tail_size") == ["ensemble._tails_for"]
    assert _src_readers("_tail_table") == ["ensemble._tails_for"]
    assert _src_readers("_tails_for") == ["ensemble._digit_range",
                                          "ensemble._map_ranges",
                                          "ensemble._orbits"]
    # a_r is read as N // a*, so no table keeps a last digit
    for spec in (None, ensemble.StatSpec("M"), ensemble.StatSpec("S_alt"),
                 ensemble.StatSpec("L", b=1, c=2)):
        assert "last" not in ensemble._tails_for(1009, spec), spec


def test_scan_tails_have_one_rule():
    # ensemble._fold alone tests a tail: no code outside ensemble reads a
    # histogram's counts or asks scan for one, and in farey only _tails
    # calls scan.
    assert {scope.split(".")[0] for scope in _src_readers("counts")} == {
        "ensemble"}
    for path in sorted((SRC / "cfq").glob("*.py")):
        if path.stem != "ensemble":
            keywords = {node.arg for node in ast.walk(
                ast.parse(path.read_text())) if isinstance(node, ast.keyword)}
            assert "with_histogram" not in keywords, path.stem
    assert [scope for scope in _src_readers("scan")
            if scope.startswith("farey")] == ["farey._tails"]


def test_command_output_has_one_writer():
    # A command returns its format and records; cli._write alone turns them
    # into bytes, and no command is handed the output stream.
    tree = ast.parse(Path(cli.__file__).read_text())
    for name in ("write", "dumps", "json"):
        assert set(_readers(tree, "cli", name)) == {"cli._write"}, name
    params = {node.name: [a.arg for a in ast.walk(node.args)
                          if isinstance(a, ast.arg)]
              for node in tree.body if isinstance(node, ast.FunctionDef)
              and node.name.startswith("cmd_")}
    assert len(params) == 8
    assert params == dict.fromkeys(params, ["args"])


def test_tail_columns_are_labelled_in_one_place():
    # cli.py formats a tail@t label once, in cmd_scan, whose duplicate check
    # and rows all read it; its one other mention is the scan help text.
    tree = ast.parse(Path(cli.__file__).read_text())
    mentions = [(scope.name, type(node).__name__)
                for scope in tree.body if isinstance(scope, ast.FunctionDef)
                for node in ast.walk(scope)
                for child in ast.iter_child_nodes(node)
                if isinstance(child, ast.Constant)
                and "tail@" in str(child.value)]
    assert mentions == [("cmd_scan", "JoinedStr"), ("build_parser", "keyword")]


def test_cli_lists_no_kind_names():
    # The statistic and weight kinds live in errors, and cli's choices read
    # those tuples; the one list of kind names cli.py writes is the two
    # minima that search --min-stat offers.
    from cfq import ensemble, errors
    assert ensemble.STAT_KINDS is errors.STAT_KINDS
    kinds = set(errors.STAT_KINDS) | set(errors.WEIGHT_KINDS)
    tree = ast.parse(Path(cli.__file__).read_text())
    lists = [[getattr(elt, "value", None) for elt in node.elts]
             for node in ast.walk(tree)
             if isinstance(node, (ast.List, ast.Tuple))
             and kinds & {getattr(elt, "value", None) for elt in node.elts}]
    assert lists == [["S", "M"]]


def test_lazy_names_resolve_through_the_package_table():
    # cli's stand-ins name only the function; the package's _EXPORTS table
    # alone says which module defines it.
    tree = ast.parse(Path(cli.__file__).read_text())
    [on_call] = [node for node in tree.body
                 if isinstance(node, ast.FunctionDef)
                 and node.name == "_on_call"]
    assert [a.arg for a in on_call.args.args] == ["name"]
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "_on_call"]
    assert sorted(node.args[0].value for node in calls) == sorted(PROBED)
    assert all(len(node.args) == 1 for node in calls)


def _scoped(node, scope):
    """(qualified scope, node) for each expression node under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield from _scoped(child, f"{scope}.{child.name}")
            continue
        if isinstance(child, ast.expr):
            yield scope, child
        yield from _scoped(child, scope)


def test_pi_squared_and_gauss_mass_are_written_once():
    # core owns PI2 and gauss_mass, ln(1 + 1/(m (m+2))); the one other
    # 1/(m (m+2)) is gk's pinned log2 target in digit_histogram.
    def written(expression):
        return sorted(scope for path in sorted((SRC / "cfq").glob("*.py"))
                      for scope, node in _scoped(ast.parse(path.read_text()),
                                                 path.stem)
                      if re.fullmatch(expression, ast.unparse(node)))

    assert written(r"math\.pi \*\* 2") == ["core"]
    assert written(r"1 / \((\w+) \* \(\1 \+ 2\)\)") == [
        "core.gauss_mass", "ensemble.digit_histogram"]


def test_every_slotted_class_is_a_record():
    # A class that names its fields in __slots__ is a core.Record, built
    # whole through Record.__init__, so none writes to itself once built.
    from cfq.core import Record
    slotted = [(path.stem, node.name)
               for path in sorted((SRC / "cfq").glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ClassDef)
               and any(isinstance(stmt, ast.Assign)
                       and "__slots__" in map(ast.unparse, stmt.targets)
                       for stmt in node.body)]
    assert ("discrepancy", "StepFn") in slotted
    assert [(module, name) for module, name in slotted
            if not issubclass(getattr(importlib.import_module(
                f"cfq.{module}"), name), Record)] == []


def test_cli_builds_the_scan_spec_in_one_call():
    # scan hands every window option to one StatSpec call, which refuses
    # those its statistic does not read.
    tree = ast.parse(Path(cli.__file__).read_text())
    [call] = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
              and getattr(node.func, "id", None) == "StatSpec"]
    assert {kw.arg for kw in call.keywords} == {"b", "c", "f", "eta",
                                                "theta"}


def test_all_and_dir_list_the_public_names():
    names = {name for _, name in NAMES}
    assert set(cfq.__all__) == names
    assert names <= set(dir(cfq))
    assert cfq.__version__ == "0.1.0"


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cfq.no_such_name


@pytest.mark.parametrize("module, name, value", [
    ("ensemble", "SCAN_LIMIT", 10 ** 8),
    ("ensemble", "HISTOGRAM_LIMIT", 10 ** 5),
    ("search", "SEARCH_LIMIT", 10 ** 7),
    ("farey", "FAREY_LIMIT", 10 ** 4),
    ("discrepancy", "DISCREPANCY_LIMIT", 10 ** 6),
    ("dedekind", "DIRECT_LIMIT", 10 ** 6),
])
def test_limits_keep_their_module_names(module, name, value):
    errors = importlib.import_module("cfq.errors")
    assert getattr(importlib.import_module(f"cfq.{module}"), name) == value
    assert getattr(errors, name) == value


def test_from_import_still_gives_the_submodules():
    from cfq import discrepancy, weight
    assert discrepancy is sys.modules["cfq.discrepancy"]
    assert weight is sys.modules["cfq.weight"]


@pytest.mark.parametrize("first", [
    "importlib.import_module('cfq.reflect')",
    "import cfq.reflect",
    "import cfq; cfq.reflect",
])
def test_cfq_reflect_stays_the_function(first):
    out = _fresh("import importlib, sys\n"
                 f"{first}\n"
                 "import cfq\n"
                 "module = importlib.import_module('cfq.reflect')\n"
                 "print(callable(cfq.reflect), cfq.reflect is module.reflect,\n"
                 "      module is sys.modules['cfq.reflect'])\n")
    assert out == "True True True\n"


def test_importing_cli_loads_no_command_only_module():
    out = _fresh("import sys\n"
                 "import cfq\n"
                 "print(sorted(m for m in sys.modules if m.startswith('cfq.')))\n"
                 "import cfq.cli\n"
                 "print(sorted(set(sys.modules) & set(%r)))\n"
                 "print(sorted(m for m in sys.modules if m.startswith('cfq.')))\n"
                 % WATCHED)
    assert out == "[]\n[]\n['cfq.cli', 'cfq.errors']\n"


@pytest.mark.parametrize("argv, loaded", [
    (["--help"], []),
    (["scan", "101", "--stat", "S"], [*SCAN, "json"]),
    (["gk", "101"], SCAN),
    (["search", "--range", "2", "10"], ["cfq.core", "cfq.search"]),
    (["farey", "10"], [*SCAN, "cfq.farey", "json"]),
    (["discrepancy", "6"], ["cfq.core", "cfq.discrepancy", *EXACT, "json"]),
    (["expand", "10", "7"], ["cfq.core", "cfq.dedekind", *EXACT, "json"]),
    (["dedekind", "10", "3"], ["cfq.core", "cfq.dedekind", *EXACT, "json"]),
    (["scan", "101", "--stat", "D", "--t", "1"],
     [*SCAN, "cfq.dedekind", "json"]),
    (["scan", "--range", "3", "20", "--stat", "M", "--format", "csv"], SCAN),
    (["scan", "101", "--stat", "L", "--b", "1", "--c", "2", "--format",
      "csv"], SCAN),
    (["scan", "101", "--stat", "S_alt", "--format", "csv"], SCAN),
    (["scan", "101", "--stat", "restricted", "--eta", "2", "--format",
      "csv"], SCAN),
    (["search", "--zaremba", "5", "--range", "2", "10"],
     ["cfq.core", "cfq.search", "json"]),
    (["farey", "10", "--law", "vardi"],
     [*SCAN, "cfq.dedekind", "cfq.farey", "json"]),
    (["farey", "10", "--law", "bd"], [*SCAN, "cfq.farey", "json"]),
    (["constants"], ["cfq.core", "cfq.theorems", "json"]),
    (["search", "--min-stat", "S", "--range", "2", "10"],
     ["cfq.core", "cfq.search"]),
])
def test_command_loads_only_what_it_runs(argv, loaded):
    out = _fresh("import runpy, sys\n"
                 f"sys.argv = ['cfq', *{argv!r}]\n"
                 "try:\n"
                 "    runpy.run_module('cfq.cli', run_name='__main__')\n"
                 "except SystemExit as exc:\n"
                 "    assert exc.code == 0, exc.code\n"
                 "print(sorted(set(sys.modules) & set(%r)))\n" % WATCHED)
    assert out.splitlines()[-1] == str(sorted(loaded))


@pytest.mark.parametrize("name", sorted(PROBED))
def test_cli_calls_the_names_patched_on_it(monkeypatch, capsys, name):
    real = vars(cli)[name]
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, name, counting)
    assert cli.main(PROBED[name]) == 0
    assert calls
    assert capsys.readouterr().out


def test_probed_names_load_their_module_when_called():
    # Each probed name is cli's own function, whose module import cfq.cli
    # does not load; its first call loads it without rebinding the name, so
    # a probe patched on cli after that call still sees the later calls.
    out = _fresh("import contextlib, io, sys\n"
                 "from cfq import cli\n"
                 f"PROBED = {PROBED!r}\n"
                 "assert not {'cfq.ensemble', 'cfq.farey', 'cfq.search'}"
                 " & set(sys.modules)\n"
                 "for name, argv in sorted(PROBED.items()):\n"
                 "    real = vars(cli)[name]\n"
                 "    assert real.__module__ == 'cfq.cli', name\n"
                 "    with contextlib.redirect_stdout(io.StringIO()):\n"
                 "        assert cli.main(argv) == 0\n"
                 "    assert vars(cli)[name] is real, name\n"
                 "    calls = []\n"
                 "    def probe(*args, **kwargs):\n"
                 "        calls.append(args)\n"
                 "        return real(*args, **kwargs)\n"
                 "    cli.__dict__[name] = probe\n"
                 "    with contextlib.redirect_stdout(io.StringIO()):\n"
                 "        assert cli.main(argv) == 0\n"
                 "    cli.__dict__[name] = real\n"
                 "    assert calls, name\n"
                 "    print(name)\n")
    assert out.split() == sorted(PROBED)


def test_console_script_takes_the_process_entry():
    # the cfq script runs what `python -m cfq.cli` runs; Python 3.10 has
    # no tomllib, so the target is read with a regex
    text = (SRC.parent / "pyproject.toml").read_text()
    found = re.search(r'^\[project\.scripts\]\ncfq = "cfq\.cli:(\w+)"$',
                      text, re.M)
    assert found, "no cfq = \"cfq.cli:NAME\" under [project.scripts]"
    tree = ast.parse(Path(cli.__file__).read_text())
    blocks = [node.body for node in tree.body if isinstance(node, ast.If)
              and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert [[ast.unparse(stmt) for stmt in body] for body in blocks] == [
        [f"{found[1]}()"]]
    assert callable(getattr(cli, found[1]))
