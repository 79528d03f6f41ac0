"""The contract of the immutable records, and what importing the CLI loads."""

import copy
import importlib
import os
import pickle
import pkgutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import cfq
from cfq.core import (ContinuedFraction, Record, ReducedFraction, WeightFn,
                      Window)
from cfq.discrepancy import DiscrepancyReport, PointSet, StepFn
from cfq.ensemble import EnsembleSummary, StatSpec
from cfq.errors import (BadRange, BadSpec, InvalidFraction, InvalidSpec,
                        InvalidWeight, InvalidWindow, LimitExceeded)
from cfq.farey import VardiReport
from cfq.reflect import ReflectionRecord
from cfq.search import ExtremalRecord
from cfq.theorems import TheoremConstants
from cfq.weight import IntervalQ

SRC = Path(__file__).resolve().parents[1] / "src"

# class -> (field names, one valid argument tuple,
#           [(bad arguments, error)], (shortest arguments, defaults))
RECORDS = {
    ReducedFraction: (
        ("a", "N"), (3, 7),
        [((4, 8), InvalidFraction), ((0, 7), InvalidFraction),
         ((1, 1), InvalidFraction), ((1, 1 << 62), LimitExceeded)],
        None),
    ContinuedFraction: (
        ("digits", "convergents"),
        ((1, 2, 3), ((0, 1), (1, 1), (2, 3), (7, 10))), [], None),
    Window: (
        ("eta", "theta"), (1, 5),
        [((0,), InvalidWindow), ((3, 2), InvalidWindow)],
        ((2,), {"theta": None})),
    WeightFn: (
        ("kind", "table", "table_start"),
        ("table", (Fraction(1, 2), Fraction(2)), 3),
        [(("cube",), InvalidWeight), (("table", ()), InvalidWeight),
         (("table", (-1, 0)), InvalidWeight),
         (("table", (2, 1)), InvalidWeight)],
        (("one",), {"table": None, "table_start": 1})),
    StatSpec: (
        ("kind", "b", "c", "f", "eta", "theta"), ("L", 1, 3),
        [(("X",), InvalidSpec), (("L", 3, 1), InvalidSpec),
         (("restricted",), InvalidSpec), (("S", 1), InvalidSpec),
         (("L", 1, 2, WeightFn.one()), InvalidSpec),
         (("restricted", None, None, WeightFn.one(), 3, 2), InvalidWindow)],
        (("S",), dict.fromkeys(("b", "c", "f", "eta", "theta")))),
    EnsembleSummary: (
        ("N", "phi", "spec", "count", "scale", "sum_scaled", "sumsq_scaled",
         "tail_counts", "counts", "center", "absolute"),
        (7, 6, StatSpec("S"), 6, 1, 30, 170, {1.0: 2}, {5: 2}, 0.0, False),
        [], None),
    TheoremConstants: (
        ("A", "B", "C", "D", "Dprime", "Xi", "mu"),
        (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7), [], None),
    PointSet: (
        ("scale", "values"), (7, (1, 2, 3)),
        [((0, ()), BadRange), ((7, (3, 1)), BadRange),
         ((7, (1, 8)), BadRange)], None),
    StepFn: (
        ("pieces", "_integral", "_support", "_variation", "_scaled"),
        (((IntervalQ(Fraction(1, 4), Fraction(1, 2), True, False),
           Fraction(2, 3)),),),
        [(([(IntervalQ(Fraction(1, 2), Fraction(3, 2), True, True), 1)],),
          BadSpec),
         (([((Fraction(0), Fraction(1)), 1)],), BadSpec)], None),
    DiscrepancyReport: (
        ("value", "witness"),
        (Fraction(1, 7), IntervalQ(Fraction(0), Fraction(1, 7), True, False)),
        [], None),
    IntervalQ: (
        ("lo", "hi", "lo_closed", "hi_closed"),
        (Fraction(1, 3), Fraction(1, 2), True, False),
        [((Fraction(1, 2), Fraction(1, 3), True, True), InvalidWindow),
         ((Fraction(1, 2), Fraction(1, 2), True, False), InvalidWindow)],
        None),
    VardiReport: (
        ("Q", "count", "probes", "empirical_cdf", "cauchy_cdf",
         "sup_distance"),
        (10, 30, (0.0,), (0.5,), (0.5,), 0.0), [], None),
    ReflectionRecord: (
        ("source", "image", "half"),
        (ReducedFraction(2, 7), ReducedFraction(3, 7), "lower"), [], None),
    ExtremalRecord: (
        ("N", "argmin_a", "min_value", "bound_value", "bound_holds"),
        (7, 1, 7, 2.5, False), [], None),
}


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda c: c.__name__)
def test_record_contract(cls):
    names, args, bad, defaults = RECORDS[cls]
    rec = cls(*args)
    # construction by position and by keyword, and defaults
    assert tuple(getattr(rec, n) for n in names[:len(args)]) == args
    assert cls(**dict(zip(names, args))) == rec
    if defaults is not None:
        short, values = defaults
        for made in (cls(*short), cls(**dict(zip(names, short)))):
            assert {n: getattr(made, n) for n in values} == values
            assert made == cls(*short, *values.values())
    # validation
    for bad_args, error in bad:
        with pytest.raises(error):
            cls(*bad_args)
    # no assignment, no deletion
    for n in names:
        with pytest.raises(AttributeError):
            setattr(rec, n, getattr(rec, n))
        with pytest.raises(AttributeError):
            delattr(rec, n)
    assert tuple(getattr(rec, n) for n in names[:len(args)]) == args
    # equality and hash by class and field values
    twin = cls(*args)
    assert twin == rec and not twin != rec and twin is not rec
    try:
        hash(rec)
    except TypeError:  # a field is a dict
        assert cls is EnsembleSummary
        with pytest.raises(TypeError):
            hash(twin)
    else:
        assert hash(twin) == hash(rec)
    assert rec != tuple(getattr(rec, n) for n in names)
    for other, (_, other_args, _, _) in RECORDS.items():
        if other is not cls:
            assert rec != other(*other_args)
    # repr
    assert repr(rec) == (f"{cls.__name__}("
                         + ", ".join(f"{n}={getattr(rec, n)!r}" for n in names)
                         + ")")
    # pickle and copy round trips
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(rec, protocol))
        assert type(back) is cls and back == rec
    assert copy.copy(rec) == rec and copy.deepcopy(rec) == rec


def _record_classes():
    for info in pkgutil.iter_modules(cfq.__path__):
        importlib.import_module(f"cfq.{info.name}")
    todo, found = [Record], []
    while todo:
        for sub in todo.pop().__subclasses__():
            found.append(sub)
            todo.append(sub)
    return found


def test_only_validating_records_write_their_own_constructor():
    # Record's generic __init__ builds every record; a record writes its
    # own only to validate its fields (StepFn also computes its invariants
    # there), and RECORDS then tests a bad case
    classes = _record_classes()
    assert set(classes) == set(RECORDS)
    own = {cls for cls in classes if "__init__" in vars(cls)}
    assert sorted(cls.__name__ for cls in own if not RECORDS[cls][2]) == []
    assert {cls.__name__ for cls in own} == {
        "ReducedFraction", "Window", "WeightFn", "StatSpec", "IntervalQ",
        "PointSet", "StepFn"}


def test_generic_constructor_binds_every_field_once():
    assert ContinuedFraction.__init__ is Record.__init__
    digits, table = RECORDS[ContinuedFraction][1]
    assert ContinuedFraction(digits, convergents=table) == ContinuedFraction(
        convergents=table, digits=digits)
    for args, kwargs in [((digits, table, 0), {}), ((digits,), {}),
                         ((), {"convergents": table}),
                         ((digits,), {"digits": digits, "convergents": table}),
                         ((digits, table), {"length": 3})]:
        with pytest.raises(TypeError):
            ContinuedFraction(*args, **kwargs)


def test_records_of_different_classes_with_equal_fields_differ():
    assert Window(2, 5) != ReducedFraction(2, 5)
    assert ReducedFraction(2, 5) != Window(2, 5)


def test_statspec_with_weight_pickles():
    spec = StatSpec("restricted", f=WeightFn.identity(), eta=1, theta=4)
    back = pickle.loads(pickle.dumps(spec))
    assert back == spec and hash(back) == hash(spec)
    assert back != StatSpec("restricted", f=WeightFn.square(), eta=1, theta=4)


def test_builtin_weight_ignores_table_start():
    # A built-in weight never reads table_start, so it does not tell two
    # weights, or two restricted specs, apart
    assert WeightFn("one", table_start=3) == WeightFn.one()
    assert hash(WeightFn("one", table_start=3)) == hash(WeightFn.one())
    specs = [StatSpec("restricted", f=f, eta=1, theta=4)
             for f in (WeightFn("identity", table_start=7),
                       WeightFn.identity())]
    assert specs[0] == specs[1] and hash(specs[0]) == hash(specs[1])


def test_cli_import_loads_no_class_generator():
    script = ("import sys\n"
              "bare = set(sys.modules)\n"
              "import cfq.cli\n"
              "print(sorted({'dataclasses', 'inspect'}\n"
              "             & (set(sys.modules) - bare)))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
