"""Exact statistics of partial quotients of reduced fractions a/N.

Every public name is loaded on first use: reading ``cfq.scan`` imports
``cfq.ensemble`` then, so a process compiles only the modules it runs.
"""

import sys
from importlib import import_module

#: Submodule -> the public names it defines.
_EXPORTS = {
    "core": ("ContinuedFraction", "ReducedFraction", "WeightFn", "Window",
             "cf_digits", "convergents_of", "even_odd_sums", "expand",
             "restricted_sum", "stat_alt", "stat_count", "stat_max",
             "stat_sum"),
    "dedekind": ("dedekind_bh", "dedekind_direct", "dedekind_scaled",
                 "reciprocity_check"),
    "discrepancy": ("DiscrepancyReport", "IntervalQ", "PointSet", "StepFn",
                    "extreme_discrepancy", "koksma_check",
                    "reduced_fraction_discrepancy", "star_discrepancy"),
    "ensemble": ("EnsembleSummary", "StatSpec", "digit_histogram",
                 "euler_phi", "scan"),
    "errors": ("CfqError",),
    "farey": ("bd_tail", "enumerate_farey", "hensley_tail", "vardi_sample"),
    "reflect": ("reflect", "reflect_lower", "reflect_upper",
                "verify_continuant_identity"),
    "search": ("ExtremalRecord", "min_max_quotient", "min_sum",
               "zaremba_scan"),
    "theorems": ("TheoremConstants", "constants", "panov_mean_report",
                 "thm_harness"),
    "weight": ("bijection_identity_check", "counting_identity_check",
               "interval_I", "interval_Iprime", "interval_left", "row_sum",
               "integral_row", "weight_eval", "weight_hits",
               "weight_step_pieces"),
}

_SOURCE = {name: module for module, names in _EXPORTS.items()
           for name in names}

__all__ = sorted(_SOURCE)

__version__ = "0.1.0"


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


class _Package(type(sys)):
    """The import system binds each submodule it loads on its package, which
    would make ``cfq.reflect`` the module; keep it the function."""

    def __setattr__(self, name, value):
        if name == "reflect" and isinstance(value, type(sys)):
            value = value.reflect
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
