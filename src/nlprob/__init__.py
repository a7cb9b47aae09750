"""Exact imprecise probability on finite outcome spaces.

A credal set is a finite, ordered family of probability measures on a
finite outcome space, held as one weight matrix. Everything downstream is
exact, by enumeration or in closed form: capacity envelopes, sublinear and
Choquet expectations, dependence sweeps, and a deterministic Monte Carlo
laboratory for weighted strong laws under adversarial measure selection.

Importing the package loads none of its modules: each public name loads
the module that defines it when it is first read (PEP 562).
"""

import importlib as _importlib

__version__ = "0.1.0"

# every public name, by the module that defines it
_EXPORTS = {
    "capacity": ("all_events", "capacity_axiom_report"),
    "config": ("AdversaryStrategy", "ExperimentConfig", "SimulationSettings",
               "bundled_strategies", "parse_config", "parse_document",
               "sequence_model_from_document"),
    "core": ("CredalSet", "RandomVariable", "credal_set_from_rows"),
    "dependence": ("binomial_pair_model", "check_negative_association",
                   "check_vertical_independence", "exp_product_bound_gap",
                   "forward_factorization_value"),
    "errors": ("ChainViolationError", "ConfigError", "ConfigParseError",
               "ConfigValidationError", "NlprobError", "OracleTooLargeError",
               "ScheduleInvalidError"),
    "expectation": ("ExpectationBounds", "choquet_expectation",
                    "expectation_chain", "inequality_suite",
                    "lower_expectation", "sublinear_axiom_report",
                    "upper_expectation"),
    "functions": ("AbsPower", "Affine", "Clamp", "Exp", "MaxAffine",
                  "Polynomial", "ScalarFunction", "TestFunction"),
    "models": ("SequenceModel",),
    "reports": ("CheckResult",),
    "simulate": ("ExperimentResult", "SamplePath", "normalized_partial_sums",
                 "run_slln_experiment", "sample_grid", "sample_path"),
    "slln": ("TruncationParams", "WeightSchedule", "elementary_exp_bound_check",
             "exp_moment_bound", "make_schedule", "truncate",
             "truncation_params", "validate_schedule"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later reads find it without this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
