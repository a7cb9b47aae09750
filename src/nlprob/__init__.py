"""Exact imprecise probability on finite outcome spaces.

A credal set is a finite, ordered family of probability measures on a
finite outcome space, held as one weight matrix. Everything downstream is
exact, by enumeration or in closed form: capacity envelopes, sublinear and
Choquet expectations, dependence sweeps, and a deterministic Monte Carlo
laboratory for weighted strong laws under adversarial measure selection.
"""

import types as _types

__version__ = "0.1.0"

from .capacity import all_events, capacity_axiom_report
from .config import ExperimentConfig, SimulationSettings, parse_config
from .core import CredalSet, RandomVariable, credal_set_from_rows
from .dependence import (
    TestFamily,
    TestFunction,
    binomial_pair_model,
    check_negative_association,
    check_vertical_independence,
    default_families,
    exp_product_bound_gap,
    forward_factorization_value,
)
from .errors import (
    ChainViolationError,
    ConfigError,
    ConfigParseError,
    ConfigValidationError,
    NlprobError,
    OracleTooLargeError,
    ScheduleInvalidError,
    UnboundedPhiError,
)
from .expectation import (
    ExpectationBounds,
    choquet_expectation,
    expectation_chain,
    inequality_suite,
    lower_expectation,
    sublinear_axiom_report,
    upper_expectation,
)
from .functions import (
    AbsPower,
    Affine,
    Clamp,
    Exp,
    MaxAffine,
    Polynomial,
    ScalarFunction,
)
from .models import SequenceModel
from .reports import CheckResult
from .simulate import (
    AdversaryStrategy,
    ExperimentResult,
    SamplePath,
    bundled_strategies,
    run_slln_experiment,
    sample_grid,
    sample_path,
)
from .slln import (
    ScheduleValidation,
    TruncationParams,
    WeightSchedule,
    elementary_exp_bound_check,
    exp_moment_bound,
    make_schedule,
    normalized_partial_sums,
    truncate,
    truncation_params,
    validate_schedule,
)
from .serialize import parse_document, sequence_model_from_document

# every public name bound above; the submodules themselves are not exports
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_")
                 and not isinstance(value, _types.ModuleType))
