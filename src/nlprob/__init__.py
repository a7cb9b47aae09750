"""Exact imprecise probability on finite outcome spaces.

Measures live on a finite outcome space; a credal set is a finite list of
them. Everything downstream is exact, by enumeration or in closed form:
capacity envelopes, sublinear and Choquet expectations, dependence sweeps,
and a deterministic Monte Carlo laboratory for weighted strong laws under
adversarial measure selection.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .capacity import (
    all_events,
    capacity_axiom_report,
    lower_prob,
    lower_prob_witness,
    upper_prob,
    upper_prob_witness,
)
from .config import ExperimentConfig, SimulationSettings, parse_config
from .core import (
    CredalSet,
    Event,
    OutcomeSpace,
    ProbabilityMeasure,
    RandomVariable,
    classical_expectation,
    credal_set_from_rows,
    dirac_measure,
    event_probability,
    indicator_variable,
    make_measure,
    uniform_measure,
)
from .dependence import (
    TestFamily,
    TestFunction,
    binomial_pair_model,
    check_negative_association,
    check_vertical_independence,
    default_families,
    exp_product_bound_gap,
    forward_factorization_value,
    ramp_family,
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
    lower_expectation_witness,
    sublinear_axiom_report,
    upper_expectation,
    upper_expectation_witness,
)
from .functions import (
    AbsPower,
    Affine,
    Clamp,
    Exp,
    MaxAffine,
    Polynomial,
    ScalarFunction,
    constant,
    identity,
)
from .models import (
    SequenceModel,
    joint_lower_expectation,
    joint_upper_expectation,
    product_lower_expectation,
    product_upper_expectation,
)
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
from .serialize import (
    credal_document,
    dumps_document,
    loads_document,
    parse_document,
    sequence_model_document,
    sequence_model_from_document,
)

__all__ = [name for name in dir() if not name.startswith("_")]
