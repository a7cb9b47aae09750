"""Sublinear and Choquet expectations over a credal set, plus the
inequality toolkit built on them.

The upper expectation of X is max_j E_j[X] over the credal list, the lower
is the min; they are conjugate (lower(X) = -upper(-X)). The Choquet
expectation integrates the survival function of X against the upper (or
lower) probability envelope; on a finite space it telescopes over the sorted
distinct values:

    C[X] = v_1 + sum_{k>=2} (v_k - v_{k-1}) * kappa({X >= v_k})

which equals the usual two-integral definition (checked in the tests against
a knot-aligned Riemann evaluation). The four quantities always satisfy

    choquet_lower <= lower <= upper <= choquet_upper

and a documented 1e-12 slack guards the float evaluation; a breach raises
ChainViolationError because it can only mean an implementation bug.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CredalSet, RandomVariable, event_probability_table
from .errors import (
    BadExponentsError,
    ChainViolationError,
    DimensionMismatchError,
    NonPositiveFunctionError,
)
from .functions import INCREASING, ScalarFunction
from .reports import CheckResult, comparison, equality

CHAIN_TOL = 1e-12
UPPER = "upper"
LOWER = "lower"


def _check_dims(credal: CredalSet, variable: RandomVariable) -> None:
    if credal.size != variable.size:
        raise DimensionMismatchError(
            f"credal size {credal.size} vs variable size {variable.size}")


def expectation_values(credal: CredalSet, variable: RandomVariable) -> np.ndarray:
    """E_j[X] for every measure j, in credal order."""
    _check_dims(credal, variable)
    return credal.weight_matrix() @ variable.values


def upper_expectation(credal: CredalSet, variable: RandomVariable) -> float:
    return float(expectation_values(credal, variable).max())


def lower_expectation(credal: CredalSet, variable: RandomVariable) -> float:
    return float(expectation_values(credal, variable).min())


def choquet_expectation(credal: CredalSet, variable: RandomVariable,
                        side: str = UPPER) -> float:
    """Choquet integral of X against the upper or lower probability envelope.

    Exact telescoping over sorted distinct values; ``side`` selects the
    capacity ("upper" or "lower").
    """
    _check_dims(credal, variable)
    if side not in (UPPER, LOWER):
        raise ValueError(f"side must be 'upper' or 'lower', got {side!r}")
    vals = variable.values
    distinct = np.unique(vals)          # ascending
    if distinct.size == 1:
        return float(distinct[0])
    # survival[k, j] = P_j(X >= distinct[k]) for k >= 1
    surv = event_probability_table(credal.weight_matrix(),
                                   vals[None, :] >= distinct[1:, None])
    kappa = surv.max(axis=1) if side == UPPER else surv.min(axis=1)
    steps = np.diff(distinct)
    return float(distinct[0]) + math.fsum(float(s * k) for s, k in zip(steps, kappa))


@dataclass(frozen=True)
class ExpectationBounds:
    """The Choquet/linear sandwich for one variable."""

    choquet_lower: float
    lower: float
    upper: float
    choquet_upper: float

    def __post_init__(self) -> None:
        chain = (self.choquet_lower, self.lower, self.upper, self.choquet_upper)
        for a, b in zip(chain, chain[1:]):
            if a > b + CHAIN_TOL:
                raise ChainViolationError(
                    f"expectation chain broke: {chain} (internal bug)")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.choquet_lower, self.lower, self.upper, self.choquet_upper)


def expectation_chain(credal: CredalSet, variable: RandomVariable) -> ExpectationBounds:
    """Compute all four expectations; ordering is enforced on construction."""
    return ExpectationBounds(
        choquet_expectation(credal, variable, LOWER),
        lower_expectation(credal, variable),
        upper_expectation(credal, variable),
        choquet_expectation(credal, variable, UPPER),
    )


def sublinear_axiom_report(credal: CredalSet, x: RandomVariable, y: RandomVariable,
                           lam: float = 2.0, c: float = 1.0, a: float = -1.0,
                           tol: float = CHAIN_TOL) -> tuple[CheckResult, ...]:
    """Sublinear-expectation axiom records for a concrete (X, Y, lam, c, a).

    Monotonicity is only meaningful when X >= Y pointwise; otherwise that
    record is marked inapplicable and passes vacuously. ``lam`` must be >= 0.
    """
    _check_dims(credal, x)
    _check_dims(credal, y)
    if lam < 0:
        raise ValueError(f"positive homogeneity needs lam >= 0, got {lam}")
    ex, ey = upper_expectation(credal, x), upper_expectation(credal, y)
    neg = RandomVariable(-x.values)

    results = []
    if np.all(x.values >= y.values):
        results.append(comparison("monotonicity", ey, ex, tol,
                                  {"applicable": True}))
    else:
        results.append(CheckResult("monotonicity", ey, ex, 0.0, True,
                                   {"applicable": False}))
    const = RandomVariable(np.full(x.size, float(c)))
    results.append(equality("constant-upper", upper_expectation(credal, const), c, tol))
    results.append(equality("constant-lower", lower_expectation(credal, const), c, tol))
    with np.errstate(over="ignore"):  # RandomVariable refuses an inf sum
        total = RandomVariable(x.values + y.values)
    results.append(comparison(
        "sub-additivity", upper_expectation(credal, total), ex + ey, tol))
    results.append(equality(
        "positive-homogeneity",
        upper_expectation(credal, RandomVariable(lam * x.values)),
        lam * ex, tol, {"lam": lam}))
    a_plus, a_minus = max(a, 0.0), max(-a, 0.0)
    results.append(equality(
        "signed-homogeneity",
        upper_expectation(credal, RandomVariable(a * x.values)),
        a_plus * ex + a_minus * upper_expectation(credal, neg),
        tol, {"a": a}))
    results.append(equality(
        "translation",
        upper_expectation(credal, RandomVariable(x.values + c)),
        ex + c, tol, {"c": c}))
    results.append(comparison(
        "difference-bound",
        ex - ey,
        upper_expectation(credal, RandomVariable(x.values - y.values)),
        tol))
    results.append(equality(
        "conjugation",
        lower_expectation(credal, x),
        -upper_expectation(credal, neg), tol))
    return tuple(results)


def inequality_suite(credal: CredalSet, x: RandomVariable, y: RandomVariable,
                     p: float, q: float, threshold: float, f: ScalarFunction,
                     tol: float = CHAIN_TOL) -> tuple[CheckResult, ...]:
    """Records of Hoelder, Chebyshev (both envelopes, the variant in their
    witness) and Jensen on concrete inputs.

    Preconditions: p, q > 1 conjugate within 1e-12 (BadExponentsError);
    f positive at the threshold (NonPositiveFunctionError) and structurally
    admissible — monotone increasing for the one-sided Chebyshev variant,
    even and nondecreasing on (0, inf) (with threshold > 0) for the
    two-sided variant, convex for Jensen.
    """
    _check_dims(credal, x)
    _check_dims(credal, y)
    if p <= 1.0 or q <= 1.0 or abs(1.0 / p + 1.0 / q - 1.0) >= 1e-12:
        raise BadExponentsError(f"p={p}, q={q} are not conjugate exponents > 1")

    results = []

    lhs = upper_expectation(credal, RandomVariable(np.abs(x.values * y.values)))
    mx = upper_expectation(credal, RandomVariable(np.abs(x.values) ** p))
    my = upper_expectation(credal, RandomVariable(np.abs(y.values) ** q))
    rhs = mx ** (1.0 / p) * my ** (1.0 / q)
    results.append(comparison("hoelder", lhs, rhs, tol, {"p": p, "q": q}))

    if f.monotonicity == INCREASING and not f.is_even:
        variant = "one-sided"
        hit = x.values >= threshold
    elif f.is_even and f.nondecreasing_on_positive:
        if threshold <= 0:
            raise ValueError(
                "two-sided Chebyshev variant needs a positive threshold")
        variant = "two-sided"
        hit = np.abs(x.values) >= threshold
    else:
        raise ValueError(
            f"{f.describe()} fits neither Chebyshev variant "
            "(need increasing, or even and nondecreasing on positives)")
    ft = float(f(threshold))
    if ft <= 0.0:
        raise NonPositiveFunctionError(
            f"{f.describe()} is {ft} at threshold {threshold}; must be positive")
    fx = np.asarray(f(x.values), dtype=float)
    if fx.min() < 0.0:
        raise NonPositiveFunctionError(
            f"{f.describe()} takes negative values on the variable's range")
    probs = event_probability_table(credal.weight_matrix(), hit[None, :])[0]
    f_mean = expectation_values(credal, RandomVariable(fx))
    results.append(comparison(
        "chebyshev-upper", float(probs.max()), float(f_mean.max()) / ft, tol,
        {"threshold": threshold, "variant": variant}))
    results.append(comparison(
        "chebyshev-lower", float(probs.min()), float(f_mean.min()) / ft, tol,
        {"threshold": threshold, "variant": variant}))

    if not f.is_convex:
        raise ValueError(f"Jensen needs a convex f, got {f.describe()}")
    ex = upper_expectation(credal, x)
    results.append(comparison("jensen", float(f(ex)), float(f_mean.max()), tol))

    return tuple(results)
