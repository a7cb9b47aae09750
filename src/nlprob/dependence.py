"""Dependence-notion checkers for sequence models.

Three graded notions are exercised against bounded monotone test
functions (ramps):

* *Negative association*: for same-direction nonnegative bounded test
  functions, the joint upper expectation of the product of the first k
  coordinates is at most the product split at the last coordinate,

      E_up[ f_1(X_1) ... f_k(X_k) ] <= E_up[ f_1(X_1) ... f_{k-1}(X_{k-1}) ]
                                        * E_up[ f_k(X_k) ],

  tested for every split k = 2..n and every assignment of ramps to
  coordinates. The ramps are one grid of F thresholds and widths adapted to
  the model's values, held as arrays and swept once increasing (ramps) and
  once decreasing (negated ramps). A violation needs only one witnessing
  assignment.

  On a rectangular model the inequality holds with equality and the report
  is written in closed form. The adversary picks one measure per coordinate,
  so both sides are the product of the per-coordinate maxima
  max_j E_j[f_i(X_i)]: the closed form of the rectangular product oracle,
  :func:`models.product_expectation_table`, whose docstring shows it exact
  in floating point for nonnegative factors (here values in [0, 1]). Both
  sides multiply the same maxima in the same order. So every gap is 0.0,
  each direction counts sum_{k=2..n} F^k assignments, and the witness an
  exhaustive sweep keeps is the first increasing ramp, twice, at split 2.
  The comonotone pair is swept (one split, F^2 assignments per direction).

* *Vertical independence*: the same split relations hold with equality for
  arbitrary nonnegative (not necessarily monotone) function tuples.

* *Forward factorization*: for nonnegative g on the first n-1 coordinates
  and any f on the last,

      E_low[ g(X_1..X_{n-1}) * (f(X_n) - E_low[f(X_n)]) ] >= 0

  would express that conditioning on the past cannot depress the next
  coordinate's lower mean. Vertical independence does NOT imply it: the
  bundled two-point pair model drives the value strictly negative while
  every negative-association sweep stays clean. Sequential (conditional)
  independence, where the adversary picks each coordinate's measure after
  seeing the past, has no checker here, although on a finite space its
  expectations are computable by backward induction over the measure list.

A sweep never proves a universally quantified property; verdicts are
"no-counterexample-found" or "violated", with the worst gap and a witness.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .core import RandomVariable, credal_set_from_rows
from .errors import (
    EmptyVectorError,
    LengthMismatchError,
    MixedMonotonicityError,
    NegativeFunctionValueError,
    NonPositiveWidthError,
    POutOfRangeError,
)
from .functions import (
    DECREASING,
    INCREASING,
    NEGATED_RAMP,
    RAMP,
    TestFunction,
)
from . import models
from .models import (
    COMONOTONE_PAIR,
    SequenceModel,
    check_horizon,
    coordinate_expectation_matrix,
    product_expectation_table,
)
from .reports import CheckResult

VERDICT_OK = "no-counterexample-found"
VERDICT_VIOLATED = "violated"

DEFAULT_TOL = 1e-9
# thresholds per width in the ramp grid (``_ramp_grid``)
FAMILY_THRESHOLDS = 9


def _ramp_grid(model: SequenceModel) -> tuple[np.ndarray, np.ndarray]:
    """The thresholds and widths of the 3 * ``FAMILY_THRESHOLDS`` ramps each
    direction sweeps: three widths tied to the realized value span (span/4,
    span/2, span; unit widths if the span is degenerate), each with
    ``FAMILY_THRESHOLDS`` thresholds covering [lo - w, hi + w]."""
    lo = min(float(v.values.min()) for v in model.variables)
    hi = max(float(v.values.max()) for v in model.variables)
    span = hi - lo
    steps = (span / 4.0, span / 2.0, span) if span > 0 else (0.25, 0.5, 1.0)
    if steps[0] == 0.0:  # span / 4 underflows on a subnormal span
        raise NonPositiveWidthError(f"ramp width must be > 0, got {steps[0]}")
    thresholds = np.concatenate([np.linspace(lo - w, hi + w, FAMILY_THRESHOLDS)
                                 for w in steps])
    return thresholds, np.repeat(steps, FAMILY_THRESHOLDS)


def _ramp_rows(values: np.ndarray, thresholds: np.ndarray, widths: np.ndarray,
               direction: str) -> np.ndarray:
    """Matrix [a, w] = ramp_a(values[w]) for the ramps of one direction.
    One broadcast over the thresholds and widths, each entry through the
    subtract, divide, clip and ``1 - r`` of :meth:`TestFunction.__call__`,
    so it holds the same bits."""
    r = np.clip((values - thresholds[:, None]) / widths[:, None], 0.0, 1.0)
    return 1.0 - r if direction == DECREASING else r


def _pair_sweep(model: SequenceModel, thresholds: np.ndarray,
                widths: np.ndarray, direction: str
                ) -> tuple[float, str, int, int]:
    """Worst gap of the pair's one split over all assignments of one
    direction's ramps, and its first worst assignment (a, b)."""
    R1 = _ramp_rows(model.variable_at(1).values, thresholds, widths, direction)
    R2 = _ramp_rows(model.variable_at(2).values, thresholds, widths, direction)
    W = model.credal.weights
    lhs = np.einsum("aw,bw,jw->abj", R1, R2, W).max(axis=2)
    gap = lhs - np.multiply.outer((R1 @ W.T).max(axis=1),
                                  (R2 @ W.T).max(axis=1))
    a, b = np.unravel_index(int(gap.argmax()), gap.shape)
    return float(gap[a, b]), direction, int(a), int(b)


def check_negative_association(model: SequenceModel, n: int,
                               tol: float = DEFAULT_TOL) -> CheckResult:
    """Sweep the split inequalities over the ramps of :func:`_ramp_grid`,
    increasing and decreasing, on coordinates 1..n.

    Needs 2 <= n <= the enumeration cap, within the model's coordinates. A
    comonotone pair is swept increasing first, and the first worst
    assignment is the witness. On a rectangular model the record is written
    in closed form (see the module docstring): gap 0.0, ``checked = 2 *
    sum_{k=2..n} F^k`` with F = 3 * ``FAMILY_THRESHOLDS``, and the first
    increasing ramp, twice, as witness.
    """
    if n < 2:
        raise ValueError(f"negative-association sweep needs n >= 2, got {n}")
    check_horizon(model, n)  # the joint oracle's cap keeps F^n reportable
    thresholds, widths = _ramp_grid(model)
    F = len(thresholds)
    if model.product_measures:
        worst, direction, a, b = 0.0, INCREASING, 0, 0
        checked = 2 * sum(F ** k for k in range(2, n + 1))
    else:
        worst, direction, a, b = max(
            (_pair_sweep(model, thresholds, widths, d)
             for d in (INCREASING, DECREASING)),
            key=lambda sweep: sweep[0])  # the first on ties
        checked = 2 * F * F
    kind = RAMP if direction == INCREASING else NEGATED_RAMP
    witness = {"direction": direction, "split": 2,
               "functions": [TestFunction(kind, float(thresholds[i]),
                                          float(widths[i]),
                                          direction).descriptor
                             for i in (a, b)]}
    verdict = VERDICT_VIOLATED if worst > tol else VERDICT_OK
    return CheckResult("negative-association", worst, tol, worst,
                       verdict == VERDICT_OK, witness, verdict, checked)


def _as_rows(model: SequenceModel, functions: Sequence[Callable], n: int
             ) -> np.ndarray:
    """Rows f_i(X_i), i = 1..n; the functions cycle as the model's variables
    do, so coordinate i reads function (i - 1) % len(functions)."""
    if not functions:
        raise LengthMismatchError(f"no functions for {n} coordinates")
    rows = []
    for i in range(1, n + 1):
        f = functions[(i - 1) % len(functions)]
        r = np.asarray(f(model.variable_at(i).values), dtype=float)
        if r.shape != (model.credal.size,):
            raise LengthMismatchError(
                f"function {i} does not map the outcome grid to scalars")
        rows.append(r)
    return np.vstack(rows)


def check_vertical_independence(model: SequenceModel, n: int,
                                functions: Sequence[Callable],
                                tol: float = DEFAULT_TOL) -> CheckResult:
    """Check the split relations hold with *equality* for one nonnegative
    function tuple (f_1, ..., f_n), the functions cycled as the model's
    variables are. n = 1 passes vacuously. Long horizons are refused, as in
    the NA sweep, before any function is read."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n == 1:
        return CheckResult("vertical-independence", 0.0, tol, 0.0, True, None,
                           VERDICT_OK, 0)
    check_horizon(model, n)
    rows = _as_rows(model, functions, n)
    if rows.min() < 0.0:
        i, _ = np.unravel_index(int(rows.argmin()), rows.shape)
        raise NegativeFunctionValueError(
            f"function {i + 1} takes a negative value; all must be nonnegative")
    # upper of each prefix product rows[:k], k = 1..n; split k compares
    # entry k-1 with entry k-2 times the marginal upper of coordinate k
    uppers = [float(product_expectation_table(model, rows[:k]).max())
              for k in range(1, n + 1)]
    marginals = coordinate_expectation_matrix(model, rows).max(axis=1)
    worst = float("-inf")
    witness = None
    for k in range(2, n + 1):
        lhs = uppers[k - 1]
        rhs = uppers[k - 2] * float(marginals[k - 1])
        violation = abs(lhs - rhs)
        if violation > worst:
            worst = violation
            witness = {"split": k, "lhs": lhs, "rhs": rhs}
    verdict = VERDICT_VIOLATED if worst > tol else VERDICT_OK
    return CheckResult("vertical-independence", worst, tol, worst,
                       verdict == VERDICT_OK, witness, verdict, n - 1)


def forward_factorization_value(model: SequenceModel, g: Callable, f: Callable,
                                n: int | None = None) -> float:
    """Lower expectation of g(X_1..X_{n-1}) * (f(X_n) - E_low[f(X_n)]).

    ``g`` takes n-1 array arguments and must be nonnegative on the realized
    grid; ``f`` is a scalar function of the last coordinate. A negative
    return is a counterexample to forward factorization (the bundled pair
    model yields c^2 - c < 0 with unit ramps); nonnegative returns at every
    probe are what the weighted-sum convergence machinery consumes.
    """
    if n is None:
        n = len(model.variables)
    if n < 2:
        raise ValueError(f"forward factorization needs n >= 2, got {n}")
    last = model.variable_at(n)
    f_row = np.asarray(f(last.values), dtype=float)
    f_low = float(coordinate_expectation_matrix(model, f_row[None, :]).min())

    # nonnegativity probe for g on the realized grid of the first n-1 coords
    g_vals = np.asarray(g(*model.grids(n - 1)), dtype=float)
    if g_vals.min() < 0.0:
        raise NegativeFunctionValueError(
            f"g reaches {g_vals.min()} on the grid; it must be nonnegative")

    def integrand(*xs):
        return np.asarray(g(*xs[:-1]), dtype=float) * (
            np.asarray(f(xs[-1]), dtype=float) - f_low)

    # looked up in ``models`` at call time, where tracers wrap the oracle
    return float(models.joint_expectation_table(model, integrand, n).min())


def binomial_pair_model(p_values: Sequence[float]) -> SequenceModel:
    """Two-point pair (negated copy first, base second) with credal set
    {(1-p, p) : p in p_values}.

    The base variable X takes values (0, 1) and the leading coordinate is
    Y = -X with values (0, -1); that order makes
    ``forward_factorization_value(model, g, f)`` condition on Y and probe X,
    reproducing the closed form c^2 - c (c = min p) for unit ramps
    g = clamp(x+1, 0, 1), f = clamp(x, 0, 1).
    """
    ps = [float(p) for p in p_values]
    if not ps:
        raise EmptyVectorError("need at least one success probability")
    for p in ps:
        if not 0.0 < p < 1.0:
            raise POutOfRangeError(f"success probability {p} outside (0, 1)")
    credal = credal_set_from_rows([[1.0 - p, p] for p in ps])
    y = RandomVariable([0.0, -1.0])
    x = RandomVariable([0.0, 1.0])
    return SequenceModel(credal, (y, x), COMONOTONE_PAIR)


def _direction_of(f: Callable) -> str | None:
    d = getattr(f, "direction", None)
    if d is None:
        d = getattr(f, "monotonicity", None)
    return d


def exp_product_bound_gap(model: SequenceModel, n: int,
                          functions: Sequence[Callable]) -> float:
    """prod_i E_up[exp f_i(X_i)] minus E_up[exp(sum_i f_i(X_i))].

    The functions must share one monotone direction. For models passing the
    negative-association sweeps, the gap is >= 0 (up to float slack): the
    exponential of a sum of same-direction coordinates cannot beat the
    product of its marginal exponential moments.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    rows = _as_rows(model, functions, n)  # no functions: a length error
    directions = {_direction_of(f) for f in functions[:n]}
    if None in directions or len(directions) != 1:
        raise MixedMonotonicityError(
            f"functions must share one monotone direction, got {directions}")
    exp_rows = np.exp(rows)
    lhs = float(product_expectation_table(model, exp_rows).max())
    marginals = coordinate_expectation_matrix(model, exp_rows).max(axis=1)
    rhs = float(np.multiply.reduce(marginals))
    return rhs - lhs
