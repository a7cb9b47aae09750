"""Dependence-notion checkers for sequence models.

Three graded notions are exercised against finite families of bounded
monotone test functions (ramps):

* *Negative association*: for same-direction nonnegative bounded test
  functions, the joint upper expectation of the product of the first k
  coordinates is at most the product split at the last coordinate,

      E_up[ f_1(X_1) ... f_k(X_k) ] <= E_up[ f_1(X_1) ... f_{k-1}(X_{k-1}) ]
                                        * E_up[ f_k(X_k) ],

  tested for every split k = 2..n and every assignment of family functions
  to coordinates, with increasing and decreasing families swept separately.
  A violation needs only one witnessing assignment.

  On a rectangular model the inequality holds with equality and the report
  is written in closed form. The adversary picks one measure per coordinate,
  so both sides are the product of the per-coordinate maxima
  max_j E_j[f_i(X_i)]. That is exact in floating point too: the E_j entries
  are nonnegative (values in [0, 1], weights >= 0), rounded multiplication
  of nonnegative floats is monotone in each factor, and both sides multiply
  the same maxima in the same order. So every gap is 0.0, a family of F
  functions counts sum_{k=2..n} F^k assignments, and the witness an
  exhaustive sweep keeps is the family's first function, twice, at split 2.
  The comonotone pair is swept (one split, F^2 assignments).

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

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from .core import RandomVariable, credal_set_from_rows
from .errors import (
    EmptyGridError,
    EmptyVectorError,
    LengthMismatchError,
    MixedMonotonicityError,
    NegativeFunctionValueError,
    NonPositiveWidthError,
    OracleTooLargeError,
    POutOfRangeError,
)
from .models import (
    COMONOTONE_PAIR,
    DEFAULT_ORACLE_CAP,
    SequenceModel,
    coordinate_expectation_matrix,
    joint_lower_expectation,
    product_expectation_table,
)
from .reports import CheckResult

INCREASING = "increasing"
DECREASING = "decreasing"

RAMP = "ramp"
NEGATED_RAMP = "negated-ramp"
CONSTANT = "constant"

VERDICT_OK = "no-counterexample-found"
VERDICT_VIOLATED = "violated"

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class TestFunction:
    """A bounded monotone test function with values in [0, 1].

    ``ramp``: clamp((x - threshold)/width, 0, 1), increasing.
    ``negated-ramp``: 1 - ramp, decreasing.
    ``constant``: always 1; belongs to either direction and is the unit of
    the product, so it lets a sweep drop a coordinate.
    """

    kind: str
    threshold: float = 0.0
    width: float = 1.0
    direction: str = INCREASING

    __test__ = False  # "test function" is the domain term, not a pytest item

    def __post_init__(self) -> None:
        if self.kind not in (RAMP, NEGATED_RAMP, CONSTANT):
            raise ValueError(f"unknown test-function kind {self.kind!r}")
        if self.direction not in (INCREASING, DECREASING):
            raise ValueError(f"unknown direction {self.direction!r}")
        if self.kind != CONSTANT and self.width <= 0.0:
            raise NonPositiveWidthError(f"ramp width must be > 0, got {self.width}")
        if self.kind == RAMP and self.direction != INCREASING:
            raise MixedMonotonicityError("a ramp is increasing")
        if self.kind == NEGATED_RAMP and self.direction != DECREASING:
            raise MixedMonotonicityError("a negated ramp is decreasing")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == CONSTANT:
            return np.ones_like(x)
        r = np.clip((x - self.threshold) / self.width, 0.0, 1.0)
        return 1.0 - r if self.kind == NEGATED_RAMP else r

    @property
    def descriptor(self) -> dict[str, Any]:
        return {"kind": self.kind, "threshold": self.threshold,
                "width": self.width, "direction": self.direction}


@dataclass(frozen=True)
class TestFamily:
    """A finite same-direction family, swept in its stored (deterministic) order."""

    functions: tuple[TestFunction, ...]
    direction: str
    provenance: dict[str, Any] = field(default_factory=dict)

    __test__ = False

    def __post_init__(self) -> None:
        functions = tuple(self.functions)
        object.__setattr__(self, "functions", functions)
        if not functions:
            raise EmptyGridError("test family is empty")
        for f in functions:
            if f.direction != self.direction:
                raise MixedMonotonicityError(
                    f"family direction {self.direction} vs {f.direction} member")

    def __len__(self) -> int:
        return len(self.functions)

    def value_rows(self, variable: RandomVariable) -> np.ndarray:
        """Matrix [a, w] = f_a(X(w)); rows are family members in order."""
        return np.vstack([f(variable.values) for f in self.functions])


def ramp_family(thresholds: Sequence[float], widths: Sequence[float],
                direction: str = INCREASING) -> TestFamily:
    """Cartesian ramp grid, thresholds-major then widths, fixed order."""
    thresholds = [float(t) for t in thresholds]
    widths = [float(w) for w in widths]
    if not thresholds or not widths:
        raise EmptyGridError("ramp family needs nonempty threshold and width grids")
    for w in widths:
        if w <= 0.0:
            raise NonPositiveWidthError(f"ramp width must be > 0, got {w}")
    kind = RAMP if direction == INCREASING else NEGATED_RAMP
    funcs = tuple(TestFunction(kind, t, w, direction)
                  for t in thresholds for w in widths)
    return TestFamily(funcs, direction,
                      {"thresholds": thresholds, "widths": widths})


def default_families(model: SequenceModel, n_thresholds: int = 9,
                     ) -> tuple[TestFamily, TestFamily]:
    """One increasing and one decreasing family adapted to the model's range.

    Three widths tied to the realized value span (span/4, span/2, span; unit
    widths if the span is degenerate), with ``n_thresholds`` thresholds
    covering [lo - w, hi + w] for each width w.
    """
    lo = min(float(v.values.min()) for v in model.variables)
    hi = max(float(v.values.max()) for v in model.variables)
    span = hi - lo
    widths = (span / 4.0, span / 2.0, span) if span > 0 else (0.25, 0.5, 1.0)
    out = []
    for direction in (INCREASING, DECREASING):
        kind = RAMP if direction == INCREASING else NEGATED_RAMP
        funcs = []
        for w in widths:
            for t in np.linspace(lo - w, hi + w, n_thresholds):
                funcs.append(TestFunction(kind, float(t), float(w), direction))
        out.append(TestFamily(tuple(funcs), direction,
                              {"lo": lo, "hi": hi, "widths": list(widths),
                               "n_thresholds": n_thresholds}))
    return out[0], out[1]


def _sweep_family(model: SequenceModel, family: TestFamily, n: int,
                  ) -> tuple[float, int, dict[str, Any]]:
    """Worst gap over splits k=2..n and all assignments from one family
    (closed form for rectangular models, see the module docstring)."""
    F = len(family)
    if model.product_measures:
        worst, checked, a, b = 0.0, sum(F ** k for k in range(2, n + 1)), 0, 0
    else:
        R1 = family.value_rows(model.variable_at(1))
        R2 = family.value_rows(model.variable_at(2))
        W = model.credal.weight_matrix()
        lhs = np.einsum("aw,bw,jw->abj", R1, R2, W).max(axis=2)
        u1 = (R1 @ W.T).max(axis=1)
        u2 = (R2 @ W.T).max(axis=1)
        gap = lhs - np.multiply.outer(u1, u2)
        checked = F * F
        a, b = np.unravel_index(int(gap.argmax()), gap.shape)
        worst = float(gap[a, b])
    witness = {"direction": family.direction, "split": 2,
               "functions": [family.functions[a].descriptor,
                             family.functions[b].descriptor]}
    return worst, checked, witness


def check_negative_association(model: SequenceModel, n: int,
                               family: TestFamily | None = None,
                               tol: float = DEFAULT_TOL) -> CheckResult:
    """Sweep the split inequalities over ramp families on coordinates 1..n.

    With ``family=None`` both default directions are swept; otherwise only
    the given family (call twice for a custom mirrored pair). Needs
    2 <= n <= the enumeration cap, within the model's coordinates.
    """
    if n < 2:
        raise ValueError(f"negative-association sweep needs n >= 2, got {n}")
    model.variable_at(n)  # raises unless coordinate n exists
    if n > DEFAULT_ORACLE_CAP:  # the joint oracle's cap keeps F^n reportable
        raise OracleTooLargeError(
            f"{n} coordinates exceed the enumeration cap {DEFAULT_ORACLE_CAP}")
    families = [family] if family is not None else list(default_families(model))
    sweeps = [_sweep_family(model, fam, n) for fam in families]
    worst, _, witness = max(sweeps, key=lambda sweep: sweep[0])  # first on ties
    checked = sum(c for _, c, _ in sweeps)
    verdict = VERDICT_VIOLATED if worst > tol else VERDICT_OK
    return CheckResult("negative-association", worst, tol, worst,
                       verdict == VERDICT_OK, witness, verdict, checked)


def _as_rows(model: SequenceModel, functions: Sequence[Callable], n: int
             ) -> np.ndarray:
    if len(functions) < n:
        raise LengthMismatchError(
            f"{len(functions)} functions for {n} coordinates")
    rows = []
    for i in range(1, n + 1):
        r = np.asarray(functions[i - 1](model.variable_at(i).values), dtype=float)
        if r.shape != (model.credal.size,):
            raise LengthMismatchError(
                f"function {i} does not map the outcome grid to scalars")
        rows.append(r)
    return np.vstack(rows)


def check_vertical_independence(model: SequenceModel, n: int,
                                functions: Sequence[Callable],
                                tol: float = DEFAULT_TOL) -> CheckResult:
    """Check the split relations hold with *equality* for one nonnegative
    function tuple (f_1, ..., f_n). n = 1 passes vacuously."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n == 1:
        return CheckResult("vertical-independence", 0.0, tol, 0.0, True, None,
                           VERDICT_OK, 0)
    rows = _as_rows(model, functions, n)
    if rows.min() < 0.0:
        i, _ = np.unravel_index(int(rows.argmin()), rows.shape)
        raise NegativeFunctionValueError(
            f"function {i + 1} takes a negative value; all must be nonnegative")
    worst = float("-inf")
    witness = None
    checked = 0
    for k in range(2, n + 1):
        lhs = float(product_expectation_table(model, rows[:k]).max())
        prefix = float(product_expectation_table(model, rows[:k - 1]).max())
        marginal = float(coordinate_expectation_matrix(model, rows[k - 1:k]).max())
        violation = abs(lhs - prefix * marginal)
        checked += 1
        if violation > worst:
            worst = violation
            witness = {"split": k, "lhs": lhs, "rhs": prefix * marginal}
    verdict = VERDICT_VIOLATED if worst > tol else VERDICT_OK
    return CheckResult("vertical-independence", worst, tol, worst,
                       verdict == VERDICT_OK, witness, verdict, checked)


def forward_factorization_value(model: SequenceModel, g: Callable, f: Callable,
                                n: int | None = None,
                                cap: int = DEFAULT_ORACLE_CAP) -> float:
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

    return joint_lower_expectation(model, integrand, n, cap)


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


def monotone_image_model(model: SequenceModel, maps: Sequence[Callable]
                         ) -> SequenceModel:
    """Transform each coordinate by a monotone map, all in one direction.

    Dependence verdicts are preserved under such images; tests re-run the
    sweeps on the transformed model to exercise exactly that.
    """
    if len(maps) != len(model.variables):
        raise LengthMismatchError(
            f"{len(maps)} maps for {len(model.variables)} variables")
    directions = {_direction_of(m) for m in maps}
    if None in directions or len(directions) != 1:
        raise MixedMonotonicityError(
            f"maps must share one monotone direction, got {directions}")
    new_vars = tuple(RandomVariable(np.asarray(m(v.values), dtype=float))
                     for m, v in zip(maps, model.variables))
    return SequenceModel(model.credal, new_vars, model.joint)


def exp_product_bound_gap(model: SequenceModel, n: int,
                          functions: Sequence[Callable],
                          cap: int = DEFAULT_ORACLE_CAP) -> float:
    """prod_i E_up[exp f_i(X_i)] minus E_up[exp(sum_i f_i(X_i))].

    The functions must share one monotone direction. For models passing the
    negative-association sweeps, the gap is >= 0 (up to float slack): the
    exponential of a sum of same-direction coordinates cannot beat the
    product of its marginal exponential moments.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    directions = {_direction_of(f) for f in functions[:n]}
    if None in directions or len(directions) != 1:
        raise MixedMonotonicityError(
            f"functions must share one monotone direction, got {directions}")
    rows = _as_rows(model, functions, n)
    exp_rows = np.exp(rows)
    lhs = float(product_expectation_table(model, exp_rows).max())
    marginals = coordinate_expectation_matrix(model, exp_rows).max(axis=1)
    rhs = float(np.multiply.reduce(marginals))
    return rhs - lhs
