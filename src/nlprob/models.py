"""Sequence models and exact joint upper/lower expectations.

A sequence model couples one credal set with a finite list of coordinate
variables and a joint semantics. Only this module interprets the semantics;
callers ask the model how many ``coordinates`` it defines, whether it has
``product_measures``, and on which outcome ``grids`` to evaluate integrands.

``rectangular``
    Coordinate i is sampled on a fresh copy of the space; a non-adaptive
    adversary picks one credal measure *per coordinate*. The joint upper
    expectation of F(X_1, ..., X_n) is the maximum over all |P|^n
    per-coordinate measure assignments of the product-measure expectation.
    The variable list cycles (coordinate i uses ``variables[(i-1) % len]``),
    so there are unboundedly many coordinates.

``comonotone-pair``
    Exactly two coordinates, one per variable, read off the *same* outcome:
    the adversary picks one measure j and the joint expectation of F(X, Y)
    is E_j[F(X(w), Y(w))], maximized over j. This is the maximally coupled
    two-coordinate model; it is where dependence checkers find structure.

Both oracles return a table over measure assignments; its ``.max()`` is the
joint upper expectation and its ``.min()`` the lower one. General integrands
(:func:`joint_expectation_table`) are computed by exact enumeration, so their
coordinate count is capped (default 6) and exceeding it raises
``OracleTooLargeError`` instead of silently grinding; :func:`check_horizon`
is that refusal, shared with the dependence sweeps. Products of nonnegative
per-coordinate factors (:func:`product_expectation_table`) are in closed
form and have no cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CredalSet, RandomVariable
from .errors import (
    DimensionMismatchError,
    EmptyVectorError,
    IndexOutOfRangeError,
    NegativeFunctionValueError,
    OracleTooLargeError,
)

RECTANGULAR = "rectangular"
COMONOTONE_PAIR = "comonotone-pair"
DEFAULT_ORACLE_CAP = 6

# coordinates each joint semantics defines; None: unbounded (the list cycles)
_COORDINATES = {RECTANGULAR: None, COMONOTONE_PAIR: 2}
JOINT_KINDS = tuple(_COORDINATES)

# hard ceiling on enumeration cells, even within the coordinate cap
_MAX_CELLS = 4_000_000


@dataclass(frozen=True, eq=False)
class SequenceModel:
    credal: CredalSet
    variables: tuple[RandomVariable, ...]
    joint: str = RECTANGULAR

    def __post_init__(self) -> None:
        variables = tuple(self.variables)
        object.__setattr__(self, "variables", variables)
        if not variables:
            raise EmptyVectorError("sequence model needs at least one variable")
        for k, v in enumerate(variables):
            if v.size != self.credal.size:
                raise DimensionMismatchError(
                    f"variable {k} has size {v.size}, space has {self.credal.size}"
                )
        if self.joint not in _COORDINATES:
            raise ValueError(f"unknown joint semantics {self.joint!r}")
        if self.coordinates is not None and len(variables) != self.coordinates:
            raise DimensionMismatchError(
                f"{self.joint} model needs exactly {self.coordinates} "
                f"variables, got {len(variables)}")

    @property
    def coordinates(self) -> int | None:
        """How many coordinates the model defines; ``None`` means unbounded."""
        return _COORDINATES[self.joint]

    @property
    def product_measures(self) -> bool:
        """Whether each coordinate gets its own measure (rectangular)."""
        return self.joint == RECTANGULAR

    def variable_at(self, i: int) -> RandomVariable:
        """Coordinate variable for 1-based index i (rectangular models cycle)."""
        if i < 1 or (self.coordinates is not None and i > self.coordinates):
            raise IndexOutOfRangeError(
                f"{self.joint} model has no coordinate {i}")
        return self.variables[(i - 1) % len(self.variables)]

    def grids(self, n: int) -> list[np.ndarray]:
        """Values of coordinates 1..n on the outcome grid: n independent
        outcome axes for rectangular models, one shared axis for the pair."""
        values = [self.variable_at(i).values for i in range(1, n + 1)]
        if self.product_measures:
            return np.meshgrid(*values, indexing="ij")
        return values


def check_horizon(model: SequenceModel, n: int) -> None:
    """Refuse n coordinates unless the model defines coordinate n and n is
    within the enumeration cap; the one refusal of every oracle and sweep."""
    model.variable_at(n)  # raises unless coordinate n exists
    if n > DEFAULT_ORACLE_CAP:
        raise OracleTooLargeError(
            f"{n} coordinates exceed the enumeration cap {DEFAULT_ORACLE_CAP}")


def _check_cap(model: SequenceModel, n: int) -> None:
    check_horizon(model, n)
    if model.product_measures:
        cells = (model.credal.size ** n) + (len(model.credal) ** n)
        if cells > _MAX_CELLS:
            raise OracleTooLargeError(
                f"enumeration needs ~{cells} cells (> {_MAX_CELLS})")


def _integrand_tensor(model: SequenceModel, F, n: int) -> np.ndarray:
    """F evaluated on the model's outcome grid (:meth:`SequenceModel.grids`).
    Tries broadcasting, falls back pointwise."""
    grids = model.grids(n)
    shape = grids[0].shape
    try:
        out = np.asarray(F(*grids), dtype=float)
        if out.shape == shape:
            return out
    except (TypeError, ValueError):
        pass
    out = np.empty(shape)
    for idx in np.ndindex(shape):
        out[idx] = float(F(*(g[idx] for g in grids)))
    return out


def joint_expectation_table(model: SequenceModel, F, n: int) -> np.ndarray:
    """Expectation of F under every admissible measure assignment.

    Rectangular: shape ``(|P|,)*n``, entry [j_1, ..., j_n] is the
    product-measure expectation with measure j_i on coordinate i.
    Comonotone-pair: shape ``(|P|,)``, entry [j] is E_j.
    """
    _check_cap(model, n)
    G = _integrand_tensor(model, F, n)
    W = model.credal.weights
    # contract outcome axes one at a time; each step consumes the current
    # leading outcome axis and appends that axis's measure axis at the end,
    # so the final axes read (j_1, ..., j_n) -- a single j for the pair,
    # whose grid has one shared outcome axis
    for _ in range(G.ndim):
        G = np.tensordot(G, W.T, axes=([0], [0]))
    return G


def coordinate_expectation_matrix(model: SequenceModel,
                                  rows: np.ndarray) -> np.ndarray:
    """E_j[row_i] for factor-value rows over the space: shape (n, |P|).

    ``rows[i]`` holds the values of some per-coordinate factor f_i(X_i(w))
    over outcomes w. Used by dependence checkers and the product fast path.
    Each row is its own product: BLAS rounds a batched ``rows @ W.T`` by the
    batch's shape, and an entry's bits must not depend on the other rows.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if rows.shape[1] != model.credal.size:
        raise DimensionMismatchError(
            f"factor rows have length {rows.shape[1]}, space has {model.credal.size}")
    W = model.credal.weights
    return np.array([W @ row for row in rows])


def product_expectation_table(model: SequenceModel, rows) -> np.ndarray:
    """Extreme expectations of the product integrand ``prod_i f_i(X_i)``,
    from per-coordinate factor rows (``rows[i]`` holds f_i(X_i(w)) over the
    outcomes w). Callers read the ``.max()`` and ``.min()`` of the result.

    Rectangular: the product measure factorizes coordinate-wise, so the
    assignment (j_1, ..., j_n) gives ``prod_i E_{j_i}[f_i]``, and its
    extremes over all |P|^n assignments are reached at the coordinate-wise
    argmin and argmax. The result is the 2-entry array
    ``[prod_i min_j E_j[f_i], prod_i max_j E_j[f_i]]``, multiplied left to
    right from :func:`coordinate_expectation_matrix`. Rounded multiplication
    of nonnegative floats is monotone in each factor, so these are the min
    and max of the full assignment table bit for bit. That needs
    nonnegative rows, so a negative entry raises
    ``NegativeFunctionValueError``; signed product integrands go through
    :func:`joint_expectation_table`.

    Comonotone-pair: one measure j reads both coordinates off the same
    outcome, so the result is ``(E_j[prod_i f_i])_j``, shape ``(|P|,)``.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    model.variable_at(rows.shape[0])  # raises unless every coordinate exists
    if not model.product_measures:
        return model.credal.weights @ rows.prod(axis=0)
    if rows.min() < 0.0:
        raise NegativeFunctionValueError(
            "a rectangular product needs nonnegative factor rows, "
            f"got {rows.min()}")
    E = coordinate_expectation_matrix(model, rows)
    return np.array([math.prod(E.min(axis=1)), math.prod(E.max(axis=1))])

