"""Credal sets, random variables and event probabilities on finite spaces.

Conventions
-----------
* An outcome space is ``{0, ..., size-1}``; it is named by its size alone.
* An event is a boolean membership row over the outcomes, and an event
  family a matrix of such rows, so complements and enumeration are exact
  and every event probability is one sum, :func:`event_probability_table`.
* A credal set is an *ordered*, read-only weight matrix of shape
  ``(measures, size)``: row j is probability measure j, and there is at
  least one. Order matters: upper/lower envelopes report maximizer indices,
  and adversary strategies pick measures by index. Duplicates are permitted.
* All container types are immutable; arrays they hold are read-only.
  Every operation is a pure function of its inputs.

Tolerances: weights may undershoot zero by at most ``1e-15`` (clamped), and
must sum to 1 within ``1e-12``; within that band they are renormalized by
exact division.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyVectorError,
    NegativeWeightError,
    NonFiniteError,
    NotNormalizedError,
)

WEIGHT_FLOOR = -1e-15
NORMALIZATION_TOL = 1e-12


def _measure_row(weights) -> np.ndarray:
    """One validated, exactly renormalized weight row.

    Parameters
    ----------
    weights : array-like of float
        Nonempty; entries >= -1e-15 (tiny negatives are clamped to 0);
        sum within 1e-12 of 1.

    Raises
    ------
    EmptyVectorError, NonFiniteError, NegativeWeightError, NotNormalizedError
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise EmptyVectorError("measure needs a nonempty 1-d weight vector")
    if not np.all(np.isfinite(w)):
        raise NonFiniteError("weights must be finite")
    low = w.min()
    if low < WEIGHT_FLOOR:
        raise NegativeWeightError(
            f"weight {low!r} at index {int(w.argmin())} is below {WEIGHT_FLOOR}"
        )
    w = np.where(w < 0.0, 0.0, w)
    total = float(w.sum())
    if abs(total - 1.0) >= NORMALIZATION_TOL:
        raise NotNormalizedError(f"weights sum to {total!r}, not 1 within 1e-12")
    return w / total


@dataclass(frozen=True, eq=False)
class RandomVariable:
    """A real-valued map on a finite space, stored as its value vector."""

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.array(self.values, dtype=float)  # a copy no caller holds
        if v.ndim != 1 or v.size == 0:
            raise EmptyVectorError("random variable needs a nonempty value vector")
        if not np.all(np.isfinite(v)):
            raise NonFiniteError("random variable values must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def size(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True, eq=False)
class CredalSet:
    """An ordered, nonempty family of measures on one outcome space, held as
    its weight matrix: row j is measure j. Built from any iterable of weight
    rows, each validated and renormalized by itself."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        rows = [_measure_row(r) for r in self.weights]
        if not rows:
            raise EmptyVectorError("credal set needs at least one measure")
        for j, row in enumerate(rows):
            if row.shape != rows[0].shape:
                raise DimensionMismatchError(
                    f"measure {j} has size {row.shape[0]}, "
                    f"measure 0 has {rows[0].shape[0]}")
        weights = np.vstack(rows)
        weights.setflags(write=False)
        object.__setattr__(self, "weights", weights)

    def __len__(self) -> int:
        return self.weights.shape[0]

    @property
    def size(self) -> int:
        return self.weights.shape[1]

    def weight_matrix(self) -> np.ndarray:
        """The measures as rows; shape (len(self), size). One read-only
        array, stacked when the set is built."""
        return self.weights


def credal_set_from_rows(rows) -> CredalSet:
    """Build a credal set from an iterable of weight rows (validated per row)."""
    return CredalSet(rows)


def event_probability_table(weights: np.ndarray, members: np.ndarray) -> np.ndarray:
    """P_j(A_e) for weight rows (measures, size) and membership rows
    (events, size); shape (events, measures). Every event probability in the
    package is this sum: from 0.0, each outcome's weight is added, in outcome
    order, to the events holding it. So monotonicity is exact in floats:
    weights are >= 0 and rounding is monotone, hence for A ⊆ B each partial
    sum of B is >= the matching one of A, and P_j(A) <= P_j(B) exactly.
    Every event takes every step, a non-member adding a zero: entries start
    at +0.0 and gain only terms >= 0, so none is -0.0, and x + 0.0 == x
    keeps each sum the member-only one bit for bit.
    """
    members = np.asarray(members, dtype=bool)
    if members.ndim != 2 or members.shape[1] != weights.shape[1]:
        raise DimensionMismatchError(
            f"membership rows of shape {members.shape} for "
            f"{weights.shape[1]} outcomes")
    table = np.zeros((members.shape[0], weights.shape[0]))
    for w in range(weights.shape[1]):
        table += np.multiply.outer(members[:, w], weights[:, w])
    return table

