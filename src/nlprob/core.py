"""Credal sets, random variables and event probabilities on finite spaces.

Conventions
-----------
* An outcome space is ``{0, ..., size-1}``; it is named by its size alone.
* An event is a boolean membership row over the outcomes, and an event
  family a matrix of such rows, so complements and enumeration are exact.
  Every event probability is one left-to-right sum: from +0.0, the
  weights of the event's members are added in outcome order. Two kernels
  compute it: :func:`event_probability_table` for any family and
  :func:`power_set_table` for the whole power set; each proves it keeps
  the sum bit for bit.
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
        if not np.isfinite(v).all():
            raise NonFiniteError("random variable values must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def size(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True, eq=False)
class CredalSet:
    """An ordered, nonempty family of measures on one outcome space, read
    as its weight matrix ``weights``: one read-only array of shape
    (len(self), size), row j measure j, stacked when the set is built.
    Built from any iterable of weight rows, each validated and
    renormalized by itself."""

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


def credal_set_from_rows(rows) -> CredalSet:
    """Build a credal set from an iterable of weight rows (validated per row)."""
    return CredalSet(rows)


# the most cells (events x measures x outcomes) of partial sums that
# event_probability_table holds at once
TABLE_CELLS = 1 << 16


def event_probability_table(weights: np.ndarray, members: np.ndarray) -> np.ndarray:
    """P_j(A_e) for weight rows (measures, size) and membership rows
    (events, size); shape (events, measures). Each entry is the
    left-to-right sum of the event's member weights from +0.0, taken as one
    prefix sum along the outcome axis of the terms ``member * weight``
    (``np.add.accumulate``, strictly sequential), in blocks of as many
    events as TABLE_CELLS terms hold (one at least), so a large family
    takes bounded memory.

    The sum is kept bit for bit. A non-member's term is ±0.0, and adding
    ±0.0 leaves any sum but a zero unchanged; the prefix sum starts from
    the first term rather than +0.0, which changes at most the sign of a
    zero (it ends at -0.0 when every term is -0.0). The final ``+ 0.0``
    turns a -0.0 into +0.0 and leaves every other value as it is, so no
    entry is -0.0, whatever -0.0 weights the rows hold. So
    monotonicity is exact in floats: weights are >= 0 and rounding is
    monotone, hence for A ⊆ B each partial sum of B is >= the matching one
    of A, and P_j(A) <= P_j(B) exactly.
    """
    members = np.asarray(members, dtype=bool)
    if members.ndim != 2 or members.shape[1] != weights.shape[1]:
        raise DimensionMismatchError(
            f"membership rows of shape {members.shape} for "
            f"{weights.shape[1]} outcomes")
    table = np.empty((members.shape[0], weights.shape[0]))
    step = max(1, TABLE_CELLS // weights.size)
    for lo in range(0, len(members), step):
        terms = members[lo:lo + step, None, :] * weights
        np.add.accumulate(terms, axis=2, out=terms)
        table[lo:lo + step] = terms[:, :, -1] + 0.0
    return table


def power_set_table(weights: np.ndarray) -> np.ndarray:
    """P_j(A_k) for weight rows (measures, size) and every event k of the
    power set in bitmask order (``capacity.all_events``: outcome i is in
    event k when bit i of k is set); measure-major, shape
    (measures, 2**size). Built by doubling from column 0 = +0.0: the
    columns 2**w .. 2**(w+1) - 1 are the columns 0 .. 2**w - 1 plus
    weight w.

    This is :func:`event_probability_table`'s sum, bit for bit: column k,
    with highest bit h, is column k - 2**h plus weight h, so by induction
    it is +0.0 plus the weights of k's members added in increasing outcome
    order. It starts from +0.0 and +0.0 + -0.0 is +0.0, so no entry is
    -0.0 either.
    """
    measures, size = weights.shape
    table = np.empty((measures, 1 << size))
    table[:, 0] = 0.0
    for w in range(size):
        np.add(table[:, :1 << w], weights[:, w, None],
               out=table[:, 1 << w:2 << w])
    return table
