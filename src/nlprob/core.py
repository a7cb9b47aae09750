"""Finite outcome spaces, measures, credal sets, random variables.

Conventions
-----------
* An outcome space is ``{0, ..., size-1}``; labels are optional decoration.
* Events are index sets, not predicates, so complements and enumeration are
  exact.
* A credal set is a nonempty *ordered* list of probability measures on one
  space. Order matters: upper/lower envelopes report maximizer indices, and
  adversary strategies pick measures by index. Duplicates are permitted but
  flagged by :func:`CredalSet.duplicate_pairs`.
* All container types are immutable; arrays they hold are read-only views.
  Every operation is a pure function of its inputs.

Tolerances: weights may undershoot zero by at most ``1e-15`` (clamped), and
must sum to 1 within ``1e-12``; within that band they are renormalized by
exact division.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyVectorError,
    IndexOutOfRangeError,
    NegativeWeightError,
    NonFiniteError,
    NotNormalizedError,
)

WEIGHT_FLOOR = -1e-15
NORMALIZATION_TOL = 1e-12


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float, copy=True)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class OutcomeSpace:
    """A finite sample space of ``size`` outcomes, optionally labeled."""

    size: int
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.size, int) or self.size < 1:
            raise EmptyVectorError(f"outcome space needs size >= 1, got {self.size!r}")
        if self.labels is not None:
            labels = tuple(self.labels)
            object.__setattr__(self, "labels", labels)
            if len(labels) != self.size:
                raise DimensionMismatchError(
                    f"{len(labels)} labels for {self.size} outcomes"
                )
            if len(set(labels)) != len(labels):
                raise ValueError("outcome labels must be unique")

    def outcomes(self) -> range:
        return range(self.size)


@dataclass(frozen=True)
class Event:
    """A subset of an outcome space, stored as a frozen index set.

    ``size`` pins the ambient space so complements are well defined and
    dimension checks are possible without carrying the space object around.
    """

    size: int
    members: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        members = frozenset(int(i) for i in self.members)
        object.__setattr__(self, "members", members)
        if self.size < 1:
            raise EmptyVectorError("event needs an ambient space of size >= 1")
        for i in members:
            if i < 0 or i >= self.size:
                raise IndexOutOfRangeError(
                    f"outcome index {i} outside space of size {self.size}"
                )

    def complement(self) -> "Event":
        return Event(self.size, frozenset(range(self.size)) - self.members)

    def union(self, other: "Event") -> "Event":
        _check_same_size(self.size, other.size)
        return Event(self.size, self.members | other.members)

    def intersection(self, other: "Event") -> "Event":
        _check_same_size(self.size, other.size)
        return Event(self.size, self.members & other.members)

    def issubset(self, other: "Event") -> bool:
        _check_same_size(self.size, other.size)
        return self.members <= other.members

    def indicator(self) -> np.ndarray:
        ind = np.zeros(self.size)
        ind[sorted(self.members)] = 1.0
        return ind

    @property
    def is_empty(self) -> bool:
        return not self.members

    @property
    def is_full(self) -> bool:
        return len(self.members) == self.size

    def sorted_members(self) -> list[int]:
        return sorted(self.members)


def _check_same_size(a: int, b: int) -> None:
    if a != b:
        raise DimensionMismatchError(f"outcome-space sizes differ: {a} vs {b}")


@dataclass(frozen=True, eq=False)
class ProbabilityMeasure:
    """A probability vector on a finite space. Build via :func:`make_measure`."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", _readonly(self.weights))

    @property
    def size(self) -> int:
        return self.weights.shape[0]


def make_measure(weights) -> ProbabilityMeasure:
    """Validate and exactly renormalize a weight vector.

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
    return ProbabilityMeasure(w / total)


def uniform_measure(size: int) -> ProbabilityMeasure:
    return make_measure(np.full(size, 1.0 / size))


def dirac_measure(size: int, outcome: int) -> ProbabilityMeasure:
    if outcome < 0 or outcome >= size:
        raise IndexOutOfRangeError(f"outcome {outcome} outside space of size {size}")
    w = np.zeros(size)
    w[outcome] = 1.0
    return ProbabilityMeasure(w)


@dataclass(frozen=True, eq=False)
class RandomVariable:
    """A real-valued map on a finite space, stored as its value vector."""

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise EmptyVectorError("random variable needs a nonempty value vector")
        if not np.all(np.isfinite(v)):
            raise NonFiniteError("random variable values must be finite")
        object.__setattr__(self, "values", _readonly(v))

    @property
    def size(self) -> int:
        return self.values.shape[0]

    def map(self, fn) -> "RandomVariable":
        """Pointwise image; ``fn`` must accept an ndarray."""
        return RandomVariable(np.asarray(fn(self.values), dtype=float))


def indicator_variable(event: Event) -> RandomVariable:
    return RandomVariable(event.indicator())


@dataclass(frozen=True, eq=False)
class CredalSet:
    """An ordered, nonempty family of measures on one outcome space."""

    space: OutcomeSpace
    measures: tuple[ProbabilityMeasure, ...]

    def __post_init__(self) -> None:
        measures = tuple(self.measures)
        object.__setattr__(self, "measures", measures)
        if not measures:
            raise EmptyVectorError("credal set needs at least one measure")
        for j, m in enumerate(measures):
            if m.size != self.space.size:
                raise DimensionMismatchError(
                    f"measure {j} has size {m.size}, space has {self.space.size}"
                )
        weights = np.vstack([m.weights for m in measures])
        weights.setflags(write=False)
        object.__setattr__(self, "_weights", weights)

    def __len__(self) -> int:
        return len(self.measures)

    @property
    def size(self) -> int:
        return self.space.size

    def weight_matrix(self) -> np.ndarray:
        """Measures stacked as rows; shape (len(self), space.size). One
        read-only array, stacked when the set is built."""
        return self._weights

    def duplicate_pairs(self) -> list[tuple[int, int]]:
        """Index pairs (i < j) of exactly identical measures. Permitted, flagged."""
        out = []
        for i in range(len(self.measures)):
            for j in range(i + 1, len(self.measures)):
                if np.array_equal(self.measures[i].weights, self.measures[j].weights):
                    out.append((i, j))
        return out


def credal_set_from_rows(rows, labels: tuple[str, ...] | None = None) -> CredalSet:
    """Build a credal set from an iterable of weight rows (validated per row)."""
    measures = tuple(make_measure(r) for r in rows)
    if not measures:
        raise EmptyVectorError("credal set needs at least one measure")
    return CredalSet(OutcomeSpace(measures[0].size, labels), measures)


def classical_expectation(measure: ProbabilityMeasure, variable: RandomVariable) -> float:
    """Linear expectation E_P[X] = sum_w P(w) X(w)."""
    if measure.size != variable.size:
        raise DimensionMismatchError(
            f"measure size {measure.size} vs variable size {variable.size}"
        )
    return float(measure.weights @ variable.values)


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
    table = np.zeros((members.shape[0], weights.shape[0]))
    for w in range(weights.shape[1]):
        table += np.multiply.outer(members[:, w], weights[:, w])
    return table


def event_probability(measure: ProbabilityMeasure, event: Event) -> float:
    """P(A), summed in outcome order (see :func:`event_probability_table`)."""
    if measure.size != event.size:
        raise DimensionMismatchError(
            f"measure size {measure.size} vs event size {event.size}"
        )
    return float(event_probability_table(measure.weights[None, :],
                                         event.indicator()[None, :])[0, 0])
