"""Function catalog: scalar functions and the ramp test functions.

A small closed family of real functions used as integrands, Chebyshev/Jensen
test functions, monotone images and trajectory transforms. Each member
broadcasts over numpy arrays, knows its structural properties (convexity,
monotone direction, evenness) so that preconditions are machine-checkable,
and can report its supremum over the closed nonpositive half-line, which
some transforms do not have (``UnboundedPhiError``).

Members describe themselves as plain descriptors ``{"kind": ..., <params>}``;
:func:`nlprob.config.from_descriptor`, the reader of experiment configs,
inverts :attr:`descriptor`. So do the bounded monotone test functions of
the dependence sweeps (:class:`TestFunction`: ramps, negated ramps and the
constant). The catalog reads no outside input itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import (
    ConfigValidationError,
    MixedMonotonicityError,
    NonPositiveWidthError,
    UnboundedPhiError,
)

INCREASING = "increasing"
DECREASING = "decreasing"
RAMP = "ramp"
NEGATED_RAMP = "negated-ramp"
CONSTANT = "constant"


class ScalarFunction:
    """Base: callable on floats/arrays with declared structure flags."""

    is_convex: bool = False
    monotonicity: str | None = None   # INCREASING | DECREASING | None (weak sense)
    is_even: bool = False
    nondecreasing_on_positive: bool = False

    def __call__(self, x):  # pragma: no cover - abstract
        raise NotImplementedError

    def sup_on_nonpositive(self) -> float:
        """sup over x <= 0, when finite; raises UnboundedPhiError otherwise."""
        raise UnboundedPhiError(f"{self.describe()} is unbounded on x <= 0")

    def lipschitz_on_ray(self, upper: float) -> float:
        """A Lipschitz constant valid on (-inf, upper]; inf when none exists."""
        return float("inf")

    @property
    def descriptor(self) -> dict[str, Any]:  # pragma: no cover - abstract
        raise NotImplementedError

    def describe(self) -> str:
        d = self.descriptor
        params = ", ".join(f"{k}={v}" for k, v in d.items() if k != "kind")
        return f"{d['kind']}({params})"

    def __repr__(self) -> str:
        return f"{type(self).__name__}<{self.describe()}>"


@dataclass(frozen=True, repr=False)
class Affine(ScalarFunction):
    """x -> slope*x + intercept."""

    slope: float = 1.0
    intercept: float = 0.0

    is_convex = True

    def __call__(self, x):
        return self.slope * np.asarray(x, dtype=float) + self.intercept

    @property
    def monotonicity(self):
        if self.slope > 0:
            return INCREASING
        if self.slope < 0:
            return DECREASING
        return INCREASING  # constant is weakly both; report increasing

    def sup_on_nonpositive(self) -> float:
        if self.slope < 0:
            raise UnboundedPhiError("affine with negative slope grows as x -> -inf")
        return float(self.intercept)

    def lipschitz_on_ray(self, upper: float) -> float:
        return abs(self.slope)

    @property
    def descriptor(self):
        return {"kind": "affine", "slope": self.slope, "intercept": self.intercept}


@dataclass(frozen=True, repr=False)
class Exp(ScalarFunction):
    """x -> exp(rate*x). Convex for every rate; positive everywhere."""

    rate: float = 1.0

    is_convex = True

    def __call__(self, x):
        return np.exp(self.rate * np.asarray(x, dtype=float))

    @property
    def monotonicity(self):
        if self.rate > 0:
            return INCREASING
        if self.rate < 0:
            return DECREASING
        return INCREASING

    def sup_on_nonpositive(self) -> float:
        if self.rate < 0:
            raise UnboundedPhiError("exp with negative rate grows as x -> -inf")
        return 1.0

    def lipschitz_on_ray(self, upper: float) -> float:
        if self.rate < 0:
            return float("inf")
        with np.errstate(over="ignore"):  # inf is refused as NonFiniteError
            return abs(self.rate) * float(np.exp(self.rate * upper))

    @property
    def descriptor(self):
        return {"kind": "exp", "rate": self.rate}


@dataclass(frozen=True, repr=False)
class AbsPower(ScalarFunction):
    """x -> |x|^power with power >= 1. Even, convex, increasing on (0, inf)."""

    power: float = 2.0

    is_convex = True
    is_even = True
    nondecreasing_on_positive = True

    def __post_init__(self):
        if self.power < 1:
            raise ConfigValidationError(f"abs-power needs power >= 1, got {self.power}")

    def __call__(self, x):
        return np.abs(np.asarray(x, dtype=float)) ** self.power

    def sup_on_nonpositive(self) -> float:
        raise UnboundedPhiError("|x|^p grows as x -> -inf")

    @property
    def descriptor(self):
        return {"kind": "abs-power", "power": self.power}


@dataclass(frozen=True, repr=False)
class Clamp(ScalarFunction):
    """x -> min(max(x, lo), hi). Weakly increasing, bounded."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise ConfigValidationError(f"clamp needs lo <= hi, got {self.lo}, {self.hi}")

    monotonicity = INCREASING

    def __call__(self, x):
        return np.clip(np.asarray(x, dtype=float), self.lo, self.hi)

    def sup_on_nonpositive(self) -> float:
        # nondecreasing, so the sup over x <= 0 sits at x = 0
        return float(np.clip(0.0, self.lo, self.hi))

    def lipschitz_on_ray(self, upper: float) -> float:
        return 1.0

    @property
    def descriptor(self):
        return {"kind": "clamp", "lo": self.lo, "hi": self.hi}


@dataclass(frozen=True, repr=False)
class MaxAffine(ScalarFunction):
    """x -> max_i (slope_i * x + intercept_i). Convex piecewise-linear."""

    pieces: tuple[tuple[float, float], ...]

    is_convex = True

    def __post_init__(self):
        pieces = tuple((float(a), float(b)) for a, b in self.pieces)
        if not pieces:
            raise ConfigValidationError("max-affine needs at least one piece")
        object.__setattr__(self, "pieces", pieces)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        stack = np.stack([a * x + b for a, b in self.pieces])
        return stack.max(axis=0)

    @property
    def monotonicity(self):
        slopes = [a for a, _ in self.pieces]
        if all(a >= 0 for a in slopes):
            return INCREASING
        if all(a <= 0 for a in slopes):
            return DECREASING
        return None

    def sup_on_nonpositive(self) -> float:
        if any(a < 0 for a, _ in self.pieces):
            raise UnboundedPhiError("max-affine with a negative slope grows as x -> -inf")
        return max(b for _, b in self.pieces)

    def lipschitz_on_ray(self, upper: float) -> float:
        return max(abs(a) for a, _ in self.pieces)

    @property
    def descriptor(self):
        return {"kind": "max-affine", "pieces": [list(p) for p in self.pieces]}


@dataclass(frozen=True, repr=False)
class Polynomial(ScalarFunction):
    """x -> sum_k coeffs[k] * x^k (ascending order)."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coeffs)
        if not coeffs:
            raise ConfigValidationError("polynomial needs at least one coefficient")
        object.__setattr__(self, "coeffs", coeffs)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return np.polynomial.polynomial.polyval(x, np.array(self.coeffs))

    def _trimmed(self) -> tuple[float, ...]:
        c = list(self.coeffs)
        while len(c) > 1 and c[-1] == 0.0:
            c.pop()
        return tuple(c)

    @property
    def monotonicity(self):
        # a line as for Affine, a constant included; higher degrees: none
        c = self._trimmed()
        if len(c) > 2:
            return None
        return DECREASING if len(c) == 2 and c[1] < 0 else INCREASING

    def sup_on_nonpositive(self) -> float:
        c = self._trimmed()
        deg = len(c) - 1
        if deg >= 1:
            lead = c[-1]
            # limit as x -> -inf: sign(lead) * (+inf) for even degree,
            # -sign(lead) * inf for odd degree
            diverges_up = (deg % 2 == 0 and lead > 0) or (deg % 2 == 1 and lead < 0)
            if diverges_up:
                raise UnboundedPhiError("polynomial grows as x -> -inf")
        candidates = [float(np.polynomial.polynomial.polyval(0.0, np.array(c)))]
        if deg >= 2:
            deriv = np.polynomial.polynomial.polyder(np.array(c))
            for r in np.polynomial.polynomial.polyroots(deriv):
                if abs(r.imag) < 1e-12 and r.real <= 0.0:
                    candidates.append(
                        float(np.polynomial.polynomial.polyval(r.real, np.array(c))))
        return max(candidates)

    def lipschitz_on_ray(self, upper: float) -> float:
        # a line's slope (0 for a constant); a higher degree has none
        c = self._trimmed()
        if len(c) > 2:
            return float("inf")
        return abs(c[1]) if len(c) == 2 else 0.0

    @property
    def descriptor(self):
        return {"kind": "polynomial", "coeffs": list(self.coeffs)}


@dataclass(frozen=True)
class TestFunction:
    """A bounded monotone test function with values in [0, 1].

    ``ramp``: clamp((x - threshold)/width, 0, 1), increasing.
    ``negated-ramp``: 1 - ramp, decreasing.
    ``constant``: always 1; belongs to either direction and is the unit of
    the product.
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
