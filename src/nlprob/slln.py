"""Weight schedules, truncation calculus and exponential moment bounds.

A weight schedule pairs per-step weights a_i > 0 with a normalizing sequence
A_n used to form S_n = sum_{i<=n} a_i (x_i - center_i) / A_n, the sums
``nlprob.simulate`` forms. Two named schedules cover the classical laws:
``kolmogorov`` (a_i = 1, A_n = n) and ``mz`` (a_i = 1, A_n = n^{1/p},
1 <= p < 1 + min(1, alpha)); ``custom``, the one kind that takes rules,
exposes the catalog (constant | harmonic | table weights, linear | power |
table normalizers). A schedule's rules are checked when it is built.

The shape parameter beta must satisfy A_n / n^{1/(beta+1)} -> infinity for
the exponential moment machinery to close; building a schedule decides it,
a table's as far as a table can, and the validator returns what a horizon
adds as records, on which the simulator refuses a schedule. Truncation
clips a variable around its upper mean at the schedule-determined
half-width c_i = C A_i / (a_i log(i+1)) and recenters so the upper mean is
exactly preserved; natural logs throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .core import CredalSet, RandomVariable
from .errors import (
    AlphaOutOfRangeError,
    BetaOutOfRangeError,
    DegenerateLogError,
    IndexOutOfRangeError,
    LengthMismatchError,
    POutOfRangeError,
    ScheduleInvalidError,
)
from .expectation import upper_expectation
from .models import SequenceModel, product_expectation_table
from .reports import CheckResult, comparison

KOLMOGOROV = "kolmogorov"
MZ = "mz"
CUSTOM = "custom"

# a heuristic, read for normalizer tables alone (no finite table can show
# divergence): r_n = A_n / n^{1/(beta+1)} must grow by this factor over the
# table's last two decades, which admits slow polynomial growth such as
# n^{2/15} (ratio ~1.85) and refuses a flat or decaying r_n
GROWTH_FACTOR = 1.25

ELEMENTARY_SLACK = 1e-12


def _as_index_array(i) -> np.ndarray:
    ii = np.asarray(i, dtype=float)
    if ii.size and ii.min() < 1:
        raise IndexOutOfRangeError("step indices are 1-based")
    return ii


def _lookup(table: np.ndarray, ii: np.ndarray, what: str) -> np.ndarray:
    idx = ii.astype(int) - 1
    if idx.size and idx.max() >= table.size:
        raise LengthMismatchError(
            f"{what} table has {table.size} entries, asked for index "
            f"{int(idx.max()) + 1}")
    return table[idx]


@dataclass(frozen=True)
class WeightSchedule:
    """Weights a_i and normalizers A_n with their shape parameters.

    ``kind`` sets beta's range (see ``make_schedule``): kolmogorov and
    custom take beta in (0, min(1, alpha)); mz takes 1 <= p < 1 +
    min(1, alpha) and beta in (p - 1, min(1, alpha)). alpha, C and m must
    be > 0.
    ``a_kind``: "constant" (a_param = the value, > 0) | "harmonic"
    (a_i = 1 + 1/i) | "table" (a_param = positive tuple).
    ``A_kind``: "linear" | "power" (A_param = exponent q in (0, 1], and
    q (1 + beta) > 1 exactly outside mz) | "table" (positive, increasing).
    The ranges and rules are checked when the schedule is built, the
    ranges first. Every rule is elementwise, so ``a`` and ``A`` on a block
    of steps give bit for bit the slice of their arrays over the whole
    horizon.
    """

    kind: str
    alpha: float
    beta: float
    C: float = 1.0
    m: float = 2.0
    p: float | None = None
    a_kind: str = "constant"
    a_param: float | tuple[float, ...] = 1.0
    A_kind: str = "linear"
    A_param: float | tuple[float, ...] = 1.0

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise AlphaOutOfRangeError(f"alpha must be > 0, got {self.alpha}")
        if self.C <= 0 or self.m <= 0:
            raise ValueError(
                f"C and m must be > 0, got C={self.C}, m={self.m}")
        if self.kind not in (KOLMOGOROV, MZ, CUSTOM):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        cap, p = min(1.0, self.alpha), self.p
        low, where = 0, ("custom schedule" if self.kind == CUSTOM
                         else self.kind)
        if self.kind == MZ:
            if p is None or not 1.0 <= p < 1.0 + cap:
                raise POutOfRangeError(
                    f"mz needs 1 <= p < {1.0 + cap}, got p={p}")
            low, where = p - 1.0, f"mz with p={p}"
        if not low < self.beta < cap:
            raise BetaOutOfRangeError(
                f"beta={self.beta} outside ({low}, {cap}) for {where}")
        if self.a_kind not in ("constant", "harmonic", "table"):
            raise ValueError(f"unknown weight rule {self.a_kind!r}")
        if self.A_kind not in ("linear", "power", "table"):
            raise ValueError(f"unknown normalizer rule {self.A_kind!r}")
        if self.a_kind == "constant" and float(self.a_param) <= 0:
            raise ValueError(
                f"constant weight must be > 0, got {self.a_param}")
        if self.a_kind == "table" and not (self._tables[0] > 0).all():
            raise ValueError("weight table entries must be > 0")
        if self.A_kind == "table":  # entry 1 > 0, each later one > the last
            rises = np.diff(self._tables[1], prepend=0.0) > 0
            if not rises.all():
                k = int(rises.argmin())
                raise ScheduleInvalidError(
                    f"normalizer table entries must be > 0 and strictly "
                    f"increase; entry {k + 1} is {self._tables[1][k]}")
        if self.A_kind == "power" and not 0.0 < float(self.A_param) <= 1.0:
            raise POutOfRangeError(f"power normalizer exponent must be in "
                                   f"(0, 1], got {self.A_param}")
        if self.A_kind == "power" and self.kind != MZ:  # p's range decides mz
            from fractions import Fraction  # loaded for these alone
            if Fraction(self.A_param) * (1 + Fraction(self.beta)) <= 1:
                raise ScheduleInvalidError(
                    f"power normalizer exponent q={self.A_param} must exceed "
                    f"1/(beta+1)={1 / (self.beta + 1)}")

    def a(self, i) -> np.ndarray:
        ii = _as_index_array(i)
        if self.a_kind == "constant":
            return np.full_like(ii, float(self.a_param))
        if self.a_kind == "harmonic":
            return 1.0 + 1.0 / ii
        return _lookup(self._tables[0], ii, "weight")

    def A(self, n) -> np.ndarray:
        nn = _as_index_array(n)
        if self.A_kind == "linear":
            return nn.copy()  # never the caller's own array
        if self.A_kind == "power":
            return nn ** float(self.A_param)
        return _lookup(self._tables[1], nn, "normalizer")

    @property
    def constant_weight(self) -> float | None:
        """The weight a_i when the rule gives every i the same one (the
        value ``a`` returns at each index), else None."""
        return float(self.a_param) if self.a_kind == "constant" else None

    @cached_property
    def _tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The "table" rules' tuples as arrays, converted once."""
        return (np.asarray(self.a_param, dtype=float),
                np.asarray(self.A_param, dtype=float))

    @property
    def descriptor(self) -> dict:
        return {"kind": self.kind, "p": self.p, "alpha": self.alpha,
                "beta": self.beta, "C": self.C, "m": self.m}


def make_schedule(kind: str, alpha: float, beta: float, C: float = 1.0,
                  m: float = 2.0, p: float | None = None,
                  a_rule: tuple | None = None,
                  A_rule: tuple | None = None) -> WeightSchedule:
    """Build a schedule; the kinds differ only in their rules and in
    beta's lower bound, which ``WeightSchedule`` checks with the other
    ranges.

    kolmogorov: a_i = 1, A_n = n, beta in (0, min(1, alpha)).
    mz (alias marcinkiewicz): a_i = 1, A_n = n^{1/p} with
    1 <= p < 1 + min(1, alpha) and beta in (p - 1, min(1, alpha)).
    custom: a_rule/A_rule, each a (kind, param) pair of the catalog
    (``WeightSchedule``), default ("constant", 1.0) and ("linear", 1.0);
    beta in (0, min(1, alpha)). Only custom takes rules, and only mz takes p.
    """
    kind = {"marcinkiewicz": MZ}.get(kind, kind)
    if kind in (KOLMOGOROV, MZ) and (a_rule, A_rule) != (None, None):
        raise ValueError(f"{kind} takes no a_rule or A_rule; use custom")
    if kind in (KOLMOGOROV, CUSTOM) and p is not None:
        raise ValueError(f"{kind} takes no p; p belongs to mz")
    if kind == MZ:  # a p out of range is refused before the rule is read
        A_rule = ("power", 1.0 / p if p else None)
    a_kind, a_param = ("constant", 1.0) if a_rule is None else a_rule
    A_kind, A_param = ("linear", 1.0) if A_rule is None else A_rule
    return WeightSchedule(kind, alpha, beta, C, m, p, a_kind, a_param,
                          A_kind, A_param)


def validate_schedule(schedule: WeightSchedule,
                      horizon: int) -> tuple[CheckResult, ...]:
    """What ``horizon`` adds to the checks made when ``schedule`` was built:
    each table rule is read there (a shorter table raises
    LengthMismatchError), and a normalizer table gets one record,
    ``r-growth``: r_N > GROWTH_FACTOR * r_{N/100} for r_n = A_n /
    n^{1/(beta+1)}, a heuristic. Any other schedule has no record."""
    if horizon < 100:
        raise ValueError(f"validation horizon must be >= 100, got {horizon}")
    schedule.a(horizon)
    if schedule.A_kind != "table":
        return ()
    first, last = (float(schedule.A(n) / n ** (1.0 / (schedule.beta + 1.0)))
                   for n in (horizon // 100, horizon))
    return (comparison("r-growth", GROWTH_FACTOR * first, last, 0.0,
                       {"ratio": last / first, "required": GROWTH_FACTOR}),)


@dataclass(frozen=True)
class TruncationParams:
    """Clip-and-recenter parameters for coordinate i."""

    index: int
    center: float       # b_i, the coordinate's upper mean
    half_width: float   # c_i = C A_i / (a_i log(i+1))
    recenter: float     # d_i, restores the upper mean exactly


def truncation_params(schedule: WeightSchedule, i: int, credal: CredalSet,
                      variable: RandomVariable) -> TruncationParams:
    if i < 1:
        raise DegenerateLogError(f"coordinate index must be >= 1, got {i}")
    b = upper_expectation(credal, variable)
    with np.errstate(over="ignore"):  # an inf half-width is NonFiniteError later
        c = float(schedule.C * schedule.A(i) / (schedule.a(i) * math.log(i + 1)))
    clipped = np.clip(variable.values - b, -c, c)
    d = b - upper_expectation(credal, RandomVariable(clipped))
    return TruncationParams(i, b, c, d)


def truncate(variable: RandomVariable, params: TruncationParams) -> RandomVariable:
    """clip(X - b, -c, c) + d. Keeps the upper mean of X exactly (the shift d
    cancels the clip's bias by translation invariance) and pins the values
    within 2c of the upper mean, well inside the 6c envelope the moment
    machinery assumes."""
    return RandomVariable(
        np.clip(variable.values - params.center,
                -params.half_width, params.half_width) + params.recenter)


class ElementaryBoundCheck(NamedTuple):
    lhs: np.ndarray
    rhs: np.ndarray
    passed: bool


def elementary_exp_bound_check(x, alpha: float) -> ElementaryBoundCheck:
    """Check exp(x) <= 1 + x + |x|^{alpha+1} exp(2|x|) pointwise.

    Valid for alpha in (0, 1]; raises AlphaOutOfRangeError otherwise.
    ``x`` may be a scalar or array; ``passed`` aggregates with 1e-12 slack.
    """
    if not 0.0 < alpha <= 1.0:
        raise AlphaOutOfRangeError(f"alpha must be in (0, 1], got {alpha}")
    xv = np.asarray(x, dtype=float)
    lhs = np.exp(xv)
    rhs = 1.0 + xv + np.abs(xv) ** (alpha + 1.0) * np.exp(2.0 * np.abs(xv))
    return ElementaryBoundCheck(lhs, rhs, bool(np.all(lhs <= rhs + ELEMENTARY_SLACK)))


def exp_moment_bound(model: SequenceModel, schedule: WeightSchedule,
                     n: int) -> float:
    """Upper expectation of exp{(m log(n+1)/A_n) sum_{i<=n} a_i(X_i - b_i)}
    with b_i the coordinate upper means."""
    if n < 1:
        raise IndexOutOfRangeError(f"need n >= 1, got {n}")
    scale = schedule.m * math.log(n + 1) / float(schedule.A(n))
    rows = []
    for i in range(1, n + 1):
        v = model.variable_at(i)
        b = upper_expectation(model.credal, v)
        rows.append(np.exp(scale * float(schedule.a(i)) * (v.values - b)))
    return float(product_expectation_table(model, np.vstack(rows)).max())

