"""Weight schedules, truncation calculus and exponential moment bounds.

A weight schedule pairs per-step weights a_i > 0 with a normalizing sequence
A_n used to form S_n = sum_{i<=n} a_i (x_i - center_i) / A_n. Two named
schedules cover the classical laws: ``kolmogorov`` (a_i = 1, A_n = n) and
``mz`` (a_i = 1, A_n = n^{1/p}, 1 <= p < 1 + min(1, alpha)); ``custom``
exposes the catalog (constant | harmonic | table weights, linear | power |
table normalizers).

The shape parameter beta must satisfy A_n / n^{1/(beta+1)} -> infinity for
the exponential moment machinery to close; the validator probes that growth
at three horizon points (report-only; the simulator refuses invalid
schedules). Truncation clips a variable around its upper mean at the
schedule-determined half-width c_i = C A_i / (a_i log(i+1)) and recenters so
the upper mean is exactly preserved; natural logs throughout.
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
)
from .expectation import upper_expectation
from .models import SequenceModel, product_expectation_table
from .reports import CheckResult, all_passed, comparison

KOLMOGOROV = "kolmogorov"
MZ = "mz"
CUSTOM = "custom"

# minimum growth of r_n = A_n / n^{1/(beta+1)} between the first and last
# probe (two decades apart): admits slow polynomial growth such as n^{2/15}
# (ratio ~1.85) while rejecting the boundary case A_n = n^{1/(beta+1)}
# (ratio 1) and anything decaying
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

    ``a_kind``: "constant" (a_param = the value) | "harmonic"
    (a_i = 1 + 1/i) | "table" (a_param = positive tuple).
    ``A_kind``: "linear" | "power" (A_param = exponent in (0, 1]) | "table".
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

    def a(self, i) -> np.ndarray:
        ii = _as_index_array(i)
        if self.a_kind == "constant":
            return np.full_like(ii, float(self.a_param))
        if self.a_kind == "harmonic":
            return 1.0 + 1.0 / ii
        if self.a_kind == "table":
            return _lookup(self._tables[0], ii, "weight")
        raise ValueError(f"unknown weight rule {self.a_kind!r}")

    def A(self, n) -> np.ndarray:
        nn = _as_index_array(n)
        if self.A_kind == "linear":
            return nn.copy()  # never the caller's own array
        if self.A_kind == "power":
            return nn ** float(self.A_param)
        if self.A_kind == "table":
            return _lookup(self._tables[1], nn, "normalizer")
        raise ValueError(f"unknown normalizer rule {self.A_kind!r}")

    @cached_property
    def _tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The "table" rules' tuples as arrays, converted once."""
        return (np.asarray(self.a_param, dtype=float),
                np.asarray(self.A_param, dtype=float))

    def table(self, stop: int, start: int = 0
              ) -> tuple[np.ndarray, np.ndarray]:
        """The arrays (a_i, A_i) for i = start+1..stop, so ``table(n)`` is
        the whole table to a horizon n. Every rule is elementwise, so a
        block's ``table(stop, start)`` is bit for bit ``table(stop)``'s
        slice [start:stop]."""
        ii = np.arange(start + 1, stop + 1, dtype=float)
        return self.a(ii), self.A(ii)

    @property
    def descriptor(self) -> dict:
        return {"kind": self.kind, "p": self.p, "alpha": self.alpha,
                "beta": self.beta, "C": self.C, "m": self.m}


def make_schedule(kind: str, alpha: float, beta: float, C: float = 1.0,
                  m: float = 2.0, p: float | None = None,
                  a_rule: tuple | None = None,
                  A_rule: tuple | None = None) -> WeightSchedule:
    """Build and validate a schedule.

    kolmogorov: a_i = 1, A_n = n, beta in (0, min(1, alpha)).
    mz (alias marcinkiewicz): a_i = 1, A_n = n^{1/p} with
    1 <= p < 1 + min(1, alpha) and beta in (p - 1, min(1, alpha)).
    custom: a_rule/A_rule pick from the catalog, beta in (0, min(1, alpha)).
    """
    if alpha <= 0:
        raise AlphaOutOfRangeError(f"alpha must be > 0, got {alpha}")
    if C <= 0 or m <= 0:
        raise ValueError(f"C and m must be > 0, got C={C}, m={m}")
    cap = min(1.0, alpha)
    kind = {"marcinkiewicz": MZ}.get(kind, kind)

    if kind == KOLMOGOROV:
        if not 0.0 < beta < cap:
            raise BetaOutOfRangeError(
                f"beta={beta} outside (0, {cap}) for kolmogorov")
        return WeightSchedule(KOLMOGOROV, alpha, beta, C, m)

    if kind == MZ:
        if p is None or not 1.0 <= p < 1.0 + cap:
            raise POutOfRangeError(
                f"mz needs 1 <= p < {1.0 + cap}, got p={p}")
        if not p - 1.0 < beta < cap:
            raise BetaOutOfRangeError(
                f"beta={beta} outside ({p - 1.0}, {cap}) for mz with p={p}")
        return WeightSchedule(MZ, alpha, beta, C, m, p=p,
                              A_kind="power", A_param=1.0 / p)

    if kind == CUSTOM:
        if not 0.0 < beta < cap:
            raise BetaOutOfRangeError(
                f"beta={beta} outside (0, {cap}) for custom schedule")
        a_kind, a_param = a_rule if a_rule is not None else ("constant", 1.0)
        A_kind, A_param = A_rule if A_rule is not None else ("linear", 1.0)
        if a_kind == "constant" and float(a_param) <= 0:
            raise ValueError(f"constant weight must be > 0, got {a_param}")
        if a_kind == "table" and np.asarray(a_param, dtype=float).min() <= 0:
            raise ValueError("weight table entries must be > 0")
        if A_kind == "power" and not 0.0 < float(A_param) <= 1.0:
            raise POutOfRangeError(
                f"power normalizer exponent must be in (0, 1], got {A_param}")
        sched = WeightSchedule(CUSTOM, alpha, beta, C, m, p=p,
                               a_kind=a_kind, a_param=a_param,
                               A_kind=A_kind, A_param=A_param)
        return sched

    raise ValueError(f"unknown schedule kind {kind!r}")


@dataclass(frozen=True)
class ScheduleValidation:
    passed: bool
    probes: tuple[int, int, int]
    r_values: tuple[float, float, float]
    growth_ratio: float
    weight_sup: float
    results: tuple[CheckResult, ...]


def validate_schedule(schedule: WeightSchedule, horizon: int) -> ScheduleValidation:
    """Probe the divergence surrogate r_n = A_n / n^{1/(beta+1)} at
    n in {N/100, N/10, N}: r must be strictly increasing with
    r_N > GROWTH_FACTOR * r_{N/100}. Also samples a_i for positivity and a
    finite sup, and A for positivity and strict increase. Report-only; see
    the simulator for the enforcing path."""
    if horizon < 100:
        raise ValueError(f"validation horizon must be >= 100, got {horizon}")
    probes = (max(1, horizon // 100), max(1, horizon // 10), horizon)
    exponent = 1.0 / (schedule.beta + 1.0)
    r = tuple(float(schedule.A(n) / n ** exponent) for n in probes)
    ratio = r[2] / r[0] if r[0] > 0 else float("inf")

    sample = np.unique(np.geomspace(1, horizon, num=min(horizon, 4096)).astype(int))
    a_vals = schedule.a(sample)
    A_vals = schedule.A(sample)
    results = (
        comparison("r-strictly-increasing", 0.0 if r[0] < r[1] < r[2] else 1.0,
                   0.0, 0.0, {"r": list(r), "probes": list(probes)}),
        comparison("r-growth", GROWTH_FACTOR * r[0], r[2], 0.0,
                   {"ratio": ratio, "required": GROWTH_FACTOR}),
        comparison("weights-positive", 0.0 if a_vals.min() > 0 else 1.0, 0.0, 0.0,
                   {"min": float(a_vals.min())}),
        comparison("normalizer-positive", 0.0 if A_vals.min() > 0 else 1.0, 0.0, 0.0,
                   {"min": float(A_vals.min())}),
        comparison("normalizer-increasing",
                   0.0 if np.all(np.diff(A_vals) > 0) else 1.0, 0.0, 0.0),
    )
    return ScheduleValidation(all_passed(results), probes, r, ratio,
                              float(a_vals.max()), results)


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


def normalized_partial_sums(values, table: tuple[np.ndarray, np.ndarray],
                            centers=None, carry: np.ndarray | None = None,
                            out: tuple[np.ndarray, np.ndarray] | None = None):
    """S_n = sum_{i<=n} a_i (x_i - center_i) / A_n for n = 1..N along the
    last axis of ``values`` (one path, or a block of paths by steps), one
    prefix-sum pass. ``table`` is ``WeightSchedule.table(m)`` for m >= N,
    or ``table(stop, start)`` for a block's steps; the steps run in one
    buffer, in the order subtract, scale, cumsum, divide, so the result is
    bit for bit ``np.cumsum(a * (x - c)) / A``.

    The paired form takes no ``centers``: ``values`` is a complex128 array
    of terms already centred twice, x_i - c_i in the real part and
    x_i - d_i in the imaginary part, and the result is the pair of real
    trajectories (centred on c, centred on d). numpy adds complex numbers
    part by part, so one complex cumsum makes both prefix sums, each bit
    for bit its float64 cumsum. ``a`` scales the float parts: a complex
    times a real would promote a to a + 0j, and x * a - y * 0 can flip the
    sign of a zero. The terms are summed in place, so ``values`` ends
    holding the running sums, and each part divided by A is written to the
    two float arrays of ``out`` (new ones when it is None).

    ``carry``, when given, holds each path's running sum
    sum_{i<t0} a_i (x_i - c_i) of the steps before the block (complex in
    the paired form) and is advanced in place to the block's last step.
    It is added to the block's first scaled term before the cumsum, which
    is the very addition an unbroken cumsum makes there, so a path summed
    block by block gets the bits of the one-pass sums. Start it at -0.0
    (``complex(-0.0, -0.0)`` for pairs): -0.0 + x == x for every float x,
    so an empty prefix changes no bit, not even a sign of zero.
    """
    paired = centers is None
    a, A = table
    n = np.shape(values)[-1]
    n_centers = n if paired else np.size(centers)
    if min(n_centers, len(a), len(A)) < n:
        raise LengthMismatchError(
            f"{n_centers} centers, {len(a)} weights and {len(A)} normalizers "
            f"for {n} steps; need at least as many of each")
    if paired:
        terms = values
        parts = terms.view(np.float64)  # (re, im) of each term, interleaved
        np.multiply(parts, np.repeat(a[:n], 2), out=parts)
    else:
        terms = np.subtract(np.asarray(values, dtype=float),
                            np.asarray(centers, dtype=float)[:n])
        terms *= a[:n]
    carried = carry is not None and n > 0
    if carried:
        terms[..., 0] += carry
    np.cumsum(terms, axis=-1, out=terms)
    if carried:
        carry[...] = terms[..., -1]
    if not paired:
        terms /= A[:n]
        return terms
    if out is None:
        out = (np.empty(terms.shape), np.empty(terms.shape))
    np.divide(terms.real, A[:n], out=out[0])
    np.divide(terms.imag, A[:n], out=out[1])
    return out
