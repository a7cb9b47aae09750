"""Adversarial Monte Carlo for weighted strong laws.

A rectangular-product model leaves one measure choice per step to an
adversary; a strategy fixes how that choice is made: ``fixed(j)`` plays one
measure; ``cyclic`` walks the credal list; ``iid-random`` draws uniformly
(own substream); ``drift-max`` plays a measure maximizing the coordinate's
linear mean (lowest index on ties). Against every strategy the theory pins
the normalized weighted sums between the lower and upper envelopes:

    limsup S_n^{upper} <= 0,   liminf S_n^{lower} >= 0,

where the upper-centered trajectory subtracts coordinate upper means and the
lower-centered one subtracts lower means. The experiment runner measures the
finite-horizon proxies: the fraction of paths whose tail (n >= n0) exceeds
+eps (upper) or dips under -eps (lower). The laws are almost-sure limit
statements and promise nothing at a fixed horizon, so a correct sampler
crosses a fixed eps with a probability set by the fluctuation scale of the
sums at n0, which depends on A_n and n0: with A_n = n^0.8 and n0 = 1e4 that
scale is about 0.029 and a driftless path crosses eps = 0.05 about one time
in ten, while with A_n = n the same eps sits near 11 sigma.

Per experiment the weight table (a_i, A_n) is evaluated once and shared by
every path; per path the sampler draws one uniform per step and inverts the
chosen measure's CDF by bisecting for the count of cumulative weights at or
below it (see ``sample_path``), then forms both trajectories from the same
values.

Determinism: each path's generator is derived from (master seed, strategy
index, path index) via seed-sequence spawn keys, and aggregation reduces in
path order, so results are bit-identical for any worker count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, NamedTuple, Sequence

import numpy as np

from .errors import (
    BadStrategyParamError,
    IndexOutOfRangeError,
    ScheduleInvalidError,
    SimulationOrderError,
    UnsupportedModelError,
)
from .expectation import expectation_values
from .functions import ScalarFunction
from .models import SequenceModel
from .slln import WeightSchedule, normalized_partial_sums, validate_schedule

FIXED = "fixed"
CYCLIC = "cyclic"
IID_RANDOM = "iid-random"
DRIFT_MAX = "drift-max"

DEFAULT_EPSILON = 0.05
_ORDER_SLACK = 1e-9


@dataclass(frozen=True)
class AdversaryStrategy:
    """A measure-selection rule. ``index`` is required for ``fixed``;
    ``salt`` keeps ``iid-random`` independent of the outcome stream."""

    kind: str
    index: int | None = None
    salt: int = 0

    def __post_init__(self) -> None:
        if self.kind not in (FIXED, CYCLIC, IID_RANDOM, DRIFT_MAX):
            raise BadStrategyParamError(f"unknown strategy kind {self.kind!r}")
        if self.kind == FIXED:
            if self.index is None or self.index < 0:
                raise BadStrategyParamError(
                    f"fixed strategy needs a measure index >= 0, got {self.index}")
        elif self.index is not None:
            raise BadStrategyParamError(
                f"{self.kind} strategy takes no measure index")

    @property
    def label(self) -> str:
        if self.kind == FIXED:
            return f"fixed({self.index})"
        if self.kind == IID_RANDOM:
            return f"iid-random({self.salt})"
        return self.kind


def bundled_strategies() -> tuple[AdversaryStrategy, ...]:
    """The four stock adversaries: fixed(0) stresses the lower envelope the
    way drift-max stresses the upper one; cyclic and iid-random mix."""
    return (AdversaryStrategy(FIXED, 0), AdversaryStrategy(CYCLIC),
            AdversaryStrategy(IID_RANDOM), AdversaryStrategy(DRIFT_MAX))


@dataclass(frozen=True, eq=False)
class SamplePath:
    """One simulated path: measure choices, outcome indices, realized values.

    Replay contract: identical (model, strategy, n_steps, seed) arguments
    reproduce identical arrays, bit for bit.
    """

    seed_key: tuple[int, ...]
    choices: np.ndarray
    outcomes: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        if not (len(self.choices) == len(self.outcomes) == len(self.values)):
            raise IndexOutOfRangeError("path arrays must share one length")


def _seed_sequence(seed, *key: int) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(entropy=seed.entropy,
                                      spawn_key=tuple(seed.spawn_key) + key)
    return np.random.SeedSequence(entropy=int(seed), spawn_key=key)


def _cycle(pattern: np.ndarray, n_steps: int) -> np.ndarray:
    """pattern[t % len(pattern)] for t = 0..n_steps-1, by tiling: an integer
    modulo over every step costs ten times as much."""
    return np.tile(pattern, -(-n_steps // len(pattern)))[:n_steps]


def _strategy_choices(model: SequenceModel, strategy: AdversaryStrategy,
                      n_steps: int, seed) -> np.ndarray:
    m = len(model.credal)
    if strategy.kind == FIXED:
        if strategy.index >= m:
            raise BadStrategyParamError(
                f"fixed({strategy.index}) with only {m} measures")
        return np.full(n_steps, strategy.index, dtype=np.int64)
    if strategy.kind == CYCLIC:
        return _cycle(np.arange(m, dtype=np.int64), n_steps)
    if strategy.kind == IID_RANDOM:
        rng = np.random.Generator(np.random.PCG64(
            _seed_sequence(seed, 1, strategy.salt)))
        return rng.integers(0, m, size=n_steps, dtype=np.int64)
    # drift-max: per distinct coordinate variable, lowest maximizing index
    per_var = np.array([int(expectation_values(model.credal, v).argmax())
                        for v in model.variables], dtype=np.int64)
    return _cycle(per_var, n_steps)


def _inverse_cdf(weights: np.ndarray, choices: np.ndarray,
                 u: np.ndarray) -> np.ndarray:
    """Outcome index of each step: #{k < size - 1 : F_{choices[t]}(k) <= u[t]}
    for the cumulative weights F, by bisection (see ``sample_path`` for why
    it is exact)."""
    m, size = weights.shape
    width = 1 << (size - 1).bit_length()  # the least power of two >= size
    table = np.full((m, width), np.inf)
    table[:, :size - 1] = np.cumsum(weights, axis=1)[:, :-1]
    table = table.ravel()
    row = choices * width
    pos = row.copy()
    step = width // 2
    while step:  # decide the bits of the count, highest first
        pos += step * (table[pos + (step - 1)] <= u)
        step //= 2
    return pos - row


def sample_path(model: SequenceModel, strategy: AdversaryStrategy,
                n_steps: int, seed) -> SamplePath:
    """Simulate one path of a rectangular-product model.

    ``seed`` is an integer or a numpy SeedSequence; the outcome stream and
    an iid-random strategy's choice stream use disjoint substreams of it.

    Step t draws u_t uniform on [0, 1) and takes the outcome

        o_t = #{k < size - 1 : F_{j_t}(k) <= u_t},

    with F_j the cumulative weights of measure j = choices[t]. This is the
    inverse CDF ``min(searchsorted(F_j, u_t, side="right"), size - 1)``
    exactly: a cumulative sum of nonnegative floats is nondecreasing even
    after rounding, so the k with F_j(k) <= u_t form a prefix of the row
    and searchsorted returns its length; counting only over k < size - 1
    caps that length at size - 1 as the clip did (the last entry may round
    below 1.0, so u_t can reach it). Since the counted set is a prefix, its
    length is found by bisection: each row is stored as F_j(0..size-2)
    padded with +inf (never <= u_t) to a power-of-two width W, and log2(W)
    passes of one gather and one comparison set the bits of o_t from the
    highest down. A pass costs the same for every step and measure, so
    there is no sort and no per-measure mask; the cost grows with
    log(size), and a two-outcome space takes one pass.
    """
    if not model.product_measures:
        raise UnsupportedModelError(
            f"sampling needs a rectangular-product model, not {model.joint!r}")
    if n_steps < 1:
        raise IndexOutOfRangeError(f"need n_steps >= 1, got {n_steps}")
    choices = _strategy_choices(model, strategy, n_steps, seed)
    rng = np.random.Generator(np.random.PCG64(_seed_sequence(seed, 0)))
    u = rng.random(n_steps)
    outcomes = _inverse_cdf(model.credal.weight_matrix(), choices, u)
    value_table = np.vstack([v.values for v in model.variables])
    var_idx = _cycle(np.arange(len(model.variables), dtype=np.int64), n_steps)
    values = value_table[var_idx, outcomes]
    base = _seed_sequence(seed)
    return SamplePath(tuple(int(k) for k in base.spawn_key), choices, outcomes,
                      values)


@dataclass(frozen=True)
class PathSummary:
    strategy: str
    path_index: int
    final_upper: float
    final_lower: float
    tail_max_upper: float
    tail_min_lower: float
    phi_tail_sup: float | None = None


@dataclass(frozen=True)
class TrajectorySample:
    """Geometric-grid subsample of one path's two trajectories."""

    strategy: str
    path_index: int
    steps: np.ndarray
    upper: np.ndarray
    lower: np.ndarray


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    config: dict[str, Any]
    n_steps: int
    n_start: int
    epsilon: float
    path_summaries: tuple[PathSummary, ...]
    trajectory_samples: tuple[TrajectorySample, ...]
    upper_exceedance_fraction: float
    lower_undershoot_fraction: float
    per_strategy: dict[str, dict[str, float]]
    phi_bound: float | None = None

    def __post_init__(self) -> None:
        for frac in (self.upper_exceedance_fraction, self.lower_undershoot_fraction):
            if not 0.0 <= frac <= 1.0:
                raise ValueError(f"fraction {frac} outside [0, 1]")
        if not self.n_start < self.n_steps:
            raise ValueError("n_start must be below the horizon")


def sample_grid(n_steps: int, n_start: int, points: int = 160) -> np.ndarray:
    """Geometric step grid including n_start and the horizon, 1-based."""
    g = np.geomspace(1, n_steps, num=min(points, n_steps)).astype(np.int64)
    return np.unique(np.concatenate([g, [n_start, n_steps]]))


def run_slln_experiment(model: SequenceModel, schedule: WeightSchedule,
                        strategies: Sequence[AdversaryStrategy],
                        n_steps: int, paths_per_strategy: int, seed: int,
                        n_start: int | None = None,
                        epsilon: float = DEFAULT_EPSILON,
                        swap_centers: bool = False,
                        phi: ScalarFunction | None = None,
                        jobs: int = 1,
                        grid_points: int = 160) -> ExperimentResult:
    """Run paths for every strategy and measure envelope exceedances.

    The upper-centered trajectory uses coordinate upper means, the
    lower-centered one lower means; ``swap_centers=True`` deliberately
    exchanges them, which must wreck convergence (negative control). When
    ``phi`` is given, each path also records sup phi(S_n^upper) over the
    tail, against phi's sup on the nonpositive axis.

    The exceedance and undershoot fractions are finite-horizon proxies, not
    the almost-sure limits: their false-alarm rate at a given ``epsilon``
    on a correct model depends on the normalizer A_n and on ``n_start``
    (see the module docstring), so a zero-crossing demand needs an
    ``epsilon`` above the fluctuation scale of the sums at ``n_start``.
    """
    validation = validate_schedule(schedule, n_steps)
    if not validation.passed:
        failed = [r.check for r in validation.results if not r.passed]
        raise ScheduleInvalidError(
            f"schedule fails {failed} at horizon {n_steps}")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    if n_start is None:
        n_start = n_steps // 10
    if not 100 <= n_start < n_steps:
        raise ValueError(
            f"n_start must be in [100, {n_steps}), got {n_start}")

    upper_c = np.array([float(expectation_values(model.credal, v).max())
                        for v in model.variables])
    lower_c = np.array([float(expectation_values(model.credal, v).min())
                        for v in model.variables])
    if swap_centers:
        upper_c, lower_c = lower_c, upper_c
    table = schedule.table(n_steps)
    upper_centers = _cycle(upper_c, n_steps)
    lower_centers = _cycle(lower_c, n_steps)
    grid = sample_grid(n_steps, n_start, grid_points)
    phi_bound = phi.sup_on_nonpositive() if phi is not None else None

    def one_path(task: tuple[int, int]) -> tuple[PathSummary, TrajectorySample]:
        si, pi = task
        strat = strategies[si]
        path = sample_path(model, strat, n_steps,
                           _seed_sequence(seed, si, pi))
        s_up = normalized_partial_sums(path.values, table, upper_centers)
        s_low = normalized_partial_sums(path.values, table, lower_centers)
        if not swap_centers and (s_up - s_low).max() > _ORDER_SLACK:
            raise SimulationOrderError(
                "upper-centered sums exceeded lower-centered sums")
        tail_up = s_up[n_start - 1:]
        tail_low = s_low[n_start - 1:]
        phi_sup = None
        if phi is not None:
            with np.errstate(over="ignore"):  # an inf sup is NonFiniteError later
                phi_sup = float(np.max(phi(tail_up)))
        summary = PathSummary(strat.label, pi, float(s_up[-1]), float(s_low[-1]),
                              float(tail_up.max()), float(tail_low.min()),
                              phi_sup)
        sampled = TrajectorySample(strat.label, pi, grid,
                                   s_up[grid - 1], s_low[grid - 1])
        return summary, sampled

    tasks = [(si, pi) for si in range(len(strategies))
             for pi in range(paths_per_strategy)]
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            outputs = list(pool.map(one_path, tasks))
    else:
        outputs = [one_path(t) for t in tasks]

    summaries = tuple(o[0] for o in outputs)
    samples = tuple(o[1] for o in outputs)
    exceed = np.array([s.tail_max_upper > epsilon for s in summaries])
    undershoot = np.array([s.tail_min_lower < -epsilon for s in summaries])
    per_strategy: dict[str, dict[str, float]] = {}
    for si, strat in enumerate(strategies):
        block = slice(si * paths_per_strategy, (si + 1) * paths_per_strategy)
        per_strategy[strat.label] = {
            "upper_exceedance": float(exceed[block].mean()),
            "lower_undershoot": float(undershoot[block].mean()),
        }
    config = {
        "schedule": schedule.descriptor,
        "strategies": [s.label for s in strategies],
        "n_steps": n_steps,
        "paths_per_strategy": paths_per_strategy,
        "seed": seed,
        "n_start": n_start,
        "epsilon": epsilon,
        "swap_centers": swap_centers,
        "phi": phi.descriptor if phi is not None else None,
    }
    return ExperimentResult(config, n_steps, n_start, epsilon, summaries,
                            samples, float(exceed.mean()),
                            float(undershoot.mean()), per_strategy, phi_bound)


class StrassenEvaluation(NamedTuple):
    tail_sup: float
    bound: float


def strassen_evaluate(trajectory, phi: ScalarFunction,
                      n_start: int) -> StrassenEvaluation:
    """(sup_{n >= n_start} phi(S_n), sup_{x <= 0} phi(x)) for one trajectory.

    The bound raises UnboundedPhiError for transforms unbounded on the
    nonpositive axis (such as |x|). With the identity transform this reduces
    to (max tail value, 0).
    """
    s = np.asarray(trajectory, dtype=float)
    if not 1 <= n_start <= s.size:
        raise IndexOutOfRangeError(
            f"n_start {n_start} outside 1..{s.size}")
    bound = phi.sup_on_nonpositive()
    return StrassenEvaluation(float(np.max(phi(s[n_start - 1:]))), float(bound))
