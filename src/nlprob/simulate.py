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

The negative control exchanges the centres, so that drift-max's
lower-centred sum drifts at mu_up - mu_low and must cross eps. A path's
outcomes depend only on its streams, and each part of a centred pair is
computed on its own, so exchanging the centres exchanges the path's two
trajectories bit for bit. The one swap is therefore ``swapped_view``: it
reads an experiment's per-path numbers with their two trajectories
exchanged, and one assembly (``_result``) builds the run's result and
the view's alike. The CLI's control is the view of the experiment's own
drift-max paths.

The experiment runner is a step-major block engine. The sampler's tables
depend on the model alone and are built once per experiment, and a
block's weights come from the schedule's rules when the block is summed,
so no array has the horizon's length. The paths of one strategy advance
together, at most ``PATH_BLOCK`` of them, through blocks of
``STEP_BLOCK`` steps. A strategy enters the engine through its rows
source (``_rows_source``), which gives a block's row offsets, picking
each step's variable and measure: one cycle shared by every path or, for
iid-random, one row per path. An adaptive strategy plugs in there,
taking decisions at fixed step indices, so no grouping of paths changes
a result. A block draws one uniform per path and step into a
preallocated (paths x steps) buffer and inverts the chosen measure's CDF
by bisection (see ``sample_path``). The final position indexes the
sampler's table of pre-centred pairs (see ``_BlockSampler``), so one
complex gather gives each step's two centred terms, already weighted
when the weight is constant (kolmogorov, mz); other weights a_i scale a
block's terms part by part. From the weighted terms and the block's
normalizers A_i, ``normalized_partial_sums`` forms both trajectories in
one complex prefix sum, each bit for bit its own real one, carrying each
path's running pair from block to block; no other module knows that pair
format. Between blocks a path keeps only its running sums, and its group
writes each trajectory's tail max and min, final value and grid samples
into its columns of the experiment's arrays, so no per-path array grows
with the horizon. A phi must be nondecreasing, so that sup_n phi(S_n) =
phi(sup_n S_n): it is evaluated once per result, over every path's tail
max, and its bound sup_{x <= 0} phi is phi(0). That holds in floats too,
as the catalog's nondecreasing members round monotonically; only the
sign of a zero result can differ, since numpy's max picks among zeros of
both signs by position.

Every block checks S_n^{upper} <= S_n^{lower} at every step, exactly, with no
slack: the upper centre is the max and the lower centre the min of one
vector of linear means, and rounded subtraction, rounded addition and
multiplication or division by a positive number are monotone, while a
``WeightSchedule`` checks a_i > 0 and A_n > 0 when it is built. So by
induction over the steps, carry included, the upper-centred float sums
never exceed the lower-centred ones on a correct engine, and a step where
they do is a fault (``SimulationOrderError``).

Determinism: the engine runs on one thread. Each path's generators are
derived from (master seed, strategy index, path index) via seed-sequence
spawn keys and drawn in step order, the uniforms block by block and
iid-random's choices ``CHOICE_BLOCKS`` blocks at a time, which gives the
same streams as drawing the whole path at once. The carried sums are the
one-pass sums to the bit, so results are bit-identical for any grouping
of paths into blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .config import (
    CYCLIC,
    DEFAULT_EPSILON,
    FIXED,
    GRID_POINTS,
    IID_RANDOM,
    AdversaryStrategy,
)
from .errors import (
    BadStrategyParamError,
    IndexOutOfRangeError,
    LengthMismatchError,
    ScheduleInvalidError,
    SimulationOrderError,
    UnsupportedModelError,
)
from .expectation import expectation_values
from .functions import INCREASING, ScalarFunction
from .models import SequenceModel
from .slln import WeightSchedule, validate_schedule

# The block engine's shape: the paths of one strategy that advance together,
# and the steps they take per block. A (PATH_BLOCK, STEP_BLOCK) float64
# buffer is 256 KB, so the sampler's scratch buffers together fit a 2 MB
# per-core L2 cache.
PATH_BLOCK = 32
STEP_BLOCK = 1024
# iid-random draws each path's measure choices for up to this many blocks
# in one Generator.integers call, which costs about 10 us on top of its
# draws. A group keeps them times W, as the least unsigned integers that
# hold (measures - 1) * W: below 256, (PATH_BLOCK, CHOICE_BLOCKS *
# STEP_BLOCK) bytes, 256 KB, and twice or four times that for larger
# models.
CHOICE_BLOCKS = 8


@dataclass(frozen=True, eq=False)
class SamplePath:
    """One simulated path: measure choices, outcome indices, realized values.

    Replay contract: identical (model, strategy, n_steps, seed) arguments
    reproduce identical arrays, bit for bit.
    """

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


def _cdf_table(weights: np.ndarray) -> tuple[np.ndarray, int]:
    """Each measure's cumulative weights F_j(0..size-2), padded with +inf to
    the least power of two W >= size and laid out flat, and W."""
    m, size = weights.shape
    width = 1 << (size - 1).bit_length()
    table = np.full((m, width), np.inf)
    table[:, :size - 1] = np.cumsum(weights, axis=1)[:, :-1]
    return table.ravel(), width


def _bisect(table: np.ndarray, width: int, rows: np.ndarray, u: np.ndarray,
            pos: np.ndarray, idx: np.ndarray, seen: np.ndarray,
            hit: np.ndarray) -> None:
    """Set ``pos`` to rows + #{k < size - 1 : F(k) <= u}, where each step's
    row offset in ``rows`` (a multiple of W, one row shared by every path
    or one per path) picks its cumulative weights F in ``table``, by
    log2(W) passes (see ``sample_path`` for why it is exact). ``idx``,
    ``seen`` and ``hit`` are scratch arrays of ``pos``'s shape.

    A pass of step s probes F at pos + s - 1 and adds s where the probe is
    at or below u. A pass of step 1 (the only one for W = 2, the last one
    for wider tables) probes at pos itself and adds the boolean ``hit``
    straight to the positions, so it forms no offset index and no
    multiple of 1."""
    step = width // 2
    if not step:  # a one-outcome space
        pos[...] = rows
        return
    # every path starts at its row, so the first probe gathers only rows
    np.less_equal(table[rows + (step - 1) if step > 1 else rows], u, out=hit)
    if step > 1:
        np.multiply(hit, step, out=pos)
        pos += rows
    else:
        np.add(rows, hit, out=pos)
    step //= 2
    while step:  # decide the lower bits of the count, highest first
        # every index is in range; "clip" only spares take a buffered copy
        np.take(table, np.add(pos, step - 1, out=idx) if step > 1 else pos,
                out=seen, mode="clip")
        np.less_equal(seen, u, out=hit)
        pos += np.multiply(hit, step, out=idx) if step > 1 else hit
        step //= 2


def _shaped(flat: np.ndarray, paths: int, steps: int) -> np.ndarray:
    return flat[:paths * steps].reshape(paths, steps)


def _halves(buf: _Buffers, paths: int, steps: int) -> np.ndarray:
    """Two contiguous (paths, steps) float arrays, stacked: a block's
    uniforms and bisection probes, then, once those are spent, its two
    trajectories, so one reduction serves both."""
    return _shaped(buf.floats, 2 * paths, steps).reshape(2, paths, steps)


class _Buffers:
    """Scratch arrays for up to ``paths`` paths by ``steps`` steps, allocated
    once and viewed per block as contiguous (paths, steps) arrays;
    ``floats`` holds two, adjacent (see ``_halves``)."""

    def __init__(self, paths: int, steps: int) -> None:
        n = paths * steps
        self.floats = np.empty(2 * n)
        self.pairs = np.empty(n, dtype=np.complex128)
        self.pos = np.empty(n, dtype=np.int64)
        self.idx = np.empty(n, dtype=np.int64)
        self.rows = np.empty(n, dtype=np.int64)
        self.hit = np.empty(n, dtype=bool)


class _Cycle:
    """The rows source of a strategy that plays the same measures on every
    path: cycle[t % len(cycle)] at step t, sliced from one tiling that holds
    ``steps`` steps (a modulo over every step costs ten times as much)."""

    def __init__(self, cycle: np.ndarray, steps: int) -> None:
        self.period = len(cycle)
        self.tiled = np.tile(cycle, -(-(steps + self.period - 1)
                                      // self.period))

    def rows(self, start: int, steps: int, out: np.ndarray) -> np.ndarray:
        offset = start % self.period
        return self.tiled[offset:offset + steps]


class _Choices(_Cycle):
    """iid-random's rows source: the variables' row cycle plus each path's
    drawn measure times W, drawn ``CHOICE_BLOCKS`` blocks in one call and
    kept pre-scaled, as the least unsigned integers that hold
    (measures - 1) * W."""

    def __init__(self, cycle: np.ndarray, steps: int, rngs: list,
                 measures: int, width: int, horizon: int) -> None:
        super().__init__(cycle, steps)
        self.rngs, self.measures = rngs, measures
        self.width, self.horizon = width, horizon
        self.chunk = np.empty((len(rngs), min(CHOICE_BLOCKS * steps, horizon)),
                              dtype=np.min_scalar_type((measures - 1) * width))
        self.start = self.stop = 0

    def rows(self, start: int, steps: int, out: np.ndarray) -> np.ndarray:
        """The row offsets of steps start..start+steps-1, one per path,
        written to ``out``; each call starts where the last one stopped."""
        if start + steps > self.stop:
            n = min(self.chunk.shape[1], self.horizon - start)
            for row, rng in zip(self.chunk, self.rngs):
                row[:n] = rng.integers(0, self.measures, size=n,
                                       dtype=np.int64) * self.width
            self.start, self.stop = start, start + n
        offset = start - self.start
        return np.add(self.chunk[:, offset:offset + steps],
                      super().rows(start, steps, out), out=out)


def _rows_source(model: SequenceModel, strategy: AdversaryStrategy,
                 width: int, steps: int, seeds: Sequence,
                 horizon: int) -> _Cycle:
    """The rows source of ``strategy`` for paths, one per seed, over
    ``horizon`` steps in blocks of at most ``steps``: at step t, row offset
    (t % variables * measures + j) * W, where ``fixed(j)`` plays j, cyclic
    j = t % measures, drift-max the variable's lowest j of largest linear
    mean, and iid-random j drawn from the path's (seed, 1, salt) stream."""
    m, n_vars = len(model.credal), len(model.variables)
    var_rows = np.arange(n_vars, dtype=np.int64) * m
    if strategy.kind == IID_RANDOM:
        return _Choices(var_rows * width, steps, [
            np.random.Generator(np.random.PCG64(
                _seed_sequence(s, 1, strategy.salt))) for s in seeds],
            m, width, horizon)
    if strategy.kind == FIXED:
        if strategy.index >= m:
            raise BadStrategyParamError(
                f"fixed({strategy.index}) with only {m} measures")
        pattern = np.array([strategy.index], dtype=np.int64)
    elif strategy.kind == CYCLIC:
        pattern = np.arange(m, dtype=np.int64)
    else:
        pattern = np.array([int(expectation_values(model.credal, v).argmax())
                            for v in model.variables], dtype=np.int64)
    t = np.arange(math.lcm(n_vars, len(pattern)))
    return _Cycle((var_rows[t % n_vars] + pattern[t % len(pattern)]) * width,
                  steps)


class _BlockSampler:
    """The sampler of one rectangular-product model, built once per
    experiment: it draws a block of consecutive steps for a group of paths
    at once, whatever strategy their rows source plays.

    Its two tables have one row of width W per (variable, measure) pair,
    at offset (variable * measures + measure) * W: the measure's cumulative
    weights (``_cdf_table``) and the pre-centred pairs of the centre
    vectors (upper, lower): complex entries whose real part is the value
    minus the variable's upper centre and whose imaginary part is the
    value minus its lower centre. So a step's final bisection position is
    also the flat index of its centred pair. Given a constant ``weight`` a,
    each part is scaled by it once here, fl(fl(value - centre) * a), the
    float the partial sums would make at every step.
    """

    def __init__(self, model: SequenceModel,
                 centers: tuple[np.ndarray, np.ndarray],
                 weight: float | None = None) -> None:
        if not model.product_measures:
            raise UnsupportedModelError(
                f"sampling needs a rectangular-product model, not "
                f"{model.joint!r}")
        weights = model.credal.weights
        self.measures, size = weights.shape
        n_vars = len(model.variables)
        cdf, self.width = _cdf_table(weights)
        self.table = np.tile(cdf, n_vars)
        values = np.zeros((n_vars, self.width))  # the padding is never read
        values[:, :size] = [v.values for v in model.variables]
        values = np.repeat(values, self.measures, axis=0).ravel()
        # set part by part: complex arithmetic could flip a zero's sign
        self.pairs = np.empty(values.size, dtype=np.complex128)
        for part, c in zip((self.pairs.real, self.pairs.imag), centers):
            np.subtract(values, np.repeat(c, self.measures * self.width),
                        out=part)
            if weight is not None:
                part *= weight

    def draw(self, outcome_rngs: list, source: _Cycle, start: int,
             steps: int, buf: _Buffers) -> np.ndarray:
        """Steps start..start+steps-1 of a group of paths, each path's
        draws continuing its outcome stream in ``outcome_rngs`` and its
        rows from ``source``: the positions, a view into ``buf`` of shape
        (paths, steps). A position is the step's row offset plus its
        outcome, so it indexes the step's centred pair, the outcome is
        position % W and the measure is position // W % measures.
        """
        paths = len(outcome_rngs)
        u, seen = _halves(buf, paths, steps)
        for row, rng in zip(u, outcome_rngs):
            rng.random(out=row)
        rows = source.rows(start, steps, _shaped(buf.rows, paths, steps))
        pos = _shaped(buf.pos, paths, steps)
        _bisect(self.table, self.width, rows, u, pos,
                _shaped(buf.idx, paths, steps), seen,
                _shaped(buf.hit, paths, steps))
        return pos


def _outcome_streams(seeds: Sequence) -> list[np.random.Generator]:
    """Each path's outcome stream, the (seed, 0) substream of its seed; an
    iid-random choice stream is the disjoint (seed, 1, salt) one."""
    return [np.random.Generator(np.random.PCG64(_seed_sequence(s, 0)))
            for s in seeds]


def sample_path(model: SequenceModel, strategy: AdversaryStrategy,
                n_steps: int, seed) -> SamplePath:
    """Simulate one path of a rectangular-product model: the experiment's
    block sampler run for one path and one block of ``n_steps`` steps, at
    zero centres, so a step's value is its pair's real part (x - 0.0 is x
    bit for bit, -0.0 included).

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
    if n_steps < 1:
        raise IndexOutOfRangeError(f"need n_steps >= 1, got {n_steps}")
    zero = np.zeros(len(model.variables))
    sampler = _BlockSampler(model, (zero, zero))
    source = _rows_source(model, strategy, sampler.width, n_steps, [seed],
                          n_steps)
    pos = sampler.draw(_outcome_streams([seed]), source, 0, n_steps,
                       _Buffers(1, n_steps))[0]
    rows, outcomes = np.divmod(pos, sampler.width)
    return SamplePath(rows % sampler.measures, outcomes,
                      sampler.pairs.real[pos])


@dataclass(frozen=True)
class PathSummary:
    """One path's end values and tail extremes (n >= n_start) of its two
    trajectories, and its phi evaluated at the tail max when asked."""

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
    """An experiment's parameters, its paths' summaries and grid samples,
    the exceedance fractions overall and per strategy and the phi bound,
    each read from the per-path numbers it keeps in the order of
    ``path_summaries``, the upper-centred trajectory in row 0 and the
    lower-centred one in row 1: ``ends``, shape (3, 2, paths), the final
    values, tail maxima and tail minima, and ``samples``, shape (2, paths,
    grid points), the grid samples. ``swapped_view`` reads them with the
    rows exchanged."""

    config: dict[str, Any]
    path_summaries: tuple[PathSummary, ...]
    trajectory_samples: tuple[TrajectorySample, ...]
    upper_exceedance_fraction: float
    lower_undershoot_fraction: float
    per_strategy: dict[str, dict[str, float]]
    phi_bound: float | None
    ends: np.ndarray
    samples: np.ndarray


def _result(config: dict[str, Any], grid: np.ndarray, ends: np.ndarray,
            samples: np.ndarray, phi: ScalarFunction | None,
            phi_bound: float | None) -> ExperimentResult:
    """The result of the paths whose ``ends`` and ``samples`` are given
    (see ``ExperimentResult``), grouped by strategy in the order of
    ``config["strategies"]``, ``config["paths_per_strategy"]`` each: their
    summaries, with phi evaluated once over every tail max (none when phi
    is None), their samples at the steps ``grid``, and the exceedance
    fractions at ``config["epsilon"]``, overall and per strategy."""
    (final_up, final_low), (tail_max, _), (_, tail_min) = ends
    epsilon, n = config["epsilon"], config["paths_per_strategy"]
    labels = config["strategies"]
    # sup phi(S_n) = phi(sup S_n); an inf is NonFiniteError later
    with np.errstate(over="ignore"):
        sups = ([None] * tail_max.size if phi is None
                else phi(tail_max).tolist())
    summaries = tuple(
        PathSummary(labels[k // n], k % n, *numbers)
        for k, numbers in enumerate(zip(final_up.tolist(), final_low.tolist(),
                                        tail_max.tolist(), tail_min.tolist(),
                                        sups)))
    trajectories = tuple(
        TrajectorySample(labels[k // n], k % n, grid, up, low)
        for k, (up, low) in enumerate(zip(*samples)))
    exceed = tail_max > epsilon
    undershoot = tail_min < -epsilon
    per_strategy = {label: {
        "upper_exceedance": float(exceed[k * n:(k + 1) * n].mean()),
        "lower_undershoot": float(undershoot[k * n:(k + 1) * n].mean()),
    } for k, label in enumerate(labels)}
    return ExperimentResult(config, summaries, trajectories,
                            float(exceed.mean()), float(undershoot.mean()),
                            per_strategy, phi_bound, ends, samples)


def _phi_bound(phi: ScalarFunction | None) -> float | None:
    """sup_{x <= 0} phi = phi(0), refusing a phi that is not declared
    nondecreasing (ValueError); None for no phi."""
    if phi is None:
        return None
    if phi.monotonicity != INCREASING:
        raise ValueError(f"phi {phi.describe()} is not declared nondecreasing")
    return float(phi(0.0))


def swapped_view(result: ExperimentResult, strategy: str | None = None,
                 phi: ScalarFunction | None = None) -> ExperimentResult:
    """``result`` with the centres of each path exchanged, restricted to
    the paths of the strategy labelled ``strategy`` when one is given: bit
    for bit what a run of the same paths with the centres exchanged gives
    (see the module docstring), with phi evaluated at each path's new tail
    max (no phi when None) and ``swap_centers`` flipped in its config. It
    reads the strategy's columns of ``ends`` and ``samples`` with the two
    trajectories exchanged, so viewing a view gives the result back, phi
    aside."""
    phi_bound = _phi_bound(phi)
    labels = result.config["strategies"]
    cols = slice(None)
    if strategy is not None:
        if strategy not in labels:
            raise BadStrategyParamError(f"no {strategy} paths in {labels}")
        n, k = result.config["paths_per_strategy"], labels.index(strategy)
        cols = slice(k * n, (k + 1) * n)
    config = dict(result.config,
                  strategies=labels if strategy is None else [strategy],
                  swap_centers=not result.config["swap_centers"],
                  phi=phi.descriptor if phi is not None else None)
    return _result(config, result.trajectory_samples[0].steps,
                   result.ends[:, ::-1, cols], result.samples[::-1, cols],
                   phi, phi_bound)


def sample_grid(n_steps: int, n_start: int, points: int = GRID_POINTS) -> np.ndarray:
    """Geometric step grid including n_start and the horizon, 1-based."""
    g = np.geomspace(1, n_steps, num=min(points, n_steps)).astype(np.int64)
    return np.unique(np.concatenate([g, [n_start, n_steps]]))


def normalized_partial_sums(terms: np.ndarray, A: np.ndarray,
                            carry: np.ndarray | None = None,
                            out: tuple[np.ndarray, np.ndarray] | None = None
                            ) -> tuple[np.ndarray, np.ndarray]:
    """Both trajectories S_n = sum_{i<=n} a_i (x_i - c_i) / A_n, centred
    on c and on d, for n = 1..N along the last axis of ``terms`` (one
    path, or a block of paths by steps), in one complex prefix sum.

    ``terms`` holds a_i (x_i - c_i) in the real part and a_i (x_i - d_i)
    in the imaginary part, each fl(fl(x_i - c_i) * a_i) set part by part
    (a complex times a real can flip the sign of a zero), and ``A`` holds
    at least N normalizers. numpy adds complex numbers part by part, so
    each trajectory is bit for bit ``np.cumsum(a * (x - c)) / A``. The
    terms are summed in place; the parts divided by A are written to the
    float arrays ``out`` (new ones when None), which are returned.

    ``carry``, when given, holds each path's running pair before the block.
    It is added to the first term, the very addition an unbroken cumsum
    makes there, and advanced in place to the block's last step, so blocks
    give the bits of one pass. Start it at ``complex(-0.0, -0.0)``:
    -0.0 + x == x for every float x, not even a zero's sign changes.
    """
    n = np.shape(terms)[-1]
    if len(A) < n:
        raise LengthMismatchError(
            f"{len(A)} normalizers for {n} steps; need at least as many")
    carried = carry is not None and n > 0
    if carried:
        terms[..., 0] += carry
    np.cumsum(terms, axis=-1, out=terms)
    if carried:
        carry[...] = terms[..., -1]
    if out is None:
        out = (np.empty(terms.shape), np.empty(terms.shape))
    np.divide(terms.real, A[:n], out=out[0])
    np.divide(terms.imag, A[:n], out=out[1])
    return out


def check_schedule(schedule: WeightSchedule, n_steps: int) -> None:
    """Refuse a schedule whose table fails a ``validate_schedule`` record at
    horizon ``n_steps``: ScheduleInvalidError naming the failed records."""
    failed = [r.check for r in validate_schedule(schedule, n_steps)
              if not r.passed]
    if failed:
        raise ScheduleInvalidError(
            f"schedule fails {failed} at horizon {n_steps}")


def run_slln_experiment(model: SequenceModel, schedule: WeightSchedule,
                        strategies: Sequence[AdversaryStrategy],
                        n_steps: int, paths_per_strategy: int, seed: int,
                        n_start: int | None = None,
                        epsilon: float = DEFAULT_EPSILON,
                        phi: ScalarFunction | None = None,
                        jobs: int = 1,
                        grid_points: int = GRID_POINTS) -> ExperimentResult:
    """Run paths for every strategy and measure envelope exceedances.

    The upper-centered trajectory uses coordinate upper means, the
    lower-centered one lower means; the negative control, which exchanges
    them and must wreck convergence, is the result's ``swapped_view``.
    When ``phi`` is given, each path also records sup phi(S_n^upper) over
    the tail as phi(tail max), phi evaluated once over every path, and the
    result's ``phi_bound`` is phi's sup on the nonpositive axis, phi(0):
    phi must be nondecreasing, and one whose ``monotonicity`` is not
    increasing is refused (ValueError), as are no strategies or two of one
    label (BadStrategyParamError) and fewer than one path per strategy
    (ValueError).

    The exceedance and undershoot fractions are finite-horizon proxies, not
    the almost-sure limits: their false-alarm rate at a given ``epsilon``
    on a correct model depends on the normalizer A_n and on ``n_start``
    (see the module docstring), so a zero-crossing demand needs an
    ``epsilon`` above the fluctuation scale of the sums at ``n_start``.

    The sampler's tables are built once, from the model. The strategies
    run in turn, each one's paths in groups of at most ``PATH_BLOCK``,
    block by block (see the module docstring), in path order, each group
    writing its columns of the result's ``ends`` and ``samples``.
    ``jobs`` is accepted and ignored: the engine runs on one thread.
    """
    check_schedule(schedule, n_steps)
    phi_bound = _phi_bound(phi)
    labels = [s.label for s in strategies]
    if not labels:
        raise BadStrategyParamError("no strategies given")
    if len(set(labels)) < len(labels):
        raise BadStrategyParamError(f"strategies repeat a label: {labels}")
    if paths_per_strategy < 1:
        raise ValueError(
            f"paths_per_strategy must be >= 1, got {paths_per_strategy}")
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
    grid = sample_grid(n_steps, n_start, grid_points)
    weight = schedule.constant_weight
    block = min(STEP_BLOCK, n_steps)
    sampler = _BlockSampler(model, (upper_c, lower_c), weight)
    buf = _Buffers(min(PATH_BLOCK, paths_per_strategy), block)
    ends = np.empty((3, 2, len(strategies) * paths_per_strategy))
    ends[1], ends[2] = -np.inf, np.inf
    samples = np.empty((2, ends.shape[2], grid.size))
    for si, strat in enumerate(strategies):
        for first in range(0, paths_per_strategy, PATH_BLOCK):
            count = min(PATH_BLOCK, paths_per_strategy - first)
            seeds = [_seed_sequence(seed, si, first + i) for i in range(count)]
            outcome_rngs = _outcome_streams(seeds)
            source = _rows_source(model, strat, sampler.width, block, seeds,
                                  n_steps)
            col = si * paths_per_strategy + first
            final, tail_max, tail_min = ends[:, :, col:col + count]
            grids = samples[:, col:col + count]
            # the running pair sums; see normalized_partial_sums
            carry = np.full(count, complex(-0.0, -0.0))
            hi = 0  # the grid points up to the last block's stop
            for start in range(0, n_steps, STEP_BLOCK):
                stop = min(start + STEP_BLOCK, n_steps)
                steps = stop - start
                pos = sampler.draw(outcome_rngs, source, start, steps, buf)
                terms = _shaped(buf.pairs, count, steps)
                np.take(sampler.pairs, pos, out=terms, mode="clip")
                ii = np.arange(start + 1, stop + 1, dtype=float)
                if weight is None:  # weight each float part
                    parts = terms.view(np.float64)
                    np.multiply(parts, np.repeat(schedule.a(ii), 2),
                                out=parts)
                # the block's uniforms and probes are spent, so their
                # buffers take the two trajectories
                sums = _halves(buf, count, steps)
                s_up, s_low = normalized_partial_sums(
                    terms, schedule.A(ii), carry=carry, out=tuple(sums))
                # exact, no slack: see SimulationOrderError; the bisection
                # is done, so its hit buffer takes the comparison
                if np.greater(s_up, s_low,
                              out=_shaped(buf.hit, count, steps)).any():
                    raise SimulationOrderError(
                        "upper-centered sums exceeded lower-centered sums")
                if stop >= n_start:
                    tail = sums[:, :, max(n_start - 1 - start, 0):]
                    np.maximum(tail_max, np.maximum.reduce(tail, axis=2),
                               out=tail_max)
                    np.minimum(tail_min, np.minimum.reduce(tail, axis=2),
                               out=tail_min)
                lo = hi
                while hi < grid.size and grid[hi] <= stop:
                    hi += 1
                if hi > lo:
                    grids[:, :, lo:hi] = sums[:, :, grid[lo:hi] - 1 - start]
            final[...] = sums[:, :, -1]

    config = {
        "schedule": schedule.descriptor,
        "strategies": labels,
        "n_steps": n_steps,
        "paths_per_strategy": paths_per_strategy,
        "seed": seed,
        "n_start": n_start,
        "epsilon": epsilon,
        "swap_centers": False,
        "phi": phi.descriptor if phi is not None else None,
    }
    return _result(config, grid, ends, samples, phi, phi_bound)
