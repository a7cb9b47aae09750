"""Adversarial path sampling and envelope-convergence experiments."""

import json
import math
import re
import threading
import tracemalloc
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

import nlprob.simulate
from nlprob import (
    AbsPower,
    AdversaryStrategy,
    Affine,
    Clamp,
    Exp,
    MaxAffine,
    Polynomial,
    RandomVariable,
    SequenceModel,
    bundled_strategies,
    credal_set_from_rows,
    make_schedule,
    run_slln_experiment,
    sample_grid,
    sample_path,
)
from nlprob.errors import (
    BadStrategyParamError,
    IndexOutOfRangeError,
    NlprobError,
    ScheduleInvalidError,
    SimulationOrderError,
    UnboundedPhiError,
    UnsupportedModelError,
)
from nlprob.cli import main
from nlprob.config import GRID_POINTS, parse_config
from nlprob.expectation import expectation_values
from nlprob.functions import ScalarFunction
from nlprob.reports import all_passed
from nlprob.simulate import PathSummary, TrajectorySample, swapped_view
from nlprob.slln import validate_schedule


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


@pytest.fixture
def kolmogorov():
    return make_schedule("kolmogorov", alpha=1.0, beta=0.5)


@pytest.fixture
def marginal_model():
    # one binary coordinate, measures {(0.7, 0.3), (0.3, 0.7)}: the mean of
    # X = 1{success} ranges over [0.3, 0.7]
    credal = credal_set_from_rows([[0.7, 0.3], [0.3, 0.7]])
    return SequenceModel(credal, (RandomVariable(np.array([0.0, 1.0])),),
                         "rectangular")


@pytest.fixture
def dirac_model():
    credal = credal_set_from_rows([[0.0, 0.0, 1.0]])
    return SequenceModel(credal, (RandomVariable(np.array([5.0, 6.0, 7.0])),),
                         "rectangular")


class TestAdversaryStrategy:
    def test_kinds_are_validated(self):
        with pytest.raises(BadStrategyParamError):
            AdversaryStrategy("greedy")
        with pytest.raises(BadStrategyParamError):
            AdversaryStrategy("fixed")  # index required
        with pytest.raises(BadStrategyParamError):
            AdversaryStrategy("fixed", index=-1)
        with pytest.raises(BadStrategyParamError):
            AdversaryStrategy("cyclic", index=0)  # index forbidden
        with pytest.raises(BadStrategyParamError, match="salt must be >= 0"):
            AdversaryStrategy("iid-random", salt=-1)  # a seed-sequence key

    @pytest.mark.parametrize("kind, index", [
        ("fixed", 0), ("cyclic", None), ("drift-max", None)])
    def test_only_iid_random_takes_a_salt(self, kind, index):
        # only iid-random draws from a salted stream
        assert AdversaryStrategy(kind, index, 0).salt == 0
        with pytest.raises(BadStrategyParamError,
                           match=f"^{kind} strategy takes no salt"):
            AdversaryStrategy(kind, index, 3)

    def test_labels(self):
        assert AdversaryStrategy("fixed", 2).label == "fixed(2)"
        assert AdversaryStrategy("iid-random", salt=3).label == "iid-random(3)"
        assert AdversaryStrategy("drift-max").label == "drift-max"

    def test_bundled_set(self):
        labels = [s.label for s in bundled_strategies()]
        assert labels == ["fixed(0)", "cyclic", "iid-random(0)", "drift-max"]


class TestSamplePath:
    def test_replay_is_bit_identical(self, marginal_model):
        strat = AdversaryStrategy("iid-random")
        a = sample_path(marginal_model, strat, 500, 77)
        b = sample_path(marginal_model, strat, 500, 77)
        assert np.array_equal(a.choices, b.choices)
        assert np.array_equal(a.outcomes, b.outcomes)
        assert np.array_equal(a.values, b.values)

    def test_seed_changes_the_path(self, marginal_model):
        strat = AdversaryStrategy("fixed", 0)
        a = sample_path(marginal_model, strat, 500, 77)
        b = sample_path(marginal_model, strat, 500, 78)
        assert not np.array_equal(a.outcomes, b.outcomes)

    def test_dirac_gives_constant_path(self, dirac_model):
        path = sample_path(dirac_model, AdversaryStrategy("fixed", 0), 200, 1)
        assert np.all(path.outcomes == 2)
        assert np.all(path.values == 7.0)

    def test_fixed_choice_stream(self, marginal_model):
        path = sample_path(marginal_model, AdversaryStrategy("fixed", 1), 50, 9)
        assert np.all(path.choices == 1)

    def test_cyclic_choice_stream(self, marginal_model):
        path = sample_path(marginal_model, AdversaryStrategy("cyclic"), 7, 9)
        assert np.array_equal(path.choices, [0, 1, 0, 1, 0, 1, 0])

    def test_iid_random_salt_changes_choices_only(self, marginal_model):
        a = sample_path(marginal_model, AdversaryStrategy("iid-random"), 400, 5)
        b = sample_path(marginal_model, AdversaryStrategy("iid-random", salt=1),
                        400, 5)
        assert not np.array_equal(a.choices, b.choices)
        assert set(np.unique(a.choices)) <= {0, 1}

    def test_drift_max_picks_mean_maximizer(self, marginal_model):
        # measure row (0.3, 0.7) maximizes the mean of X = 1{success}
        path = sample_path(marginal_model, AdversaryStrategy("drift-max"), 20, 3)
        assert np.all(path.choices == 1)

    def test_fixed_index_must_exist(self, marginal_model):
        with pytest.raises(BadStrategyParamError):
            sample_path(marginal_model, AdversaryStrategy("fixed", 5), 10, 1)

    def test_rejects_non_rectangular_models(self, pair_model):
        with pytest.raises(ValueError, match="rectangular"):
            sample_path(pair_model, AdversaryStrategy("cyclic"), 10, 1)

    def test_non_rectangular_error_is_named(self, pair_model):
        with pytest.raises(UnsupportedModelError, match="comonotone-pair"):
            sample_path(pair_model, AdversaryStrategy("cyclic"), 10, 1)

    def test_needs_positive_length(self, marginal_model):
        with pytest.raises(IndexOutOfRangeError):
            sample_path(marginal_model, AdversaryStrategy("cyclic"), 0, 1)

    def test_fixed_one_matches_its_classical_mean(self, marginal_model):
        # under the (0.3, 0.7) row the empirical mean of 1e5 draws sits
        # within 3 sigma of 0.7
        path = sample_path(marginal_model, AdversaryStrategy("fixed", 1),
                           100_000, 20250817)
        sigma = math.sqrt(0.7 * 0.3 / 100_000)
        assert abs(path.values.mean() - 0.7) <= 3 * sigma

    def test_classical_anchor_across_paths(self):
        # singleton credal: the classical strong law, 4 sd / sqrt(n) covers
        # the empirical mean on essentially every path
        credal = credal_set_from_rows([[0.4, 0.6]])
        model = SequenceModel(credal, (RandomVariable(np.array([0.0, 1.0])),),
                              "rectangular")
        n, radius = 5000, 4 * math.sqrt(0.24) / math.sqrt(5000)
        hits = sum(
            abs(sample_path(model, AdversaryStrategy("fixed", 0), n, s)
                .values.mean() - 0.6) <= radius
            for s in range(50))
        assert hits >= 49


def _searchsorted_path(model, choices, n_steps, seed):
    """The sampler as first written, kept as an oracle: a masked
    searchsorted per measure, clipped to the last outcome."""
    u = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=seed, spawn_key=(0,)))).random(n_steps)
    cumulative = np.cumsum(model.credal.weights, axis=1)
    outcomes = np.empty(n_steps, dtype=np.int64)
    for j in np.unique(choices):
        mask = choices == j
        outcomes[mask] = np.searchsorted(cumulative[j], u[mask], side="right")
    np.clip(outcomes, 0, model.credal.size - 1, out=outcomes)
    value_table = np.vstack([v.values for v in model.variables])
    var_idx = np.arange(n_steps) % len(model.variables)
    return outcomes, value_table[var_idx, outcomes]


def _inverse_cdf(weights, choices, u):
    """The sampler's bisection on one path's steps: the outcome index of
    each step under the measure ``choices`` picks."""
    table, width = nlprob.simulate._cdf_table(weights)
    pos = np.empty(u.shape, dtype=np.int64)
    nlprob.simulate._bisect(table, width, choices * width, u, pos,
                            np.empty_like(pos), np.empty(u.shape),
                            np.empty(u.shape, dtype=bool))
    return pos - choices * width


def _random_rectangular_model(rng):
    # mostly the small spaces of the configs, sometimes a larger one, where
    # the sampler's bisection takes up to seven passes
    size = int(rng.integers(1, 11) if rng.random() < 0.8
               else rng.integers(11, 130))
    rows = rng.random((int(rng.integers(1, 6)), size))
    rows[rng.random(rows.shape) < 0.3] = 0.0   # zero-weight outcomes
    rows[:, rng.integers(size)] += 0.1         # no empty row
    rows /= rows.sum(axis=1, keepdims=True)    # cumsums may end below 1.0
    variables = tuple(RandomVariable(rng.normal(size=size))
                      for _ in range(int(rng.integers(1, 4))))
    return SequenceModel(credal_set_from_rows(rows), variables, "rectangular")


def test_inverse_cdf_matches_searchsorted_oracle(rng):
    strategies = (AdversaryStrategy("fixed", 0), AdversaryStrategy("cyclic"),
                  AdversaryStrategy("iid-random"),
                  AdversaryStrategy("drift-max"))
    for trial in range(100):
        model = _random_rectangular_model(rng)
        n_steps = int(rng.integers(1, 3000))
        for strat in strategies:
            path = sample_path(model, strat, n_steps, trial)
            outcomes, values = _searchsorted_path(model, path.choices,
                                                  n_steps, trial)
            assert np.array_equal(path.outcomes, outcomes)
            assert np.array_equal(path.values, values)


def test_inverse_cdf_is_exact_at_the_boundaries(rng):
    # u placed on, just under and just over every cumulative weight, plus
    # the extremes of [0, 1): the ties decide side="right", and a row whose
    # sum rounds below 1.0 lets u pass its last entry, where searchsorted
    # returns size and the clip gave the last outcome; the sizes sit on,
    # under and over powers of two, so the bisection pads a row with +inf
    # from one entry up to almost half of it
    for rows in ([[0.1] * 10, [0.0, 0.5, 0.0, 0.5] + [0.0] * 6],
                 [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.2, 0.3, 0.5]],
                 [[1.0]], [[0.5, 0.5], [1.0, 0.0]],
                 *(rng.dirichlet(np.ones(size), size=4)
                   for size in (7, 8, 9, 32, 33, 64))):
        weights = np.asarray(rows, dtype=float)
        cumulative = np.cumsum(weights, axis=1)
        edges = np.unique(np.concatenate([
            cumulative.ravel(), np.nextafter(cumulative.ravel(), 0.0),
            np.nextafter(cumulative.ravel(), 2.0),
            [0.0, np.nextafter(1.0, 0.0)]]))
        edges = edges[(edges >= 0.0) & (edges < 1.0)]
        for j in range(len(weights)):
            choices = np.full(edges.size, j, dtype=np.int64)
            want = np.minimum(np.searchsorted(cumulative[j], edges,
                                              side="right"),
                              weights.shape[1] - 1)
            assert np.array_equal(_inverse_cdf(weights, choices, edges), want)
    assert np.cumsum([0.1] * 10)[-1] < 1.0   # the first row's case arises


TWO_BY_THREE = SequenceModel(
    credal_set_from_rows([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.1, 0.2, 0.7]]),
    (RandomVariable(np.array([0.0, 1.0, 2.0])),    # means 0.5, 1.1, 1.6
     RandomVariable(np.array([2.0, 0.0, -1.0]))),  # means 1.1, 0.1, -0.5
    "rectangular")


@pytest.mark.parametrize("strategy, rule", [
    (AdversaryStrategy("fixed", 0), lambda t, seed: np.full(t.size, 0)),
    (AdversaryStrategy("fixed", 2), lambda t, seed: np.full(t.size, 2)),
    (AdversaryStrategy("cyclic"), lambda t, seed: t % 3),
    # each variable's own largest mean: measure 2 for X1, measure 0 for X2
    (AdversaryStrategy("drift-max"), lambda t, seed: np.array([2, 0])[t % 2]),
    *((AdversaryStrategy("iid-random", salt=salt),
       lambda t, seed, salt=salt: np.random.Generator(np.random.PCG64(
           np.random.SeedSequence(seed, spawn_key=(1, salt)))).integers(
               0, 3, t.size))
      for salt in (0, 4)),
])
def test_each_strategy_plays_its_rule(strategy, rule):
    # each strategy's rule, rebuilt step by step on a model of two
    # variables and three measures, so that the variables' cycle and the
    # measures' cycle have different periods; outcomes come from the seed's
    # (0) uniforms by searchsorted, and no part of the sampler is shared
    n, weights = 1001, TWO_BY_THREE.credal.weights
    for seed in (3, 20250817):
        path = sample_path(TWO_BY_THREE, strategy, n, seed)
        choices = rule(np.arange(n), seed)
        u = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(seed, spawn_key=(0,)))).random(n)
        for t, (j, x) in enumerate(zip(choices, u)):
            outcome = min(np.searchsorted(np.cumsum(weights[j]), x,
                                          side="right"), 2)
            assert (path.choices[t], path.outcomes[t]) == (j, outcome)
            assert path.values[t] == \
                TWO_BY_THREE.variables[t % 2].values[outcome]


def test_chunked_draws_equal_one_shot_draws():
    # the block engine draws each path's uniforms with Generator.random(out=)
    # one block at a time, and iid-random's choices with Generator.integers
    # several blocks at a time; its results are the one-pass results only
    # while numpy keeps these streams independent of how the draws are
    # chunked
    chunks = (1, 7, 1024, 3, 999, 1, 2000, 965)
    n = sum(chunks)
    for seed in range(3):
        one_shot = np.random.Generator(np.random.PCG64(seed)).random(n)
        rng = np.random.Generator(np.random.PCG64(seed))
        chunked = np.empty(n)
        edges = np.cumsum((0,) + chunks)
        for lo, hi in zip(edges[:-1], edges[1:]):
            rng.random(out=chunked[lo:hi])
        assert chunked.tobytes() == one_shot.tobytes()
        for m in (1, 2, 3, 5, 64, 1000):
            one_shot = np.random.Generator(np.random.PCG64(seed)).integers(
                0, m, size=n, dtype=np.int64)
            rng = np.random.Generator(np.random.PCG64(seed))
            chunked = np.concatenate([rng.integers(0, m, size=c,
                                                   dtype=np.int64)
                                      for c in chunks])
            assert np.array_equal(chunked, one_shot)


def test_complex_cumsum_is_two_real_cumsums():
    # the block engine sums a block's two trajectories in one complex128
    # cumsum along the last axis; its results are the two float64 cumsums
    # only while numpy adds complex numbers part by part in step order, so
    # signed zeros, cancellations and magnitudes 400 decades apart must
    # come out with the bits of the real sums
    rng = np.random.default_rng(8)
    for shape in ((1,), (2,), (1023,), (3, 1024), (25, 1025), (2, 3, 129)):
        parts = []
        for _ in range(2):
            x = rng.normal(size=shape) * 10.0 ** rng.integers(-200, 200,
                                                               size=shape)
            x[rng.random(shape) < 0.2] = -0.0
            x[rng.random(shape) < 0.1] = 0.0
            cancel = rng.random(shape) < 0.1   # x then -x sums to a zero
            x[..., 1:][cancel[..., 1:]] = -x[..., :-1][cancel[..., 1:]]
            parts.append(x)
        z = np.empty(shape, dtype=np.complex128)
        z.real, z.imag = parts
        want = [np.cumsum(x, axis=-1) for x in parts]
        for got in (np.cumsum(z, axis=-1),
                    np.cumsum(z, axis=-1, out=z)):   # in place, as the engine
            assert got.real.tobytes() == want[0].tobytes()
            assert got.imag.tobytes() == want[1].tobytes()


def _path_oracle(model, schedule, strategies, n_steps, paths_per_strategy,
                 seed, n_start, swap_centers, phi, grid_points):
    """The path-major loop the block engine replaced: per path, one
    ``sample_path`` over the whole horizon, numpy's one-pass formula
    ``np.cumsum(a * (x - c)) / A`` for each centre sequence, the order
    check, the tail statistics, phi and the grid gather."""
    upper_c = np.array([float(expectation_values(model.credal, v).max())
                        for v in model.variables])
    lower_c = np.array([float(expectation_values(model.credal, v).min())
                        for v in model.variables])
    if swap_centers:
        upper_c, lower_c = lower_c, upper_c
    ii = np.arange(1, n_steps + 1, dtype=float)
    a, A = schedule.a(ii), schedule.A(ii)
    reps = -(-n_steps // len(upper_c))
    upper_centers = np.tile(upper_c, reps)[:n_steps]
    lower_centers = np.tile(lower_c, reps)[:n_steps]
    grid = sample_grid(n_steps, n_start, grid_points)
    outputs = []
    for si, strat in enumerate(strategies):
        for pi in range(paths_per_strategy):
            path = sample_path(model, strat, n_steps, np.random.SeedSequence(
                entropy=seed, spawn_key=(si, pi)))
            s_up = np.cumsum(a * (path.values - upper_centers)) / A
            s_low = np.cumsum(a * (path.values - lower_centers)) / A
            if not swap_centers and (s_up - s_low).max() > 1e-9:
                raise SimulationOrderError("order")
            tail_up = s_up[n_start - 1:]
            tail_low = s_low[n_start - 1:]
            phi_sup = None
            if phi is not None:
                phi_sup = strassen_evaluate(s_up, phi, n_start).tail_sup
            outputs.append((
                PathSummary(strat.label, pi, float(s_up[-1]), float(s_low[-1]),
                            float(tail_up.max()), float(tail_low.min()),
                            phi_sup),
                TrajectorySample(strat.label, pi, grid, s_up[grid - 1],
                                 s_low[grid - 1])))
    return outputs


def test_block_engine_matches_the_path_oracle(rng):
    # block size and path cap are the engine's; the horizons sit below one
    # block, on a block multiple and off it, the tail starts and grid points
    # fall on block edges, and 33 paths leave a partial group of one
    block = nlprob.simulate.STEP_BLOCK
    assert nlprob.simulate.PATH_BLOCK == 32
    strategies = (AdversaryStrategy("fixed", 0), AdversaryStrategy("cyclic"),
                  AdversaryStrategy("iid-random", salt=2),
                  AdversaryStrategy("drift-max"))
    horizons = (101, 700, block - 1, block, block + 1, 2 * block,
                2 * block + 300)
    # table weights in (0.5, 1.5) and their running sums as a table
    # normalizer, A_n = a_1 + ... + a_n
    weights = 1.0 + 0.5 * np.sin(np.arange(1.0, horizons[-1] + 1))
    # constant weights are folded into the sampler's pair table, the
    # others weight each block
    schedules = (make_schedule("kolmogorov", alpha=1.0, beta=0.5),
                 make_schedule("mz", alpha=1.0, beta=0.5, p=1.25),
                 make_schedule("custom", alpha=1.0, beta=0.5,
                               a_rule=("constant", 0.7)),
                 make_schedule("custom", alpha=1.0, beta=0.5,
                               a_rule=("harmonic", None)),
                 make_schedule("custom", alpha=1.0, beta=0.5,
                               a_rule=("table", tuple(weights))),
                 make_schedule("custom", alpha=1.0, beta=0.5,
                               a_rule=("table", tuple(weights)),
                               A_rule=("table", tuple(np.cumsum(weights)))))
    assert all(all_passed(validate_schedule(s, n))
               for s in schedules for n in horizons)
    # every phi is nondecreasing, so evaluated once per path at its tail max
    phis = (None, Affine(0.5, 1.0), Clamp(-1.0, 0.2),
            MaxAffine(((0, 0), (1, -0.1))), Polynomial((0, 1)))
    for trial in range(60):
        model = _random_rectangular_model(rng)
        n_steps = horizons[trial % len(horizons)]
        starts = [s for s in (100, block - 1, block, block + 1,
                              n_steps // 2, n_steps - 1) if 100 <= s < n_steps]
        kwargs = dict(
            n_steps=n_steps,
            paths_per_strategy=33 if trial % 15 == 0 else int(rng.integers(1, 4)),
            seed=int(rng.integers(2**32)),
            # each horizon comes round 8 or 9 times: every start is taken
            n_start=starts[trial // len(horizons) % len(starts)],
            swap_centers=bool(trial % 2),
            # each schedule meets every phi
            phi=(phis + (Exp(float(rng.uniform(0.1, 2.0))),))[
                trial // len(schedules) % (len(phis) + 1)],
            grid_points=int(rng.integers(2, 200)))
        schedule = schedules[trial % len(schedules)]
        want = _path_oracle(model, schedule, strategies, **kwargs)
        got = run_slln_experiment(model, schedule, strategies, **kwargs)
        assert len(got.path_summaries) == len(want)
        for summary, sample, (want_summary, want_sample) in zip(
                got.path_summaries, got.trajectory_samples, want):
            # repr prints every float to the last bit and its sign
            assert repr(summary) == repr(want_summary)
            assert (sample.strategy, sample.path_index) == (
                want_sample.strategy, want_sample.path_index)
            for field in ("steps", "upper", "lower"):
                a = getattr(sample, field)
                b = getattr(want_sample, field)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("choice_blocks", [1, 3, nlprob.simulate.CHOICE_BLOCKS])
def test_iid_choices_match_the_path_oracle_across_chunks(rng, monkeypatch,
                                                         choice_blocks):
    # iid-random draws its choices several blocks ahead: a horizon of two
    # whole chunks and a part of a third, with one block cut short, must
    # still give each path the one-shot choices
    monkeypatch.setattr(nlprob.simulate, "CHOICE_BLOCKS", choice_blocks)
    n_steps = (2 * choice_blocks + 1) * nlprob.simulate.STEP_BLOCK - 300
    strategies = (AdversaryStrategy("iid-random", salt=5),)
    schedule = make_schedule("mz", alpha=1.0, beta=0.5, p=1.25)
    for _ in range(3):
        model = _random_rectangular_model(rng)
        kwargs = dict(n_steps=n_steps, paths_per_strategy=3,
                      seed=int(rng.integers(2**32)), n_start=n_steps // 3,
                      swap_centers=False, phi=None, grid_points=300)
        want = _path_oracle(model, schedule, strategies, **kwargs)
        got = run_slln_experiment(model, schedule, strategies, **kwargs)
        for summary, sample, (want_summary, want_sample) in zip(
                got.path_summaries, got.trajectory_samples, want, strict=True):
            assert repr(summary) == repr(want_summary)
            for field in ("upper", "lower"):
                assert getattr(sample, field).tobytes() == \
                    getattr(want_sample, field).tobytes()


def test_block_buffers_do_not_grow_with_the_horizon(marginal_model,
                                                     kolmogorov, monkeypatch):
    sizes = []
    original = nlprob.simulate._Buffers.__init__

    def record(self, paths, steps):
        sizes.append((paths, steps))
        original(self, paths, steps)

    monkeypatch.setattr(nlprob.simulate._Buffers, "__init__", record)
    run_slln_experiment(marginal_model, kolmogorov, bundled_strategies(),
                        n_steps=5000, paths_per_strategy=40, seed=3)
    # one buffer set serves every group of every strategy
    assert sizes == [(nlprob.simulate.PATH_BLOCK, nlprob.simulate.STEP_BLOCK)]


def test_experiment_memory_does_not_grow_with_the_horizon(marginal_model):
    # a tenfold horizon adds no array: the weights, like the buffers, are
    # evaluated one block at a time
    schedule = make_schedule("mz", alpha=1.0, beta=0.5, p=1.25)

    def peak(n_steps):
        tracemalloc.start()
        try:
            run_slln_experiment(marginal_model, schedule, bundled_strategies(),
                                n_steps=n_steps, paths_per_strategy=1, seed=4)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(100_000)  # warm-up: lazy imports and caches are not the horizon's
    assert abs(peak(1_000_000) - peak(100_000)) < 64 * 1024


class TestSampleGrid:
    def test_anchors_present(self):
        grid = sample_grid(1000, 100, points=32)
        assert grid[0] == 1 and grid[-1] == 1000
        assert 100 in grid
        assert np.all(np.diff(grid) > 0)

    def test_never_exceeds_point_budget_plus_anchors(self):
        grid = sample_grid(100_000, 10_000, points=160)
        assert grid.size <= 162
        assert grid[0] == 1 and grid[-1] == 100_000 and 10_000 in grid


class TestRunExperiment:
    def test_constant_coordinate_is_exactly_zero(self, kolmogorov):
        credal = credal_set_from_rows([[0.5, 0.5]])
        model = SequenceModel(credal, (RandomVariable(np.array([2.0, 2.0])),),
                              "rectangular")
        result = run_slln_experiment(model, kolmogorov, bundled_strategies(),
                                     n_steps=1000, paths_per_strategy=2,
                                     seed=1, n_start=100, epsilon=0.05)
        assert result.upper_exceedance_fraction == 0.0
        assert result.lower_undershoot_fraction == 0.0
        for s in result.path_summaries:
            assert s.final_upper == 0.0 and s.final_lower == 0.0
            assert s.tail_max_upper == 0.0 and s.tail_min_lower == 0.0

    def test_envelope_convergence_on_marginal_model(self, marginal_model,
                                                    kolmogorov):
        result = run_slln_experiment(marginal_model, kolmogorov,
                                     bundled_strategies(), n_steps=3000,
                                     paths_per_strategy=2, seed=42,
                                     n_start=300, epsilon=0.2)
        assert result.upper_exceedance_fraction == 0.0
        assert result.lower_undershoot_fraction == 0.0
        assert set(result.per_strategy) == {
            "fixed(0)", "cyclic", "iid-random(0)", "drift-max"}

    def test_trajectories_keep_center_order(self, marginal_model, kolmogorov):
        # subtracting the larger (upper) centers can only give smaller sums
        result = run_slln_experiment(marginal_model, kolmogorov,
                                     bundled_strategies(), n_steps=2000,
                                     paths_per_strategy=1, seed=7,
                                     n_start=200, epsilon=0.2)
        for t in result.trajectory_samples:
            assert np.all(t.upper <= t.lower + 1e-9)
            assert np.array_equal(t.steps, result.trajectory_samples[0].steps)

    def test_center_order_fault_is_named(self, marginal_model, kolmogorov,
                                         monkeypatch):
        # a partial-sum routine that hands back the two trajectories
        # swapped breaks the order upper-centred <= lower-centred; that is
        # an internal fault, named
        paired_sums = nlprob.simulate.normalized_partial_sums

        def swapped(*args, **kwargs):
            upper, lower = paired_sums(*args, **kwargs)
            return lower, upper

        monkeypatch.setattr(nlprob.simulate, "normalized_partial_sums",
                            swapped)
        with pytest.raises(SimulationOrderError) as exc:
            run_slln_experiment(marginal_model, kolmogorov,
                                bundled_strategies(), n_steps=1000,
                                paths_per_strategy=1, seed=1)
        assert isinstance(exc.value, NlprobError)

    def test_swapped_centers_wreck_convergence(self, marginal_model,
                                               kolmogorov):
        # negative control: drift-max against swapped centers drifts at
        # +0.4, far past epsilon on every path
        result = run_slln_experiment(marginal_model, kolmogorov,
                                     [AdversaryStrategy("drift-max")],
                                     n_steps=2000, paths_per_strategy=4,
                                     seed=11, n_start=200, epsilon=0.2,
                                     swap_centers=True)
        assert result.upper_exceedance_fraction == 1.0

    def test_jobs_do_not_change_results(self, marginal_model, kolmogorov,
                                        monkeypatch):
        # 40 paths per strategy make two groups of each
        kwargs = dict(n_steps=1500, paths_per_strategy=40, seed=13,
                      n_start=150, epsilon=0.2)
        a = run_slln_experiment(marginal_model, kolmogorov,
                                bundled_strategies(), jobs=1, **kwargs)

        def refuse(thread):
            raise AssertionError(f"thread {thread.name} started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        b = run_slln_experiment(marginal_model, kolmogorov,
                                bundled_strategies(), jobs=4, **kwargs)
        assert repr(a.path_summaries) == repr(b.path_summaries)
        for ta, tb in zip(a.trajectory_samples, b.trajectory_samples,
                          strict=True):
            assert ta.upper.tobytes() == tb.upper.tobytes()
            assert ta.lower.tobytes() == tb.lower.tobytes()

    def test_invalid_schedule_is_refused(self, marginal_model):
        # a normalizer table is the one rule left to decide at the horizon:
        # A_n = log(n+1) fails the growth heuristic there
        slow = make_schedule("custom", alpha=1.0, beta=0.5, A_rule=(
            "table", tuple(np.log(np.arange(1.0, 1001.0) + 1.0))))
        with pytest.raises(ScheduleInvalidError,
                           match=r"^schedule fails \['r-growth'\] at horizon "
                                 r"1000$"):
            run_slln_experiment(marginal_model, slow, bundled_strategies(),
                                n_steps=1000, paths_per_strategy=1, seed=1)

    @pytest.mark.filterwarnings("error")
    def test_zero_normalizer_is_refused_before_any_division(self):
        # refused when the schedule is built, so no run divides by A_1 = 0
        with pytest.raises(ScheduleInvalidError, match="entry 1 is 0.0$"):
            make_schedule("custom", alpha=1.0, beta=0.5,
                          A_rule=("table", tuple(range(1000))))

    def test_parameter_guards(self, marginal_model, kolmogorov):
        with pytest.raises(ValueError, match="epsilon"):
            run_slln_experiment(marginal_model, kolmogorov,
                                bundled_strategies(), n_steps=1000,
                                paths_per_strategy=1, seed=1, epsilon=0.0)
        with pytest.raises(ValueError, match="n_start"):
            run_slln_experiment(marginal_model, kolmogorov,
                                bundled_strategies(), n_steps=1000,
                                paths_per_strategy=1, seed=1, n_start=50)
        with pytest.raises(ValueError, match="n_start"):
            run_slln_experiment(marginal_model, kolmogorov,
                                bundled_strategies(), n_steps=1000,
                                paths_per_strategy=1, seed=1, n_start=1000)

    def test_config_echo(self, marginal_model, kolmogorov):
        result = run_slln_experiment(marginal_model, kolmogorov,
                                     [AdversaryStrategy("cyclic")],
                                     n_steps=1000, paths_per_strategy=1,
                                     seed=99)
        assert result.config["seed"] == 99
        assert result.config["n_start"] == 100  # default: horizon / 10
        assert result.config["schedule"]["kind"] == "kolmogorov"
        assert result.config["strategies"] == ["cyclic"]
        assert result.config["phi"] is None and result.phi_bound is None

    def test_phi_is_called_once_per_path_group_when_nondecreasing(
            self, marginal_model, kolmogorov, monkeypatch):
        # a nondecreasing phi is evaluated at each group's tail maxima after
        # its last block: four blocks, the first ending before n_start, and
        # two groups per strategy
        block = nlprob.simulate.STEP_BLOCK
        group = nlprob.simulate.PATH_BLOCK
        calls = []
        for cls in (Exp, Polynomial):
            def recorded(self, x, call=cls.__call__):
                calls.append(np.shape(x))
                return call(self, x)
            monkeypatch.setattr(cls, "__call__", recorded)
        kwargs = dict(n_steps=3 * block + 10, paths_per_strategy=group + 1,
                      seed=6, n_start=block + 5)
        strategies = bundled_strategies()
        for phi in (Exp(1.0), Polynomial((0, 1))):
            run_slln_experiment(marginal_model, kolmogorov, strategies,
                                phi=phi, **kwargs)
            assert calls == [(group,), (1,)] * len(strategies)
            calls.clear()

    @pytest.mark.parametrize("phi", [
        Polynomial((0, 0, -1)), AbsPower(2.0),
        MaxAffine(((-1.0, 0.0), (1.0, 0.0))),
    ], ids=["minus-square", "square", "mixed-slopes"])
    def test_phi_that_is_not_nondecreasing_is_refused(
            self, marginal_model, kolmogorov, monkeypatch, phi):
        # sup phi(S_n) is phi(sup S_n) only for a nondecreasing phi
        def refuse(*args):
            raise AssertionError("a path was drawn")

        monkeypatch.setattr(nlprob.simulate._BlockSampler, "draw", refuse)
        with pytest.raises(ValueError,
                           match=rf"phi {re.escape(phi.describe())} is not "
                                 r"nondecreasing"):
            run_slln_experiment(marginal_model, kolmogorov,
                                bundled_strategies(), n_steps=1000,
                                paths_per_strategy=1, seed=1, phi=phi)

    @pytest.mark.parametrize("strategies", [
        [AdversaryStrategy("cyclic"), AdversaryStrategy("cyclic")],
        [AdversaryStrategy("iid-random", salt=2),
         AdversaryStrategy("iid-random", salt=2)],
    ], ids=["cyclic", "iid-random"])
    def test_repeated_strategy_label_is_refused(self, marginal_model,
                                                kolmogorov, strategies):
        # per_strategy is keyed by label, so a repeat would merge two rows
        with pytest.raises(BadStrategyParamError, match="repeat a label"):
            run_slln_experiment(marginal_model, kolmogorov, strategies,
                                n_steps=1000, paths_per_strategy=1, seed=1)

    def test_phi_tail_sup_is_transform_of_tail_max(self, marginal_model,
                                                   kolmogorov):
        # exp is monotone, so sup exp(S_n) over the tail = exp(tail max)
        result = run_slln_experiment(marginal_model, kolmogorov,
                                     bundled_strategies(), n_steps=1500,
                                     paths_per_strategy=1, seed=5,
                                     n_start=150, epsilon=0.2, phi=Exp(1.0))
        assert result.phi_bound == 1.0
        for s in result.path_summaries:
            assert s.phi_tail_sup == pytest.approx(
                math.exp(s.tail_max_upper), rel=1e-12)


def _assert_same_result(got, want):
    """Bit for bit: every summary and grid sample, the fractions, the
    parameters and the tail extremes a further view reads."""
    assert repr(got.path_summaries) == repr(want.path_summaries)
    for a, b in zip(got.trajectory_samples, want.trajectory_samples,
                    strict=True):
        assert (a.strategy, a.path_index) == (b.strategy, b.path_index)
        for field in ("steps", "upper", "lower"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes()
    for field in ("config", "upper_exceedance_fraction",
                  "lower_undershoot_fraction", "per_strategy", "phi_bound"):
        assert getattr(got, field) == getattr(want, field)
    for field in ("tail_max_lower", "tail_min_upper"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes()


class TestSwappedView:
    SCHEDULE = make_schedule("mz", alpha=1.0, beta=0.5, p=1.25)
    KWARGS = dict(n_steps=2500, paths_per_strategy=3, seed=21, n_start=400,
                  epsilon=0.05)

    @pytest.mark.parametrize("phi", [None, Exp(1.0)], ids=["no-phi", "exp"])
    def test_view_is_the_swapped_run(self, rng, marginal_model, phi):
        # the unswapped run carries a phi of its own, which no view reads;
        # the path oracle subtracts the exchanged centres itself
        strategies = bundled_strategies()
        for model in (marginal_model, _random_rectangular_model(rng)):
            plain = run_slln_experiment(model, self.SCHEDULE, strategies,
                                        phi=Affine(2.0, 1.0), **self.KWARGS)
            swapped = run_slln_experiment(model, self.SCHEDULE, strategies,
                                          swap_centers=True, phi=phi,
                                          **self.KWARGS)
            _assert_same_result(swapped_view(plain, phi=phi), swapped)
            want = _path_oracle(model, self.SCHEDULE, strategies,
                                swap_centers=True, phi=phi,
                                grid_points=GRID_POINTS, **{
                                    k: v for k, v in self.KWARGS.items()
                                    if k != "epsilon"})
            for summary, sample, (want_summary, want_sample) in zip(
                    swapped.path_summaries, swapped.trajectory_samples, want,
                    strict=True):
                assert repr(summary) == repr(want_summary)
                assert sample.upper.tobytes() == want_sample.upper.tobytes()
                assert sample.lower.tobytes() == want_sample.lower.tobytes()
            # each strategy's view is its part of the swapped run, and a
            # run of that strategy alone gives its own view
            for strat in strategies:
                one = swapped_view(plain, strat.label, phi)
                assert one.config == dict(swapped.config,
                                          strategies=[strat.label])
                assert repr(one.path_summaries) == repr(tuple(
                    s for s in swapped.path_summaries
                    if s.strategy == strat.label))
                assert one.per_strategy == {
                    strat.label: swapped.per_strategy[strat.label]}
                alone = run_slln_experiment(model, self.SCHEDULE, [strat],
                                            **self.KWARGS)
                _assert_same_result(
                    swapped_view(alone, strat.label, phi),
                    run_slln_experiment(model, self.SCHEDULE, [strat],
                                        swap_centers=True, phi=phi,
                                        **self.KWARGS))

    def test_view_of_a_view_is_the_run(self, marginal_model):
        plain = run_slln_experiment(marginal_model, self.SCHEDULE,
                                    bundled_strategies(), **self.KWARGS)
        _assert_same_result(swapped_view(swapped_view(plain)), plain)

    def test_refusals(self, marginal_model):
        plain = run_slln_experiment(marginal_model, self.SCHEDULE,
                                    [AdversaryStrategy("cyclic")],
                                    **self.KWARGS)
        with pytest.raises(BadStrategyParamError, match="no drift-max paths"):
            swapped_view(plain, "drift-max")
        with pytest.raises(ValueError, match="not nondecreasing"):
            swapped_view(plain, phi=AbsPower(2.0))


class TestCliNegativeControl:
    """The control ``nlprob simulate`` writes: the drift-max paths of the
    experiment with their centres exchanged."""

    DOC = json.loads((Path(__file__).resolve().parent.parent / "configs"
                      / "rectangular-demo.json").read_text())
    PATH_KEYS = ["strategy", "path_index", "final_upper", "final_lower",
                 "tail_max_upper", "tail_min_lower", "phi_tail_sup"]

    def simulate(self, tmp_path, strategies=None):
        doc = json.loads(json.dumps(self.DOC))
        if strategies is not None:
            doc["simulation"]["strategies"] = strategies
        text = json.dumps(doc)
        (tmp_path / "config.json").write_text(text)
        code = main(["simulate", "--config", str(tmp_path / "config.json"),
                     "--out", str(tmp_path / "out")])
        assert code in (0, 1)
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        return report, parse_config(text, subcommand="simulate")

    @staticmethod
    def direct(config, strategies, **kwargs):
        sim = config.simulation
        return run_slln_experiment(
            config.model, config.schedule, strategies, sim.n_steps,
            sim.paths_per_strategy, config.seed, n_start=sim.n_start,
            epsilon=sim.epsilon, grid_points=sim.grid_points, **kwargs)

    @staticmethod
    def paths(result):
        return [dict(vars(s)) for s in result.path_summaries]

    def test_control_is_the_experiments_drift_max_paths_swapped(
            self, tmp_path):
        report, config = self.simulate(tmp_path)
        swapped = self.direct(config, bundled_strategies(), swap_centers=True)
        control = report["negative_control"]
        assert control["paths"] == [p for p in self.paths(swapped)
                                    if p["strategy"] == "drift-max"]
        assert control["per_strategy"] == {
            "drift-max": swapped.per_strategy["drift-max"]}
        assert control["config"]["strategies"] == ["drift-max"]
        assert control["config"]["swap_centers"] is True
        assert control["config"]["phi"] is None

    def test_control_without_drift_max_runs_it_alone(self, tmp_path):
        report, config = self.simulate(
            tmp_path, [{"kind": "fixed", "index": 0}, "cyclic"])
        swapped = self.direct(config, [AdversaryStrategy("drift-max")],
                              swap_centers=True)
        control = report["negative_control"]
        assert control["paths"] == self.paths(swapped)
        assert control["config"] == swapped.config
        for field in ("upper_exceedance_fraction",
                      "lower_undershoot_fraction", "per_strategy",
                      "phi_bound"):
            assert control[field] == getattr(swapped, field)

    @pytest.mark.parametrize("strategies", [
        None, [{"kind": "fixed", "index": 0}, "cyclic"]],
        ids=["bundled", "no-drift-max"])
    def test_path_entries_keep_their_keys(self, tmp_path, strategies):
        report, _ = self.simulate(tmp_path, strategies)
        for payload in ("experiment", "negative_control"):
            for entry in report[payload]["paths"]:
                assert list(entry) == self.PATH_KEYS


class TestStrassenEvaluate:
    def test_identity_reduces_to_tail_max(self):
        ev = strassen_evaluate([0.3, -0.2, 0.1], Affine(1.0, 0.0), 2)
        assert ev.tail_sup == 0.1
        assert ev.bound == 0.0

    def test_exponential_transform(self):
        ev = strassen_evaluate([0.3, -0.2, 0.1], Exp(1.0), 1)
        assert ev.tail_sup == pytest.approx(math.exp(0.3), rel=1e-15)
        assert ev.bound == 1.0

    def test_unbounded_transform_is_refused(self):
        with pytest.raises(UnboundedPhiError):
            strassen_evaluate([0.0, 1.0], AbsPower(2.0), 1)

    def test_tail_start_bounds(self):
        with pytest.raises(IndexOutOfRangeError):
            strassen_evaluate([1.0, 2.0], Exp(1.0), 3)
        with pytest.raises(IndexOutOfRangeError):
            strassen_evaluate([1.0, 2.0], Exp(1.0), 0)
