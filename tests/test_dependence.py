"""Dependence checkers: association sweeps, independence, forward values."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from nlprob import (
    RandomVariable,
    SequenceModel,
    binomial_pair_model,
    check_negative_association,
    check_vertical_independence,
    credal_set_from_rows,
    exp_product_bound_gap,
    forward_factorization_value,
    lower_expectation,
)
from nlprob.dependence import _ramp_grid, _ramp_rows
from nlprob.errors import (
    EmptyVectorError,
    LengthMismatchError,
    MixedMonotonicityError,
    NegativeFunctionValueError,
    NonPositiveWidthError,
    OracleTooLargeError,
    POutOfRangeError,
)
from nlprob.functions import (
    CONSTANT,
    DECREASING,
    INCREASING,
    NEGATED_RAMP,
    RAMP,
    Affine,
    TestFunction,
)
from nlprob.models import coordinate_expectation_matrix

UNIT_RAMP = TestFunction("ramp", 0.0, 1.0)
SHIFTED_RAMP = TestFunction("ramp", -1.0, 1.0)
ONE = TestFunction(CONSTANT)


class TestTestFunction:
    def test_ramp_values(self):
        f = UNIT_RAMP
        assert f(-0.5) == 0.0 and f(0.5) == 0.5 and f(2.0) == 1.0

    def test_negated_ramp_saturates(self):
        f = TestFunction("negated-ramp", 0.0, 1.0, "decreasing")
        assert f(-1.0) == 1.0
        assert f(2.0) == 0.0

    def test_constant_is_one(self):
        assert ONE(123.0) == 1.0

    def test_width_must_be_positive(self):
        with pytest.raises(NonPositiveWidthError):
            TestFunction("ramp", 0.0, 0.0)

    def test_direction_consistency(self):
        with pytest.raises(MixedMonotonicityError):
            TestFunction("ramp", 0.0, 1.0, "decreasing")
        with pytest.raises(MixedMonotonicityError):
            TestFunction("negated-ramp", 0.0, 1.0, "increasing")


class TestRampFamily:
    """The ramps each direction sweeps: one grid of thresholds and widths."""

    def test_singleton(self):
        x = np.array([-1.0, 0.5, 2.0])
        one = np.array([0.0]), np.array([1.0])
        assert _ramp_rows(x, *one, INCREASING).tolist() == [[0.0, 0.5, 1.0]]
        assert _ramp_rows(x, *one, DECREASING).tolist() == [[1.0, 0.5, 0.0]]

    def test_bad_width(self):
        with pytest.raises(NonPositiveWidthError):
            TestFunction("ramp", 0.0, -1.0)

    def test_grid_follows_the_value_span(self, pair_model):
        # values span [-1, 1]: widths 0.5, 1, 2, nine thresholds each over
        # [lo - w, hi + w]
        thresholds, widths = _ramp_grid(pair_model)
        assert widths.tolist() == [0.5] * 9 + [1.0] * 9 + [2.0] * 9
        assert thresholds[:9].tolist() == np.linspace(-1.5, 1.5, 9).tolist()
        assert thresholds[-1] == 3.0

    def test_subnormal_span_refused(self, two_point_credal):
        # span / 4 underflows to a zero width
        x = RandomVariable([0.0, 5e-324])
        for joint in ("rectangular", "comonotone-pair"):
            model = SequenceModel(two_point_credal, (x, x), joint)
            with pytest.raises(NonPositiveWidthError, match="got 0.0"):
                check_negative_association(model, 2)

    def test_default_families_cover_both_directions(self, x01):
        # an identical pair under {(1/2, 1/2), (1 - q, q)}: the indicator of
        # the outcome whose upper probability is 1/2 gives the worst gap,
        # 1/4; when both are (q = 1/2) the increasing witness is kept
        for q, direction in ((0.75, DECREASING), (0.25, INCREASING),
                             (0.5, INCREASING)):
            credal = credal_set_from_rows([[0.5, 0.5], [1.0 - q, q]])
            model = SequenceModel(credal, (x01, x01), "comonotone-pair")
            report = check_negative_association(model, 2)
            assert report.gap == 0.25 and report.checked == 2 * 27 ** 2
            kind = RAMP if direction == INCREASING else NEGATED_RAMP
            sharp = {"kind": kind, "threshold": 0.125, "width": 0.25,
                     "direction": direction}
            assert report.witness == {"direction": direction, "split": 2,
                                      "functions": [sharp, sharp]}


# thresholds and widths at the float range's ends, signed zeros included
EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1022, 1e-300, 1e300,
         1.7976931348623157e308, -1.7976931348623157e308]
values = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGES)
thresholds = st.floats(allow_nan=False) | st.sampled_from(EDGES)
widths = (st.floats(min_value=5e-324, allow_nan=False)
          | st.sampled_from([w for w in EDGES if w > 0] + [float("inf")]))


def grid_functions(grid, direction):
    """The ramps of ``direction`` over a (thresholds, widths) grid, as
    TestFunctions."""
    kind = RAMP if direction == INCREASING else NEGATED_RAMP
    return [TestFunction(kind, float(t), float(w), direction)
            for t, w in zip(*grid)]


@st.composite
def ramp_grids(draw):
    """A direction and the thresholds and widths of up to six ramps."""
    direction = draw(st.sampled_from([INCREASING, DECREASING]))
    grid = draw(st.lists(st.tuples(thresholds, widths), min_size=1,
                         max_size=6))
    return direction, grid


@seed(20261020)
@settings(max_examples=400, deadline=None, database=None)
@given(ramp_grids(), st.lists(values, min_size=1, max_size=6))
def test_value_rows_are_the_members_bit_for_bit(grid, xs):
    direction, grid = grid
    x = RandomVariable(xs)
    t, w = (np.array(column, dtype=float) for column in zip(*grid))
    with np.errstate(all="ignore"):  # overflow to inf is part of the range
        rows = _ramp_rows(x.values, t, w, direction)
        members = np.vstack([f(x.values)
                             for f in grid_functions((t, w), direction)])
    assert rows.shape == members.shape
    assert rows.tobytes() == members.tobytes()


def pair_oracle(model):
    """(gap, checked, witness) of a comonotone pair's sweep: rows from
    TestFunction calls one at a time, one direction at a time, and every
    assignment visited in order, increasing first, the first strict maximum
    kept. The expectations use the check's own array formulas, so every gap
    holds the same bits."""
    W = model.credal.weights
    worst, checked, witness = None, 0, None
    for direction in (INCREASING, DECREASING):
        fs = grid_functions(_ramp_grid(model), direction)
        R1, R2 = (np.vstack([f(model.variable_at(i).values) for f in fs])
                  for i in (1, 2))
        lhs = np.einsum("aw,bw,jw->abj", R1, R2, W).max(axis=2)
        u1, u2 = (R1 @ W.T).max(axis=1), (R2 @ W.T).max(axis=1)
        for a, f in enumerate(fs):
            for b, g in enumerate(fs):
                gap = float(lhs[a, b] - u1[a] * u2[b])
                checked += 1
                if worst is None or gap > worst:
                    worst = gap
                    witness = {"direction": direction, "split": 2,
                               "functions": [f.descriptor, g.descriptor]}
    return worst, checked, witness


class TestNegativeAssociation:
    def test_negated_pair_clean(self, pair_model):
        report = check_negative_association(pair_model, 2)
        assert report.passed
        assert report.verdict == "no-counterexample-found"
        assert report.gap <= 1e-9

    def test_identical_pair_violated(self, x01):
        credal = credal_set_from_rows([[0.5, 0.5]])
        model = SequenceModel(credal, (x01, x01), "comonotone-pair")
        report = check_negative_association(model, 2)
        assert not report.passed
        assert report.verdict == "violated"
        # sharp ramp separates: E[f^2] - E[f]^2 = 0.5 - 0.25
        assert report.gap == pytest.approx(0.25, abs=1e-12)
        assert report.witness is not None and report.witness["split"] == 2

    def test_rectangular_models_clean(self, make_rectangular):
        for _ in range(10):
            model = make_rectangular(n_vars=2)
            report = check_negative_association(model, 3)
            assert report.passed, report.witness

    def test_needs_two_coordinates(self, pair_model):
        with pytest.raises(ValueError):
            check_negative_association(pair_model, 1)

    def test_pair_matches_the_function_oracle(self, rng, x01):
        identical = SequenceModel(credal_set_from_rows([[0.5, 0.5]]),
                                  (x01, x01), "comonotone-pair")
        models = [identical] + [
            binomial_pair_model(rng.uniform(0.02, 0.98,
                                            size=int(rng.integers(1, 5))))
            for _ in range(12)]
        for model in models:
            report = check_negative_association(model, 2)
            worst, checked, witness = pair_oracle(model)
            assert report.gap == worst
            assert report.checked == checked == 2 * 27 ** 2
            assert report.witness == witness

    def test_classical_covariance_bridge(self, rng):
        # premise: under every single measure the pair is classically NA
        # (covariance of same-direction images nonpositive); conclusion:
        # the sweep returns no counterexample
        for _ in range(10):
            ps = rng.uniform(0.05, 0.95, size=3)
            model = binomial_pair_model(ps)
            grid = _ramp_grid(model)
            r1 = _ramp_rows(model.variables[0].values, *grid, INCREASING)
            r2 = _ramp_rows(model.variables[1].values, *grid, INCREASING)
            for w_row in model.credal.weights:
                mean1 = r1 @ w_row
                mean2 = r2 @ w_row
                cross = (r1 * w_row) @ r2.T
                cov = cross - np.outer(mean1, mean2)
                assert cov.max() <= 1e-12
            assert check_negative_association(model, 2).passed


def enumerate_association(model, grid, n):
    """Negative-association sweep by brute force over every split k = 2..n,
    every assignment of the grid's ramps of each direction and every
    measure assignment, kept in the order the report promises (increasing
    first, first strict maximum wins).

    Each coordinate's expectation matrix is computed once per direction.
    """
    measures = range(len(model.credal))

    def upper(factors):
        return max(math.prod(e[j] for e, j in zip(factors, js))
                   for js in itertools.product(measures, repeat=len(factors)))

    worst, checked, witness = float("-inf"), 0, None
    for direction in (INCREASING, DECREASING):
        fs = grid_functions(grid, direction)
        E = [coordinate_expectation_matrix(
                 model, np.vstack([f(model.variable_at(i).values)
                                   for f in fs])).tolist()
             for i in range(1, n + 1)]
        for k in range(2, n + 1):
            for assignment in itertools.product(range(len(fs)), repeat=k):
                factors = [E[i][a] for i, a in enumerate(assignment)]
                gap = upper(factors) - upper(factors[:-1]) * max(factors[-1])
                checked += 1
                if gap > worst:
                    worst = gap
                    witness = {"direction": direction, "split": k,
                               "functions": [fs[a].descriptor
                                             for a in assignment]}
    return worst, checked, witness


class TestRectangularClosedForm:
    """The rectangular report is written in closed form; the enumeration it
    replaced is kept here as the oracle it must match exactly."""

    @staticmethod
    def random_model(rng):
        size = int(rng.integers(2, 6))
        counts = rng.integers(0, 4, size=(int(rng.integers(1, 5)), size))
        counts[:, 0] += 1  # no all-zero row; zero weights elsewhere stay
        rows = counts / counts.sum(axis=1, keepdims=True)
        variables = tuple(RandomVariable(rng.integers(-4, 5, size) / 2.0)
                          for _ in range(int(rng.integers(1, 4))))
        return SequenceModel(credal_set_from_rows(rows), variables,
                             "rectangular")

    def test_matches_enumeration(self, two_point_credal):
        # three coordinates of a two-measure model: 27^3 assignments of
        # each direction at the last split
        variables = (RandomVariable([-1.0, 0.5]), RandomVariable([0.0, 2.0]))
        model = SequenceModel(two_point_credal, variables, "rectangular")
        report = check_negative_association(model, 3)
        worst, checked, witness = enumerate_association(
            model, _ramp_grid(model), 3)
        assert report.gap == worst == 0.0
        assert report.checked == checked == 2 * (27 ** 2 + 27 ** 3)
        assert report.witness == witness
        assert report.passed

    def test_default_families_match_enumeration(self, rng):
        for _ in range(4):
            model = self.random_model(rng)
            report = check_negative_association(model, 2)
            worst, checked, witness = enumerate_association(
                model, _ramp_grid(model), 2)
            assert report.gap == worst == 0.0
            assert report.checked == checked == 2 * 27 ** 2
            assert report.witness == witness

    def test_horizon_beyond_the_old_sweep_budget(self, make_rectangular):
        # 27 ramps per direction at n = 6: 27^6 assignments at the last
        # split, more than an enumeration could afford
        model = make_rectangular(n_vars=2)
        for n in range(2, 7):
            report = check_negative_association(model, n)
            assert report.passed and report.gap == 0.0
            assert report.checked == 2 * sum(27 ** k for k in range(2, n + 1))

    def test_horizon_capped_like_the_oracle(self, make_rectangular):
        with pytest.raises(OracleTooLargeError):
            check_negative_association(make_rectangular(n_vars=2), 7)


class TestVerticalIndependence:
    def test_rectangular_equality(self, make_rectangular, rng):
        for _ in range(10):
            model = make_rectangular(n_vars=3)
            funcs = []
            for i in range(1, 4):
                vals = model.variable_at(i).values
                funcs.append(TestFunction("ramp",
                                          float(np.median(vals)) - 0.5,
                                          float(vals.max() - vals.min()) or 1.0))
            report = check_vertical_independence(model, 3, funcs)
            assert report.passed
            assert report.gap <= 1e-12

    def test_rectangular_gap_is_exactly_zero(self, make_rectangular, rng):
        # an entry of the coordinate expectation matrix does not depend on
        # the other rows of its call, so the joint table and the split
        # product multiply the same bits, and rounding keeps max(a*b) equal
        # to max(a)*max(b) for nonnegative factors
        for _ in range(40):
            model = make_rectangular(n_vars=3)
            n = int(rng.integers(2, 5))
            funcs = [TestFunction("ramp", float(rng.uniform(-10.0, 10.0)),
                                  float(rng.uniform(0.5, 10.0)))
                     for _ in range(n)]
            assert check_vertical_independence(model, n, funcs).gap == 0.0
            rows = rng.uniform(0.0, 3.0, (int(rng.integers(2, 9)),
                                          model.credal.size))
            batch = coordinate_expectation_matrix(model, rows)
            for i, row in enumerate(rows):
                alone = coordinate_expectation_matrix(model, row)
                assert batch[i].tobytes() == alone[0].tobytes()

    def test_horizon_capped_like_the_sweep(self, make_rectangular):
        model = make_rectangular(n_vars=2)
        assert check_vertical_independence(model, 6, [UNIT_RAMP] * 6).checked == 5
        with pytest.raises(OracleTooLargeError):
            check_vertical_independence(model, 7, [UNIT_RAMP] * 7)

    def test_long_horizon_refused_before_any_function_is_read(
            self, make_rectangular):
        with pytest.raises(OracleTooLargeError, match="7 coordinates exceed"):
            check_vertical_independence(make_rectangular(n_vars=2), 7, [])

    def test_functions_cycle_like_the_variables(self, make_rectangular):
        # coordinate i reads function (i - 1) % len, as it reads variable
        # (i - 1) % len, so one function per variable is the full tuple
        model = make_rectangular(n_vars=2)
        ramps = [TestFunction("ramp", 0.0, 1.0), TestFunction("ramp", 1.0, 2.0)]
        short = check_vertical_independence(model, 5, ramps)
        full = check_vertical_independence(model, 5, [*ramps, *ramps, ramps[0]])
        assert short == full
        with pytest.raises(LengthMismatchError):
            check_vertical_independence(model, 5, [])

    def test_identical_pair_fails(self, x01):
        credal = credal_set_from_rows([[0.5, 0.5]])
        model = SequenceModel(credal, (x01, x01), "comonotone-pair")
        report = check_vertical_independence(model, 2, [UNIT_RAMP, UNIT_RAMP])
        assert not report.passed
        assert report.gap == pytest.approx(0.25, abs=1e-15)

    def test_single_coordinate_vacuous(self, pair_model):
        report = check_vertical_independence(pair_model, 1, [UNIT_RAMP])
        assert report.passed and report.checked == 0

    def test_negative_function_rejected(self, pair_model):
        with pytest.raises(NegativeFunctionValueError):
            check_vertical_independence(pair_model, 2,
                                        [lambda v: v - 10.0, UNIT_RAMP])


class TestForwardFactorization:
    def test_constant_g_is_zero(self, pair_model):
        # exactly E_low[f - E_low f] = 0 up to one rounding of the recenter
        value = forward_factorization_value(pair_model, ONE, UNIT_RAMP)
        assert value == pytest.approx(0.0, abs=1e-15)

    def test_pinned_pair_values(self):
        for ps, expected in (([0.3, 0.7], -0.21), ([0.4, 0.6], -0.24)):
            model = binomial_pair_model(ps)
            value = forward_factorization_value(model, SHIFTED_RAMP, UNIT_RAMP)
            assert value == expected

    def test_closed_form_random_p_sets(self, rng):
        for _ in range(20):
            ps = rng.uniform(0.02, 0.98, size=int(rng.integers(1, 6)))
            model = binomial_pair_model(ps)
            value = forward_factorization_value(model, SHIFTED_RAMP, UNIT_RAMP)
            c = float(ps.min())
            assert value == pytest.approx(c * c - c, abs=1e-15)
            assert value < 0.0

    def test_rectangular_is_nonnegative(self, make_rectangular, rng):
        for _ in range(10):
            model = make_rectangular(n_vars=2)
            vals = model.variable_at(2).values
            f = TestFunction("ramp", float(np.median(vals)), 1.0)
            value = forward_factorization_value(model, ONE, f, n=2)
            assert value >= -1e-12

    def test_negative_g_rejected(self, pair_model):
        with pytest.raises(NegativeFunctionValueError):
            forward_factorization_value(pair_model, lambda v: v - 5.0, UNIT_RAMP)

    def test_needs_two_coordinates(self, two_point_credal, x01):
        model = SequenceModel(two_point_credal, (x01,), "rectangular")
        with pytest.raises(ValueError):
            forward_factorization_value(model, ONE, UNIT_RAMP, n=1)


class TestBinomialPairModel:
    def test_shape(self, pair_model):
        assert pair_model.joint == "comonotone-pair"
        assert np.array_equal(pair_model.variables[0].values, [0.0, -1.0])
        assert np.array_equal(pair_model.variables[1].values, [0.0, 1.0])
        # first row is (1 - 0.3, 0.3); 1 - 0.3 sits one ulp off the 0.7 literal
        assert np.allclose(pair_model.credal.weights,
                           [[0.7, 0.3], [0.3, 0.7]], rtol=0.0, atol=1e-15)

    def test_lower_expectation_of_ramp(self, pair_model):
        x = pair_model.variables[1]
        f_of_x = RandomVariable(UNIT_RAMP(x.values))
        assert lower_expectation(pair_model.credal, f_of_x) == pytest.approx(0.3, abs=1e-15)

    def test_singleton_pair_is_na(self):
        model = binomial_pair_model([0.5])
        assert check_negative_association(model, 2).passed

    def test_empty_rejected(self):
        with pytest.raises(EmptyVectorError):
            binomial_pair_model([])

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.7])
    def test_out_of_range_rejected(self, p):
        with pytest.raises(POutOfRangeError):
            binomial_pair_model([0.5, p])


def _monotone_image(model: SequenceModel, f) -> SequenceModel:
    """``model`` with every coordinate mapped through one monotone f."""
    return SequenceModel(model.credal,
                         tuple(RandomVariable(f(v.values))
                               for v in model.variables), model.joint)


class TestMonotoneImages:
    # a negative-association verdict holds under coordinatewise monotone
    # maps that all go one way
    def test_affine_images_stay_na(self, pair_model):
        image = _monotone_image(pair_model, Affine(2.0, 1.0))
        assert check_negative_association(image, 2).passed

    def test_decreasing_images_stay_na(self, pair_model):
        image = _monotone_image(pair_model, Affine(-1.0, 0.0))
        assert check_negative_association(image, 2).passed

    def test_violated_verdict_survives_images(self, x01):
        credal = credal_set_from_rows([[0.5, 0.5]])
        model = SequenceModel(credal, (x01, x01), "comonotone-pair")
        image = _monotone_image(model, Affine(3.0, -1.0))
        assert not check_negative_association(image, 2).passed


class TestExpProductBound:
    def test_zero_functions_give_zero_gap(self, pair_model):
        zero = Affine(0.0, 0.0)
        assert exp_product_bound_gap(pair_model, 2, [zero, zero]) == 0.0

    def test_rectangular_gap_vanishes(self, make_rectangular):
        model = make_rectangular(n_vars=2)
        f = TestFunction("ramp", 0.0, 2.0)
        gap = exp_product_bound_gap(model, 2, [f, f])
        assert abs(gap) <= 1e-12

    def test_pair_gap_nonnegative(self, pair_model):
        gap = exp_product_bound_gap(pair_model, 2, [SHIFTED_RAMP, UNIT_RAMP])
        assert gap >= -1e-12

    def test_mixed_directions_rejected(self, pair_model):
        down = TestFunction("negated-ramp", 0.0, 1.0, "decreasing")
        with pytest.raises(MixedMonotonicityError):
            exp_product_bound_gap(pair_model, 2, [UNIT_RAMP, down])

    def test_no_functions_is_a_length_mismatch(self, pair_model):
        # as in the other checks that cycle functions, not a direction error
        with pytest.raises(LengthMismatchError,
                           match="^no functions for 2 coordinates$"):
            exp_product_bound_gap(pair_model, 2, [])
