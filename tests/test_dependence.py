"""Dependence checkers: association sweeps, independence, forward values."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from nlprob import (
    RandomVariable,
    SequenceModel,
    binomial_pair_model,
    check_negative_association,
    check_vertical_independence,
    credal_set_from_rows,
    default_families,
    exp_product_bound_gap,
    forward_factorization_value,
    lower_expectation,
    monotone_image_model,
    ramp_family,
)
from nlprob.dependence import CONSTANT, TestFamily, TestFunction
from nlprob.errors import (
    EmptyGridError,
    EmptyVectorError,
    LengthMismatchError,
    MixedMonotonicityError,
    NegativeFunctionValueError,
    NonPositiveWidthError,
    OracleTooLargeError,
    POutOfRangeError,
)
from nlprob.functions import Affine
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
    def test_singleton(self):
        fam = ramp_family([0.0], [1.0])
        assert len(fam) == 1
        f = fam.functions[0]
        assert f(0.5) == 0.5 and f(-1.0) == 0.0 and f(2.0) == 1.0

    def test_cardinality_and_order(self):
        fam = ramp_family([0, 1, 2, 3, 4], [1.0, 2.0, 3.0])
        assert len(fam) == 15
        # thresholds-major ordering
        assert fam.functions[0].threshold == 0 and fam.functions[0].width == 1.0
        assert fam.functions[2].width == 3.0
        assert fam.functions[3].threshold == 1

    def test_empty_grid(self):
        with pytest.raises(EmptyGridError):
            ramp_family([], [1.0])

    def test_bad_width(self):
        with pytest.raises(NonPositiveWidthError):
            ramp_family([0.0], [-1.0])

    def test_mixed_family_rejected(self):
        with pytest.raises(MixedMonotonicityError):
            TestFamily((UNIT_RAMP,), "decreasing")

    def test_default_families_cover_both_directions(self, pair_model):
        inc, decr = default_families(pair_model)
        assert inc.direction == "increasing" and decr.direction == "decreasing"
        assert len(inc) == 27 and len(decr) == 27


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

    def test_explicit_family(self, pair_model):
        fam = ramp_family([-0.5, 0.0, 0.5], [0.5, 1.0])
        report = check_negative_association(pair_model, 2, family=fam)
        assert report.passed
        assert report.checked == 36  # 6 functions, one split, 6*6 pairs

    def test_classical_covariance_bridge(self, rng):
        # premise: under every single measure the pair is classically NA
        # (covariance of same-direction images nonpositive); conclusion:
        # the sweep returns no counterexample
        for _ in range(10):
            ps = rng.uniform(0.05, 0.95, size=3)
            model = binomial_pair_model(ps)
            inc, _ = default_families(model)
            r1 = inc.value_rows(model.variables[0])
            r2 = inc.value_rows(model.variables[1])
            for w_row in model.credal.weight_matrix():
                mean1 = r1 @ w_row
                mean2 = r2 @ w_row
                cross = (r1 * w_row) @ r2.T
                cov = cross - np.outer(mean1, mean2)
                assert cov.max() <= 1e-12
            assert check_negative_association(model, 2).passed


def enumerate_association(model, families, n):
    """Negative-association sweep by brute force over every split k = 2..n,
    every assignment of family functions and every measure assignment,
    kept in the order the report promises (first strict maximum wins).

    Each coordinate's expectation matrix is computed once for the whole
    family.
    """
    measures = range(len(model.credal))

    def upper(factors):
        return max(math.prod(e[j] for e, j in zip(factors, js))
                   for js in itertools.product(measures, repeat=len(factors)))

    worst, checked, witness = float("-inf"), 0, None
    for family in families:
        E = [coordinate_expectation_matrix(
                 model, family.value_rows(model.variable_at(i))).tolist()
             for i in range(1, n + 1)]
        for k in range(2, n + 1):
            for assignment in itertools.product(range(len(family)), repeat=k):
                factors = [E[i][a] for i, a in enumerate(assignment)]
                gap = upper(factors) - upper(factors[:-1]) * max(factors[-1])
                checked += 1
                if gap > worst:
                    worst = gap
                    witness = {"direction": family.direction, "split": k,
                               "functions": [family.functions[a].descriptor
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

    @staticmethod
    def random_family(rng):
        direction = ("increasing", "decreasing")[int(rng.integers(2))]
        kind = "ramp" if direction == "increasing" else "negated-ramp"
        functions = [TestFunction(kind, float(rng.uniform(-3.0, 3.0)),
                                  float(rng.uniform(0.25, 3.0)), direction)
                     for _ in range(int(rng.integers(1, 4)))]
        if rng.random() < 0.3:
            functions.insert(int(rng.integers(len(functions) + 1)),
                             TestFunction(CONSTANT, direction=direction))
        return TestFamily(tuple(functions), direction)

    def test_matches_enumeration(self, rng):
        for _ in range(60):
            model = self.random_model(rng)
            family = self.random_family(rng)
            n = int(rng.integers(2, 4))
            report = check_negative_association(model, n, family=family)
            worst, checked, witness = enumerate_association(model, [family], n)
            assert report.gap == worst == 0.0
            assert report.checked == checked
            assert report.witness == witness
            assert report.passed

    def test_default_families_match_enumeration(self, rng):
        for _ in range(4):
            model = self.random_model(rng)
            report = check_negative_association(model, 2)
            worst, checked, witness = enumerate_association(
                model, default_families(model), 2)
            assert report.gap == worst == 0.0
            assert report.checked == checked == 2 * 27 ** 2
            assert report.witness == witness

    def test_horizon_beyond_the_old_sweep_budget(self, make_rectangular):
        # 27 functions per family at n = 5: 27^5 assignments at the last
        # split, more than an enumeration could afford
        report = check_negative_association(make_rectangular(n_vars=2), 5)
        assert report.passed and report.gap == 0.0
        assert report.checked == 2 * sum(27 ** k for k in range(2, 6))

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
        assert np.allclose(pair_model.credal.weight_matrix(),
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


class TestMonotoneImages:
    def test_identity_preserves_model(self, pair_model):
        image = monotone_image_model(pair_model, [Affine(1.0, 0.0), Affine(1.0, 0.0)])
        assert np.array_equal(image.variables[0].values,
                              pair_model.variables[0].values)
        assert image.joint == pair_model.joint

    def test_affine_images_stay_na(self, pair_model):
        image = monotone_image_model(pair_model, [Affine(2.0, 1.0), Affine(2.0, 1.0)])
        assert check_negative_association(image, 2).passed

    def test_decreasing_images_stay_na(self, pair_model):
        image = monotone_image_model(pair_model, [Affine(-1.0, 0.0), Affine(-1.0, 0.0)])
        assert check_negative_association(image, 2).passed

    def test_violated_verdict_survives_images(self, x01):
        credal = credal_set_from_rows([[0.5, 0.5]])
        model = SequenceModel(credal, (x01, x01), "comonotone-pair")
        image = monotone_image_model(model, [Affine(3.0, -1.0), Affine(3.0, -1.0)])
        assert not check_negative_association(image, 2).passed

    def test_mixed_directions_rejected(self, pair_model):
        with pytest.raises(MixedMonotonicityError):
            monotone_image_model(pair_model, [Affine(1.0, 0.0), Affine(-1.0, 0.0)])

    def test_wrong_count_rejected(self, pair_model):
        with pytest.raises(LengthMismatchError):
            monotone_image_model(pair_model, [Affine(1.0, 0.0)])


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
