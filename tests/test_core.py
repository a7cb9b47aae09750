"""Core types: measures, event probabilities, variables, credal sets."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nlprob
from nlprob import (
    CredalSet,
    OutcomeSpace,
    RandomVariable,
    credal_set_from_rows,
    make_measure,
)
from nlprob.core import event_probability_table
from nlprob.errors import (
    DimensionMismatchError,
    EmptyVectorError,
    NegativeWeightError,
    NotNormalizedError,
)
from nlprob.expectation import expectation_values


class TestMeasureConstruction:
    def test_valid(self):
        p = make_measure([0.5, 0.5])
        assert p.size == 2
        assert p.weights.sum() == 1.0

    def test_weights_read_only(self):
        p = make_measure([0.5, 0.5])
        with pytest.raises(ValueError):
            p.weights[0] = 0.9

    def test_empty(self):
        with pytest.raises(EmptyVectorError):
            make_measure([])

    def test_negative(self):
        with pytest.raises(NegativeWeightError):
            make_measure([1.2, -0.2])

    def test_tiny_negative_clamped(self):
        p = make_measure([1.0 + 5e-16, -5e-16])
        assert p.weights[1] == 0.0
        assert p.weights.sum() == 1.0

    def test_not_normalized(self):
        with pytest.raises(NotNormalizedError):
            make_measure([0.5, 0.6])

    def test_renormalizes_within_tolerance(self):
        p = make_measure([0.5, 0.5 + 1e-13])
        assert p.weights.sum() == 1.0

    def test_non_finite(self):
        with pytest.raises(ValueError):
            make_measure([np.nan, 1.0])


class TestClassicalExpectation:
    # the linear expectation of each measure, read off a one-measure set
    def test_uniform_two_point(self, x01):
        assert expectation_values(credal_set_from_rows([[0.5, 0.5]]), x01) == [0.5]

    def test_skewed_two_point(self, x01):
        e = expectation_values(credal_set_from_rows([[0.8, 0.2]]), x01)
        assert e == pytest.approx([0.2], abs=1e-15)

    def test_constant_preserved(self, rng):
        credal = credal_set_from_rows([rng.dirichlet(np.ones(6))])
        c = RandomVariable(np.full(6, 3.25))
        assert expectation_values(credal, c) == pytest.approx([3.25], abs=1e-12)

    def test_dimension_mismatch(self, x01):
        with pytest.raises(DimensionMismatchError):
            expectation_values(credal_set_from_rows([[1.0]]), x01)

    def test_linearity(self, rng, make_variable):
        credal = credal_set_from_rows([rng.dirichlet(np.ones(7))])
        x, y = make_variable(7), make_variable(7)
        for _ in range(50):
            a, b = rng.uniform(-5, 5, 2)
            combo = RandomVariable(a * x.values + b * y.values)
            lhs = expectation_values(credal, combo)
            rhs = (a * expectation_values(credal, x)
                   + b * expectation_values(credal, y))
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_indicator_bridge(self, rng):
        credal = credal_set_from_rows([rng.dirichlet(np.ones(6))])
        for _ in range(20):
            members = np.isin(np.arange(6), rng.choice(6, size=3, replace=False))
            indicator = RandomVariable(members.astype(float))
            assert expectation_values(credal, indicator) == pytest.approx(
                event_probability_table(credal.weight_matrix(), members[None, :])[0],
                abs=1e-15)


class TestEventProbability:
    def test_single_weight(self):
        table = event_probability_table(np.array([[0.5, 0.5]]),
                                        np.array([[False, True]]))
        assert table[0, 0] == 0.5

    def test_empty_and_full(self, rng):
        weights = make_measure(rng.dirichlet(np.ones(5))).weights[None, :]
        table = event_probability_table(weights, np.array([[False] * 5, [True] * 5]))
        assert table[0, 0] == 0.0
        assert table[1, 0] == pytest.approx(1.0, abs=1e-15)

    def test_complement_sums_to_one(self, rng):
        weights = make_measure(rng.dirichlet(np.ones(8))).weights[None, :]
        for _ in range(30):
            members = rng.integers(0, 2, 8) > 0
            table = event_probability_table(weights, np.vstack([members, ~members]))
            assert table.sum() == pytest.approx(1.0, abs=1e-12)


    def test_row_width_must_match_the_weights(self):
        weights = np.array([[0.5, 0.5]])
        for members in ([[True, False, True]], [[True]], [True, False]):
            with pytest.raises(DimensionMismatchError):
                event_probability_table(weights, members)


class TestCredalSet:
    def test_orders_preserved(self, two_point_credal):
        m = two_point_credal.weight_matrix()
        assert np.array_equal(m, [[0.5, 0.5], [0.8, 0.2]])

    def test_size_consistency(self):
        with pytest.raises(DimensionMismatchError):
            CredalSet(OutcomeSpace(2), (make_measure([0.5, 0.5]), make_measure([1.0])))

    def test_empty(self):
        with pytest.raises(EmptyVectorError):
            credal_set_from_rows([])

    def test_weight_matrix_is_one_read_only_array(self, two_point_credal):
        m = two_point_credal.weight_matrix()
        assert two_point_credal.weight_matrix() is m
        assert not m.flags.writeable
        with pytest.raises(ValueError):
            m[0, 0] = 1.0


class TestRandomVariable:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            RandomVariable(np.array([1.0, np.inf]))

    def test_values_read_only(self, x01):
        with pytest.raises(ValueError):
            x01.values[0] = 7.0


@given(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=10))
@settings(max_examples=60, deadline=None)
def test_measure_from_any_positive_vector_normalizes(raw):
    total = sum(raw)
    p = make_measure([w / total for w in raw])
    assert abs(float(p.weights.sum()) - 1.0) <= 1e-12
    assert (p.weights >= 0).all()


def test_version_exposed():
    assert nlprob.__version__
