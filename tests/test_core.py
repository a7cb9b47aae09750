"""Core types: measures, events, variables, credal sets."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nlprob
from nlprob import (
    CredalSet,
    Event,
    OutcomeSpace,
    RandomVariable,
    classical_expectation,
    credal_set_from_rows,
    dirac_measure,
    event_probability,
    indicator_variable,
    make_measure,
    uniform_measure,
)
from nlprob.errors import (
    DimensionMismatchError,
    EmptyVectorError,
    IndexOutOfRangeError,
    NegativeWeightError,
    NotNormalizedError,
)


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

    def test_uniform_and_dirac(self):
        assert np.array_equal(uniform_measure(4).weights, np.full(4, 0.25))
        assert np.array_equal(dirac_measure(3, 1).weights, [0.0, 1.0, 0.0])
        with pytest.raises(IndexOutOfRangeError):
            dirac_measure(3, 3)


class TestEvent:
    def test_membership_validation(self):
        with pytest.raises(IndexOutOfRangeError):
            Event(3, frozenset([3]))
        with pytest.raises(IndexOutOfRangeError):
            Event(3, frozenset([-1]))

    def test_complement_partition(self):
        a = Event(5, frozenset([0, 2]))
        c = a.complement()
        assert a.union(c).is_full
        assert a.intersection(c).is_empty

    def test_indicator(self):
        a = Event(4, frozenset([1, 3]))
        assert np.array_equal(a.indicator(), [0.0, 1.0, 0.0, 1.0])

    def test_subset(self):
        a = Event(4, frozenset([1]))
        b = Event(4, frozenset([1, 2]))
        assert a.issubset(b) and not b.issubset(a)


class TestClassicalExpectation:
    def test_uniform_two_point(self, x01):
        assert classical_expectation(make_measure([0.5, 0.5]), x01) == 0.5

    def test_skewed_two_point(self, x01):
        assert classical_expectation(make_measure([0.8, 0.2]), x01) == pytest.approx(0.2, abs=1e-15)

    def test_constant_preserved(self, rng):
        p = make_measure(rng.dirichlet(np.ones(6)))
        c = RandomVariable(np.full(6, 3.25))
        assert classical_expectation(p, c) == pytest.approx(3.25, abs=1e-12)

    def test_dimension_mismatch(self, x01):
        with pytest.raises(DimensionMismatchError):
            classical_expectation(make_measure([1.0]), x01)

    def test_linearity(self, rng, make_variable):
        p = make_measure(rng.dirichlet(np.ones(7)))
        x, y = make_variable(7), make_variable(7)
        for _ in range(50):
            a, b = rng.uniform(-5, 5, 2)
            combo = RandomVariable(a * x.values + b * y.values)
            lhs = classical_expectation(p, combo)
            rhs = a * classical_expectation(p, x) + b * classical_expectation(p, y)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_indicator_bridge(self, rng):
        p = make_measure(rng.dirichlet(np.ones(6)))
        for _ in range(20):
            members = frozenset(int(i) for i in rng.choice(6, size=3, replace=False))
            a = Event(6, members)
            assert classical_expectation(p, indicator_variable(a)) == pytest.approx(
                event_probability(p, a), abs=1e-15)


class TestEventProbability:
    def test_single_weight(self):
        assert event_probability(make_measure([0.5, 0.5]), Event(2, frozenset([1]))) == 0.5

    def test_empty_and_full(self, rng):
        p = make_measure(rng.dirichlet(np.ones(5)))
        assert event_probability(p, Event(5, frozenset())) == 0.0
        assert event_probability(p, Event(5, frozenset(range(5)))) == pytest.approx(1.0, abs=1e-15)

    def test_complement_sums_to_one(self, rng):
        p = make_measure(rng.dirichlet(np.ones(8)))
        for _ in range(30):
            members = frozenset(int(i) for i in np.nonzero(rng.integers(0, 2, 8))[0])
            a = Event(8, members)
            total = event_probability(p, a) + event_probability(p, a.complement())
            assert total == pytest.approx(1.0, abs=1e-12)


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

    def test_duplicate_pairs(self):
        c = credal_set_from_rows([[0.5, 0.5], [0.5, 0.5], [0.8, 0.2]])
        assert c.duplicate_pairs() == [(0, 1)]


class TestRandomVariable:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            RandomVariable(np.array([1.0, np.inf]))

    def test_map(self, x01):
        y = x01.map(lambda v: v * 2 + 1)
        assert np.array_equal(y.values, [1.0, 3.0])

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
