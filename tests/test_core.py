"""Core types: credal sets and their weight rows, event probabilities,
variables."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nlprob
from nlprob import CredalSet, RandomVariable, credal_set_from_rows
from nlprob.core import event_probability_table
from nlprob.errors import (
    DimensionMismatchError,
    EmptyVectorError,
    NegativeWeightError,
    NotNormalizedError,
)
from nlprob.expectation import expectation_values


def one_row(weights) -> np.ndarray:
    """The single row of the credal set built from ``weights``."""
    return credal_set_from_rows([weights]).weights[0]


class TestMeasureConstruction:
    def test_valid(self):
        credal = credal_set_from_rows([[0.5, 0.5]])
        assert credal.size == 2
        assert credal.weights[0].sum() == 1.0

    def test_weights_read_only(self):
        p = one_row([0.5, 0.5])
        with pytest.raises(ValueError):
            p[0] = 0.9

    def test_empty(self):
        with pytest.raises(EmptyVectorError):
            one_row([])

    def test_negative(self):
        with pytest.raises(NegativeWeightError):
            one_row([1.2, -0.2])

    def test_tiny_negative_clamped(self):
        p = one_row([1.0 + 5e-16, -5e-16])
        assert p[1] == 0.0
        assert p.sum() == 1.0

    def test_not_normalized(self):
        with pytest.raises(NotNormalizedError):
            one_row([0.5, 0.6])

    def test_renormalizes_within_tolerance(self):
        p = one_row([0.5, 0.5 + 1e-13])
        assert p.sum() == 1.0

    def test_non_finite(self):
        with pytest.raises(ValueError):
            one_row([np.nan, 1.0])


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
                event_probability_table(credal.weights, members[None, :])[0],
                abs=1e-15)


class TestEventProbability:
    def test_single_weight(self):
        table = event_probability_table(np.array([[0.5, 0.5]]),
                                        np.array([[False, True]]))
        assert table[0, 0] == 0.5

    def test_empty_and_full(self, rng):
        weights = credal_set_from_rows([rng.dirichlet(np.ones(5))]).weights
        table = event_probability_table(weights, np.array([[False] * 5, [True] * 5]))
        assert table[0, 0] == 0.0
        assert table[1, 0] == pytest.approx(1.0, abs=1e-15)

    def test_complement_sums_to_one(self, rng):
        weights = credal_set_from_rows([rng.dirichlet(np.ones(8))]).weights
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
        m = two_point_credal.weights
        assert np.array_equal(m, [[0.5, 0.5], [0.8, 0.2]])

    def test_size_consistency(self):
        with pytest.raises(DimensionMismatchError):
            credal_set_from_rows([[0.5, 0.5], [1.0]])
        with pytest.raises(DimensionMismatchError):
            CredalSet([[1.0], [0.5, 0.5]])

    def test_empty(self):
        with pytest.raises(EmptyVectorError):
            credal_set_from_rows([])

    def test_weights_are_one_read_only_array(self, two_point_credal):
        m = two_point_credal.weights
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
    p = one_row([w / total for w in raw])
    assert abs(float(p.sum()) - 1.0) <= 1e-12
    assert (p >= 0).all()


@st.composite
def near_stochastic_rows(draw):
    """1-12 outcomes, 1-6 rows; entries down to -1e-15, each row's sum
    within 1e-12 of 1."""
    size = draw(st.integers(1, 12))
    entry = st.one_of(st.floats(0.01, 1.0), st.floats(-1e-15, 0.0))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        raw = draw(st.lists(entry, min_size=size, max_size=size))
        if not any(w > 0 for w in raw):
            raw[0] = 1.0
        scale = (1.0 + draw(st.floats(-5e-13, 5e-13))) / sum(w for w in raw if w > 0)
        rows.append([w * scale if w > 0 else w for w in raw])
    return rows


@given(near_stochastic_rows())
@settings(max_examples=100, deadline=None)
def test_weights_are_the_clamped_renormalized_rows(rows):
    expected = []
    for row in rows:
        w = np.asarray(row, dtype=float)
        w = np.where(w < 0, 0.0, w)
        expected.append(w / w.sum())
    credal = credal_set_from_rows(rows)
    m = credal.weights
    assert m.tobytes() == np.vstack(expected).tobytes()
    assert m.shape == (len(rows), len(rows[0]))
    assert not m.flags.writeable


def test_version_exposed():
    assert nlprob.__version__
