"""Joint sequence models and the exact assignment-enumeration oracle."""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlprob import (
    RandomVariable,
    SequenceModel,
    credal_set_from_rows,
    lower_expectation,
    upper_expectation,
)
from nlprob.errors import (
    DimensionMismatchError,
    IndexOutOfRangeError,
    NegativeFunctionValueError,
    OracleTooLargeError,
)
from nlprob.models import (
    coordinate_expectation_matrix,
    joint_expectation_table,
    product_expectation_table,
)


@pytest.fixture
def marginal_model(two_point_credal, x01):
    return SequenceModel(two_point_credal, (x01,), "rectangular")


class TestModelValidation:
    def test_comonotone_needs_two_variables(self, two_point_credal, x01):
        with pytest.raises(DimensionMismatchError):
            SequenceModel(two_point_credal, (x01,), "comonotone-pair")

    def test_variable_dimension_checked(self, two_point_credal):
        bad = RandomVariable(np.array([0.0, 1.0, 2.0]))
        with pytest.raises(DimensionMismatchError):
            SequenceModel(two_point_credal, (bad,), "rectangular")

    def test_unknown_joint(self, two_point_credal, x01):
        with pytest.raises(ValueError):
            SequenceModel(two_point_credal, (x01, x01), "copula")

    def test_rectangular_coordinates_cycle(self, two_point_credal, x01):
        y = RandomVariable(np.array([3.0, 4.0]))
        m = SequenceModel(two_point_credal, (x01, y), "rectangular")
        assert m.variable_at(1) is x01
        assert m.variable_at(2) is y
        assert m.variable_at(3) is x01

    def test_comonotone_coordinates_do_not_cycle(self, pair_model):
        with pytest.raises(IndexOutOfRangeError):
            pair_model.variable_at(3)

    def test_coordinate_counts(self, pair_model, marginal_model):
        assert pair_model.coordinates == 2
        assert marginal_model.coordinates is None
        assert marginal_model.variable_at(7) is marginal_model.variables[0]
        with pytest.raises(IndexOutOfRangeError):
            joint_expectation_table(pair_model, lambda y, x: y * x, 3)

    def test_grids(self, pair_model, marginal_model):
        # the pair shares one outcome axis; rectangular coordinates do not
        assert [g.shape for g in pair_model.grids(2)] == [(2,), (2,)]
        assert [g.shape for g in marginal_model.grids(3)] == [(2, 2, 2)] * 3


class TestJointOracle:
    def test_product_pinned(self, marginal_model):
        # max over 4 assignments of E_j[X] * E_k[X] = 0.5 * 0.5
        value = joint_expectation_table(marginal_model, lambda a, b: a * b, 2).max()
        assert value == pytest.approx(0.25, abs=1e-15)

    def test_constant_one(self, marginal_model):
        table = joint_expectation_table(marginal_model, lambda a, b: a * 0 + 1.0, 2)
        assert table.max() == pytest.approx(1.0, abs=1e-15)

    def test_marginal_consistency(self, marginal_model, two_point_credal, x01):
        assert joint_expectation_table(marginal_model, lambda a: a, 1).max() == (
            upper_expectation(two_point_credal, x01))

    def test_difference_splits_envelopes(self, make_rectangular):
        model = make_rectangular(n_vars=2)
        x1, x2 = model.variables
        value = joint_expectation_table(model, lambda a, b: a - b, 2).max()
        expected = (upper_expectation(model.credal, x1)
                    - lower_expectation(model.credal, x2))
        assert value == pytest.approx(expected, abs=1e-12)

    def test_axis_order_of_table(self, marginal_model):
        # integrand ignoring coordinate 2: rows of the table vary with j_1 only
        table = joint_expectation_table(marginal_model, lambda a, b: a + 0 * b, 2)
        assert table.shape == (2, 2)
        assert table[0, 0] == pytest.approx(table[0, 1], abs=1e-15)
        assert table[1, 0] == pytest.approx(table[1, 1], abs=1e-15)
        assert table[0, 0] == pytest.approx(0.5, abs=1e-15)
        assert table[1, 0] == pytest.approx(0.2, abs=1e-15)

    def test_cap_enforced(self, marginal_model):
        with pytest.raises(OracleTooLargeError):
            joint_expectation_table(marginal_model, lambda *xs: sum(xs), 7)

    def test_cell_cap_enforced_within_the_horizon_cap(self):
        # 13 outcomes at n = 6: 13^6 + 1^6 cells, past the 4e6 cap
        model = SequenceModel(credal_set_from_rows([np.full(13, 1 / 13)]),
                              (RandomVariable(np.arange(13.0)),),
                              "rectangular")
        with pytest.raises(OracleTooLargeError,
                           match=r"enumeration needs ~4826810 cells"):
            joint_expectation_table(model, lambda *xs: sum(xs), 6)

    def test_non_broadcastable_integrand_falls_back(self, marginal_model):
        def scalar_only(a, b):
            if isinstance(a, np.ndarray):
                raise TypeError("scalars only")
            return max(a, b)
        value = joint_expectation_table(marginal_model, scalar_only, 2).max()
        vec = joint_expectation_table(marginal_model,
                                      lambda a, b: np.maximum(a, b), 2).max()
        assert value == pytest.approx(vec, abs=1e-15)

    def test_comonotone_shared_outcome(self, pair_model):
        # (Y, X) = (-X, X) on one copy of the space: Y*X = -X pointwise,
        # so the upper value is max_j E_j[-X] = -0.3
        value = joint_expectation_table(pair_model, lambda y, x: y * x, 2).max()
        assert value == pytest.approx(-0.3, abs=1e-15)

    def test_lower_is_negated_upper_of_negation(self, make_rectangular):
        model = make_rectangular(n_vars=3)
        value_lo = joint_expectation_table(model, lambda a, b, c: a * b - c, 3).min()
        value_up = joint_expectation_table(model, lambda a, b, c: -(a * b - c), 3).max()
        assert value_lo == pytest.approx(-value_up, abs=1e-12)


class TestProductFastPath:
    def _ramp_rows(self, model, n, rng):
        rows = []
        for i in range(1, n + 1):
            vals = model.variable_at(i).values
            t = float(rng.uniform(vals.min() - 1, vals.max() + 1))
            w = float(rng.uniform(0.5, 3.0))
            rows.append(np.clip((vals - t) / w, 0.0, 1.0))
        return np.array(rows)

    def test_matches_generic_oracle(self, make_rectangular, rng):
        for _ in range(25):
            model = make_rectangular(n_vars=3)
            rows = self._ramp_rows(model, 3, rng)

            # rebuild the same product integrand by value lookup so the slow
            # path shares no arithmetic with the factual fast path
            value_to_row = []
            for i in range(3):
                vals = model.variable_at(i + 1).values
                value_to_row.append(dict(zip(vals.tolist(), rows[i].tolist())))

            def direct(a, b, c):
                if isinstance(a, np.ndarray):
                    raise TypeError("pointwise only")
                return (value_to_row[0][float(a)] * value_to_row[1][float(b)]
                        * value_to_row[2][float(c)])

            fast_up = product_expectation_table(model, rows).max()
            fast_lo = product_expectation_table(model, rows).min()
            slow_up = joint_expectation_table(model, direct, 3).max()
            slow_lo = joint_expectation_table(model, direct, 3).min()
            assert fast_up == pytest.approx(slow_up, abs=1e-12)
            assert fast_lo == pytest.approx(slow_lo, abs=1e-12)

    def test_comonotone_fast_path(self, pair_model):
        rows = np.array([
            np.clip(pair_model.variables[0].values + 1.0, 0.0, 1.0),  # f1(Y)
            np.clip(pair_model.variables[1].values, 0.0, 1.0),        # f2(X)
        ])
        fast = product_expectation_table(pair_model, rows).max()
        lookup = {0.0: {0.0: rows[0][0] * rows[1][0]}, -1.0: {1.0: rows[0][1] * rows[1][1]}}

        def direct(y, x):
            if isinstance(y, np.ndarray):
                raise TypeError
            return lookup[float(y)][float(x)]

        slow = joint_expectation_table(pair_model, direct, 2).max()
        assert fast == pytest.approx(slow, abs=1e-15)

    def test_rectangular_factorization_bridge(self, make_rectangular, rng):
        # nonnegative product integrands: joint upper equals the product of
        # per-coordinate uppers (the vertical-independence identity)
        for _ in range(20):
            model = make_rectangular(n_vars=2)
            rows = self._ramp_rows(model, 2, rng)
            joint = product_expectation_table(model, rows).max()
            split = (upper_expectation(model.credal, RandomVariable(rows[0]))
                     * upper_expectation(model.credal, RandomVariable(rows[1])))
            assert joint == pytest.approx(split, abs=1e-12)

    def test_coordinate_expectation_matrix_shape(self, make_rectangular):
        model = make_rectangular(n_vars=2)
        rows = np.vstack([model.variable_at(1).values, model.variable_at(2).values])
        mat = coordinate_expectation_matrix(model, rows)
        assert mat.shape == (2, len(model.credal))
        assert mat[0].max() == pytest.approx(
            upper_expectation(model.credal, model.variable_at(1)), abs=1e-15)

    def test_product_table_dimension_check(self, marginal_model):
        with pytest.raises(DimensionMismatchError):
            product_expectation_table(marginal_model, np.ones((2, 5)))

    def test_closed_form_shape(self, make_rectangular, pair_model):
        model = make_rectangular(n_vars=2)
        assert product_expectation_table(model, np.ones((5, model.credal.size))
                                         ).size == 2
        assert product_expectation_table(pair_model, np.ones((2, 2))).size == (
            len(pair_model.credal))

    def test_negative_factor_rejected(self, marginal_model):
        with pytest.raises(NegativeFunctionValueError):
            product_expectation_table(marginal_model, np.array([[0.5, -0.1]]))


def _enumerated_table(model, rows):
    """Every |P|^n assignment's product expectation: the enumeration the
    closed form replaced, kept as its oracle."""
    return functools.reduce(np.multiply.outer,
                            coordinate_expectation_matrix(model, rows))


# factor values: zeros of both signs and magnitudes over six decades
FACTOR = st.one_of(st.just(0.0), st.just(-0.0), st.floats(1e-3, 1e3))


@given(st.integers(1, 8), st.integers(1, 5), st.integers(1, 6), st.data())
@settings(max_examples=200, deadline=None)
def test_closed_form_matches_enumeration_bitwise(size, n_measures, n, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    credal = credal_set_from_rows(
        rng.dirichlet(np.full(size, 0.8), size=n_measures))
    model = SequenceModel(credal, (RandomVariable(np.zeros(size)),),
                          "rectangular")
    row = st.lists(FACTOR, min_size=size, max_size=size)
    rows = np.array(data.draw(st.lists(
        st.one_of(row, st.just([-0.0] * size)), min_size=n, max_size=n)))
    closed = product_expectation_table(model, rows)
    full = _enumerated_table(model, rows)
    assert closed.max().tobytes() == full.max().tobytes()
    assert closed.min().tobytes() == full.min().tobytes()
