"""Sublinear and Choquet expectations, the four-value chain, inequality suite.

The Choquet values are cross-checked against an independent oracle that
evaluates the two defining half-line integrals by Riemann sums on a grid
aligned to the jump points of the survival function, with no shared code
with the production layer-cake path.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlprob import (
    Event,
    RandomVariable,
    borel_cantelli_tail,
    choquet_expectation,
    credal_set_from_rows,
    dirac_measure,
    expectation_chain,
    indicator_variable,
    inequality_suite,
    lower_expectation,
    lower_expectation_witness,
    lower_prob,
    sublinear_axiom_report,
    upper_expectation,
    upper_expectation_witness,
    upper_prob,
)
from nlprob.core import CredalSet, OutcomeSpace
from nlprob.errors import (
    BadExponentsError,
    ChainViolationError,
    NonPositiveFunctionError,
)
from nlprob.expectation import ExpectationBounds
from nlprob.functions import AbsPower, Affine, Exp
from nlprob.reports import all_passed


def riemann_choquet(credal, x, side, cells_per_gap=64):
    """Two-integral Choquet value via knot-aligned midpoint sums."""
    vals = np.sort(np.unique(x.values))
    lo = min(float(vals[0]), 0.0) - 1.0
    hi = max(float(vals[-1]), 0.0) + 1.0
    knots = np.unique(np.concatenate([[lo, 0.0, hi], vals]))
    kappa = upper_prob if side == "upper" else lower_prob
    total = 0.0
    for a, b in zip(knots[:-1], knots[1:]):
        edges = np.linspace(a, b, cells_per_gap + 1)
        mids = (edges[:-1] + edges[1:]) / 2
        widths = np.diff(edges)
        for m, w in zip(mids, widths):
            event = Event(credal.size,
                          frozenset(int(i) for i in np.nonzero(x.values >= m)[0]))
            surv = kappa(credal, event)
            total += w * surv if m > 0 else w * (surv - 1.0)
    return total


class TestSublinearExpectation:
    def test_upper_pinned(self, two_point_credal, x01):
        assert upper_expectation(two_point_credal, x01) == 0.5

    def test_lower_pinned(self, two_point_credal, x01):
        assert lower_expectation(two_point_credal, x01) == pytest.approx(0.2, abs=1e-15)

    def test_constant_preserved(self, two_point_credal):
        c = RandomVariable(np.array([4.5, 4.5]))
        assert upper_expectation(two_point_credal, c) == 4.5
        assert lower_expectation(two_point_credal, c) == 4.5

    def test_singleton_equals_classical(self, rng, make_variable):
        c = credal_set_from_rows([rng.dirichlet(np.ones(5))])
        x = make_variable(5)
        assert upper_expectation(c, x) == lower_expectation(c, x)

    def test_conjugation_exact(self, make_credal, make_variable):
        for _ in range(40):
            c = make_credal()
            x = make_variable(c.size)
            neg = RandomVariable(-x.values)
            assert lower_expectation(c, x) == -upper_expectation(c, neg)

    def test_witnesses(self, two_point_credal, x01):
        assert upper_expectation_witness(two_point_credal, x01) == (0.5, 0)
        value, idx = lower_expectation_witness(two_point_credal, x01)
        assert idx == 1 and value == pytest.approx(0.2, abs=1e-15)


class TestChoquet:
    def test_pinned_three_point(self, size3_credal, x012):
        assert choquet_expectation(size3_credal, x012, "upper") == 1.5
        assert choquet_expectation(size3_credal, x012, "lower") == 0.5

    def test_constant(self, two_point_credal):
        c = RandomVariable(np.array([-2.5, -2.5]))
        assert choquet_expectation(two_point_credal, c, "upper") == -2.5
        assert choquet_expectation(two_point_credal, c, "lower") == -2.5

    def test_indicator_is_upper_prob(self, make_credal, rng):
        c = make_credal(size=6)
        a = Event(6, frozenset([1, 4]))
        x = indicator_variable(a)
        assert choquet_expectation(c, x, "upper") == pytest.approx(
            upper_prob(c, a), abs=1e-15)

    def test_tied_values_merged(self):
        # (1, 1, 0) must behave exactly like a two-point variable
        credal = credal_set_from_rows([[0.2, 0.3, 0.5], [0.6, 0.2, 0.2]])
        x = RandomVariable(np.array([1.0, 1.0, 0.0]))
        # layer cake by hand: v1=0 + (1-0)*kappa(X >= 1), X>=1 on {0,1}
        expected_upper = upper_prob(credal, Event(3, frozenset([0, 1])))
        assert choquet_expectation(credal, x, "upper") == pytest.approx(
            expected_upper, abs=1e-15)

    def test_translation_invariance(self, make_credal, make_variable, rng):
        for _ in range(30):
            c = make_credal()
            x = make_variable(c.size)
            shift = float(rng.uniform(-20, 20))
            shifted = RandomVariable(x.values + shift)
            for side in ("upper", "lower"):
                assert choquet_expectation(c, shifted, side) == pytest.approx(
                    choquet_expectation(c, x, side) + shift, abs=1e-12)

    def test_riemann_oracle_agreement(self, make_credal, make_variable):
        for _ in range(60):
            c = make_credal()
            x = make_variable(c.size)
            for side in ("upper", "lower"):
                fast = choquet_expectation(c, x, side)
                slow = riemann_choquet(c, x, side)
                assert fast == pytest.approx(slow, abs=1e-6)

    def test_riemann_oracle_on_pinned_fixture(self, size3_credal, x012):
        assert riemann_choquet(size3_credal, x012, "upper") == pytest.approx(1.5, abs=1e-9)
        assert riemann_choquet(size3_credal, x012, "lower") == pytest.approx(0.5, abs=1e-9)


class TestChain:
    def test_pinned_three_point(self, size3_credal, x012):
        bounds = expectation_chain(size3_credal, x012)
        assert bounds.as_tuple() == (0.5, 1.0, 1.0, 1.5)
        assert bounds.choquet_lower < bounds.lower
        assert bounds.upper < bounds.choquet_upper

    def test_indicator_collapses_outer(self, two_point_credal, x01):
        bounds = expectation_chain(two_point_credal, x01)
        assert bounds.as_tuple() == pytest.approx((0.2, 0.2, 0.5, 0.5), abs=1e-15)

    def test_singleton_all_equal(self, rng, make_variable):
        c = credal_set_from_rows([rng.dirichlet(np.ones(6))])
        x = make_variable(6)
        cl, lo, up, cu = expectation_chain(c, x).as_tuple()
        assert cl == pytest.approx(lo, abs=1e-12)
        assert lo == pytest.approx(up, abs=1e-12)
        assert up == pytest.approx(cu, abs=1e-12)

    def test_random_instances_ordered(self, make_credal, make_variable):
        for _ in range(200):
            c = make_credal()
            x = make_variable(c.size)
            cl, lo, up, cu = expectation_chain(c, x).as_tuple()
            assert cl <= lo + 1e-12
            assert lo <= up + 1e-12
            assert up <= cu + 1e-12

    def test_violation_raises(self):
        with pytest.raises(ChainViolationError):
            ExpectationBounds(1.0, 0.0, 0.5, 2.0)


class TestSublinearAxioms:
    def test_signed_homogeneity_pinned(self, two_point_credal, x01):
        report = sublinear_axiom_report(two_point_credal, x01, x01, a=-1.0)
        rec = {r.check: r for r in report}["signed-homogeneity"]
        assert rec.passed
        # E[-X] = -0.2 = 0*E[X] + 1*E[-X] by the a-split identity
        assert upper_expectation(two_point_credal, RandomVariable(-x01.values)) == pytest.approx(-0.2, abs=1e-15)

    def test_translation_pinned(self, two_point_credal, x01):
        report = sublinear_axiom_report(two_point_credal, x01, x01, c=3.0)
        rec = {r.check: r for r in report}["translation"]
        assert rec.passed and rec.gap <= 1e-15

    def test_zero_homogeneity(self, two_point_credal, x01):
        report = sublinear_axiom_report(two_point_credal, x01, x01, lam=0.0)
        rec = {r.check: r for r in report}["positive-homogeneity"]
        assert rec.passed

    def test_negative_lambda_rejected(self, two_point_credal, x01):
        with pytest.raises(ValueError):
            sublinear_axiom_report(two_point_credal, x01, x01, lam=-1.0)

    def test_random_instances_all_pass(self, make_credal, make_variable, rng):
        for _ in range(50):
            c = make_credal()
            x, y = make_variable(c.size), make_variable(c.size)
            report = sublinear_axiom_report(
                c, x, y, lam=float(rng.uniform(0, 4)),
                c=float(rng.uniform(-5, 5)), a=float(rng.uniform(-3, 3)))
            assert all_passed(report), [r.check for r in report if not r.passed]

    def test_difference_bound(self, make_credal, make_variable):
        for _ in range(50):
            c = make_credal()
            x, y = make_variable(c.size), make_variable(c.size)
            lhs = upper_expectation(c, x) - upper_expectation(c, y)
            diff = RandomVariable(x.values - y.values)
            assert lhs <= upper_expectation(c, diff) + 1e-12


class TestInequalitySuite:
    def test_hoelder_pinned(self, two_point_credal, x01):
        one = RandomVariable(np.array([1.0, 1.0]))
        report = inequality_suite(two_point_credal, x01, one, 2.0, 2.0,
                                  1.0, Affine(1.0, 1.0))
        rec = {r.check: r for r in report}["hoelder"]
        assert rec.passed
        assert rec.lhs == pytest.approx(0.5, abs=1e-15)
        assert rec.rhs == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_chebyshev_pinned(self, two_point_credal, x01):
        report = inequality_suite(two_point_credal, x01, x01, 2.0, 2.0,
                                  1.0, Affine(1.0, 1.0))
        rec = {r.check: r for r in report}["chebyshev-upper"]
        assert rec.passed
        assert rec.lhs == 0.5          # V(X >= 1)
        assert rec.rhs == pytest.approx(0.75, abs=1e-15)  # E[X+1]/f(1) = 1.5/2
        assert [r.witness["variant"] for r in report
                if r.check.startswith("chebyshev")] == ["one-sided"] * 2

    def test_jensen_pinned(self, two_point_credal, x01):
        report = inequality_suite(two_point_credal, x01, x01, 2.0, 2.0,
                                  0.5, AbsPower(2.0))
        rec = {r.check: r for r in report}["jensen"]
        assert rec.passed
        # records always assert lhs <= rhs, so Jensen is f(E[X]) <= E[f(X)]
        assert rec.lhs == pytest.approx(0.25, abs=1e-15)
        assert rec.rhs == pytest.approx(0.5, abs=1e-15)

    def test_two_sided_variant_selected(self, two_point_credal, x01):
        report = inequality_suite(two_point_credal, x01, x01, 2.0, 2.0,
                                  0.5, AbsPower(2.0))
        assert [r.witness["variant"] for r in report
                if r.check.startswith("chebyshev")] == ["two-sided"] * 2

    def test_bad_exponents(self, two_point_credal, x01):
        with pytest.raises(BadExponentsError):
            inequality_suite(two_point_credal, x01, x01, 3.0, 3.0, 1.0, Affine(1.0, 1.0))

    def test_conjugate_exponents_accepted(self, two_point_credal, x01):
        report = inequality_suite(two_point_credal, x01, x01, 3.0, 1.5, 1.0,
                                  Affine(1.0, 1.0))
        assert {r.check: r for r in report}["hoelder"].passed

    def test_nonpositive_f_at_threshold(self, two_point_credal, x01):
        with pytest.raises(NonPositiveFunctionError):
            inequality_suite(two_point_credal, x01, x01, 2.0, 2.0, 1.0,
                             Affine(1.0, -5.0))

    def test_random_instances(self, make_credal, make_variable, rng):
        for _ in range(60):
            c = make_credal()
            x, y = make_variable(c.size), make_variable(c.size)
            shift = 1.0 - float(x.values.min())
            threshold = float(np.median(x.values))
            report = inequality_suite(c, x, y, 2.0, 2.0, threshold,
                                      Affine(1.0, shift))
            assert all_passed(report), [r.check for r in report if not r.passed]
            report = inequality_suite(c, x, y, 2.0, 2.0, threshold, Exp(1.0))
            assert all_passed(report)


class TestBorelCantelli:
    def test_geometric_tail_pinned(self):
        # P({n}) = 2^-n for n = 1..10, remainder on outcome 0
        weights = [2.0 ** -10] + [2.0 ** -n for n in range(1, 11)]
        credal = credal_set_from_rows([weights])
        events = [Event(11, frozenset([n])) for n in range(1, 11)]
        result = borel_cantelli_tail(credal, events, m=4)
        assert result.tail_bound == 2.0 ** -3 - 2.0 ** -10 == 0.1240234375
        assert result.union_upper <= result.tail_bound + 1e-15

    def test_single_event_equality(self, make_credal):
        c = make_credal(size=4)
        a = Event(4, frozenset([2]))
        result = borel_cantelli_tail(c, [a], m=1)
        assert result.tail_bound == pytest.approx(upper_prob(c, a), abs=1e-15)
        assert result.union_upper == pytest.approx(result.tail_bound, abs=1e-15)

    def test_disjoint_singleton_additive(self, rng):
        c = credal_set_from_rows([rng.dirichlet(np.ones(6))])
        events = [Event(6, frozenset([i])) for i in range(4)]
        result = borel_cantelli_tail(c, events, m=1)
        assert result.union_upper == pytest.approx(result.tail_bound, abs=1e-12)


@given(st.integers(2, 6), st.integers(1, 4), st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_subadditivity_property(size, n_measures, seed):
    rng = np.random.default_rng(seed)
    c = credal_set_from_rows(rng.dirichlet(np.ones(size), size=n_measures))
    x = RandomVariable(rng.uniform(-10, 10, size))
    y = RandomVariable(rng.uniform(-10, 10, size))
    both = RandomVariable(x.values + y.values)
    assert upper_expectation(c, both) <= (
        upper_expectation(c, x) + upper_expectation(c, y) + 1e-12)


@given(st.floats(0.0, 50.0), st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_positive_homogeneity_property(lam, seed):
    rng = np.random.default_rng(seed)
    c = credal_set_from_rows(rng.dirichlet(np.ones(4), size=3))
    x = RandomVariable(rng.uniform(-10, 10, 4))
    scaled = RandomVariable(lam * x.values)
    assert upper_expectation(c, scaled) == pytest.approx(
        lam * upper_expectation(c, x), rel=1e-12, abs=1e-12)
