"""Scalar function catalog: shapes, monotonicity flags, nonpositive-ray sups."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlprob.config import from_descriptor
from nlprob.errors import ConfigValidationError, UnboundedPhiError
from nlprob.functions import (
    INCREASING,
    AbsPower,
    Affine,
    Clamp,
    Exp,
    MaxAffine,
    Polynomial,
)


class TestAffine:
    def test_eval(self):
        f = Affine(2.0, 1.0)
        assert f(3.0) == 7.0
        assert np.array_equal(f(np.array([0.0, 1.0])), [1.0, 3.0])

    def test_flags(self):
        assert Affine(2.0, 0.0).monotonicity == "increasing"
        assert Affine(-1.0, 0.0).monotonicity == "decreasing"
        assert Affine(2.0, 0.0).is_convex

    def test_sup_nonpositive(self):
        assert Affine(2.0, 5.0).sup_on_nonpositive() == 5.0
        with pytest.raises(UnboundedPhiError):
            Affine(-1.0, 0.0).sup_on_nonpositive()

    def test_identity_and_constant(self):
        identity, constant = Affine(1.0, 0.0), Affine(0.0, 3.0)
        assert identity(4.5) == 4.5
        assert identity.sup_on_nonpositive() == 0.0
        assert constant(-100.0) == 3.0


class TestExp:
    def test_eval(self):
        assert Exp(1.0)(0.0) == 1.0
        assert Exp(2.0)(1.0) == pytest.approx(math.e ** 2)

    def test_sup_nonpositive_is_one(self):
        assert Exp(1.0).sup_on_nonpositive() == 1.0

    def test_negative_rate_unbounded(self):
        with pytest.raises(UnboundedPhiError):
            Exp(-1.0).sup_on_nonpositive()

    def test_lipschitz_on_ray(self):
        # steepest point of e^x on (-inf, 1] is at 1
        assert Exp(1.0).lipschitz_on_ray(1.0) == pytest.approx(math.e)
        assert Exp(2.0).lipschitz_on_ray(0.0) == pytest.approx(2.0)

    def test_convex_increasing(self):
        assert Exp(1.0).is_convex
        assert Exp(1.0).monotonicity == "increasing"


class TestAbsPower:
    def test_eval(self):
        f = AbsPower(2.0)
        assert f(-3.0) == 9.0
        assert f.is_even and f.nondecreasing_on_positive and f.is_convex

    def test_power_below_one_rejected(self):
        with pytest.raises(ConfigValidationError):
            AbsPower(0.5)

    def test_unbounded_below_ray(self):
        with pytest.raises(UnboundedPhiError):
            AbsPower(1.0).sup_on_nonpositive()


class TestClamp:
    def test_eval(self):
        f = Clamp(-1.0, 1.0)
        assert f(-5.0) == -1.0 and f(0.3) == 0.3 and f(5.0) == 1.0

    def test_sup_nonpositive(self):
        assert Clamp(-1.0, 1.0).sup_on_nonpositive() == 0.0
        assert Clamp(0.5, 2.0).sup_on_nonpositive() == 0.5

    def test_lipschitz(self):
        assert Clamp(-1.0, 1.0).lipschitz_on_ray(1.0) == 1.0


class TestMaxAffine:
    def test_eval_and_convexity(self):
        f = MaxAffine(((1.0, 0.0), (-1.0, 0.0)))  # |x|
        assert f(2.0) == 2.0 and f(-2.0) == 2.0
        assert f.is_convex

    def test_sup_nonpositive(self):
        f = MaxAffine(((1.0, 0.0), (2.0, -1.0)))
        assert f.sup_on_nonpositive() == 0.0
        with pytest.raises(UnboundedPhiError):
            MaxAffine(((1.0, 0.0), (-1.0, 0.0))).sup_on_nonpositive()


class TestPolynomial:
    def test_eval(self):
        f = Polynomial((1.0, 0.0, 1.0))  # 1 + x^2
        assert f(2.0) == 5.0

    def test_sup_via_critical_points(self):
        # -(x+1)^2 + 2 = 1 - 2x - x^2 peaks at x = -1 inside the ray
        f = Polynomial((1.0, -2.0, -1.0))
        assert f.sup_on_nonpositive() == pytest.approx(2.0)

    def test_unbounded(self):
        with pytest.raises(UnboundedPhiError):
            Polynomial((0.0, 0.0, 1.0)).sup_on_nonpositive()  # x^2

    def test_lipschitz_on_ray(self):
        # a line has its slope; the trimmed degree decides
        assert Polynomial((0.0, 1.0)).lipschitz_on_ray(1.0) == 1.0
        assert Polynomial((2.0, -3.0, 0.0)).lipschitz_on_ray(1.0) == 3.0
        assert Polynomial((5.0, 0.0)).lipschitz_on_ray(1.0) == 0.0
        assert Polynomial((0.0, 0.0, -1.0)).lipschitz_on_ray(1.0) == math.inf

    def test_monotonicity(self):
        # a line as for Affine, a constant included; a higher degree none
        assert Polynomial((0.0, 1.0)).monotonicity == INCREASING
        assert Polynomial((5.0, 0.0)).monotonicity == INCREASING
        assert Polynomial((2.0, -3.0, 0.0)).monotonicity == "decreasing"
        assert Polynomial((0.0, 1.0, 1.0)).monotonicity is None


_PARAM = st.floats(-1e3, 1e3)
_SLOPE = st.floats(0.0, 1e3)
INCREASING_PHIS = st.one_of(
    st.builds(Affine, _SLOPE, _PARAM),
    st.builds(Exp, st.floats(0.0, 50.0)),
    st.builds(lambda a, b: Clamp(min(a, b), max(a, b)), _PARAM, _PARAM),
    st.builds(MaxAffine, st.lists(st.tuples(_SLOPE, _PARAM), min_size=1,
                                  max_size=4).map(tuple)),
    st.just(Polynomial((0, 1))),
    st.builds(lambda c0, c1, zeros: Polynomial((c0, c1) + (0.0,) * zeros),
              _PARAM, _SLOPE, st.integers(0, 2)),
)


@given(INCREASING_PHIS, st.integers(1, 33), st.integers(1, 2100),
       st.lists(st.floats(allow_nan=False, allow_infinity=False),
                max_size=20), st.booleans(), st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_an_increasing_phi_commutes_with_max(phi, rows, steps, specials,
                                             crowded, seed):
    # the simulator evaluates a nondecreasing phi once per path, at the
    # max of the path's tail, in place of the max of phi over the tail.
    # Each row is a path's tail: values spread over sixty decades, or
    # crowded a few ulps apart where a rounding could break monotonicity,
    # with any finite floats (signed zeros, subnormals, extremes) mixed in
    assert phi.monotonicity == INCREASING
    rng = np.random.default_rng(seed)
    n = rows * steps
    if crowded:
        x = rng.normal() * (1.0 + np.finfo(float).eps
                            * rng.integers(-64, 65, size=n))
    else:
        x = rng.normal(size=n) * 10.0 ** rng.integers(-30, 31, size=n)
    x[rng.integers(n, size=len(specials))] = specials
    x = x.reshape(rows, steps)
    with np.errstate(over="ignore"):
        per_step = phi(x).max(axis=1)
        per_path = phi(x.max(axis=1))
        one = np.float64(phi(x[0].max()))
    assert np.array_equal(per_step, per_path) and per_step[0] == one
    # bit for bit, but for the sign of a zero: numpy's max picks among
    # zeros of both signs by position, so it can differ whichever way
    # phi is evaluated
    nonzero = per_step != 0.0
    assert per_step[nonzero].tobytes() == per_path[nonzero].tobytes()
    assert per_step[0] == 0.0 or per_step[:1].tobytes() == one.tobytes()


class TestDescriptors:
    @pytest.mark.parametrize("desc", [
        {"kind": "affine", "slope": 2.0, "intercept": 1.0},
        {"kind": "exp", "rate": 1.0},
        {"kind": "abs-power", "power": 2.0},
        {"kind": "abs"},
        {"kind": "clamp", "lo": -1.0, "hi": 1.0},
        {"kind": "max-affine", "pieces": [[1.0, 0.0], [0.5, 0.25]]},
        {"kind": "polynomial", "coeffs": [1.0, 2.0]},
    ])
    def test_round_trip(self, desc):
        f = from_descriptor(desc)
        if desc["kind"] != "abs":  # "abs" is an alias for abs-power(1)
            assert f.descriptor["kind"] == desc["kind"]
        g = from_descriptor(f.descriptor)
        for x in (-2.0, -0.5, 0.0, 0.5, 2.0):
            assert f(x) == g(x)

    def test_unknown_kind(self):
        with pytest.raises(ConfigValidationError):
            from_descriptor({"kind": "sine"})

    def test_missing_field(self):
        with pytest.raises(ConfigValidationError):
            from_descriptor({"kind": "clamp", "lo": -1.0})
