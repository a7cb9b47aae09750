"""Scalar function catalog: shapes, monotonicity flags, and the rule that a
nondecreasing phi's sup over the nonpositive ray is phi(0)."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlprob.config import from_descriptor
from nlprob.errors import ConfigValidationError
from nlprob.functions import (
    DECREASING,
    INCREASING,
    AbsPower,
    Affine,
    Clamp,
    Exp,
    MaxAffine,
    Polynomial,
)
from nlprob.simulate import _phi_bound

# [-1e3, 0] in unit steps (exact integers, 0 included) and tiny negatives
NONPOSITIVE_GRID = np.concatenate([np.linspace(-1e3, 0.0, 1001),
                                   -np.geomspace(1e-300, 1e3, 601)])


def sup_on_grid(phi) -> float:
    """The brute-force sup of phi over ``NONPOSITIVE_GRID``."""
    with np.errstate(over="ignore"):
        return float(phi(NONPOSITIVE_GRID).max())


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
        # nondecreasing: the sup over x <= 0 is the value at 0; a negative
        # slope grows as x -> -inf and is flagged, so phi refuses it
        assert sup_on_grid(Affine(2.0, 5.0)) == Affine(2.0, 5.0)(0.0) == 5.0
        assert Affine(-1.0, 0.0).monotonicity == DECREASING
        assert sup_on_grid(Affine(-1.0, 0.0)) == 1e3

    def test_identity_and_constant(self):
        identity, constant = Affine(1.0, 0.0), Affine(0.0, 3.0)
        assert identity(4.5) == 4.5
        assert sup_on_grid(identity) == identity(0.0) == 0.0
        assert constant(-100.0) == 3.0


class TestExp:
    def test_eval(self):
        assert Exp(1.0)(0.0) == 1.0
        assert Exp(2.0)(1.0) == pytest.approx(math.e ** 2)

    def test_sup_nonpositive_is_one(self):
        assert sup_on_grid(Exp(1.0)) == Exp(1.0)(0.0) == 1.0

    def test_negative_rate_unbounded(self):
        assert Exp(-1.0).monotonicity == DECREASING
        assert sup_on_grid(Exp(-1.0)) == math.inf

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
        assert AbsPower(1.0).monotonicity is None
        assert sup_on_grid(AbsPower(1.0)) == 1e3


class TestClamp:
    def test_eval(self):
        f = Clamp(-1.0, 1.0)
        assert f(-5.0) == -1.0 and f(0.3) == 0.3 and f(5.0) == 1.0

    def test_sup_nonpositive(self):
        assert sup_on_grid(Clamp(-1.0, 1.0)) == Clamp(-1.0, 1.0)(0.0) == 0.0
        assert sup_on_grid(Clamp(0.5, 2.0)) == Clamp(0.5, 2.0)(0.0) == 0.5

    def test_lipschitz(self):
        assert Clamp(-1.0, 1.0).lipschitz_on_ray(1.0) == 1.0


class TestMaxAffine:
    def test_eval_and_convexity(self):
        f = MaxAffine(((1.0, 0.0), (-1.0, 0.0)))  # |x|
        assert f(2.0) == 2.0 and f(-2.0) == 2.0
        assert f.is_convex

    def test_sup_nonpositive(self):
        f = MaxAffine(((1.0, 0.0), (2.0, -1.0)))
        assert sup_on_grid(f) == f(0.0) == 0.0
        absolute = MaxAffine(((1.0, 0.0), (-1.0, 0.0)))
        assert absolute.monotonicity is None
        assert sup_on_grid(absolute) == 1e3


class TestPolynomial:
    def test_eval(self):
        f = Polynomial((1.0, 0.0, 1.0))  # 1 + x^2
        assert f(2.0) == 5.0

    def test_sup_via_critical_points(self):
        # -(x+1)^2 + 2 = 1 - 2x - x^2 peaks at x = -1 inside the ray, above
        # its value at 0: it is not nondecreasing, and flagged so
        f = Polynomial((1.0, -2.0, -1.0))
        assert sup_on_grid(f) == f(-1.0) == 2.0 > f(0.0)
        assert f.monotonicity is None

    def test_unbounded(self):
        square = Polynomial((0.0, 0.0, 1.0))
        assert square.monotonicity is None
        assert sup_on_grid(square) == 1e6

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


@given(INCREASING_PHIS)
@settings(max_examples=300, deadline=None)
def test_a_nondecreasing_phi_peaks_on_the_nonpositive_ray_at_zero(phi):
    # the brute-force sup over a grid of [-1e3, 0] that holds 0 is phi(0),
    # the bound the simulator reports for a phi
    assert phi.monotonicity == INCREASING
    assert sup_on_grid(phi) == float(phi(0.0)) == _phi_bound(phi)


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

    @pytest.mark.parametrize("desc, message", [
        ({"kind": "max-affine", "pieces": [[1, 2, 3]]},
         "pieces: must be a list of [slope, intercept] pairs, got [[1, 2, 3]]"),
        ({"kind": "max-affine", "pieces": "ab"},
         "pieces: must be a list of [slope, intercept] pairs, got 'ab'"),
        ({"kind": "max-affine", "pieces": [1.0, 2.0]},
         "pieces: must be a list of [slope, intercept] pairs, got [1.0, 2.0]"),
        ({"kind": "polynomial", "coeffs": None},
         "coeffs: must be a list of numbers, got None"),
        ({"kind": "polynomial", "coeffs": {"0": 1.0}},
         "coeffs: must be a list of numbers, got {'0': 1.0}"),
    ], ids=["triple", "string", "flat", "null", "object"])
    def test_malformed_list_field(self, desc, message):
        # named as a field, not Python's own unpacking or iteration message
        with pytest.raises(ConfigValidationError,
                           match=f"^phi: {re.escape(message)}$"):
            from_descriptor(desc, "phi")
