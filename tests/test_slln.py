"""Weight schedules, truncation calculus and exponential moment bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlprob import (
    RandomVariable,
    SequenceModel,
    TruncationParams,
    credal_set_from_rows,
    elementary_exp_bound_check,
    exp_moment_bound,
    make_schedule,
    normalized_partial_sums,
    truncate,
    truncation_params,
    upper_expectation,
    validate_schedule,
)
from nlprob.errors import (
    AlphaOutOfRangeError,
    BetaOutOfRangeError,
    DegenerateLogError,
    IndexOutOfRangeError,
    LengthMismatchError,
    POutOfRangeError,
)


@pytest.fixture
def kolmogorov():
    return make_schedule("kolmogorov", alpha=1.0, beta=0.5)


class TestMakeSchedule:
    def test_kolmogorov_weights_and_normalizer(self, kolmogorov):
        assert np.all(kolmogorov.a([1, 2, 17]) == 1.0)
        assert float(kolmogorov.A(10)) == 10.0
        assert np.all(kolmogorov.A([1, 2, 3]) == [1.0, 2.0, 3.0])

    def test_kolmogorov_divergence_rate_pin(self, kolmogorov):
        # r_10 = A_10 / 10^{1/(beta+1)} = 10^{1/3} for beta = 1/2
        r = float(kolmogorov.A(10)) / 10 ** (1.0 / 1.5)
        assert r == pytest.approx(10 ** (1.0 / 3.0), rel=1e-14)
        assert r == pytest.approx(2.154434690031884, rel=1e-12)

    def test_mz_normalizer_is_inverse_power(self):
        sched = make_schedule("mz", alpha=1.0, beta=0.5, p=1.25)
        assert sched.A_kind == "power" and sched.A_param == 0.8
        assert float(sched.A(32)) == 32.0 ** 0.8
        assert np.all(sched.a([1, 5, 9]) == 1.0)

    def test_marcinkiewicz_alias(self):
        sched = make_schedule("marcinkiewicz", alpha=1.0, beta=0.5, p=1.25)
        assert sched.kind == "mz"

    def test_mz_beta_must_exceed_p_minus_one(self):
        with pytest.raises(BetaOutOfRangeError):
            make_schedule("mz", alpha=1.0, beta=0.2, p=1.25)

    def test_mz_p_range(self):
        with pytest.raises(POutOfRangeError):
            make_schedule("mz", alpha=1.0, beta=0.5, p=2.5)
        with pytest.raises(POutOfRangeError):
            make_schedule("mz", alpha=1.0, beta=0.5, p=0.9)
        with pytest.raises(POutOfRangeError):
            make_schedule("mz", alpha=1.0, beta=0.5)  # p required

    def test_alpha_caps_beta(self):
        with pytest.raises(BetaOutOfRangeError):
            make_schedule("kolmogorov", alpha=0.3, beta=0.5)
        with pytest.raises(BetaOutOfRangeError):
            make_schedule("kolmogorov", alpha=2.0, beta=1.0)  # cap is min(1, alpha)
        with pytest.raises(AlphaOutOfRangeError):
            make_schedule("kolmogorov", alpha=0.0, beta=0.5)

    def test_positive_scale_parameters(self):
        with pytest.raises(ValueError):
            make_schedule("kolmogorov", alpha=1.0, beta=0.5, C=0.0)
        with pytest.raises(ValueError):
            make_schedule("kolmogorov", alpha=1.0, beta=0.5, m=-1.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown schedule kind"):
            make_schedule("cesaro", alpha=1.0, beta=0.5)

    def test_custom_defaults_match_kolmogorov(self, kolmogorov):
        sched = make_schedule("custom", alpha=1.0, beta=0.5)
        ii = np.arange(1, 20)
        assert np.all(sched.a(ii) == kolmogorov.a(ii))
        assert np.all(sched.A(ii) == kolmogorov.A(ii))

    def test_custom_harmonic_weights(self):
        sched = make_schedule("custom", alpha=1.0, beta=0.5,
                              a_rule=("harmonic", None))
        assert np.all(sched.a([1, 2, 4]) == [2.0, 1.5, 1.25])

    def test_custom_table_rules(self):
        sched = make_schedule("custom", alpha=1.0, beta=0.5,
                              a_rule=("table", (1.0, 2.0, 3.0)),
                              A_rule=("table", (1.0, 4.0, 9.0)))
        assert np.all(sched.a([1, 3]) == [1.0, 3.0])
        assert np.all(sched.A([2, 3]) == [4.0, 9.0])
        with pytest.raises(LengthMismatchError):
            sched.A(4)

    def test_custom_rejects_bad_rules(self):
        with pytest.raises(ValueError):
            make_schedule("custom", alpha=1.0, beta=0.5,
                          a_rule=("constant", 0.0))
        with pytest.raises(ValueError):
            make_schedule("custom", alpha=1.0, beta=0.5,
                          a_rule=("table", (1.0, -2.0)))
        with pytest.raises(POutOfRangeError):
            make_schedule("custom", alpha=1.0, beta=0.5,
                          A_rule=("power", 1.5))

    def test_rules_never_return_the_callers_array(self, kolmogorov):
        # indices are read without a copy, so a rule must not hand them back
        x = np.arange(1.0, 5.0)
        for sched in (kolmogorov, make_schedule("mz", alpha=1.0, beta=0.5,
                                                p=1.25)):
            for values in (sched.a(x), sched.A(x)):
                assert not np.shares_memory(values, x)

    def test_indices_are_one_based(self, kolmogorov):
        with pytest.raises(IndexOutOfRangeError):
            kolmogorov.a(0)
        with pytest.raises(IndexOutOfRangeError):
            kolmogorov.A([1, 0])

    def test_descriptor_round_trip_fields(self):
        sched = make_schedule("mz", alpha=0.75, beta=0.3, C=2.0, m=3.0, p=1.1)
        assert sched.descriptor == {"kind": "mz", "p": 1.1, "alpha": 0.75,
                                    "beta": 0.3, "C": 2.0, "m": 3.0}


class TestValidateSchedule:
    def test_kolmogorov_passes_with_pinned_probes(self, kolmogorov):
        report = validate_schedule(kolmogorov, 10_000)
        assert report.passed
        assert report.probes == (100, 1000, 10_000)
        # r_n = n / n^{2/3} = n^{1/3}
        assert report.r_values == pytest.approx(
            (100 ** (1 / 3), 10.0, 10_000 ** (1 / 3)), rel=1e-12)
        assert report.growth_ratio == pytest.approx(100 ** (1 / 3), rel=1e-12)
        assert report.weight_sup == 1.0

    def test_log_normalizer_fails(self):
        # A_n = log(n+1) grows too slowly: r_n decays, so both the strict
        # increase and the growth-factor check must trip
        table = tuple(np.log(np.arange(1, 1001) + 1.0))
        sched = make_schedule("custom", alpha=1.0, beta=0.5,
                              A_rule=("table", table))
        report = validate_schedule(sched, 1000)
        assert not report.passed
        assert report.r_values[0] > report.r_values[1] > report.r_values[2]

    def test_boundary_power_fails_on_strict_increase(self):
        # A_n = n^{1/(beta+1)} exactly: r_n == 1 at every probe
        sched = make_schedule("custom", alpha=1.0, beta=0.5,
                              A_rule=("power", 1.0 / 1.5))
        report = validate_schedule(sched, 10_000)
        assert not report.passed
        assert report.r_values == (1.0, 1.0, 1.0)
        assert report.growth_ratio == 1.0

    def test_short_horizon_rejected(self, kolmogorov):
        with pytest.raises(ValueError, match="horizon"):
            validate_schedule(kolmogorov, 99)

    def test_weight_sup_sees_harmonic_peak(self):
        sched = make_schedule("custom", alpha=1.0, beta=0.5,
                              a_rule=("harmonic", None))
        report = validate_schedule(sched, 10_000)
        assert report.weight_sup == 2.0  # a_1 = 1 + 1/1
        assert report.passed

    def test_result_names(self, kolmogorov):
        report = validate_schedule(kolmogorov, 100)
        assert [r.check for r in report.results] == [
            "r-strictly-increasing", "r-growth", "weights-positive",
            "normalizer-positive", "normalizer-increasing"]

    def test_zero_normalizer_fails(self):
        # A = (0, 1, 2, ...) increases and grows fast enough, but A_1 = 0
        sched = make_schedule("custom", alpha=1.0, beta=0.5,
                              A_rule=("table", tuple(range(1000))))
        report = validate_schedule(sched, 1000)
        failed = [r for r in report.results if not r.passed]
        assert [r.check for r in failed] == ["normalizer-positive"]
        assert failed[0].witness == {"min": 0.0}


class TestTruncation:
    def test_half_width_pin_at_first_index(self, kolmogorov, two_point_credal, x01):
        # c_1 = C A_1 / (a_1 log 2) = 1 / log 2
        params = truncation_params(kolmogorov, 1, two_point_credal, x01)
        assert params.half_width == pytest.approx(1.0 / math.log(2.0), rel=1e-15)
        assert params.center == 0.5  # upper mean of x01

    def test_wide_window_is_identity(self, kolmogorov, two_point_credal, x01):
        # c_1 > span(X): the clip never binds and the recenter undoes the shift
        params = truncation_params(kolmogorov, 1, two_point_credal, x01)
        assert params.recenter == 0.5
        y = truncate(x01, params)
        assert np.all(y.values == x01.values)

    def test_huge_C_is_identity(self, two_point_credal, make_variable):
        sched = make_schedule("kolmogorov", alpha=1.0, beta=0.5, C=100.0)
        x = make_variable(2)
        params = truncation_params(sched, 3, two_point_credal, x)
        assert np.allclose(truncate(x, params).values, x.values,
                           rtol=0.0, atol=1e-12)

    def test_constant_variable_is_fixed_point(self, kolmogorov, two_point_credal):
        x = RandomVariable(np.array([3.0, 3.0]))
        params = truncation_params(kolmogorov, 2, two_point_credal, x)
        assert np.all(truncate(x, params).values == 3.0)

    def test_index_must_be_positive(self, kolmogorov, two_point_credal, x01):
        with pytest.raises(DegenerateLogError):
            truncation_params(kolmogorov, 0, two_point_credal, x01)

    def test_clip_map_pins(self):
        # explicit params: b = 0.5, c = 0.2, d = 0
        params = TruncationParams(3, 0.5, 0.2, 0.0)
        x = RandomVariable(np.array([0.5, 0.9, 0.0, 1.0]))
        y = truncate(x, params)
        assert np.all(y.values == [0.0, 0.2, -0.2, 0.2])
        # the two identities the recenter algebra relies on:
        # f(b) = d and f(b + 2c) = c + d
        assert y.values[0] == params.recenter
        assert y.values[1] == params.half_width + params.recenter

    def test_pinned_window_on_unit_pair(self):
        params = TruncationParams(1, 0.5, 0.2, 0.0)
        y = truncate(RandomVariable(np.array([0.0, 1.0])), params)
        assert np.all(y.values == [-0.2, 0.2])

    @pytest.mark.parametrize("C", [0.1, 1.0, 10.0])
    def test_mean_preservation_and_envelope(self, C, rng, make_credal,
                                            make_variable):
        sched = make_schedule("kolmogorov", alpha=1.0, beta=0.5, C=C)
        for _ in range(10):
            credal = make_credal()
            x = make_variable(credal.size)
            i = int(rng.integers(1, 51))
            params = truncation_params(sched, i, credal, x)
            y = truncate(x, params)
            # upper mean survives the clip exactly (up to roundoff)
            assert upper_expectation(credal, y) == pytest.approx(
                upper_expectation(credal, x), abs=1e-12)
            # weighted reach stays inside the 6 c_i a_i envelope
            reach = float(sched.a(i)) * np.abs(
                y.values - upper_expectation(credal, y)).max()
            envelope = 6.0 * C * float(sched.A(i)) / math.log(i + 1)
            assert reach <= envelope + 1e-12

    def test_moment_transfer_inequality(self, rng, make_credal, make_variable,
                                        kolmogorov):
        # E_up |Y - E_up Y|^{alpha+1} <= E_up (|X - E_up X| + E_up|X - E_up X|)^{alpha+1}
        alpha = kolmogorov.alpha
        for _ in range(10):
            credal = make_credal()
            x = make_variable(credal.size)
            params = truncation_params(kolmogorov, int(rng.integers(1, 20)),
                                       credal, x)
            y = truncate(x, params)
            by = upper_expectation(credal, y)
            lhs = upper_expectation(
                credal, RandomVariable(np.abs(y.values - by) ** (alpha + 1)))
            bx = upper_expectation(credal, x)
            dev = np.abs(x.values - bx)
            mad = upper_expectation(credal, RandomVariable(dev))
            rhs = upper_expectation(
                credal, RandomVariable((dev + mad) ** (alpha + 1)))
            assert lhs <= rhs + 1e-12


class TestElementaryExpBound:
    def test_zero_is_tight(self):
        check = elementary_exp_bound_check(0.0, 0.5)
        assert float(check.lhs) == 1.0 and float(check.rhs) == 1.0
        assert check.passed

    def test_pin_at_one(self):
        check = elementary_exp_bound_check(1.0, 1.0)
        assert float(check.rhs) == pytest.approx(2.0 + math.e ** 2, rel=1e-15)
        assert float(check.lhs) == pytest.approx(math.e, rel=1e-15)
        assert check.passed

    def test_pin_at_minus_two(self):
        check = elementary_exp_bound_check(-2.0, 0.5)
        assert float(check.lhs) == pytest.approx(math.exp(-2.0), rel=1e-15)
        assert float(check.rhs) == pytest.approx(
            -1.0 + 2.0 ** 1.5 * math.exp(4.0), rel=1e-12)
        assert check.passed

    @pytest.mark.parametrize("alpha", [0.1, 1.0])
    def test_holds_on_grid(self, alpha):
        grid = np.arange(-10.0, 10.0 + 1e-9, 0.01)
        check = elementary_exp_bound_check(grid, alpha)
        assert check.passed
        assert check.lhs.shape == grid.shape

    def test_alpha_range(self):
        with pytest.raises(AlphaOutOfRangeError):
            elementary_exp_bound_check(1.0, 0.0)
        with pytest.raises(AlphaOutOfRangeError):
            elementary_exp_bound_check(1.0, 1.5)


class TestExpMomentBound:
    def test_constant_coordinates_give_one(self, kolmogorov, two_point_credal):
        const = RandomVariable(np.array([3.0, 3.0]))
        model = SequenceModel(two_point_credal, (const,), "rectangular")
        for n in range(1, 5):
            assert exp_moment_bound(model, kolmogorov, n) == pytest.approx(
                1.0, abs=1e-12)

    def test_singleton_iid_matches_mgf_product(self, kolmogorov):
        credal = credal_set_from_rows([[0.4, 0.6]])
        model = SequenceModel(credal, (RandomVariable(np.array([0.0, 1.0])),),
                              "rectangular")
        for n in range(1, 5):
            lam = kolmogorov.m * math.log(n + 1) / float(kolmogorov.A(n))
            # classical MGF of the centered coordinate, one factor per step
            factor = 0.4 * math.exp(-0.6 * lam) + 0.6 * math.exp(0.4 * lam)
            assert exp_moment_bound(model, kolmogorov, n) == pytest.approx(
                factor ** n, rel=1e-12)

    def test_rectangular_equals_per_coordinate_product(self, kolmogorov):
        credal = credal_set_from_rows([[0.7, 0.3], [0.3, 0.7]])
        x = RandomVariable(np.array([0.0, 1.0]))
        model = SequenceModel(credal, (x,), "rectangular")
        for n in range(1, 41):  # the closed form has no enumeration cap
            lam = kolmogorov.m * math.log(n + 1) / float(kolmogorov.A(n))
            b = upper_expectation(credal, x)
            factor = upper_expectation(
                credal, RandomVariable(np.exp(lam * (x.values - b))))
            assert exp_moment_bound(model, kolmogorov, n) == pytest.approx(
                factor ** n, rel=1e-12)

    def test_comonotone_pair_respects_product_bound(self, pair_model,
                                                    kolmogorov):
        # joint upper of the product never exceeds the product of uppers;
        # the pair model stops at two coordinates, which is where the
        # inequality is substantive anyway
        for n in (1, 2):
            lam = kolmogorov.m * math.log(n + 1) / float(kolmogorov.A(n))
            bound = 1.0
            for i in range(1, n + 1):
                v = pair_model.variable_at(i)
                b = upper_expectation(pair_model.credal, v)
                bound *= upper_expectation(
                    pair_model.credal,
                    RandomVariable(np.exp(lam * (v.values - b))))
            assert exp_moment_bound(pair_model, kolmogorov, n) <= bound + 1e-12

    def test_needs_positive_n(self, kolmogorov, pair_model):
        with pytest.raises(IndexOutOfRangeError):
            exp_moment_bound(pair_model, kolmogorov, 0)


class TestNormalizedPartialSums:
    def test_unit_steps(self, kolmogorov):
        s = normalized_partial_sums([1.0, 1.0], kolmogorov.table(2),
                                    [0.0, 0.0])
        assert np.all(s == [1.0, 1.0])

    def test_alternating_pin(self, kolmogorov):
        s = normalized_partial_sums([1.0, 0.0, 1.0, 0.0], kolmogorov.table(4),
                                    [0.5] * 4)
        assert s == pytest.approx([0.5, 0.0, 1.0 / 6.0, 0.0], abs=1e-15)

    def test_centers_cancel_exactly(self, kolmogorov, rng):
        x = rng.uniform(-5, 5, 30)
        assert np.all(
            normalized_partial_sums(x, kolmogorov.table(len(x)), x) == 0.0)

    def test_power_normalizer(self):
        sched = make_schedule("mz", alpha=1.0, beta=0.5, p=1.25)
        s = normalized_partial_sums([1.0, 1.0, 1.0], sched.table(3), [0.0] * 3)
        assert s == pytest.approx(
            [1.0, 2.0 / 2.0 ** 0.8, 3.0 / 3.0 ** 0.8], rel=1e-15)

    def test_center_count_must_cover_steps(self, kolmogorov):
        with pytest.raises(LengthMismatchError):
            normalized_partial_sums([1.0, 2.0, 3.0], kolmogorov.table(3),
                                    [0.0, 0.0])
        # extra centers are fine: only the first x.size are used
        s = normalized_partial_sums([1.0], kolmogorov.table(1), [0.0, 9.0])
        assert np.all(s == [1.0])

    def test_table_must_cover_steps(self, kolmogorov):
        with pytest.raises(LengthMismatchError):
            normalized_partial_sums([1.0, 2.0, 3.0], kolmogorov.table(2),
                                    [0.0] * 3)
        a, A = kolmogorov.table(3)
        for short in ((a[:2], A), (a, A[:2])):
            with pytest.raises(LengthMismatchError):
                normalized_partial_sums([1.0, 2.0, 3.0], short, [0.0] * 3)
        # a longer table is fine: only the first x.size entries are used
        assert np.array_equal(
            normalized_partial_sums([1.0, 2.0], kolmogorov.table(5), [0.0] * 2),
            normalized_partial_sums([1.0, 2.0], kolmogorov.table(2), [0.0] * 2))

    @pytest.mark.parametrize("rules", [
        ("kolmogorov", {}),
        ("mz", {"p": 1.25}),
        ("custom", {"a_rule": ("harmonic", None)}),
        ("custom", {"a_rule": ("harmonic", None), "A_rule": ("power", 0.9)}),
        ("custom", {"a_rule": ("table", tuple(np.linspace(0.5, 3.0, 257))),
                    "A_rule": ("table", tuple(np.arange(1.0, 258.0) ** 0.85))}),
    ], ids=["kolmogorov", "mz", "harmonic", "harmonic-power", "tables"])
    def test_table_matches_the_pointwise_formula_bit_for_bit(self, rules, rng):
        kind, extra = rules
        sched = make_schedule(kind, alpha=1.0, beta=0.5, **extra)
        for n in (1, 2, 17, 257):
            ii = np.arange(1, n + 1)
            x = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4, size=n)
            c = rng.uniform(-1.0, 1.0, size=n)
            a, A = sched.table(n)
            assert np.array_equal(a, sched.a(ii)) and np.array_equal(A, sched.A(ii))
            want = np.cumsum(sched.a(ii) * (x - c)) / sched.A(ii)
            assert np.array_equal(
                normalized_partial_sums(x, sched.table(n), c), want)

    @given(st.sampled_from(["constant", "harmonic", "table"]),
           st.sampled_from(["linear", "power", "table"]),
           st.integers(1, 3 * 1024 + 9), st.data())
    @settings(max_examples=150, deadline=None)
    def test_block_table_is_the_one_shot_slice_bit_for_bit(self, a_kind,
                                                           A_kind, stop, data):
        # the simulator evaluates the weights block by block; at any start,
        # on a block edge or off every multiple of 8 where numpy's vector
        # loops would align differently, they are the one-shot table's bytes
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        a_param = {"constant": data.draw(st.floats(0.01, 10.0)),
                   "harmonic": None,
                   "table": tuple(rng.uniform(0.25, 4.0, stop + 3))}[a_kind]
        A_param = {"linear": 1.0,
                   "power": data.draw(st.one_of(st.just(0.8),
                                                st.floats(0.01, 1.0))),
                   "table": tuple(np.cumsum(rng.uniform(0.25, 4.0, stop)))
                   }[A_kind]
        sched = make_schedule("custom", alpha=1.0, beta=0.5,
                              a_rule=(a_kind, a_param),
                              A_rule=(A_kind, A_param))
        want = sched.table(stop)
        starts = data.draw(st.lists(st.integers(0, stop), max_size=4))
        for start in starts + [s for s in (0, 1, 7, 1023, 1024, 1025, 2053)
                               if s <= stop]:
            got = sched.table(stop, start)
            for g, w in zip(got, want, strict=True):
                assert g.dtype == w.dtype and g.size == stop - start
                assert g.tobytes() == w[start:].tobytes()

    def test_blocks_with_a_carry_match_one_pass_bit_for_bit(self, rng):
        # a (paths, steps) array cut into blocks at random edges, each block
        # summed with the paths' carry, gives the one-pass sums of every
        # path to the bit, and the carry ends at each path's running sum
        sched = make_schedule("mz", alpha=1.0, beta=0.5, p=1.25)
        n, paths = 700, 5
        a, A = sched.table(n)
        x = rng.normal(size=(paths, n)) * 10.0 ** rng.integers(-3, 4, size=n)
        c = rng.uniform(-1.0, 1.0, size=n)
        edges = np.unique(np.concatenate([[0, 1, n], rng.integers(0, n, 12)]))
        carry = np.full(paths, -0.0)
        blocks = [normalized_partial_sums(x[:, lo:hi], (a[lo:hi], A[lo:hi]),
                                          c[lo:hi], carry=carry)
                  for lo, hi in zip(edges[:-1], edges[1:])]
        for p in range(paths):
            want = normalized_partial_sums(x[p], (a, A), c)
            assert np.concatenate([b[p] for b in blocks]).tobytes() == \
                want.tobytes()
            assert carry[p] == np.cumsum(a * (x[p] - c))[-1]

    def test_a_fresh_carry_keeps_a_negative_zero(self, kolmogorov):
        # -0.0 is the sum of no terms: a first block summed with it keeps
        # the sign of a leading -0.0 as the one-pass sums do
        x = np.array([[-0.0, -0.0, 1.0]])
        carry = np.full(1, -0.0)
        got = normalized_partial_sums(x, kolmogorov.table(3), [0.0] * 3,
                                      carry=carry)
        want = normalized_partial_sums(x[0], kolmogorov.table(3), [0.0] * 3)
        assert np.signbit(want[0]) and got[0].tobytes() == want.tobytes()

    @staticmethod
    def _pairs(x, upper, lower):
        # set part by part, as the simulator's pair table is
        z = np.empty(np.shape(x), dtype=np.complex128)
        z.real = x - upper
        z.imag = x - lower
        return z

    @pytest.mark.parametrize("rules", [
        {"a_rule": ("harmonic", None), "A_rule": ("power", 0.9)},
        {"a_rule": ("table", tuple(np.linspace(0.5, 3.0, 3073))),
         "A_rule": ("table", tuple(np.arange(1.0, 3074.0) ** 0.85))},
    ], ids=["harmonic-power", "tables"])
    def test_paired_form_matches_two_real_passes_bit_for_bit(self, rules,
                                                              rng):
        # blocks of 1, 1023, 1024 and 1025 steps, summed as complex pairs
        # with one carry from complex(-0.0, -0.0), give each path the bits
        # of two one-pass real sums, one per centre sequence
        sched = make_schedule("custom", alpha=1.0, beta=0.5, **rules)
        paths, lengths = 4, (1, 1023, 1024, 1025)
        n = sum(lengths)
        a, A = sched.table(n)
        x = rng.normal(size=(paths, n)) * 10.0 ** rng.integers(-3, 4, size=n)
        upper = rng.uniform(-1.0, 1.0, size=n)
        lower = upper - rng.uniform(0.0, 1.0, size=n)
        x[:, ::7] = upper[::7]     # terms that are exactly zero
        x[:, 1::11] = -0.0
        carry = np.full(paths, complex(-0.0, -0.0))
        blocks = []
        edges = np.cumsum((0,) + lengths)
        for lo, hi in zip(edges[:-1], edges[1:]):
            out = (np.empty((paths, hi - lo)), np.empty((paths, hi - lo)))
            got = normalized_partial_sums(
                self._pairs(x[:, lo:hi], upper[lo:hi], lower[lo:hi]),
                (a[lo:hi], A[lo:hi]), carry=carry, out=out)
            assert got[0] is out[0] and got[1] is out[1]
            blocks.append(got)
        for p in range(paths):
            for side, centers in enumerate((upper, lower)):
                want = normalized_partial_sums(x[p], (a, A), centers)
                got = np.concatenate([b[side][p] for b in blocks])
                assert got.tobytes() == want.tobytes()
            assert carry[p].real == np.cumsum(a * (x[p] - upper))[-1]
            assert carry[p].imag == np.cumsum(a * (x[p] - lower))[-1]

    @pytest.mark.parametrize("first", [(0.0, 0.5), (-0.5, 0.0)],
                             ids=["real", "imaginary"])
    def test_paired_form_keeps_the_sign_of_a_zero(self, kolmogorov, first):
        # x_1 = -0.0 makes one part of the first term -0.0 and the other
        # nonzero; scaling by a complex times real product would turn that
        # -0.0 into +0.0, and the first sums with it
        c, d = [first[0], 0.0, 0.0], [first[1], 0.0, 0.0]
        x = np.array([[-0.0, 1.0, 2.0]])
        got = normalized_partial_sums(self._pairs(x, c, d),
                                      kolmogorov.table(3),
                                      carry=np.full(1, complex(-0.0, -0.0)))
        for s, centers in zip(got, (c, d)):
            want = normalized_partial_sums(x[0], kolmogorov.table(3), centers)
            assert s[0].tobytes() == want.tobytes()
        assert np.signbit(got[first.index(0.0)][0, 0])

    def test_paired_sums_of_a_degenerate_model_are_exactly_zero(self):
        # a constant coordinate centred on its own value: every term is
        # +0.0, and a fresh carry of negative zeros leaves the sums +0.0
        sched = make_schedule("mz", alpha=1.0, beta=0.5, p=1.25)
        x = np.full((3, 1025), 2.0)
        carry = np.full(3, complex(-0.0, -0.0))
        upper, lower = normalized_partial_sums(
            self._pairs(x, 2.0, 2.0), sched.table(1025), carry=carry)
        want = normalized_partial_sums(x[0], sched.table(1025), x[0])
        for s in (upper, lower):
            assert s.tobytes() == np.zeros_like(s).tobytes()
            assert s[0].tobytes() == want.tobytes()

    def test_paired_table_must_cover_steps(self, kolmogorov):
        a, A = kolmogorov.table(3)
        for short in ((a[:2], A), (a, A[:2])):
            with pytest.raises(LengthMismatchError):
                normalized_partial_sums(self._pairs(np.ones(3), 0.0, 0.0),
                                        short)


def test_truncation_series_converges_numerically(kolmogorov):
    # sum_i (log(i+1))^alpha / A_i^{alpha+1} = sum log(i+1)/i^2 for the
    # kolmogorov schedule with alpha = 1: the last decade up to 10^6
    # contributes under 1% of the total, the convergence surrogate
    ii = np.arange(1, 1_000_001, dtype=float)
    terms = np.log(ii + 1.0) ** kolmogorov.alpha / \
        kolmogorov.A(ii) ** (kolmogorov.alpha + 1.0)
    total = terms.sum()
    tail = terms[100_000:].sum()
    assert tail < 0.01 * total
