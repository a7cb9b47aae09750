"""Acceptance gate: ten end-to-end criteria, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to stream the verdict
lines; without ``-s`` they still appear for any failing criterion.
"""

import json
import math
import time

import numpy as np
import pytest

from nlprob import (
    AbsPower,
    AdversaryStrategy,
    Affine,
    Exp,
    RandomVariable,
    SequenceModel,
    TestFunction,
    all_events,
    binomial_pair_model,
    bundled_strategies,
    capacity_axiom_report,
    check_negative_association,
    check_vertical_independence,
    credal_set_from_rows,
    elementary_exp_bound_check,
    exp_product_bound_gap,
    expectation_chain,
    forward_factorization_value,
    inequality_suite,
    make_schedule,
    run_slln_experiment,
    truncate,
    truncation_params,
    upper_expectation,
)
from nlprob.cli import main
from nlprob.reports import all_passed

SEED = 20250817
N_STEPS = 100_000
PATHS = 200
N_START = 10_000
EPSILON = 0.05
# family-wise false-alarm budget of each leg of criterion 8
FALSE_ALARM = 1e-6
SLLN_SCHEDULES = {
    "kolmogorov": make_schedule("kolmogorov", alpha=1.0, beta=0.5),
    "mz": make_schedule("mz", alpha=1.0, beta=0.5, p=1.25),
}


def conclude(number: int, label: str, ok: bool, detail: str) -> None:
    print(f"[acceptance {number:02d}] {'PASS' if ok else 'FAIL'} "
          f"{label}: {detail}")
    assert ok, f"criterion {number} ({label}): {detail}"


def random_credal(rng, max_measures=6, max_size=8):
    size = int(rng.integers(2, max_size + 1))
    k = int(rng.integers(1, max_measures + 1))
    return credal_set_from_rows(rng.dirichlet(np.full(size, 0.8), size=k))


@pytest.fixture(scope="module")
def marginal_model():
    credal = credal_set_from_rows([[0.7, 0.3], [0.3, 0.7]])
    return SequenceModel(credal, (RandomVariable(np.array([0.0, 1.0])),),
                         "rectangular")


def crossing_bound(schedule, epsilon: float, span: float) -> float:
    """Bound on the chance that one path's tail (N_START <= n <= N_STEPS)
    crosses ``epsilon`` on one side.

    Under any measure choice each step's conditional mean is at most the
    coordinate's upper mean, so M_n = sum_{i<=n} a_i (x_i - upper_c_i) is a
    supermartingale whose i-th increment lies in an interval of length
    a_i * span (likewise the negated lower-centred sum). On the dyadic block
    m <= n <= min(2m, N) a nondecreasing normalizer makes S_n > eps force
    M_n > eps A(m), so the Azuma-Hoeffding maximal inequality summed over
    the blocks m_k = n0 2^k < N gives
    sum_k exp(-2 eps^2 A(m_k)^2 / (span^2 sum_{i <= min(2m_k, N)} a_i^2)).
    """
    total = 0.0
    m = N_START
    while m < N_STEPS:
        end = min(2 * m, N_STEPS)
        sum_sq = float(np.sum(schedule.a(np.arange(1, end + 1)) ** 2))
        total += math.exp(-2.0 * (epsilon * float(schedule.A(m))) ** 2
                          / (span ** 2 * sum_sq))
        m *= 2
    return total


def derived_epsilon(schedule, span: float, trials: int) -> float:
    """max(EPSILON, smallest eps whose crossing bound, summed over both sides
    of ``trials`` paths, stays within FALSE_ALARM), found by bisection."""
    target = FALSE_ALARM / (2 * trials)
    lo, hi = 0.0, EPSILON
    while crossing_bound(schedule, hi, span) > target:
        lo, hi = hi, 2.0 * hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if crossing_bound(schedule, mid, span) <= target:
            hi = mid
        else:
            lo = mid
    return max(EPSILON, hi)


@pytest.fixture(scope="module")
def slln_legs(marginal_model):
    """Per schedule of criterion 8: (schedule, tested epsilon, its bound)."""
    span = max(float(np.ptp(v.values)) for v in marginal_model.variables)
    trials = PATHS * len(bundled_strategies())
    legs = {}
    for name, schedule in SLLN_SCHEDULES.items():
        eps = derived_epsilon(schedule, span, trials)
        legs[name] = (schedule, eps, crossing_bound(schedule, eps, span))
    return legs


def slln_experiment(model, legs, name, strategies, **kwargs):
    schedule, eps, _ = legs[name]
    return run_slln_experiment(model, schedule, strategies, N_STEPS, PATHS,
                               SEED, n_start=N_START, epsilon=eps, jobs=4,
                               **kwargs)


@pytest.fixture(scope="module")
def kolmogorov_experiment(marginal_model, slln_legs):
    return slln_experiment(marginal_model, slln_legs, "kolmogorov",
                           bundled_strategies(), phi=Exp(1.0))


@pytest.fixture(scope="module")
def mz_experiment(marginal_model, slln_legs):
    return slln_experiment(marginal_model, slln_legs, "mz",
                           bundled_strategies())


@pytest.fixture(scope="module")
def control_experiment(marginal_model, slln_legs):
    return slln_experiment(marginal_model, slln_legs, "kolmogorov",
                           [AdversaryStrategy("drift-max")],
                           swap_centers=True)


@pytest.fixture(scope="module")
def mz_control_experiment(marginal_model, slln_legs):
    return slln_experiment(marginal_model, slln_legs, "mz",
                           [AdversaryStrategy("drift-max")],
                           swap_centers=True)


def test_criterion_01_expectation_chain():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        credal = random_credal(rng)
        x = RandomVariable(rng.uniform(-10.0, 10.0, credal.size))
        chain = expectation_chain(credal, x).as_tuple()
        worst = max(worst, *(a - b for a, b in zip(chain, chain[1:])))
    credal3 = credal_set_from_rows([[0.5, 0.0, 0.5], [0.0, 1.0, 0.0]])
    fixture = expectation_chain(credal3, RandomVariable([0.0, 1.0, 2.0]))
    elapsed = time.perf_counter() - started
    ok = (worst <= 1e-12 and fixture.as_tuple() == (0.5, 1.0, 1.0, 1.5)
          and elapsed < 5.0)
    conclude(1, "expectation-chain", ok,
             f"worst ordering gap {worst:.2e} on 1000 instances, size-3 "
             f"fixture {fixture.as_tuple()}, {elapsed:.2f}s")


def test_criterion_02_capacity_axioms():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    checked = 0
    for size in range(2, 9):
        events = all_events(size)
        for _ in range(2):
            credal = random_credal(rng, max_size=size)
            if credal.size != size:
                credal = credal_set_from_rows(
                    rng.dirichlet(np.full(size, 0.8), size=4))
            records = capacity_axiom_report(credal, events, tol=1e-12)
            worst = max(worst, *(r.gap for r in records))
            checked += len(events)
            if not all_passed(records):
                break
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-12 and elapsed < 5.0
    conclude(2, "capacity-axioms", ok,
             f"worst axiom gap {worst:.2e} over {checked} events "
             f"(all events, sizes 2..8), {elapsed:.2f}s")


def test_criterion_03_inequality_suite():
    rng = np.random.default_rng(303)
    failures = 0
    for _ in range(1000):
        credal = random_credal(rng)
        x = RandomVariable(rng.uniform(-10.0, 10.0, credal.size))
        y = RandomVariable(rng.uniform(-10.0, 10.0, credal.size))
        shift = 1.0 - float(x.values.min())
        two_sided_thr = max(float(np.abs(x.values).max()) / 2.0, 0.5)
        reports = (
            # hoelder p=q=2, one-sided chebyshev with x + const, affine jensen
            inequality_suite(credal, x, y, 2.0, 2.0,
                             float(np.median(x.values)), Affine(1.0, shift),
                             tol=1e-12),
            # hoelder p=3 q=1.5, two-sided chebyshev and jensen with x^2
            inequality_suite(credal, x, y, 3.0, 1.5, two_sided_thr,
                             AbsPower(2.0), tol=1e-12),
            # jensen with e^x (plus its one-sided chebyshev)
            inequality_suite(credal, x, y, 2.0, 2.0,
                             float(np.median(x.values)), Exp(1.0), tol=1e-12),
        )
        failures += sum(not all_passed(r) for r in reports)
    ok = failures == 0
    conclude(3, "inequality-suite", ok,
             f"{failures} failing reports out of 3000 (hoelder 2/2 and "
             f"3/1.5, chebyshev affine and square, jensen square and exp)")


def test_criterion_04_pair_counterexample():
    started = time.perf_counter()
    g = TestFunction("ramp", -1.0, 1.0)
    f = TestFunction("ramp", 0.0, 1.0)
    values = {}
    verdicts = {}
    for p_low, p_high, expected in ((0.3, 0.7, -0.21), (0.4, 0.6, -0.24)):
        model = binomial_pair_model([p_low, p_high])
        values[expected] = forward_factorization_value(model, g, f)
        verdicts[expected] = check_negative_association(model, 2, tol=1e-9)
    elapsed = time.perf_counter() - started
    exact = all(values[e] == e for e in values)
    clean = all(v.verdict == "no-counterexample-found"
                for v in verdicts.values())
    ok = exact and clean and elapsed < 10.0
    conclude(4, "pair-counterexample", ok,
             f"forward values {sorted(values.values())} (want exact "
             f"[-0.24, -0.21]), association verdicts "
             f"{sorted(set(v.verdict for v in verdicts.values()))}, "
             f"{elapsed:.2f}s")


def test_criterion_05_rectangular_implications():
    rng = np.random.default_rng(505)
    worst_vi = worst_na = 0.0
    worst_product_gap = float("inf")
    for _ in range(50):
        size = int(rng.integers(2, 5))
        credal = credal_set_from_rows(
            rng.dirichlet(np.full(size, 0.8), size=int(rng.integers(1, 4))))
        n = int(rng.integers(2, 5))
        variables = tuple(RandomVariable(rng.uniform(-3.0, 3.0, size))
                          for _ in range(n))
        model = SequenceModel(credal, variables, "rectangular")
        ramps = []
        for v in variables:
            span = float(v.values.max() - v.values.min())
            width = span / 2.0 if span > 0 else 1.0
            ramps.append(TestFunction("ramp",
                                      float(v.values.min()) + width / 2.0,
                                      width))
        vi = check_vertical_independence(model, n, ramps, tol=1e-12)
        na = check_negative_association(model, n, tol=1e-12)
        worst_vi = max(worst_vi, vi.gap)
        worst_na = max(worst_na, na.gap)
        if na.verdict == "no-counterexample-found":
            worst_product_gap = min(worst_product_gap,
                                    exp_product_bound_gap(model, n, ramps))
    ok = worst_vi <= 1e-12 and worst_na <= 1e-12 \
        and worst_product_gap >= -1e-12
    conclude(5, "rectangular-implications", ok,
             f"50 models: vertical-equality worst {worst_vi:.2e}, "
             f"association worst {worst_na:.2e}, exp-product gap floor "
             f"{worst_product_gap:.2e}")


def test_criterion_06_truncation_contract():
    rng = np.random.default_rng(606)
    schedules = {
        C: (make_schedule("kolmogorov", alpha=1.0, beta=0.5, C=C),
            make_schedule("mz", alpha=1.0, beta=0.5, C=C, p=1.25),
            make_schedule("custom", alpha=1.0, beta=0.5, C=C,
                          a_rule=("harmonic", None)))
        for C in (0.1, 1.0, 10.0)
    }
    worst_mean = 0.0
    worst_excess = float("-inf")
    for _ in range(200):
        credal = random_credal(rng)
        x = RandomVariable(rng.uniform(-10.0, 10.0, credal.size))
        i = int(rng.integers(1, 201))
        for C, scheds in schedules.items():
            sched = scheds[int(rng.integers(0, 3))]
            y = truncate(x, truncation_params(sched, i, credal, x))
            worst_mean = max(worst_mean, abs(
                upper_expectation(credal, y) - upper_expectation(credal, x)))
            reach = float(sched.a(i)) * float(
                np.abs(y.values - upper_expectation(credal, y)).max())
            envelope = 6.0 * C * float(sched.A(i)) / math.log(i + 1)
            worst_excess = max(worst_excess, reach - envelope)
    ok = worst_mean <= 1e-12 and worst_excess <= 1e-12
    conclude(6, "truncation-contract", ok,
             f"200 coordinates x C in (0.1, 1, 10): mean drift "
             f"{worst_mean:.2e}, envelope excess {worst_excess:.2e}")


def test_criterion_07_elementary_exp_bound():
    grid = np.arange(-1000, 1001) * 0.01
    failing = [alpha for alpha in (0.1, 0.25, 0.5, 0.75, 1.0)
               if not elementary_exp_bound_check(grid, alpha).passed]
    ok = not failing
    conclude(7, "elementary-exp-bound", ok,
             f"grid [-10, 10] step 0.01, alphas with failures: "
             f"{failing or 'none'}")


def test_criterion_08_slln_proxy(request, slln_legs):
    started = time.perf_counter()
    runs = {"kolmogorov": (request.getfixturevalue("kolmogorov_experiment"),
                           request.getfixturevalue("control_experiment")),
            "mz": (request.getfixturevalue("mz_experiment"),
                   request.getfixturevalue("mz_control_experiment"))}
    elapsed = time.perf_counter() - started
    ok = elapsed < 120.0 and slln_legs["kolmogorov"][1] == EPSILON
    legs = []
    for name, (run, control) in runs.items():
        _, eps, bound = slln_legs[name]
        crossings = (run.upper_exceedance_fraction,
                     run.lower_undershoot_fraction)
        worst = (max(s.tail_max_upper for s in run.path_summaries),
                 min(s.tail_min_lower for s in run.path_summaries))
        ok = ok and crossings == (0.0, 0.0) \
            and control.upper_exceedance_fraction >= 0.95
        legs.append(f"{name} eps {eps:.4f} (bound {bound:.1e}): crossings "
                    f"{crossings}, worst tail {worst[0]:+.4f}/{worst[1]:+.4f}, "
                    f"swapped-centre control "
                    f"{control.upper_exceedance_fraction}")
    conclude(8, "slln-proxy", ok, "; ".join(legs) + f"; {elapsed:.1f}s")


def test_criterion_09_phi_envelope(kolmogorov_experiment):
    threshold = 1.0 + Exp(1.0).lipschitz_on_ray(1.0) * EPSILON
    phi_worst = max(s.phi_tail_sup for s in kolmogorov_experiment.path_summaries)
    identity_worst = max(s.tail_max_upper
                         for s in kolmogorov_experiment.path_summaries)
    ok = (kolmogorov_experiment.phi_bound == 1.0
          and phi_worst <= threshold and identity_worst <= EPSILON)
    conclude(9, "phi-envelope", ok,
             f"sup phi(S_n) {phi_worst:.4f} <= {threshold:.4f} on every "
             f"path; identity reduction tail max {identity_worst:.4f} <= "
             f"{EPSILON}")


def test_criterion_10_determinism(tmp_path):
    config = {
        "model": {"space": 2, "measures": [[0.7, 0.3], [0.3, 0.7]],
                  "variables": {"X": [0.0, 1.0]}},
        "checks": ["slln", "strassen"],
        "seed": SEED,
        "schedule": {"kind": "kolmogorov", "alpha": 1.0, "beta": 0.5},
        "simulation": {"n_steps": 5000, "paths_per_strategy": 3,
                       "n_start": 500, "epsilon": 0.2},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    codes = [main(["simulate", "--config", str(path), "--out",
                   str(tmp_path / f"out{jobs}"), "--jobs", str(jobs)])
             for jobs in (1, 4)]
    report_same = (tmp_path / "out1" / "report.json").read_bytes() == \
        (tmp_path / "out4" / "report.json").read_bytes()
    csv_same = (tmp_path / "out1" / "trajectories.csv").read_bytes() == \
        (tmp_path / "out4" / "trajectories.csv").read_bytes()
    ok = codes == [0, 0] and report_same and csv_same
    conclude(10, "determinism", ok,
             f"exit codes {codes}, report bytes equal {report_same}, "
             f"trajectory bytes equal {csv_same} across --jobs 1 vs 4")
