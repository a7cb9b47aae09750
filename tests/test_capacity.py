"""Upper/lower probability envelopes and their axiom suite."""

from __future__ import annotations

import numpy as np
import pytest

from nlprob import (
    Event,
    all_events,
    capacity_axiom_report,
    credal_set_from_rows,
    event_probability,
    lower_prob,
    lower_prob_witness,
    upper_prob,
    upper_prob_witness,
)
from nlprob.errors import DimensionMismatchError
from nlprob.reports import CheckResult, all_passed, comparison, equality


class TestEnvelopes:
    def test_upper_two_measures(self, two_point_credal):
        assert upper_prob(two_point_credal, Event(2, frozenset([1]))) == 0.5

    def test_lower_two_measures(self, two_point_credal):
        assert lower_prob(two_point_credal, Event(2, frozenset([1]))) == pytest.approx(0.2, abs=1e-15)

    def test_full_and_empty(self, make_credal):
        c = make_credal()
        n = c.size
        assert upper_prob(c, Event(n, frozenset(range(n)))) == pytest.approx(1.0, abs=1e-12)
        assert lower_prob(c, Event(n, frozenset(range(n)))) == pytest.approx(1.0, abs=1e-12)
        assert upper_prob(c, Event(n, frozenset())) == 0.0
        assert lower_prob(c, Event(n, frozenset())) == 0.0

    def test_singleton_collapses(self, rng):
        c = credal_set_from_rows([rng.dirichlet(np.ones(4))])
        a = Event(4, frozenset([0, 2]))
        assert upper_prob(c, a) == lower_prob(c, a)

    def test_witness_indices(self, two_point_credal):
        a = Event(2, frozenset([1]))
        value, idx = upper_prob_witness(two_point_credal, a)
        assert (value, idx) == (0.5, 0)
        value, idx = lower_prob_witness(two_point_credal, a)
        assert idx == 1 and value == pytest.approx(0.2, abs=1e-15)

    def test_dimension_mismatch(self, two_point_credal):
        with pytest.raises(DimensionMismatchError):
            upper_prob(two_point_credal, Event(3, frozenset([0])))


class TestAxiomReport:
    def test_conjugacy_worked_example(self, two_point_credal):
        a = Event(2, frozenset([1]))
        total = upper_prob(two_point_credal, a) + lower_prob(two_point_credal, a.complement())
        assert total == pytest.approx(1.0, abs=1e-15)

    def test_exhaustive_random_credal(self, make_credal):
        for _ in range(25):
            c = make_credal()
            records = capacity_axiom_report(c, all_events(c.size), tol=1e-12)
            assert all_passed(records), max(r.gap for r in records)

    def test_monotonicity_exact(self, make_credal):
        c = make_credal(size=6)
        events = all_events(6)
        for a in events:
            for b in events:
                if a.issubset(b):
                    assert upper_prob(c, a) <= upper_prob(c, b)
                    assert lower_prob(c, a) <= lower_prob(c, b)

    def test_singleton_all_gaps_zero(self, rng):
        c = credal_set_from_rows([rng.dirichlet(np.ones(5))])
        records = capacity_axiom_report(c, all_events(5), tol=1e-12)
        assert all_passed(records)
        assert max(r.gap for r in records) <= 1e-15

    def test_subset_of_full_space(self, make_credal):
        c = make_credal(size=4)
        assert upper_prob(c, Event(4, frozenset([1, 2]))) <= 1.0

    def test_report_record_inventory(self, two_point_credal):
        records = capacity_axiom_report(two_point_credal, all_events(2), tol=1e-12)
        names = {r.check for r in records}
        assert {"conjugacy", "dominance", "upper-monotonicity",
                "lower-monotonicity", "upper-normalization-full"} <= names
        spot = [r for r in records if r.check == "upper-subadditivity-spot"]
        assert spot and spot[0].witness is not None

    def test_monotone_sequence_stabilizes(self, make_credal):
        # finite-space surrogate for continuity: a nondecreasing event chain
        # reaches its union and the envelope value stabilizes with it
        c = make_credal(size=5)
        chain = [Event(5, frozenset(range(k))) for k in range(6)]
        values = [upper_prob(c, a) for a in chain]
        assert values == sorted(values)
        assert values[-1] == upper_prob(c, chain[-1])
        full_twice = [upper_prob(c, chain[-1]) for _ in range(3)]
        assert len(set(full_twice)) == 1


def test_all_events_cardinality():
    assert len(all_events(3)) == 8
    assert len({tuple(e.sorted_members()) for e in all_events(4)}) == 16


def pairwise_axiom_report(credal, events, tol):
    """The axiom report as an O(E^2) loop over event pairs with per-event
    witness recomputation: the oracle the closed form must match exactly."""
    size = credal.size
    empty = Event(size)
    full = empty.complement()
    probs = np.array([[event_probability(m, e) for e in events]
                      for m in credal.measures]) if events else np.zeros((len(credal), 0))
    upper = probs.max(axis=0) if events else np.zeros(0)
    lower = probs.min(axis=0) if events else np.zeros(0)
    results = [
        equality("upper-normalization-empty", upper_prob(credal, empty), 0.0, tol),
        equality("lower-normalization-empty", lower_prob(credal, empty), 0.0, tol),
        equality("upper-normalization-full", upper_prob(credal, full), 1.0, tol),
        equality("lower-normalization-full", lower_prob(credal, full), 1.0, tol),
    ]
    worst_u = worst_l = (0.0, None)
    for i, a in enumerate(events):
        for k, b in enumerate(events):
            if i == k or not a.issubset(b):
                continue
            pair = {"event": a.sorted_members(), "superset": b.sorted_members()}
            if upper[i] - upper[k] > worst_u[0]:
                worst_u = (upper[i] - upper[k], pair)
            if lower[i] - lower[k] > worst_l[0]:
                worst_l = (lower[i] - lower[k], pair)
    for name, (gap, witness) in (("upper-monotonicity", worst_u),
                                 ("lower-monotonicity", worst_l)):
        results.append(CheckResult(name, gap, 0.0, gap, gap <= tol, witness))
    worst_conj = worst_dom = (0.0, None)
    for i, a in enumerate(events):
        u, ju = upper_prob_witness(credal, a)
        lc, jl = lower_prob_witness(credal, a.complement())
        if abs(u + lc - 1.0) > worst_conj[0]:
            worst_conj = (abs(u + lc - 1.0), {"event": a.sorted_members(),
                                              "upper_argmax": ju,
                                              "complement_argmin": jl})
        if lower[i] - upper[i] > worst_dom[0]:
            worst_dom = (lower[i] - upper[i], {"event": a.sorted_members()})
    for name, (gap, witness) in (("conjugacy", worst_conj),
                                 ("dominance", worst_dom)):
        results.append(CheckResult(name, gap, 0.0, gap, gap <= tol, witness))
    if not events:
        results.append(comparison(
            "upper-subadditivity-spot", 0.0, 0.0, tol,
            {"note": "union subadditivity is implied by maxima of additive measures"}))
        return results
    worst = (float("-inf"), None)
    for a, b in zip(events, events[1:] or events[:1]):
        gap = upper_prob(credal, a.union(b)) - (upper_prob(credal, a) + upper_prob(credal, b))
        if gap > worst[0]:
            worst = (gap, {"event": a.sorted_members(), "other": b.sorted_members()})
    results.append(CheckResult("upper-subadditivity-spot", worst[0], 0.0,
                               worst[0], worst[0] <= tol, worst[1]))
    return results


def random_weight_rows(rng, kind, size):
    """Credal rows of one of three kinds: Dirichlet, weights spanning up to
    17 decades, or Dirichlet with one zero-weight outcome."""
    k = int(rng.integers(1, 6))
    if kind == "decades":
        rows = 10.0 ** rng.uniform(-17.0, 0.0, (k, size))
    else:
        rows = rng.dirichlet(np.full(size, 0.8), size=k)
        if kind == "zero-outcome":
            rows[:, int(rng.integers(size))] = 0.0
    return rows / rows.sum(axis=1, keepdims=True)


class TestClosedForm:
    def test_matches_pairwise_oracle(self, rng):
        for t in range(60):
            kind = ("dirichlet", "decades", "zero-outcome")[t % 3]
            size = int(rng.integers(2, 11))
            credal = credal_set_from_rows(random_weight_rows(rng, kind, size))
            events = all_events(size)
            if size > 6:  # keep the oracle affordable
                keep = np.sort(rng.choice(len(events), 96, replace=False))
                events = [events[i] for i in keep]
            tol = (1e-12, 0.0)[t % 2]
            records = capacity_axiom_report(credal, events, tol)
            expected = pairwise_axiom_report(credal, events, tol)
            assert [(r.check, r.lhs, r.rhs, r.gap, r.passed, r.witness)
                    for r in records] == \
                [(r.check, r.lhs, r.rhs, r.gap, r.passed, r.witness)
                 for r in expected]
            assert all(type(x) is float for r in records
                       for x in (r.lhs, r.rhs, r.gap))

    def test_empty_and_single_event_lists(self, make_credal):
        c = make_credal(size=4)
        for events in ([], [Event(4, frozenset([1, 3]))]):
            assert list(capacity_axiom_report(c, events)) == \
                pairwise_axiom_report(c, events, 1e-12)

    def test_wrong_size_event_raises(self, make_credal):
        c = make_credal(size=4)
        with pytest.raises(DimensionMismatchError):
            capacity_axiom_report(c, [Event(4), Event(5, frozenset([4]))])

    def test_monotonicity_gaps_exactly_zero_with_a_zero_weight_outcome(self, rng):
        # a pairwise numpy sum (8 or more members) rounds a superset below
        # its subset here; outcome-order sums cannot
        for _ in range(20):
            size = int(rng.integers(8, 11))
            credal = credal_set_from_rows(
                random_weight_rows(rng, "zero-outcome", size))
            gaps = {r.check: r.gap for r in
                    capacity_axiom_report(credal, all_events(size))}
            assert gaps["upper-monotonicity"] == 0.0
            assert gaps["lower-monotonicity"] == 0.0


def test_event_probability_is_a_left_to_right_sum(rng):
    for t in range(300):
        size = int(rng.integers(1, 16))
        kind = ("dirichlet", "decades")[t % 2]
        measure = credal_set_from_rows(
            random_weight_rows(rng, kind, size)).measures[0]
        members = [i for i in range(size) if rng.random() < 0.6]
        total = 0.0
        for i in members:
            total += float(measure.weights[i])
        assert event_probability(measure, Event(size, frozenset(members))).hex() == \
            total.hex()
