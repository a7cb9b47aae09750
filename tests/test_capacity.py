"""Upper/lower probability envelopes and their axiom suite."""

from __future__ import annotations

import numpy as np
import pytest

import nlprob.capacity as capacity
from nlprob import all_events, capacity_axiom_report, credal_set_from_rows
from nlprob.core import event_probability_table
from nlprob.errors import DimensionMismatchError
from nlprob.reports import CheckResult, all_passed, comparison, equality


def envelopes(credal, rows):
    """The upper and lower probability of each membership row."""
    table = event_probability_table(credal.weight_matrix(), rows)
    return table.max(axis=1), table.min(axis=1)


def row(size, members):
    """The membership row of the outcomes ``members`` in a space of ``size``."""
    return np.isin(np.arange(size), list(members))


class TestEnvelopes:
    def test_upper_two_measures(self, two_point_credal):
        upper, _ = envelopes(two_point_credal, [row(2, [1])])
        assert upper[0] == 0.5

    def test_lower_two_measures(self, two_point_credal):
        _, lower = envelopes(two_point_credal, [row(2, [1])])
        assert lower[0] == pytest.approx(0.2, abs=1e-15)

    def test_full_and_empty(self, make_credal):
        c = make_credal()
        n = c.size
        upper, lower = envelopes(c, [row(n, range(n)), row(n, [])])
        assert upper[0] == pytest.approx(1.0, abs=1e-12)
        assert lower[0] == pytest.approx(1.0, abs=1e-12)
        assert upper[1] == 0.0
        assert lower[1] == 0.0

    def test_singleton_collapses(self, rng):
        c = credal_set_from_rows([rng.dirichlet(np.ones(4))])
        upper, lower = envelopes(c, [row(4, [0, 2])])
        assert upper[0] == lower[0]

    def test_dimension_mismatch(self, two_point_credal):
        with pytest.raises(DimensionMismatchError):
            capacity_axiom_report(two_point_credal, row(3, [0])[None, :])


class TestAxiomReport:
    def test_conjugacy_worked_example(self, two_point_credal):
        a = row(2, [1])
        upper, lower = envelopes(two_point_credal, [a, ~a])
        total = upper[0] + lower[1]
        assert total == pytest.approx(1.0, abs=1e-15)

    def test_exhaustive_random_credal(self, make_credal):
        for _ in range(25):
            c = make_credal()
            records = capacity_axiom_report(c, all_events(c.size), tol=1e-12)
            assert all_passed(records), max(r.gap for r in records)

    def test_monotonicity_exact(self, make_credal):
        c = make_credal(size=6)
        events = all_events(6)
        upper, lower = envelopes(c, events)
        for i, a in enumerate(events):
            for k, b in enumerate(events):
                if not (a & ~b).any():  # a is a subset of b
                    assert upper[i] <= upper[k]
                    assert lower[i] <= lower[k]

    def test_singleton_all_gaps_zero(self, rng):
        c = credal_set_from_rows([rng.dirichlet(np.ones(5))])
        records = capacity_axiom_report(c, all_events(5), tol=1e-12)
        assert all_passed(records)
        assert max(r.gap for r in records) <= 1e-15

    def test_subset_of_full_space(self, make_credal):
        c = make_credal(size=4)
        assert envelopes(c, [row(4, [1, 2])])[0][0] <= 1.0

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
        chain = [row(5, range(k)) for k in range(6)]
        values = [envelopes(c, [a])[0][0] for a in chain]
        assert values == sorted(values)
        assert values[-1] == envelopes(c, chain)[0][-1]
        full_twice = [envelopes(c, chain[-1:])[0][0] for _ in range(3)]
        assert len(set(full_twice)) == 1


def test_full_family_complements_are_its_rows_reversed(rng):
    # the complement of row k of all_events is row 2^s - 1 - k, so the
    # reversed event table is the complement table, bit for bit
    for size in range(1, 13):
        W = rng.dirichlet(np.full(size, 0.8), size=int(rng.integers(1, 7)))
        members = all_events(size)
        assert (members ^ members[::-1]).all()
        probs = event_probability_table(W, members)
        complements = event_probability_table(W, ~members)
        assert np.array_equal(probs[::-1].view(np.int64),
                              complements.view(np.int64))


@pytest.mark.parametrize("family, computed", [
    (all_events(5), False),
    (np.vstack([np.eye(5, dtype=bool), np.tri(5, dtype=bool),
                ~np.eye(5, dtype=bool)]), True),
    (all_events(5)[:-1], True),
])
def test_complement_table_route(make_credal, monkeypatch, family, computed):
    tables = []

    def spy(weights, members):
        tables.append(np.array(members))
        return event_probability_table(weights, members)

    c = make_credal(size=5)
    want = capacity_axiom_report(c, family, tol=1e-12)
    monkeypatch.setattr(capacity, "event_probability_table", spy)
    assert capacity_axiom_report(c, family, tol=1e-12) == want
    assert any(t.shape == family.shape and (t == ~family).all()
               for t in tables) == computed


def test_all_events_cardinality():
    assert len(all_events(3)) == 8
    assert len({tuple(np.flatnonzero(row)) for row in all_events(4)}) == 16


def test_all_events_row_k_holds_the_bits_of_k():
    for size in range(1, 11):
        rows = all_events(size)
        assert rows.dtype == bool and rows.shape == (1 << size, size)
        for k, row in enumerate(rows.tolist()):
            assert row == [bool(k >> i & 1) for i in range(size)]


def pairwise_axiom_report(credal, events, tol):
    """The axiom report as an O(E^2) loop over event pairs with per-event
    witness recomputation: the oracle the closed form must match exactly.
    ``events`` is a list of membership rows."""
    size = credal.size
    W = credal.weight_matrix()

    def probs(members):
        return event_probability_table(W, members[None, :])[0]

    def members_of(a):
        return np.flatnonzero(a).tolist()

    empty = np.zeros(size, dtype=bool)
    full = ~empty
    table = np.array([probs(e) for e in events]) if events \
        else np.zeros((0, len(credal)))
    upper = table.max(axis=1) if events else np.zeros(0)
    lower = table.min(axis=1) if events else np.zeros(0)
    results = [
        equality("upper-normalization-empty", probs(empty).max(), 0.0, tol),
        equality("lower-normalization-empty", probs(empty).min(), 0.0, tol),
        equality("upper-normalization-full", probs(full).max(), 1.0, tol),
        equality("lower-normalization-full", probs(full).min(), 1.0, tol),
    ]
    worst_u = worst_l = (0.0, None)
    for i, a in enumerate(events):
        for k, b in enumerate(events):
            if i == k or (a & ~b).any():
                continue
            pair = {"event": members_of(a), "superset": members_of(b)}
            if upper[i] - upper[k] > worst_u[0]:
                worst_u = (upper[i] - upper[k], pair)
            if lower[i] - lower[k] > worst_l[0]:
                worst_l = (lower[i] - lower[k], pair)
    for name, (gap, witness) in (("upper-monotonicity", worst_u),
                                 ("lower-monotonicity", worst_l)):
        results.append(CheckResult(name, gap, 0.0, gap, gap <= tol, witness))
    worst_conj = worst_dom = (0.0, None)
    for i, a in enumerate(events):
        p, q = probs(a), probs(~a)
        u, ju = float(p.max()), int(p.argmax())
        lc, jl = float(q.min()), int(q.argmin())
        if abs(u + lc - 1.0) > worst_conj[0]:
            worst_conj = (abs(u + lc - 1.0), {"event": members_of(a),
                                              "upper_argmax": ju,
                                              "complement_argmin": jl})
        if lower[i] - upper[i] > worst_dom[0]:
            worst_dom = (lower[i] - upper[i], {"event": members_of(a)})
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
        gap = float(probs(a | b).max()) - (float(probs(a).max())
                                           + float(probs(b).max()))
        if gap > worst[0]:
            worst = (gap, {"event": members_of(a), "other": members_of(b)})
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
                events = events[keep]
            tol = (1e-12, 0.0)[t % 2]
            records = capacity_axiom_report(credal, events, tol)
            expected = pairwise_axiom_report(credal, list(events), tol)
            assert [(r.check, r.lhs, r.rhs, r.gap, r.passed, r.witness)
                    for r in records] == \
                [(r.check, r.lhs, r.rhs, r.gap, r.passed, r.witness)
                 for r in expected]
            assert all(type(x) is float for r in records
                       for x in (r.lhs, r.rhs, r.gap))

    def test_empty_and_single_event_lists(self, make_credal):
        c = make_credal(size=4)
        for events in (np.zeros((0, 4), dtype=bool),
                       np.array([[False, True, False, True]])):
            assert list(capacity_axiom_report(c, events)) == \
                pairwise_axiom_report(c, list(events), 1e-12)

    def test_wrong_size_event_raises(self, make_credal):
        c = make_credal(size=4)
        for events in (all_events(5), np.zeros((2, 3), dtype=bool),
                       np.ones(4, dtype=bool)):
            with pytest.raises(DimensionMismatchError):
                capacity_axiom_report(c, events)

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
        weights = credal_set_from_rows(
            random_weight_rows(rng, kind, size)).weight_matrix()[:1]
        members = rng.random(size) < 0.6
        total = 0.0
        for i in np.flatnonzero(members):
            total += float(weights[0, i])
        table = event_probability_table(weights, members[None, :])
        assert float(table[0, 0]).hex() == total.hex()


def test_event_probability_table_is_a_left_to_right_sum_per_entry(rng):
    for t in range(120):
        size = int(rng.integers(2, 16))
        kind = ("dirichlet", "decades", "zero-outcome")[t % 3]
        weights = random_weight_rows(rng, kind, size)
        members = np.vstack([np.zeros(size, dtype=bool),
                             np.ones(size, dtype=bool),
                             rng.random((30, size)) < 0.5])
        table = event_probability_table(weights, members)
        assert table.shape == (len(members), len(weights))
        for e, row in enumerate(members):
            for j, w in enumerate(weights):
                total = 0.0
                for i in np.flatnonzero(row):
                    total += float(w[i])
                assert table[e, j].hex() == total.hex()
