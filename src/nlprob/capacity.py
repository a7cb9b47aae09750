"""Upper and lower probability envelopes over a credal set.

The upper probability of an event is the maximum of its probability across
the credal set's measures; the lower probability is the minimum. Both are
attained because the set is a finite list — no optimization, just exact
enumeration. The pair is conjugate: upper(A) + lower(complement A) = 1.
"""

from __future__ import annotations

import numpy as np

from .core import CredalSet, Event, event_probability, event_probability_table
from .errors import DimensionMismatchError
from .reports import CheckResult, comparison, equality

DEFAULT_TOL = 1e-12


def event_probabilities(credal: CredalSet, event: Event) -> np.ndarray:
    """P_j(A) for every measure j, in credal order."""
    return np.array([event_probability(m, event) for m in credal.measures])


def upper_prob(credal: CredalSet, event: Event) -> float:
    return float(event_probabilities(credal, event).max())


def lower_prob(credal: CredalSet, event: Event) -> float:
    return float(event_probabilities(credal, event).min())


def upper_prob_witness(credal: CredalSet, event: Event) -> tuple[float, int]:
    """(value, index of a maximizing measure; lowest index on ties)."""
    p = event_probabilities(credal, event)
    j = int(p.argmax())
    return float(p[j]), j


def lower_prob_witness(credal: CredalSet, event: Event) -> tuple[float, int]:
    p = event_probabilities(credal, event)
    j = int(p.argmin())
    return float(p[j]), j


def capacity_axiom_report(credal: CredalSet, events: list[Event],
                          tol: float = DEFAULT_TOL) -> tuple[CheckResult, ...]:
    """Records of normalization, monotonicity, conjugacy and envelope dominance.

    Normalization is checked on the empty and full events regardless of the
    list; conjugacy per event and union subadditivity over consecutive event
    pairs, each keeping its first worst case and its events (and, for
    conjugacy, the attaining measures) as witness. Monotonicity over every
    subset pair of the list and dominance hold exactly, so they read gap 0.0:
    outcome-order sums make P_j(A) <= P_j(B) exact for A ⊆ B (proof at
    :func:`~nlprob.core.event_probability_table`), max_j and min_j keep that
    order, and min_j P_j(A) <= max_j P_j(A).
    """
    size = credal.size
    if any(event.size != size for event in events):
        raise DimensionMismatchError(f"events must be subsets of {size} outcomes")
    empty = Event(size)
    full = empty.complement()
    W = credal.weight_matrix()
    members = np.array([e.indicator() for e in events]).reshape(-1, size) > 0
    probs = event_probability_table(W, members)
    complements = event_probability_table(W, ~members)
    upper = probs.max(axis=1)

    results = [
        equality("upper-normalization-empty", upper_prob(credal, empty), 0.0, tol),
        equality("lower-normalization-empty", lower_prob(credal, empty), 0.0, tol),
        equality("upper-normalization-full", upper_prob(credal, full), 1.0, tol),
        equality("lower-normalization-full", lower_prob(credal, full), 1.0, tol),
        CheckResult("upper-monotonicity", 0.0, 0.0, 0.0, 0.0 <= tol),
        CheckResult("lower-monotonicity", 0.0, 0.0, 0.0, 0.0 <= tol),
    ]

    # the leading 0.0 keeps the first worst event, and none unless above 0
    gaps = np.r_[0.0, np.abs(upper + complements.min(axis=1) - 1.0)]
    i = int(gaps.argmax()) - 1
    witness = None if i < 0 else {
        "event": events[i].sorted_members(),
        "upper_argmax": int(probs[i].argmax()),
        "complement_argmin": int(complements[i].argmin())}
    gap = float(gaps[i + 1])
    results.append(CheckResult("conjugacy", gap, 0.0, gap, gap <= tol, witness))
    results.append(CheckResult("dominance", 0.0, 0.0, 0.0, 0.0 <= tol))

    if not events:
        results.append(comparison(
            "upper-subadditivity-spot", 0.0, 0.0, tol,
            {"note": "union subadditivity is implied by maxima of additive measures"}))
    else:
        nxt = list(range(1, len(events))) or [0]
        unions = event_probability_table(W, members[:len(nxt)] | members[nxt])
        gaps = unions.max(axis=1) - (upper[:len(nxt)] + upper[nxt])
        i = int(gaps.argmax())
        gap = float(gaps[i])
        results.append(CheckResult(
            "upper-subadditivity-spot", gap, 0.0, gap, gap <= tol,
            {"event": events[i].sorted_members(),
             "other": events[nxt[i]].sorted_members()}))

    return tuple(results)


def all_events(size: int) -> list[Event]:
    """Every subset of a space, bitmask order. Exponential; keep size small."""
    return [Event(size, frozenset(i for i in range(size) if mask >> i & 1))
            for mask in range(1 << size)]
