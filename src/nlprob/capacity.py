"""Upper and lower probability envelopes over a credal set.

The upper probability of an event is the maximum of its probability across
the credal set's measures; the lower probability is the minimum. Both are
attained because the set is a finite list — no optimization, just exact
enumeration. The pair is conjugate: upper(A) + lower(complement A) = 1.

An event family is a boolean membership matrix of shape (events, size),
one row per event, so the whole family of a space is one array. Its
envelopes are the axis-0 maxima and minima of one measure-major table of
event probabilities, each entry one left-to-right sum (both kernels prove
it in :mod:`nlprob.core`): :func:`~nlprob.core.power_set_table` when the
family is the power set in bitmask order, as :func:`all_events` builds
it, and :func:`~nlprob.core.event_probability_table` for any other family.
"""

from __future__ import annotations

import functools

import numpy as np

from .core import CredalSet, event_probability_table, power_set_table
from .errors import DimensionMismatchError
from .reports import CheckResult, comparison, equality

DEFAULT_TOL = 1e-12


def capacity_axiom_report(credal: CredalSet, events: np.ndarray,
                          tol: float = DEFAULT_TOL) -> tuple[CheckResult, ...]:
    """Records of normalization, monotonicity, conjugacy and envelope dominance
    over an event family given as a boolean membership matrix of shape
    (events, size): row e marks the outcomes of event e, as
    :func:`all_events` builds it. An empty family has shape (0, size).

    Normalization is checked on the empty and full events regardless of the
    family; conjugacy per event and union subadditivity over consecutive
    event pairs, each keeping its first worst case and its events (outcome
    lists, and for conjugacy the attaining measures) as witness.
    Monotonicity over every subset pair of the family and dominance hold
    exactly, so they read gap 0.0: outcome-order sums make P_j(A) <= P_j(B)
    exact for A ⊆ B (proofs at both kernels of :mod:`nlprob.core`),
    max_j and min_j keep that order, and min_j P_j(A) <= max_j P_j(A).
    """
    size = credal.size
    members = np.asarray(events, dtype=bool)
    if members.ndim != 2 or members.shape[1] != size:
        raise DimensionMismatchError(
            f"events must be a membership matrix of shape (events, {size}), "
            f"got shape {members.shape}")
    W = credal.weights
    # each event's successor in the family; a lone event is its own
    nxt = np.arange(1, len(members)) if len(members) != 1 else np.zeros(1, int)
    first = np.arange(len(nxt))
    if _is_power_set(members):
        # column k is event k: the complement of event k is column -1 - k,
        # and the union of events k and k + 1 is column k | (k + 1)
        probs = power_set_table(W)
        empty, full = probs[:, 0], probs[:, -1]
        complements = probs[:, ::-1]
        upper = probs.max(axis=0)
        union_upper = upper[first | nxt]
    else:
        empty, full = event_probability_table(
            W, np.repeat([[False], [True]], size, axis=1))
        probs = event_probability_table(W, members).T
        complements = event_probability_table(W, ~members).T
        upper = probs.max(axis=0)
        union_upper = event_probability_table(
            W, members[first] | members[nxt]).max(axis=1)

    results = [
        equality("upper-normalization-empty", empty.max(), 0.0, tol),
        equality("lower-normalization-empty", empty.min(), 0.0, tol),
        equality("upper-normalization-full", full.max(), 1.0, tol),
        equality("lower-normalization-full", full.min(), 1.0, tol),
        CheckResult("upper-monotonicity", 0.0, 0.0, 0.0, 0.0 <= tol),
        CheckResult("lower-monotonicity", 0.0, 0.0, 0.0, 0.0 <= tol),
    ]

    # the leading 0.0 keeps the first worst event, and none unless above 0
    gaps = np.r_[0.0, np.abs(upper + complements.min(axis=0) - 1.0)]
    i = int(gaps.argmax()) - 1
    witness = None if i < 0 else {
        "event": np.flatnonzero(members[i]).tolist(),
        "upper_argmax": int(probs[:, i].argmax()),
        "complement_argmin": int(complements[:, i].argmin())}
    gap = float(gaps[i + 1])
    results.append(CheckResult("conjugacy", gap, 0.0, gap, gap <= tol, witness))
    results.append(CheckResult("dominance", 0.0, 0.0, 0.0, 0.0 <= tol))

    if not len(members):
        results.append(comparison(
            "upper-subadditivity-spot", 0.0, 0.0, tol,
            {"note": "union subadditivity is implied by maxima of additive measures"}))
    else:
        gaps = union_upper - (upper[first] + upper[nxt])
        i = int(gaps.argmax())
        gap = float(gaps[i])
        results.append(CheckResult(
            "upper-subadditivity-spot", gap, 0.0, gap, gap <= tol,
            {"event": np.flatnonzero(members[i]).tolist(),
             "other": np.flatnonzero(members[nxt[i]]).tolist()}))

    return tuple(results)


def all_events(size: int) -> np.ndarray:
    """Every subset of a space as a membership matrix of shape
    (2**size, size): row k holds the bits of k, so outcome i is in event k
    when bit i of k is set. Exponential; keep size small."""
    return (np.arange(1 << size)[:, None] >> np.arange(size)) & 1 > 0


def _is_power_set(members: np.ndarray) -> bool:
    """Whether a membership matrix is :func:`all_events` of its width."""
    count, size = members.shape
    return count == 1 << size and np.array_equal(members, _power_set(size))


@functools.lru_cache(maxsize=None)
def _power_set(size: int) -> np.ndarray:
    """A read-only :func:`all_events`, built once per size."""
    rows = all_events(size)
    rows.setflags(write=False)
    return rows
