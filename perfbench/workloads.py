"""Workload inputs for the nlprob benchmark.

Every input is a JSON config for the ``nlprob`` CLI, made from a workload
seed. A seed never reaches the program directly: it picks *variants* from a
fixed pool whose CLI outputs are stored in ``reference.json``, so each run
can be checked against the records an earlier commit produced. The work a
run does (space sizes, measure counts, horizons, path counts) is fixed per
workload; the seed only changes the numbers in it, so the run time of two
seeds differs by noise, not by input size.

Workloads
---------
``sim-long``    ``nlprob simulate`` at the shape of the acceptance tests:
                mz(p=1.25) schedule, 1e5 steps, the four bundled adversaries
                plus the negative control, Strassen with exp(1). Per-step
                work dominates.
``exact-sweep`` ``nlprob all`` over a batch of generated configs with no
                simulation: space sizes 2..10, 2..6 measures, two variables,
                rectangular and comonotone-pair joints, horizons 2..5.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

SIM_LONG = "sim-long"
EXACT_SWEEP = "exact-sweep"
WORKLOADS = (SIM_LONG, EXACT_SWEEP)

SIM_MODEL = {
    "space": 2,
    "measures": [[0.7, 0.3], [0.3, 0.7]],
    "variables": {"X": [0.0, 1.0]},
    "joint": "rectangular",
}

SIM_SEED_BASE = 20250817
SIM_VARIANTS = 24          # simulation seeds with a stored reference

SIM_SHAPES = {
    SIM_LONG: {
        "schedule": {"kind": "mz", "p": 1.25, "alpha": 1.0, "beta": 0.5},
        "simulation": {"n_steps": 100_000, "n_start": 10_000,
                       "epsilon": 0.05, "paths_per_strategy": 25},
    },
}

# --jobs values each call runs at. --jobs only changes path simulation, so
# exact-sweep runs at 1 alone; the simulation also runs at 2, and the two
# outputs must match byte for byte.
JOBS = {SIM_LONG: (1, 2), EXACT_SWEEP: (1,)}

EXACT_CHECKS = ["axioms", "chain", "inequalities", "na", "vertical", "forward"]
EXACT_VARIANTS = 6         # generated configs per slot with a stored reference
WEIGHT_DENOMINATOR = 64    # dyadic weights: every row sums to exactly 1.0

RECTANGULAR = "rectangular"
COMONOTONE = "comonotone-pair"


@dataclass(frozen=True)
class Slot:
    """The fixed shape of one exact-sweep config; variants fill in numbers."""

    size: int
    measures: int
    joint: str
    horizon: int


def _exact_slots() -> tuple[Slot, ...]:
    # Two configs per space size, so the O(4^size) capacity loop of sizes 9
    # and 10 does most of the work. Every fourth slot is a comonotone pair
    # (which ignores the horizon). Rectangular horizons cycle 2..5, so
    # horizon 5, which exits 2 at present, keeps a fixed share of the batch.
    slots = []
    rect_k = 0
    for size in range(2, 11):
        for _ in range(2):
            k = len(slots)
            measures = 2 + k % 5
            if k % 4 == 3:
                slots.append(Slot(size, measures, COMONOTONE, 2))
            else:
                slots.append(Slot(size, measures, RECTANGULAR, 2 + rect_k % 4))
                rect_k += 1
    return tuple(slots)


EXACT_SLOTS = _exact_slots()


def _weights(rng: random.Random, size: int) -> list[float]:
    cuts = sorted(rng.randrange(WEIGHT_DENOMINATOR + 1) for _ in range(size - 1))
    counts = [b - a for a, b in zip([0] + cuts, cuts + [WEIGHT_DENOMINATOR])]
    return [c / WEIGHT_DENOMINATOR for c in counts]


def _values(rng: random.Random, size: int) -> list[float]:
    vals = [rng.randrange(-8, 9) / 2.0 for _ in range(size)]
    if len(set(vals)) == 1:
        vals[0] += 1.0
    return vals


def exact_config(slot_index: int, variant: int) -> dict:
    """The generated config for one (slot, variant) of exact-sweep.

    Deterministic: the same pair always gives the same document.
    """
    slot = EXACT_SLOTS[slot_index]
    rng = random.Random(f"exact-sweep:{slot_index}:{variant}")
    rows = [_weights(rng, slot.size) for _ in range(slot.measures)]
    return {
        "model": {
            "space": slot.size,
            "measures": rows,
            "variables": {"X1": _values(rng, slot.size),
                          "X2": _values(rng, slot.size)},
            "joint": slot.joint,
        },
        "checks": list(EXACT_CHECKS),
        "tolerance": 1e-9,
        "horizon": slot.horizon,
    }


def sim_config(workload: str, variant: int) -> dict:
    shape = SIM_SHAPES[workload]
    return {
        "model": SIM_MODEL,
        "checks": ["slln", "strassen"],
        "tolerance": 1e-9,
        "seed": SIM_SEED_BASE + variant,
        "schedule": dict(shape["schedule"]),
        "simulation": dict(shape["simulation"]),
        "phi": {"kind": "exp", "rate": 1.0},
    }


@dataclass(frozen=True)
class Call:
    """One CLI invocation of a workload: its reference key and config."""

    key: str
    subcommand: str
    config: dict


def pool(workload: str) -> list[Call]:
    """Every call with a stored reference, for building ``reference.json``."""
    if workload == EXACT_SWEEP:
        return [Call(f"{s}:{v}", "all", exact_config(s, v))
                for s in range(len(EXACT_SLOTS))
                for v in range(EXACT_VARIANTS)]
    return [Call(str(v), "simulate", sim_config(workload, v))
            for v in range(SIM_VARIANTS)]


def calls(workload: str, seed: int) -> list[Call]:
    """The calls one repetition of ``workload`` makes under ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == EXACT_SWEEP:
        picks = [rng.randrange(EXACT_VARIANTS) for _ in EXACT_SLOTS]
        return [Call(f"{s}:{v}", "all", exact_config(s, v))
                for s, v in enumerate(picks)]
    v = rng.randrange(SIM_VARIANTS)
    return [Call(str(v), "simulate", sim_config(workload, v))]
