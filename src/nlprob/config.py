"""Experiment configuration: JSON schema, parsing, validation.

A config names a model (inline document or a path to one), an optional
weight schedule, the list of checks to run, simulation parameters and
reporting knobs::

    {
      "model": {...} | "relative/path.json",
      "schedule": {"kind": "kolmogorov"|"mz", "p": ..., "alpha": ...,
                   "beta": ..., "C": ..., "m": ...},
      "checks": ["axioms", "chain", "inequalities", "na", "vertical",
                 "forward", "truncation", "slln", "strassen"],
      "tolerance": 1e-9,
      "seed": 123,                      # required when simulating
      "horizon": 4,                     # coordinates for dependence checks
      "truncation_indices": [1, 2, 3, 5, 8],
      "forward": {"g": {...}, "f": {...}, "expected": -0.21},
      "phi": {"kind": "exp", "rate": 1.0},
      "expected_violations": ["forward"],
      "simulation": {"n_steps": ..., "paths_per_strategy": ...,
                     "strategies": [{"kind": "fixed", "index": 0}, "cyclic",
                                    "iid-random", "drift-max"],
                     "n_start": ..., "epsilon": 0.05,
                     "negative_control": true,
                     "max_exceedance_fraction": 0.0,
                     "min_control_fraction": 0.95},
      "out": "out"
    }

Parsing is strict: unknown check names, missing files, bad schedules and
malformed descriptors raise ConfigValidationError naming the field;
non-JSON text raises ConfigParseError with the position. Scalar fields
take finite JSON numbers only (no bool, string or NaN). Defaults: tolerance
1e-9, epsilon 0.05, n_start = n_steps // 10, horizon = the model's
coordinate count, or 4 where it is unbounded.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from .dependence import CONSTANT, NEGATED_RAMP, RAMP, TestFunction
from .errors import (
    ConfigParseError,
    ConfigValidationError,
    NlprobError,
    UnboundedPhiError,
)
from .functions import Exp, ScalarFunction, from_descriptor
from .models import SequenceModel
from .serialize import read_number, sequence_model_from_document
from .simulate import (
    DEFAULT_EPSILON,
    FIXED,
    GRID_POINTS,
    AdversaryStrategy,
    bundled_strategies,
)
from .slln import WeightSchedule, make_schedule

CHECK_NAMES = ("axioms", "chain", "inequalities", "na", "vertical",
               "forward", "truncation", "slln", "strassen")

FAMILIES = {
    "verify": ("axioms", "chain", "inequalities"),
    "check-deps": ("na", "vertical", "forward"),
    "simulate": ("slln", "strassen"),
    "all": CHECK_NAMES,
}

DEFAULT_TOLERANCE = 1e-9
DEFAULT_HORIZON = 4
SIMULATION_CHECKS = frozenset({"slln", "strassen"})
# a floor on what a path's PathSummary, TrajectorySample and report entry
# keep beside its grid samples (tracemalloc: about 240 bytes)
_SUMMARY_BYTES = 200

# the pair-model counterexample functions double as sensible defaults
DEFAULT_FORWARD_F = TestFunction(RAMP, 0.0, 1.0)
DEFAULT_FORWARD_G = TestFunction(RAMP, -1.0, 1.0)


@dataclass(frozen=True)
class SimulationSettings:
    n_steps: int = 100_000
    paths_per_strategy: int = 50
    strategies: tuple[AdversaryStrategy, ...] = field(
        default_factory=bundled_strategies)
    n_start: int | None = None
    epsilon: float = DEFAULT_EPSILON
    negative_control: bool = True
    max_exceedance_fraction: float = 0.0
    min_control_fraction: float = 0.95
    grid_points: int = GRID_POINTS


_DEFAULT_SIMULATION = SimulationSettings()


@dataclass(frozen=True)
class ExperimentConfig:
    model: SequenceModel
    model_doc: dict[str, Any]
    checks: tuple[str, ...]
    tolerance: float
    seed: int | None
    schedule: WeightSchedule | None
    simulation: SimulationSettings
    forward_g: Callable
    forward_f: Callable
    forward_expected: float | None
    phi: ScalarFunction
    expected_violations: frozenset[str]
    horizon: int
    truncation_indices: tuple[int, ...]
    out: str | None
    raw: dict[str, Any]


def _field_error(name: str, message: str) -> ConfigValidationError:
    return ConfigValidationError(f"{name}: {message}")


def _function_from_any(desc: Any, name: str) -> Callable:
    """A ramp descriptor or a scalar-function descriptor."""
    if not isinstance(desc, dict) or "kind" not in desc:
        raise _field_error(name, f"needs an object with a 'kind', got {desc!r}")
    kind = desc["kind"]
    try:  # errors below name the field, e.g. "forward.g: width: ..."
        if kind not in (RAMP, NEGATED_RAMP, CONSTANT):
            return from_descriptor(desc)
        return TestFunction(
            kind, read_number(desc.get("threshold", 0.0), "threshold"),
            read_number(desc.get("width", 1.0), "width"),
            desc.get("direction",
                     "decreasing" if kind == NEGATED_RAMP else "increasing"))
    except (NlprobError, ValueError, TypeError) as exc:
        raise _field_error(name, str(exc)) from exc


def _parse_strategy(entry: Any, name: str) -> AdversaryStrategy:
    if isinstance(entry, str):
        entry = {"kind": entry}
    if not isinstance(entry, dict) or "kind" not in entry:
        raise _field_error(name, f"needs a kind, got {entry!r}")
    kind = entry["kind"]
    try:  # errors below name the field, e.g. "...strategies[0]: index: ..."
        if kind == FIXED:
            return AdversaryStrategy(FIXED, read_number(
                entry.get("index"), "index", optional=True, integer=True))
        return AdversaryStrategy(
            kind, salt=read_number(entry.get("seed", 0), "seed", integer=True))
    except NlprobError as exc:
        raise _field_error(name, str(exc)) from exc


def _parse_schedule(doc: Any) -> WeightSchedule:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise _field_error("schedule", f"needs an object with a 'kind', got {doc!r}")
    numbers = {key: read_number(doc.get(key, default), f"schedule.{key}",
                                optional=default is None)
               for key, default in (("alpha", 1.0), ("beta", 0.5), ("C", 1.0),
                                    ("m", 2.0), ("p", None))}
    try:
        return make_schedule(doc["kind"], **numbers)
    except (NlprobError, ValueError, TypeError) as exc:
        raise _field_error("schedule", str(exc)) from exc


def physical_memory() -> float:
    """Bytes of physical memory, or inf where the system does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return math.inf


def simulation_bytes(sim: SimulationSettings) -> int:
    """A floor on the memory a simulation keeps: for every path, the
    negative control's included, its two grid samples and its summaries.
    The weights are evaluated block by block, so the horizon costs time,
    not memory."""
    paths = sim.paths_per_strategy * (len(sim.strategies)
                                      + sim.negative_control)
    return paths * (16 * min(sim.grid_points, sim.n_steps) + _SUMMARY_BYTES)


def too_large(sim: SimulationSettings) -> ConfigValidationError:
    return ConfigValidationError(
        f"simulation: n_steps={sim.n_steps}, paths_per_strategy="
        f"{sim.paths_per_strategy} and grid_points={sim.grid_points} "
        f"need more memory than this machine has")


def _parse_simulation(doc: Any, simulated: bool) -> SimulationSettings:
    """The simulation settings; when ``simulated``, refused as too large
    if :func:`simulation_bytes` exceeds :func:`physical_memory`."""
    if doc is None:
        return _DEFAULT_SIMULATION
    if not isinstance(doc, dict):
        raise _field_error("simulation", "must be an object")
    strategies_doc = doc.get("strategies")
    if strategies_doc is None:
        strategies = bundled_strategies()
    else:
        if not isinstance(strategies_doc, list) or not strategies_doc:
            raise _field_error("simulation.strategies", "must be a nonempty list")
        strategies = tuple(_parse_strategy(s, f"simulation.strategies[{k}]")
                           for k, s in enumerate(strategies_doc))

    def number(key: str, **bounds: Any) -> Any:
        return read_number(doc.get(key, getattr(_DEFAULT_SIMULATION, key)),
                           f"simulation.{key}", **bounds)

    n_steps = number("n_steps", integer=True, low=1000)
    sim = SimulationSettings(
        n_steps=n_steps,
        paths_per_strategy=number("paths_per_strategy", integer=True, low=1),
        strategies=strategies,
        n_start=number("n_start", optional=True, integer=True, low=100,
                       high=n_steps - 1),
        epsilon=number("epsilon", above=0.0),
        negative_control=bool(doc.get("negative_control",
                                      _DEFAULT_SIMULATION.negative_control)),
        max_exceedance_fraction=number("max_exceedance_fraction", low=0.0,
                                       high=1.0),
        min_control_fraction=number("min_control_fraction", low=0.0,
                                    high=1.0),
        grid_points=number("grid_points", integer=True, low=2),
    )
    if simulated and simulation_bytes(sim) > physical_memory():
        raise too_large(sim)
    return sim


def read_text(path: Path, what: str) -> str:
    """A file's UTF-8 text; ConfigParseError naming ``what`` otherwise."""
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigParseError(f"{what} {path} is not UTF-8 text: {exc}") from exc


def _load_json(text: str, what: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigParseError(
            f"{what} is not valid JSON (line {exc.lineno}, column {exc.colno}): "
            f"{exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        # an integer literal past Python's digit limit, or nesting past its
        # recursion limit
        raise ConfigParseError(f"{what} is not valid JSON: {exc}") from exc


def parse_config(text: str, base_dir: str | Path | None = None) -> ExperimentConfig:
    """Parse and validate configuration text.

    ``base_dir`` anchors relative model paths (defaults to the working
    directory); referenced files must exist at parse time.
    """
    raw = _load_json(text, "config")
    if not isinstance(raw, dict):
        raise ConfigValidationError("config: top level must be a JSON object")

    model_doc = raw.get("model")
    if model_doc is None:
        raise _field_error("model", "is required")
    if isinstance(model_doc, str):
        path = Path(base_dir or ".") / model_doc
        if not path.is_file():
            raise _field_error("model", f"file not found: {path}")
        model_doc = _load_json(read_text(path, "model file"), f"model file {path}")
    if not isinstance(model_doc, dict):
        raise _field_error("model", "must be an object or a file path")
    try:
        model = sequence_model_from_document(model_doc)
    except NlprobError as exc:
        raise _field_error("model", str(exc)) from exc

    checks_doc = raw.get("checks")
    if checks_doc is None:
        raise _field_error("checks", "is required (list of check names)")
    if not isinstance(checks_doc, list) or not checks_doc:
        raise _field_error("checks", "must be a nonempty list")
    for k, name in enumerate(checks_doc):
        if name not in CHECK_NAMES:
            raise _field_error(f"checks[{k}]",
                               f"unknown check {name!r}; known: {list(CHECK_NAMES)}")
    checks = tuple(dict.fromkeys(checks_doc))  # dedupe, keep order
    simulated = sorted(SIMULATION_CHECKS & set(checks))
    if simulated and not model.product_measures:
        raise _field_error("checks", f"{simulated} need a rectangular model, "
                                     f"not {model.joint!r}")

    tolerance = read_number(raw.get("tolerance", DEFAULT_TOLERANCE),
                            "tolerance", above=0.0)
    seed = read_number(raw.get("seed"), "seed", optional=True, integer=True,
                       low=0)

    schedule = None
    if raw.get("schedule") is not None:
        schedule = _parse_schedule(raw["schedule"])
    needs_schedule = {"truncation", *SIMULATION_CHECKS} & set(checks)
    if needs_schedule and schedule is None:
        raise _field_error("schedule",
                           f"required by checks {sorted(needs_schedule)}")

    simulation = _parse_simulation(raw.get("simulation"), bool(simulated))
    if simulated and seed is None:
        raise _field_error("seed", "required when simulation checks are selected")

    forward_doc = raw.get("forward") or {}
    if not isinstance(forward_doc, dict):
        raise _field_error("forward", "must be an object")
    forward_g = (_function_from_any(forward_doc["g"], "forward.g")
                 if "g" in forward_doc else DEFAULT_FORWARD_G)
    forward_f = (_function_from_any(forward_doc["f"], "forward.f")
                 if "f" in forward_doc else DEFAULT_FORWARD_F)
    forward_expected = read_number(forward_doc.get("expected"),
                                   "forward.expected", optional=True)

    phi = (_function_from_any(raw["phi"], "phi")
           if raw.get("phi") is not None else Exp(1.0))
    if not isinstance(phi, ScalarFunction):
        raise _field_error("phi", "must be a scalar-function descriptor")
    if "strassen" in checks:
        try:
            phi.sup_on_nonpositive()
        except UnboundedPhiError as exc:
            raise _field_error("phi", str(exc)) from exc

    expected = raw.get("expected_violations", [])
    if not isinstance(expected, list):
        raise _field_error("expected_violations", "must be a list of check names")
    for name in expected:
        if name not in CHECK_NAMES:
            raise _field_error("expected_violations",
                               f"unknown check {name!r}")

    horizon = read_number(raw.get("horizon", model.coordinates or DEFAULT_HORIZON),
                          "horizon", integer=True, low=1)

    indices = raw.get("truncation_indices", [1, 2, 3, 5, 8])
    if not isinstance(indices, list) or not indices:
        raise _field_error("truncation_indices",
                           "must be a nonempty list of integers >= 1")
    indices = [read_number(i, f"truncation_indices[{k}]", integer=True, low=1)
               for k, i in enumerate(indices)]

    out = raw.get("out")
    if out is not None and not isinstance(out, str):
        raise _field_error("out", "must be a string path")

    echo = dict(raw)
    echo["model"] = model_doc  # inline the document so reports are portable
    echo.pop("out", None)

    return ExperimentConfig(
        model=model, model_doc=model_doc, checks=checks, tolerance=tolerance,
        seed=seed, schedule=schedule, simulation=simulation,
        forward_g=forward_g, forward_f=forward_f,
        forward_expected=forward_expected, phi=phi,
        expected_violations=frozenset(expected), horizon=horizon,
        truncation_indices=tuple(indices), out=out, raw=echo)
