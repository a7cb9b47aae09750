"""The reader of every input from outside the program: experiment configs,
the model documents and function descriptors they hold, the command line's
``--seed`` and ``--tolerance`` overrides, and every number.

A config names a model (inline document or a path to one), an optional
weight schedule, the list of checks to run, simulation parameters and
reporting knobs::

    {
      "model": {"space": <outcome count>, "measures": [[w, ...], ...],
                "variables": {"name": [v, ...], ...},
                "joint": "rectangular" | "comonotone-pair"}
               | "relative/path.json",
      "schedule": {"kind": "kolmogorov"|"mz", "p": ...,  # mz alone
                   "alpha": ..., "beta": ..., "C": ..., "m": ...},
      "checks": ["axioms", "chain", "inequalities", "na", "vertical",
                 "forward", "truncation", "slln", "strassen"],
      "tolerance": 1e-9,
      "seed": 123,                      # simulating needs it or --seed
      "horizon": 4,                     # coordinates for dependence checks
      "truncation_indices": [1, 2, 3, 5, 8],
      "forward": {"g": {...}, "f": {...}, "expected": -0.21},
      "phi": {"kind": "exp", "rate": 1.0},
      "expected_violations": ["forward"],
      "simulation": {"n_steps": ..., "paths_per_strategy": ...,
                     "strategies": [{"kind": "fixed", "index": 0}, "cyclic",
                                    {"kind": "iid-random", "seed": 0},
                                    "drift-max"],  # seed: iid-random alone
                     "n_start": ..., "epsilon": 0.05,
                     "negative_control": true, "max_exceedance_fraction": 0.0,
                     "min_control_fraction": 0.95,
                     "grid_points": 160},  # >= 2: a path's sampled steps
      "out": "out"
    }

Parsing is strict: unknown check names, missing files, bad schedules and
malformed descriptors raise ConfigValidationError naming the field;
non-JSON text raises ConfigParseError with the position. Scalar fields
take finite JSON numbers only (no bool, string or NaN), and
``negative_control`` takes ``true`` or ``false`` only. Defaults: tolerance
1e-9, epsilon 0.05, grid_points 160, n_start = n_steps // 10, horizon =
the model's coordinate count, or 4 where it is unbounded.
Function fields (``forward.g``, ``forward.f``, ``phi``) read one descriptor
table, :func:`from_descriptor`. The parsed config is the whole run: the
overrides applied, the checks the subcommand selects, the variables' names.
Selected checks that cannot give a finite answer are refused here, before
any work: ``na`` or ``vertical`` past the enumeration cap, ``strassen``
with a ``phi`` whose limit is not finite, a check that needs a missing
``seed`` or ``schedule``, a simulation on a model that is not
rectangular, with a schedule that fails its validation at ``n_steps`` or
with two strategies of one label, and ``truncation`` at an index past
the model's coordinates.

The ``schedule`` and ``simulation`` sections are read by the engines that
run them (``slln.make_schedule``, ``simulate.AdversaryStrategy``), which
load only when a config has such a section or selects a check that
simulates: a run of exact checks loads neither.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

from .core import CredalSet, RandomVariable, credal_set_from_rows
from .errors import (
    ConfigParseError,
    ConfigValidationError,
    NlprobError,
    UnboundedPhiError,
)
from .functions import (
    CONSTANT,
    DECREASING,
    INCREASING,
    NEGATED_RAMP,
    RAMP,
    AbsPower,
    Affine,
    Clamp,
    Exp,
    MaxAffine,
    Polynomial,
    ScalarFunction,
    TestFunction,
)
from .models import JOINT_KINDS, RECTANGULAR, SequenceModel, check_horizon

if TYPE_CHECKING:
    from .simulate import AdversaryStrategy
    from .slln import WeightSchedule

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
DEFAULT_EPSILON = 0.05
# points of the geometric grid a path's trajectories are sampled on
GRID_POINTS = 160
SIMULATION_CHECKS = frozenset({"slln", "strassen"})
# a floor on what a path's PathSummary, TrajectorySample and report entry
# keep beside its grid samples (tracemalloc: about 240 bytes)
_SUMMARY_BYTES = 200

# the pair-model counterexample functions double as sensible defaults
_DEFAULT_FORWARD = {"g": {"kind": RAMP, "threshold": -1.0}, "f": {"kind": RAMP}}


def _bundled_strategies() -> tuple[AdversaryStrategy, ...]:
    from .simulate import bundled_strategies
    return bundled_strategies()


@dataclass(frozen=True)
class SimulationSettings:
    """The ``simulation`` section: the horizon and paths of each strategy's
    experiment, the adversaries (the bundled four by default), the tail
    start and band, the negative control with the fractions its records
    compare against, and the trajectory grid."""

    n_steps: int = 100_000
    paths_per_strategy: int = 50
    strategies: tuple[AdversaryStrategy, ...] = field(
        default_factory=_bundled_strategies)
    n_start: int | None = None
    epsilon: float = DEFAULT_EPSILON
    negative_control: bool = True
    max_exceedance_fraction: float = 0.0
    min_control_fraction: float = 0.95
    grid_points: int = GRID_POINTS


@functools.cache
def _default_simulation() -> SimulationSettings:
    """The settings of a config without a ``simulation`` section."""
    return SimulationSettings()


@dataclass(frozen=True)
class ExperimentConfig:
    """A parsed config, the whole run: the model, the subcommand and the
    checks it selects, the effective tolerance and seed, and every section
    those checks read."""

    model: SequenceModel
    variable_names: tuple[str, ...]  # the model document's, in order
    subcommand: str
    selected: tuple[str, ...]  # the checks in FAMILIES[subcommand], in order
    tolerance: float  # tolerance and seed: the flags' overrides applied
    seed: int | None
    schedule: WeightSchedule | None
    # the simulation section, or None where there is none: read it as
    # ``simulation``, which gives the defaults then
    _simulation: SimulationSettings | None
    forward_g: Callable
    forward_f: Callable
    forward_expected: float | None
    phi: ScalarFunction
    expected_violations: frozenset[str]
    horizon: int  # the coordinates the dependence checks use
    truncation_indices: tuple[int, ...]
    out: str | None
    raw: dict[str, Any]

    @property
    def simulation(self) -> SimulationSettings:
        """The simulation section's settings, else the defaults."""
        if self._simulation is None:
            return _default_simulation()
        return self._simulation


def _field_error(name: str, message: str) -> ConfigValidationError:
    return ConfigValidationError(f"{name}: {message}")


def read_number(value: Any, name: str, *, optional: bool = False,
                integer: bool = False, low: float | None = None,
                high: float | None = None, above: float | None = None) -> Any:
    """The reader of every number from outside the program: a finite JSON
    number (not a bool), integral if ``integer``, within ``[low, high]`` and
    ``> above``; None if ``optional`` and null. Else ConfigValidationError
    naming ``name``."""
    if value is None and optional:
        return None
    try:
        ok = not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):  # not a number, or an int past floats
        ok = False
    if not ok or (integer and value != int(value)):
        kind = "an integer" if integer else "a finite number"
        raise ConfigValidationError(f"{name}: must be {kind}, got {value!r}")
    value = int(value) if integer else float(value)
    if low is not None and value < low:
        raise ConfigValidationError(f"{name}: must be >= {low}, got {value}")
    if high is not None and value > high:
        raise ConfigValidationError(f"{name}: must be <= {high}, got {value}")
    if above is not None and value <= above:
        raise ConfigValidationError(f"{name}: must be > {above}, got {value}")
    return value


def parse_document(doc: dict[str, Any]) -> tuple[CredalSet,
                                                 dict[str, RandomVariable]]:
    """The credal set and the named variables of a model document (the
    config's ``model``); variable listing order is the coordinate order."""
    if not isinstance(doc, dict):
        raise ConfigValidationError("document must be a JSON object")
    for field in ("space", "measures"):
        if field not in doc:
            raise ConfigValidationError(f"document misses field '{field}'")
    size = doc["space"]
    if isinstance(size, bool) or not isinstance(size, int) or size < 1:
        raise ConfigValidationError(f"'space' must be a positive integer, got {size!r}")
    rows = doc["measures"]
    if not isinstance(rows, list) or not rows:
        raise ConfigValidationError("'measures' must be a nonempty list of rows")
    for k, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != size:
            raise ConfigValidationError(
                f"'measures[{k}]' must be a list of {size} weights")
    credal = credal_set_from_rows(
        [read_number(w, f"measures[{k}][{i}]") for i, w in enumerate(row)]
        for k, row in enumerate(rows))
    variables_doc = doc.get("variables") or {}
    if not isinstance(variables_doc, dict):
        raise ConfigValidationError("'variables' must be an object of value lists")
    variables: dict[str, RandomVariable] = {}
    for name, values in variables_doc.items():
        if not isinstance(values, list) or len(values) != size:
            raise ConfigValidationError(
                f"'variables[{name!r}]' must be a list of {size} values")
        variables[name] = RandomVariable(
            [read_number(v, f"variables[{name!r}][{i}]") for i, v in enumerate(values)])
    return credal, variables


def sequence_model_from_document(doc: dict[str, Any]) -> SequenceModel:
    credal, variables = parse_document(doc)
    if not variables:
        raise ConfigValidationError("model document needs at least one variable")
    joint = doc.get("joint", RECTANGULAR)
    if joint not in JOINT_KINDS:
        raise ConfigValidationError(f"unknown joint semantics {joint!r}")
    return SequenceModel(credal, tuple(variables.values()), joint)


def _kind(doc: Any, name: str) -> Any:
    """The ``kind`` of a descriptor object, or an error naming ``name``."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise _field_error(name, f"needs an object with a 'kind', got {doc!r}")
    return doc["kind"]


def _ramp(d: dict[str, Any]) -> TestFunction:
    kind = d["kind"]
    return TestFunction(
        kind, read_number(d.get("threshold", 0.0), "threshold"),
        read_number(d.get("width", 1.0), "width"),
        d.get("direction", DECREASING if kind == NEGATED_RAMP else INCREASING))


_KINDS = {
    **dict.fromkeys((RAMP, NEGATED_RAMP, CONSTANT), _ramp),
    "affine": lambda d: Affine(read_number(d.get("slope", 1.0), "slope"),
                               read_number(d.get("intercept", 0.0), "intercept")),
    "exp": lambda d: Exp(read_number(d.get("rate", 1.0), "rate")),
    "abs-power": lambda d: AbsPower(read_number(d.get("power", 2.0), "power")),
    "abs": lambda d: AbsPower(1.0),
    "clamp": lambda d: Clamp(read_number(d["lo"], "lo"), read_number(d["hi"], "hi")),
    "max-affine": lambda d: MaxAffine(tuple(
        (read_number(a, "pieces"), read_number(b, "pieces")) for a, b in d["pieces"])),
    "polynomial": lambda d: Polynomial(tuple(
        read_number(c, "coeffs") for c in d["coeffs"])),
}


def from_descriptor(desc: Any, name: str = "function") -> Callable:
    """The test function or scalar function a ``{"kind": ...}`` descriptor
    names; the inverse of their ``descriptor``. Errors name the field
    ``name``, e.g. "forward.g: width: ..."."""
    kind = _kind(desc, name)
    try:
        if kind not in _KINDS:
            raise ConfigValidationError(
                f"unknown function kind {kind!r}; known: {sorted(_KINDS)}")
        return _KINDS[kind](desc)
    except KeyError as exc:
        raise _field_error(name, f"function {kind!r} misses field {exc}") from exc
    except (NlprobError, ValueError, TypeError) as exc:
        raise _field_error(name, str(exc)) from exc


def _parse_strategy(entry: Any, name: str) -> AdversaryStrategy:
    from .simulate import IID_RANDOM, AdversaryStrategy
    if isinstance(entry, str):
        entry = {"kind": entry}
    kind = _kind(entry, name)
    try:  # errors below name the field, e.g. "...strategies[0]: index: ..."
        index = read_number(entry.get("index"), "index", optional=True,
                            integer=True)
        if kind != IID_RANDOM and "seed" in entry:
            raise _field_error("seed", "only iid-random takes a seed")
        salt = read_number(entry.get("seed", 0), "seed", integer=True, low=0)
        return AdversaryStrategy(kind, index, salt)
    except NlprobError as exc:
        raise _field_error(name, str(exc)) from exc


def _parse_schedule(doc: Any) -> WeightSchedule:
    from .slln import make_schedule
    kind = _kind(doc, "schedule")
    numbers = {key: read_number(doc.get(key, default), f"schedule.{key}",
                                optional=default is None)
               for key, default in (("alpha", 1.0), ("beta", 0.5), ("C", 1.0),
                                    ("m", 2.0), ("p", None))}
    try:
        return make_schedule(kind, **numbers)
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


def _parse_simulation(doc: Any) -> SimulationSettings:
    if not isinstance(doc, dict):
        raise _field_error("simulation", "must be an object")
    strategies_doc = doc.get("strategies")
    if strategies_doc is None:
        strategies = _bundled_strategies()
    else:
        if not isinstance(strategies_doc, list) or not strategies_doc:
            raise _field_error("simulation.strategies", "must be a nonempty list")
        strategies = tuple(_parse_strategy(s, f"simulation.strategies[{k}]")
                           for k, s in enumerate(strategies_doc))

    def number(key: str, **bounds: Any) -> Any:
        # a field's class attribute is its default
        return read_number(doc.get(key, getattr(SimulationSettings, key)),
                           f"simulation.{key}", **bounds)

    n_steps = number("n_steps", integer=True, low=1000)
    control = doc.get("negative_control", SimulationSettings.negative_control)
    if not isinstance(control, bool):
        raise _field_error("simulation.negative_control",
                           f"must be true or false, got {control!r}")
    sim = SimulationSettings(
        n_steps=n_steps,
        paths_per_strategy=number("paths_per_strategy", integer=True, low=1),
        strategies=strategies,
        n_start=number("n_start", optional=True, integer=True, low=100,
                       high=n_steps - 1),
        epsilon=number("epsilon", above=0.0),
        negative_control=control,
        max_exceedance_fraction=number("max_exceedance_fraction", low=0.0,
                                       high=1.0),
        min_control_fraction=number("min_control_fraction", low=0.0,
                                    high=1.0),
        grid_points=number("grid_points", integer=True, low=2),
    )
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


def parse_config(text: str, base_dir: str | Path | None = None,
                 subcommand: str = "all", seed: Any = None,
                 tolerance: Any = None) -> ExperimentConfig:
    """Parse and validate configuration text for ``subcommand``.

    ``base_dir`` anchors relative model paths (defaults to the working
    directory); referenced files must exist at parse time. The overrides
    ``seed`` and ``tolerance`` (``--seed``, ``--tolerance``) are read first
    and beat the config's own, still validated. The checks of
    ``subcommand``'s family (``FAMILIES``) that cannot give a finite answer
    are refused.
    """
    seed = read_number(seed, "--seed", optional=True, integer=True, low=0)
    tolerance = read_number(tolerance, "--tolerance", optional=True,
                            above=0.0)
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
    selected = tuple(c for c in dict.fromkeys(checks_doc)  # dedupe, keep order
                     if c in FAMILIES[subcommand])
    simulated = sorted(SIMULATION_CHECKS.intersection(selected))
    if simulated and not model.product_measures:
        raise _field_error("checks", f"{simulated} need a rectangular model, "
                                     f"not {model.joint!r}")

    own_tolerance = read_number(raw.get("tolerance", DEFAULT_TOLERANCE),
                                "tolerance", above=0.0)
    own_seed = read_number(raw.get("seed"), "seed", optional=True,
                           integer=True, low=0)
    tolerance = own_tolerance if tolerance is None else tolerance
    seed = own_seed if seed is None else seed

    schedule = None
    if raw.get("schedule") is not None:
        schedule = _parse_schedule(raw["schedule"])
    needs_schedule = {"truncation", *SIMULATION_CHECKS} & set(selected)
    if needs_schedule and schedule is None:
        raise _field_error("schedule",
                           f"required by checks {sorted(needs_schedule)}")

    section = raw.get("simulation")
    own_simulation = None if section is None else _parse_simulation(section)
    if simulated:  # what the run would refuse, refused now
        from .simulate import FIXED, check_schedule
        simulation = own_simulation or _default_simulation()
        check_schedule(schedule, simulation.n_steps)
        labels = [s.label for s in simulation.strategies]
        for k, strategy in enumerate(simulation.strategies):
            if strategy.kind == FIXED and strategy.index >= len(model.credal):
                raise _field_error(f"simulation.strategies[{k}]",
                                   f"{strategy.label} with only "
                                   f"{len(model.credal)} measures")
            if strategy.label in labels[:k]:
                raise _field_error(f"simulation.strategies[{k}]",
                                   f"repeats the label {strategy.label}")
        if simulation_bytes(simulation) > physical_memory():
            raise too_large(simulation)
    if simulated and seed is None:
        raise _field_error("seed", "required when simulation checks are selected")

    forward_doc = {} if raw.get("forward") is None else raw["forward"]
    if not isinstance(forward_doc, dict):
        raise _field_error("forward", "must be an object")
    forward_g, forward_f = (
        from_descriptor(forward_doc.get(key, _DEFAULT_FORWARD[key]),
                        f"forward.{key}") for key in "gf")
    forward_expected = read_number(forward_doc.get("expected"),
                                   "forward.expected", optional=True)

    phi = (from_descriptor(raw["phi"], "phi")
           if raw.get("phi") is not None else Exp(1.0))
    if not isinstance(phi, ScalarFunction):
        raise _field_error("phi", "must be a scalar-function descriptor")
    if "strassen" in selected:  # the limit the strassen-bound record reports
        try:
            sup = phi.sup_on_nonpositive()
            lip = phi.lipschitz_on_ray(max(1.0, simulation.epsilon))
        except UnboundedPhiError as exc:
            raise _field_error("phi", str(exc)) from exc
        if not math.isfinite(sup + lip * simulation.epsilon):
            raise _field_error("phi", f"strassen limit sup + lipschitz * "
                                      f"epsilon = {sup!r} + {lip!r} * "
                                      f"{simulation.epsilon} is not finite")

    expected = raw.get("expected_violations", [])
    if not isinstance(expected, list):
        raise _field_error("expected_violations", "must be a list of check names")
    for name in expected:
        if name not in CHECK_NAMES:
            raise _field_error("expected_violations",
                               f"unknown check {name!r}")

    horizon = read_number(raw.get("horizon", model.coordinates or DEFAULT_HORIZON),
                          "horizon", integer=True, low=1)
    horizon = min(max(2, horizon), model.coordinates or math.inf)
    if {"na", "vertical"}.intersection(selected):
        check_horizon(model, horizon)

    indices = raw.get("truncation_indices", [1, 2, 3, 5, 8])
    if not isinstance(indices, list) or not indices:
        raise _field_error("truncation_indices",
                           "must be a nonempty list of integers >= 1")
    # a selected truncation check reads coordinate i of the model
    top = model.coordinates if "truncation" in selected else None
    indices = [read_number(i, f"truncation_indices[{k}]", integer=True, low=1,
                           high=top) for k, i in enumerate(indices)]

    out = raw.get("out")
    if out is not None and not isinstance(out, str):
        raise _field_error("out", "must be a string path")

    echo = dict(raw)
    echo["model"] = model_doc  # inline the document so reports are portable
    echo.pop("out", None)

    return ExperimentConfig(
        model=model, variable_names=tuple(model_doc["variables"]),
        subcommand=subcommand, selected=selected,
        tolerance=tolerance, seed=seed, schedule=schedule,
        _simulation=own_simulation, forward_g=forward_g, forward_f=forward_f,
        forward_expected=forward_expected, phi=phi,
        expected_violations=frozenset(expected), horizon=horizon,
        truncation_indices=tuple(indices), out=out, raw=echo)
