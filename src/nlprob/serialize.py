"""The reader of JSON documents for credal sets, variables and sequence
models, and of every number from outside the program.

Schema::

    {
      "space": <outcome count>,
      "measures": [[w, ...], ...],
      "variables": {"name": [v, ...], ...},
      "joint": "rectangular" | "comonotone-pair"   # models only
    }

Field order is irrelevant and numbers are plain decimal literals;
variable listing order (JSON object order) is the coordinate order.
"""

from __future__ import annotations

import math
from typing import Any

from .core import CredalSet, RandomVariable, credal_set_from_rows
from .errors import ConfigValidationError
from .models import JOINT_KINDS, RECTANGULAR, SequenceModel


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
    if not isinstance(doc, dict):
        raise ConfigValidationError("document must be a JSON object")
    for field in ("space", "measures"):
        if field not in doc:
            raise ConfigValidationError(f"document misses field '{field}'")
    size = doc["space"]
    if not isinstance(size, int) or size < 1:
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

