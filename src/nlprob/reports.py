"""Uniform check-result records and their JSON form.

Every verification op in the package reports through :class:`CheckResult` so
the CLI can serialize one homogeneous list. Gap sign convention: checks are
stated so that a *positive* gap is a violation (for "lhs <= rhs" checks
``gap = lhs - rhs``; for equalities ``gap = |lhs - rhs|``). ``passed`` is
always ``gap <= tol`` for the tolerance recorded on the result. Records of
a finite sweep also carry its ``verdict`` and the number of cases it
``checked``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from .errors import NonFiniteError


@dataclass(frozen=True)
class CheckResult:
    check: str
    lhs: float
    rhs: float
    gap: float
    passed: bool
    witness: Mapping[str, Any] | None = None
    verdict: str | None = None
    checked: int | None = None

    def as_dict(self) -> dict[str, Any]:
        # serialized key is "pass"; the attribute avoids the keyword
        out = {"check": self.check, "lhs": self.lhs, "rhs": self.rhs,
               "gap": self.gap, "pass": self.passed,
               "witness": _plain(self.witness)}
        if self.verdict is not None:
            out.update(verdict=self.verdict, checked=self.checked)
        return out


def comparison(check: str, lhs: float, rhs: float, tol: float,
               witness: Mapping[str, Any] | None = None) -> CheckResult:
    """Record for an ``lhs <= rhs`` claim."""
    gap = lhs - rhs
    return CheckResult(check, float(lhs), float(rhs), float(gap), gap <= tol, witness)


def equality(check: str, lhs: float, rhs: float, tol: float,
             witness: Mapping[str, Any] | None = None) -> CheckResult:
    """Record for an ``lhs == rhs`` claim."""
    gap = abs(lhs - rhs)
    return CheckResult(check, float(lhs), float(rhs), float(gap), gap <= tol, witness)


def all_passed(results: Sequence[CheckResult]) -> bool:
    return all(r.passed for r in results)


def _plain(obj: Any) -> Any:
    """Coerce numpy scalars/arrays and sets into JSON-serializable builtins."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, Mapping):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (frozenset, set)):
        return sorted(_plain(v) for v in obj)
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if hasattr(obj, "item") and callable(obj.item) and getattr(obj, "ndim", None) == 0:
        return obj.item()
    if hasattr(obj, "tolist"):
        return _plain(obj.tolist())
    return str(obj)


def dumps(payload: Any) -> str:
    """Deterministic JSON text: construction key order, shortest float repr.
    Raises NonFiniteError if the payload holds inf or NaN."""
    plain = _plain(payload)
    try:
        return json.dumps(plain, indent=2, allow_nan=False)
    except ValueError as exc:  # allow_nan=False refuses inf and NaN
        raise NonFiniteError(f"a report value is not finite: {exc}") from None
