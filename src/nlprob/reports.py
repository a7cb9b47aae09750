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
import math
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

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
    return CheckResult(check, float(lhs), float(rhs), float(gap),
                       bool(gap <= tol), witness)


def equality(check: str, lhs: float, rhs: float, tol: float,
             witness: Mapping[str, Any] | None = None) -> CheckResult:
    """Record for an ``lhs == rhs`` claim."""
    gap = abs(lhs - rhs)
    return CheckResult(check, float(lhs), float(rhs), float(gap),
                       bool(gap <= tol), witness)


def all_passed(results: Sequence[CheckResult]) -> bool:
    return all(r.passed for r in results)


_SCALARS = frozenset((bool, int, float, str, type(None)))


def _plain(obj: Any) -> Any:
    """Coerce numpy scalars/arrays and sets into JSON-serializable builtins.
    Builtin scalars, dicts, lists and tuples are recognized by their exact
    type first, before any abstract-class check."""
    t = type(obj)
    if t in _SCALARS:
        return obj
    if t is dict:
        return {str(k): _plain(v) for k, v in obj.items()}
    if t is list or t is tuple:
        return [_plain(v) for v in obj]
    if isinstance(obj, (bool, int, float, str)):  # subclasses, as they are
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
    Raises NonFiniteError if the payload holds inf or NaN.

    The text is ``json.dumps(_plain(payload), indent=2, allow_nan=False)``
    written in one walk (the stdlib's C encoder ignores ``indent``, so the
    stdlib would take its pure-Python encoder after a full ``_plain`` copy).
    """
    chunks: list[str] = []
    _write(payload, chunks.append, "\n")
    return "".join(chunks)


_escape = json.encoder.encode_basestring_ascii


def _float_text(o: float) -> str:
    if not math.isfinite(o):  # the stdlib's words, as the fallback's
        raise NonFiniteError(
            "a report value is not finite: Out of range float values "
            f"are not JSON compliant: {o!r}")
    return repr(o)


# the JSON text of a builtin scalar, by its exact type
_LEAF_TEXT: dict[type, Callable[[Any], str]] = {
    str: _escape,
    float: _float_text,
    int: int.__repr__,
    bool: lambda o: "true" if o else "false",
    type(None): lambda o: "null",
}


def _write(o: Any, emit: Callable[[str], Any], newline: str) -> None:
    """Emit the indent-2 JSON text of ``o``, whose line starts at
    ``newline`` ("\\n" plus its indentation). Builtin values are written
    here, a scalar member of a dict or list in one emit with its key or
    separator; numpy values, subclasses, sets and other mappings go through
    ``_plain``.
    A module-level function, not a closure: a closure calling itself keeps
    a reference cycle, and with it every report's chunks, until the cyclic
    collector runs."""
    t = type(o)
    leaf = _LEAF_TEXT.get(t)
    if leaf is not None:
        emit(leaf(o))
    elif t is dict:
        if not o:
            emit("{}")
            return
        if set(map(type, o)) != {str}:
            # _plain's keys: str(k), the last value of equal texts winning
            o = {str(k): v for k, v in o.items()}
        inner = newline + "  "
        sep = "{" + inner
        for k, v in o.items():
            head = sep + _escape(k) + ": "
            leaf = _LEAF_TEXT.get(type(v))
            if leaf is not None:
                emit(head + leaf(v))
            else:
                emit(head)
                _write(v, emit, inner)
            sep = "," + inner
        emit(newline + "}")
    elif t is list or t is tuple:
        if not o:
            emit("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for v in o:
            leaf = _LEAF_TEXT.get(type(v))
            if leaf is not None:
                emit(sep + leaf(v))
            else:
                emit(sep)
                _write(v, emit, inner)
            sep = "," + inner
        emit(newline + "]")
    else:
        # what _plain makes of it, in the stdlib's words. Not _write again:
        # _plain returns a float or str subclass (np.float64, np.str_) as it
        # is. JSON text holds no raw newline, so indenting each line places
        # the block.
        try:
            text = json.dumps(_plain(o), indent=2, allow_nan=False)
        except ValueError as exc:  # allow_nan=False refuses inf and NaN
            raise NonFiniteError(f"a report value is not finite: {exc}") from None
        emit(text.replace("\n", newline))
