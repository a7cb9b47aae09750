"""Stored CLI results and the check of a run against them.

``reference.json`` holds, for every pool call of every workload (see
``workloads.pool``), what the CLI produced when the reference was made: the
exit code, and either the report's records (name, pass flag, lhs, rhs, gap,
verdict) or, for exit 2, the error line on stderr. A later commit's run is
compared record by record, numbers within ``ABS_TOL + REL_TOL * |ref|``, so
last-bit changes in float arithmetic pass and a changed verdict does not.

An exit 2 stored in the reference is a known defect (at present only the
rectangular horizon-5 ``OracleTooLargeError``). When the same call exits 2
again it still counts as failed, but not as incorrect; when it now exits 0
or 1, its records cannot be checked and it is counted as unreferenced.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

REFERENCE_FILE = Path(__file__).with_name("reference.json")
REL_TOL = 1e-9
ABS_TOL = 1e-9
SIGNIFICANT_DIGITS = 12    # stored precision, well inside the tolerance
DEFECT_EXIT = 2


def _number(x):
    return None if x is None else float(f"{x:.{SIGNIFICANT_DIGITS}g}")


def records_of(report: dict) -> list[list]:
    """The compared part of a report.json: one row per record."""
    return [[r["check"], r["pass"], _number(r["lhs"]), _number(r["rhs"]),
             _number(r["gap"]), r.get("verdict")]
            for r in report["checks"]]


def entry(exit_code: int, report: dict | None, stderr: str) -> dict:
    """The reference entry for one call's outcome."""
    if exit_code == DEFECT_EXIT:
        return {"exit": exit_code, "stderr": stderr.strip()}
    return {"exit": exit_code, "records": records_of(report)}


def _close(got, want) -> bool:
    if got is None or want is None:
        return got is want
    if not (math.isfinite(got) and math.isfinite(want)):
        return got == want
    return abs(got - want) <= ABS_TOL + REL_TOL * abs(want)


def record_mismatches(got: list[list], want: list[list]) -> list[str]:
    """Human-readable differences between two record lists; [] if they agree."""
    if [r[0] for r in got] != [r[0] for r in want]:
        return [f"record names differ: {[r[0] for r in got]} "
                f"!= {[r[0] for r in want]}"]
    problems = []
    for g, w in zip(got, want):
        name = g[0]
        if g[1] != w[1]:
            problems.append(f"{name}: pass {g[1]} != reference {w[1]}")
        if g[5] != w[5]:
            problems.append(f"{name}: verdict {g[5]!r} != reference {w[5]!r}")
        for label, a, b in zip(("lhs", "rhs", "gap"), g[2:5], w[2:5]):
            if not _close(a, b):
                problems.append(f"{name}: {label} {a!r} != reference {b!r}")
    return problems


@dataclass(frozen=True)
class Verdict:
    """How one call compares with its reference entry."""

    failed: bool        # counts in failed_frac
    incorrect: bool     # the output is wrong, not a known defect
    unreferenced: bool  # a known defect no longer occurs; records unchecked
    problems: tuple[str, ...] = ()


def judge(want: dict, exit_code: int | None, report: dict | None,
          stderr: str) -> Verdict:
    """Compare one call's outcome with its reference entry.

    ``exit_code`` is None when the call raised; ``report`` is the parsed
    report.json, or None when the call wrote none.
    """
    if exit_code is None:
        return Verdict(True, True, False, (f"raised: {stderr.strip()}",))
    if want["exit"] == DEFECT_EXIT:
        if exit_code == DEFECT_EXIT:
            if stderr.strip() == want["stderr"]:
                return Verdict(True, False, False)
            return Verdict(True, True, False,
                           (f"exit 2 with {stderr.strip()!r}, reference "
                            f"{want['stderr']!r}",))
        return Verdict(False, False, True)
    if exit_code != want["exit"]:
        return Verdict(True, True, False,
                       (f"exit {exit_code} != reference {want['exit']}: "
                        f"{stderr.strip()}",))
    if report is None:
        return Verdict(True, True, False, ("no report.json written",))
    problems = record_mismatches(records_of(report), want["records"])
    return Verdict(bool(problems), bool(problems), False, tuple(problems))


def load() -> dict:
    return json.loads(REFERENCE_FILE.read_text())
