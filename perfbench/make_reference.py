"""Rebuild ``reference.json`` from the checkout's current ``src``.

Run from the checkout root, on a commit whose outputs are known to be right::

    python3 perfbench/make_reference.py

It runs every pool call of every workload once at ``--jobs 1`` and stores
what the comparison in ``reference.py`` needs. A commit that changes report
contents on purpose must explain the change before it rebuilds this file.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import reference
import workloads
from worker import clear, import_cli, invoke, read_report


def main() -> int:
    root = Path.cwd()
    cli = import_cli(root / "src")
    work = root / ".perfbench-work" / "reference"
    work.mkdir(parents=True, exist_ok=True)
    out = work / "out"
    stored = {}
    try:
        for name in workloads.WORKLOADS:
            entries = {}
            for call in workloads.pool(name):
                path = work / "config.json"
                path.write_text(json.dumps(call.config))
                clear(out)
                outcome = invoke(cli, call.subcommand, path, out, 1)
                if outcome.exit_code is None:
                    print(f"{name} {call.key}: {outcome.stderr}", file=sys.stderr)
                    return 1
                raw = read_report(out)
                entries[call.key] = reference.entry(
                    outcome.exit_code, json.loads(raw) if raw else None,
                    outcome.stderr)
                print(name, call.key, outcome.exit_code, file=sys.stderr)
            stored[name] = entries
    finally:
        shutil.rmtree(work, ignore_errors=True)
    doc = {"rel_tol": reference.REL_TOL, "abs_tol": reference.ABS_TOL,
           "workloads": stored}
    # one line per call keeps diffs of this file readable
    lines = ["{", f' "rel_tol": {reference.REL_TOL!r}, "abs_tol": {reference.ABS_TOL!r},',
             ' "workloads": {']
    for i, (name, entries) in enumerate(stored.items()):
        lines.append(f"  {json.dumps(name)}: {{")
        items = list(entries.items())
        for j, (key, value) in enumerate(items):
            sep = "," if j + 1 < len(items) else ""
            lines.append(f"   {json.dumps(key)}: {json.dumps(value)}{sep}")
        lines.append("  }" + ("," if i + 1 < len(stored) else ""))
    lines += [" }", "}"]
    text = "\n".join(lines) + "\n"
    assert json.loads(text) == doc
    reference.REFERENCE_FILE.write_text(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
