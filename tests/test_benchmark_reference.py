"""The benchmark's correctness gate, replayed on the working tree.

``perfbench/reference.json`` holds the records each benchmark call produced
when the reference was made, and ``perfbench/reference.py`` judges a run
against them (numbers to 1e-9, names, pass flags and verdicts exactly). A
call whose outcome drifts is incorrect there and lowers the benchmark's
``ok_frac``; here the same judge runs every ``exact-sweep`` pool call and
two ``sim-long`` variants through ``cli.main``, so the drift fails a test
first.
The perfbench files are not package modules; they are loaded by path and
only read.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

from nlprob import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SIM_VARIANTS = (0, 1)


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
reference = _load("reference")


def _problems(workload: str, calls, tmp_path: Path) -> list[str]:
    """Each call run as the benchmark runs it, at ``--jobs 1``, and judged
    against its stored entry; the problems of the incorrect calls. A call
    that repeats a known defect stored in the reference (an exit 2 with the
    same error line) counts as failed there in every run, so it is not
    incorrect and does not move ``ok_frac``."""
    refs = reference.load()["workloads"][workload]
    problems = []
    for call in calls:
        config = tmp_path / "config.json"
        config.write_text(json.dumps(call.config))
        out = tmp_path / call.key.replace(":", "_")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = cli.main([call.subcommand, "--config", str(config),
                             "--out", str(out), "--jobs", "1"])
        path = out / "report.json"
        report = json.loads(path.read_text()) if path.is_file() else None
        verdict = reference.judge(refs[call.key], code, report, err.getvalue())
        if verdict.incorrect:
            problems += [f"{call.key}: {p}" for p in verdict.problems]
    return problems


def test_every_exact_sweep_call_matches_the_reference(tmp_path):
    calls = workloads.pool(workloads.EXACT_SWEEP)
    assert len(calls) == 108
    problems = _problems(workloads.EXACT_SWEEP, calls, tmp_path)
    assert not problems, "\n".join(problems)


def test_sim_long_variants_match_the_reference(tmp_path):
    calls = [c for c in workloads.pool(workloads.SIM_LONG)
             if int(c.key) in SIM_VARIANTS]
    assert len(calls) == len(SIM_VARIANTS)
    problems = _problems(workloads.SIM_LONG, calls, tmp_path)
    assert not problems, "\n".join(problems)
