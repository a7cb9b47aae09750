"""One benchmark run inside a fresh interpreter: the closed measurement loop.

Started by ``run.py``; not meant to be run by hand. It imports ``nlprob.cli``
from the checkout's ``src``, writes the workload's configs, and then calls
``nlprob.cli.main`` in a closed loop with one client: each call starts after
the previous one returned. A repetition runs every call of the workload at
``--jobs 1`` and, for the simulation workloads, at ``--jobs 2`` (which of
the two goes first alternates), and checks each call against the stored
reference and the two ``--jobs`` outputs against each other, outside the
timed region. Between repetitions it times set-up: a fresh interpreter
importing ``nlprob.cli``.

With ``--trace 1`` repetitions alternate between untraced and traced, so the
difference of their walls is the cost of tracing.
"""

from __future__ import annotations

import argparse
import contextlib
import filecmp
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import reference
import spans
import workloads

MIN_REPS = 3
SETUP_SAMPLES = 7
READY = ("import sys; sys.path.insert(0, sys.argv[1]); import nlprob.cli; "
         "sys.stdout.write(nlprob.cli.__file__ + '\\n'); sys.stdout.flush()")
OUTPUT_FILES = ("report.json", "summary.txt", "trajectories.csv", "plot.gp")
COMPARED_FILES = ("report.json", "trajectories.csv")
MAX_PROBLEMS = 10


class _Discard(io.TextIOBase):
    def write(self, s: str) -> int:
        return len(s)


@dataclass
class Outcome:
    exit_code: int | None
    stderr: str
    seconds: float


def import_cli(src: Path):
    """Import ``nlprob.cli`` from ``src`` and refuse any other copy."""
    sys.path.insert(0, str(src))
    import nlprob.cli as cli
    if Path(cli.__file__).resolve().parent != (src / "nlprob").resolve():
        raise SystemExit(f"nlprob imported from {cli.__file__}, not {src}")
    return cli


def setup_sample(src: Path) -> float:
    """Seconds from spawning a fresh interpreter until ``nlprob.cli`` is
    imported. The worker's own import has written the bytecode caches, which
    a user's later CLI calls find in place too."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", READY, str(src)],
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline().strip()
    elapsed = time.perf_counter() - start
    proc.stdout.close()
    if (proc.wait(timeout=60) != 0
            or Path(line).resolve().parent != (src / "nlprob").resolve()):
        raise SystemExit(f"nlprob.cli did not import from {src}: {line!r}")
    return elapsed


def clear(out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    for name in OUTPUT_FILES:
        (out / name).unlink(missing_ok=True)


def invoke(cli, subcommand: str, config: Path, out: Path, jobs: int) -> Outcome:
    """One timed CLI call; a raised exception is an outcome, not a crash."""
    err = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(_Discard()), \
                contextlib.redirect_stderr(err):
            code = cli.main([subcommand, "--config", str(config),
                             "--out", str(out), "--jobs", str(jobs)])
    except Exception as exc:  # the benchmark counts crashes, it must go on
        return Outcome(None, f"{type(exc).__name__}: {exc}",
                       time.perf_counter() - start)
    return Outcome(code, err.getvalue(), time.perf_counter() - start)


def read_report(out: Path) -> bytes | None:
    path = out / "report.json"
    return path.read_bytes() if path.is_file() else None


def same_outputs(a: Path, b: Path) -> bool:
    for name in COMPARED_FILES:
        pa, pb = a / name, b / name
        if pa.exists() != pb.exists():
            return False
        if pa.exists() and not filecmp.cmp(pa, pb, shallow=False):
            return False
    return True


def bytes_written(out: Path) -> int:
    return sum((out / n).stat().st_size for n in OUTPUT_FILES
               if (out / n).exists())


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    incorrect: int = 0
    unreferenced: int = 0
    problems: list[str] = field(default_factory=list)
    _judged: dict = field(default_factory=dict)

    def note(self, problem: str) -> None:
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(problem)

    def check_call(self, call: workloads.Call, want: dict, outcome: Outcome,
                   out: Path) -> bool:
        """Judge one call against its reference; True if it failed."""
        self.attempted += 1
        raw = read_report(out) if outcome.exit_code is not None else None
        # identical bytes were judged before: reuse that verdict
        memo = (call.key, outcome.exit_code, outcome.stderr,
                hashlib.sha256(raw).hexdigest() if raw else None)
        verdict = self._judged.get(memo)
        if verdict is None:
            verdict = reference.judge(want, outcome.exit_code,
                                      json.loads(raw) if raw else None,
                                      outcome.stderr)
            self._judged[memo] = verdict
        self.failed += verdict.failed
        self.incorrect += verdict.incorrect
        self.unreferenced += verdict.unreferenced
        for p in verdict.problems:
            self.note(f"{call.key}: {p}")
        return verdict.failed


@dataclass
class Rep:
    """Per repetition totals; trace fields stay empty when untraced."""

    traced: bool
    wall: dict = field(default_factory=lambda: {1: 0.0, 2: 0.0})
    bytes_written: int = 0
    layers: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    root_s: float = 0.0
    path_s: dict = field(default_factory=lambda: {1: 0.0, 2: 0.0})


def _add_trace(rep: Rep, tracer: spans.Tracer, jobs: int) -> None:
    totals = spans.layer_totals(tracer.spans)
    rep.path_s[jobs] += sum(totals[name]["total_s"]
                            for name in spans.PATH_LAYERS)
    if jobs != 1:
        return
    for name, t in totals.items():
        acc = rep.layers.setdefault(name, {"self_s": 0.0, "calls": 0})
        acc["self_s"] += t["self_s"]
        acc["calls"] += t["calls"]
    for name in spans.COUNTERS:
        rep.counts[name] = rep.counts.get(name, 0) + tracer.counts.get(name, 0)
    rep.root_s += spans.root_time(tracer.spans)


def run_rep(cli, index: int, plan: list, jobs_values: tuple[int, ...],
            refs: dict, work: Path, tally: Tally,
            tracer: spans.Tracer | None) -> Rep:
    rep = Rep(traced=tracer is not None)
    for k, (call, path) in enumerate(plan):
        order = jobs_values if (index + k) % 2 == 0 else jobs_values[::-1]
        outs = {j: work / f"out-{k}-j{j}" for j in order}
        failed = {}
        for jobs in order:
            clear(outs[jobs])
            if tracer is not None:
                tracer.reset()
                tracer.install()
            try:
                outcome = invoke(cli, call.subcommand, path, outs[jobs], jobs)
            finally:
                if tracer is not None:
                    tracer.remove()
            rep.wall[jobs] += outcome.seconds
            if tracer is not None:
                _add_trace(rep, tracer, jobs)
            if jobs == 1:
                rep.bytes_written += bytes_written(outs[jobs])
            failed[jobs] = tally.check_call(call, refs[call.key], outcome,
                                            outs[jobs])
        if len(order) == 2 and not same_outputs(outs[1], outs[2]):
            # both calls of the pair count as failed, unless already counted
            tally.failed += (not failed[1]) + (not failed[2])
            tally.incorrect += 1
            tally.note(f"{call.key}: outputs differ between --jobs 1 and 2")
    return rep


def summarize_trace(reps: list[Rep]) -> dict:
    traced = [r for r in reps if r.traced]
    plain = [r for r in reps if not r.traced]
    # means, so the self times and the uncovered time add up to the traced
    # wall exactly
    mean = statistics.mean
    out = {}
    for layer in spans.LAYERS:
        out[f"{layer}.self_s"] = mean(r.layers[layer]["self_s"] for r in traced)
        out[f"{layer}.calls"] = mean(r.layers[layer]["calls"] for r in traced)
    for name in spans.COUNTERS:
        out[name] = mean(r.counts[name] for r in traced)
    traced_wall = mean(r.wall[1] for r in traced)
    out["trace.wall_s"] = traced_wall
    out["trace.uncovered_s"] = mean(r.wall[1] - r.root_s for r in traced)
    out["trace.overhead_s"] = traced_wall - mean(r.wall[1] for r in plain)
    out["cli.wall_jobs2_s"] = mean(r.wall[2] for r in plain)
    out["simulate.wait_s"] = mean(r.path_s[2] - r.path_s[1] for r in traced)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", type=Path, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)

    cli = import_cli(args.src)
    import numpy

    refs = reference.load()["workloads"][args.workload]
    plan = []
    for k, call in enumerate(workloads.calls(args.workload, args.seed)):
        path = args.work / f"config-{k}.json"
        path.write_text(json.dumps(call.config))
        plan.append((call, path))

    # warm-up: first-call costs are paid once per process, not per call;
    # its calls are checked but not counted as attempted
    warm = Tally()
    jobs_values = workloads.JOBS[args.workload]
    run_rep(cli, 0, plan[:1], jobs_values, refs, args.work, warm, None)
    tally = Tally(incorrect=warm.incorrect, problems=warm.problems)
    tracer = spans.Tracer() if args.trace else None
    reps: list[Rep] = []
    setup: list[float] = []
    deadline = time.perf_counter() + args.seconds
    durations: list[float] = []
    while True:
        traced = tracer is not None and len(reps) % 2 == 1
        start = time.perf_counter()
        reps.append(run_rep(cli, len(reps) + 1, plan, jobs_values, refs,
                            args.work, tally, tracer if traced else None))
        if tracer is None:
            # spread over the run, so set-up sees the same machine as the calls
            setup.append(setup_sample(args.src))
        durations.append(time.perf_counter() - start)
        enough = len(reps) >= MIN_REPS * (2 if tracer else 1)
        if enough and time.perf_counter() + statistics.median(durations) > deadline:
            break
    while tracer is None and len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample(args.src))

    untraced = [r for r in reps if not r.traced]
    result = {
        "numpy": numpy.__version__,
        "calls_per_rep": len(plan),
        "reps": len(untraced),
        "setup_s": setup,
        "wall_s": [r.wall[1] for r in untraced],
        "wall_jobs2_s": [r.wall[2] for r in untraced],
        "bytes_written": untraced[0].bytes_written,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "incorrect": tally.incorrect,
        "unreferenced": tally.unreferenced,
        "problems": tally.problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["trace"] = summarize_trace(reps)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
