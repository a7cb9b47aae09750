"""Command-line front end and check executor.

Subcommands run check families from one config: ``verify`` covers axioms,
expectation chains and the inequality suite; ``check-deps`` the dependence
sweeps; ``simulate`` truncation plus the Monte Carlo laws; ``all``
everything the config selects. Outputs land in the chosen directory:

* ``report.json``   — uniform check records, experiment summary, config echo
* ``trajectories.csv`` + ``plot.gp`` — geometric-grid path samples (when
  simulating) and a gnuplot script for them
* ``summary.txt``   — one PASS/FAIL line per record

Exit codes: 0 all selected checks pass, 1 at least one fails (first failure
on stderr), 2 configuration problems. Everything runs on one thread; reruns
with the same config and seed produce byte-identical report.json and
trajectories.csv. ``--jobs`` is still accepted and changes nothing.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

import numpy as np

from . import __version__
from .capacity import all_events, capacity_axiom_report
from .config import (
    CHECK_NAMES,
    FAMILIES,
    ExperimentConfig,
    parse_config,
    read_text,
    too_large,
)
from .dependence import (
    RAMP,
    TestFunction,
    check_negative_association,
    check_vertical_independence,
    forward_factorization_value,
)
from .errors import ConfigValidationError, NlprobError
from .expectation import (
    expectation_chain,
    inequality_suite,
    sublinear_axiom_report,
    upper_expectation,
)
from .functions import AbsPower, Affine, Exp
from .reports import CheckResult, comparison, dumps, equality
from .serialize import read_number
from .simulate import (
    DRIFT_MAX,
    AdversaryStrategy,
    ExperimentResult,
    run_slln_experiment,
)
from .slln import truncate, truncation_params


@dataclass(frozen=True)
class ExecutionOutcome:
    exit_code: int
    passed: bool
    report: dict[str, Any]
    failures: tuple[str, ...]
    summary: str


@dataclass
class _Run:
    """What the runners of one execution share; the simulation runners
    leave their experiment and the control's payload here."""

    config: ExperimentConfig
    tol: float
    seed: int | None
    selected: list[str]
    result: ExperimentResult | None = None
    control: dict[str, Any] | None = None


def _var_names(config: ExperimentConfig) -> list[str]:
    return list(config.model_doc.get("variables", {}).keys())


def _axiom_records(run: _Run) -> list[CheckResult]:
    model, tol = run.config.model, run.tol
    size = model.credal.size
    if size <= 16:
        events = all_events(size)
    else:
        # deterministic tractable family: singletons, prefixes, complements
        singles = np.eye(size, dtype=bool)
        events = np.vstack([singles, np.tri(size, dtype=bool), ~singles])
    x = model.variables[0]
    y = model.variables[1 % len(model.variables)]
    return [*capacity_axiom_report(model.credal, events, tol),
            *sublinear_axiom_report(model.credal, x, y, lam=2.0, c=1.0,
                                    a=-1.0, tol=tol)]


def _chain_records(run: _Run) -> list[CheckResult]:
    config, tol = run.config, run.tol
    records = []
    for name, var in zip(_var_names(config), config.model.variables):
        bounds = expectation_chain(config.model.credal, var)
        cl, lo, up, cu = bounds.as_tuple()
        worst = max(cl - lo, lo - up, up - cu)
        records.append(CheckResult(
            f"chain:{name}", cl, cu, worst, worst <= tol,
            {"choquet_lower": cl, "lower": lo, "upper": up, "choquet_upper": cu}))
    return records


def _inequality_records(run: _Run) -> list[CheckResult]:
    config, tol = run.config, run.tol
    model = config.model
    names = _var_names(config)
    records = []
    for k, (name, var) in enumerate(zip(names, model.variables)):
        other = model.variables[(k + 1) % len(model.variables)]
        vals = var.values
        shift = 1.0 - float(vals.min())
        median = float(np.median(vals))
        trials = [("affine", Affine(1.0, shift), median),
                  ("exp", Exp(1.0), median)]
        top = float(np.abs(vals).max())
        if top > 0:
            trials.append(("square", AbsPower(2.0), top / 2.0))
        for label, f, threshold in trials:
            records.extend(
                replace(r, check=f"{r.check}:{name}:{label}")
                for r in inequality_suite(model.credal, var, other, 2.0, 2.0,
                                          threshold, f, tol))
    return records


def _dependence_horizon(config: ExperimentConfig) -> int:
    return min(max(2, config.horizon), config.model.coordinates or math.inf)


def _na_records(run: _Run) -> list[CheckResult]:
    n = _dependence_horizon(run.config)
    return [check_negative_association(run.config.model, n, tol=run.tol)]


def _vertical_records(run: _Run) -> list[CheckResult]:
    model = run.config.model
    n = _dependence_horizon(run.config)
    ramps = []
    for var in model.variables:
        span = float(var.values.max() - var.values.min())
        width = span / 2.0 if span > 0 else 1.0
        mid = float(var.values.min() + var.values.max()) / 2.0
        ramps.append(TestFunction(RAMP, mid - width / 2.0, width))
    # one ramp per variable; the check cycles them as it cycles variables
    return [check_vertical_independence(model, n, ramps, run.tol)]


def _forward_records(run: _Run) -> list[CheckResult]:
    config, tol = run.config, run.tol
    value = forward_factorization_value(config.model, config.forward_g,
                                        config.forward_f, n=2)
    g_desc = getattr(config.forward_g, "descriptor", str(config.forward_g))
    f_desc = getattr(config.forward_f, "descriptor", str(config.forward_f))
    records = [CheckResult("forward-factorization", value, 0.0, -value,
                           value >= -tol, {"g": g_desc, "f": f_desc})]
    if config.forward_expected is not None:
        records.append(equality("forward-expected", value,
                                config.forward_expected, max(tol, 1e-12)))
    return records


def _truncation_records(run: _Run) -> list[CheckResult]:
    config, tol = run.config, run.tol
    model, schedule = config.model, config.schedule
    records = []
    eq_tol = max(tol, 1e-12)
    for i in config.truncation_indices:
        var = model.variable_at(i)
        params = truncation_params(schedule, i, model.credal, var)
        truncated = truncate(var, params)
        mean = upper_expectation(model.credal, truncated)
        records.append(equality(
            f"truncation-mean[{i}]", mean,
            upper_expectation(model.credal, var), eq_tol,
            {"b": params.center, "c": params.half_width, "d": params.recenter}))
        reach = float(schedule.a(i)) * float(np.abs(truncated.values - mean).max())
        envelope = 6.0 * schedule.C * float(schedule.A(i)) / math.log(i + 1)
        records.append(CheckResult(f"truncation-bound[{i}]", reach, envelope,
                                   reach - envelope, reach <= envelope + tol,
                                   None))
    return records


def _simulation(run: _Run) -> ExperimentResult:
    """The one experiment that slln and strassen read, run on first use;
    it carries phi when strassen is selected."""
    if run.result is None:
        phi = run.config.phi if "strassen" in run.selected else None
        run.result = _experiment(run, run.config.simulation.strategies,
                                 phi=phi)
    return run.result


def _slln_records(run: _Run) -> list[CheckResult]:
    sim = run.config.simulation
    result = _simulation(run)
    records = [comparison(name, frac, sim.max_exceedance_fraction, 0.0,
                          {"per_strategy": result.per_strategy})
               for name, frac in (("slln-upper-exceedance",
                                   result.upper_exceedance_fraction),
                                  ("slln-lower-undershoot",
                                   result.lower_undershoot_fraction))]
    if sim.negative_control:
        control = _experiment(run, (AdversaryStrategy(DRIFT_MAX),),
                              swap_centers=True)
        frac = control.upper_exceedance_fraction
        records.append(CheckResult(
            "slln-negative-control", frac, sim.min_control_fraction,
            sim.min_control_fraction - frac, frac >= sim.min_control_fraction,
            {"swapped_centers": True, "strategy": "drift-max"}))
        run.control = _experiment_payload(control)
    return records


def _strassen_records(run: _Run) -> list[CheckResult]:
    config, sim = run.config, run.config.simulation
    result = _simulation(run)
    worst = max(s.phi_tail_sup for s in result.path_summaries)
    lip = config.phi.lipschitz_on_ray(1.0)
    limit = result.phi_bound + lip * sim.epsilon
    return [comparison(
        "strassen-bound", worst, limit, 0.0,
        {"phi": config.phi.descriptor, "phi_bound": result.phi_bound,
         "lipschitz": lip, "epsilon": sim.epsilon})]


def _experiment(run: _Run, strategies, **kwargs) -> ExperimentResult:
    """``run_slln_experiment`` of ``strategies`` on the config's model,
    schedule and simulation settings, with an experiment too large for the
    machine's memory reported as the configuration error it is."""
    config, sim = run.config, run.config.simulation
    try:
        return run_slln_experiment(
            config.model, config.schedule, strategies, sim.n_steps,
            sim.paths_per_strategy, run.seed, n_start=sim.n_start,
            epsilon=sim.epsilon, grid_points=sim.grid_points, **kwargs)
    except MemoryError as exc:
        raise too_large(sim) from exc


def _experiment_payload(result) -> dict[str, Any]:
    return {
        "config": result.config,
        "upper_exceedance_fraction": result.upper_exceedance_fraction,
        "lower_undershoot_fraction": result.lower_undershoot_fraction,
        "per_strategy": result.per_strategy,
        "phi_bound": result.phi_bound,
        "paths": [
            {"strategy": s.strategy, "path_index": s.path_index,
             "final_upper": s.final_upper, "final_lower": s.final_lower,
             "tail_max_upper": s.tail_max_upper,
             "tail_min_lower": s.tail_min_lower,
             "phi_tail_sup": s.phi_tail_sup}
            for s in result.path_summaries
        ],
    }


_PLOT_SCRIPT = """\
# gnuplot script for trajectories.csv (same directory)
set datafile separator ","
set logscale x
set xlabel "n"
set ylabel "normalized weighted sum"
set key left bottom
plot "trajectories.csv" every ::1 using 3:4 with dots lc rgb "#1f77b4" \\
         title "upper-centered", \\
     "trajectories.csv" every ::1 using 3:5 with dots lc rgb "#d62728" \\
         title "lower-centered", \\
     0 with lines lw 2 lc rgb "black" notitle
"""


def _write_csv(path: Path, samples) -> None:
    """One chunk per path, so only one path's lines are held at a time."""
    with path.open("w") as out:
        out.write("path_id,strategy,n,s_upper,s_lower\n")
        for pid, sample in enumerate(samples):
            head = f"{pid},{sample.strategy},"
            out.write("".join(f"{head}{n},{su!r},{sl!r}\n" for n, su, sl in zip(
                sample.steps.tolist(), sample.upper.tolist(),
                sample.lower.tolist())))


# one runner per check name, each returning that check's records
RUNNERS = {
    "axioms": _axiom_records,
    "chain": _chain_records,
    "inequalities": _inequality_records,
    "na": _na_records,
    "vertical": _vertical_records,
    "forward": _forward_records,
    "truncation": _truncation_records,
    "slln": _slln_records,
    "strassen": _strassen_records,
}


def execute(config: ExperimentConfig, subcommand: str = "all",
            out_dir: str | Path | None = None,
            seed_override: int | None = None,
            tolerance_override: float | None = None) -> ExecutionOutcome:
    """Run the selected check families and write the report bundle."""
    if subcommand not in FAMILIES:
        raise ConfigValidationError(f"subcommand: unknown {subcommand!r}")
    tol = tolerance_override if tolerance_override is not None else config.tolerance
    seed = seed_override if seed_override is not None else config.seed
    selected = [c for c in config.checks if c in FAMILIES[subcommand]]
    if {"slln", "strassen"} & set(selected) and seed is None:
        raise ConfigValidationError("seed: required when simulation checks run")

    out = Path(out_dir if out_dir is not None else (config.out or "out"))
    try:  # before the checks run, so a bad --out costs no work
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        flag = "--out" if out_dir is not None else "out"
        raise ConfigValidationError(f"{flag}: cannot create {out}: "
                                    f"{exc.strerror}") from exc
    run = _Run(config, tol, seed, selected)
    by_check = {check: RUNNERS[check](run) for check in selected}

    failures, flat_records = [], []
    for check in CHECK_NAMES:
        for rec in map(CheckResult.as_dict, by_check.get(check, [])):
            # value pins and the control are not property assertions, so an
            # expected violation of their family never inverts them
            exempt = (rec["check"].endswith("-expected")
                      or rec["check"] == "slln-negative-control")
            expected = check in config.expected_violations and not exempt
            rec["expected_violation"] = expected
            if expected:
                rec["pass"] = not rec["pass"]
            flat_records.append(rec)
            if not rec["pass"]:
                failures.append(rec["check"])

    passed = not failures
    report = {
        "tool": {"name": "nlprob", "version": __version__},
        "subcommand": subcommand,
        "selected_checks": selected,
        "tolerance": tol,
        "seed": seed,
        "expected_violations": sorted(config.expected_violations),
        "checks": flat_records,
        "experiment": (None if run.result is None
                       else _experiment_payload(run.result)),
        "negative_control": run.control,
        "passed": passed,
        "config": config.raw,
    }

    (out / "report.json").write_text(dumps(report) + "\n")
    if run.result is not None:
        _write_csv(out / "trajectories.csv", run.result.trajectory_samples)
        (out / "plot.gp").write_text(_PLOT_SCRIPT)
    lines = []
    for rec in flat_records:
        tag = "PASS" if rec["pass"] else "FAIL"
        note = " (expected violation)" if rec["expected_violation"] else ""
        lines.append(f"{tag} {rec['check']} gap={rec['gap']!r}{note}")
    lines.append("")
    lines.append(f"RESULT: {'OK' if passed else 'FAILED'} "
                 f"({len(flat_records) - len(failures)}/{len(flat_records)} records)")
    summary = "\n".join(lines) + "\n"
    (out / "summary.txt").write_text(summary)

    return ExecutionOutcome(0 if passed else 1, passed, report,
                            tuple(failures), summary)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlprob",
        description="exact imprecise-probability checks and adversarial "
                    "Monte Carlo for weighted strong laws")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "verify": "capacity/expectation axioms, chains, inequality suite",
        "check-deps": "negative association, vertical independence, "
                      "forward factorization",
        "simulate": "truncation contracts and Monte Carlo limit checks",
        "all": "every check selected in the config",
    }
    for name, help_text in descriptions.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--jobs", type=int, default=1,
                       help="accepted for compatibility; changes nothing")
        p.add_argument("--tolerance", type=float, default=None,
                       help="override the config tolerance")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    config_path = Path(args.config)
    if not config_path.is_file():
        print(f"error: config file not found: {config_path}", file=sys.stderr)
        return 2
    try:
        seed = read_number(args.seed, "--seed", optional=True, integer=True,
                           low=0)
        tolerance = read_number(args.tolerance, "--tolerance", optional=True,
                                above=0.0)
        config = parse_config(read_text(config_path, "config"),
                              base_dir=config_path.parent)
        outcome = execute(config, subcommand=args.command, out_dir=args.out,
                          seed_override=seed, tolerance_override=tolerance)
    except NlprobError as exc:  # configuration errors included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in outcome.summary.splitlines():
        print(line)
    if not outcome.passed:
        print(f"first failing check: {outcome.failures[0]}", file=sys.stderr)
    return outcome.exit_code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
