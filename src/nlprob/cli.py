"""Command-line front end and check executor.

Subcommands run the check families of ``config.FAMILIES``: ``verify``
axioms, expectation chains and the inequality suite; ``check-deps`` the
dependence sweeps; ``simulate`` the Monte Carlo laws (``slln``,
``strassen``); ``all`` every check the config selects. ``main`` hands the
subcommand and the ``--seed`` and ``--tolerance`` overrides to
``config.parse_config``, whose config is the whole run: ``execute`` only
runs the checks it selected. Outputs land in the chosen directory:

* ``report.json``   — uniform check records, experiment summary, config echo
* ``trajectories.csv`` + ``plot.gp`` — geometric-grid path samples (when
  simulating) and a gnuplot script for them
* ``summary.txt``   — one PASS/FAIL line per record

Exit codes: 0 all selected checks pass, 1 at least one fails (first failure
on stderr), 2 configuration problems. Everything runs on one thread; reruns
with the same config and seed produce byte-identical report.json and
trajectories.csv. ``--jobs`` is still accepted and changes nothing.

The check engines (``capacity``, ``dependence``, ``expectation``,
``simulate``, ``slln``) load when a runner first needs them: ``verify``
adds ``capacity`` and ``expectation``, ``check-deps`` adds ``dependence``
and ``simulate`` adds ``simulate``, ``slln`` and ``expectation``. A
config's ``schedule`` or ``simulation`` section loads its reader's engine
under every subcommand (see ``config``).
"""

from __future__ import annotations

import argparse
import functools
import importlib
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from . import __version__
from .config import (
    CHECK_NAMES,
    FAMILIES,
    ExperimentConfig,
    parse_config,
    read_text,
    too_large,
)
from .errors import ConfigValidationError, NlprobError
from .functions import RAMP, AbsPower, Affine, Exp, TestFunction
from .reports import CheckResult, comparison, dumps, equality

if TYPE_CHECKING:
    from .simulate import ExperimentResult

# The engines' names the runners call, by engine. A runner loads its
# engines first (``_load``), which binds each name here unless it is bound
# already, so a name set on this module beforehand, by a test or a
# benchmark probe, is the one that runs; reading a name of this module
# loads its engine too (``__getattr__``).
_ENGINE_NAMES = {
    "capacity": ("all_events", "capacity_axiom_report"),
    "dependence": ("check_negative_association",
                   "check_vertical_independence",
                   "forward_factorization_value"),
    "expectation": ("chebyshev_jensen_records", "expectation_chain",
                    "inequality_suite", "sublinear_axiom_report",
                    "upper_expectation"),
    "simulate": ("DRIFT_MAX", "AdversaryStrategy", "run_slln_experiment"),
    "slln": ("truncate", "truncation_params"),
}
_ENGINE_OF = {name: engine for engine, names in _ENGINE_NAMES.items()
              for name in names}


def _load(*engines: str) -> None:
    for engine in engines:
        module = importlib.import_module(f".{engine}", __package__)
        for name in _ENGINE_NAMES[engine]:
            globals().setdefault(name, getattr(module, name))


def __getattr__(name: str):
    if name not in _ENGINE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load(_ENGINE_OF[name])
    return globals()[name]


@dataclass
class _Run:
    """What the runners of one execution share; the simulation runners
    leave their experiment and the control's payload here."""

    config: ExperimentConfig
    result: ExperimentResult | None = None
    control: dict[str, Any] | None = None


def _axiom_records(run: _Run) -> list[CheckResult]:
    _load("capacity", "expectation")
    model, tol = run.config.model, run.config.tolerance
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
    _load("expectation")
    config, tol = run.config, run.config.tolerance
    records = []
    for name, var in zip(config.variable_names, config.model.variables):
        bounds = expectation_chain(config.model.credal, var)
        cl, lo, up, cu = bounds.as_tuple()
        worst = max(cl - lo, lo - up, up - cu)
        records.append(CheckResult(
            f"chain:{name}", cl, cu, worst, worst <= tol,
            {"choquet_lower": cl, "lower": lo, "upper": up, "choquet_upper": cu}))
    return records


def _inequality_records(run: _Run) -> list[CheckResult]:
    _load("expectation")
    config, tol = run.config, run.config.tolerance
    model = config.model
    records = []
    for k, (name, var) in enumerate(zip(config.variable_names,
                                        model.variables)):
        other = model.variables[(k + 1) % len(model.variables)]
        vals = var.values
        shift = 1.0 - float(vals.min())
        median = float(np.median(vals))
        trials = [("affine", Affine(1.0, shift), median),
                  ("exp", Exp(1.0), median)]
        top = float(np.abs(vals).max())
        if top > 0:
            trials.append(("square", AbsPower(2.0), top / 2.0))
        # the Hoelder record reads neither f nor the threshold, so the
        # first trial's suite computes it and later trials reuse its numbers
        (label, f, threshold), *rest = trials
        suite = inequality_suite(model.credal, var, other, 2.0, 2.0,
                                 threshold, f, tol, label=f":{name}:{label}")
        records.extend(suite)
        hoelder = suite[0]
        for label, f, threshold in rest:
            tag = f":{name}:{label}"
            records.append(comparison(f"hoelder{tag}", hoelder.lhs,
                                      hoelder.rhs, tol, dict(hoelder.witness)))
            records.extend(chebyshev_jensen_records(model.credal, var,
                                                    threshold, f, tol,
                                                    label=tag))
    return records


def _na_records(run: _Run) -> list[CheckResult]:
    _load("dependence")
    return [check_negative_association(run.config.model, run.config.horizon,
                                       tol=run.config.tolerance)]


def _vertical_records(run: _Run) -> list[CheckResult]:
    _load("dependence")
    model = run.config.model
    ramps = []
    for var in model.variables:
        span = float(var.values.max() - var.values.min())
        width = span / 2.0 if span > 0 else 1.0
        mid = float(var.values.min() + var.values.max()) / 2.0
        ramps.append(TestFunction(RAMP, mid - width / 2.0, width))
    # one ramp per variable; the check cycles them as it cycles variables
    return [check_vertical_independence(model, run.config.horizon, ramps,
                                        run.config.tolerance)]


def _forward_records(run: _Run) -> list[CheckResult]:
    _load("dependence")
    config, tol = run.config, run.config.tolerance
    value = forward_factorization_value(config.model, config.forward_g,
                                        config.forward_f, n=2)
    records = [CheckResult("forward-factorization", value, 0.0, -value,
                           value >= -tol, {"g": config.forward_g.descriptor,
                                           "f": config.forward_f.descriptor})]
    if config.forward_expected is not None:
        records.append(equality("forward-expected", value,
                                config.forward_expected, max(tol, 1e-12)))
    return records


def _truncation_records(run: _Run) -> list[CheckResult]:
    _load("slln", "expectation")
    config, tol = run.config, run.config.tolerance
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
        phi = run.config.phi if "strassen" in run.config.selected else None
        run.result = _experiment(run, run.config.simulation.strategies,
                                 phi=phi)
    return run.result


def _slln_records(run: _Run) -> list[CheckResult]:
    _load("simulate")
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
    _load("simulate")
    config, sim = run.config, run.config.simulation
    result = _simulation(run)
    worst = max(s.phi_tail_sup for s in result.path_summaries)
    lip = config.phi.lipschitz_on_ray(max(1.0, sim.epsilon))
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
            sim.paths_per_strategy, config.seed, n_start=sim.n_start,
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
        "paths": [dict(vars(s)) for s in result.path_summaries],
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


def _csv_chunks(samples):
    """One chunk per path, so only one path's lines are held at a time."""
    yield "path_id,strategy,n,s_upper,s_lower\n"
    for pid, sample in enumerate(samples):
        head = f"{pid},{sample.strategy},"
        yield "".join(f"{head}{n},{su!r},{sl!r}\n" for n, su, sl in zip(
            sample.steps.tolist(), sample.upper.tolist(),
            sample.lower.tolist()))


def _write(path: Path, chunks, flag: str) -> None:
    """Write ``chunks`` to ``path``; a file that cannot be written is a
    configuration error of the output directory ``flag`` names."""
    try:
        with path.open("w") as f:
            f.writelines(chunks)
    except OSError as exc:
        raise ConfigValidationError(f"{flag}: cannot write {path}: "
                                    f"{exc.strerror}") from exc


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


def execute(config: ExperimentConfig,
            out_dir: str | Path | None = None) -> tuple[str, list[str]]:
    """Run the checks ``config`` selected, with its tolerance and seed, and
    write the report bundle to ``out_dir`` (else the config's ``out``, else
    ``out``); return the summary text and the names of the failing
    records. Nothing is decided here that ``parse_config`` has not."""
    out = Path(out_dir if out_dir is not None else (config.out or "out"))
    flag = "--out" if out_dir is not None else "out"
    try:  # before the checks run, so a bad --out costs no work
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigValidationError(f"{flag}: cannot create {out}: "
                                    f"{exc.strerror}") from exc
    run = _Run(config)
    by_check = {check: RUNNERS[check](run) for check in config.selected}

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
        "subcommand": config.subcommand,
        "selected_checks": config.selected,
        "tolerance": config.tolerance,
        "seed": config.seed,
        "expected_violations": sorted(config.expected_violations),
        "checks": flat_records,
        "experiment": (None if run.result is None
                       else _experiment_payload(run.result)),
        "negative_control": run.control,
        "passed": passed,
        "config": config.raw,
    }

    _write(out / "report.json", [dumps(report) + "\n"], flag)
    if run.result is not None:
        _write(out / "trajectories.csv",
               _csv_chunks(run.result.trajectory_samples), flag)
        _write(out / "plot.gp", [_PLOT_SCRIPT], flag)
    lines = []
    for rec in flat_records:
        tag = "PASS" if rec["pass"] else "FAIL"
        note = " (expected violation)" if rec["expected_violation"] else ""
        lines.append(f"{tag} {rec['check']} gap={rec['gap']!r}{note}")
    lines.append("")
    lines.append(f"RESULT: {'OK' if passed else 'FAILED'} "
                 f"({len(flat_records) - len(failures)}/{len(flat_records)} records)")
    summary = "\n".join(lines) + "\n"
    _write(out / "summary.txt", [summary], flag)

    return summary, failures


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlprob",
        description="exact imprecise-probability checks and adversarial "
                    "Monte Carlo for weighted strong laws")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, family in FAMILIES.items():
        help_text = f"run the config's checks among: {', '.join(family)}"
        p = sub.add_parser(name, help=help_text, description=help_text)
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
        config = parse_config(read_text(config_path, "config"),
                              config_path.parent, args.command, args.seed,
                              args.tolerance)
        summary, failures = execute(config, args.out)
    except NlprobError as exc:  # configuration errors included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(summary, end="")
    if failures:
        print(f"first failing check: {failures[0]}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
