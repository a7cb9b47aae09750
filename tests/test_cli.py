"""Command-line entry point: exit codes, artifacts, determinism."""

import contextlib
import copy
import io
import json
import math
import re
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from nlprob import cli
from nlprob.cli import main
from nlprob.config import CHECK_NAMES, FAMILIES, parse_config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
PAIR = str(CONFIGS / "pair-counterexample.json")
DEMO = str(CONFIGS / "rectangular-demo.json")


def run(tmp_path, *argv):
    out = tmp_path / "out"
    code = main([*argv, "--out", str(out)])
    report = json.loads((out / "report.json").read_text()) \
        if (out / "report.json").is_file() else None
    return code, out, report


def record(report, name):
    matches = [r for r in report["checks"] if r["check"] == name]
    assert matches, f"no record named {name}"
    return matches[0]


class TestPairConfig:
    def test_full_run_passes(self, tmp_path, capsys):
        code, out, report = run(tmp_path, "all", "--config", PAIR)
        assert code == 0
        assert report["passed"] is True
        assert report["subcommand"] == "all"
        captured = capsys.readouterr()
        assert "RESULT: OK" in captured.out
        assert captured.err == ""

    def test_forward_violation_is_expected_and_pinned(self, tmp_path):
        _, _, report = run(tmp_path, "all", "--config", PAIR)
        forward = record(report, "forward-factorization")
        assert forward["expected_violation"] is True
        assert forward["pass"] is True  # violation demanded and observed
        assert forward["lhs"] == -0.21
        pin = record(report, "forward-expected")
        assert pin["expected_violation"] is False
        assert pin["pass"] is True and pin["gap"] == 0.0

    def test_negative_association_holds(self, tmp_path):
        _, _, report = run(tmp_path, "all", "--config", PAIR)
        na = record(report, "negative-association")
        assert na["pass"] is True and na["expected_violation"] is False
        assert na["verdict"] == "no-counterexample-found"

    def test_summary_marks_expected_violations(self, tmp_path):
        _, out, _ = run(tmp_path, "all", "--config", PAIR)
        lines = (out / "summary.txt").read_text().splitlines()
        assert all(line.startswith(("PASS", "FAIL")) for line in lines[:-2])
        assert any("(expected violation)" in line for line in lines)
        assert lines[-1].startswith("RESULT: OK")

    def test_subcommand_families(self, tmp_path):
        _, _, verify = run(tmp_path / "v", "verify", "--config", PAIR)
        assert verify["selected_checks"] == ["axioms", "chain", "inequalities"]
        _, _, deps = run(tmp_path / "d", "check-deps", "--config", PAIR)
        assert deps["selected_checks"] == ["na", "vertical", "forward"]
        names = {r["check"] for r in deps["checks"]}
        assert "upper-subadditivity" not in names

    def test_no_simulation_artifacts_without_simulation(self, tmp_path):
        _, out, _ = run(tmp_path, "verify", "--config", PAIR)
        assert not (out / "trajectories.csv").exists()
        assert not (out / "plot.gp").exists()


class TestDemoConfig:
    def test_simulate_family_and_artifacts(self, tmp_path):
        code, out, report = run(tmp_path, "simulate", "--config", DEMO)
        assert code == 0
        assert report["selected_checks"] == ["slln", "strassen"]
        assert (out / "trajectories.csv").is_file()
        assert "trajectories.csv" in (out / "plot.gp").read_text()
        assert report["experiment"]["upper_exceedance_fraction"] == 0.0
        assert report["negative_control"]["upper_exceedance_fraction"] >= 0.95

    def test_trajectory_csv_shape(self, tmp_path):
        _, out, _ = run(tmp_path, "simulate", "--config", DEMO)
        lines = (out / "trajectories.csv").read_text().splitlines()
        assert lines[0] == "path_id,strategy,n,s_upper,s_lower"
        assert all(len(line.split(",")) == 5 for line in lines[1:])
        # path ids are contiguous and strategy-major
        ids = [int(line.split(",")[0]) for line in lines[1:]]
        assert ids == sorted(ids)

    def test_byte_identical_across_jobs(self, tmp_path, monkeypatch):
        _, out1, _ = run(tmp_path / "a", "simulate", "--config", DEMO,
                         "--jobs", "1")

        def refuse(thread):
            raise AssertionError(f"thread {thread.name} started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        for jobs in ("2", "4"):
            code, out2, _ = run(tmp_path / jobs, "simulate", "--config", DEMO,
                                "--jobs", jobs)
            assert code == 0
            for name in ("report.json", "summary.txt", "trajectories.csv",
                         "plot.gp"):
                assert (out1 / name).read_bytes() == \
                    (out2 / name).read_bytes()

    @pytest.mark.parametrize("expected, inverted", [
        ("strassen", ["strassen-bound"]),
        ("slln", ["slln-upper-exceedance", "slln-lower-undershoot"]),
    ])
    def test_expected_violation_inverts_its_own_records(self, tmp_path,
                                                        expected, inverted):
        doc = json.loads(Path(DEMO).read_text())
        runs = []
        for order in (["slln", "strassen"], ["strassen", "slln"]):
            config = tmp_path / f"{order[0]}.json"
            config.write_text(json.dumps(dict(
                doc, checks=order, expected_violations=[expected])))
            runs.append(run(tmp_path / order[0], "simulate", "--config",
                            str(config)))
        (code_a, out_a, a), (code_b, out_b, b) = runs
        assert code_a == code_b
        assert (out_a / "summary.txt").read_bytes() == \
            (out_b / "summary.txt").read_bytes()
        # the report echoes the config's check order; the rest is the same
        for report in (a, b):
            assert report.pop("selected_checks") == \
                report.pop("config")["checks"]
        assert a == b
        assert [r["check"] for r in a["checks"]
                if r["expected_violation"]] == inverted

    def test_byte_identical_across_reruns(self, tmp_path):
        _, out1, _ = run(tmp_path / "a", "all", "--config", DEMO)
        _, out2, _ = run(tmp_path / "b", "all", "--config", DEMO)
        assert (out1 / "report.json").read_bytes() == \
            (out2 / "report.json").read_bytes()

    def test_seed_override_changes_paths(self, tmp_path):
        _, out1, r1 = run(tmp_path / "a", "simulate", "--config", DEMO)
        _, out2, r2 = run(tmp_path / "b", "simulate", "--config", DEMO,
                          "--seed", "999")
        assert r1["seed"] != r2["seed"] == 999
        assert (out1 / "trajectories.csv").read_bytes() != \
            (out2 / "trajectories.csv").read_bytes()

    def test_tolerance_override_is_reported(self, tmp_path):
        _, _, report = run(tmp_path, "verify", "--config", DEMO,
                           "--tolerance", "1e-06")
        assert report["tolerance"] == 1e-06


class TestRectangularHorizonFive:
    def test_dependence_checks_pass(self, tmp_path):
        # 27 ramps per family at horizon 5 is 27^5 assignments at the last
        # split; the closed form covers them without enumerating
        config = tmp_path / "rect.json"
        config.write_text(json.dumps({
            "model": {"space": 3, "measures": [[0.5, 0.25, 0.25],
                                               [0.2, 0.3, 0.5]],
                      "variables": {"X1": [0.0, 1.0, 2.0],
                                    "X2": [-1.0, 0.0, 1.0]}},
            "checks": ["na", "vertical"],
            "horizon": 5,
        }))
        code, _, report = run(tmp_path, "check-deps", "--config", str(config))
        assert code == 0 and report["passed"] is True
        na = record(report, "negative-association")
        assert na["gap"] == 0.0 and na["pass"] is True
        assert na["checked"] == 2 * sum(27 ** k for k in range(2, 6))
        assert record(report, "vertical-independence")["pass"] is True


class TestAxiomEventFamily:
    def _family(self, tmp_path, monkeypatch, size):
        seen = []
        real = cli.capacity_axiom_report

        def spy(credal, events, tol):
            seen.append(events)
            return real(credal, events, tol)

        monkeypatch.setattr(cli, "capacity_axiom_report", spy)
        config = tmp_path / "wide.json"
        config.write_text(json.dumps({
            "model": {"space": size,
                      "measures": [[1.0 / size] * size,
                                   [0.5] + [0.5 / (size - 1)] * (size - 1)],
                      "variables": {"X": [float(i) for i in range(size)]}},
            "checks": ["axioms"],
        }))
        code, _, report = run(tmp_path, "verify", "--config", str(config))
        assert code == 0 and report["passed"] is True
        assert report["selected_checks"] == ["axioms"]
        assert len(seen) == 1
        return [np.flatnonzero(row).tolist() for row in seen[0]]

    def test_every_event_up_to_sixteen_outcomes(self, tmp_path, monkeypatch):
        family = self._family(tmp_path, monkeypatch, 16)
        assert family == [[i for i in range(16) if k >> i & 1]
                          for k in range(1 << 16)]

    def test_singles_prefixes_complements_above_sixteen(self, tmp_path,
                                                         monkeypatch):
        family = self._family(tmp_path, monkeypatch, 17)
        assert len(family) == 51
        assert family == ([[i] for i in range(17)]
                          + [list(range(i + 1)) for i in range(17)]
                          + [[k for k in range(17) if k != i]
                             for i in range(17)])


class TestFailureModes:
    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["verify", "--config", str(tmp_path / "nope.json")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_invalid_config_contents(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "model": {"space": 2, "measures": [[0.5, 0.5]],
                      "variables": {"X": [0.0, 1.0]}},
            "checks": ["bogus"],
        }))
        assert main(["verify", "--config", str(bad)]) == 2
        assert "checks[0]" in capsys.readouterr().err

    def test_out_of_range_schedule(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "model": {"space": 2, "measures": [[0.5, 0.5]],
                      "variables": {"X": [0.0, 1.0]}},
            "checks": ["slln"],
            "seed": 1,
            "schedule": {"kind": "kolmogorov", "alpha": 1.0, "beta": 1.7},
        }))
        assert main(["simulate", "--config", str(bad)]) == 2
        assert "beta=1.7" in capsys.readouterr().err

    def test_unexpected_violation_exits_one(self, tmp_path, capsys):
        # the comonotone pair genuinely fails vertical independence; without
        # the expected-violation marker that is a reported failure
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "model": {
                "space": 2,
                "measures": [[0.7, 0.3], [0.3, 0.7]],
                "variables": {"Y": [0.0, -1.0], "X": [0.0, 1.0]},
                "joint": "comonotone-pair",
            },
            "checks": ["vertical"],
        }))
        code, out, report = run(tmp_path, "check-deps", "--config",
                                str(config))
        assert code == 1
        assert report["passed"] is False
        captured = capsys.readouterr()
        assert "first failing check: vertical-independence" in captured.err
        assert "RESULT: FAILED" in captured.out
        assert (out / "summary.txt").read_text().count("FAIL") >= 1

    def test_non_numeric_tolerance_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "model": {"space": 2, "measures": [[0.5, 0.5]],
                      "variables": {"X": [0.0, 1.0]}},
            "checks": ["chain"],
            "tolerance": "x",
        }))
        assert main(["verify", "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "tolerance" in err and "Traceback" not in err

    @pytest.mark.parametrize("check", ["slln", "strassen"])
    def test_pair_model_cannot_simulate(self, tmp_path, capsys, check):
        config = json.loads(Path(PAIR).read_text())
        config["checks"] = [check]
        path = tmp_path / "pair-sim.json"
        path.write_text(json.dumps(config))
        code, out, report = run(tmp_path, "all", "--config", str(path))
        assert code == 2 and report is None
        err = capsys.readouterr().err
        assert err.startswith("error: checks:") and "Traceback" not in err

    def test_experiment_too_large_for_memory_exits_two(self, tmp_path,
                                                       capsys):
        # 1e12 paths a strategy keep far more grid samples and summaries
        # than any machine holds: a configuration error, not a crash
        config = json.loads(Path(DEMO).read_text())
        config["checks"] = ["slln"]
        config["simulation"].update(paths_per_strategy=10**12)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(config))
        code, out, report = run(tmp_path, "simulate", "--config", str(path))
        assert code == 2 and report is None
        err = capsys.readouterr().err
        assert err.startswith("error: simulation: n_steps=")
        assert "paths_per_strategy=1000000000000" in err
        assert "Traceback" not in err

    def test_stdout_is_the_summary_file(self, tmp_path, capsys):
        for config in (PAIR, DEMO):
            code, out, _ = run(tmp_path, "all", "--config", config)
            assert code == 0
            assert capsys.readouterr().out.splitlines() \
                == (out / "summary.txt").read_text().splitlines()

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_help_names_each_subcommands_family(self, capsys):
        # the help of a subcommand, in the program's help and its own,
        # names exactly the checks it runs
        def named(text):
            return {c for c in CHECK_NAMES if re.search(rf"\b{c}\b", text)}

        with pytest.raises(SystemExit):
            main(["--help"])
        top = capsys.readouterr().out
        for name, family in FAMILIES.items():
            line = re.search(rf"\n    {name}\s+(.*?)(?=\n    \S|\n\n)", top,
                             re.DOTALL)
            assert named(line.group(1)) == set(family), name
            with pytest.raises(SystemExit):
                main([name, "--help"])
            assert named(capsys.readouterr().out) == set(family), name


SMALL = {"model": {"space": 2, "measures": [[0.5, 0.5], [0.8, 0.2]],
                   "variables": {"X": [0.0, 1.0]}},
         "checks": ["chain"]}


def _edited(edit):
    config = copy.deepcopy(SMALL)
    edit(config)
    return json.dumps(config)


def _phi_rate(rate):
    def edit(config):
        config.update(checks=["strassen"], seed=1,
                      schedule={"kind": "kolmogorov"},
                      phi={"kind": "exp", "rate": rate})
    return edit


def _overflowing_values(config):
    config["model"].update(space=3, measures=[[0.5, 0.25, 0.25]],
                           variables={"X": [1e308, -1e308, 0.0]})
    config.update(checks=["axioms"])


HUGE = "9" * 4301  # one digit past Python's int-from-string limit
DEMO_HUGE_C = json.loads(Path(DEMO).read_text())
DEMO_HUGE_C["schedule"]["C"] = 1e308

# (config text, extra flags, model file text or None, what the error names)
HOSTILE_NUMBERS = {
    "measure-string": (_edited(lambda c: c["model"].update(
        measures=[["a", "b"], [0.5, 0.5]])), [], None, "measures[0][0]"),
    "value-string": (_edited(lambda c: c["model"]["variables"].update(
        X=["a", 1])), [], None, "variables['X'][0]"),
    "value-bool": (_edited(lambda c: c["model"]["variables"].update(
        X=[True, 1])), [], None, "variables['X'][0]"),
    "phi-nan": (_edited(_phi_rate(float("nan"))), [], None, "phi: rate"),
    # finite inputs whose results overflow to inf
    "phi-rate-overflow": (_edited(_phi_rate(1e308)), [], None, "not finite"),
    "schedule-C-overflow": (json.dumps(DEMO_HUGE_C), [], None, "not finite"),
    "values-sum-overflow": (_edited(_overflowing_values), [], None,
                            "axioms: the sublinear axioms on variables 'X' "
                            "and 'X' overflow"),
    "huge-literal": (json.dumps(SMALL)[:-1] + f', "seed": {HUGE}}}', [], None,
                     "not valid JSON"),
    "huge-literal-model-file": (_edited(lambda c: c.update(model="m.json")), [],
                                f'{{"space": {HUGE}}}', "model file"),
    "tolerance-nan": (json.dumps(SMALL), ["--tolerance", "nan"], None, "--tolerance"),
    "tolerance-inf": (json.dumps(SMALL), ["--tolerance", "inf"], None, "--tolerance"),
    "seed-negative": (json.dumps(SMALL), ["--seed", "-1"], None, "--seed"),
}


@pytest.mark.parametrize("case", sorted(HOSTILE_NUMBERS))
def test_hostile_number_exits_two(tmp_path, capsys, case):
    text, flags, model_text, named = HOSTILE_NUMBERS[case]
    (tmp_path / "config.json").write_text(text)
    if model_text is not None:
        (tmp_path / "m.json").write_text(model_text)
    code, _, report = run(tmp_path, "all", "--config",
                          str(tmp_path / "config.json"), *flags)
    err = capsys.readouterr().err
    assert code == 2 and report is None
    assert err.startswith("error: ") and named in err and "Traceback" not in err


@pytest.mark.parametrize("case", ["phi-rate-overflow", "schedule-C-overflow",
                                  "values-sum-overflow"])
def test_overflow_is_an_error_not_a_warning(tmp_path, capsys, case):
    # the overflow itself is the configuration error: numpy's RuntimeWarning
    # must not reach stderr ahead of the CLI's own "error:" line
    text, flags, _, _ = HOSTILE_NUMBERS[case]
    (tmp_path / "config.json").write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, _ = run(tmp_path, "all", "--config",
                         str(tmp_path / "config.json"), *flags)
    assert code == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert capsys.readouterr().err.startswith("error: ")


NOT_UTF8 = json.dumps(SMALL).replace("chain", "chain\xe9").encode("latin-1")

# (config bytes, model file bytes or None, --out below tmp_path, named)
UNUSABLE_FILES = {
    "out-is-a-file": (json.dumps(SMALL).encode(), None, "config.json", "--out"),
    "out-under-a-file": (json.dumps(SMALL).encode(), None, "config.json/out",
                         "--out"),
    "config-not-utf8": (NOT_UTF8, None, "out", "config"),
    "model-file-not-utf8": (_edited(lambda c: c.update(model="m.json")).encode(),
                            json.dumps(SMALL["model"]).encode("utf-16"), "out",
                            "model file"),
}


@pytest.mark.parametrize("case", sorted(UNUSABLE_FILES))
def test_unusable_file_exits_two(tmp_path, capsys, case):
    config, model, out, named = UNUSABLE_FILES[case]
    (tmp_path / "config.json").write_bytes(config)
    if model is not None:
        (tmp_path / "m.json").write_bytes(model)
    code = main(["all", "--config", str(tmp_path / "config.json"),
                 "--out", str(tmp_path / out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {named}") and "Traceback" not in err


HOSTILE = ["x", True, None, float("nan"), [], {}, -1, 0, 0.5, 1e-300]
SHIPPED = [json.loads(Path(path).read_text()) for path in (PAIR, DEMO)]


def _node_paths(node, prefix=()):
    """The path of every leaf and of every value under a key, below ``node``."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield prefix + (key,)
        yield from _node_paths(child, prefix + (key,))


NODES = [(k, path) for k, doc in enumerate(SHIPPED) for path in _node_paths(doc)]


@seed(20251018)
@settings(max_examples=150, deadline=None, database=None)
@given(st.sampled_from(NODES), st.sampled_from(HOSTILE))
def test_hostile_config_keeps_exit_code_contract(node, value):
    # values are small, so no example asks for a large simulation
    k, path = node
    config = copy.deepcopy(SHIPPED[k])
    parent = config
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "config.json").write_text(json.dumps(config))
        out = Path(tmp) / "out"
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(["all", "--config", str(Path(tmp) / "config.json"),
                         "--out", str(out)])
        assert code in (0, 1, 2)
        if code == 1:
            assert "\nFAIL " in "\n" + (out / "summary.txt").read_text()


WEIGHT_UNITS = 8  # dyadic weights, so every measure sums to exactly 1.0


def _scratch_model(draw, joint):
    """A model document of 1-4 outcomes, 1-3 measures and the joint's
    variables (1-2 for rectangular), half-integer values."""
    size = draw(st.integers(1, 4))
    measures = []
    for _ in range(draw(st.integers(1, 3))):
        cuts = sorted(draw(st.lists(st.integers(0, WEIGHT_UNITS),
                                    min_size=size - 1, max_size=size - 1)))
        measures.append([(b - a) / WEIGHT_UNITS for a, b in
                         zip([0, *cuts], [*cuts, WEIGHT_UNITS])])
    n_vars = 2 if joint == "comonotone-pair" else draw(st.integers(1, 2))
    value = st.integers(-4, 4).map(lambda k: k / 2.0)
    variables = {f"X{k}": draw(st.lists(value, min_size=size, max_size=size))
                 for k in range(1, n_vars + 1)}
    return {"space": size, "measures": measures, "variables": variables,
            "joint": joint}


@st.composite
def scratch_configs(draw):
    """A dependence-check config built from nothing: 1-4 outcomes, 1-3
    measures, either joint, horizon 1-9 and any nonempty set of checks."""
    joint = draw(st.sampled_from(["rectangular", "comonotone-pair"]))
    return {"model": _scratch_model(draw, joint),
            "checks": draw(st.lists(st.sampled_from(["na", "vertical", "forward"]),
                                    min_size=1, max_size=3, unique=True)),
            "horizon": draw(st.sampled_from(range(1, 10)))}


def _mostly(draw, valid, invalid):
    """One of ``valid`` four times in five, otherwise one of ``invalid``."""
    pool = draw(st.sampled_from([valid] * 4 + [invalid]))
    return draw(st.sampled_from(pool))


STRATEGIES = [{"kind": "fixed", "index": 0}, "cyclic", "iid-random",
              {"kind": "iid-random", "seed": 7}, "drift-max"]
# past the 1-3 measures of a scratch model, or past some of them
BAD_FIXED = [{"kind": "fixed", "index": 5}, {"kind": "fixed", "index": 2}]
# keys that no simulation section or strategy object knows
SIMULATION_TYPOS = ["n_step", "paths_per_stratgy", "grid_point"]
STRATEGY_TYPOS = [{"kind": "cyclic", "idx": 3}, {"kind": "iid-random", "salt": 1}]


@st.composite
def scratch_simulation_configs(draw):
    """A simulation config built from nothing: a rectangular model as in
    :func:`scratch_configs`, a kolmogorov or mz schedule whose p and beta
    fall on either side of their bounds, 1000-2000 steps, 1-3 paths, any
    strategy subset (with an out-of-range fixed index one time in five),
    drawn epsilon, negative_control and phi fields, and one time in five an
    unknown key in the simulation section or in a strategy object."""
    kind = draw(st.sampled_from(["kolmogorov", "mz"]))
    schedule = {"kind": kind,
                "beta": _mostly(draw, [0.4, 0.9], [0.0, 0.2, 1.0])}
    if kind == "mz":
        schedule["p"] = _mostly(draw, [1.0, 1.25, 1.35], [0.5, 2.0])
    strategies = draw(st.lists(st.sampled_from(STRATEGIES), min_size=1,
                               max_size=4, unique_by=json.dumps))
    strategies += _mostly(draw, [[]], [[bad] for bad in BAD_FIXED])
    typo = _mostly(draw, [None], ["simulation", "strategy"])
    if typo == "strategy":
        strategies.append(draw(st.sampled_from(STRATEGY_TYPOS)))
    config = {
        "model": _scratch_model(draw, "rectangular"),
        "checks": draw(st.lists(st.sampled_from(["slln", "strassen",
                                                 "truncation"]),
                                min_size=1, max_size=3, unique=True)),
        "seed": draw(st.integers(0, 2 ** 32)),
        "schedule": schedule,
        "simulation": {
            "n_steps": draw(st.integers(1000, 2000)),
            "paths_per_strategy": draw(st.integers(1, 3)),
            "strategies": strategies,
            "epsilon": _mostly(draw, [0.05, 0.3, 2.0], [0.0, -0.1]),
            "negative_control": draw(st.booleans()),
        },
    }
    phi = _mostly(draw, [None, {"kind": "exp", "rate": 1.0},
                         {"kind": "clamp", "lo": -1, "hi": 1}],
                  [{"kind": "affine", "slope": -1.0},
                   {"kind": "abs-power", "power": 2}])
    if phi is not None:
        config["phi"] = phi
    if typo == "simulation":
        config["simulation"][draw(st.sampled_from(SIMULATION_TYPOS))] = 1000
    return config


def _run_all(config):
    """Run ``all`` on ``config``; the exit code is 0, 1 or 2, and an exit 2
    prints exactly one ``error:`` line. Returns the code and stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "config.json").write_text(json.dumps(config))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["all", "--config", str(Path(tmp) / "config.json"),
                         "--out", str(Path(tmp) / "out")])
    assert code in (0, 1, 2)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
    return code, err.getvalue()


@seed(20261018)
@settings(max_examples=120, deadline=None, database=None)
@given(scratch_configs())
def test_scratch_config_keeps_exit_code_contract(config):
    code, err = _run_all(config)
    if (config["model"]["joint"] == "rectangular" and config["horizon"] > 6
            and {"na", "vertical"} & set(config["checks"])):
        assert code == 2 and "enumeration cap" in err


@seed(20261019)
@settings(max_examples=150, deadline=None, database=None)
@given(scratch_simulation_configs())
def test_scratch_simulation_config_keeps_exit_code_contract(config):
    code, _ = _run_all(config)
    sim = config["simulation"]
    if (set(SIMULATION_TYPOS) & set(sim)
            or any(s in STRATEGY_TYPOS for s in sim["strategies"])):
        assert code == 2


DEMO_DOC = json.loads(Path(DEMO).read_text())
PAIR_DOC = json.loads(Path(PAIR).read_text())

# (config overrides on the demo config, a None deleting the key, the one
# stderr line)
REFUSED_AT_PARSE = {
    "seed": ({"seed": None},
             "error: seed: required when simulation checks are selected\n"),
    "schedule": ({"schedule": None},
                 "error: schedule: required by checks "
                 "['slln', 'strassen', 'truncation']\n"),
    "pair-model": ({"model": PAIR_DOC["model"],
                    "expected_violations": PAIR_DOC["expected_violations"]},
                   "error: checks: ['slln', 'strassen'] need a rectangular "
                   "model, not 'comonotone-pair'\n"),
    "horizon": ({"checks": ["axioms", "chain", "na"], "horizon": 7},
                "error: 7 coordinates exceed the enumeration cap 6\n"),
    "phi": ({"phi": {"kind": "polynomial", "coeffs": [0, 0, -1]}},
            "error: phi: strassen limit sup + lipschitz * epsilon = "
            "0.0 + inf * 0.3 is not finite\n"),
    "negative-control": (
        {"simulation": {**DEMO_DOC["simulation"], "negative_control": "false"}},
        "error: simulation.negative_control: must be true or false, "
        "got 'false'\n"),
    "fixed-index": (
        {"simulation": {**DEMO_DOC["simulation"], "strategies": [
            "cyclic", {"kind": "fixed", "index": 9}]}},
        "error: simulation.strategies[1]: fixed(9) with only 2 measures\n"),
    "memory": (
        {"simulation": {**DEMO_DOC["simulation"], "paths_per_strategy": 1e12}},
        "error: simulation: n_steps=1500, paths_per_strategy=1000000000000 "
        "and grid_points=48 need more memory than this machine has\n"),
    "truncation-index": (
        {"model": PAIR_DOC["model"], "checks": ["axioms", "na", "truncation"]},
        "error: truncation_indices[2]: must be <= 2, got 3\n"),
    "negative-salt": (
        {"simulation": {**DEMO_DOC["simulation"], "strategies": [
            {"kind": "iid-random", "seed": -1}]}},
        "error: simulation.strategies[0]: seed: must be >= 0, got -1\n"),
    "schedule-p": (
        {"schedule": {"kind": "kolmogorov", "p": 1.25, "alpha": 1.0,
                      "beta": 0.5}},
        "error: schedule: kolmogorov takes no p; p belongs to mz\n"),
    "strategy-seed": (
        {"simulation": {**DEMO_DOC["simulation"], "strategies": [
            "cyclic", {"kind": "drift-max", "seed": 3}]}},
        "error: simulation.strategies[1]: seed: only iid-random takes a "
        "seed\n"),
    "repeated-strategy": (
        {"simulation": {**DEMO_DOC["simulation"], "strategies": [
            "cyclic", "cyclic", {"kind": "fixed", "index": 1}]}},
        "error: simulation.strategies[1]: repeats the label cyclic\n"),
    # a typo'd key would run its field's default, so it is refused
    "simulation-key": (
        {"simulation": {"n_step": 2000, "paths_per_stratgy": 3}},
        "error: simulation: unknown keys ['n_step', 'paths_per_stratgy']; "
        "known: ['epsilon', 'grid_points', 'max_exceedance_fraction', "
        "'min_control_fraction', 'n_start', 'n_steps', 'negative_control', "
        "'paths_per_strategy', 'strategies']\n"),
    "schedule-key": (
        {"schedule": {"kind": "kolmogorov", "betta": 0.9}},
        "error: schedule: unknown keys ['betta']; known: ['C', 'alpha', "
        "'beta', 'kind', 'm', 'p']\n"),
    "strategy-key": (
        {"simulation": {**DEMO_DOC["simulation"], "strategies": [
            "drift-max", {"kind": "cyclic", "idx": 3}]}},
        "error: simulation.strategies[1]: unknown keys ['idx']; known: "
        "['index', 'kind', 'seed']\n"),
    "forward-key": (
        {"forward": {"g": {"kind": "ramp"}, "expect": -0.21}},
        "error: forward: unknown keys ['expect']; known: ['expected', 'f', "
        "'g']\n"),
    "phi-key": (
        {"phi": {"kind": "exp", "rat": 2.0}},
        "error: phi: unknown keys ['rat']; known: ['kind', 'rate']\n"),
    "forward-g-key": (
        {"forward": {"g": {"kind": "ramp", "treshold": 5.0}}},
        "error: forward.g: unknown keys ['treshold']; known: ['direction', "
        "'kind', 'threshold', 'width']\n"),
    "forward-f-key": (
        {"forward": {"f": {"kind": "clamp", "lo": 0.0, "hi": 1.0,
                           "mid": 0.5}}},
        "error: forward.f: unknown keys ['mid']; known: ['hi', 'kind', "
        "'lo']\n"),
    "config-key": (
        {"tolerence": 1e-6},
        "error: config: unknown keys ['tolerence']; known: ['checks', "
        "'expected_violations', 'forward', 'horizon', 'model', 'out', 'phi', "
        "'schedule', 'seed', 'simulation', 'tolerance', "
        "'truncation_indices']\n"),
}
# the refusals whose line under simulate differs from the one under all:
# it names only the checks simulate runs
REFUSED_UNDER_SIMULATE = {
    "schedule": "error: schedule: required by checks ['slln', 'strassen']\n",
}


def _refused_config(tmp_path, case):
    """The demo config with ``case``'s overrides, and its stderr line."""
    overrides, err = REFUSED_AT_PARSE[case]
    doc = {**DEMO_DOC, **overrides}
    config = tmp_path / "config.json"
    config.write_text(json.dumps({k: v for k, v in doc.items()
                                  if v is not None}))
    return config, err


@pytest.mark.parametrize("case", sorted(REFUSED_AT_PARSE))
def test_refused_before_the_output_directory_exists(tmp_path, capsys, case):
    config, err = _refused_config(tmp_path, case)
    code, out, _ = run(tmp_path, "all", "--config", str(config))
    assert code == 2 and capsys.readouterr().err == err
    assert not out.exists()


@pytest.mark.parametrize("case, refused_by, runs", [
    ("horizon", ("check-deps",), ("verify", "simulate")),
    ("phi", ("simulate",), ("verify", "check-deps")),
    ("fixed-index", ("simulate",), ("verify", "check-deps")),
    ("memory", ("simulate",), ("verify", "check-deps")),
    ("seed", ("simulate",), ("verify", "check-deps")),
    ("schedule", ("simulate",), ("verify", "check-deps")),
    ("pair-model", ("simulate",), ("verify", "check-deps")),
    ("phi-key", ("verify", "check-deps", "simulate"), ()),
    ("truncation-index", ("all",), ("verify", "check-deps")),
    ("repeated-strategy", ("simulate",), ("verify", "check-deps")),
    ("schedule-p", ("verify", "check-deps", "simulate"), ()),
    ("strategy-seed", ("verify", "check-deps", "simulate"), ()),
    *((case, ("verify", "check-deps", "simulate"), ())
      for case in ("simulation-key", "schedule-key", "strategy-key",
                   "forward-key", "config-key", "forward-g-key",
                   "forward-f-key")),
])
def test_refusals_follow_the_subcommand(tmp_path, capsys, case, refused_by,
                                        runs):
    # a refusal concerns the checks a subcommand runs, not the others
    config, err = _refused_config(tmp_path, case)
    for subcommand in refused_by:
        code, out, _ = run(tmp_path / subcommand, subcommand,
                           "--config", str(config))
        if subcommand == "simulate":
            err = REFUSED_UNDER_SIMULATE.get(case, err)
        assert code == 2 and capsys.readouterr().err == err
        assert not out.exists()
    for subcommand in runs:
        code, _, report = run(tmp_path / subcommand, subcommand,
                              "--config", str(config))
        assert code == 0 and report["subcommand"] == subcommand


@pytest.mark.parametrize("schedule", [
    {"kind": "kolmogorov", "alpha": 1.0, "beta": 0.04},
    {"kind": "mz", "p": 1.25, "alpha": 1.0, "beta": 0.26},
    {"kind": "mz", "p": 1.85, "alpha": 1.0, "beta": 0.999},
])
def test_a_schedule_the_theorem_admits_is_simulated(tmp_path, capsys,
                                                    schedule):
    # A_n / n^{1/(beta+1)} -> inf for each; a slow growth is no refusal
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**DEMO_DOC, "schedule": schedule}))
    code, _, report = run(tmp_path, "simulate", "--config", str(config))
    assert code in (0, 1) and "error" not in capsys.readouterr().err
    assert report["config"]["schedule"] == schedule


def test_an_overflowing_inequality_trial_names_itself(tmp_path, capsys):
    # every model value is finite, but exp(800) of the CLI's own exp trial
    # is not: the one error line names the family, variable and trial
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "model": {"space": 2, "measures": [[0.5, 0.5], [0.25, 0.75]],
                  "variables": {"X": [0.0, 800.0]}},
        "checks": ["axioms", "chain", "inequalities"]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning on stderr
        code, _, _ = run(tmp_path, "verify", "--config", str(config))
    assert code == 2
    assert capsys.readouterr().err == (
        "error: inequalities: the exp trial on variable 'X' overflows\n")


@pytest.mark.parametrize("top, err", [
    # X^2 of the Hoelder record overflows, which no trial reads
    (1e200, "error: inequalities: the hoelder record on variable 'X' "
            "overflows\n"),
    # X + Y and 2 X of the axiom report overflow
    (1e308, "error: axioms: the sublinear axioms on variables 'X' and 'X' "
            "overflow\n"),
])
def test_an_overflowing_record_names_its_check(tmp_path, capsys, top, err):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "model": {"space": 2, "measures": [[0.5, 0.5], [0.25, 0.75]],
                  "variables": {"X": [0.0, top]}},
        "checks": ["axioms", "chain", "inequalities"]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning on stderr
        code, _, _ = run(tmp_path, "verify", "--config", str(config))
    assert code == 2 and capsys.readouterr().err == err


@pytest.mark.parametrize("subcommand, blocked", [
    ("verify", "report.json"), ("simulate", "trajectories.csv")])
def test_unwritable_report_file_exits_two(tmp_path, capsys, subcommand,
                                          blocked):
    # a directory where the bundle writes a file: a configuration error
    # naming the file, not a traceback
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    code = main([subcommand, "--config", DEMO, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (f"error: --out: cannot write {out / blocked}: "
                            f"Is a directory\n")


def test_memory_error_in_the_experiment_is_a_configuration_error(
        tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError
    monkeypatch.setattr(cli, "run_slln_experiment", exhausted)
    code, _, _ = run(tmp_path, "simulate", "--config", DEMO)
    assert code == 2
    assert capsys.readouterr().err == (
        "error: simulation: n_steps=1500, paths_per_strategy=2 and "
        "grid_points=48 need more memory than this machine has\n")


@pytest.mark.parametrize("subcommand", ["simulate", "all"])
def test_seed_flag_runs_a_seedless_config(tmp_path, capsys, subcommand):
    config, _ = _refused_config(tmp_path, "seed")
    code, _, report = run(tmp_path, subcommand, "--config", str(config),
                          "--seed", "5")
    assert code == 0 and capsys.readouterr().err == ""
    assert report["seed"] == 5 and "seed" not in report["config"]


def test_a_linear_polynomial_phi_is_the_affine_one(tmp_path):
    # the same line as a polynomial and as an affine phi: both run, with
    # the same strassen bound
    bounds = []
    for phi in ({"kind": "polynomial", "coeffs": [0, 1]},
                {"kind": "affine", "slope": 1.0, "intercept": 0.0}):
        config = tmp_path / f"{phi['kind']}.json"
        config.write_text(json.dumps({**DEMO_DOC, "phi": phi}))
        code, _, report = run(tmp_path / phi["kind"], "simulate",
                              "--config", str(config))
        rec = record(report, "strassen-bound")
        assert code == 0 and rec["pass"]
        bounds.append((rec["lhs"], rec["rhs"], rec["gap"]))
    assert bounds[0] == bounds[1]


def test_strassen_limit_covers_an_epsilon_above_one(tmp_path, capsys):
    # every tail max is below epsilon = 20, so phi's Lipschitz constant
    # must hold on (-inf, 20], not only on (-inf, 1]
    config = tmp_path / "wide.json"
    config.write_text(json.dumps({
        "model": {"space": 2, "measures": [[0.5, 0.5], [0.4, 0.6]],
                  "variables": {"X": [0, 100]}},
        "checks": ["slln", "strassen"], "seed": 1,
        "schedule": {"kind": "kolmogorov", "alpha": 1.0, "beta": 0.5},
        "phi": {"kind": "exp", "rate": 1.0},
        "simulation": {"n_steps": 1000, "paths_per_strategy": 10,
                       "n_start": 100, "epsilon": 20,
                       "negative_control": False}}))
    code, _, report = run(tmp_path, "simulate", "--config", str(config))
    assert code == 0 and capsys.readouterr().err == ""
    rec = record(report, "strassen-bound")
    assert rec["pass"] and rec["lhs"] > 1.0 + math.e * 20
    assert rec["rhs"] == pytest.approx(1.0 + math.exp(20.0) * 20)
    assert max(p["tail_max_upper"] for p in report["experiment"]["paths"]) < 20


def test_long_vertical_horizon_is_refused_before_any_work(tmp_path):
    config = tmp_path / "long.json"
    config.write_text(json.dumps({
        "model": json.loads(Path(DEMO).read_text())["model"],
        "checks": ["vertical"], "horizon": 100_000}))
    err = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(["all", "--config", str(config),
                         "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert err.getvalue() == \
        "error: 100000 coordinates exceed the enumeration cap 6\n"
    assert peak < 1 << 20


def _records_of_all(text, base_dir=None):
    """Every record the runners of ``all`` build for one config text."""
    config = parse_config(text, base_dir, "all")
    run = cli._Run(config)
    return [r for check in config.selected for r in cli.RUNNERS[check](run)]


@st.composite
def exact_configs(draw):
    """A config of every exact check on a scratch model of either joint."""
    joint = draw(st.sampled_from(["rectangular", "comonotone-pair"]))
    return {"model": _scratch_model(draw, joint),
            "checks": ["axioms", "chain", "inequalities", "na", "vertical",
                       "forward"],
            "horizon": draw(st.integers(2, 4)) if joint == "rectangular" else 2}


def test_shipped_records_pass_as_builtin_bools():
    for path in (PAIR, DEMO):
        records = _records_of_all(Path(path).read_text(), Path(path).parent)
        assert records
        assert [r.check for r in records if type(r.passed) is not bool] == []


@seed(20261021)
@settings(max_examples=60, deadline=None, database=None)
@given(exact_configs())
def test_generated_records_pass_as_builtin_bools(config):
    records = _records_of_all(json.dumps(config))
    assert [r.check for r in records if type(r.passed) is not bool] == []


def test_import_builds_no_parser():
    probe = ("import sys; sys.path[:0] = sys.argv[1:]; import nlprob.cli; "
             "print(nlprob.cli._build_parser.cache_info().misses)")
    src = str(Path(cli.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", probe, src],
                          capture_output=True, text=True, check=True)
    assert done.stdout == "0\n"


def test_main_builds_the_parser_once(tmp_path):
    config = tmp_path / "small.json"
    config.write_text(json.dumps(SMALL))
    cli._build_parser.cache_clear()
    for k in range(2):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["verify", "--config", str(config),
                         "--out", str(tmp_path / f"out{k}")]) == 0
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
