"""Command-line entry point: exit codes, artifacts, determinism."""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from nlprob.cli import main

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

    def test_byte_identical_across_jobs(self, tmp_path):
        _, out1, _ = run(tmp_path / "a", "simulate", "--config", DEMO,
                         "--jobs", "1")
        _, out2, _ = run(tmp_path / "b", "simulate", "--config", DEMO,
                         "--jobs", "4")
        assert (out1 / "report.json").read_bytes() == \
            (out2 / "report.json").read_bytes()
        assert (out1 / "trajectories.csv").read_bytes() == \
            (out2 / "trajectories.csv").read_bytes()

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

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


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
                            "must be finite"),
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
