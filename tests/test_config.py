"""Experiment configuration parsing and validation."""

import json
import math
import re

import pytest

from nlprob import (
    Exp,
    SimulationSettings,
    config as config_module,
    parse_config,
    parse_document,
    sequence_model_from_document,
)
from nlprob.config import (
    DEFAULT_EPSILON,
    DEFAULT_TOLERANCE,
    FAMILIES,
    from_descriptor,
    simulation_bytes,
)
from nlprob.errors import (
    ConfigParseError,
    ConfigValidationError,
    OracleTooLargeError,
)

MODEL_DOC = {
    "space": 2,
    "measures": [[0.5, 0.5], [0.8, 0.2]],
    "variables": {"X": [0.0, 1.0]},
}


def config_text(**overrides):
    doc = {"model": MODEL_DOC, "checks": ["chain"], **overrides}
    return json.dumps(doc)


# the subcommands that run no simulation still read and refuse every section
NOT_SIMULATING = ("verify", "check-deps")


class TestMinimalConfig:
    def test_defaults(self):
        config = parse_config(config_text())
        assert config.selected == ("chain",)
        assert config.tolerance == DEFAULT_TOLERANCE
        assert config.seed is None
        assert config.schedule is None
        assert config.simulation.epsilon == DEFAULT_EPSILON
        assert config.simulation.n_steps == 100_000
        assert config.truncation_indices == (1, 2, 3, 5, 8)
        assert config.horizon == 4  # rectangular default
        assert isinstance(config.phi, Exp)
        assert not {"slln", "strassen"} & set(config.selected)
        assert config.expected_violations == frozenset()

    def test_pair_model_shrinks_default_horizon(self):
        doc = {**MODEL_DOC, "joint": "comonotone-pair",
               "variables": {"Y": [0.0, -1.0], "X": [0.0, 1.0]}}
        config = parse_config(config_text(model=doc))
        assert config.horizon == 2

    def test_raw_echo_inlines_model_and_drops_out(self, tmp_path):
        model_file = tmp_path / "model.json"
        model_file.write_text(json.dumps(MODEL_DOC))
        config = parse_config(config_text(model="model.json", out="results"),
                              base_dir=tmp_path)
        assert config.raw["model"] == MODEL_DOC
        assert "out" not in config.raw
        assert config.out == "results"


class TestModelField:
    def test_required(self):
        with pytest.raises(ConfigValidationError, match="model"):
            parse_config(json.dumps({"checks": ["chain"]}))

    def test_file_resolution(self, tmp_path):
        (tmp_path / "m.json").write_text(json.dumps(MODEL_DOC))
        config = parse_config(config_text(model="m.json"), base_dir=tmp_path)
        assert config.model.credal.size == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigValidationError, match="file not found"):
            parse_config(config_text(model="nope.json"), base_dir=tmp_path)

    def test_broken_model_file(self, tmp_path):
        (tmp_path / "m.json").write_text("{broken")
        with pytest.raises(ConfigParseError, match="line 1"):
            parse_config(config_text(model="m.json"), base_dir=tmp_path)

    def test_invalid_model_document(self):
        with pytest.raises(ConfigValidationError, match="model"):
            parse_config(config_text(model={"space": 2, "measures": [[0.5, 0.5]]}))


class TestChecksField:
    def test_required_and_nonempty(self):
        with pytest.raises(ConfigValidationError, match="checks"):
            parse_config(json.dumps({"model": MODEL_DOC}))
        with pytest.raises(ConfigValidationError, match="checks"):
            parse_config(config_text(checks=[]))

    def test_unknown_name_is_positioned(self):
        with pytest.raises(ConfigValidationError, match=r"checks\[0\]"):
            parse_config(config_text(checks=["bogus"]))
        with pytest.raises(ConfigValidationError, match=r"checks\[1\]"):
            parse_config(config_text(checks=["chain", "bogus"]))

    def test_deduped_in_order(self):
        config = parse_config(config_text(checks=["na", "chain", "na"]))
        assert config.selected == ("na", "chain")

    @pytest.mark.parametrize("subcommand", sorted(FAMILIES))
    def test_selected_follows_the_family_in_config_order(self, subcommand):
        checks = ["strassen", "forward", "chain", "na", "axioms", "slln"]
        config = parse_config(config_text(
            checks=checks, seed=1,
            schedule={"kind": "kolmogorov", "alpha": 1.0, "beta": 0.5}),
            subcommand=subcommand)
        assert config.subcommand == subcommand
        assert config.selected == tuple(c for c in checks
                                        if c in FAMILIES[subcommand])

    def test_variable_names_keep_the_document_order(self):
        doc = {**MODEL_DOC, "variables": {"Z": [0.0, 1.0], "A": [1.0, 0.0]}}
        assert parse_config(config_text(model=doc)).variable_names == \
            ("Z", "A")

    def test_families_cover_all_names(self):
        assert FAMILIES["verify"] == ("axioms", "chain", "inequalities")
        assert FAMILIES["check-deps"] == ("na", "vertical", "forward")
        assert FAMILIES["simulate"] == ("slln", "strassen")
        assert set(FAMILIES["all"]) == (
            set(FAMILIES["verify"]) | set(FAMILIES["check-deps"])
            | set(FAMILIES["simulate"]) | {"truncation"})


class TestScalarFields:
    def test_tolerance_must_be_positive(self):
        with pytest.raises(ConfigValidationError, match="tolerance"):
            parse_config(config_text(tolerance=0.0))

    def test_seed_must_be_nonnegative(self):
        with pytest.raises(ConfigValidationError, match="seed"):
            parse_config(config_text(seed=-1))

    def test_horizon_must_be_positive(self):
        with pytest.raises(ConfigValidationError, match="horizon"):
            parse_config(config_text(horizon=0))

    def test_truncation_indices_validated(self):
        with pytest.raises(ConfigValidationError, match="truncation_indices"):
            parse_config(config_text(truncation_indices=[0]))
        with pytest.raises(ConfigValidationError, match="truncation_indices"):
            parse_config(config_text(truncation_indices=[]))

    def test_out_must_be_string(self):
        with pytest.raises(ConfigValidationError, match="out"):
            parse_config(config_text(out=7))

    def test_expected_violations_names_checked(self):
        with pytest.raises(ConfigValidationError, match="expected_violations"):
            parse_config(config_text(expected_violations=["bogus"]))
        config = parse_config(config_text(expected_violations=["forward"]))
        assert config.expected_violations == frozenset({"forward"})


def nested(field, value):
    """Config overrides that put ``value`` at the dotted ``field``."""
    head, _, key = field.partition(".")
    return {head: {key: value}} if key else {head: value}


class TestOverrides:
    def test_overrides_beat_the_config(self):
        config = parse_config(config_text(seed=1, tolerance=1e-6), seed=7,
                              tolerance=1e-3)
        assert (config.seed, config.tolerance) == (7, 1e-3)
        # the echo keeps what the config said
        assert (config.raw["seed"], config.raw["tolerance"]) == (1, 1e-6)

    @pytest.mark.parametrize("flags, named", [
        ({"seed": 1.5}, "--seed"),
        ({"tolerance": float("nan")}, "--tolerance"),
        ({"seed": -1, "tolerance": 0.0}, "--seed"),  # the flags in order
    ])
    def test_a_bad_override_is_refused_before_the_config(self, flags, named):
        with pytest.raises(ConfigValidationError) as info:
            parse_config("not json", **flags)
        assert str(info.value).startswith(f"{named}: ")

    def test_a_bad_config_value_is_refused_under_an_override(self):
        with pytest.raises(ConfigValidationError, match="^tolerance: "):
            parse_config(config_text(tolerance=-1.0), tolerance=1e-3)


class TestScalarReader:
    # one hostile value per scalar field: each names its field, exit code 2
    @pytest.mark.parametrize("field, value", [
        ("tolerance", "x"),
        ("tolerance", float("nan")),
        ("seed", 1.5),
        ("seed", True),
        ("horizon", "4"),
        ("horizon", 2.5),
        ("forward.expected", float("inf")),
        ("simulation.n_steps", "many"),
        ("simulation.paths_per_strategy", False),
        ("simulation.n_start", 500.5),
        ("simulation.epsilon", float("nan")),
        ("simulation.max_exceedance_fraction", 1.5),
        ("simulation.min_control_fraction", "high"),
        ("simulation.grid_points", 0),
        ("schedule.beta", None),
    ])
    def test_rejected_and_named(self, field, value):
        overrides = nested(field, value)
        if field.startswith("schedule."):
            overrides["schedule"]["kind"] = "kolmogorov"
        with pytest.raises(ConfigValidationError, match=re.escape(field)):
            parse_config(config_text(**overrides))

    def test_truncation_index_bool_rejected(self):
        with pytest.raises(ConfigValidationError,
                           match=r"truncation_indices\[0\]"):
            parse_config(config_text(truncation_indices=[True]))

    def test_integral_floats_read_as_ints(self):
        config = parse_config(config_text(seed=7.0, horizon=3.0))
        assert config.seed == 7 and isinstance(config.seed, int)
        assert config.horizon == 3 and isinstance(config.horizon, int)

    def test_simulation_needs_a_rectangular_model(self):
        pair = {**MODEL_DOC, "joint": "comonotone-pair",
                "variables": {"Y": [0.0, -1.0], "X": [0.0, 1.0]}}
        schedule = {"kind": "kolmogorov", "alpha": 1.0, "beta": 0.5}
        with pytest.raises(ConfigValidationError, match="^checks: "):
            parse_config(config_text(model=pair, checks=["slln"], seed=1,
                                     schedule=schedule))


class TestScheduleRequirements:
    def test_simulation_checks_need_schedule(self):
        for check in ("truncation", "slln", "strassen"):
            with pytest.raises(ConfigValidationError, match="schedule"):
                parse_config(config_text(checks=[check], seed=1))

    def test_simulation_checks_need_seed(self):
        schedule = {"kind": "kolmogorov", "alpha": 1.0, "beta": 0.5}
        with pytest.raises(ConfigValidationError, match="seed"):
            parse_config(config_text(checks=["slln"], schedule=schedule))

    def test_truncation_runs_without_seed(self):
        # truncation is deterministic: schedule yes, seed no
        schedule = {"kind": "kolmogorov", "alpha": 1.0, "beta": 0.5}
        config = parse_config(config_text(checks=["truncation"],
                                          schedule=schedule))
        assert config.schedule.kind == "kolmogorov"

    def test_truncation_indices_past_the_pair_refused(self):
        # the pair has coordinates 1 and 2; the default indices reach 8
        schedule = {"kind": "kolmogorov", "alpha": 1.0, "beta": 0.5}
        pair = {**MODEL_DOC, "joint": "comonotone-pair",
                "variables": {"Y": [0.0, -1.0], "X": [0.0, 1.0]}}
        with pytest.raises(ConfigValidationError,
                           match=r"^truncation_indices\[2\]: must be <= 2, "
                                 r"got 3$"):
            parse_config(config_text(model=pair, checks=["truncation"],
                                     schedule=schedule))
        config = parse_config(config_text(model=pair, checks=["truncation"],
                                          schedule=schedule,
                                          truncation_indices=[2, 1]))
        assert config.truncation_indices == (2, 1)
        # unselected, the indices are not read against the model
        config = parse_config(config_text(model=pair, schedule=schedule))
        assert config.truncation_indices == (1, 2, 3, 5, 8)
        # a rectangular model has every coordinate
        config = parse_config(config_text(checks=["truncation"],
                                          schedule=schedule,
                                          truncation_indices=[40]))
        assert config.truncation_indices == (40,)

    def test_bad_beta_is_reported_on_the_schedule_field(self):
        schedule = {"kind": "kolmogorov", "alpha": 1.0, "beta": 1.7}
        for subcommand in ("all", *NOT_SIMULATING):
            with pytest.raises(ConfigValidationError,
                               match=r"^schedule: beta=1.7 outside \(0, 1.0\) "
                                     "for kolmogorov$"):
                parse_config(config_text(checks=["slln"], seed=1,
                                         schedule=schedule),
                             subcommand=subcommand)

    @pytest.mark.parametrize("n_steps", [1000, 10_000_000])
    @pytest.mark.parametrize("kind, p, beta", [
        *(("kolmogorov", None, beta) for beta in (0.01, 0.04, 0.0509)),
        *(("mz", 1.25, beta)
          for beta in (math.nextafter(0.25, 1.0), 0.26, 0.3306)),
        *(("mz", p, 0.999) for p in (1.85, 1.9, 1.99)),
    ])
    def test_every_schedule_the_theorem_admits_is_read(self, n_steps, kind,
                                                       p, beta):
        # make_schedule's ranges are the theorem's A_n / n^{1/(beta+1)} ->
        # inf for these kinds, at every horizon: no growth probe second-
        # guesses them
        schedule = {"kind": kind, "alpha": 1.0, "beta": beta, "p": p}
        config = parse_config(
            config_text(checks=["slln", "strassen"], seed=1,
                        schedule=schedule,
                        simulation={"n_steps": n_steps}),
            subcommand="simulate")
        assert (config.schedule.beta, config.simulation.n_steps) == (beta,
                                                                     n_steps)

    def test_mz_parameters_flow_through(self):
        schedule = {"kind": "mz", "alpha": 1.0, "beta": 0.5, "p": 1.25}
        config = parse_config(config_text(checks=["slln"], seed=1,
                                          schedule=schedule))
        assert config.schedule.p == 1.25


class TestSimulationSettings:
    def test_an_empty_object_takes_the_dataclass_defaults(self):
        parsed = parse_config(config_text(simulation={})).simulation
        assert parsed == SimulationSettings()
        assert parse_config(config_text()).simulation == SimulationSettings()

    def test_bounds(self):
        with pytest.raises(ConfigValidationError, match="n_steps"):
            parse_config(config_text(simulation={"n_steps": 10}))
        with pytest.raises(ConfigValidationError, match="paths_per_strategy"):
            parse_config(config_text(simulation={"paths_per_strategy": 0}))
        with pytest.raises(ConfigValidationError, match="n_start"):
            parse_config(config_text(simulation={"n_steps": 1000,
                                                 "n_start": 1000}))
        with pytest.raises(ConfigValidationError, match="epsilon"):
            parse_config(config_text(simulation={"epsilon": -0.1}))

    def test_must_be_an_object(self):
        with pytest.raises(ConfigValidationError,
                           match="^simulation: must be an object$"):
            parse_config(config_text(simulation=5))

    def test_strategies_must_be_a_nonempty_list(self):
        with pytest.raises(ConfigValidationError,
                           match="^simulation.strategies: must be a nonempty "
                                 "list$"):
            parse_config(config_text(simulation={"strategies": []}))

    def test_strategy_parsing(self):
        sim = {"strategies": ["cyclic", {"kind": "fixed", "index": 1},
                              {"kind": "iid-random", "seed": 4}]}
        config = parse_config(config_text(simulation=sim))
        labels = [s.label for s in config.simulation.strategies]
        assert labels == ["cyclic", "fixed(1)", "iid-random(4)"]

    def test_strategy_errors_are_positioned(self):
        for subcommand in ("all", *NOT_SIMULATING):
            with pytest.raises(ConfigValidationError,
                               match=r"^simulation.strategies\[0\]: unknown "
                                     "strategy kind 'greedy'$"):
                parse_config(config_text(simulation={"strategies": ["greedy"]}),
                             subcommand=subcommand)
        with pytest.raises(ConfigValidationError,
                           match=r"simulation.strategies\[1\]"):
            parse_config(config_text(
                simulation={"strategies": ["cyclic", {"kind": "fixed"}]}))

    def test_strategies_the_run_would_refuse_are_refused(self):
        # only fixed takes a measure index, and one the model has
        for kind in ("cyclic", "iid-random", "drift-max"):
            with pytest.raises(ConfigValidationError,
                               match=rf"^simulation.strategies\[0\]: {kind} "
                                     "strategy takes no measure index$"):
                parse_config(config_text(simulation={"strategies": [
                    {"kind": kind, "index": 1}]}))
        doc = {"checks": ["chain", "slln"], "seed": 1,
               "schedule": {"kind": "kolmogorov"},
               "simulation": {"strategies": [{"kind": "fixed", "index": 2}]}}
        with pytest.raises(ConfigValidationError,
                           match=r"^simulation.strategies\[0\]: fixed\(2\) "
                                 "with only 2 measures$"):
            parse_config(config_text(**doc), subcommand="simulate")
        # a subcommand that simulates nothing takes it
        assert parse_config(config_text(**doc), subcommand="verify") \
            .simulation.strategies[0].index == 2

    def test_only_iid_random_takes_a_seed(self):
        # the other kinds never draw from a seeded stream, fixed included
        for entry in ({"kind": "fixed", "index": 0, "seed": 0},
                      {"kind": "cyclic", "seed": 2},
                      {"kind": "drift-max", "seed": 2}):
            for subcommand in ("all", *NOT_SIMULATING):
                with pytest.raises(ConfigValidationError,
                                   match=r"^simulation.strategies\[0\]: seed: "
                                         "only iid-random takes a seed$"):
                    parse_config(config_text(
                        simulation={"strategies": [entry]}),
                        subcommand=subcommand)

    def test_default_strategies_are_the_bundle(self):
        config = parse_config(config_text())
        labels = [s.label for s in config.simulation.strategies]
        assert labels == ["fixed(0)", "cyclic", "iid-random(0)", "drift-max"]


class TestFunctionFields:
    def test_forward_defaults_are_unit_ramps(self):
        for text in (config_text(), config_text(forward=None)):
            config = parse_config(text)
            assert config.forward_f.threshold == 0.0
            assert config.forward_g.threshold == -1.0
            assert config.forward_expected is None

    def test_forward_overrides(self):
        forward = {"g": {"kind": "ramp", "threshold": -2.0, "width": 0.5},
                   "f": {"kind": "constant"},
                   "expected": -0.21}
        config = parse_config(config_text(forward=forward))
        assert config.forward_g.width == 0.5
        assert config.forward_f.kind == "constant"
        assert config.forward_expected == -0.21

    def test_forward_function_errors_carry_field_names(self):
        with pytest.raises(ConfigValidationError, match="forward.g"):
            parse_config(config_text(forward={"g": {"kind": "warp"}}))

    @pytest.mark.parametrize("forward", [[], 0, False, "", [1], 5])
    def test_forward_must_be_an_object(self, forward):
        for subcommand in ("all", *NOT_SIMULATING):
            with pytest.raises(ConfigValidationError,
                               match="^forward: must be an object$"):
                parse_config(config_text(forward=forward),
                             subcommand=subcommand)

    def test_forward_ramp_direction_is_checked(self):
        for subcommand in ("all", *NOT_SIMULATING):
            with pytest.raises(ConfigValidationError,
                               match="^forward.g: unknown direction "
                                     "'sideways'$"):
                parse_config(config_text(forward={"g": {
                    "kind": "ramp", "direction": "sideways"}}),
                    subcommand=subcommand)

    def test_phi_descriptor(self):
        config = parse_config(config_text(phi={"kind": "affine", "slope": 1.0}))
        assert config.phi.slope == 1.0

    def test_strassen_rejects_unbounded_phi(self):
        schedule = {"kind": "kolmogorov", "alpha": 1.0, "beta": 0.5}
        with pytest.raises(ConfigValidationError, match="phi"):
            parse_config(config_text(checks=["strassen"], seed=1,
                                     schedule=schedule,
                                     phi={"kind": "abs-power", "power": 2.0}))

    def test_phi_must_be_scalar_function(self):
        for subcommand in ("all", *NOT_SIMULATING):
            with pytest.raises(ConfigValidationError,
                               match="^phi: must be a scalar-function "
                                     "descriptor$"):
                parse_config(config_text(phi={"kind": "ramp"}),
                             subcommand=subcommand)
            with pytest.raises(ConfigValidationError,
                               match="^phi: unknown function kind 'warp'"):
                parse_config(config_text(phi={"kind": "warp"}),
                             subcommand=subcommand)


class TestRefusedAtParse:
    """Configs whose selected checks cannot give a finite answer are refused
    while parsing, before any check runs."""

    SCHEDULE = {"kind": "kolmogorov", "alpha": 1.0, "beta": 0.5}

    @pytest.mark.parametrize("phi", [
        {"kind": "polynomial", "coeffs": [0, 0, -1]},
        {"kind": "polynomial", "coeffs": [1, 0, -1]},
        {"kind": "exp", "rate": 709},
    ])
    def test_strassen_refuses_a_phi_with_no_finite_limit(self, phi):
        text = config_text(checks=["strassen"], seed=1,
                           schedule=self.SCHEDULE, phi=phi)
        for subcommand in ("simulate", "all"):
            with pytest.raises(ConfigValidationError,
                               match=r"^phi: strassen limit .* is not finite$"):
                parse_config(text, subcommand=subcommand)
        # only strassen reads the limit, and only the subcommands that run it
        assert parse_config(config_text(phi=phi)).phi.descriptor["kind"] \
            == phi["kind"]
        for subcommand in ("verify", "check-deps"):
            assert parse_config(text, subcommand=subcommand).phi.descriptor \
                == from_descriptor(phi).descriptor

    def test_strassen_limit_reads_the_lipschitz_constant_up_to_epsilon(self):
        # the tails reach epsilon, so exp's constant is taken on
        # (-inf, max(1, epsilon)]: e^800 overflows
        def text(epsilon):
            return config_text(checks=["strassen"], seed=1,
                               schedule=self.SCHEDULE,
                               phi={"kind": "exp", "rate": 1.0},
                               simulation={"n_steps": 1000,
                                           "epsilon": epsilon})

        with pytest.raises(ConfigValidationError,
                           match=r"^phi: strassen limit sup \+ lipschitz \* "
                                 r"epsilon = 1\.0 \+ inf \* 800\.0 is not "
                                 r"finite$"):
            parse_config(text(800), subcommand="simulate")
        config = parse_config(text(700), subcommand="simulate")
        assert config.simulation.epsilon == 700.0

    @pytest.mark.parametrize("coeffs", [[0, 1], [2, 0.5], [3]])
    def test_strassen_takes_a_polynomial_of_degree_one(self, coeffs):
        phi = {"kind": "polynomial", "coeffs": coeffs}
        config = parse_config(config_text(checks=["strassen"], seed=1,
                                          schedule=self.SCHEDULE, phi=phi))
        assert config.phi.lipschitz_on_ray(1.0) == abs((coeffs + [0])[1])

    @pytest.mark.parametrize("value", ["false", 1, None])
    def test_negative_control_is_a_json_boolean(self, value):
        with pytest.raises(ConfigValidationError,
                           match=r"^simulation\.negative_control: must be "
                                 r"true or false, got "):
            parse_config(config_text(simulation={"negative_control": value}))

    @pytest.mark.parametrize("checks", [["na"], ["vertical"],
                                        ["chain", "na", "vertical"]])
    def test_dependence_horizon_past_the_cap(self, checks):
        text = config_text(checks=checks, horizon=7)
        for subcommand in ("check-deps", "all"):
            with pytest.raises(OracleTooLargeError,
                               match="^7 coordinates exceed the enumeration "
                                     "cap 6$"):
                parse_config(text, subcommand=subcommand)
        # verify and simulate run no dependence check
        for subcommand in ("verify", "simulate"):
            assert parse_config(text, subcommand=subcommand).horizon == 7

    def test_dependence_horizon_is_resolved(self):
        for given, used in ((1, 2), (2, 2), (5, 5), (6, 6)):
            config = parse_config(config_text(checks=["na", "vertical"],
                                              horizon=given))
            assert config.horizon == used
        assert parse_config(config_text(horizon=7)).horizon == 7
        pair = {**MODEL_DOC, "joint": "comonotone-pair",
                "variables": {"Y": [0.0, -1.0], "X": [0.0, 1.0]}}
        assert parse_config(config_text(model=pair, checks=["na"],
                                        horizon=9)).horizon == 2


class TestTextErrors:
    def test_broken_json_carries_position(self):
        with pytest.raises(ConfigParseError, match="line 1, column 2"):
            parse_config("{broken}")

    def test_top_level_must_be_object(self):
        with pytest.raises(ConfigValidationError, match="top level"):
            parse_config("[1, 2]")


class TestSimulationMemoryBound:
    SCHEDULE = {"kind": "kolmogorov", "alpha": 1.0, "beta": 0.5}

    def text(self, checks=("slln",), **simulation):
        return config_text(checks=list(checks), seed=1, schedule=self.SCHEDULE,
                           simulation=simulation)

    def estimate(self, strategies, **simulation):
        return simulation_bytes(parse_config(self.text(
            n_steps=10_000, paths_per_strategy=3, grid_points=50,
            strategies=strategies, **simulation)).simulation)

    def test_estimate_counts_grid_summaries_and_control(self):
        # the control reads the experiment's drift-max paths: it adds
        # their summaries, not their grid samples
        strategies = ["cyclic", "drift-max"]
        per_path = 16 * 50 + config_module._SUMMARY_BYTES
        no_control = self.estimate(strategies, negative_control=False)
        assert no_control == 3 * 2 * per_path
        assert self.estimate(strategies) - no_control \
            == 3 * config_module._SUMMARY_BYTES

    def test_control_of_its_own_paths_counts_their_grid_samples(self):
        strategies = ["cyclic", {"kind": "fixed", "index": 0}]
        per_path = 16 * 50 + config_module._SUMMARY_BYTES
        no_control = self.estimate(strategies, negative_control=False)
        assert no_control == 3 * 2 * per_path
        assert self.estimate(strategies) - no_control == 3 * per_path

    def test_refused_above_the_machine_memory(self, monkeypatch):
        text = self.text(n_steps=20_000, paths_per_strategy=4)
        need = simulation_bytes(parse_config(text).simulation)
        monkeypatch.setattr(config_module, "physical_memory", lambda: need)
        assert parse_config(text).simulation.n_steps == 20_000
        monkeypatch.setattr(config_module, "physical_memory",
                            lambda: need - 1)
        with pytest.raises(ConfigValidationError) as exc:
            parse_config(text)
        assert str(exc.value) == (
            "simulation: n_steps=20000, paths_per_strategy=4 and "
            "grid_points=160 need more memory than this machine has")

    @pytest.mark.parametrize("simulation", [
        {"n_steps": 10**10, "paths_per_strategy": 10**8},
        {"n_steps": 1000, "paths_per_strategy": 10**9},
        {"n_steps": 10**9, "grid_points": 10**9},
    ])
    def test_huge_simulations_are_refused(self, monkeypatch, simulation):
        monkeypatch.setattr(config_module, "physical_memory", lambda: 2**36)
        with pytest.raises(ConfigValidationError,
                           match=r"^simulation: n_steps=\d+, "
                                 r"paths_per_strategy=\d+ .* more memory"):
            parse_config(self.text(**simulation))
        with pytest.raises(ConfigValidationError, match="more memory"):
            parse_config(self.text(checks=["strassen"], **simulation))

    def test_long_horizon_costs_no_memory(self, monkeypatch):
        # the weights are evaluated block by block, so 1e10 steps of two
        # paths a strategy keep no more than 1e3 steps do
        monkeypatch.setattr(config_module, "physical_memory", lambda: 2**20)
        config = parse_config(self.text(n_steps=10**10, paths_per_strategy=2))
        assert config.simulation.n_steps == 10**10
        assert simulation_bytes(config.simulation) == simulation_bytes(
            parse_config(self.text(n_steps=1000,
                                   paths_per_strategy=2)).simulation)

    def test_unsimulated_config_is_not_bounded(self, monkeypatch):
        monkeypatch.setattr(config_module, "physical_memory", lambda: 0)
        config = parse_config(self.text(checks=["chain"], n_steps=10**10))
        assert config.simulation.n_steps == 10**10

    def test_probe_reads_the_machine(self):
        assert config_module.physical_memory() > 2**20


# the model-document reader: the parsed objects and validation messages

@pytest.fixture
def doc():
    return {
        "space": 2,
        "measures": [[0.5, 0.5], [0.8, 0.2]],
        "variables": {"X": [0.0, 1.0], "Y": [3.0, -1.0]},
    }


def holds(doc, credal, variables):
    """Whether the parsed objects carry exactly the document's numbers."""
    return (credal.size == doc["space"]
            and credal.weights.tolist() == doc["measures"]
            and {name: var.values.tolist() for name, var in variables.items()}
            == doc["variables"])


class TestParseDocument:
    def test_round_trip_is_identity(self, doc):
        credal, variables = parse_document(doc)
        assert credal.size == doc["space"]
        assert holds(doc, credal, variables)

    def test_field_order_is_irrelevant(self, doc):
        shuffled = {"variables": doc["variables"], "space": doc["space"],
                    "measures": doc["measures"]}
        credal, variables = parse_document(shuffled)
        assert holds(doc, credal, variables)

    def test_variable_order_follows_listing_order(self, doc):
        _, variables = parse_document(doc)
        assert list(variables) == ["X", "Y"]
        assert variables["Y"].values.tolist() == [3.0, -1.0]

    def test_missing_fields(self):
        with pytest.raises(ConfigValidationError, match="'space'"):
            parse_document({"measures": [[1.0]]})
        with pytest.raises(ConfigValidationError, match="'measures'"):
            parse_document({"space": 1})
        with pytest.raises(ConfigValidationError, match="JSON object"):
            parse_document([1, 2])

    def test_space_must_be_positive_integer(self, doc):
        with pytest.raises(ConfigValidationError, match="'space'"):
            parse_document({**doc, "space": 0})
        with pytest.raises(ConfigValidationError, match="'space'"):
            parse_document({**doc, "space": 2.0})
        for flag in (True, False):  # a bool is no count, as for read_number
            with pytest.raises(ConfigValidationError, match="'space'"):
                parse_document({"space": flag, "measures": [[1.0]],
                                "variables": {"X": [0.0]}})

    def test_measure_rows_must_match_space(self, doc):
        with pytest.raises(ConfigValidationError, match=r"measures\[1\]"):
            parse_document({**doc, "measures": [[0.5, 0.5], [1.0]]})
        with pytest.raises(ConfigValidationError, match="'measures'"):
            parse_document({**doc, "measures": []})

    def test_variable_length_must_match_space(self, doc):
        bad = {**doc, "variables": {"X": [0.0]}}
        with pytest.raises(ConfigValidationError, match="variables\\['X'\\]"):
            parse_document(bad)

    def test_variables_are_optional(self, doc):
        slim = {"space": doc["space"], "measures": doc["measures"]}
        _, variables = parse_document(slim)
        assert variables == {}


class TestSequenceModelDocuments:
    def test_round_trip(self, doc):
        model = sequence_model_from_document({**doc, "joint": "rectangular"})
        assert model.joint == "rectangular"
        assert holds(doc, model.credal, dict(zip(doc["variables"], model.variables)))

    def test_joint_defaults_to_rectangular(self, doc):
        assert sequence_model_from_document(doc).joint == "rectangular"

    def test_unknown_joint_rejected(self, doc):
        with pytest.raises(ConfigValidationError, match="joint"):
            sequence_model_from_document({**doc, "joint": "copula"})

    def test_needs_a_variable(self, doc):
        slim = {"space": doc["space"], "measures": doc["measures"]}
        with pytest.raises(ConfigValidationError, match="variable"):
            sequence_model_from_document(slim)

