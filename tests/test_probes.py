"""The benchmark's probes still fit the program.

``perfbench/spans.py`` wraps program functions by module and attribute name
and counts work from their results, so a rename, a removal or a new result
shape would break ``perfbench/run.py --trace 1`` without failing a run. The
file is not a package module; it is loaded here by path and only read.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from nlprob import cli, dependence
from nlprob.dependence import TestFunction

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


def _targets():
    return [getattr(importlib.import_module(p.module), p.attr, None)
            for p in spans.PROBES]


def test_every_probe_target_is_callable():
    for probe, target in zip(spans.PROBES, _targets()):
        assert callable(target), f"{probe.module}.{probe.attr}"


def test_install_then_remove_restores_the_originals(make_rectangular):
    before = _targets()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert all(w is not f for w, f in zip(_targets(), before))
        # called under the name the CLI looks up, as in a traced run
        nlprob_cli = importlib.import_module("nlprob.cli")
        nlprob_cli.check_vertical_independence(
            make_rectangular(n_vars=2), 3, [TestFunction("ramp")] * 3)
    finally:
        tracer.remove()
    assert all(r is f for r, f in zip(_targets(), before))
    calls = spans.layer_totals(tracer.spans)
    assert calls["models.product_expectation_table"]["calls"] == 3
    assert tracer.counts["models.cells"] == 3 * 2


def test_cell_counter_reads_product_tables(make_rectangular, pair_model):
    rect = make_rectangular(n_vars=2)
    for model, n, cells in ((rect, 4, 2), (pair_model, 2, len(pair_model.credal))):
        rows = np.ones((n, model.credal.size))
        table = dependence.product_expectation_table(model, rows)
        assert spans._count_cells((model, rows), {}, table) == {
            "models.cells": cells}


def test_traced_shipped_configs_reach_every_probe(tmp_path, capsys):
    # a probe wraps the name its caller looks up; a caller that imports the
    # function under its own name instead runs unseen and reads 0 calls
    calls = {}
    for config in ("pair-counterexample", "rectangular-demo"):
        tracer = spans.Tracer()
        tracer.install()
        try:
            code = cli.main(["all", "--config", str(ROOT / "configs" / f"{config}.json"),
                             "--out", str(tmp_path / config)])
        finally:
            tracer.remove()
        assert code == 0
        calls[config] = {layer: totals["calls"] for layer, totals
                         in spans.layer_totals(tracer.spans).items()}
    capsys.readouterr()
    pair = calls["pair-counterexample"]
    assert pair["dependence.forward"] == 1
    assert pair["models.joint_expectation_table"] == 1
    # the reference path sampler is the tests' oracle; the CLI never calls it
    for layer in set(spans.LAYERS) - {"simulate.sample_path"}:
        assert any(c.get(layer, 0) > 0 for c in calls.values()), layer
