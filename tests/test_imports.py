"""What an import loads: the package and the CLI load the check engines
(``capacity``, ``dependence``, ``expectation``, ``simulate``, ``slln``)
only when a name of theirs is read or a run needs them.

The pytest process has imported every module already, so the boundary is
checked in fresh interpreters.
"""

from __future__ import annotations

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import nlprob

SRC = str(Path(nlprob.__file__).resolve().parent.parent)
ENGINES = ("capacity", "dependence", "expectation", "simulate", "slln")

# each child puts the package's source first on its path and prints, last,
# one JSON object that holds the nlprob modules it has loaded
PRELUDE = """\
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
def loaded():
    return sorted(m.split(".", 1)[1] for m in sys.modules
                  if m.startswith("nlprob."))
"""

# a CLI run; with "eager" as its first argument it imports every engine
# before the CLI
MAIN = """\
if sys.argv[2] == "eager":
    import nlprob.capacity, nlprob.dependence, nlprob.expectation
    import nlprob.simulate, nlprob.slln
import nlprob.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = nlprob.cli.main(sys.argv[3:])
print(json.dumps({"code": code, "loaded": loaded()}))
"""

EXACT_DOC = {
    "model": {"space": 3, "measures": [[0.5, 0.25, 0.25], [0.125, 0.375, 0.5]],
              "variables": {"X1": [-1.0, 0.5, 2.0], "X2": [1.5, 0.0, -3.0]},
              "joint": "rectangular"},
    "checks": ["axioms", "chain", "inequalities", "na", "vertical", "forward"],
    "tolerance": 1e-9,
    "horizon": 3,
}

SIM_DOC = {
    "model": {"space": 2, "measures": [[0.7, 0.3], [0.3, 0.7]],
              "variables": {"X": [0.0, 1.0]}, "joint": "rectangular"},
    "checks": ["slln", "strassen"],
    "tolerance": 1e-9,
    "seed": 20250817,
    "schedule": {"kind": "mz", "p": 1.25, "alpha": 1.0, "beta": 0.5},
    "simulation": {"n_steps": 2000, "n_start": 200, "epsilon": 0.05,
                   "paths_per_strategy": 2},
    "phi": {"kind": "exp", "rate": 1.0},
}


def _child(code: str, *args: str) -> dict:
    proc = subprocess.run([sys.executable, "-c", PRELUDE + code, SRC, *args],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _run_both(tmp_path: Path, subcommand: str, doc: dict) -> list[str]:
    """The modules a fresh ``subcommand`` run loads; its output files are
    byte-identical to a run's that imported every engine first."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    runs = {mode: _child(MAIN, mode, subcommand, "--config", str(config),
                         "--out", str(tmp_path / mode))
            for mode in ("lazy", "eager")}
    assert runs["lazy"]["code"] == runs["eager"]["code"]
    assert set(ENGINES) <= set(runs["eager"]["loaded"])
    names = sorted(p.name for p in (tmp_path / "eager").iterdir())
    assert "report.json" in names
    assert names == sorted(p.name for p in (tmp_path / "lazy").iterdir())
    for name in names:
        assert ((tmp_path / "lazy" / name).read_bytes()
                == (tmp_path / "eager" / name).read_bytes()), name
    return runs["lazy"]["loaded"]


def test_importing_the_package_loads_no_module():
    assert _child("import nlprob\nprint(json.dumps(loaded()))") == []


def test_importing_the_cli_loads_no_engine():
    loaded = _child("import nlprob.cli\nprint(json.dumps(loaded()))")
    assert "cli" in loaded
    assert not set(ENGINES) & set(loaded)


def test_an_exact_run_loads_no_simulation_engine(tmp_path):
    loaded = _run_both(tmp_path, "all", EXACT_DOC)
    assert {"capacity", "dependence", "expectation"} <= set(loaded)
    assert not {"simulate", "slln"} & set(loaded)


def test_a_simulation_run_loads_no_exact_engine(tmp_path):
    loaded = _run_both(tmp_path, "simulate", SIM_DOC)
    assert {"simulate", "slln"} <= set(loaded)
    assert not {"capacity", "dependence"} & set(loaded)


def test_a_name_set_on_the_cli_before_its_engine_loads_is_kept(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**EXACT_DOC, "checks": ["chain"]}))
    code = """\
import nlprob.cli
calls = []
def spy(*args, **kwargs):
    calls.append(1)
    from nlprob.expectation import expectation_chain
    return expectation_chain(*args, **kwargs)
nlprob.cli.expectation_chain = spy
with contextlib.redirect_stdout(io.StringIO()):
    nlprob.cli.main(sys.argv[2:])
print(json.dumps({"calls": len(calls), "kept": nlprob.cli.expectation_chain is spy}))
"""
    got = _child(code, "verify", "--config", str(config),
                 "--out", str(tmp_path / "out"))
    assert got == {"calls": 2, "kept": True}


def test_every_export_is_its_defining_modules_object():
    for name in nlprob.__all__:
        value = getattr(nlprob, name)
        module = sys.modules[value.__module__]
        assert module.__name__.startswith("nlprob."), name
        assert getattr(module, name) is value, name


def test_dir_lists_every_export():
    assert set(nlprob.__all__) <= set(dir(nlprob))
    assert "__version__" in dir(nlprob)


@pytest.mark.parametrize("module", ["nlprob", "nlprob.cli"])
def test_an_unknown_name_raises_attribute_error_naming_it(module):
    with pytest.raises(AttributeError, match="'no_such_name'"):
        getattr(importlib.import_module(module), "no_such_name")
