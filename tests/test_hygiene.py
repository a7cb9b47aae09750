"""Source hygiene, checked with the standard library's ``ast`` alone.

(a) Every name a module under ``src/nlprob/`` or ``tests/`` imports is used
in that module (``__init__.py`` re-exports, so it is exempt).
(b) Every public name of the package has a reader: code in ``src/`` or
``tests/`` uses it, or ``perfbench/spans.py`` probes it. README.md does not
count, since ``tests/test_readme.py`` pins its API list to the exports.
(c) ``config`` is the one reader of outside input, the CLI's ``--seed``
and ``--tolerance`` included: only it calls ``read_number``, and the
function catalog imports nothing from the package but ``errors``.
"""

from __future__ import annotations

import ast
import re
import types
from pathlib import Path

import nlprob

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nlprob"
MODULES = sorted(p for p in [*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py")]
                 if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of its import."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    return bound


def _used(tree: ast.Module) -> set[str]:
    """Every name the module reads, and every attribute it looks up."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def test_every_import_is_used():
    unused = []
    for path in MODULES:
        tree = _tree(path)
        used = _used(tree)
        unused += [f"{path.relative_to(ROOT)}:{line}: {name}"
                   for name, line in _imported(tree).items() if name not in used]
    assert not unused, "imported but never used:\n" + "\n".join(unused)


def test_every_public_name_has_a_reader():
    in_code = set().union(*(_used(_tree(p)) for p in MODULES))
    probed = set(re.findall(r"\w+", (ROOT / "perfbench" / "spans.py")
                            .read_text(encoding="utf-8")))
    unread = [name for name in nlprob.__all__ if name not in in_code | probed]
    assert not unread, f"public names nothing reads: {unread}"


def test_only_config_reads_numbers():
    readers = {p.name for p in PACKAGE.glob("*.py")
               if any(isinstance(node, ast.Call)
                      and "read_number" in _used(node.func)
                      for node in ast.walk(_tree(p)))}
    assert readers <= {"config.py"}, readers


def test_function_catalog_imports_only_errors():
    imports = [node for node in ast.walk(_tree(PACKAGE / "functions.py"))
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    relative = {node.module for node in imports
                if isinstance(node, ast.ImportFrom) and node.level}
    absolute = [alias.name for node in imports if isinstance(node, ast.Import)
                for alias in node.names]
    absolute += [node.module for node in imports
                 if isinstance(node, ast.ImportFrom) and not node.level]
    assert relative == {"errors"}
    assert not [name for name in absolute if name.split(".")[0] == "nlprob"]


def test_star_import_binds_no_module():
    ns: dict = {}
    exec("from nlprob import *", ns)
    ns.pop("__builtins__")
    assert "annotations" not in ns
    assert not [k for k, v in ns.items() if isinstance(v, types.ModuleType)]
    assert sorted(ns) == nlprob.__all__
