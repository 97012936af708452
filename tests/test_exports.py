"""Every exported name resolves, so deleted API leaves no dangling export."""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import signum
from signum.spectra import census, spectral_profile
from signum.verdict import analyze, verdict_to_json

MODULES = sorted(f"signum.{m.name}" for m in pkgutil.iter_modules(signum.__path__))
PACKAGE_DIR = Path(signum.__file__).resolve().parent


@pytest.mark.parametrize("module_name", MODULES)
def test_module_all_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def test_package_imports_resolve():
    tree = ast.parse(Path(signum.__file__).read_text())
    imported = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert imported
    for module, name in imported:
        assert hasattr(importlib.import_module(f"signum.{module}"), name), (module, name)
        assert hasattr(signum, name), name


PINNED_PARAMETERS = {
    analyze: ["pattern", "cfg", "witness_budget"],
    census: ["pattern", "cfg", "prior"],
    spectral_profile: ["a"],
    verdict_to_json: ["verdict"],
}


@pytest.mark.parametrize("function", PINNED_PARAMETERS, ids=lambda f: f.__name__)
def test_entry_point_parameters_are_pinned(function):
    """A new keyword parameter shows up here as a test diff."""
    assert list(inspect.signature(function).parameters) == PINNED_PARAMETERS[function]


def test_runtime_imports_match_declared_dependencies():
    """The third-party packages the source imports, lazily or not, are the declared ones."""
    tomllib = pytest.importorskip("tomllib")
    imported = set()
    for path in PACKAGE_DIR.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.partition(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"signum"}
    project = tomllib.loads((PACKAGE_DIR.parents[1] / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", spec).group() for spec in project["dependencies"]}
    assert third_party == declared



def _unused_imports(source: str) -> list[str]:
    """Module-level imported names that the module neither reads nor re-exports.

    A name is read when it appears as a loaded ``Name`` anywhere in the
    module, annotations included, and re-exported when ``__all__`` lists it.
    """
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


# The package __init__ imports only to re-export: its imports are the package API.
@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name,
)
def test_no_unused_module_level_import(path):
    assert _unused_imports(path.read_text()) == []


def test_unused_import_check_sees_an_unused_name():
    source = "from __future__ import annotations\nimport os, json as js\nfrom x import a, b\n"
    assert _unused_imports(source + "print(a, os.sep)\n") == ["js (line 2)", "b (line 3)"]
    assert _unused_imports(source + "__all__ = ['b']\nprint(a)\n") == ["os (line 2)", "js (line 2)"]
