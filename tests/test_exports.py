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
