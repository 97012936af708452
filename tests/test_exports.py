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
from signum.cycles import composite_cycles_of_length
from signum.spectra import census, find_witness_pair, ladder_spec, spectral_profile
from signum.verdict import analyze, verdict_to_json

MODULES = sorted(f"signum.{m.name}" for m in pkgutil.iter_modules(signum.__path__))
PACKAGE_DIR = Path(signum.__file__).resolve().parent
BENCH_DIR = PACKAGE_DIR.parents[1] / "bench"


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
    analyze: ["pattern", "cfg"],
    census: ["facts", "cfg"],
    composite_cycles_of_length: ["pattern", "length"],
    find_witness_pair: ["facts", "cfg"],
    ladder_spec: ["parts", "epsilon"],
    spectral_profile: ["a"],
    verdict_to_json: ["verdict"],
}


@pytest.mark.parametrize("function", PINNED_PARAMETERS, ids=lambda f: f.__name__)
def test_entry_point_parameters_are_pinned(function):
    """A new keyword parameter shows up here as a test diff."""
    assert list(inspect.signature(function).parameters) == PINNED_PARAMETERS[function]


def _unset_optional_parameters(functions: dict, sources: list[str], modules: set[str]) -> set:
    """(function, parameter) for each optional parameter that no call in sources passes.

    A call is ``f(...)`` or ``m.f(...)`` with m one of ``modules``.  It passes
    a parameter by keyword, by enough positional arguments, or by a
    ``*args`` or ``**kwargs`` that could hold it.
    """
    calls: dict[str, list[ast.Call]] = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                calls.setdefault(func.id, []).append(node)
            elif isinstance(func, ast.Attribute) and getattr(func.value, "id", None) in modules:
                calls.setdefault(func.attr, []).append(node)

    def passes(call: ast.Call, position: int, param: inspect.Parameter) -> bool:
        if any(kw.arg in (param.name, None) for kw in call.keywords):
            return True
        if param.kind is param.KEYWORD_ONLY:
            return False
        return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)

    unset = set()
    for name, function in functions.items():
        for position, param in enumerate(inspect.signature(function).parameters.values()):
            if param.default is param.empty:
                continue
            if not any(passes(call, position, param) for call in calls.get(name, ())):
                unset.add((name, param.name))
    return unset


# Optional parameters of the package's functions that no call in src/ or
# bench/ passes, each with the reason it stays.
UNSET_PARAMETERS = {
    ("sample", "index"): "one realization by trial index: trial t of a census under its law",
}


def test_every_optional_parameter_has_a_caller():
    """An optional parameter that only tests set is a knob to retire, or to list above."""
    functions = {
        name: obj
        for name, obj in vars(signum).items()
        if inspect.isfunction(obj) and not name.startswith("_")
    }
    paths = sorted(PACKAGE_DIR.glob("*.py")) + sorted(BENCH_DIR.glob("*.py"))
    modules = {"signum"} | {m.rpartition(".")[2] for m in MODULES}
    unset = _unset_optional_parameters(functions, [p.read_text() for p in paths], modules)
    assert unset == set(UNSET_PARAMETERS)


def test_unset_parameter_scan_sees_each_way_of_passing():
    def f(a, b=1, c=2, *, d=3):
        pass

    def g(a=0):
        pass

    def scan(source: str) -> set:
        return _unset_optional_parameters({"f": f, "g": g}, [source], {"m"})

    every = {("f", "b"), ("f", "c"), ("f", "d"), ("g", "a")}
    assert scan("f(0)\nx.g(1)\n") == every
    assert scan("f(0, 1)\nm.g(a=1)\n") == {("f", "c"), ("f", "d")}
    assert scan("m.f(0, c=1)\nf(*xs)\n") == {("f", "d"), ("g", "a")}
    assert scan("f(0, 1, 2, 3)\nf(**kw)\ng()\n") == {("g", "a")}


def _unconsumed_exports(exports: dict[str, list[str]], sources: dict[str, str]) -> set[str]:
    """Names in an ``__all__`` that no source reads outside the name's own definition.

    ``exports`` and ``sources`` are keyed by short module name.  A read is a
    loaded ``Name``, or ``m.name`` with m a module of ``exports``, so an
    import, an ``__all__`` string or ``rng.sample`` is none.  Reads inside
    the top-level statement that defines the name in its own module do not
    count.
    """
    home = {name: module for module, names in exports.items() for name in names}
    read = set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owners = {stmt.name}
            else:
                owners = {t.id for t in getattr(stmt, "targets", ()) if isinstance(t, ast.Name)}
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in exports:
                    name = node.attr
                else:
                    continue
                if not (name in owners and home.get(name) == module):
                    read.add(name)
    return set(home) - read


# Exported names that nothing in src/ or bench/ reads, each with the reason it stays.
UNCONSUMED_EXPORTS = {
    "sample": "one realization: trial t under one law, a census's trial t only where laws match",
    "apply_equivalence": "ROADMAP item 2 builds the class atlas's representatives with it",
    "descartes": "acceptance criterion 6 pins the Descartes sign-rule engine",
}


def test_every_export_has_a_consumer():
    """An exported name whose only caller is its own test gets a consumer, a reason, or goes."""
    exports = {
        m.rpartition(".")[2]: list(getattr(importlib.import_module(m), "__all__", ()))
        for m in MODULES
    }
    paths = sorted(PACKAGE_DIR.glob("*.py")) + sorted(BENCH_DIR.glob("*.py"))
    sources = {p.stem: p.read_text() for p in paths}
    assert _unconsumed_exports(exports, sources) == set(UNCONSUMED_EXPORTS)


def test_export_scan_sees_only_reads_outside_the_definition():
    exports = {"m": ["f", "g", "h", "k"]}
    own = "from x import h\ndef f():\n    return f()\ng = 1\n"
    other = "rng.h()\nm.k()\n__all__ = ['f']\ndef h():\n    return g\n"
    assert _unconsumed_exports(exports, {"m": own, "n": other}) == {"f", "h"}


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
