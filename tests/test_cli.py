import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import signum
import signum.fixtures as fixture_catalog
from signum.cli import main
from signum.fixtures import Check, Fixture
from signum.patterns import SignPattern


def run(*args, env=None):
    return CliRunner().invoke(main, list(args), env=env, catch_exceptions=False)


HEAVY_PACKAGES = ("scipy", "networkx")


def run_fresh(code: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports signum from this checkout."""
    src = str(Path(signum.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)


def heavy_modules_loaded(code: str, watched: tuple[str, ...] = HEAVY_PACKAGES) -> list[str]:
    """Run code in a fresh interpreter; the watched modules and their submodules it left in sys.modules."""
    prefixes = tuple(f"{name}." for name in watched)
    report = (
        "print(json.dumps(sorted(m for m in sys.modules"
        f" if m in {watched!r} or m.startswith({prefixes!r}))))"
    )
    out = run_fresh(f"import json, sys\n{code}\n{report}")
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_cli_import_loads_no_heavy_module():
    # Only --fixture, fixtures and verify-paper read the catalog, so importing builds none.
    watched = HEAVY_PACKAGES + ("signum.fixtures",)
    assert heavy_modules_loaded("import signum.cli", watched) == []


def test_cli_analyze_loads_no_heavy_module():
    code = (
        "from signum.cli import main\n"
        "try:\n"
        "    main(['analyze', '--fixture', 'PAT_ALLNEG4', '--json'])\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 1, exc.code  # does not require: the whole battery ran"
    )
    assert heavy_modules_loaded(code) == []


def test_catalog_runs_with_networkx_and_scipy_blocked():
    """Both are test oracles only: with their imports blocked, the catalog analyzes and verifies.

    ``PAT_P4`` reaches the matching witness, which once imported networkx.
    """
    code = (
        "import sys\n"
        "sys.modules['networkx'] = sys.modules['scipy'] = None  # importing either raises\n"
        "from signum import analyze, fixtures\n"
        "from signum.cli import main\n"
        "names = fixtures.fixture_names()\n"
        "assert 'PAT_P4' in names\n"
        "for name in names:\n"
        "    analyze(fixtures.fixture(name).pattern)\n"
        "assert all(o.passed for o in fixtures.verify())\n"
        "try:\n"
        "    main(['analyze', '--fixture', 'PAT_P4'])\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 1, exc.code  # does not require, by the matching witness\n"
        "else:\n"
        "    raise AssertionError('analyze did not exit')\n"
    )
    out = run_fresh(code)
    assert out.returncode == 0, out.stderr


def test_analyze_requires_unique_exit_code():
    result = run("analyze", "--fixture", "PAT_XX2", "--trials", "200")
    assert result.exit_code == 0
    assert "overall: requires_unique" in result.output


def test_analyze_json_witness_inertias():
    result = run("analyze", "--fixture", "PAT_P4", "--json", "--trials", "200")
    assert result.exit_code == 1
    doc = json.loads(result.output)
    witness = next(f["witness"] for f in doc["findings"] if "witness" in f)
    assert sorted(map(tuple, witness["inertias"])) == [(0, 0, 4), (2, 2, 0)]


def test_analyze_missing_file_is_an_error():
    result = run("analyze", "nonexistent.txt")
    assert result.exit_code == 3
    assert "error" in result.output


def test_analyze_parse_error(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 + x\n+ 0 +\n0 + 0\n")
    result = run("analyze", str(bad))
    assert result.exit_code == 3


@pytest.mark.parametrize("command", ["graph", "analyze", "census", "witness"])
def test_non_utf8_file_is_an_error(tmp_path, command):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes("0 + \u00b1\n+ 0 +\n0 + 0\n".encode("latin-1"))
    result = run(command, str(bad))
    assert result.exit_code == 3
    assert "error:" in result.output and "not UTF-8" in result.output
    assert "Traceback" not in result.output


def test_analyze_options_are_pinned():
    """A new analyze knob shows up here as a test diff."""
    params = [p.name for p in main.commands["analyze"].params]
    assert params == ["path", "fixture", "as_json", "trials", "seed"]
    result = run("analyze", "--fixture", "PAT_TWOCYC82", "--strict-distance")
    assert result.exit_code == 3
    assert "No such option" in result.output


def test_analyze_unknown_fixture_is_an_error():
    result = run("analyze", "--fixture", "NO_SUCH_PATTERN")
    assert result.exit_code == 3
    assert "unknown fixture" in result.output


def test_witness_adjacent_matching_is_an_error():
    result = run("witness", "--fixture", "PAT_P4", "--matching", "1-2,2-3")
    assert result.exit_code == 3
    assert "composite cycle" in result.output


@pytest.mark.parametrize(
    "matching, clash",
    [
        ("1-2,1-2", "edge 1-2 repeats edge 1-2"),
        ("1-2,2-1", "edge 2-1 repeats edge 1-2"),
        ("1-2,2-3", "edge 2-3 shares vertex 2 with edge 1-2"),
        ("3-4,2-3", "edge 2-3 shares vertex 3 with edge 3-4"),
    ],
)
def test_witness_matching_edges_must_be_disjoint(matching, clash):
    """Clashing edges are named in 1-based vertex numbers before any part is built."""
    result = run("witness", "--fixture", "PAT_P4", "--matching", matching)
    assert result.exit_code == 3
    assert clash in result.output
    assert "composite cycle" in result.output
    assert "(0, 1)" not in result.output


@pytest.mark.parametrize("matching", ["1-1", "1-2,3-3"])
def test_witness_matching_loop_is_an_error(matching):
    result = run("witness", "--fixture", "PAT_P4", "--matching", matching)
    assert result.exit_code == 3
    assert "joins a vertex to itself: a matching's edges join two vertices" in result.output
    assert "cycle" not in result.output


def test_analyze_inconclusive_exit_code():
    result = run("analyze", "--fixture", "PAT_EG06", "--trials", "200")
    assert result.exit_code == 2


def test_analyze_deterministic_output():
    a = run("analyze", "--fixture", "PAT_EG06", "--json", "--trials", "150", "--seed", "4")
    b = run("analyze", "--fixture", "PAT_EG06", "--json", "--trials", "150", "--seed", "4")
    assert a.output == b.output


EX26_CENSUS = ("census", "--fixture", "PAT_EX26", "--trials", "300")


def test_seed_env_sets_the_default_seed():
    """The census split of PAT_EX26 moves with the seed, so each source of the seed shows."""
    default = run(*EX26_CENSUS, env={"SIGNUM_SEED": None})
    seven = run(*EX26_CENSUS, "--seed", "7", env={"SIGNUM_SEED": None})
    via_env = run(*EX26_CENSUS, env={"SIGNUM_SEED": "7"})
    explicit = run(*EX26_CENSUS, "--seed", "1729", env={"SIGNUM_SEED": "7"})
    assert "inertia (1, 2, 0): 147" in default.output
    assert "inertia (1, 2, 0): 143" in seven.output
    assert via_env.output == seven.output != default.output
    assert explicit.output == default.output
    assert {r.exit_code for r in (default, seven, via_env, explicit)} == {0}


def test_empty_seed_env_means_unset():
    result = run(*EX26_CENSUS, env={"SIGNUM_SEED": ""})
    assert result.exit_code == 0
    assert result.output == run(*EX26_CENSUS, env={"SIGNUM_SEED": None}).output


def test_graph_directed_arcs():
    result = run("graph", "--fixture", "PAT_EX26", "--directed")
    assert result.exit_code == 0
    assert result.output.count("->") == 6


def test_graph_undirected_dashed():
    result = run("graph", "--fixture", "PAT_EG06", "--undirected")
    assert result.output.count("--") == 4
    assert result.output.count("dashed") == 2


def test_graph_trivial_pattern(tmp_path):
    f = tmp_path / "one.txt"
    f.write_text("0\n")
    result = run("graph", str(f), "--undirected")
    assert result.exit_code == 0
    assert "--" not in result.output


def test_graph_undirected_needs_combinatorial_symmetry(tmp_path):
    f = tmp_path / "arc.txt"
    f.write_text("0 +\n0 0\n")
    result = run("graph", str(f), "--undirected")
    assert result.exit_code == 3
    assert "error: undirected edge signs need p_ij != 0 iff p_ji != 0" in result.output


def test_census_command():
    result = run("census", "--fixture", "PAT_EG06", "--trials", "200")
    assert result.exit_code == 0
    assert "inertia (1, 1, 2): 200" in result.output
    assert "consistent frequency observed: True" in result.output


def test_census_rejects_an_infinite_law():
    result = run("census", "--fixture", "PAT_P4", "--hi", "inf")
    assert result.exit_code == 3
    assert "error: need 0 < lo <= hi < inf" in result.output


def test_census_counts_overflowing_trials_as_failures():
    result = run("census", "--fixture", "PAT_P4", "--lo", "1e-300", "--hi", "1e300", "--trials", "50")
    assert result.exit_code == 0
    assert "failures: 0" not in result.output
    assert "inertia (0, 0, 4): 25" not in result.output


@pytest.mark.parametrize(
    "option, value, vertex",
    [("--cycle", "0,1", 0), ("--cycle", "1,5", 5), ("--matching", "1-5", 5)],
)
def test_witness_vertex_out_of_range_is_an_error(option, value, vertex):
    result = run("witness", "--fixture", "PAT_P4", option, value)
    assert result.exit_code == 3
    assert f"error: vertex {vertex} is not in 1..4: the pattern has order 4" in result.output
    assert "not in the pattern" not in result.output


def test_witness_command():
    result = run("witness", "--fixture", "PAT_XXEG22", "--cycle", "1,2,3,4")
    assert result.exit_code == 0
    assert "inertia: (2, 2, 0)" in result.output


def test_witness_matching_command():
    result = run("witness", "--fixture", "PAT_ALLNEG4", "--matching", "1-2,3-4")
    assert result.exit_code == 0
    assert "inertia: (0, 0, 4)" in result.output


def test_readme_lists_every_command_and_no_other():
    """The README's CLI block names exactly the commands ``main`` has."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    named = {line.split()[1] for line in block.splitlines() if line.startswith("signum ")}
    assert named == set(main.commands)


def test_fixtures_listing():
    result = run("fixtures")
    assert result.exit_code == 0
    assert "PAT_P4 (order 4)" in result.output
    assert "PAT_TWOSQ9 (order 9)" in result.output


def test_verify_filter_passes():
    result = run("verify-paper", "--filter", "PAT_XX2")
    assert result.exit_code == 0
    assert "[pass]" in result.output
    assert "FAIL" not in result.output


def test_verify_vacuous_filter_warns():
    result = run("verify-paper", "--filter", "NO_SUCH_FIXTURE")
    assert result.exit_code == 0
    assert "warning" in result.output


def test_verify_negative_control(monkeypatch):
    broken = Fixture(
        "PAT_BROKEN",
        "negative control with a corrupted expectation",
        SignPattern.from_rows([[0, 1], [1, 0]]),
        (
            Check(
                "impossible",
                "trivial",
                "deliberately wrong expectation",
                lambda facts: (facts.pattern.n == 3, f"order is {facts.pattern.n}"),
            ),
        ),
    )
    monkeypatch.setitem(fixture_catalog.FIXTURES, "PAT_BROKEN", broken)
    result = run("verify-paper", "--filter", "PAT_BROKEN")
    assert result.exit_code == 1
    assert "FAIL" in result.output


@pytest.mark.parametrize(
    "args",
    [
        ("analyze", "--fixture", "PAT_P4", "--trials", "10"),
        ("census", "--fixture", "PAT_P4", "--trials", "10"),
    ],
)
def test_negative_seed_is_a_usage_error(args):
    result = run(*args, "--seed", "-1")
    assert result.exit_code == 3
    assert "Usage:" in result.output
    assert "--seed" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize(
    "args, code",
    [
        (("analyze", "--fixture", "PAT_P4", "--trials", "10"), 3),
        (("census", "--fixture", "PAT_P4", "--trials", "10"), 3),
    ],
)
def test_negative_seed_env_is_an_error(args, code):
    result = run(*args, env={"SIGNUM_SEED": "-5"})
    assert result.exit_code == code
    assert (
        "Invalid value for '--seed' (env var: 'SIGNUM_SEED'): -5 is not in the range x>=0."
        in result.output
    )
    assert "Traceback" not in result.output


@pytest.mark.parametrize(
    "rows, cycle, vertex",
    [("0 + 0 0\n+ 0 + 0\n0 + 0 +\n0 0 + 0\n", "1,2,1,2", 1), ("+ +\n+ 0\n", "1,2,1", 1)],
)
def test_witness_repeated_cycle_vertex_is_an_error(tmp_path, rows, cycle, vertex):
    """A cycle visits each vertex once, even where every arc it names is in the pattern."""
    path = tmp_path / "pattern.txt"
    path.write_text(rows)
    result = run("witness", str(path), "--cycle", cycle)
    assert result.exit_code == 3
    assert f"error: vertex {vertex} repeats" in result.output
    assert "parts:" not in result.output


@pytest.mark.parametrize("error", [RuntimeError("boom"), MemoryError()], ids=["runtime", "memory"])
@pytest.mark.parametrize(
    "target, args",
    [
        ("cli.analyze", ("analyze", "--fixture", "PAT_P4", "--trials", "10")),
        ("cli.explain", ("analyze", "--fixture", "PAT_P4", "--trials", "10")),
        ("cli.verdict_to_json", ("analyze", "--fixture", "PAT_P4", "--trials", "10", "--json")),
        ("cli.census", ("census", "--fixture", "PAT_P4", "--trials", "10")),
        ("cli.digraph_to_dot", ("graph", "--fixture", "PAT_P4")),
        ("cli.stabilize_epsilon", ("witness", "--fixture", "PAT_XXEG22", "--cycle", "1,2,3,4")),
        ("fixtures.fixture_names", ("fixtures",)),
        ("fixtures.verify", ("verify-paper", "--filter", "PAT_XX2")),
    ],
    ids=["analyze", "explain", "json", "census", "graph", "witness", "fixtures", "verify-paper"],
)
def test_unexpected_error_exits_3_not_a_verdict(monkeypatch, error, target, args):
    """Any error while loading, computing or rendering exits 3, never 1 ("does not require")."""

    def fail(*_args, **_kwargs):
        raise error

    monkeypatch.setattr(f"signum.{target}", fail)
    result = CliRunner().invoke(main, list(args))
    assert result.exit_code == 3
    assert result.stdout == ""
    assert result.stderr == f"error: {str(error) or type(error).__name__}\n"
    assert "Traceback" not in result.output


# Per command: a call with one mistyped flag, and that flag.
USAGE_ERRORS = {
    "analyze": (("analyze", "--fixture", "PAT_P4", "--trails", "10"), "--trails"),
    "census": (("census", "--fixture", "PAT_P4", "--trails", "10"), "--trails"),
    "fixtures": (("fixtures", "--all"), "--all"),
    "verify-paper": (("verify-paper", "--filtre", "PAT_XX2"), "--filtre"),
    "graph": (("graph", "--fixture", "PAT_P4", "--direct"), "--direct"),
    "witness": (("witness", "--fixture", "PAT_P4", "--cycles", "1,2"), "--cycles"),
}


def test_usage_error_cases_cover_every_command():
    assert set(USAGE_ERRORS) == set(main.commands)


@pytest.mark.parametrize("args, flag", USAGE_ERRORS.values(), ids=USAGE_ERRORS.keys())
def test_mistyped_flag_exits_3_not_a_verdict(args, flag):
    """A usage error keeps click's usage text but exits 3, never 2 ("inconclusive")."""
    result = run(*args)
    assert result.exit_code == 3
    assert result.stdout == ""
    assert result.stderr.startswith(f"Usage: main {args[0]} [OPTIONS]")
    assert f"Error: No such option '{flag}'" in result.stderr


@pytest.mark.parametrize("args", [("bogus",), ()], ids=["unknown-command", "bare"])
def test_unknown_or_missing_command_exits_3(args):
    result = run(*args)
    assert result.exit_code == 3
    assert result.stdout == ""
    assert result.stderr.startswith("Usage: main [OPTIONS] COMMAND [ARGS]...")


def test_interrupt_exits_3_not_a_verdict(monkeypatch):
    """Ctrl-C during analyze exits 3, never 1 ("does not require")."""

    def interrupt(*_args, **_kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr("signum.cli.analyze", interrupt)
    result = run("analyze", "--fixture", "PAT_P4", "--trials", "10")
    assert result.exit_code == 3
    assert result.stdout == ""
    assert result.stderr.endswith("Aborted!\n")


def test_analyze_help_shows_the_seed_variable_and_default():
    result = run("analyze", "--help")
    assert result.exit_code == 0
    assert "env var: SIGNUM_SEED" in result.output
    assert "default: 1729" in result.output
