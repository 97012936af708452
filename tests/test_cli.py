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


def heavy_modules_loaded(code: str) -> list[str]:
    """Run code in a fresh interpreter; the heavy package modules it left in sys.modules."""
    report = (
        "print(json.dumps(sorted(m for m in sys.modules"
        f" if m.partition('.')[0] in {HEAVY_PACKAGES!r})))"
    )
    probe = f"import json, sys\n{code}\n{report}"
    src = str(Path(signum.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_cli_import_loads_no_heavy_module():
    assert heavy_modules_loaded("import signum.cli") == []


def test_cli_analyze_loads_no_heavy_module():
    code = (
        "from signum.cli import main\n"
        "try:\n"
        "    main(['analyze', '--fixture', 'PAT_ALLNEG4', '--json'])\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 1, exc.code  # does not require: the whole battery ran"
    )
    assert heavy_modules_loaded(code) == []


def test_catalog_analyze_and_verify_load_no_scipy():
    """scipy is a test oracle only; networkx may load for the matching witness."""
    code = (
        "from signum import analyze, fixtures\n"
        "for name in fixtures.fixture_names():\n"
        "    analyze(fixtures.fixture(name).pattern)\n"
        "assert all(o.passed for o in fixtures.verify())"
    )
    loaded = heavy_modules_loaded(code)
    assert [m for m in loaded if m.partition(".")[0] == "scipy"] == []


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
    assert result.exit_code == 2
    assert "No such option" in result.output


def test_analyze_unknown_fixture_is_an_error():
    result = run("analyze", "--fixture", "NO_SUCH_PATTERN")
    assert result.exit_code == 3
    assert "unknown fixture" in result.output


def test_witness_adjacent_matching_is_an_error():
    result = run("witness", "--fixture", "PAT_P4", "--matching", "1-2,2-3")
    assert result.exit_code == 3
    assert "composite cycle" in result.output


def test_analyze_inconclusive_exit_code():
    result = run("analyze", "--fixture", "PAT_EG06", "--trials", "200")
    assert result.exit_code == 2


def test_analyze_deterministic_output():
    a = run("analyze", "--fixture", "PAT_EG06", "--json", "--trials", "150", "--seed", "4")
    b = run("analyze", "--fixture", "PAT_EG06", "--json", "--trials", "150", "--seed", "4")
    assert a.output == b.output


def test_seed_env_override():
    direct = run("analyze", "--fixture", "PAT_EG06", "--json", "--trials", "100", "--seed", "99")
    via_env = run(
        "analyze", "--fixture", "PAT_EG06", "--json", "--trials", "100",
        env={"SIGNUM_SEED": "99"},
    )
    assert direct.output == via_env.output


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


def test_fuzz_smoke_deterministic():
    a = run("fuzz", "--order", "6", "--trials", "12", "--seed", "2")
    b = run("fuzz", "--order", "6", "--trials", "12", "--seed", "2")
    assert a.exit_code == 0
    assert a.output == b.output
    assert "examined" in a.output


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_fuzz_rejects_nonpositive_trials(trials):
    result = run("fuzz", "--order", "4", "--trials", trials)
    assert result.exit_code == 2
    assert "Usage:" in result.output
    assert "--trials" in result.output
    assert "examined" not in result.output


def test_fuzz_rejects_order_zero():
    result = run("fuzz", "--order", "0", "--trials", "1")
    assert result.exit_code == 2
    assert "Usage:" in result.output
    assert "--order" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize(
    "args",
    [
        ("analyze", "--fixture", "PAT_P4", "--trials", "10"),
        ("census", "--fixture", "PAT_P4", "--trials", "10"),
        ("fuzz", "--order", "4", "--trials", "1"),
    ],
)
def test_negative_seed_is_a_usage_error(args):
    result = run(*args, "--seed", "-1")
    assert result.exit_code == 2
    assert "Usage:" in result.output
    assert "--seed" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize(
    "args, code",
    [
        (("analyze", "--fixture", "PAT_P4", "--trials", "10"), 3),
        (("census", "--fixture", "PAT_P4", "--trials", "10"), 3),
        (("fuzz", "--order", "4", "--trials", "1"), 1),
    ],
)
def test_negative_seed_env_is_an_error(args, code):
    result = run(*args, env={"SIGNUM_SEED": "-5"})
    assert result.exit_code == code
    assert "SIGNUM_SEED must be nonnegative" in result.output
    assert "Traceback" not in result.output


def test_fuzz_repeated_imaginary_smoke():
    result = run(
        "fuzz", "--order", "5", "--trials", "6", "--seed", "3",
        "--target", "repeated-imaginary",
    )
    assert result.exit_code == 0
    assert "examined" in result.output


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
