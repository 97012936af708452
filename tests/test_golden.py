"""Golden bytes for every catalog fixture, six ladder and eight tree patterns.

Pins, per fixture, the sha256 of ``verdict_to_json(analyze(p,
SampleConfig()))`` and the census at ``fixtures.CENSUS_CFG``: inertia and
frequency counts, eigensolver failures, and the sha256 of the raw bytes of
every solid representative.  Any change to sampling, eigensolving or
classification that moves a single bit shows up here.

The ``ladder`` entries are the six patterns of the benchmark's ``ladder``
workload at seed 1 (order 12, 2n edges: the cycle-heavy case the catalog
never reaches), stored as pattern text rows, with the sha256 of their
verdict JSON and of their ``explain`` text; the JSON digests equal the
benchmark's seed-1 reference.  The ``trees`` entries are stored the same
way: the first path and the first random-attach tree of each order 12,
16, 20 and 24 in the benchmark's ``trees`` workload at seed 1.  Their
verdicts carry witness matrices up to 24 x 24, so they pin the text of
many floats.  The ``explain`` digests pin the text of R7's long record
lists, which the catalog's short ones do not.

``verify_sha256`` pins what ``signum verify-paper`` reports: the sha256
of the JSON list of every ``fixtures.verify()`` outcome, in order, as
[fixture, check id, tag, passed, detail].

Every witness attached to any finding of these verdicts, and of verdicts
on random spanning-tree-plus-chords patterns of orders 5-10 at two seeds,
must replay: ``spectral_profile`` of its two matrices gives afresh the two
distinct inertias it states.

Regenerate (only for a deliberate, documented change of output) with
``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from test_analysis import GOLDEN_PATTERNS
from test_invariance import valid_patterns

from signum.fixtures import CENSUS_CFG, FIXTURES, verify
from signum.patterns import SignPattern, parse_pattern
from signum.spectra import DEFAULT_SEED, SampleConfig, census, spectral_profile
from signum.verdict import Verdict, analyze, explain, verdict_to_json

GOLDEN = Path(__file__).with_name("golden_census.json")


def _key(k: tuple[int, ...]) -> str:
    return ",".join(map(str, k))


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@functools.cache
def _verdict(pattern: SignPattern) -> Verdict:
    """The default-config verdict, shared by the digest and the replay tests."""
    return analyze(pattern, SampleConfig())


def verdict_digest(pattern: SignPattern) -> str:
    return _digest(verdict_to_json(_verdict(pattern)).encode())


def explain_digest(pattern: SignPattern) -> str:
    return _digest(explain(_verdict(pattern)).encode())


def snapshot(name: str) -> dict:
    pattern = FIXTURES[name].pattern
    cen = census(pattern, CENSUS_CFG)
    return {
        "verdict_sha256": verdict_digest(pattern),
        "inertia_counts": {_key(k): v for k, v in sorted(cen.inertia_counts.items())},
        "frequency_counts": {_key(k): v for k, v in sorted(cen.frequency_counts.items())},
        "failures": cen.failures,
        "solid_representatives": {
            _key(k): _digest(m.tobytes())
            for k, m in sorted(cen.solid_representatives.items())
        },
    }


def verify_digest() -> str:
    outcomes = [[o.fixture, o.check_id, o.tag, bool(o.passed), o.detail] for o in verify()]
    return _digest(json.dumps(outcomes).encode())


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def _rows_pattern(entry: dict) -> SignPattern:
    return parse_pattern("\n".join(entry["rows"]))


def test_golden_covers_catalog():
    assert sorted(_golden()["fixtures"]) == sorted(FIXTURES)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_golden_fixture(name):
    assert snapshot(name) == _golden()["fixtures"][name]


def test_golden_verify():
    assert verify_digest() == _golden()["verify_sha256"]


@pytest.mark.parametrize("entry", _golden()["ladder"], ids=lambda e: e["label"])
def test_golden_ladder(entry):
    assert verdict_digest(_rows_pattern(entry)) == entry["verdict_sha256"]


@pytest.mark.parametrize("entry", _golden()["trees"], ids=lambda e: e["label"])
def test_golden_trees(entry):
    assert verdict_digest(_rows_pattern(entry)) == entry["verdict_sha256"]


@pytest.mark.parametrize(
    "entry", _golden()["ladder"] + _golden()["trees"], ids=lambda e: e["label"]
)
def test_golden_explain(entry):
    assert explain_digest(_rows_pattern(entry)) == entry["explain_sha256"]


def assert_witnesses_replay(verdict: Verdict) -> None:
    for f in verdict.findings:
        if f.witness is not None:
            fresh = tuple(spectral_profile(m).inertia for m in (f.witness.a, f.witness.b))
            assert fresh == f.witness.inertias(), f.rule_id
            assert fresh[0] != fresh[1], f.rule_id


@pytest.mark.parametrize("name", list(GOLDEN_PATTERNS))
def test_golden_witnesses_replay(name):
    assert_witnesses_replay(_verdict(GOLDEN_PATTERNS[name]))


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 1])
@settings(
    max_examples=48,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(pattern=valid_patterns(min_n=5, max_n=10))
def test_random_witnesses_replay(seed, pattern):
    assert_witnesses_replay(analyze(pattern, SampleConfig(seed=seed)))


if __name__ == "__main__":
    data = _golden()
    data["fixtures"] = {name: snapshot(name) for name in sorted(FIXTURES)}
    for entry in data["ladder"] + data["trees"]:
        entry["verdict_sha256"] = verdict_digest(_rows_pattern(entry))
        entry["explain_sha256"] = explain_digest(_rows_pattern(entry))
    data["verify_sha256"] = verify_digest()
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(
        f"wrote {len(data['fixtures'])} fixtures, {len(data['ladder'])} ladder"
        f" and {len(data['trees'])} tree patterns"
    )
