"""Golden bytes for every catalog fixture, six ladder and eight tree patterns.

Pins, per fixture, the sha256 of ``verdict_to_json(analyze(p,
SampleConfig()))`` and the census at ``fixtures.CENSUS_CFG``: inertia and
frequency counts, eigensolver failures, and the sha256 of the raw bytes of
every representative and solid representative.  Any change to sampling,
eigensolving or classification that moves a single bit shows up here.

The ``ladder`` entries are the six patterns of the benchmark's ``ladder``
workload at seed 1 (order 12, 2n edges: the cycle-heavy case the catalog
never reaches), stored as pattern text rows, with the sha256 of their
verdict JSON; the digests equal the benchmark's seed-1 reference.  The
``trees`` entries are stored the same way: the first path and the first
random-attach tree of each order 12, 16, 20 and 24 in the benchmark's
``trees`` workload at seed 1.  Their verdicts carry witness matrices up to
24 x 24, so they pin the text of many floats.

``verify_sha256`` pins what ``signum verify-paper`` reports: the sha256
of the JSON list of every ``fixtures.verify()`` outcome, in order, as
[fixture, check id, tag, passed, detail].

Regenerate (only for a deliberate, documented change of output) with
``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from signum.fixtures import CENSUS_CFG, FIXTURES, verify
from signum.patterns import SignPattern, parse_pattern
from signum.spectra import SampleConfig, census
from signum.verdict import analyze, verdict_to_json

GOLDEN = Path(__file__).with_name("golden_census.json")


def _key(k: tuple[int, ...]) -> str:
    return ",".join(map(str, k))


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def verdict_digest(pattern: SignPattern) -> str:
    return _digest(verdict_to_json(analyze(pattern, SampleConfig())).encode())


def snapshot(name: str) -> dict:
    pattern = FIXTURES[name].pattern
    cen = census(pattern, CENSUS_CFG)
    return {
        "verdict_sha256": verdict_digest(pattern),
        "inertia_counts": {_key(k): v for k, v in sorted(cen.inertia_counts.items())},
        "frequency_counts": {_key(k): v for k, v in sorted(cen.frequency_counts.items())},
        "failures": cen.failures,
        "representatives": {
            _key(k): _digest(m.tobytes()) for k, m in sorted(cen.representatives.items())
        },
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


if __name__ == "__main__":
    data = _golden()
    data["fixtures"] = {name: snapshot(name) for name in sorted(FIXTURES)}
    for entry in data["ladder"] + data["trees"]:
        entry["verdict_sha256"] = verdict_digest(_rows_pattern(entry))
    data["verify_sha256"] = verify_digest()
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(
        f"wrote {len(data['fixtures'])} fixtures, {len(data['ladder'])} ladder"
        f" and {len(data['trees'])} tree patterns"
    )
