"""The catalog table: realizations stay in their class, and checks keep their contract."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from signum import fixtures
from signum.fixtures import FIXTURES, _realize


def test_catalog_invariants():
    assert len(FIXTURES) == 25
    assert sum(len(fix.checks) for fix in FIXTURES.values()) == 83
    for fix in FIXTURES.values():
        ids = [check.check_id for check in fix.checks]
        assert len(ids) == len(set(ids)), fix.name
        for check in fix.checks:
            assert check.tag in {"catalog", "derived", "trivial"}, (fix.name, check.check_id)
            assert check.source, (fix.name, check.check_id)


def test_realization_keeps_the_pattern_signs():
    pattern = FIXTURES["PAT_XXEG22"].pattern
    bumped = _realize(pattern, {(0, 1): 11})
    expected = pattern.to_array().astype(np.float64)
    expected[0, 1] = 11
    assert bumped.dtype == np.float64 and np.array_equal(bumped, expected)
    assert not bumped.flags.writeable  # checks of one fixture share it


def test_realization_rejects_an_entry_off_the_support():
    pattern = FIXTURES["PAT_XXEG22"].pattern
    with pytest.raises(ValueError, match=r"entry \(1,3\) is not on the pattern's support"):
        _realize(pattern, {(0, 2): 11})
    with pytest.raises(ValueError, match=r"entry \(5,1\)"):
        _realize(pattern, {(4, 0): 2})


@pytest.mark.parametrize("magnitude", [0, -2, math.inf, math.nan])
def test_realization_rejects_a_magnitude_that_is_not_finite_and_positive(magnitude):
    pattern = FIXTURES["PAT_XXEG22"].pattern
    with pytest.raises(ValueError, match=r"entry \(1,2\) has magnitude .* not finite and positive"):
        _realize(pattern, {(0, 1): magnitude})


def test_verdict_check_fails_on_an_edited_stated_inertia(monkeypatch):
    """The verdict check replays the witness against the inertias the pair states."""
    analyze = fixtures._analyze

    def edited(facts, cfg):
        verdict = analyze(facts, cfg)
        finding = next(f for f in verdict.findings if f.witness is not None)
        finding.witness = dataclasses.replace(finding.witness, inertia_a=(4, 0, 0))
        return verdict

    (outcome,) = [o for o in fixtures.verify(["PAT_P4"]) if o.check_id == "verdict"]
    assert outcome.passed
    monkeypatch.setattr(fixtures, "_analyze", edited)
    (outcome,) = [o for o in fixtures.verify(["PAT_P4"]) if o.check_id == "verdict"]
    assert not outcome.passed
    assert outcome.detail.startswith("witness replays as ") and "stated ((4, 0, 0)," in outcome.detail
