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


def test_one_builder_binds_its_predicate_arguments_at_the_call():
    calls = []

    @fixtures._check
    def _probe_check(facts, expected: int, scale: int = 1):
        calls.append((facts, expected, scale))
        return True, f"expected {expected * scale}"

    with pytest.raises(TypeError, match="scal"):
        _probe_check("probe", "trivial", "a misspelled keyword", 3, scal=2)
    with pytest.raises(TypeError, match="expected"):
        _probe_check("probe", "trivial", "a missing argument")
    with pytest.raises(TypeError):
        _probe_check("probe", "trivial", "one argument too many", 3, 2, 1)
    assert calls == []
    check = _probe_check("probe", "trivial", "both arguments", 3, scale=2)
    assert (check.check_id, check.tag, check.source) == ("probe", "trivial", "both arguments")
    assert check.fn("facts") == (True, "expected 6")
    assert calls == [("facts", 3, 2)]


def test_a_wrong_builder_argument_fails_the_catalog_build_not_a_check(monkeypatch):
    """A keyword no predicate takes raises while the catalog is built, not in verify()."""
    shape_check = fixtures._shape_check
    monkeypatch.setattr(
        fixtures, "_shape_check", lambda *args, **kwargs: shape_check(*args, shape=None, **kwargs)
    )
    with pytest.raises(TypeError, match="shape"):
        fixtures._build_fixtures()


def test_builders_keep_their_names_and_docstrings():
    builders = [n for n in vars(fixtures) if n.endswith("_check") and n != "_check"]
    assert len(builders) == 17
    for name in builders:
        builder = getattr(fixtures, name)
        assert builder.__name__ == name
        assert builder.__wrapped__.__name__ == name
    assert fixtures._leaf_distance_check.__doc__ == (
        "expected: (leaf, distance) pairs, 0-based leaves, for the first cycle."
    )
