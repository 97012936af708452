import json

import numpy as np
import pytest

from signum import spectra
from signum.charpoly import sign_det
from signum.cycles import PatternAnalysis
from signum.fixtures import FIXTURES
from signum.graphs import ShapeKind
from signum.patterns import AmbSign, SignPattern
from signum.spectra import SampleConfig, sample, spectral_profile
from signum.verdict import (
    Conclusion,
    Overall,
    _odd_cycle_det_sign,
    analyze,
    explain,
    verdict_to_json,
)

CFG = SampleConfig(trials=300, seed=3)


def rule(verdict, rule_id):
    return next(f for f in verdict.findings if f.rule_id == rule_id)


def test_requires_unique_triangle(pat):
    v = analyze(pat("PAT_XX2"), cfg=CFG)
    assert v.overall is Overall.REQUIRES_UNIQUE
    assert rule(v, "R2").conclusion is Conclusion.REQUIRES_UNIQUE


def test_alternating_four_cycle(pat):
    v = analyze(pat("PAT_XNFIG2"), cfg=CFG)
    assert v.overall is Overall.DOES_NOT_REQUIRE
    r5 = rule(v, "R5")
    assert r5.conclusion is Conclusion.DOES_NOT_REQUIRE
    assert r5.details["conditions"]["even_length_odd_run"]


def test_inconclusive_with_single_key_census(pat):
    v = analyze(pat("PAT_EG06"), cfg=CFG)
    assert v.overall is Overall.INCONCLUSIVE
    assert v.census.inertia_keys() == [(1, 1, 2)]
    assert all(f.conclusion is Conclusion.NO_CONCLUSION for f in v.findings)


def test_precondition_failure_reports_single_finding():
    loops = SignPattern.from_rows([[1, 1], [1, 1]])
    v = analyze(loops, cfg=CFG)
    assert v.overall is Overall.INCONCLUSIVE
    assert [f.rule_id for f in v.findings] == ["R0"]
    assert v.census is None
    assert "preconditions" in explain(v)


def test_explain_p6_names_the_window(pat):
    v = analyze(pat("PAT_P6"), cfg=CFG)
    text = explain(v)
    assert "R4: does_not_require" in text
    assert "'block4': [2]" in text
    assert "R3: no_conclusion" in text


def test_explain_triangle_mentions_determinant(pat):
    text = explain(analyze(pat("PAT_XX2"), cfg=CFG))
    assert "determinant term" in text
    assert "overall: requires_unique" in text


def test_r9_reports_flip_census(pat):
    v = analyze(pat("PAT_P6"), cfg=CFG)
    r9 = rule(v, "R9")
    assert r9.applicable
    assert "flipped_frequencies" in r9.details


def test_r7_reports_link_as_raw_distance(pat):
    r7 = rule(analyze(pat("PAT_TWOCYC82"), cfg=CFG), "R7")
    assert r7.conclusion is Conclusion.DOES_NOT_REQUIRE
    assert r7.details["strict"] is False
    pairs = r7.details["path_adjacent_pairs"]
    assert pairs and all(p["raw_distance"] == p["edge_count"] for p in pairs)


def test_witness_attached_and_confirmed(pat):
    for name in ("PAT_XNFIG2", "PAT_UNI61", "PAT_TWOCYC81"):
        v = analyze(pat(name), cfg=CFG)
        pair = v.witness_pair()
        assert pair is not None, name
        pa = spectral_profile(np.asarray(pair.a))
        pb = spectral_profile(np.asarray(pair.b))
        assert pa.inertia != pb.inertia


@pytest.mark.parametrize("failing", ["base", "steps"])
@pytest.mark.parametrize("name", ["PAT_XXEG22", "PAT_P6", "PAT_TWOCYC82"])
def test_witness_eigensolver_failure_is_a_failed_construction(monkeypatch, pat, name, failing):
    """A LAPACK failure inside stabilize_epsilon fails that construction, not analyze."""
    want = analyze(pat(name), cfg=CFG).overall
    original_eigvals, original_stabilize = np.linalg.eigvals, spectra.stabilize_epsilon
    solves = []  # solve count of each stabilize_epsilon call in progress
    entered = []

    def eigvals(a):
        if solves:
            solves[-1] += 1
            if (solves[-1] == 1) == (failing == "base"):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return original_eigvals(a)

    def stabilize_epsilon(pattern, spec):
        entered.append(spec)
        solves.append(0)
        try:
            return original_stabilize(pattern, spec)
        finally:
            assert solves.pop() > 0

    monkeypatch.setattr(spectra.np.linalg, "eigvals", eigvals)
    monkeypatch.setattr(spectra, "stabilize_epsilon", stabilize_epsilon)
    assert analyze(pat(name), cfg=CFG).overall is want
    assert entered


def test_r4_sees_through_signature_similarity(pat):
    from signum.patterns import SignatureSimilarity, apply_equivalence

    p6 = pat("PAT_P6")
    twisted = apply_equivalence(p6, SignatureSimilarity((1, -1, 1, 1, -1, 1)))
    v = analyze(twisted, cfg=CFG)
    assert v.overall is Overall.DOES_NOT_REQUIRE
    r4 = rule(v, "R4")
    assert r4.conclusion is Conclusion.DOES_NOT_REQUIRE
    assert r4.details["blocks_found"]["block4"] == [2]


def test_r7_requires_spanning_extension():
    # complete support on four vertices with one negative edge: the cycles
    # share vertices, so no pair is path-adjacent and the distance test is
    # vacuous; a triangle cannot extend to a spanning composite cycle, but
    # the negative-edge 4-cycles can, so the rule may only cite those
    rows = [[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [-1, 1, 1, 0]]
    v = analyze(SignPattern.from_rows(rows), cfg=CFG)
    r7 = rule(v, "R7")
    assert r7.applicable
    for hit in r7.details["conditions_fired"]:
        if len(hit["cycle"]) == 3:
            assert not hit["extends_to_cover"]
        else:
            assert hit["extends_to_cover"]


def test_battery_consistency_on_fuzz_corpus():
    rng = np.random.default_rng(77)
    cfg = SampleConfig(trials=120, seed=9)
    checked = 0
    while checked < 20:
        n = int(rng.integers(2, 6))
        grid = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.6:
                    grid[i][j] = int(rng.choice((-1, 1)))
                    grid[j][i] = int(rng.choice((-1, 1)))
        p = SignPattern.from_rows(grid)
        v = analyze(p, cfg=cfg, witness_budget=400)
        conclusions = {f.conclusion for f in v.findings}
        assert not (
            Conclusion.REQUIRES_UNIQUE in conclusions
            and Conclusion.DOES_NOT_REQUIRE in conclusions
        )
        if v.overall is Overall.REQUIRES_UNIQUE and v.census is not None:
            assert len(v.census.solid_keys()) <= 1
        if v.overall is Overall.DOES_NOT_REQUIRE:
            pair = v.witness_pair()
            if pair is not None:
                pa = spectral_profile(np.asarray(pair.a))
                pb = spectral_profile(np.asarray(pair.b))
                assert pa.inertia != pb.inertia
                for mat in (pair.a, pair.b):
                    assert np.array_equal(
                        np.sign(np.asarray(mat)).astype(int), p.to_array()
                    )
        checked += 1


def test_requires_unique_samples_have_no_zero_real_part(pat):
    cfg = SampleConfig(trials=1, seed=15)
    for name in ("PAT_XX2", "PAT_XEG1"):
        p = pat(name)
        for t in range(200):
            prof = spectral_profile(sample(p, cfg, index=t))
            assert prof.inertia[2] == 0


def test_json_schema_and_round_trip(pat):
    v = analyze(pat("PAT_P4"), cfg=CFG)
    text = verdict_to_json(v)
    doc = json.loads(text)
    assert list(doc) == ["pattern", "flags", "shape", "findings", "overall", "census"]
    assert doc["overall"] == "does_not_require"
    assert json.dumps(doc, indent=2) == text
    rules = [f["rule"] for f in doc["findings"]]
    assert rules == [f"R{k}" for k in range(1, 10)]
    witnesses = [f["witness"] for f in doc["findings"] if "witness" in f]
    assert witnesses, "expected a witness in the JSON report"
    mat = np.array(witnesses[0]["matrix_a"])
    assert np.array_equal(np.sign(mat).astype(int), pat("PAT_P4").to_array())


def test_order_one_pattern_analyzes():
    v = analyze(SignPattern.from_rows([[0]]), cfg=SampleConfig(trials=30, seed=1))
    assert v.overall is Overall.INCONCLUSIVE
    assert v.census.inertia_keys() == [(0, 0, 1)]


def test_json_deterministic(pat):
    a = verdict_to_json(analyze(pat("PAT_EG06"), cfg=CFG))
    b = verdict_to_json(analyze(pat("PAT_EG06"), cfg=CFG))
    assert a == b


def cycle_pattern(order, forward, backward) -> SignPattern:
    """A single cycle through ``order`` (a vertex list), with given arc signs each way."""
    n = len(order)
    grid = [[0] * n for _ in range(n)]
    for t in range(n):
        u, v = order[t], order[(t + 1) % n]
        grid[u][v], grid[v][u] = forward[t], backward[t]
    return SignPattern.from_rows(grid)


def assert_r2_sign_matches_enumeration(pattern: SignPattern) -> None:
    facts = PatternAnalysis(pattern)
    assert facts.shape.kind is ShapeKind.SINGLE_CYCLE and pattern.n % 2 == 1
    got = _odd_cycle_det_sign(facts.digraph, facts.shape.cycles[0])
    assert got is sign_det(pattern).value


def test_r2_sign_matches_enumeration_on_fixtures():
    checked = 0
    for fx in FIXTURES.values():
        facts = PatternAnalysis(fx.pattern)
        single_cycle = facts.flags.all_ok() and facts.shape.kind is ShapeKind.SINGLE_CYCLE
        if single_cycle and fx.pattern.n % 2:
            assert_r2_sign_matches_enumeration(fx.pattern)
            checked += 1
    assert checked >= 4


def test_r2_sign_matches_enumeration_on_random_odd_cycles():
    rng = np.random.default_rng(2)
    for n in range(3, 16, 2):
        for _ in range(6):
            forward, backward = (rng.choice((-1, 1), size=n).tolist() for _ in range(2))
            assert_r2_sign_matches_enumeration(
                cycle_pattern(rng.permutation(n).tolist(), forward, backward)
            )


@pytest.mark.parametrize("n", [17, 19])
def test_r2_decides_odd_cycles_above_the_enumeration_cap(n):
    # One negative arc: the two orientations have opposite signs.
    mixed = cycle_pattern(list(range(n)), [-1] + [1] * (n - 1), [1] * n)
    v = analyze(mixed, cfg=CFG)
    assert v.overall is Overall.DOES_NOT_REQUIRE
    assert rule(v, "R2").details == {"determinant_sign": AmbSign.AMBIGUOUS.value}
    positive = cycle_pattern(list(range(n)), [1] * n, [1] * n)
    v = analyze(positive, cfg=CFG)
    assert v.overall is Overall.REQUIRES_UNIQUE
    assert rule(v, "R2").details == {"determinant_sign": AmbSign.PLUS.value}


@pytest.mark.parametrize("n", [7, 9, 11, 13, 15, 17, 19])
def test_sampled_gap_does_not_overrule_r2(n):
    """R2 proves these odd cycles sign-nonsingular: Re p(iy) = -det A != 0 on the axis.

    The census still shows solid keys with different zero-real-part counts
    (eigenvalue pairs whose real parts are roundoff), so R8 must defer.
    """
    forward = [1 if t % 2 == 0 else -1 for t in range(n)]
    if forward.count(-1) % 2 == 0:
        forward[-1] = -1
    v = analyze(cycle_pattern(list(range(n)), forward, [-1] * n))
    assert rule(v, "R2").conclusion is Conclusion.REQUIRES_UNIQUE
    assert rule(v, "R2").details == {"determinant_sign": AmbSign.MINUS.value}
    r8 = rule(v, "R8")
    assert r8.conclusion is Conclusion.NO_CONCLUSION
    assert r8.witness is None
    assert r8.details["overruled_by"] == "R2"
    assert len({key[2] for key in r8.details["inertia_keys"]}) > 1
    assert v.overall is Overall.REQUIRES_UNIQUE
    assert v.witness_pair() is None
