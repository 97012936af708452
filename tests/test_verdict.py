import dataclasses
import hashlib
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


# Bytes that tests/golden_census.json does not pin.  Each digest is the
# sha256 of ``verdict_to_json`` followed by ``explain`` under CFG.

# Each pattern fails exactly the flag it is keyed by.
PRECONDITION_FAILURES = {
    "combinatorially_symmetric": [[0, 1, 0], [0, 0, 1], [1, 1, 0]],
    "zero_diagonal": [[1, 1], [1, 0]],
    "irreducible": [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
}
RECORDED_BYTES = {
    "combinatorially_symmetric": "d1425136053493333d1d28da055b39851f7214f698d7ee38d48a4e034deb513d",
    "zero_diagonal": "86809a6c9b5576184fcfce8cd7bbb9f78b43c51faa9b299ff1c7e7b667acc6ee",
    "irreducible": "c332a50b72f125baa3b8ef407309f3e9d0ca8db2854ce7ca984c1e2bac116593",
    "odd_cycle_17": "50a0ed569c0c76ddec67f817e4f8a724211e3fbcebb942ab92d865497d62569d",
}
RECORDED_EXPLAIN = {
    "PAT_ALLNEG4": "5672b9e5d154401a5a57786221329972996f8bd5062f8d07ae86888f0294354b",
    "PAT_ALLPLUS4": "ca5afec19d4873458c18ce7a0ee3044e7f746d1a68e45be05d5fa31e665f3cbc",
    "PAT_EG06": "168703e5edcfc97cddc644eeca666a39f8ec5fa9314601aeecb51539cfdfabf2",
    "PAT_EX26": "61160b7119a7d5430871cec23d50cca9269413471206254b5036f1fa5332d0d9",
    "PAT_HEX6": "cdc255547d79ea2ae78cd3bf98be6860646fe7064a58ec757086d5deede3f1fa",
    "PAT_P4": "9b249a4d73697c0dceb7b876dc5e7d82132f3dc26cb9da91a864762b254c8085",
    "PAT_P4M": "bb68c9147d6270904586e4ee006d38031e25c84d3039c0c46cfdbae724aa3173",
    "PAT_P6": "4e60bb1b7bd4aa00a676dfe59aaf0d0d788486256579bd43cec8ec8182bcfd81",
    "PAT_P6P": "f888e4d2657c1139ed2330ca6eb8034e90ee20a34e07baee5e450dbd171b7791",
    "PAT_P8P": "504731508fd02e1541417901f5b0f6ae961fae9b1c93c9c19b7204a8b995c673",
    "PAT_PMINUS4": "81bcaa294216a89248e6bb682c437a63d78988564245c1792fb660f16950c669",
    "PAT_SQTRI8": "7fe4d34bd717d7fbb6b8b59398b66d2e9e3e884b6e0d40107290eceb37a21d13",
    "PAT_TRIPATH6": "4cb9aa577006e5cebee9b571dc9c44a247727bfc920143f9016202580232e8bb",
    "PAT_TWOCYC81": "39dcc55377f625f389a6c00e790cbf05d42d28b6ee763cd49b457d6fa672696a",
    "PAT_TWOCYC82": "93cc5d8346b11bc3b0a4fdf34f6c72e0d16e909214c730927f97117322a8e074",
    "PAT_TWOCYC83": "1ca170f0e91067664054bb54decf707613f5e16715d16d0372eb1f87663e0fbd",
    "PAT_TWOSQ9": "6a6f4c7a911998b7d76c34f45ee816b12f189a4907653e30dfc72fb99a483ea3",
    "PAT_UNI61": "20d2ca00a2d21dd411db486ef0ba67ea6eadbf2743de7950c7f607ee17e71bb3",
    "PAT_UNI62": "326591f13587d2ee4f6abe719696d67d7ac9cca162d62635bb398c7ab69e9982",
    "PAT_X16": "795912030868f76b844aa453f4d657081d0b9a8d9eca7b421d65c26921e842f3",
    "PAT_XEG1": "d74757ccc566c8e06b0d348c7fbb37fce7f2eec3a3e6902107bb876f46a7139f",
    "PAT_XNFIG2": "1b8fcf3658fa0d620ef3072314fe9f17332da77ce144df63366f633d11166c22",
    "PAT_XX1": "0451a252aa1c2d727c9bffc1a2b033c44609301436d9800c3eff93a53561c92f",
    "PAT_XX2": "bc0241d32729de4315fa5f23781e13621e4d65c9099173466568afa90bde4f6b",
    "PAT_XXEG22": "7bb33e22fa2610ddbb36394e6f208fa06011368fe9cf349521e70a33fba59a58",
}


def bytes_digest(pattern: SignPattern) -> str:
    v = analyze(pattern, cfg=CFG)
    return hashlib.sha256((verdict_to_json(v) + explain(v)).encode()).hexdigest()


@pytest.mark.parametrize("failing", sorted(PRECONDITION_FAILURES))
def test_precondition_failure_bytes(failing):
    pattern = SignPattern.from_rows(PRECONDITION_FAILURES[failing])
    flags = dataclasses.asdict(analyze(pattern, cfg=CFG).flags)
    assert [name for name, ok in flags.items() if not ok] == [failing]
    assert bytes_digest(pattern) == RECORDED_BYTES[failing]


def test_odd_cycle_above_the_enumeration_cap_bytes():
    """R1 is skipped at order 17 and R2 decides from the two orientations."""
    mixed = cycle_pattern(list(range(17)), [-1] + [1] * 16, [1] * 17)
    assert rule(analyze(mixed, cfg=CFG), "R1").details == {
        "skipped": "order 17 above enumeration cap 16"
    }
    assert bytes_digest(mixed) == RECORDED_BYTES["odd_cycle_17"]


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_catalog_explain_bytes(name):
    text = explain(analyze(FIXTURES[name].pattern, cfg=CFG))
    assert hashlib.sha256(text.encode()).hexdigest() == RECORDED_EXPLAIN[name]
