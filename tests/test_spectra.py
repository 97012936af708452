import numpy as np
import pytest

from conftest import random_tree_pattern
from signum.cycles import PatternAnalysis, directed_cycle_from_vertices
from signum.errors import CycleNotInPattern, EigenFailure, NonFinite, SignMismatch
from signum.graphs import build_digraph
from signum.patterns import (
    Negation,
    PermutationSimilarity,
    SignPattern,
    SignatureSimilarity,
    Transposition,
    apply_equivalence,
    p_minus,
)
from signum.spectra import (
    SampleConfig,
    WitnessSpec,
    build_witness,
    census,
    find_witness_pair,
    ladder_spec,
    matching_parts,
    sample,
    spectral_profile,
    stabilize_epsilon,
)

CFG = SampleConfig(trials=50, seed=7)


def test_sample_zero_pattern():
    p = SignPattern.from_rows([[0, 0], [0, 0]])
    assert not sample(p, CFG).any()


def test_sample_sign_fidelity(pat):
    p = pat("PAT_EX26")
    mat = sample(p, CFG)
    assert np.array_equal(np.sign(mat).astype(int), p.to_array())


def test_sample_determinism(pat):
    p = pat("PAT_EX26")
    assert np.array_equal(sample(p, CFG, index=3), sample(p, CFG, index=3))
    assert not np.array_equal(sample(p, CFG, index=3), sample(p, CFG, index=4))


def test_profile_examples():
    b = np.array([[0, 1, -1], [-1, 0, 1], [1, -1, 0]], float)
    prof = spectral_profile(b)
    assert prof.inertia == (0, 0, 3)
    assert prof.refined == (0, 0, 1, 2)
    assert prof.frequency == (1, 2)

    b2 = np.array([[0, 2, -1], [-1, 0, 1], [1, -1, 0]], float)
    assert spectral_profile(b2).inertia == (1, 2, 0)

    b3 = np.array([[0, 1, 0, 0], [1, 0, -1, 0], [0, 10, 0, 1], [0, 0, 4, 0]], float)
    prof3 = spectral_profile(b3)
    assert prof3.inertia == (0, 0, 4)
    assert prof3.refined == (0, 0, 0, 4)
    assert prof3.frequency == (0, 4)


def test_profile_identities(pat):
    cfg = SampleConfig(trials=1, seed=19)
    for name in ("PAT_EX26", "PAT_P6", "PAT_TWOCYC82"):
        p = pat(name)
        for t in range(20):
            prof = spectral_profile(sample(p, cfg, index=t))
            i_plus, i_minus, i_zero = prof.inertia
            assert i_plus + i_minus + i_zero == p.n
            assert prof.refined[2] + prof.refined[3] == i_zero
            assert prof.refined[3] % 2 == 0
            assert sum(prof.frequency) == p.n


def test_census_unique_inertia(pat):
    cen = census(pat("PAT_EG06"), SampleConfig(trials=300, seed=5))
    assert cen.inertia_keys() == [(1, 1, 2)]
    assert sum(cen.inertia_counts.values()) + cen.failures == 300


INF, NAN = float("inf"), float("nan")


@pytest.mark.parametrize("lo, hi", [(1e-2, INF), (INF, INF), (NAN, 1.0), (1e-2, NAN)])
def test_sample_config_rejects_non_finite_law(lo, hi):
    with pytest.raises(ValueError, match="hi < inf"):
        SampleConfig(lo=lo, hi=hi)


def test_profile_of_an_overflowing_norm_is_an_error():
    with pytest.raises(NonFinite):
        spectral_profile(np.array([[0.0, 1e300], [-1e300, 0.0]]))
    with pytest.raises(NonFinite):
        spectral_profile(np.array([[0.0, np.nan], [1.0, 0.0]]))


def test_census_counts_an_overflowing_norm_as_a_failure(pat):
    """Every entry is finite, but with magnitudes up to 1e300 some norms are not."""
    p = pat("PAT_P4")
    cfg = SampleConfig(lo=1e-300, hi=1e300, trials=50)
    overflowing = 0
    # Odd trials draw from the near-one law, so only even ones can overflow.
    for t in range(0, cfg.trials, 2):
        try:
            spectral_profile(sample(p, cfg, index=t))
        except (NonFinite, EigenFailure):
            overflowing += 1
    cen = census(p, cfg)
    assert overflowing > 0
    assert cen.failures == overflowing
    assert sum(cen.inertia_counts.values()) == cfg.trials - overflowing
    assert all(np.isfinite(np.linalg.norm(m)) for m in cen.representatives.values())


def test_census_trivial_order_one():
    cen = census(SignPattern.from_rows([[0]]), SampleConfig(trials=10, seed=1))
    assert cen.inertia_keys() == [(0, 0, 1)]
    assert cen.frequency_counts == {(1, 0): 10}


def test_census_deterministic(pat):
    cfg = SampleConfig(trials=60, seed=11)
    a = census(pat("PAT_ALLPLUS4"), cfg)
    b = census(pat("PAT_ALLPLUS4"), cfg)
    assert a.inertia_counts == b.inertia_counts
    assert a.frequency_counts == b.frequency_counts


def test_build_witness_empty_spec_gives_zero(pat):
    p = pat("PAT_EX26")
    assert not build_witness(p, WitnessSpec((), (), 0.0)).any()


def test_build_witness_sign_fidelity(pat):
    p = pat("PAT_XXEG22")
    d = build_digraph(p)
    spec = ladder_spec(p, (directed_cycle_from_vertices(d, (0, 1, 2, 3)),), epsilon=1e-3)
    mat = build_witness(p, spec)
    assert np.array_equal(np.sign(mat).astype(int), p.to_array())


def test_build_witness_epsilon_zero_base(pat):
    p = pat("PAT_XXEG22")
    d = build_digraph(p)
    spec = ladder_spec(p, (directed_cycle_from_vertices(d, (0, 1, 2, 3)),))
    base = build_witness(p, spec)
    assert np.count_nonzero(base) == 4


def test_build_witness_rejects_overlapping_parts(pat):
    p = pat("PAT_P4")
    parts = matching_parts(p, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="composite cycle"):
        build_witness(p, WitnessSpec(parts, (10.0, 100.0), 1e-3))


def test_build_witness_rejects_bad_cycle(pat):
    p = pat("PAT_P4")
    d = build_digraph(p)
    with pytest.raises(CycleNotInPattern):
        directed_cycle_from_vertices(d, (0, 2))
    good = directed_cycle_from_vertices(d, (0, 1))
    from dataclasses import replace

    lying = replace(good, sign=-good.sign)
    with pytest.raises(SignMismatch):
        build_witness(p, WitnessSpec((lying,), (1.0,), 0.0))


def test_stabilize_full_cycle(pat):
    p = pat("PAT_XXEG22")
    d = build_digraph(p)
    spec = ladder_spec(p, (directed_cycle_from_vertices(d, (0, 1, 2, 3)),))
    _, eps, prof = stabilize_epsilon(p, spec)
    assert prof.inertia == (2, 2, 0)
    assert eps > 0


def test_stabilize_negative_triangle(pat):
    p = pat("PAT_XX1")
    d = build_digraph(p)
    cyc = directed_cycle_from_vertices(d, (0, 1, 2))
    assert cyc.sign == -1
    _, _, prof = stabilize_epsilon(p, ladder_spec(p, (cyc,)))
    assert prof.inertia == (2, 1, 0)


def test_stabilize_rejects_empty(pat):
    with pytest.raises(CycleNotInPattern):
        stabilize_epsilon(pat("PAT_XX1"), WitnessSpec((), (), 0.0))


def test_skew_witness_all_negative(pat):
    p = pat("PAT_ALLNEG4")
    spec = ladder_spec(p, matching_parts(p, [(0, 1), (2, 3)]), epsilon=1e-4)
    mat = build_witness(p, spec)
    assert np.array_equal(mat, -mat.T)
    assert spectral_profile(mat).inertia == (0, 0, 4)


def test_find_witness_pair_p4(pat):
    pair = find_witness_pair(PatternAnalysis(pat("PAT_P4")))
    assert pair is not None
    assert set(pair.inertias()) == {(2, 2, 0), (0, 0, 4)}


def test_find_witness_pair_p6(pat):
    pair = find_witness_pair(PatternAnalysis(pat("PAT_P6")))
    assert pair is not None
    assert set(pair.inertias()) == {(0, 0, 6), (2, 2, 2)}


def test_find_witness_pair_unique_inertia_pattern(pat):
    assert find_witness_pair(PatternAnalysis(pat("PAT_EG06")), budget=400) is None


def test_witness_pair_matrices_in_class(pat):
    p = pat("PAT_XNFIG2")
    pair = find_witness_pair(PatternAnalysis(p))
    assert pair is not None
    for mat in (pair.a, pair.b):
        assert np.array_equal(np.sign(np.asarray(mat)).astype(int), p.to_array())


def test_tree_spectrum_symmetry():
    rng = np.random.default_rng(41)
    cfg = SampleConfig(trials=1, seed=13)
    for t in range(25):
        p = random_tree_pattern(rng, int(rng.integers(2, 8)))
        mat = sample(p, cfg, index=t)
        eigs = np.linalg.eigvals(mat)
        scale = 1 + np.abs(eigs).max()
        flipped = sorted(-eigs, key=lambda z: (round(z.real, 9), round(z.imag, 9)))
        direct = sorted(eigs, key=lambda z: (round(z.real, 9), round(z.imag, 9)))
        assert all(abs(a - b) <= 1e-6 * scale for a, b in zip(direct, flipped))


def test_edge_flip_rotates_spectrum():
    rng = np.random.default_rng(43)
    cfg = SampleConfig(trials=1, seed=29)
    for t in range(25):
        p = random_tree_pattern(rng, int(rng.integers(2, 8)))
        mat = sample(p, cfg, index=t)
        flipped = mat.copy()
        for i in range(p.n):
            for j in range(i + 1, p.n):
                flipped[i, j] = -flipped[i, j]
        assert np.array_equal(np.sign(flipped).astype(int), p_minus(p).to_array())
        eigs = np.linalg.eigvals(mat)
        rotated = np.linalg.eigvals(flipped)
        scale = 1 + np.abs(eigs).max()
        want = sorted(1j * eigs, key=lambda z: (round(z.real, 9), round(z.imag, 9)))
        got = sorted(rotated, key=lambda z: (round(z.real, 9), round(z.imag, 9)))
        assert all(abs(a - b) <= 1e-6 * scale for a, b in zip(got, want))


def test_inertia_equivalence_laws(pat):
    rng = np.random.default_rng(47)
    p = pat("PAT_EX26")
    cfg = SampleConfig(trials=1, seed=53)
    for t in range(10):
        mat = sample(p, cfg, index=t)
        base = spectral_profile(mat).inertia
        perm = rng.permutation(p.n)
        pm = np.eye(p.n)[perm]
        assert spectral_profile(pm @ mat @ pm.T).inertia == base
        s = np.diag(rng.choice((-1.0, 1.0), size=p.n))
        assert spectral_profile(s @ mat @ s).inertia == base
        assert spectral_profile(mat.T).inertia == base
        neg = spectral_profile(-mat).inertia
        assert neg == (base[1], base[0], base[2])


def test_census_keys_track_equivalence(pat):
    p = pat("PAT_EG06")
    cfg = SampleConfig(trials=200, seed=61)
    base_keys = census(p, cfg).inertia_keys()
    assert base_keys == [(1, 1, 2)]
    for op in (
        PermutationSimilarity((2, 0, 3, 1)),
        SignatureSimilarity((1, -1, 1, -1)),
        Transposition(),
    ):
        keys = census(apply_equivalence(p, op), cfg).inertia_keys()
        assert keys == base_keys
    neg_keys = census(apply_equivalence(p, Negation()), cfg).inertia_keys()
    assert neg_keys == [(1, 1, 2)]
