import ast
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_tree_pattern
from signum import spectra
from signum.cycles import PatternAnalysis, directed_cycle_from_vertices
from signum.errors import CycleNotInPattern, EigenFailure, NonFinite, SignMismatch
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


@pytest.mark.parametrize("index", [-1, 2**64, 1.5, True, np.int64(3)], ids=repr)
def test_sample_rejects_an_index_outside_the_trials(pat, index):
    """An index is a trial number: an int in [0, 2**64), as SampleConfig asks of a seed."""
    with pytest.raises(ValueError, match=r"need an int index in \[0, 2\*\*64\)"):
        sample(pat("PAT_EX26"), CFG, index=index)


def test_sample_reaches_the_last_trial(pat):
    p = pat("PAT_EX26")
    last = sample(p, CFG, index=2**64 - 1)
    assert np.array_equal(np.sign(last).astype(int), p.to_array())
    assert not np.array_equal(last, sample(p, CFG, index=2**64 - 2))


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


@pytest.mark.parametrize(
    "field, value", [("trials", True), ("trials", 1000.0), ("seed", 1.5), ("seed", False)]
)
def test_sample_config_rejects_non_int_trials_and_seed(field, value):
    """A bool would run a census of True trials; a float fails deep inside ``census``."""
    with pytest.raises(ValueError, match="must be ints"):
        SampleConfig(**{field: value})


def test_profile_of_an_overflowing_norm_is_an_error():
    with pytest.raises(NonFinite):
        spectral_profile(np.array([[0.0, 1e300], [-1e300, 0.0]]))
    with pytest.raises(NonFinite):
        spectral_profile(np.array([[0.0, np.nan], [1.0, 0.0]]))


def test_overflowing_walk_is_non_finite_like_its_profile(pat):
    """Emphasis at 1e200 overflows every norm: the walk fails as its profile does, warning nothing.

    Classified under an infinite tolerance, every step would read (0, 0, 4).
    """
    p = pat("PAT_P4")
    spec = WitnessSpec(matching_parts(p, [(0, 1), (2, 3)]), (1e200, 1e199))
    finite = ladder_spec(matching_parts(p, [(1, 2)]))
    assert not stabilize_epsilon(p, finite)[2].suspect_inertia
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NonFinite):
            stabilize_epsilon(p, spec)
        for eps in (0.0, *spectra.EPSILON_SCHEDULE):
            with pytest.raises(NonFinite):
                spectral_profile(build_witness(p, replace(spec, epsilon=eps)))
        assert spectra._try_pair(p, spec, finite, "m", {}) is None
        assert spectra._try_pair(p, finite, spec, "m", {}) is None
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_stack_fallback_fails_rows_as_a_single_solve_does():
    """A stack that fails is solved row by row by ``_solve``: a NaN row fails, the rest are exact."""
    rng = np.random.default_rng(4)
    mats = rng.normal(size=(3, 5, 5))
    mats[1, 2, 3] = np.nan  # eigvals rejects the whole stack
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.eigvals(mats)
    eig, ok = spectra._stack_eigvals(mats)
    assert ok.tolist() == [True, False, True]
    assert not eig[1].any()
    for r in (0, 2):
        assert eig[r].tobytes() == np.linalg.eigvals(mats[r]).astype(complex).tobytes()


def _calls(source: str, module: str, name: str) -> list[str]:
    """Names of the functions of ``source`` that call ``module.name``, one per call."""
    callers = []
    for node in ast.parse(source).body:
        for call in ast.walk(node):
            func = getattr(call, "func", None)
            if (
                isinstance(call, ast.Call)
                and isinstance(func, ast.Attribute)
                and func.attr == name
                and ast.unparse(func.value) == module
            ):
                callers.append(getattr(node, "name", "<module>"))
    return callers


def test_one_solve_of_a_single_matrix():
    """``eigvals`` runs in ``_solve`` for one matrix and ``_stack_eigvals`` for a stack, nowhere else."""
    package = Path(spectra.__file__).parent
    eigvals, norms = [], []
    for path in sorted(package.glob("*.py")):
        source = path.read_text()
        eigvals += [(path.name, f) for f in _calls(source, "np.linalg", "eigvals")]
        norms += [(path.name, f) for f in _calls(source, "np.linalg", "norm")]
    assert eigvals == [("spectra.py", "_solve"), ("spectra.py", "_stack_eigvals")]
    assert norms == [("spectra.py", "_solve")]


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
    assert all(np.isfinite(np.linalg.norm(m)) for m in cen.solid_representatives.values())


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
    spec = ladder_spec((directed_cycle_from_vertices(p, (0, 1, 2, 3)),), epsilon=1e-3)
    mat = build_witness(p, spec)
    assert np.array_equal(np.sign(mat).astype(int), p.to_array())


def test_build_witness_epsilon_zero_base(pat):
    p = pat("PAT_XXEG22")
    spec = ladder_spec((directed_cycle_from_vertices(p, (0, 1, 2, 3)),))
    base = build_witness(p, spec)
    assert np.count_nonzero(base) == 4


def test_build_witness_rejects_overlapping_parts(pat):
    p = pat("PAT_P4")
    parts = matching_parts(p, [(0, 1), (1, 2)])
    # Vertices are named 1-based, as everywhere else in messages.
    with pytest.raises(ValueError, match=r"part \(2, 3\) overlaps .* composite cycle"):
        build_witness(p, WitnessSpec(parts, (10.0, 100.0), 1e-3))


def test_build_witness_rejects_bad_cycle(pat):
    p = pat("PAT_P4")
    with pytest.raises(CycleNotInPattern):
        directed_cycle_from_vertices(p, (0, 2))
    good = directed_cycle_from_vertices(p, (0, 1))
    from dataclasses import replace

    lying = replace(good, sign=-good.sign)
    with pytest.raises(SignMismatch, match=r"part \(1, 2\) declares sign"):
        build_witness(p, WitnessSpec((lying,), (1.0,), 0.0))


def test_stabilize_full_cycle(pat):
    p = pat("PAT_XXEG22")
    spec = ladder_spec((directed_cycle_from_vertices(p, (0, 1, 2, 3)),))
    _, eps, prof = stabilize_epsilon(p, spec)
    assert prof.inertia == (2, 2, 0)
    assert eps > 0


def test_stabilize_negative_triangle(pat):
    p = pat("PAT_XX1")
    cyc = directed_cycle_from_vertices(p, (0, 1, 2))
    assert cyc.sign == -1
    _, _, prof = stabilize_epsilon(p, ladder_spec((cyc,)))
    assert prof.inertia == (2, 1, 0)


def test_stabilize_rejects_empty(pat):
    with pytest.raises(CycleNotInPattern):
        stabilize_epsilon(pat("PAT_XX1"), WitnessSpec((), (), 0.0))


def test_skew_witness_all_negative(pat):
    p = pat("PAT_ALLNEG4")
    spec = ladder_spec(matching_parts(p, [(0, 1), (2, 3)]), epsilon=1e-4)
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
    assert find_witness_pair(PatternAnalysis(pat("PAT_EG06"))) is None


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


@st.composite
def simple_graphs(draw):
    """An order from 0 to 14 and a subset of its vertex pairs, each as (low, high)."""
    n = draw(st.integers(0, 14))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return n, [e for e, k in zip(pairs, keep) if k]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(graph=simple_graphs())
def test_max_matching_is_maximum_against_networkx(graph):
    """Disjoint sorted input edges, as many as networkx's maximum-cardinality matching."""
    nx = pytest.importorskip("networkx")
    n, edges = graph
    match = spectra._max_matching(edges)
    assert list(match) == sorted(match)
    assert set(match) <= set(edges)
    ends = [w for pair in match for w in pair]
    assert len(ends) == len(set(ends))
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    assert len(match) == len(nx.max_weight_matching(g, maxcardinality=True))


@pytest.mark.parametrize(
    "edges, expected",
    [
        ([(0, 1), (0, 2), (1, 2)], ((1, 2),)),
        ([(0, 1), (1, 2), (2, 3)], ((0, 1), (2, 3))),
        ([], ()),
    ],
    ids=["triangle", "path", "empty"],
)
def test_max_matching_tie_break(edges, expected):
    """Leaving the lowest vertex out is tried first, then matching it to each neighbour in turn."""
    assert spectra._max_matching(edges) == expected


def test_max_matching_on_k16_is_fast():
    """The complete graph at SIGN_ORDER_CAP visits every vertex mask: the worst case."""
    edges = [(i, j) for i in range(16) for j in range(i + 1, 16)]
    start = time.perf_counter()
    match = spectra._max_matching(edges)
    assert time.perf_counter() - start < 0.5
    assert len(match) == 8
