"""The batched census against a per-trial oracle.

``census`` draws, eigensolves and classifies its trials a block at a time.
The oracle below is the per-trial loop it replaced, with its own scalar
sampler and classifier, so the comparison does not lean on the code under
test.  Agreement must be exact: counts, frequencies, failures and the raw
bytes of every representative.  A census resumed from a shorter one must
equal a fresh census to the same standard, and so must a census that reads
its magnitudes from blocks other censuses left in the shared cache, and
so must a census whose block solves overlap on the thread pool.

R9 reads the edge-flipped pattern's frequencies off the main census; a real
census of the flipped pattern is its oracle.  The stack classifier computes
only the bands a census reads; the full classifier it was cut from is kept
below as the oracle for those fields and for the profile's own bands.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from signum import spectra
from signum.cycles import PatternAnalysis, directed_cycle_from_vertices
from signum.errors import EigenFailure, NonFinite, NoStabilization
from signum.fixtures import FIXTURES
from signum.graphs import build_digraph
from signum.patterns import SignPattern, p_minus
from signum.spectra import (
    EPSILON_SCHEDULE,
    NEAR_ONE_HI,
    NEAR_ONE_LO,
    Census,
    SampleConfig,
    SpectralProfile,
    build_witness,
    census,
    ladder_spec,
    matching_parts,
    sample,
    spectral_profile,
    stabilize_epsilon,
)
from signum.verdict import _flipped_frequencies, analyze


def scalar_sample(pattern: SignPattern, cfg: SampleConfig, index: int = 0) -> np.ndarray:
    rng = np.random.default_rng((cfg.seed, index))
    a = np.zeros((pattern.n, pattern.n))
    span = math.log10(cfg.hi) - math.log10(cfg.lo)
    for i, j in pattern.support():
        mag = 10.0 ** (math.log10(cfg.lo) + span * rng.random())
        a[i, j] = pattern.rows[i][j] * mag
    return a


def scalar_profile(a: np.ndarray) -> SpectralProfile:
    a = np.asarray(a, dtype=float)
    tol = 1e-8 * (1.0 + float(np.linalg.norm(a)))
    if not math.isfinite(tol):
        raise NonFinite("norm overflows")
    try:
        eig = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from exc
    eig = eig[np.lexsort((eig.imag, eig.real))]
    re, im, mod = eig.real, eig.imag, np.abs(eig)
    i_plus = int(np.sum(re > tol))
    i_minus = int(np.sum(re < -tol))
    i_zero = len(eig) - i_plus - i_minus
    i_z = int(np.sum(mod <= tol))
    k_real = int(np.sum(np.abs(im) <= tol))
    borderline = bool(
        np.any((np.abs(re) > tol) & (np.abs(re) <= 10 * tol))
        or np.any((mod > tol) & (mod <= 10 * tol))
        or np.any((np.abs(im) > tol) & (np.abs(im) <= 10 * tol))
    )
    floor = 1e-12 * (1.0 + float(np.linalg.norm(a)))
    suspect_inertia = bool(np.any((np.abs(re) > floor) & (np.abs(re) <= 10 * tol)))
    suspect = suspect_inertia or bool(
        np.any((mod > floor) & (mod <= 10 * tol))
        or np.any((np.abs(im) > floor) & (np.abs(im) <= 10 * tol))
    )
    return SpectralProfile(
        inertia=(i_plus, i_minus, i_zero),
        refined=(i_plus, i_minus, i_z, i_zero - i_z),
        frequency=(k_real, len(eig) - k_real),
        eigenvalues=tuple(complex(v) for v in eig),
        tol=float(tol),
        borderline=borderline,
        suspect=suspect,
        suspect_inertia=suspect_inertia,
    )


def oracle_census(pattern: SignPattern, cfg: SampleConfig) -> Census:
    """One sample and one profile per trial, in trial order."""
    lo, hi = max(cfg.lo, NEAR_ONE_LO), min(cfg.hi, NEAR_ONE_HI)
    if lo > hi:
        lo, hi = NEAR_ONE_LO, NEAR_ONE_HI
    narrow = replace(cfg, lo=lo, hi=hi)
    generic_zeros = spectra._generic_zero_count(pattern)
    counts, reps, solid, freqs, failures = {}, {}, {}, {}, 0
    for t in range(cfg.trials):
        law = narrow if t % 2 else cfg
        mat = scalar_sample(pattern, law, index=t)
        try:
            prof = scalar_profile(mat)
        except (EigenFailure, NonFinite):
            failures += 1
            continue
        counts[prof.inertia] = counts.get(prof.inertia, 0) + 1
        freqs[prof.frequency] = freqs.get(prof.frequency, 0) + 1
        reps.setdefault(prof.inertia, mat)
        if not prof.suspect_inertia and prof.refined[2] == generic_zeros:
            solid.setdefault(prof.inertia, mat)
    return Census(cfg.trials, counts, reps, freqs, failures, solid)


def _raw(reps: dict) -> list:
    return [(k, m.dtype.str, m.shape, m.tobytes()) for k, m in reps.items()]


def assert_same_census(got: Census, want: Census) -> None:
    assert got.trials == want.trials
    assert got.failures == want.failures
    # Item lists, not dicts: insertion order (first occurrence) must match too.
    assert list(got.inertia_counts.items()) == list(want.inertia_counts.items())
    assert list(got.frequency_counts.items()) == list(want.frequency_counts.items())
    assert _raw(got.representatives) == _raw(want.representatives)
    assert _raw(got.solid_representatives) == _raw(want.solid_representatives)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_census_overflowing_law_matches_oracle(pat):
    """Trials whose norm overflows are failures in both, and everything else agrees."""
    cfg = SampleConfig(lo=1e-300, hi=1e300, trials=300, seed=11)
    got = census(pat("PAT_TWOCYC82"), cfg)
    assert got.failures > 0
    assert_same_census(got, oracle_census(pat("PAT_TWOCYC82"), cfg))


@st.composite
def patterns(draw, max_n: int = 10) -> SignPattern:
    n = draw(st.integers(1, max_n))
    density = draw(st.sampled_from((0.2, 0.4, 0.7, 1.0)))
    cells = draw(st.lists(st.floats(0, 1), min_size=n * n, max_size=n * n))
    signs = draw(st.lists(st.sampled_from((-1, 1)), min_size=n * n, max_size=n * n))
    return SignPattern.from_rows(
        [
            [signs[i * n + j] if cells[i * n + j] < density else 0 for j in range(n)]
            for i in range(n)
        ]
    )


LAWS = {"wide": (1e-2, 1e2), "narrow-fallback": (3.0, 5.0)}


@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    pattern=patterns(),
    trials=st.sampled_from((1, 255, 256, 257, 1000)),
    law=st.sampled_from(sorted(LAWS)),
    seed=st.integers(0, 2**32 - 1),
)
def test_census_matches_per_trial_oracle(pattern, trials, law, seed):
    lo, hi = LAWS[law]
    cfg = SampleConfig(lo=lo, hi=hi, trials=trials, seed=seed)
    assert_same_census(census(pattern, cfg), oracle_census(pattern, cfg))


@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    pattern=patterns(),
    prior_trials=st.sampled_from((1, 255, 256, 257, 512, 1000)),
    extra=st.sampled_from((0, 1, 255, 256, 300, 1000)),
    law=st.sampled_from(sorted(LAWS)),
    seed=st.integers(0, 2**32 - 1),
)
def test_resumed_census_equals_fresh(pattern, prior_trials, extra, law, seed):
    lo, hi = LAWS[law]
    cfg = SampleConfig(lo=lo, hi=hi, trials=prior_trials + extra, seed=seed)
    prior = census(pattern, replace(cfg, trials=prior_trials))
    before = replace(
        prior,
        inertia_counts=dict(prior.inertia_counts),
        representatives=dict(prior.representatives),
        frequency_counts=dict(prior.frequency_counts),
        solid_representatives=dict(prior.solid_representatives),
    )
    assert_same_census(census(pattern, cfg, prior=prior), census(pattern, cfg))
    assert_same_census(prior, before)


def test_census_refuses_a_longer_prior():
    pattern = FIXTURES["PAT_EX26"].pattern
    prior = census(pattern, SampleConfig(trials=300))
    with pytest.raises(ValueError):
        census(pattern, SampleConfig(trials=299), prior=prior)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    pattern=patterns(),
    index=st.integers(0, 5000),
    seed=st.integers(0, 2**32 - 1),
    law=st.sampled_from(sorted(LAWS)),
)
def test_sample_and_profile_match_scalar_reference(pattern, index, seed, law):
    lo, hi = LAWS[law]
    cfg = SampleConfig(lo=lo, hi=hi, seed=seed)
    mat = sample(pattern, cfg, index)
    assert mat.tobytes() == scalar_sample(pattern, cfg, index).tobytes()
    assert spectral_profile(mat) == scalar_profile(mat)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    rows=st.integers(1, 300),
    n=st.integers(1, 24),
    density=st.sampled_from((0.1, 0.5, 1.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_stack_thresholds_match_per_matrix_norm(rows, n, density, seed):
    rng = np.random.default_rng(seed)
    mats = rng.standard_normal((rows, n, n)) * 10.0 ** rng.uniform(-3, 3, (rows, n, n))
    mats[rng.random((rows, n, n)) >= density] = 0.0
    tol, floor = spectra._stack_thresholds(mats)
    want = [spectra._thresholds(float(np.linalg.norm(m))) for m in mats]
    assert tol.tobytes() == np.array([w[0] for w in want]).tobytes()
    assert floor.tobytes() == np.array([w[1] for w in want]).tobytes()


@pytest.mark.parametrize(
    "name, cycle, matching",
    [
        ("PAT_XXEG22", (0, 1, 2, 3), None),
        ("PAT_XX1", (0, 1, 2), None),
        ("PAT_ALLNEG4", None, [(0, 1), (2, 3)]),
    ],
)
def test_stabilize_matches_per_epsilon_loop(name, cycle, matching):
    pattern = FIXTURES[name].pattern
    if cycle:
        parts = (directed_cycle_from_vertices(build_digraph(pattern), cycle),)
    else:
        parts = matching_parts(pattern, matching)
    spec = ladder_spec(pattern, parts)
    profiles = []
    for eps in EPSILON_SCHEDULE:
        mat = build_witness(pattern, replace(spec, epsilon=eps))
        profiles.append((eps, mat, scalar_profile(mat)))
    want = next(
        profiles[t]
        for t in range(len(profiles) - 2)
        if len({profiles[t + d][2].inertia for d in range(3)}) == 1
    )
    mat, eps, prof = stabilize_epsilon(pattern, spec)
    assert (mat.tobytes(), eps, prof) == (want[1].tobytes(), want[0], want[2])


def test_census_eigensolver_failures(monkeypatch):
    """A failing stack is redone matrix by matrix; only the bad trials fail."""
    pattern = FIXTURES["PAT_EX26"].pattern
    cfg = SampleConfig(trials=600, seed=23)
    narrow = replace(cfg, lo=NEAR_ONE_LO, hi=NEAR_ONE_HI)
    bad = [scalar_sample(pattern, cfg, 4), scalar_sample(pattern, narrow, 301)]
    original = np.linalg.eigvals
    calls = {"stack": 0, "single": 0}

    def eigvals(a):
        a = np.asarray(a)
        hit = any(np.array_equal(m, b) for m in a.reshape(-1, *a.shape[-2:]) for b in bad)
        calls["stack" if a.ndim == 3 else "single"] += 1
        if hit:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return original(a)

    monkeypatch.setattr(spectra.np.linalg, "eigvals", eigvals)
    # The plain loop, so every count is made on this thread;
    # test_pooled_fallback_solves_in_a_worker covers the pool.
    with cpus(1):
        got = census(pattern, cfg)
    # Stacks of 256, 256 and 88 trials; trials 4 and 301 spoil the first two.
    assert calls["stack"] == 3
    assert calls["single"] == 2 * 256
    want = oracle_census(pattern, cfg)
    assert got.failures == want.failures == 2
    assert sum(got.inertia_counts.values()) + got.failures == cfg.trials
    assert_same_census(got, want)
    # Resumed past the first bad trial, the prior's failure carries over.
    with cpus(1):
        resumed = census(pattern, cfg, prior=census(pattern, replace(cfg, trials=100)))
    assert_same_census(resumed, want)


def cold_census(monkeypatch, pattern, cfg):
    """A fresh census that starts from an empty magnitude cache and leaves the shared one alone."""
    with monkeypatch.context() as m:
        m.setattr(spectra, "_MAGS", {})
        return census(pattern, cfg)


# Support sizes 10 and 20: the narrow one reads prefixes of the wide one's rows.
NARROW, WIDE = FIXTURES["PAT_P6"].pattern, FIXTURES["PAT_TWOSQ9"].pattern
# The first two share a seed, so a cache key that dropped the laws would mix them.
CACHE_CASES = [SampleConfig(), SampleConfig(lo=0.1, hi=30.0), SampleConfig(seed=2**40 + 7)]


@pytest.mark.parametrize(
    "first, second", [(NARROW, WIDE), (WIDE, NARROW)], ids=["narrow-wide", "wide-narrow"]
)
def test_warm_cache_census_equals_cold(monkeypatch, first, second):
    monkeypatch.setattr(spectra, "_MAGS", {})
    for cfg in CACHE_CASES:
        for pattern in (first, second):
            prior = None
            # 600 and 1000 end inside a block, so each resumed census starts unaligned.
            for trials in (600, 1000, 2000):
                fresh = replace(cfg, trials=trials)
                got = census(pattern, fresh, prior=prior)
                assert_same_census(got, cold_census(monkeypatch, pattern, fresh))
                prior = got
    # Eight blocks per case, each kept at the wider support size whichever came first.
    assert len(spectra._MAGS) == 8 * len(CACHE_CASES)
    assert {m.shape[1] for m in spectra._MAGS.values()} == {len(WIDE.support())}


def test_cache_stays_within_its_cap(monkeypatch):
    pattern = FIXTURES["PAT_EX26"].pattern
    cfg = SampleConfig(trials=10 * spectra._BLOCK + 5, seed=11)
    block_bytes = spectra._BLOCK * len(pattern.support()) * 8
    want = cold_census(monkeypatch, pattern, cfg)
    monkeypatch.setattr(spectra, "_MAGS", {})
    monkeypatch.setattr(spectra, "_MAGS_CAP", 3 * block_bytes)
    assert_same_census(census(pattern, cfg), want)
    assert len(spectra._MAGS) == 3
    assert sum(m.nbytes for m in spectra._MAGS.values()) <= spectra._MAGS_CAP
    # A block larger than the cap is used and dropped, not kept.
    monkeypatch.setattr(spectra, "_MAGS_CAP", block_bytes - 1)
    assert_same_census(census(pattern, cfg), want)
    assert not spectra._MAGS


@contextmanager
def cpus(count: int):
    """Censuses as on a process that may use ``count`` CPUs, on a pool of their own."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(spectra, "_cpus", lambda: count)
        m.setattr(spectra, "_POOL", None)
        try:
            yield
        finally:
            if spectra._POOL is not None:
                spectra._POOL.shutdown()


@settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    pattern=patterns(),
    law=st.sampled_from(sorted(LAWS)),
    seed=st.integers(0, 2**32 - 1),
    workers=st.sampled_from((2, 3, 5)),
)
def test_pooled_census_equals_one_cpu(pattern, law, seed, workers):
    lo, hi = LAWS[law]
    runs = {}
    for count in (1, workers):
        with cpus(count):
            prior, runs[count] = None, []
            # 600 and 1000 end inside a block, so each resumed census starts unaligned.
            for trials in (600, 1000, 2000):
                cfg = SampleConfig(lo=lo, hi=hi, trials=trials, seed=seed)
                prior = census(pattern, cfg, prior=prior)
                runs[count].append(prior)
            if count > 1:
                # The calling thread solves one stack of each round itself.
                assert spectra._POOL._max_workers == count - 1
    for got, want in zip(runs[workers], runs[1]):
        assert_same_census(got, want)


@pytest.mark.parametrize(
    "count, trials, resumed",
    [(1, 1000, False), (4, 256, False), (1, 1000, True), (4, 1000, True)],
    ids=["one-cpu", "one-stack", "no-stack-one-cpu", "no-stack"],
)
def test_census_without_pool_starts_no_thread(monkeypatch, count, trials, resumed):
    """One CPU or at most one stack: the plain loop on the calling thread.

    A census resumed from a prior of as many trials has no stack to solve
    and returns the prior's tallies.
    """
    pattern = FIXTURES["PAT_TWOSQ9"].pattern
    cfg = SampleConfig(trials=trials, seed=5)
    want = oracle_census(pattern, cfg)
    prior = want if resumed else None
    callers = set()
    original = np.linalg.eigvals

    def eigvals(a):
        callers.add(threading.get_ident())
        return original(a)

    monkeypatch.setattr(spectra.np.linalg, "eigvals", eigvals)
    threads = set(threading.enumerate())
    with cpus(count):
        got = census(pattern, cfg, prior=prior)
        assert spectra._POOL is None
    assert set(threading.enumerate()) == threads
    assert callers == (set() if resumed else {threading.get_ident()})
    assert_same_census(got, want)


def wait_for_pool(monkeypatch):
    """Collect every pool solve from the pool, never taking one back."""
    monkeypatch.setattr(spectra, "_collect", lambda mats, solve: (mats, *solve.result()))


def test_pooled_fallback_solves_in_a_worker(monkeypatch):
    """A failing stack is redone matrix by matrix on the pool thread that solved it."""
    pattern = FIXTURES["PAT_EX26"].pattern
    cfg = SampleConfig(trials=1000, seed=23)
    narrow = replace(cfg, lo=NEAR_ONE_LO, hi=NEAR_ONE_HI)
    # Stacks 0 and 2 of each round-of-two census go to the pool.
    bad = [scalar_sample(pattern, cfg, 4), scalar_sample(pattern, narrow, 601)]
    original = np.linalg.eigvals
    single_threads = []

    def eigvals(a):
        a = np.asarray(a)
        if a.ndim == 2:
            single_threads.append(threading.current_thread().name)
        if any(np.array_equal(m, b) for m in a.reshape(-1, *a.shape[-2:]) for b in bad):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return original(a)

    monkeypatch.setattr(spectra.np.linalg, "eigvals", eigvals)
    wait_for_pool(monkeypatch)
    with cpus(2):
        got = census(pattern, cfg)
        resumed = census(pattern, cfg, prior=census(pattern, replace(cfg, trials=512)))
    # Trials 4 and 601 spoil one stack each in every census that draws them.
    assert len(single_threads) == 4 * 256
    assert all(name.startswith("signum-census") for name in single_threads)
    want = oracle_census(pattern, cfg)
    assert got.failures == want.failures == 2
    assert_same_census(got, want)
    assert_same_census(resumed, want)


def test_unstarted_pool_solves_are_taken_back(monkeypatch):
    """With the pool's one thread held up, the calling thread solves every stack."""
    pattern = FIXTURES["PAT_TWOSQ9"].pattern
    cfg = SampleConfig(trials=1000, seed=8)
    callers = []
    original = np.linalg.eigvals

    def eigvals(a):
        callers.append(threading.get_ident())
        return original(a)

    release = threading.Event()
    with cpus(2):
        pool = spectra._census_pool()
        held = pool.submit(release.wait, 60)
        monkeypatch.setattr(spectra.np.linalg, "eigvals", eigvals)
        try:
            got = census(pattern, cfg)
        finally:
            release.set()
        assert held.result(timeout=60)
    assert callers == [threading.get_ident()] * 4
    assert_same_census(got, oracle_census(pattern, cfg))


def test_pooled_census_propagates_other_errors(monkeypatch):
    pattern = FIXTURES["PAT_EX26"].pattern
    cfg = SampleConfig(trials=2000, seed=3)
    third_block = scalar_sample(pattern, cfg, 2 * spectra._BLOCK)
    original = np.linalg.eigvals
    raised_in = []

    def eigvals(a):
        if np.array_equal(a[0], third_block):
            raised_in.append(threading.current_thread().name)
            raise MemoryError("no room for the stack")
        return original(a)

    wait_for_pool(monkeypatch)
    with cpus(2):
        monkeypatch.setattr(spectra.np.linalg, "eigvals", eigvals)
        with pytest.raises(MemoryError, match="no room"):
            census(pattern, cfg)
        assert len(raised_in) == 1 and raised_in[0].startswith("signum-census")
        # The pool outlives the error and the next census is whole.
        monkeypatch.setattr(spectra.np.linalg, "eigvals", original)
        assert_same_census(census(pattern, cfg), oracle_census(pattern, cfg))


def full_stack_stabilize(pattern: SignPattern, spec):
    """The epsilon walk that solves every step of the schedule as one stack."""
    base = build_witness(pattern, replace(spec, epsilon=0.0))
    rest = np.where(base == 0, pattern.to_array(), 0)
    schedule = spectra.EPSILON_SCHEDULE
    mats = base + np.array(schedule)[:, None, None] * rest
    eig = np.linalg.eigvals(mats)
    tol, floor = spectra._stack_thresholds(mats)
    inertia = spectra._classify(eig, tol, floor).inertia
    same = (inertia[1:] == inertia[:-1]).all(axis=1)
    settled = np.flatnonzero(same[:-1] & same[1:])
    if not len(settled):
        raise NoStabilization("never settled")
    t = int(settled[0])
    return mats[t].copy(), schedule[t], spectra._profile(eig[t], tol[t], floor[t]), t


def fixture_specs():
    """Every orientation of every listed cycle and every single edge of each valid fixture."""
    for name in sorted(FIXTURES):
        pattern = FIXTURES[name].pattern
        facts = PatternAnalysis(pattern)
        if not facts.flags.all_ok():
            continue
        parts = [
            (directed_cycle_from_vertices(facts.digraph, c),)
            for cyc in facts.shape.cycles
            for c in (cyc, cyc[::-1])
        ]
        edges = sorted(facts.graph.negative_edges()) + sorted(facts.graph.positive_edges())
        parts += [matching_parts(pattern, [e]) for e in edges]
        for part in parts:
            for base in (10.0, 2.0):
                yield name, pattern, ladder_spec(pattern, part, base=base)


def count_solves(monkeypatch):
    calls = []
    original = np.linalg.eigvals

    def eigvals(a):
        calls.append(np.ndim(a))
        return original(a)

    monkeypatch.setattr(spectra.np.linalg, "eigvals", eigvals)
    return calls


def test_stabilize_matches_full_stack(monkeypatch):
    seen = 0
    for name, pattern, spec in fixture_specs():
        try:
            want = full_stack_stabilize(pattern, spec)
        except NoStabilization:
            with pytest.raises(NoStabilization):
                stabilize_epsilon(pattern, spec)
            continue
        with monkeypatch.context() as m:
            calls = count_solves(m)
            try:
                mat, eps, prof = stabilize_epsilon(pattern, spec)
            except spectra.DegenerateBase:
                continue
        seen += 1
        assert (mat.tobytes(), eps, prof) == (want[0].tobytes(), want[1], want[2]), name
        # The base, then one solve per step up to the settled triple.
        assert calls == [2] * (want[3] + 4), name
    assert seen > 100


def test_stabilize_never_settling_solves_every_step(monkeypatch):
    """Inertias alternate when the schedule does, so no triple settles."""
    pattern = FIXTURES["PAT_EG06"].pattern
    spec = ladder_spec(pattern, matching_parts(pattern, [(0, 1)]))
    monkeypatch.setattr(spectra, "EPSILON_SCHEDULE", (1e-1, 1e-12) * 6)
    with pytest.raises(NoStabilization):
        full_stack_stabilize(pattern, spec)
    calls = count_solves(monkeypatch)
    with pytest.raises(NoStabilization):
        stabilize_epsilon(pattern, spec)
    assert calls == [2] * 13


@st.composite
def trees(draw, max_n: int = 24) -> SignPattern:
    """A path or a random-attach tree, randomly labelled, with random arc signs."""
    n = draw(st.integers(2, max_n))
    if draw(st.booleans()):
        parents = list(range(n - 1))
    else:
        parents = [draw(st.integers(0, v - 1)) for v in range(1, n)]
    label = draw(st.permutations(range(n)))
    grid = [[0] * n for _ in range(n)]
    for v, u in enumerate(parents, start=1):
        grid[label[u]][label[v]] = draw(st.sampled_from((-1, 1)))
        grid[label[v]][label[u]] = draw(st.sampled_from((-1, 1)))
    return SignPattern.from_rows(grid)


def r9_frequencies(cen: Census) -> dict:
    return {str(list(k)): v for k, v in sorted(cen.frequency_counts.items())}


@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    pattern=trees(),
    trials=st.sampled_from((1, 255, 256, 257, 600)),
    seed=st.integers(0, 2**40),
)
def test_r9_fold_equals_flipped_census(pattern, trials, seed):
    cfg = SampleConfig(trials=trials, seed=seed)
    flipped = p_minus(pattern)
    want = census(flipped, cfg)
    # A budget of cfg.trials resumes the main census with nothing left to draw.
    verdict = analyze(pattern, cfg, witness_budget=trials)
    assert verdict.census.failures == want.failures == 0
    assert _flipped_frequencies(flipped, verdict.census, cfg) == want.frequency_counts
    r9 = next(f for f in verdict.findings if f.rule_id == "R9")
    assert r9.details == {
        "flipped_pattern": flipped.to_text().splitlines(),
        "flipped_frequencies": r9_frequencies(want),
        "flipped_consistent_observed": want.consistent_observed,
    }


def test_r9_fold_adds_up_inertias_with_one_zero_count():
    cen = Census(10, {(2, 1, 1): 3, (1, 2, 1): 4, (2, 2, 0): 3}, {}, {})
    flipped = p_minus(FIXTURES["PAT_P4"].pattern)
    assert _flipped_frequencies(flipped, cen, SampleConfig(trials=10)) == {(1, 3): 7, (0, 4): 3}


def test_r9_draws_the_flipped_census_after_a_failed_solve(monkeypatch):
    """A failed main trial may solve when flipped, so the fold would miss it."""
    pattern = FIXTURES["PAT_P8P"].pattern
    cfg = SampleConfig(trials=600, seed=23)
    narrow = replace(cfg, lo=NEAR_ONE_LO, hi=NEAR_ONE_HI)
    bad = [scalar_sample(pattern, cfg, 4), scalar_sample(pattern, narrow, 301)]
    original = np.linalg.eigvals

    def eigvals(a):
        a = np.asarray(a)
        if any(np.array_equal(m, b) for m in a.reshape(-1, *a.shape[-2:]) for b in bad):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return original(a)

    monkeypatch.setattr(spectra.np.linalg, "eigvals", eigvals)
    with cpus(1):
        verdict = analyze(pattern, cfg)
        want = census(p_minus(pattern), cfg)
    assert verdict.census.failures == 2
    assert want.failures == 0
    r9 = next(f for f in verdict.findings if f.rule_id == "R9")
    assert r9.details["flipped_frequencies"] == r9_frequencies(want)
    assert sum(want.frequency_counts.values()) == cfg.trials
    assert sum(verdict.census.inertia_counts.values()) == cfg.trials - 2


def full_classify(eig: np.ndarray, tol: np.ndarray, floor: np.ndarray) -> dict:
    """Every band of the classifier as it stood before the census dropped two."""
    tol = np.asarray(tol, dtype=float)[:, None]
    floor = np.asarray(floor, dtype=float)[:, None]
    big = 10 * tol
    re, im, mod = np.abs(eig.real), np.abs(eig.imag), np.abs(eig)
    i_plus = np.sum(eig.real > tol, axis=1)
    i_minus = np.sum(eig.real < -tol, axis=1)
    borderline = (
        np.any((re > tol) & (re <= big), axis=1)
        | np.any((mod > tol) & (mod <= big), axis=1)
        | np.any((im > tol) & (im <= big), axis=1)
    )
    suspect_inertia = np.any((re > floor) & (re <= big), axis=1)
    suspect = (
        suspect_inertia
        | np.any((mod > floor) & (mod <= big), axis=1)
        | np.any((im > floor) & (im <= big), axis=1)
    )
    return dict(
        i_plus=i_plus,
        i_minus=i_minus,
        i_zero=eig.shape[1] - i_plus - i_minus,
        i_z=np.sum(mod <= tol, axis=1),
        k_real=np.sum(im <= tol, axis=1),
        borderline=borderline,
        suspect=suspect,
        suspect_inertia=suspect_inertia,
    )


def band_parts(rng: np.random.Generator, shape, tol: np.ndarray) -> np.ndarray:
    """Signed values from exact zeros up to 100 thresholds, many on a band edge."""
    scale = 10.0 ** rng.uniform(-6, 2, shape)
    edges = np.array([0.0, 1e-4, 1e-3, 0.5, 1.0, 2.0, 10.0, 20.0])
    scale = np.where(rng.random(shape) < 0.5, edges[rng.integers(0, len(edges), shape)], scale)
    return rng.choice((-1.0, 1.0), shape) * scale * tol[:, None]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    rows=st.integers(1, 300),
    n=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_classify_matches_full_classifier(rows, n, seed):
    rng = np.random.default_rng(seed)
    tol = 10.0 ** rng.uniform(-9, -5, rows)
    floor = tol * 1e-4
    eig = band_parts(rng, (rows, n), tol) + 1j * band_parts(rng, (rows, n), tol)
    got = spectra._classify(eig, tol, floor)
    want = full_classify(eig, tol, floor)
    for name in got._fields:
        assert np.array_equal(getattr(got, name), want[name]), name


MULTIPLES = (0.5, 1.0, 2.0, 10.0, 20.0)
BANDS = ("borderline", "suspect", "suspect_inertia")


def hand_spectra(tol: float, floor: float) -> list[list[complex]]:
    """Real parts, imaginary parts and moduli at multiples of tol and between floor and tol.

    Each spectrum also holds the eigenvalue 1, so a matrix realizing it has
    a norm of order one, as the thresholds passed in assume.
    """
    values = [m * tol for m in MULTIPLES] + [10 * floor, 0.5 * (floor + tol)]
    out = []
    for v in values:
        w = v / math.sqrt(2)
        out += [[v], [-v], [1j * v, -1j * v], [1 + 1j * v, 1 - 1j * v], [v + 1j, v - 1j]]
        out += [[w + 1j * w, w - 1j * w], [-w + 1j * w, -w - 1j * w]]
    return [[1.0] + spec for spec in out]


def oracle_bands(eig: np.ndarray, tol: float, floor: float) -> tuple[bool, ...]:
    eig = eig[np.lexsort((eig.imag, eig.real))]
    want = full_classify(eig[None], [tol], [floor])
    return tuple(bool(want[k][0]) for k in BANDS)


def realize(spectrum: list[complex]) -> np.ndarray:
    """A block-diagonal real matrix with the given spectrum (pairs given as a, conj(a))."""
    blocks, values = [], list(spectrum)
    while values:
        z = values.pop(0)
        if z.imag == 0:
            blocks.append(np.array([[z.real]]))
        else:
            assert values.pop(0) == z.conjugate()
            blocks.append(np.array([[z.real, z.imag], [-z.imag, z.real]]))
    n = sum(len(b) for b in blocks)
    a, at = np.zeros((n, n)), 0
    for b in blocks:
        a[at : at + len(b), at : at + len(b)] = b
        at += len(b)
    return a


def test_profile_bands_match_full_classifier():
    tol, floor = spectra._thresholds(1.0)
    seen = set()
    for spectrum in hand_spectra(tol, floor):
        # The eigenvalues as given, so the bands' edges are hit exactly.
        eig = np.array(spectrum, dtype=complex)
        prof = spectra._profile(eig, tol, floor)
        bands = tuple(getattr(prof, k) for k in BANDS)
        assert bands == oracle_bands(eig, tol, floor)
        seen.add(bands)
        # A matrix with that spectrum, through spectral_profile.
        mat = realize(spectrum)
        prof = spectral_profile(mat)
        want = oracle_bands(np.linalg.eigvals(mat), *spectra._thresholds(float(np.linalg.norm(mat))))
        assert tuple(getattr(prof, k) for k in BANDS) == want
    # Every combination the bands allow shows up; a borderline profile is suspect.
    assert seen == {
        (False, False, False),
        (False, True, False),
        (False, True, True),
        (True, True, False),
        (True, True, True),
    }
