"""The batched census against a per-trial oracle.

``census`` draws, eigensolves and classifies its trials a block at a time.
The oracle below is the per-trial loop it replaced, with its own scalar
sampler and classifier, so the comparison does not lean on the code under
test.  Agreement must be exact: counts, frequencies, failures and the raw
bytes of every solid representative.  A census read off an analysis's
record, after reads of fewer or more trials extended it, must equal a fresh
census to the same standard, and so must a census that reads its magnitudes
from blocks other censuses left in the shared cache, and so must a census
whose blocks are shared with the thread pool.

R9 reads the edge-flipped pattern's frequencies off the main census; a real
census of the flipped pattern is its oracle.  The stack classifier computes
only the bands a census reads; the full classifier it was cut from is kept
below as the oracle for those fields and for the profile's own bands.
``_profile`` classifies value by value; the whole-array numpy profile built
on that full classifier is its oracle.
"""

from __future__ import annotations

import math
import sys
import threading
import time
import tracemalloc
import weakref
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from signum import fixtures, spectra
from signum.cycles import PatternAnalysis, directed_cycle_from_vertices
from signum.errors import EigenFailure, NonFinite, NoStabilization
from signum.fixtures import CENSUS_CFG, FIXTURES
from signum.patterns import SignPattern, p_minus
from signum.spectra import (
    DEFAULT_SEED,
    EPSILON_SCHEDULE,
    NEAR_ONE_HI,
    NEAR_ONE_LO,
    Census,
    SampleConfig,
    SpectralProfile,
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
    generic_zeros = pattern.n - pattern.max_composite_length
    counts, solid, freqs, failures = {}, {}, {}, 0
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
        if not prof.suspect_inertia and prof.refined[2] == generic_zeros:
            solid.setdefault(prof.inertia, mat)
    return Census(cfg.trials, counts, freqs, failures, solid)


def _raw(reps: dict) -> list:
    return [(k, m.dtype.str, m.shape, m.tobytes()) for k, m in reps.items()]


def assert_same_census(got: Census, want: Census) -> None:
    assert got.trials == want.trials
    assert got.failures == want.failures
    # Item lists, not dicts: insertion order (first occurrence) must match too.
    assert list(got.inertia_counts.items()) == list(want.inertia_counts.items())
    assert list(got.frequency_counts.items()) == list(want.frequency_counts.items())
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
    drawn=st.sampled_from((1, 255, 256, 257, 512, 1000)),
    extra=st.sampled_from((0, 1, 255, 256, 300, 1000)),
    law=st.sampled_from(sorted(LAWS)),
    seed=st.integers(0, 2**32 - 1),
)
def test_extended_record_equals_fresh_census(pattern, drawn, extra, law, seed):
    lo, hi = LAWS[law]
    cfg = SampleConfig(lo=lo, hi=hi, trials=drawn + extra, seed=seed)
    facts = PatternAnalysis(pattern)
    first = census(facts, replace(cfg, trials=drawn))
    before = replace(
        first,
        inertia_counts=dict(first.inertia_counts),
        frequency_counts=dict(first.frequency_counts),
        solid_representatives=dict(first.solid_representatives),
    )
    assert_same_census(census(facts, cfg), census(pattern, cfg))
    assert_same_census(first, before)


def test_census_keeps_owned_copies_of_solid_samples_only():
    """Each solid representative holds its own n x n matrix and nothing more.

    A representative is filled again from its trial's magnitudes; a view
    into a larger stack would keep the whole stack alive.  A key never
    sampled solidly keeps its count and no matrix; the catalog has such
    keys.  The golden test pins the bytes of every kept matrix.
    """
    unkept = 0
    for fixture in FIXTURES.values():
        cen = census(fixture.pattern, CENSUS_CFG)
        for m in cen.solid_representatives.values():
            assert (m if m.base is None else m.base).nbytes == m.nbytes == 8 * m.size
        assert set(cen.solid_representatives) <= set(cen.inertia_counts)
        unkept += len(cen.inertia_counts) - len(cen.solid_representatives)
    assert unkept > 0


def test_one_tally_keeps_late_solid_keys_and_non_firm_frequencies():
    """A read's one tally feeds the counts and frequencies, firm rows and others alike.

    On PAT_SQTRI8 at the default seed, inertia (3, 3, 2) first shows at
    trial 18 but is first solid at trial 312, a block later; frequency
    (8, 0) first shows at trial 0, which is not firm.  On a record of 100
    or 300 trials the key's first sample is drawn and its first solid
    sample is in the part drawn on extending it.  Read again once the
    record holds trial 312, the shorter census still has no solid key.
    """
    pattern = FIXTURES["PAT_SQTRI8"].pattern
    cfg = SampleConfig(trials=600)
    narrow = replace(cfg, lo=NEAR_ONE_LO, hi=NEAR_ONE_HI)
    generic_zeros = pattern.n - pattern.max_composite_length
    firm, inertias = [], []
    for t in range(313):
        prof = scalar_profile(scalar_sample(pattern, narrow if t % 2 else cfg, t))
        firm.append(not prof.suspect_inertia and prof.refined[2] == generic_zeros)
        inertias.append(prof.inertia)
        if t == 0:
            assert prof.frequency == (8, 0) and not firm[0]
    late = [t for t, key in enumerate(inertias) if key == (3, 3, 2)]
    assert late[0] == 18 and not firm[18]
    assert [t for t in late if firm[t]][0] == 312
    want = oracle_census(pattern, cfg)
    assert next(iter(want.frequency_counts)) == (8, 0)
    got = census(pattern, cfg)
    assert_same_census(got, want)
    for drawn in (100, 300):
        facts = PatternAnalysis(pattern)
        shorter = census(facts, replace(cfg, trials=drawn))
        assert (3, 3, 2) in shorter.inertia_counts
        assert (3, 3, 2) not in shorter.solid_representatives
        assert_same_census(census(facts, cfg), want)
        assert_same_census(census(facts, replace(cfg, trials=drawn)), shorter)


def test_shorter_read_after_a_longer_one_equals_fresh(monkeypatch):
    """A read of fewer trials than the record holds draws nothing and equals a fresh census."""
    pattern = FIXTURES["PAT_EX26"].pattern
    facts = PatternAnalysis(pattern)
    census(facts, SampleConfig(trials=300))
    want = census(pattern, SampleConfig(trials=299))
    rows = count_solved_rows(monkeypatch)
    assert_same_census(census(facts, SampleConfig(trials=299)), want)
    assert rows == []


read_cfgs = st.builds(
    lambda trials, seed, law: SampleConfig(lo=law[0], hi=law[1], trials=trials, seed=seed),
    st.sampled_from((1, 255, 256, 257, 600, 1000, 2000)),
    st.sampled_from((DEFAULT_SEED, 20240901)),
    st.sampled_from(((1e-2, 1e2), (1e-3, 1e3))),
)


@settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    pattern=patterns(),
    reads=st.lists(read_cfgs, min_size=1, max_size=6),
    workers=st.sampled_from((1, 2, 3)),
)
# On PAT_SQTRI8 inertia (3, 3, 2) is first seen at trial 18 and first firm
# at trial 312 (test_one_tally_keeps_late_solid_keys_and_non_firm_frequencies).
@example(
    pattern=FIXTURES["PAT_SQTRI8"].pattern,
    reads=[SampleConfig(trials=t) for t in (257, 1000, 256, 600, 1)],
    workers=2,
)
# Each read after the first starts mid-block: at trials 255, 257 and 600.
@example(
    pattern=FIXTURES["PAT_SQTRI8"].pattern,
    reads=[SampleConfig(trials=t) for t in (255, 257, 600, 1000)],
    workers=3,
)
def test_every_read_of_one_record_equals_a_fresh_census(pattern, reads, workers):
    """Reads of one analysis, longer or shorter, under either seed and law, each equal a fresh one.

    The record is drawn on ``workers`` CPUs; the fresh census on one.
    """
    facts = PatternAnalysis(pattern)
    for cfg in reads:
        with cpus(workers):
            got = census(facts, cfg)
        with cpus(1):
            assert_same_census(got, census(pattern, cfg))


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
    _, ok, tol, floor = spectra._solve_stack(mats)
    assert ok.all()
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
        parts = (directed_cycle_from_vertices(pattern, cycle),)
    else:
        parts = matching_parts(pattern, matching)
    spec = ladder_spec(parts)
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
    # One CPU, so every count is made on this thread;
    # test_pooled_fallback_solves_on_the_taking_thread covers the pool.
    with cpus(1):
        got = census(pattern, cfg)
    # Three blocks of 256, 256 and 88 trials; trials 4 and 301 spoil the
    # first two, each redone matrix by matrix.
    assert calls["stack"] == 3
    assert calls["single"] == 2 * spectra._BLOCK
    want = oracle_census(pattern, cfg)
    assert got.failures == want.failures == 2
    assert sum(got.inertia_counts.values()) + got.failures == cfg.trials
    assert_same_census(got, want)
    # Extended past the first bad trial, the record's failure carries over.
    facts = PatternAnalysis(pattern)
    with cpus(1):
        census(facts, replace(cfg, trials=100))
        extended = census(facts, cfg)
    assert_same_census(extended, want)


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
            facts = PatternAnalysis(pattern)
            # 600 and 1000 end inside a block, so each extension starts unaligned.
            for trials in (600, 1000, 2000):
                fresh = replace(cfg, trials=trials)
                got = census(facts, fresh)
                assert_same_census(got, cold_census(monkeypatch, pattern, fresh))
    # Eight blocks per case, each kept at the wider support size whichever came first.
    assert len(spectra._MAGS) == 8 * len(CACHE_CASES)
    assert {m.shape[1] for m in spectra._MAGS.values()} == {len(WIDE.support())}


def test_widened_block_is_drawn_again_whole(monkeypatch):
    """A block asked for wider is drawn again at the wider width, and equals a fresh wide block."""
    laws = ((1e-2, 1e2), (NEAR_ONE_LO, NEAR_ONE_HI))
    drawn = []
    block_uniforms = spectra.block_uniforms

    def counted(seed, block, k):
        drawn.append((block, k))
        return block_uniforms(seed, block, k)

    monkeypatch.setattr(spectra, "block_uniforms", counted)
    monkeypatch.setattr(spectra, "_MAGS", {})
    narrow = spectra._block_magnitudes(1729, laws, 3, 10)
    wide = spectra._block_magnitudes(1729, laws, 3, 20)
    assert spectra._block_magnitudes(1729, laws, 3, 15) is wide
    assert drawn == [(3, 10), (3, 20)]
    assert list(spectra._MAGS.values()) == [wide]
    assert not wide.flags.writeable
    assert wide[:, :10].tobytes() == narrow.tobytes()
    monkeypatch.setattr(spectra, "_MAGS", {})
    fresh = spectra._block_magnitudes(1729, laws, 3, 20)
    assert fresh.shape == wide.shape == (spectra._BLOCK, 20)
    assert fresh.tobytes() == wide.tobytes()


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


def test_concurrent_censuses_widen_shared_blocks(monkeypatch):
    """Two threads widen the same cached blocks at once; each census equals its sequential self.

    NARROW and WIDE differ in support size, so whichever thread reads a
    block second at the wider size draws it again whole.  The cap holds
    five wide blocks, so blocks are evicted while both threads read them.
    """
    cap = 5 * spectra._BLOCK * len(WIDE.support()) * 8
    cfgs = [SampleConfig(trials=1500, seed=seed) for seed in (3, 4, 5)]
    want = {(p, cfg): cold_census(monkeypatch, p, cfg) for p in (NARROW, WIDE) for cfg in cfgs}
    monkeypatch.setattr(spectra, "_MAGS", {})
    monkeypatch.setattr(spectra, "_MAGS_CAP", cap)
    got, interval = {}, sys.getswitchinterval()

    def run(pattern, barrier):
        for cfg in cfgs:
            barrier.wait(20)
            got[pattern, cfg] = census(pattern, cfg)

    barrier = threading.Barrier(2)
    threads = [threading.Thread(target=run, args=(p, barrier)) for p in (NARROW, WIDE)]
    sys.setswitchinterval(1e-6)
    try:
        with cpus(1):
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got.keys() == want.keys()
    for key in want:
        assert_same_census(got[key], want[key])
    assert sum(m.nbytes for m in spectra._MAGS.values()) <= cap


def test_block_asked_for_wider_mid_draw_waits_and_redraws_it(monkeypatch):
    """A thread asking wider for a block another thread is drawing waits, then redraws it whole."""
    laws = ((1e-2, 1e2), (NEAR_ONE_LO, NEAR_ONE_HI))
    drawn, drawing = [], threading.Event()
    block_uniforms = spectra.block_uniforms

    def slow(seed, block, k):
        drawn.append((block, k))
        if not drawing.is_set():
            drawing.set()
            time.sleep(0.2)  # the other thread asks for the block meanwhile
        return block_uniforms(seed, block, k)

    monkeypatch.setattr(spectra, "block_uniforms", slow)
    monkeypatch.setattr(spectra, "_MAGS", {})
    narrow = threading.Thread(target=spectra._block_magnitudes, args=(1729, laws, 3, 10))
    narrow.start()
    assert drawing.wait(20)
    wide = run_bounded(lambda: spectra._block_magnitudes(1729, laws, 3, 20))
    narrow.join(20)
    assert drawn == [(3, 10), (3, 20)]
    assert list(spectra._MAGS.values()) == [wide]
    monkeypatch.setattr(spectra, "_MAGS", {})
    assert spectra._block_magnitudes(1729, laws, 3, 20).tobytes() == wide.tobytes()


def test_long_read_keeps_only_its_rows(monkeypatch):
    """A read of N trials leaves its analysis holding 8 N bytes and a few matrices, no more.

    Traced on a 2 x 2 pattern, whose blocks are cheap to draw, with the
    magnitude cache capped at one block so that it holds nothing that grows.
    """
    pattern = SignPattern.from_rows([[0, 1], [-1, 0]])
    monkeypatch.setattr(spectra, "_MAGS", {})
    monkeypatch.setattr(spectra, "_MAGS_CAP", spectra._BLOCK * 2 * 8)
    trials = 200 * spectra._BLOCK + 7
    facts = PatternAnalysis(pattern)
    # The first pool start imports concurrent.futures and logging; that is
    # not the read's to keep, whatever test ran first.
    spectra._census_pool()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cen = census(facts, SampleConfig(trials=trials))
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert cen.failures == 0 and sum(cen.inertia_counts.values()) == trials
    (record,) = facts.censuses.values()
    assert record.nbytes == 8 * trials
    assert 8 * trials <= kept <= 8 * trials + (32 << 10)


def test_reread_peaks_at_40_bytes_per_trial_or_less(monkeypatch):
    """A re-read of an already-drawn 1,000-trial record peaks at 40 bytes per trial or less.

    The record holds 8 bytes per trial.  The read's tally copies each masked
    row once, as one code, plus what sorting the codes takes, and no column
    of the record widened to 64 bits.  The magnitude cache starts empty, so
    the re-read finds its representatives' blocks where the draw left them.
    """
    monkeypatch.setattr(spectra, "_MAGS", {})
    facts = PatternAnalysis(FIXTURES["PAT_EX26"].pattern)
    want = census(facts, CENSUS_CFG)
    tracemalloc.start()
    try:
        got = census(facts, CENSUS_CFG)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert_same_census(got, want)
    assert peak <= 40 * CENSUS_CFG.trials


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
            facts, runs[count] = PatternAnalysis(pattern), []
            # 600 and 1000 end inside a block, so each extension starts unaligned.
            for trials in (600, 1000, 2000):
                cfg = SampleConfig(lo=lo, hi=hi, trials=trials, seed=seed)
                runs[count].append(census(facts, cfg))
            if count > 1:
                # The calling thread takes blocks too.
                assert spectra._POOL._max_workers == count - 1
    for got, want in zip(runs[workers], runs[1]):
        assert_same_census(got, want)


@pytest.mark.parametrize(
    "count, trials, resumed",
    [(1, 1000, False), (4, 256, False), (1, 1000, True), (4, 1000, True)],
    ids=["one-cpu", "one-stack", "no-stack-one-cpu", "no-stack"],
)
def test_census_without_pool_starts_no_thread(monkeypatch, count, trials, resumed):
    """One CPU or one block: every solve on the calling thread.

    A census read off a record of as many trials has no stack to solve.
    """
    pattern = FIXTURES["PAT_TWOSQ9"].pattern
    cfg = SampleConfig(trials=trials, seed=5)
    want = oracle_census(pattern, cfg)
    facts = PatternAnalysis(pattern)
    if resumed:
        with cpus(1):
            census(facts, cfg)
    callers = set()
    original = np.linalg.eigvals

    def eigvals(a):
        callers.add(threading.get_ident())
        return original(a)

    monkeypatch.setattr(spectra.np.linalg, "eigvals", eigvals)
    threads = set(threading.enumerate())
    with cpus(count):
        got = census(facts, cfg)
        assert spectra._POOL is None
    assert set(threading.enumerate()) == threads
    assert callers == (set() if resumed else {threading.get_ident()})
    assert_same_census(got, want)


def run_bounded(fn, timeout: float = 60):
    """fn() on a thread of its own, joined with a timeout: a hung census fails, not hangs."""
    out = {}

    def run():
        try:
            out["value"] = fn()
        except BaseException as exc:
            out["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), f"still running after {timeout} s"
    if "error" in out:
        raise out["error"]
    return out["value"]


def test_pooled_fallback_solves_on_the_taking_thread(monkeypatch):
    """A failing block is redone matrix by matrix on the thread that took it."""
    pattern = FIXTURES["PAT_EX26"].pattern
    cfg = SampleConfig(trials=1000, seed=23)
    narrow = replace(cfg, lo=NEAR_ONE_LO, hi=NEAR_ONE_HI)
    # Trials 4 and 201 spoil block 0 of the 1000-trial census and of the
    # 512-trial one the record is extended from; trials 512-999 hold neither.
    bad = [scalar_sample(pattern, cfg, 4), scalar_sample(pattern, narrow, 201)]
    original = np.linalg.eigvals
    spoiled, single = Counter(), Counter()
    lock = threading.Lock()

    def eigvals(a):
        a = np.asarray(a)
        hit = any(np.array_equal(m, b) for m in a.reshape(-1, *a.shape[-2:]) for b in bad)
        with lock:
            name = threading.current_thread().name
            if a.ndim == 2:
                single[name] += 1
            elif hit:
                spoiled[name] += len(a)
        if hit:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return original(a)

    monkeypatch.setattr(spectra.np.linalg, "eigvals", eigvals)
    with cpus(2):
        got = census(pattern, cfg)
        facts = PatternAnalysis(pattern)
        census(facts, replace(cfg, trials=512))
        extended = census(facts, cfg)
    assert sum(spoiled.values()) == 2 * spectra._BLOCK
    assert single == spoiled
    want = oracle_census(pattern, cfg)
    assert got.failures == want.failures == 2
    assert_same_census(got, want)
    assert_same_census(extended, want)


def test_held_pool_leaves_every_chunk_to_the_caller(monkeypatch):
    """With the pool's one thread held, the calling thread solves every block and waits for none."""
    pattern = FIXTURES["PAT_TWOSQ9"].pattern
    cfg = SampleConfig(trials=1000, seed=8)
    with cpus(1):
        want = census(pattern, cfg)
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
    assert_same_census(got, want)


def test_straggling_pool_chunk_holds_up_no_other_chunk(monkeypatch):
    """The pool thread's first block waits until the caller has solved every other block."""
    pattern = FIXTURES["PAT_TWOSQ9"].pattern
    cfg = SampleConfig(trials=1000, seed=8)
    with cpus(1):
        want = census(pattern, cfg)
    blocks = -(-cfg.trials // spectra._BLOCK)
    original = np.linalg.eigvals
    pool_started, others_done = threading.Event(), threading.Event()
    solved, released = Counter(), []
    lock = threading.Lock()

    def eigvals(a):
        pooled = threading.current_thread().name.startswith("signum-census")
        if pooled and not pool_started.is_set():
            pool_started.set()
            released.append(others_done.wait(20))
        elif not pooled:
            # The caller takes its blocks only once the pool thread holds one.
            pool_started.wait(20)
        result = original(a)
        with lock:
            solved["pool" if pooled else "caller"] += 1
            if solved["caller"] == blocks - 1:
                others_done.set()
        return result

    monkeypatch.setattr(spectra.np.linalg, "eigvals", eigvals)
    with cpus(2):
        got = run_bounded(lambda: census(pattern, cfg))
    assert released == [True]
    assert solved == {"caller": blocks - 1, "pool": 1}
    assert_same_census(got, want)


def test_pooled_census_propagates_other_errors(monkeypatch):
    """An error on the pool thread is raised by the caller, and no block is taken after it."""
    pattern = FIXTURES["PAT_EX26"].pattern
    cfg = SampleConfig(trials=2000, seed=3)  # eight blocks
    original = np.linalg.eigvals
    pool_took, caller_took = threading.Event(), threading.Event()
    helpers, raised_in, solves = [], [], []

    def eigvals(a):
        name = threading.current_thread().name
        if name.startswith("signum-census") and not raised_in:
            # Fail the pool thread's first block once the caller holds one.
            pool_took.set()
            caller_took.wait(20)
            raised_in.append(name)
            raise MemoryError("no room for the stack")
        caller_took.set()
        pool_took.wait(20)
        # Solve only once the pool thread has recorded its error and stopped.
        helpers[0].result(timeout=20)
        solves.append(name)
        return original(a)

    with cpus(2):
        pool = spectra._census_pool()
        submit = pool.submit

        def tracked(*args):
            helpers.append(submit(*args))
            return helpers[-1]

        monkeypatch.setattr(pool, "submit", tracked)
        monkeypatch.setattr(spectra.np.linalg, "eigvals", eigvals)
        with pytest.raises(MemoryError, match="no room"):
            run_bounded(lambda: census(pattern, cfg))
        assert len(raised_in) == 1 and raised_in[0].startswith("signum-census")
        # The caller solved the block it held and took none after the error.
        assert len(helpers) == len(solves) == 1
        assert not solves[0].startswith("signum-census")
        # The pool outlives the error and the next census is whole.
        monkeypatch.setattr(spectra.np.linalg, "eigvals", original)
        assert_same_census(census(pattern, cfg), oracle_census(pattern, cfg))


def test_caller_error_waits_for_the_pool_chunk_in_flight(monkeypatch):
    """The caller raises its own error only once the pool thread's blocks are solved."""
    pattern = FIXTURES["PAT_EX26"].pattern
    cfg = SampleConfig(trials=2000, seed=3)
    original = np.linalg.eigvals
    pool_took, raised = threading.Event(), threading.Event()
    started, finished = [], []

    def eigvals(a):
        if not threading.current_thread().name.startswith("signum-census"):
            pool_took.wait(20)
            raised.set()
            raise MemoryError("no room for the stack")
        started.append(True)
        pool_took.set()
        raised.wait(20)
        result = original(a)
        finished.append(True)
        return result

    def run():
        with pytest.raises(MemoryError, match="no room"):
            census(pattern, cfg)
        return len(started), len(finished)

    monkeypatch.setattr(spectra.np.linalg, "eigvals", eigvals)
    with cpus(2):
        taken, solved = run_bounded(run)
    assert taken >= 1 and solved == taken


def test_shared_counter_hands_out_each_chunk_once(monkeypatch):
    """More threads than cores and a short switch interval: no block solved twice or skipped."""
    pattern = FIXTURES["PAT_EX26"].pattern
    cfg = SampleConfig(trials=2000, seed=3)
    with cpus(1):
        want = census(pattern, cfg)
    heads = []
    original = np.linalg.eigvals

    def eigvals(a):
        heads.append(np.asarray(a)[0].tobytes())
        return original(a)

    monkeypatch.setattr(spectra.np.linalg, "eigvals", eigvals)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with cpus(5):
            got = run_bounded(lambda: census(pattern, cfg))
    finally:
        sys.setswitchinterval(interval)
    # Blocks start at even trials, which follow cfg's law.
    starts = range(0, cfg.trials, spectra._BLOCK)
    assert sorted(heads) == sorted(sample(pattern, cfg, t).tobytes() for t in starts)
    assert_same_census(got, want)


def count_block_work(monkeypatch) -> dict:
    """Each census fill's trials and first four matrices, each stack solve's thread, the tallies."""
    work = {"fills": [], "heads": {}, "stacks": [], "tallies": 0}
    fill, tally, original = spectra._fill, spectra._tally, np.linalg.eigvals

    def counted_fill(pattern, support, seed, laws, start, stop):
        mats = fill(pattern, support, seed, laws, start, stop)
        work["fills"].append((start, stop))
        work["heads"][start, stop] = mats[:4].copy()
        return mats

    def counted_tally(*args):
        work["tallies"] += 1
        return tally(*args)

    def eigvals(a):
        if np.ndim(a) == 3:
            work["stacks"].append(threading.current_thread().name)
        return original(a)

    monkeypatch.setattr(spectra, "_fill", counted_fill)
    monkeypatch.setattr(spectra, "_tally", counted_tally)
    monkeypatch.setattr(spectra.np.linalg, "eigvals", eigvals)
    return work


@pytest.mark.parametrize("count", [1, 2], ids=["one-cpu", "two-cpus"])
def test_census_makes_one_fill_and_one_solve_per_block_and_one_tally(monkeypatch, count):
    pattern = FIXTURES["PAT_TWOSQ9"].pattern
    cfg = SampleConfig(trials=1000, seed=5)
    want = oracle_census(pattern, cfg)
    with cpus(count):
        work = count_block_work(monkeypatch)
        got = census(pattern, cfg)
    # Four blocks, then one 1-trial fill per solid representative.
    solid = len(want.solid_representatives)
    blocks = [(0, 256), (256, 512), (512, 768), (768, 1000)]
    assert sorted(work["fills"][:4]) == blocks
    assert len(work["fills"]) == 4 + solid
    assert all(stop == start + 1 for start, stop in work["fills"][4:])
    assert len(work["stacks"]) == 4
    # The read's one tally; no block tallies anything.
    assert work["tallies"] == 1
    assert_same_census(got, want)
    # Even trials are samples under cfg's law, odd ones under the near-one law.
    narrow = replace(cfg, lo=NEAR_ONE_LO, hi=NEAR_ONE_HI)
    heads = dict(work["heads"])  # sample fills too
    for (start, _), head in heads.items():
        for t, law in enumerate((cfg, narrow, cfg, narrow)[: len(head)]):
            assert head[t].tobytes() == sample(pattern, law, start + t).tobytes()
    assert heads[0, 256][1].tobytes() != sample(pattern, cfg, 1).tobytes()


def count_solved_rows(monkeypatch) -> list[int]:
    """Rows of each census block handed to the eigensolver.

    A single matrix is solved as a stack of one too; only the stacks of
    ``_draw``'s blocks are counted.
    """
    rows = []
    original = spectra._solve_stack

    def solve_stack(mats):
        if sys._getframe(1).f_code.co_name == "block_rows":
            rows.append(len(mats))
        return original(mats)

    monkeypatch.setattr(spectra, "_solve_stack", solve_stack)
    return rows


@pytest.mark.parametrize("trials", [1000, 2500])
def test_witness_census_resumes_the_main_census(monkeypatch, trials):
    """PAT_TWOCYC81's witness comes from sampling, which extends the main census."""
    rows = count_solved_rows(monkeypatch)
    verdict = analyze(FIXTURES["PAT_TWOCYC81"].pattern, SampleConfig(trials=trials))
    assert verdict.witness_pair().method == "sampled"
    assert sum(rows) == max(2000, trials)


@pytest.mark.parametrize("trials", [300, 2500])
def test_witness_census_draws_at_least_its_floor(monkeypatch, trials):
    facts = PatternAnalysis(FIXTURES["PAT_TWOCYC81"].pattern)
    rows = count_solved_rows(monkeypatch)
    assert find_witness_pair(facts, SampleConfig(trials=trials)).method == "sampled"
    assert sum(rows) == max(2000, trials)


def test_verify_draws_one_census_record_per_fixture(monkeypatch):
    """verify-paper's census check and verdict check of a fixture read one record.

    The census checks of PAT_XX2, PAT_EG06, PAT_ALLPLUS4 and PAT_X16 read
    1000 trials under the verdict checks' seed and law, so each verdict's
    600-trial census is a prefix they share: 4 x 600 trials fewer than the
    24,600 of drawing both.
    """
    monkeypatch.setattr(spectra, "_MAGS", {})
    rows = count_solved_rows(monkeypatch)
    outcomes = fixtures.verify()
    assert len(outcomes) == 83
    assert all(outcome.passed for outcome in outcomes)
    assert sum(rows) == 22_200


@pytest.mark.parametrize("count", [1, 2, 3], ids=["one-cpu", "two-cpus", "three-cpus"])
def test_census_holds_at_most_cpus_blocks_of_matrices(monkeypatch, count):
    """No more than ``_cpus()`` blocks of matrices are alive at once, and the record holds none."""
    pattern = FIXTURES["PAT_EX26"].pattern
    cfg = SampleConfig(trials=10 * spectra._BLOCK, seed=23)
    want = oracle_census(pattern, cfg)
    fill = spectra._fill
    alive, peak, lock = [0], [0], threading.Lock()

    def dead():
        with lock:
            alive[0] -= 1

    def tracked(pattern, support, seed, laws, start, stop):
        mats = fill(pattern, support, seed, laws, start, stop)
        if stop - start == spectra._BLOCK:  # a block, not a representative
            with lock:
                alive[0] += 1
                peak[0] = max(peak[0], alive[0])
            weakref.finalize(mats, dead)
        return mats

    monkeypatch.setattr(spectra, "_fill", tracked)
    facts = PatternAnalysis(pattern)
    with cpus(count):
        got = run_bounded(lambda: census(facts, cfg))
    assert 1 <= peak[0] <= count
    assert alive == [0]
    assert_same_census(got, want)
    # The record is one uint16 array of 8 bytes per trial, and nothing else.
    (record,) = facts.censuses.values()
    assert type(record) is np.ndarray and record.base is None
    assert record.dtype == np.uint16 and record.shape == (cfg.trials, 4)


def full_stack_stabilize(pattern: SignPattern, spec):
    """The epsilon walk that solves every step of the schedule as one stack."""
    base = build_witness(pattern, replace(spec, epsilon=0.0))
    rest = np.where(base == 0, pattern.to_array(), 0)
    schedule = spectra.EPSILON_SCHEDULE
    mats = base + np.array(schedule)[:, None, None] * rest
    eig = np.linalg.eigvals(mats)
    tol, floor = spectra._thresholds(np.array([np.linalg.norm(m) for m in mats]))
    c = spectra._classify(eig, tol, floor)
    inertia = np.stack([c.i_plus, c.i_minus, c.i_zero], axis=1)
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
            (directed_cycle_from_vertices(pattern, c),)
            for cyc in facts.shape.cycles
            for c in (cyc, cyc[::-1])
        ]
        edges = sorted(facts.graph.negative_edges()) + sorted(facts.graph.positive_edges())
        parts += [matching_parts(pattern, [e]) for e in edges]
        for part in parts:
            for magnitude in (10.0, 2.0):
                yield name, pattern, WitnessSpec(part, (magnitude,))


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
        # The base, then one solve per step up to the settled triple, each
        # a stack of one.
        assert calls == [3] * (want[3] + 4), name
    assert seen > 100


def test_stabilize_never_settling_solves_every_step(monkeypatch):
    """Inertias alternate when the schedule does, so no triple settles."""
    pattern = FIXTURES["PAT_EG06"].pattern
    spec = ladder_spec(matching_parts(pattern, [(0, 1)]))
    monkeypatch.setattr(spectra, "EPSILON_SCHEDULE", (1e-1, 1e-12) * 6)
    with pytest.raises(NoStabilization):
        full_stack_stabilize(pattern, spec)
    calls = count_solves(monkeypatch)
    with pytest.raises(NoStabilization):
        stabilize_epsilon(pattern, spec)
    assert calls == [3] * 13


def count_profiles(monkeypatch):
    calls = []
    original = spectra._profile

    def profile(eig, tol, floor):
        calls.append(len(eig))
        return original(eig, tol, floor)

    monkeypatch.setattr(spectra, "_profile", profile)
    return calls


def test_stabilize_profiles_only_the_step_it_returns(monkeypatch):
    """Every other step is classified by its inertia alone."""
    calls = count_profiles(monkeypatch)
    returned = 0
    for name, pattern, spec in fixture_specs():
        calls.clear()
        try:
            stabilize_epsilon(pattern, spec)
        except (NoStabilization, spectra.DegenerateBase):
            assert calls == [], name
            continue
        returned += 1
        assert calls == [pattern.n], name
    assert returned > 100
    # A walk that never settles profiles nothing.
    pattern = FIXTURES["PAT_EG06"].pattern
    monkeypatch.setattr(spectra, "EPSILON_SCHEDULE", (1e-1, 1e-12) * 6)
    calls.clear()
    with pytest.raises(NoStabilization):
        stabilize_epsilon(pattern, ladder_spec(matching_parts(pattern, [(0, 1)])))
    assert calls == []


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
    verdict = analyze(pattern, cfg)
    assert verdict.census.failures == want.failures == 0
    assert _flipped_frequencies(flipped, verdict.census, cfg) == want.frequency_counts
    r9 = next(f for f in verdict.findings if f.rule_id == "R9")
    assert r9.details == {
        "flipped_pattern": flipped.to_text().splitlines(),
        "flipped_frequencies": r9_frequencies(want),
        "flipped_consistent_observed": want.consistent_observed,
    }


def test_r9_fold_adds_up_inertias_with_one_zero_count():
    cen = Census(10, {(2, 1, 1): 3, (1, 2, 1): 4, (2, 2, 0): 3}, {}, 0, {})
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


def numpy_profile(eig: np.ndarray, tol: float, floor: float) -> SpectralProfile:
    """The profile by whole-array numpy reductions over the full classifier."""
    eig = eig[np.lexsort((eig.imag, eig.real))]
    c = {k: v[0] for k, v in full_classify(eig[None], [tol], [floor]).items()}
    i_plus, i_minus, i_zero = int(c["i_plus"]), int(c["i_minus"]), int(c["i_zero"])
    i_z, k_real = int(c["i_z"]), int(c["k_real"])
    return SpectralProfile(
        inertia=(i_plus, i_minus, i_zero),
        refined=(i_plus, i_minus, i_z, i_zero - i_z),
        frequency=(k_real, len(eig) - k_real),
        eigenvalues=tuple(complex(v) for v in eig),
        borderline=bool(c["borderline"]),
        suspect=bool(c["suspect"]),
        suspect_inertia=bool(c["suspect_inertia"]),
    )


@st.composite
def band_spectra(draw):
    """Thresholds and an eigenvalue array with parts on and near every band edge.

    Parts are drawn from 0, -0.0, floor, tol and 10 tol (either sign, and
    just past each edge) or from a wide range.  All-real spectra come as
    float arrays, as ``eigvals`` returns them; some values repeat.
    """
    tol, floor = spectra._thresholds(draw(st.sampled_from((0.0, 1.0, 37.5, 1e6))))
    edges = [floor, tol, 10 * tol]
    marks = [0.0, -0.0] + edges + [np.nextafter(e, math.inf) for e in edges]
    marks += [-m for m in marks] + [tol / math.sqrt(2), 1.0]
    part = st.one_of(
        st.sampled_from(marks),
        st.floats(-1e3, 1e3),
    )
    n = draw(st.integers(1, 8))
    re = draw(st.lists(part, min_size=n, max_size=n))
    if draw(st.booleans()):
        eig = np.array(re, dtype=float)
    else:
        im = draw(st.lists(part, min_size=n, max_size=n))
        eig = np.array(re) + 1j * np.array(im)
    repeats = draw(st.integers(0, n))
    eig = np.concatenate([eig, eig[:repeats]])
    return eig, tol, floor


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=band_spectra())
def test_profile_matches_numpy_profile(case):
    eig, tol, floor = case
    got = spectra._profile(eig, tol, floor)
    want = numpy_profile(eig, tol, floor)
    for name in SpectralProfile.__dataclass_fields__:
        assert getattr(got, name) == getattr(want, name), name
    # repr tells -0.0 from 0.0, and a float from the equal complex.
    assert repr(got) == repr(want)
    assert all(type(z) is complex for z in got.eigenvalues)
