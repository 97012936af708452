"""Numeric side: sampling the qualitative class and building witnesses.

A sample of a pattern draws log-uniform magnitudes onto the nonzero
positions with the pattern's signs.  Profiles classify eigenvalues by the
sign of their real part under a relative tolerance, a census aggregates
profiles over many samples, and witness construction emphasizes chosen
cycles with large magnitudes while every other nonzero position gets a
small epsilon, so the spectrum stays close to that of the emphasized part.

Two samples of one pattern with different inertias certify that the
pattern does not force a unique inertia; ``find_witness_pair`` looks for
such a pair with cycle-structure constructions first and random sampling
last, so returned witnesses are reproducible.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from ._rng import uniforms
from .cycles import (
    PatternAnalysis,
    SimpleCycle,
    _max_cover,
    _pattern_cycle,
    directed_cycle_from_vertices,
    gamma_matchings_from_odd_run,
    max_composite_cover,
)
from .errors import (
    CycleBudgetExceeded,
    CycleNotEven,
    CycleNotInPattern,
    DegenerateBase,
    Disconnected,
    EigenFailure,
    NonFinite,
    NoStabilization,
    NotCombinatoriallySymmetric,
    RunNotOdd,
    SignMismatch,
)
from .graphs import (
    ShapeKind,
    cycle_edge_order,
    maximal_signed_runs,
)
from .patterns import SignPattern

__all__ = [
    "DEFAULT_SEED",
    "SampleConfig",
    "SpectralProfile",
    "Census",
    "WitnessSpec",
    "WitnessPair",
    "sample",
    "spectral_profile",
    "census",
    "build_witness",
    "stabilize_epsilon",
    "find_witness_pair",
    "matching_parts",
    "ladder_spec",
]

DEFAULT_SEED = 1729
EPSILON_SCHEDULE = tuple(10.0 ** (-k) for k in range(1, 13))
# Trials per census stack: bounds transient memory whatever the trial count.
_BLOCK = 256


@dataclass(frozen=True)
class SampleConfig:
    """Log-uniform magnitude law on [lo, hi], trial count, and seed."""

    lo: float = 1e-2
    hi: float = 1e2
    trials: int = 1000
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if not (0 < self.lo <= self.hi < math.inf):
            raise ValueError("need 0 < lo <= hi < inf")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.seed < 0:
            raise ValueError("need a nonnegative seed")


@dataclass(frozen=True)
class SpectralProfile:
    """Eigenvalue classification of one real matrix.

    inertia counts real parts (+, -, 0); refined splits the zero-real-part
    block into exact zeros and nonzero imaginary pairs; frequency is
    (#real, #nonreal).  borderline marks eigenvalues within a decade of the
    classification threshold.
    """

    inertia: tuple[int, int, int]
    refined: tuple[int, int, int, int]
    frequency: tuple[int, int]
    eigenvalues: tuple[complex, ...]
    tol: float
    borderline: bool = False
    suspect: bool = False
    suspect_inertia: bool = False

    @property
    def n(self) -> int:
        return len(self.eigenvalues)


@dataclass
class Census:
    """Aggregated profiles over sampled realizations.

    ``representatives`` holds the first sample per inertia,
    ``solid_representatives`` the first whose profile is not suspect;
    only the latter count as evidence.
    """

    trials: int
    inertia_counts: dict[tuple[int, int, int], int]
    representatives: dict[tuple[int, int, int], np.ndarray]
    frequency_counts: dict[tuple[int, int], int]
    failures: int = 0
    solid_representatives: dict[tuple[int, int, int], np.ndarray] = field(
        default_factory=dict
    )

    @property
    def consistent_observed(self) -> bool:
        return len(self.frequency_counts) == 1

    def inertia_keys(self) -> list[tuple[int, int, int]]:
        return sorted(self.inertia_counts)

    def solid_keys(self) -> list[tuple[int, int, int]]:
        return sorted(self.solid_representatives)


@dataclass(frozen=True)
class WitnessSpec:
    """Cycles to emphasize, one magnitude per part, epsilon elsewhere."""

    parts: tuple[SimpleCycle, ...]
    magnitudes: tuple[float, ...]
    epsilon: float = 0.0

    def __post_init__(self) -> None:
        if len(self.parts) != len(self.magnitudes):
            raise ValueError("one magnitude per part")
        if any(m <= 0 for m in self.magnitudes):
            raise ValueError("magnitudes must be positive")
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")


@dataclass
class WitnessPair:
    """Two realizations of one pattern with different inertias."""

    a: np.ndarray
    b: np.ndarray
    profile_a: SpectralProfile
    profile_b: SpectralProfile
    method: str
    detail: dict = field(default_factory=dict)

    def inertias(self) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
        return self.profile_a.inertia, self.profile_b.inertia


def _support(pattern: SignPattern) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row indices, column indices and signs of the nonzero entries, row-major."""
    support = pattern.support()
    rows = np.array([i for i, _ in support], dtype=np.intp)
    cols = np.array([j for _, j in support], dtype=np.intp)
    signs = np.array([pattern.rows[i][j] for i, j in support], dtype=float)
    return rows, cols, signs


def _magnitudes(u: np.ndarray, laws: Sequence[tuple[float, float]], start: int) -> np.ndarray:
    """Log-uniform magnitudes of a stack of uniforms whose row r is trial start + r.

    Trial t follows ``laws[t % len(laws)]``.  The powers are taken with
    Python floats: numpy's vectorized ``power`` may differ from the C
    library's ``pow`` in the last bit.
    """
    mags = np.empty_like(u)
    for j, (lo, hi) in enumerate(laws):
        picked = slice((j - start) % len(laws), None, len(laws))
        lo_exp = math.log10(lo)
        exps = lo_exp + (math.log10(hi) - lo_exp) * u[picked]
        mags[picked] = np.array([10.0**x for x in exps.ravel().tolist()]).reshape(exps.shape)
    return mags


# Census magnitudes of whole blocks, keyed by (seed, laws, block index) and
# kept at the widest support size asked for, oldest use evicted first past
# _MAGS_CAP bytes.  Row r of ``uniforms(seed, indices, k)`` is a prefix of
# the same row at any larger k, so ``mags[:, :k]`` is bit for bit what a
# fresh draw at width k gives, and no census can tell a hit from a miss.
_MAGS: dict[tuple, np.ndarray] = {}
_MAGS_CAP = 4 << 20


def _block_magnitudes(
    seed: int, laws: tuple[tuple[float, float], ...], block: int, k: int
) -> np.ndarray:
    """Read-only magnitudes of trials block * _BLOCK onwards, at least k wide."""
    key = (seed, laws, block)
    mags = _MAGS.pop(key, None)
    if mags is None or mags.shape[1] < k:
        start = block * _BLOCK
        u = uniforms(seed, np.arange(start, start + _BLOCK, dtype=np.uint64), k)
        mags = _magnitudes(u, laws, start)
        mags.flags.writeable = False
    _MAGS[key] = mags
    total = sum(m.nbytes for m in _MAGS.values())
    while total > _MAGS_CAP:
        total -= _MAGS.pop(next(iter(_MAGS))).nbytes
    return mags


def _fill(
    pattern: SignPattern,
    support: tuple[np.ndarray, np.ndarray, np.ndarray],
    seed: int,
    laws: Sequence[tuple[float, float]],
    start: int,
    stop: int,
) -> np.ndarray:
    """Realizations of trials start .. stop - 1 as one (stop - start, n, n) stack.

    Trial t takes its magnitudes from the log-uniform law
    ``laws[t % len(laws)]`` (a (lo, hi) pair), driven by the first k doubles
    of ``default_rng((seed, t))`` in row-major support order, so it equals
    the realization ``sample`` gives for index t bit for bit whatever else
    shares its stack.  A stack of several trials reads its rows from the
    shared ``_block_magnitudes`` blocks it spans; a single trial builds its
    one generator, which costs far less than a block.
    """
    rows, cols, signs = support
    k = len(signs)
    if stop - start == 1:
        mags = _magnitudes(np.random.default_rng((seed, start)).random((1, k)), laws, start)
    else:
        laws = tuple(laws)
        first, last = start // _BLOCK, (stop - 1) // _BLOCK
        blocks = [_block_magnitudes(seed, laws, b, k)[:, :k] for b in range(first, last + 1)]
        mags = np.concatenate(blocks)[start - first * _BLOCK : stop - first * _BLOCK]
    out = np.zeros((stop - start, pattern.n, pattern.n))
    out[:, rows, cols] = signs * mags
    return out


def sample(pattern: SignPattern, cfg: SampleConfig, index: int = 0) -> np.ndarray:
    """One random realization; deterministic in (seed, index)."""
    return _fill(pattern, _support(pattern), cfg.seed, [(cfg.lo, cfg.hi)], index, index + 1)[0]


class _Classes(NamedTuple):
    """Per-row classification of an eigenvalue stack; every field is (rows,)."""

    i_plus: np.ndarray
    i_minus: np.ndarray
    i_zero: np.ndarray
    i_z: np.ndarray
    k_real: np.ndarray
    suspect_inertia: np.ndarray

    @property
    def inertia(self) -> np.ndarray:
        """(rows, 3) stack of (i_plus, i_minus, i_zero)."""
        return np.stack([self.i_plus, self.i_minus, self.i_zero], axis=1)


def _classify(eig: np.ndarray, tol: np.ndarray, floor: np.ndarray) -> _Classes:
    """Classify each row of a (rows, n) eigenvalue stack.

    Row r uses threshold tol[r]: real parts within it count as zero real
    part, moduli within it as zero eigenvalues, imaginary parts within it as
    real eigenvalues.  floor[r] is the roundoff scale of the row's matrix.
    Only the bands a census reads are computed here; ``_profile`` adds the
    borderline and suspect bands of a single matrix.
    """
    tol = np.asarray(tol, dtype=float)[:, None]
    floor = np.asarray(floor, dtype=float)[:, None]
    i_plus = np.sum(eig.real > tol, axis=1)
    i_minus = np.sum(eig.real < -tol, axis=1)
    # Values forced to zero by structure (even polynomials, skewness, rank
    # deficits) land at roundoff scale; anything between that floor and ten
    # thresholds could be a misclassified near-miss.  The real-part band
    # alone undermines the inertia.
    re = np.abs(eig.real)
    return _Classes(
        i_plus=i_plus,
        i_minus=i_minus,
        i_zero=eig.shape[1] - i_plus - i_minus,
        i_z=np.sum(np.abs(eig) <= tol, axis=1),
        k_real=np.sum(np.abs(eig.imag) <= tol, axis=1),
        suspect_inertia=np.any((re > floor) & (re <= 10 * tol), axis=1),
    )


def _profile(eig: np.ndarray, tol: float, floor: float) -> SpectralProfile:
    """The profile of one eigenvalue list, through the stack classifier.

    borderline marks a real part, modulus or imaginary part within a decade
    above tol.  The modulus and imaginary bands from floor to ten
    thresholds undermine only the refined split and the frequency, so they
    make the profile suspect but leave ``suspect_inertia`` alone.
    """
    eig = eig[np.lexsort((eig.imag, eig.real))]
    c = _classify(eig[None], [tol], [floor])
    i_plus, i_minus, i_zero = int(c.i_plus[0]), int(c.i_minus[0]), int(c.i_zero[0])
    i_z, k_real = int(c.i_z[0]), int(c.k_real[0])
    suspect_inertia = bool(c.suspect_inertia[0])
    re, mod, im = np.abs(eig.real), np.abs(eig), np.abs(eig.imag)
    big = 10 * tol
    return SpectralProfile(
        inertia=(i_plus, i_minus, i_zero),
        refined=(i_plus, i_minus, i_z, i_zero - i_z),
        frequency=(k_real, len(eig) - k_real),
        eigenvalues=tuple(complex(v) for v in eig),
        tol=float(tol),
        borderline=any(bool(np.any((x > tol) & (x <= big))) for x in (re, mod, im)),
        suspect=suspect_inertia
        or any(bool(np.any((x > floor) & (x <= big))) for x in (mod, im)),
        suspect_inertia=suspect_inertia,
    )


def _thresholds(norm: float | np.ndarray):
    """Classification tolerance and roundoff floor for a matrix of this norm."""
    return 1e-8 * (1.0 + norm), 1e-12 * (1.0 + norm)


def _stack_thresholds(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_thresholds`` of each matrix of a C-ordered stack.

    ``sqrt(dot(v, v))`` per flattened matrix is exactly what
    ``np.linalg.norm`` computes; a reduction over an axis sums in another
    order and can differ in the last bit.  A stack of row-by-column
    ``matmul`` products takes the same ``dot`` for each matrix.
    """
    flat = mats.reshape(len(mats), -1)
    with np.errstate(over="ignore"):  # an infinite norm fails its trial
        return _thresholds(np.sqrt(np.matmul(flat[:, None, :], flat[:, :, None])[:, 0, 0]))


def _eigvals(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of one matrix; a LAPACK failure raises EigenFailure."""
    try:
        return np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from exc


def _stack_eigvals(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of every matrix of a stack, and which solves succeeded.

    One call covers the whole stack.  If it fails, each matrix is solved on
    its own, so one bad matrix costs one failure, as a per-matrix loop
    would count it; failed rows hold zeros.
    """
    try:
        return np.linalg.eigvals(mats), np.ones(len(mats), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    eig = np.zeros(mats.shape[:2], dtype=complex)
    ok = np.ones(len(mats), dtype=bool)
    for r, mat in enumerate(mats):
        try:
            eig[r] = np.linalg.eigvals(mat)
        except np.linalg.LinAlgError:
            ok[r] = False
    return eig, ok


# The census eigensolve pool, built on first use by _census_pool.  Only
# _stack_eigvals runs there, a pure function of its stack.
_POOL = None
_POOL_LOCK = threading.Lock()


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _census_pool():
    """The census thread pool, built on first use with one thread fewer than ``_cpus()``.

    The first census that pools fixes the size.  Should the process's CPUs
    change later, rounds follow the new count; a round larger than the pool
    leaves a stack queued, which the calling thread then takes back.
    """
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            from concurrent.futures import ThreadPoolExecutor

            _POOL = ThreadPoolExecutor(
                max(_cpus() - 1, 1), thread_name_prefix="signum-census"
            )
        return _POOL


def _with_eigvals(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return (mats, *_stack_eigvals(mats))


def _collect(mats: np.ndarray, solve) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A pool solve's result; one that has not started is taken back and done here."""
    return _with_eigvals(mats) if solve.cancel() else (mats, *solve.result())


def _solved(
    blocks: Iterable[np.ndarray], count: int
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(mats, eig, ok) of each of the ``count`` stacks of ``blocks``, in order.

    Every stack is filled on the calling thread, in order.  Where the
    process may use several CPUs, the stacks go in rounds of one per CPU:
    the pool solves all but the last of a round while the calling thread
    fills and solves the last, so the pool has one thread fewer than the
    CPUs.  A pool solve not yet started when its result is due is taken
    back and done here, so a pool thread slow to start costs little.  Each
    solve reads only its own stack, so the results are the plain loop's
    whatever the threads' timing.  With one CPU, or at most one stack, this is the
    plain loop and no thread starts.
    """
    cpus = _cpus()
    if min(cpus, count) <= 1:
        yield from map(_with_eigvals, blocks)
        return
    pool = _census_pool()
    blocks = iter(blocks)
    sent: list = []
    try:
        for first in range(0, count, cpus):
            for _ in range(min(cpus, count - first) - 1):
                mats = next(blocks)
                sent.append((mats, pool.submit(_stack_eigvals, mats)))
            here = _with_eigvals(next(blocks))
            while sent:
                yield _collect(*sent.pop(0))
            yield here
    finally:
        # Left over only when a solve raised or the census was abandoned.
        for _, solve in sent:
            solve.cancel()


def spectral_profile(a: np.ndarray) -> SpectralProfile:
    """Classify the spectrum of a real matrix.

    With tol = 1e-8 * (1 + ||a||_F), real parts within +-tol count as zero
    real part, moduli within tol as zero eigenvalues, imaginary parts within
    tol as real eigenvalues.  A matrix whose norm is not finite has no
    such tol and raises NonFinite.
    """
    a = np.asarray(a, dtype=float)
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(a))
    if not math.isfinite(norm):
        raise NonFinite(f"matrix norm is {norm}, so its spectrum cannot be classified")
    return _profile(_eigvals(a), *_thresholds(norm))


NEAR_ONE_LO, NEAR_ONE_HI = 0.5, 2.0


def _generic_zero_count(pattern: SignPattern) -> int:
    """Zero-eigenvalue multiplicity of almost every realization.

    The lowest surviving characteristic coefficient sits at x^(n-m) where m
    is the maximum composite-cycle support (loops included), and that
    coefficient is a nonzero polynomial in the entries, so generic samples
    have exactly n - m zero eigenvalues.  A sampled profile claiming any
    other count caught a measure-zero or mis-thresholded configuration and
    must not serve as evidence.
    """
    return pattern.n - len(_max_cover(pattern.n, pattern.support(), include_loops=True))


def _tally(keys: np.ndarray, mask: np.ndarray) -> list[tuple[tuple[int, ...], int, int]]:
    """Distinct rows of keys[mask] as (key, first row, count), in order of first row.

    Keys are nonnegative ints.  Each row is coded as one integer in mixed
    radix, so one 1-D ``unique`` finds the distinct rows.
    """
    rows = np.flatnonzero(mask)
    if not len(rows):
        return []
    sub = keys[rows]
    codes = np.ravel_multi_index(tuple(sub.T), tuple(sub.max(axis=0) + 1))
    _, first, count = np.unique(codes, return_index=True, return_counts=True)
    order = np.argsort(first)
    first, count = first[order], count[order]
    return [
        (tuple(key), row, n)
        for key, row, n in zip(sub[first].tolist(), rows[first].tolist(), count.tolist())
    ]


def census(
    pattern: SignPattern,
    cfg: SampleConfig,
    prior: Census | None = None,
) -> Census:
    """Profile cfg.trials samples and bucket them by inertia.

    Every other trial draws magnitudes near 1 instead of from the wide law,
    which catches classes whose spectra degenerate only at comparable
    scales.  Trials are independently seeded by index and run as stacks of
    ``_BLOCK`` (one fill, one eigensolve, one classification each), so the
    result depends neither on evaluation order nor on where the blocks
    split, nor on which blocks of magnitudes earlier censuses left in the
    ``_block_magnitudes`` cache.  The eigensolves of a census overlap on the
    CPUs the process may use (``_solved``); everything else runs on the
    calling thread, in block order.  A sample is recorded as solid evidence
    only if its profile is not suspect and its claimed zero-eigenvalue count
    matches the generic multiplicity.  A trial whose eigensolve fails, or
    whose norm overflows so that no tolerance can classify it, counts as a
    failure.

    ``prior``, a census of the same pattern with the same seed and laws but
    fewer trials, is resumed rather than redrawn: its tallies are copied and
    only trials ``prior.trials .. cfg.trials - 1`` are drawn, so the result
    equals a fresh census of cfg.trials trials.
    Raises ValueError if the prior has more trials than cfg.
    """
    if prior is not None and prior.trials > cfg.trials:
        raise ValueError(
            f"cannot resume a census of {prior.trials} trials to {cfg.trials}"
        )
    lo, hi = max(cfg.lo, NEAR_ONE_LO), min(cfg.hi, NEAR_ONE_HI)
    if lo > hi:
        lo, hi = NEAR_ONE_LO, NEAR_ONE_HI
    laws = [(cfg.lo, cfg.hi), (lo, hi)]
    generic_zeros = _generic_zero_count(pattern)
    support = _support(pattern)
    prior = prior or Census(0, {}, {}, {})
    counts = dict(prior.inertia_counts)
    reps = dict(prior.representatives)
    solid = dict(prior.solid_representatives)
    freqs = dict(prior.frequency_counts)
    failures = prior.failures
    starts = range(prior.trials, cfg.trials, _BLOCK)
    blocks = (
        _fill(pattern, support, cfg.seed, laws, start, min(start + _BLOCK, cfg.trials))
        for start in starts
    )
    for mats, eig, ok in _solved(blocks, len(starts)):
        tol, floor = _stack_thresholds(mats)
        ok = ok & np.isfinite(tol)
        failures += int(np.count_nonzero(~ok))
        c = _classify(eig, tol, floor)
        inertia = c.inertia
        frequency = np.stack([c.k_real, pattern.n - c.k_real], axis=1)
        # Copies, not views: a view would keep its whole block alive.
        for key, first, count in _tally(inertia, ok):
            counts[key] = counts.get(key, 0) + count
            reps.setdefault(key, mats[first].copy())
        for key, _, count in _tally(frequency, ok):
            freqs[key] = freqs.get(key, 0) + count
        firm = ok & ~c.suspect_inertia & (c.i_z == generic_zeros)
        for key, first, _ in _tally(inertia, firm):
            solid.setdefault(key, mats[first].copy())
        del mats, eig, ok  # the plain loop frees each block before it fills the next
    return Census(cfg.trials, counts, reps, freqs, failures, solid)


def matching_parts(pattern: SignPattern, edges: Iterable[tuple[int, int]]) -> tuple[SimpleCycle, ...]:
    """Directed 2-cycles sitting on the given undirected matching edges."""
    return tuple(_pattern_cycle(pattern, (min(e), max(e))) for e in sorted(edges))


def ladder_spec(
    pattern: SignPattern,
    parts: Sequence[SimpleCycle],
    base: float = 10.0,
    epsilon: float = 0.0,
) -> WitnessSpec:
    """Emphasize parts with magnitudes base, base^2, ... in listed order.

    Distinct magnitudes keep the unperturbed eigenvalues of different parts
    apart, which the stabilization step requires.
    """
    mags = tuple(base ** (p + 1) for p in range(len(parts)))
    return WitnessSpec(tuple(parts), mags, epsilon)


def build_witness(pattern: SignPattern, spec: WitnessSpec) -> np.ndarray:
    """Realize the emphasis: part arcs at their magnitude, rest at epsilon.

    With epsilon > 0 the result lies in the qualitative class; with
    epsilon = 0 only the emphasized arcs are nonzero.
    """
    a = np.zeros((pattern.n, pattern.n))
    emphasized: set[tuple[int, int]] = set()
    covered: set[int] = set()
    for part, mag in zip(spec.parts, spec.magnitudes):
        recomputed = _pattern_cycle(pattern, part.vertices)
        if recomputed.sign != part.sign:
            raise SignMismatch(
                f"part {part.vertices} declares sign {part.sign:+d}"
                f" but the pattern gives {recomputed.sign:+d}"
            )
        if covered.intersection(part.vertices):
            raise ValueError(
                f"part {part.vertices} overlaps an earlier part; the emphasized"
                " parts must form a composite cycle"
            )
        covered.update(part.vertices)
        for i, j in part.arcs():
            emphasized.add((i, j))
            a[i, j] = pattern.rows[i][j] * mag
    if spec.epsilon > 0:
        for i, j in pattern.support():
            if (i, j) not in emphasized:
                a[i, j] = pattern.rows[i][j] * spec.epsilon
    return a


def stabilize_epsilon(
    pattern: SignPattern, spec: WitnessSpec
) -> tuple[np.ndarray, float, SpectralProfile]:
    """Shrink epsilon until the inertia settles.

    Walks epsilon down 10^-1 .. 10^-12 and returns the first value whose
    inertia agrees with the next two smaller ones.  The emphasized parts'
    nonzero eigenvalues must be pairwise distinct, otherwise closeness of
    the perturbed spectrum pins down nothing.  An eigensolver failure, on
    the base or on any step, raises EigenFailure.
    """
    if not spec.parts:
        raise CycleNotInPattern("nothing to emphasize")
    base = build_witness(pattern, replace(spec, epsilon=0.0))
    base_eigs = _eigvals(base)
    scale = 1.0 + float(np.max(np.abs(base_eigs)))
    # Vertices outside the emphasized parts contribute exact zeros, which
    # are fine; the parts' own (nonzero) eigenvalues must stay apart.
    nonzero = [v for v in base_eigs if abs(v) > 1e-9 * scale]
    for s in range(len(nonzero)):
        for t in range(s + 1, len(nonzero)):
            if abs(nonzero[s] - nonzero[t]) <= 1e-9 * scale:
                raise DegenerateBase(
                    "emphasized parts have (nearly) repeated eigenvalues"
                )
    # Every support position the parts leave empty gets +-epsilon; adding
    # those to the base reproduces build_witness bit for bit.  Steps are
    # solved one at a time, each on its own, until three in a row agree.
    rest = np.where(base == 0, pattern.to_array(), 0)
    steps: list[tuple[np.ndarray, float, SpectralProfile]] = []
    for eps in EPSILON_SCHEDULE:
        mat = base + eps * rest
        steps.append(
            (mat, eps, _profile(_eigvals(mat), *_thresholds(float(np.linalg.norm(mat)))))
        )
        if len(steps) >= 3 and len({prof.inertia for _, _, prof in steps[-3:]}) == 1:
            return steps[-3]
    raise NoStabilization("inertia never settled over the epsilon schedule")


def _max_matching(edges: Sequence[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """networkx's maximum matching, imported on first use: witnesses depend on its choice."""
    if not edges:
        return ()
    import networkx as nx

    g = nx.Graph()
    g.add_edges_from(sorted(edges))
    match = nx.max_weight_matching(g, maxcardinality=True)
    return tuple(sorted((min(u, v), max(u, v)) for u, v in match))


def _try_pair(
    pattern: SignPattern,
    spec_a: WitnessSpec,
    spec_b: WitnessSpec,
    method: str,
    detail: dict,
) -> WitnessPair | None:
    try:
        mat_a, eps_a, prof_a = stabilize_epsilon(pattern, spec_a)
        mat_b, eps_b, prof_b = stabilize_epsilon(pattern, spec_b)
    except (NoStabilization, DegenerateBase, CycleNotInPattern, SignMismatch, EigenFailure):
        return None
    if prof_a.inertia == prof_b.inertia:
        return None
    if prof_a.suspect_inertia or prof_b.suspect_inertia:
        return None
    detail = dict(detail, epsilon_a=eps_a, epsilon_b=eps_b)
    return WitnessPair(mat_a, mat_b, prof_a, prof_b, method, detail)


def _pair_from_sign_clash(facts: PatternAnalysis) -> WitnessPair | None:
    """Oppositely signed maximum composite cycles, each emphasized."""
    pattern = facts.pattern
    try:
        sign_set = facts.sign_set
    except CycleBudgetExceeded:
        return None
    if not sign_set.ambiguous:
        return None
    assert sign_set.plus_witness and sign_set.minus_witness
    spec_a = ladder_spec(pattern, sign_set.plus_witness.parts)
    spec_b = ladder_spec(pattern, sign_set.minus_witness.parts)
    return _try_pair(
        pattern,
        spec_a,
        spec_b,
        "max-composite-sign-clash",
        {
            "plus_parts": [p.vertices for p in sign_set.plus_witness.parts],
            "minus_parts": [p.vertices for p in sign_set.minus_witness.parts],
        },
    )


def _pair_from_matchings(facts: PatternAnalysis) -> WitnessPair | None:
    """Negative-edge matching versus positive-edge matching, both emphasized.

    Negative edges carry imaginary eigenvalue pairs, positive edges real
    ones, so large enough matchings of both colors pull the zero-real-part
    count apart.
    """
    pattern = facts.pattern
    neg = _max_matching(facts.graph.negative_edges())
    pos = _max_matching(facts.graph.positive_edges())
    if not neg or not pos:
        return None
    spec_a = ladder_spec(pattern, matching_parts(pattern, neg))
    spec_b = ladder_spec(pattern, matching_parts(pattern, pos))
    return _try_pair(
        pattern,
        spec_a,
        spec_b,
        "negative-vs-positive-matching",
        {"negative_matching": list(neg), "positive_matching": list(pos)},
    )


def _pair_from_cycle_conditions(facts: PatternAnalysis) -> WitnessPair | None:
    """Constructions driven by one cycle of the undirected graph.

    For a cycle with an odd number of negative edges the two traversal
    directions are oppositely signed top-length composites.  For an even
    all-negative cycle an alternating matching gives a purely imaginary
    block while the full cycle does not.  For an even cycle with an
    odd-length sign run the alternating near-cover splits into a negative
    and a positive matching.  The rest of the digraph rides along as a
    fixed ladder of vertex-disjoint cycles.
    """
    if facts.shape.kind not in (
        ShapeKind.SINGLE_CYCLE,
        ShapeKind.UNICYCLIC,
        ShapeKind.MULTI_CYCLE_NO_LEAF,
    ):
        return None
    pattern, digraph = facts.pattern, facts.digraph
    covers: dict[frozenset[int], tuple[SimpleCycle, ...]] = {}

    def outside(cyc: tuple[int, ...]) -> tuple[SimpleCycle, ...]:
        # A maximum composite off the cycle's vertices, solved once per
        # vertex set and only when a construction is about to run.
        vertices = frozenset(cyc)
        if vertices not in covers:
            cover = max_composite_cover(digraph.without_vertices(set(cyc)))
            covers[vertices] = cover.parts if cover is not None else ()
        return covers[vertices]

    for cyc in facts.shape.cycles:
        edges, signs = cycle_edge_order(facts.graph, cyc)
        n_neg = sum(1 for s in signs if s < 0)
        if n_neg % 2 == 1:
            fwd = directed_cycle_from_vertices(digraph, cyc)
            rev = directed_cycle_from_vertices(digraph, tuple(reversed(cyc)))
            pair = _try_pair(
                pattern,
                ladder_spec(pattern, (fwd,) + outside(cyc)),
                ladder_spec(pattern, (rev,) + outside(cyc)),
                "cycle-orientation-sign-clash",
                {"cycle": list(cyc)},
            )
            if pair is not None:
                return pair
        if len(cyc) % 2 == 0 and n_neg == len(cyc):
            alt = tuple(edges[t] for t in range(0, len(edges), 2))
            pair = _try_pair(
                pattern,
                ladder_spec(pattern, matching_parts(pattern, alt) + outside(cyc)),
                ladder_spec(
                    pattern, (directed_cycle_from_vertices(digraph, cyc),) + outside(cyc)
                ),
                "all-negative-cycle",
                {"cycle": list(cyc), "matching": list(alt)},
            )
            if pair is not None:
                return pair
        if len(cyc) % 2 == 0:
            runs = maximal_signed_runs(signs, cyclic=True)
            odd_runs = [r for r in runs if r.length % 2 == 1 and r.length < len(cyc)]
            if odd_runs:
                try:
                    m_neg, m_pos = gamma_matchings_from_odd_run(
                        tuple(zip(edges, signs)), odd_runs[0]
                    )
                except (SignMismatch, CycleNotEven, RunNotOdd):
                    continue
                if m_neg.edges and m_pos.edges:
                    pair = _try_pair(
                        pattern,
                        ladder_spec(
                            pattern, matching_parts(pattern, m_neg.edges) + outside(cyc)
                        ),
                        ladder_spec(
                            pattern, matching_parts(pattern, m_pos.edges) + outside(cyc)
                        ),
                        "odd-run-alternating-matchings",
                        {"cycle": list(cyc), "m1": list(m_neg.edges), "m2": list(m_pos.edges)},
                    )
                    if pair is not None:
                        return pair
    return None


def _path_probe_matrices(facts: PatternAnalysis) -> list[tuple[str, np.ndarray]]:
    """Deterministic magnitude profiles for path patterns.

    Off-diagonal magnitudes 1 above the diagonal and a structured profile
    below: small at both ends with alternating medium/large interior values
    pushes the spectrum toward the imaginary axis when the sign structure
    allows it; the swapped and inverted profiles cover the other phases.
    """
    pattern = facts.pattern
    if facts.shape.kind is not ShapeKind.PATH or pattern.n < 2:
        return []
    edges, _ = facts.path_edges
    m = len(edges)
    profiles: list[tuple[str, list[float]]] = []
    for name, end, mid_a, mid_b in (
        ("valley-a", 0.05, 5.0, 20.0),
        ("valley-b", 0.05, 20.0, 5.0),
        ("ridge-a", 20.0, 0.05, 1.0),
        ("flat", 1.0, 1.0, 1.0),
        ("valley-c", 0.05, 2.0, 50.0),
        ("valley-d", 0.02, 8.0, 30.0),
    ):
        prof = []
        for t in range(m):
            if t == 0 or t == m - 1:
                prof.append(end)
            else:
                prof.append(mid_a if t % 2 == 1 else mid_b)
        profiles.append((name, prof))
    out = []
    for name, prof in profiles:
        a = np.zeros((pattern.n, pattern.n))
        for (u, v), mag in zip(edges, prof):
            a[u, v] = pattern.rows[u][v] * 1.0
            a[v, u] = pattern.rows[v][u] * mag
        out.append((name, a))
    return out


def _pair_from_sampling(
    facts: PatternAnalysis, budget: int, cfg: SampleConfig, prior: Census | None
) -> WitnessPair | None:
    """Structured probes, then a random census; pair keys with distinct inertia.

    The census of ``budget`` trials resumes ``prior`` when one is given.
    """
    pool: dict[tuple[int, int, int], tuple[str, np.ndarray]] = {}
    try:
        probes = _path_probe_matrices(facts)
    except (NotCombinatoriallySymmetric, Disconnected):
        probes = []
    for name, mat in probes:
        prof = spectral_profile(mat)
        if not prof.suspect_inertia:
            pool.setdefault(prof.inertia, (f"probe:{name}", mat))
    cen = census(facts.pattern, replace(cfg, trials=budget), prior=prior)
    for key in cen.solid_keys():
        pool.setdefault(key, ("census", cen.solid_representatives[key]))
    keys = sorted(pool)
    if len(keys) < 2:
        return None
    # prefer the pair with the widest zero-real-part gap, then lexicographic
    best = max(
        ((a, b) for a in keys for b in keys if a < b),
        key=lambda ab: (abs(ab[0][2] - ab[1][2]), ab),
    )
    (key_a, key_b) = best
    src_a, mat_a = pool[key_a]
    src_b, mat_b = pool[key_b]
    return WitnessPair(
        mat_a,
        mat_b,
        spectral_profile(mat_a),
        spectral_profile(mat_b),
        "sampled",
        {"source_a": src_a, "source_b": src_b},
    )


def find_witness_pair(
    facts: PatternAnalysis,
    budget: int = 2000,
    cfg: SampleConfig | None = None,
    prior: Census | None = None,
) -> WitnessPair | None:
    """Two realizations of the analysed pattern with different inertias, or None.

    Constructive strategies run first so that, when they apply, the
    returned pair is reproducible and independent of the sampling seed.
    They read the structural facts from ``facts``, so a caller that has
    already derived them does not pay for them twice.  Every returned pair
    has been checked numerically.  ``prior``, a census of the pattern drawn
    under ``cfg`` with at most ``budget`` trials, is resumed by the
    sampling fallback instead of being drawn again.
    """
    cfg = cfg or SampleConfig()
    if facts.pattern.n <= 16:
        strategies = [_pair_from_sign_clash]
        if facts.flags.combinatorially_symmetric and facts.flags.irreducible:
            strategies += [_pair_from_matchings, _pair_from_cycle_conditions]
        for strategy in strategies:
            pair = strategy(facts)
            if pair is not None:
                return pair
    return _pair_from_sampling(facts, budget, cfg, prior)
