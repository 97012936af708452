"""Numeric side: sampling the qualitative class and building witnesses.

A sample of a pattern draws log-uniform magnitudes onto the nonzero
positions with the pattern's signs.  Profiles classify eigenvalues by the
sign of their real part under a relative tolerance.  One routine,
``_solve``, solves and thresholds every single matrix (a profile, each step
of an epsilon walk, a census trial solved on its own, a characteristic
polynomial), so a norm that is not finite raises NonFinite wherever one
matrix is solved.  A census tallies the rows an analysis records for its
trials, drawn in blocks of ``_BLOCK`` trials that the CPUs take from one
counter.  Witness construction emphasizes chosen cycles with large
magnitudes while every other nonzero position gets a small epsilon, so the
spectrum stays close to that of the emphasized part.

Two samples of one pattern with different inertias certify that the
pattern does not force a unique inertia; ``find_witness_pair`` looks for
such a pair with cycle-structure constructions first and random sampling
last, so returned witnesses are reproducible.  The constructions only
propose candidates (``_candidates``); ``find_witness_pair`` is the one loop
that certifies them, walking both sides with ``_try_pair``.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from ._rng import uniforms
from .cycles import (
    SIGN_ORDER_CAP,
    PatternAnalysis,
    SimpleCycle,
    directed_cycle_from_vertices,
    gamma_matchings_from_odd_run,
)
from .errors import (
    CycleBudgetExceeded,
    CycleNotInPattern,
    DegenerateBase,
    Disconnected,
    EigenFailure,
    NonFinite,
    NoStabilization,
    NotCombinatoriallySymmetric,
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
# Trials per census block: the unit of the magnitude cache, of the work a
# thread takes and of the matrices it holds.
_BLOCK = 256
# The fewest trials the sampling witness search draws.
_WITNESS_TRIALS = 2000


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
        # bool is an int subclass: True would run a census of one trial.
        if any(type(v) is not int for v in (self.trials, self.seed)):
            raise ValueError("trials and seed must be ints")
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
    borderline: bool = False
    suspect: bool = False
    suspect_inertia: bool = False


@dataclass
class Census:
    """Aggregated profiles over sampled realizations.

    ``solid_representatives`` holds, per inertia, the first sample whose
    inertia is not suspect and whose zero-eigenvalue count is the generic
    one.  Only such samples count as evidence, and no other sample is kept.
    """

    trials: int
    inertia_counts: dict[tuple[int, int, int], int]
    frequency_counts: dict[tuple[int, int], int]
    failures: int
    solid_representatives: dict[tuple[int, int, int], np.ndarray]

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
    """Two realizations of one pattern, stating their different inertias (+, -, 0).

    ``spectral_profile`` of ``a`` and of ``b`` gives ``inertia_a`` and ``inertia_b`` again.
    """

    a: np.ndarray
    b: np.ndarray
    inertia_a: tuple[int, int, int]
    inertia_b: tuple[int, int, int]
    method: str
    detail: dict = field(default_factory=dict)

    def inertias(self) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
        return self.inertia_a, self.inertia_b


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
# fresh draw at width k gives, and no census can tell a hit from a miss.  A
# block asked for wider is extended by its missing columns alone, which are
# the tail of a fresh wide draw.  Census threads share the cache under
# _MAGS_LOCK; an array handed out is never written, only replaced.
_MAGS: dict[tuple, np.ndarray] = {}
_MAGS_CAP = 4 << 20
_MAGS_LOCK = threading.Lock()


def _block_magnitudes(
    seed: int, laws: tuple[tuple[float, float], ...], block: int, k: int
) -> np.ndarray:
    """Read-only magnitudes of trials block * _BLOCK onwards, at least k wide."""
    key = (seed, laws, block)
    with _MAGS_LOCK:
        mags = _MAGS.pop(key, None)
        width = 0 if mags is None else mags.shape[1]
        if mags is None or width < k:
            start = block * _BLOCK
            u = uniforms(seed, np.arange(start, start + _BLOCK, dtype=np.uint64), k, width)
            new = _magnitudes(u, laws, start)
            mags = new if mags is None else np.hstack((mags, new))
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
    """Realizations of trials start .. stop - 1, all of one block, as one stack.

    Trial t takes its magnitudes from the log-uniform law
    ``laws[t % len(laws)]`` (a (lo, hi) pair), driven by the first k doubles
    of ``default_rng((seed, t))`` in row-major support order, so it equals
    ``sample`` at index t under that law and seed bit for bit, whatever
    else shares its stack.  A census passes two laws, so its odd trials
    equal ``sample`` under the near-one law, not under cfg's.  The rows are
    read from the block's ``_block_magnitudes``.
    """
    rows, cols, signs = support
    block, first = divmod(start, _BLOCK)
    mags = _block_magnitudes(seed, tuple(laws), block, len(signs))
    out = np.zeros((stop - start, pattern.n, pattern.n))
    out[:, rows, cols] = signs * mags[first : first + stop - start, : len(signs)]
    return out


def sample(pattern: SignPattern, cfg: SampleConfig, index: int = 0) -> np.ndarray:
    """One random realization; deterministic in (seed, index), for an index in [0, 2**64)."""
    # As in SampleConfig, bool is refused: True would read trial 1.
    if type(index) is not int or not 0 <= index < 2**64:
        raise ValueError(f"need an int index in [0, 2**64), got {index!r}")
    return _fill(pattern, _support(pattern), cfg.seed, [(cfg.lo, cfg.hi)], index, index + 1)[0]


class _Classes(NamedTuple):
    """Per-row classification of an eigenvalue stack; every field is (rows,)."""

    i_plus: np.ndarray
    i_minus: np.ndarray
    i_zero: np.ndarray
    i_z: np.ndarray
    k_real: np.ndarray
    suspect_inertia: np.ndarray


def _classify(eig: np.ndarray, tol: np.ndarray, floor: np.ndarray) -> _Classes:
    """Classify each row of a (rows, n) eigenvalue stack.

    Row r uses threshold tol[r]: real parts within it count as zero real
    part, moduli within it as zero eigenvalues, imaginary parts within it as
    real eigenvalues.  floor[r] is the roundoff scale of the row's matrix.
    This is the census's classifier, and it computes only the bands a
    census reads.  ``_profile`` makes the same comparisons on a single
    matrix, value by value, and adds the borderline and suspect bands.
    Each count runs down a transposed copy of the stack, so its inner loop
    spans the rows instead of one matrix's n values.
    """
    eig = np.ascontiguousarray(eig.T)
    tol, floor = np.asarray(tol, dtype=float), np.asarray(floor, dtype=float)
    i_plus = (eig.real > tol).sum(0)
    i_minus = (eig.real < -tol).sum(0)
    # Values forced to zero by structure (even polynomials, skewness, rank
    # deficits) land at roundoff scale; anything between that floor and ten
    # thresholds could be a misclassified near-miss.  The real-part band
    # alone undermines the inertia.
    re = np.abs(eig.real)
    return _Classes(
        i_plus=i_plus,
        i_minus=i_minus,
        i_zero=len(eig) - i_plus - i_minus,
        i_z=(np.abs(eig) <= tol).sum(0),
        k_real=(np.abs(eig.imag) <= tol).sum(0),
        suspect_inertia=((re > floor) & (re <= 10 * tol)).any(0),
    )


def _profile(eig: np.ndarray, tol: float, floor: float) -> SpectralProfile:
    """The profile of one eigenvalue list, classified value by value.

    The eigenvalues are sorted by real part, then imaginary part, and each
    is compared with tol and floor as Python floats: the comparisons
    ``_classify`` makes on a stack, with moduli taken from ``np.abs`` so
    each is numpy's to the bit.  borderline marks a real part, modulus or
    imaginary part within a decade above tol.  The modulus and imaginary
    bands from floor to ten thresholds undermine only the refined split and
    the frequency, so they make the profile suspect but leave
    ``suspect_inertia`` alone.
    """
    # eigvals gives a float array when every eigenvalue is real.
    eig = np.asarray(eig, dtype=complex)
    eig = eig[np.lexsort((eig.imag, eig.real))]
    tol, floor = float(tol), float(floor)
    big = 10 * tol
    i_plus = i_minus = i_z = k_real = 0
    borderline = suspect = suspect_inertia = False
    values = eig.tolist()
    for z, mod in zip(values, np.abs(eig).tolist()):
        x, im = z.real, abs(z.imag)
        if x > tol:
            i_plus += 1
        elif x < -tol:
            i_minus += 1
        if mod <= tol:
            i_z += 1
        if im <= tol:
            k_real += 1
        re = abs(x)
        if floor < re <= big:
            suspect_inertia = True
        if floor < mod <= big or floor < im <= big:
            suspect = True
        if tol < re <= big or tol < mod <= big or tol < im <= big:
            borderline = True
    i_zero = len(values) - i_plus - i_minus
    return SpectralProfile(
        inertia=(i_plus, i_minus, i_zero),
        refined=(i_plus, i_minus, i_z, i_zero - i_z),
        frequency=(k_real, len(values) - k_real),
        eigenvalues=tuple(values),
        borderline=borderline,
        suspect=suspect or suspect_inertia,
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


def _solve(a: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Eigenvalues of one matrix, with its classification tolerance and roundoff floor.

    The one solve of a single matrix: ``spectral_profile``, every step of
    ``stabilize_epsilon``, the census's per-matrix fallback and
    ``char_poly`` all come here.  A matrix whose Frobenius norm is not
    finite has no tolerance and raises NonFinite before any solve; a LAPACK
    failure raises EigenFailure.
    """
    a = np.asarray(a, dtype=float)
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(a))
    if not math.isfinite(norm):
        raise NonFinite(f"matrix norm is {norm}, so its spectrum cannot be classified")
    try:
        eig = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from exc
    return (eig, *_thresholds(norm))


def _stack_eigvals(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of every matrix of a stack, and which solves succeeded.

    One call covers the whole stack.  If it fails, each matrix is solved on
    its own by ``_solve``, so one bad matrix costs one failure, as a
    per-matrix loop would count it; a row whose solve fails or whose norm
    is not finite fails, and failed rows hold zeros.
    """
    try:
        return np.linalg.eigvals(mats), np.ones(len(mats), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    eig = np.zeros(mats.shape[:2], dtype=complex)
    ok = np.ones(len(mats), dtype=bool)
    for r, mat in enumerate(mats):
        try:
            eig[r] = _solve(mat)[0]
        except (EigenFailure, NonFinite):
            ok[r] = False
    return eig, ok


# The census pool, built on first use by _census_pool.
_POOL = None
_POOL_LOCK = threading.Lock()


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _census_pool():
    """The census thread pool, sized on first use to one thread fewer than ``_cpus()``."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            from concurrent.futures import ThreadPoolExecutor

            _POOL = ThreadPoolExecutor(max(_cpus() - 1, 1), thread_name_prefix="signum-census")
        return _POOL


def spectral_profile(a: np.ndarray) -> SpectralProfile:
    """Classify the spectrum of a real matrix.

    With tol = 1e-8 * (1 + ||a||_F), real parts within +-tol count as zero
    real part, moduli within tol as zero eigenvalues, imaginary parts within
    tol as real eigenvalues.  The solve and the thresholds are ``_solve``'s,
    as for every single matrix: a matrix whose norm is not finite has no
    such tol and raises NonFinite, and a LAPACK failure raises EigenFailure.
    """
    return _profile(*_solve(a))


NEAR_ONE_LO, NEAR_ONE_HI = 0.5, 2.0


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


def _draw(pattern: SignPattern, seed: int, laws: tuple, rows: np.ndarray, trials: int) -> np.ndarray:
    """A census record's rows extended to ``trials`` rows, a block of trials at a time.

    Row t is trial t's (i_plus, i_minus, real count, state), state 0 for a
    failure, 1 when classified and 3 when firm too.  The first block may
    start mid-block, where the record ends.  The calling thread and
    ``min(_cpus(), blocks) - 1`` pool threads each take the next block from
    one counter until none is left.  The taker fills, solves, thresholds
    and classifies the block's matrices, which die with ``block_rows``, so
    no more than ``_cpus()`` blocks of matrices are alive at once.  On one
    CPU the caller takes every block and no thread is started.  A pool
    thread slow to start takes fewer blocks or none.  An error stops the
    taking and is raised here once no block is being worked on.  Each
    block's rows land in their own slice, so the result is the plain
    loop's whatever the threads' timing.
    """
    support, generic_zeros = _support(pattern), pattern.n - pattern.max_composite_length
    grown = np.empty((trials, 4), dtype=np.uint16)
    grown[: len(rows)] = rows
    bounds = [len(rows), *range((len(rows) // _BLOCK + 1) * _BLOCK, trials, _BLOCK), trials]
    spans = list(zip(bounds, bounds[1:]))
    errors: list[BaseException] = []
    taken, busy, idle = 0, 0, threading.Condition()

    def block_rows(start: int, stop: int) -> np.ndarray:
        mats = _fill(pattern, support, seed, laws, start, stop)
        eig, ok = _stack_eigvals(mats)
        tol, floor = _stack_thresholds(mats)
        ok &= np.isfinite(tol)
        c = _classify(eig, tol, floor)
        firm = ok & ~c.suspect_inertia & (c.i_z == generic_zeros)
        return np.stack([c.i_plus, c.i_minus, c.k_real, ok + 2 * firm], 1)

    def take() -> None:
        nonlocal taken, busy
        while True:
            with idle:
                if errors or taken == len(spans):
                    return
                (start, stop), taken, busy = spans[taken], taken + 1, busy + 1
            try:
                grown[start:stop] = block_rows(start, stop)
            except BaseException as exc:  # raised on the calling thread below
                errors.append(exc)
            with idle:
                busy -= 1
                idle.notify()

    for _ in range(min(_cpus(), len(spans)) - 1):
        _census_pool().submit(take)
    take()
    with idle:
        idle.wait_for(lambda: not busy)
    if errors:
        raise errors[0]
    return grown


def census(facts: PatternAnalysis | SignPattern, cfg: SampleConfig) -> Census:
    """Profile the first cfg.trials samples and bucket them by inertia.

    Every other trial draws magnitudes near 1 instead of from the wide law,
    which catches classes whose spectra degenerate only at comparable
    scales.  Trials are independently seeded by index.  ``facts`` (a bare
    pattern gets a fresh analysis) keeps one record per seed and law pair,
    freed with it: a ``uint16`` array of 8 bytes per trial drawn, and
    nothing else.  A read of more trials than the record holds draws the
    rest (``_draw``), and every read is one ``_tally`` of the record's first
    cfg.trials rows, so it equals a fresh census whatever was read before.
    A trial is firm, solid evidence, only if its inertia is not suspect and
    its claimed zero-eigenvalue count is the generic multiplicity, n minus
    the pattern's ``max_composite_length``; a sample claiming any other
    count caught a measure-zero or mis-thresholded configuration.  A trial
    whose eigensolve fails, or whose norm overflows so that no tolerance
    can classify it, counts as a failure.  Each dict gets its keys in order
    of first sample, or of first firm sample for the solid representatives.
    A representative is its trial's matrix filled again from the cached
    magnitudes, which is bit for bit the matrix classified, because a
    trial's matrix depends only on its seed, law and index.
    """
    facts = PatternAnalysis(facts) if isinstance(facts, SignPattern) else facts
    pattern, n = facts.pattern, facts.pattern.n
    lo, hi = max(cfg.lo, NEAR_ONE_LO), min(cfg.hi, NEAR_ONE_HI)
    if lo > hi:
        lo, hi = NEAR_ONE_LO, NEAR_ONE_HI
    laws = ((cfg.lo, cfg.hi), (lo, hi))
    rows = facts.censuses.get((cfg.seed, laws), np.empty((0, 4), np.uint16))
    if len(rows) < cfg.trials:
        rows = facts.censuses[cfg.seed, laws] = _draw(pattern, cfg.seed, laws, rows, cfg.trials)
    rows = rows[: cfg.trials]
    ok = rows[:, 3] > 0
    counts, freqs, firsts = {}, {}, {}
    # Groups come in order of first row, so each dict gets its keys in
    # order of first sample, and firsts in order of first firm sample.
    for (i_plus, i_minus, k_real, state), first, count in _tally(rows, ok):
        key, frequency = (i_plus, i_minus, n - i_plus - i_minus), (k_real, n - k_real)
        counts[key] = counts.get(key, 0) + count
        freqs[frequency] = freqs.get(frequency, 0) + count
        if state == 3:
            firsts.setdefault(key, first)
    support = _support(pattern)
    solid = {key: _fill(pattern, support, cfg.seed, laws, t, t + 1)[0] for key, t in firsts.items()}
    return Census(cfg.trials, counts, freqs, int(np.count_nonzero(~ok)), solid)


def matching_parts(pattern: SignPattern, edges: Iterable[tuple[int, int]]) -> tuple[SimpleCycle, ...]:
    """Directed 2-cycles sitting on the given undirected matching edges."""
    return tuple(directed_cycle_from_vertices(pattern, (min(e), max(e))) for e in sorted(edges))


def ladder_spec(parts: Sequence[SimpleCycle], epsilon: float = 0.0) -> WitnessSpec:
    """Emphasize parts with magnitudes 10, 100, 1000, ... in listed order.

    Distinct magnitudes keep the unperturbed eigenvalues of different parts
    apart, which the stabilization step requires.
    """
    mags = tuple(10.0 ** (p + 1) for p in range(len(parts)))
    return WitnessSpec(tuple(parts), mags, epsilon)


def build_witness(pattern: SignPattern, spec: WitnessSpec) -> np.ndarray:
    """Realize the emphasis: part arcs at their magnitude, rest at epsilon.

    With epsilon > 0 the result lies in the qualitative class; with
    epsilon = 0 only the emphasized arcs are nonzero.
    """
    a = np.zeros((pattern.n, pattern.n))
    covered: set[int] = set()
    for part, mag in zip(spec.parts, spec.magnitudes):
        recomputed = directed_cycle_from_vertices(pattern, part.vertices)
        named = tuple(v + 1 for v in part.vertices)
        if recomputed.sign != part.sign:
            raise SignMismatch(
                f"part {named} declares sign {part.sign:+d}"
                f" but the pattern gives {recomputed.sign:+d}"
            )
        if covered.intersection(part.vertices):
            raise ValueError(
                f"part {named} overlaps an earlier part; the emphasized"
                " parts must form a composite cycle"
            )
        covered.update(part.vertices)
        for i, j in part.arcs():
            a[i, j] = pattern.rows[i][j] * mag
    if spec.epsilon > 0:
        a += spec.epsilon * np.where(a == 0, pattern.to_array(), 0)
    return a


def stabilize_epsilon(
    pattern: SignPattern, spec: WitnessSpec
) -> tuple[np.ndarray, float, SpectralProfile]:
    """Shrink epsilon until the inertia settles.

    Walks epsilon down 10^-1 .. 10^-12 and returns the first value whose
    inertia agrees with the next two smaller ones.  The emphasized parts'
    nonzero eigenvalues must be pairwise distinct, otherwise closeness of
    the perturbed spectrum pins down nothing.  The base and every step are
    solved and thresholded by ``_solve``, as ``spectral_profile`` solves
    the matrix returned: an eigensolver failure, on the base or on any
    step, raises EigenFailure, and a norm that is not finite raises
    NonFinite.
    """
    if not spec.parts:
        raise CycleNotInPattern("nothing to emphasize")
    base = build_witness(pattern, replace(spec, epsilon=0.0))
    base_eigs = _solve(base)[0]
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
    # Each step is build_witness's epsilon fill of the base, its mask taken
    # once.  Steps are solved one at a time, each on its own, until three in
    # a row agree.  A step's inertia is fixed by two counts, real parts above
    # tol and below -tol, as _profile makes them; only the step returned is
    # profiled in full.
    rest = np.where(base == 0, pattern.to_array(), 0)
    steps: list[tuple[np.ndarray, float, np.ndarray, float, float]] = []
    counts: list[tuple[int, int]] = []
    for eps in EPSILON_SCHEDULE:
        mat = base + eps * rest
        eig, tol, floor = _solve(mat)
        steps.append((mat, eps, eig, tol, floor))
        above = below = 0
        for x in eig.real.tolist():
            if x > tol:
                above += 1
            elif x < -tol:
                below += 1
        counts.append((above, below))
        if len(steps) >= 3 and len(set(counts[-3:])) == 1:
            mat, eps, eig, tol, floor = steps[-3]
            return mat, eps, _profile(eig, tol, floor)
    raise NoStabilization("inertia never settled over the epsilon schedule")


def _max_matching(edges: Sequence[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """A maximum matching of an undirected graph, exact over vertex bitmasks.

    The search takes the lowest vertex left in the mask and tries, in this
    order, leaving it out and matching it to each neighbour in increasing
    order; the first choice of the largest size is kept.  Witnesses depend
    on which of several maximum matchings is found, so these choices are
    part of the output.  The pairs come out sorted, each as (low, high).
    Memoised per mask, the search visits at most 2^n states; its one
    caller runs under ``find_witness_pair``'s ``n <= SIGN_ORDER_CAP`` gate.
    """
    adj: dict[int, int] = {}
    for u, v in edges:
        adj[u] = adj.get(u, 0) | 1 << v
        adj[v] = adj.get(v, 0) | 1 << u
    memo: dict[int, tuple[tuple[int, int], ...]] = {0: ()}

    def best(mask: int) -> tuple[tuple[int, int], ...]:
        if mask not in memo:
            low = mask & -mask
            u, rest = low.bit_length() - 1, mask ^ low
            picks = [best(rest)]
            free = adj.get(u, 0) & rest
            while free:
                bit = free & -free
                picks.append(((u, bit.bit_length() - 1),) + best(rest ^ bit))
                free ^= bit
            memo[mask] = max(picks, key=len)
        return memo[mask]

    return best(sum(1 << w for w in adj))


def _try_pair(
    pattern: SignPattern,
    spec_a: WitnessSpec,
    spec_b: WitnessSpec,
    method: str,
    detail: dict,
) -> WitnessPair | None:
    """Both specs' stabilized matrices, when their inertias are firm and differ.

    A walk that fails (its eigensolve or its norm included), a
    ``suspect_inertia`` profile on either side, or equal inertias give
    ``None``.  The second walk runs only when the first
    settles on a profile without ``suspect_inertia``.
    """
    try:
        mat_a, eps_a, prof_a = stabilize_epsilon(pattern, spec_a)
        if prof_a.suspect_inertia:
            # A suspect profile on either side gives None, so walk b cannot
            # change the answer.
            return None
        mat_b, eps_b, prof_b = stabilize_epsilon(pattern, spec_b)
    except (
        NoStabilization,
        DegenerateBase,
        CycleNotInPattern,
        SignMismatch,
        EigenFailure,
        NonFinite,
    ):
        return None
    if prof_a.inertia == prof_b.inertia or prof_b.suspect_inertia:
        return None
    detail = dict(detail, epsilon_a=eps_a, epsilon_b=eps_b)
    return WitnessPair(mat_a, mat_b, prof_a.inertia, prof_b.inertia, method, detail)


# A constructed candidate: the parts to emphasize on each side, the method
# name and the detail a certified pair carries.
_Candidate = tuple[tuple[SimpleCycle, ...], tuple[SimpleCycle, ...], str, dict]


def _sign_clash_candidates(facts: PatternAnalysis) -> Iterator[_Candidate]:
    """Oppositely signed maximum composite cycles, each emphasized."""
    try:
        signs = facts.top_signs
    except CycleBudgetExceeded:
        return
    if len(signs) < 2:
        return
    plus, minus = signs[1].parts, signs[-1].parts
    yield (
        plus,
        minus,
        "max-composite-sign-clash",
        {"plus_parts": [p.vertices for p in plus], "minus_parts": [p.vertices for p in minus]},
    )


def _matching_candidates(facts: PatternAnalysis) -> Iterator[_Candidate]:
    """Negative-edge matching versus positive-edge matching, both emphasized.

    Negative edges carry imaginary eigenvalue pairs, positive edges real
    ones, so large enough matchings of both colors pull the zero-real-part
    count apart.
    """
    pattern = facts.pattern
    neg = _max_matching(facts.graph.negative_edges())
    pos = _max_matching(facts.graph.positive_edges())
    if neg and pos:
        yield (
            matching_parts(pattern, neg),
            matching_parts(pattern, pos),
            "negative-vs-positive-matching",
            {"negative_matching": list(neg), "positive_matching": list(pos)},
        )


def _cycle_condition_candidates(facts: PatternAnalysis) -> Iterator[_Candidate]:
    """Constructions driven by each reported cycle's ``facts.conditions_by_cycle``.

    For a cycle with an odd number of negative edges the two traversal
    directions are oppositely signed top-length composites.  For an even
    all-negative cycle an alternating matching gives a purely imaginary
    block while the full cycle does not.  For an even cycle with an
    odd-length sign run the alternating near-cover splits into a negative
    and a positive matching.  The rest of the pattern rides along as
    ``facts.cover_without`` the cycle, a fixed ladder of vertex-disjoint cycles.
    """
    if facts.shape.kind not in (
        ShapeKind.SINGLE_CYCLE,
        ShapeKind.UNICYCLIC,
        ShapeKind.MULTI_CYCLE_NO_LEAF,
    ):
        return
    pattern = facts.pattern
    for cyc, conds in zip(facts.graph.cycle_table.cycles, facts.conditions_by_cycle):
        if conds["odd_negative_count"]:
            fwd = directed_cycle_from_vertices(pattern, cyc)
            rev = directed_cycle_from_vertices(pattern, tuple(reversed(cyc)))
            rest = facts.cover_without(cyc)
            yield (fwd,) + rest, (rev,) + rest, "cycle-orientation-sign-clash", {"cycle": list(cyc)}
        if conds["all_negative"] and len(cyc) % 2 == 0:
            alt = cycle_edge_order(facts.graph, cyc)[0][::2]
            rest = facts.cover_without(cyc)
            yield (
                matching_parts(pattern, alt) + rest,
                (directed_cycle_from_vertices(pattern, cyc),) + rest,
                "all-negative-cycle",
                {"cycle": list(cyc), "matching": list(alt)},
            )
        if conds["even_length_odd_run"]:
            # The cycle carries both signs, so every maximal run is shorter
            # than the cycle; the first odd one drives the construction.
            edges, signs = cycle_edge_order(facts.graph, cyc)
            run = next(r for r in maximal_signed_runs(signs, cyclic=True) if r.length % 2)
            m_neg, m_pos = gamma_matchings_from_odd_run(tuple(zip(edges, signs)), run)
            rest = facts.cover_without(cyc)
            yield (
                matching_parts(pattern, m_neg.edges) + rest,
                matching_parts(pattern, m_pos.edges) + rest,
                "odd-run-alternating-matchings",
                {"cycle": list(cyc), "m1": list(m_neg.edges), "m2": list(m_pos.edges)},
            )


def _candidates(facts: PatternAnalysis) -> Iterator[_Candidate]:
    """Every constructed candidate in the order tried: sign clash, matchings, cycles.

    The last two need a combinatorially symmetric irreducible pattern.
    Candidates are built lazily, so a caller that stops early pays for no
    later cover or cycle.
    """
    yield from _sign_clash_candidates(facts)
    if facts.flags.combinatorially_symmetric and facts.flags.irreducible:
        yield from _matching_candidates(facts)
        yield from _cycle_condition_candidates(facts)


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


def _widest_gap_pair(
    mats: dict[tuple[int, int, int], np.ndarray],
    method: str,
    detail: Callable[[tuple[int, int, int], tuple[int, int, int]], dict],
) -> WitnessPair:
    """The two matrices of ``mats`` widest apart in zero-real-part count, as a witness.

    Each key of ``mats`` is its matrix's firm inertia, so the pair states
    the two keys.  Ties go to the lexicographically largest key pair, and
    ``detail(key_a, key_b)`` gives the pair's detail.  Needs two keys or more.
    """
    keys = sorted(mats)
    key_a, key_b = max(
        ((a, b) for a in keys for b in keys if a < b),
        key=lambda ab: (abs(ab[0][2] - ab[1][2]), ab),
    )
    return WitnessPair(mats[key_a], mats[key_b], key_a, key_b, method, detail(key_a, key_b))


def _pair_from_sampling(facts: PatternAnalysis, cfg: SampleConfig) -> WitnessPair | None:
    """Structured probes, then a census; pair keys with distinct inertia.

    The census reads ``max(_WITNESS_TRIALS, cfg.trials)`` trials of ``facts``.
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
    trials = max(_WITNESS_TRIALS, cfg.trials)
    cen = census(facts, replace(cfg, trials=trials))
    for key in cen.solid_keys():
        pool.setdefault(key, ("census", cen.solid_representatives[key]))
    if len(pool) < 2:
        return None
    return _widest_gap_pair(
        {key: mat for key, (_, mat) in pool.items()},
        "sampled",
        lambda a, b: {"source_a": pool[a][0], "source_b": pool[b][0]},
    )


def find_witness_pair(
    facts: PatternAnalysis, cfg: SampleConfig | None = None
) -> WitnessPair | None:
    """Two realizations of the analysed pattern with different inertias, or None.

    Constructed candidates are certified first, in ``_candidates`` order,
    so that, when one holds, the returned pair is reproducible and
    independent of the sampling seed.  They read the structural facts from
    ``facts``, so a caller that has already derived them does not pay for
    them twice.  Every returned pair has been checked numerically.
    The sampling fallback reads a census of ``max(2000, cfg.trials)``
    trials of ``facts`` under ``cfg``'s seed and laws, so it draws only the
    trials past those its record already holds.
    """
    cfg = cfg or SampleConfig()
    if facts.pattern.n <= SIGN_ORDER_CAP:
        pattern = facts.pattern
        for parts_a, parts_b, method, detail in _candidates(facts):
            pair = _try_pair(pattern, ladder_spec(parts_a), ladder_spec(parts_b), method, detail)
            if pair is not None:
                return pair
    return _pair_from_sampling(facts, cfg)
