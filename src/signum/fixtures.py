"""Built-in catalog of benchmark patterns with recorded expectations.

Each fixture bundles a pattern with executable checks: recorded spectra
of explicit realizations, combinatorial facts about cycle structure, and
the expected verdict.  A realization is a magnitude map over the fixture's
own pattern (``_realize``): it lists only the entries whose magnitude is
not 1, so every realization lies in the pattern's class by construction.
Tags say where an expected value comes from:
``catalog`` values are recorded for the benchmark configuration, ``derived``
values were computed by an independent route and frozen, ``trivial`` values
follow from definitions.  The ``verify`` entry point recomputes everything
and is what the ``verify-paper`` command runs; it analyzes each fixture
once, and every check, the verdict check included, reads that analysis, so
a census check and a verdict check read one census record.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass
from itertools import permutations
from typing import Callable, Iterable

import numpy as np

from .charpoly import char_poly, ek_sign
from .cycles import (
    PatternAnalysis,
    cover_extension_exists,
    directed_cycle_from_vertices,
)
from .graphs import (
    ShapeKind,
    SignedGraph,
    cycle_edge_order,
    maximal_signed_runs,
)
from .patterns import AmbSign, SignPattern, find_principal_subpattern, p_minus, parse_pattern
from .spectra import (
    SampleConfig,
    build_witness,
    census,
    ladder_spec,
    matching_parts,
    spectral_profile,
    stabilize_epsilon,
)
from .verdict import FORBIDDEN_BLOCKS, Conclusion, Overall, _analyze

__all__ = ["Fixture", "CheckOutcome", "FIXTURES", "fixture", "verify", "fixture_names"]

VERDICT_CFG = SampleConfig(trials=600, seed=20240901)
CENSUS_CFG = SampleConfig(trials=1000, seed=20240901)


@dataclass
class CheckOutcome:
    fixture: str
    check_id: str
    tag: str
    passed: bool
    detail: str
    source: str = ""


_Result = tuple[bool, str]  # a check's (passed, detail)


@dataclass(frozen=True)
class Check:
    check_id: str
    tag: str
    source: str
    fn: Callable[[PatternAnalysis], _Result]


@dataclass(frozen=True)
class Fixture:
    name: str
    description: str
    pattern: SignPattern
    checks: tuple[Check, ...]


def _close_multisets(got: Iterable[complex], want: Iterable[complex], tol: float) -> bool:
    got = sorted(got, key=lambda z: (round(z.real, 9), round(z.imag, 9)))
    want = sorted(want, key=lambda z: (round(z.real, 9), round(z.imag, 9)))
    return len(got) == len(want) and all(abs(a - b) <= tol for a, b in zip(got, want))


def _realize(
    pattern: SignPattern, magnitudes: dict[tuple[int, int], float] | None = None
) -> np.ndarray:
    """The pattern's signs times the magnitudes, keyed by 0-based entry; unlisted ones are 1."""
    scale = np.ones((pattern.n, pattern.n))
    support = set(pattern.support())
    for (i, j), m in (magnitudes or {}).items():
        if (i, j) not in support:
            raise ValueError(f"entry ({i + 1},{j + 1}) is not on the pattern's support")
        if not (np.isfinite(m) and m > 0):
            raise ValueError(f"entry ({i + 1},{j + 1}) has magnitude {m}, not finite and positive")
        scale[i, j] = m
    realization = pattern.to_array() * scale
    realization.flags.writeable = False  # several checks may read one realization
    return realization


def _below(*magnitudes: float) -> dict[tuple[int, int], float]:
    """Magnitudes along the subdiagonal, as the sources quote them for paths."""
    return {(i + 1, i): m for i, m in enumerate(magnitudes) if m != 1}


def _check(predicate: Callable[..., _Result]) -> Callable[..., Check]:
    """Make a predicate ``(facts, *args, **kwargs) -> (passed, detail)`` a check builder.

    The builder takes ``(check_id, tag, source, *args, **kwargs)`` and binds
    the arguments against the predicate's signature when it is called, so a
    wrong one raises TypeError while the catalog is built rather than failing
    the check; the check calls the predicate on the facts with them.
    """
    signature = inspect.signature(predicate)

    @functools.wraps(predicate)
    def build(check_id: str, tag: str, source: str, *args, **kwargs) -> Check:
        signature.bind(None, *args, **kwargs)
        return Check(check_id, tag, source, lambda facts: predicate(facts, *args, **kwargs))

    return build


@_check
def _eig_check(
    _: PatternAnalysis,
    realization: np.ndarray,
    inertia: tuple[int, int, int],
    eigenvalues: list[complex] | None = None,
    tol: float = 1e-8,
    refined: tuple[int, int, int, int] | None = None,
    frequency: tuple[int, int] | None = None,
) -> _Result:
    prof = spectral_profile(realization)
    if prof.inertia != inertia:
        return False, f"inertia {prof.inertia}, expected {inertia}"
    if refined is not None and prof.refined != refined:
        return False, f"refined {prof.refined}, expected {refined}"
    if frequency is not None and prof.frequency != frequency:
        return False, f"frequency {prof.frequency}, expected {frequency}"
    if eigenvalues is not None and not _close_multisets(prof.eigenvalues, eigenvalues, tol):
        return False, f"eigenvalues {prof.eigenvalues} off target beyond {tol}"
    return True, f"inertia {prof.inertia}"


@_check
def _abs_eig_check(
    _: PatternAnalysis,
    realization: np.ndarray,
    inertia: tuple[int, int, int],
    moduli: list[float],
    tol: float,
) -> _Result:
    prof = spectral_profile(realization)
    if prof.inertia != inertia:
        return False, f"inertia {prof.inertia}, expected {inertia}"
    got = sorted({round(abs(v), 6) for v in prof.eigenvalues})
    ok = len(got) == len(moduli) and all(abs(a - b) <= tol for a, b in zip(got, sorted(moduli)))
    return ok, f"moduli {got}"


@_check
def _charpoly_check(
    _: PatternAnalysis, realization: np.ndarray, ascending: list[float]
) -> _Result:
    got = char_poly(realization).coeffs
    scale = 1.0 + max(abs(c) for c in ascending)
    ok = len(got) == len(ascending) and all(
        abs(a - b) <= 1e-8 * scale for a, b in zip(got, ascending)
    )
    return ok, f"coefficients {tuple(round(c, 9) for c in got)}"


@_check
def _det_expansion_check(_: PatternAnalysis, realization: np.ndarray, expected: float) -> _Result:
    n = realization.shape[0]
    total = 0.0
    for perm in permutations(range(n)):
        sign, seen = 1, [False] * n
        for start in range(n):
            if seen[start]:
                continue
            length, v = 0, start
            while not seen[v]:
                seen[v] = True
                v = perm[v]
                length += 1
            sign *= (-1) ** (length - 1)
        term = sign
        for i in range(n):
            term *= realization[i, perm[i]]
        total += term
    ok = abs(total - expected) <= 1e-8 * (1 + abs(expected))
    return ok, f"determinant by permutation expansion {total}"


@_check
def _verdict_check(
    facts: PatternAnalysis,
    overall: Overall,
    rules: dict[str, Conclusion] | None = None,
    witness_inertias: set[tuple[tuple[int, int, int], tuple[int, int, int]]] | None = None,
) -> _Result:
    verdict = _analyze(facts, VERDICT_CFG)
    if verdict.overall is not overall:
        return False, f"overall {verdict.overall.value}, expected {overall.value}"
    by_rule = {f.rule_id: f.conclusion for f in verdict.findings}
    for rule, conclusion in (rules or {}).items():
        if (got := by_rule.get(rule)) is not conclusion:
            return False, f"{rule} concluded {got and got.value}, expected {conclusion.value}"
    pair = verdict.witness_pair()
    if overall is Overall.DOES_NOT_REQUIRE and pair is None:
        return False, "no witness pair attached"
    if pair is not None:
        pa = spectral_profile(np.asarray(pair.a))
        pb = spectral_profile(np.asarray(pair.b))
        replayed = (pa.inertia, pb.inertia)
        if replayed != pair.inertias():
            return False, f"witness replays as {replayed}, stated {pair.inertias()}"
        if pa.inertia == pb.inertia:
            return False, "witness pair does not separate inertias"
        if witness_inertias is not None:
            got = frozenset((pa.inertia, pb.inertia))
            want = {frozenset(w) for w in witness_inertias}
            if got not in want:
                return False, f"witness inertias {sorted(got)} not among expected"
    label = verdict.overall.value
    if pair is not None:
        label += f"; witness {pair.method} {sorted((pa.inertia, pb.inertia))}"
    return True, label


@_check
def _census_check(
    facts: PatternAnalysis,
    exact_keys: set[tuple[int, int, int]] | None = None,
    superset: set[tuple[int, int, int]] | None = None,
) -> _Result:
    cen = census(facts, CENSUS_CFG)
    keys = set(cen.inertia_keys())
    if exact_keys is not None and keys != exact_keys:
        return False, f"census keys {sorted(keys)}, expected {sorted(exact_keys)}"
    if superset is not None and not superset.issubset(keys):
        return False, f"census keys {sorted(keys)} missing some of {sorted(superset)}"
    return True, f"census keys {sorted(keys)}"


@_check
def _shape_check(facts: PatternAnalysis, kind: ShapeKind) -> _Result:
    got = facts.shape.kind
    return got is kind, f"shape {got.value}"


@_check
def _runs_check(facts: PatternAnalysis, lengths: list[int], cyclic: bool) -> _Result:
    if cyclic:
        _, signs = cycle_edge_order(facts.graph, facts.graph.cycle_table.cycles[0])
    else:
        _, signs = facts.path_edges
    got = sorted(r.length for r in maximal_signed_runs(signs, cyclic=cyclic))
    return got == sorted(lengths), f"run lengths {got}"


@_check
def _max_composite_check(facts: PatternAnalysis, expected: int) -> _Result:
    got = facts.pattern.max_composite_length
    return got == expected, f"max composite length {got}"


@_check
def _cover_check(facts: PatternAnalysis, cycle: tuple[int, ...], expected: bool) -> _Result:
    pattern = facts.pattern
    got = cover_extension_exists(pattern, directed_cycle_from_vertices(pattern, cycle))
    return got is expected, f"cover extension {got}"


@_check
def _window_check(facts: PatternAnalysis, block: str, start_1based: int) -> _Result:
    windows = find_principal_subpattern(facts.pattern, FORBIDDEN_BLOCKS[block])
    starts = [w[0] + 1 for w in windows]
    return start_1based in starts, f"windows at {starts}"


@_check
def _sign_set_check(facts: PatternAnalysis, plus: bool, minus: bool) -> _Result:
    signs = facts.top_signs
    got = (1 in signs, -1 in signs)
    return got == (plus, minus), f"top-length sign set plus={got[0]} minus={got[1]}"


@_check
def _stabilize_check(
    facts: PatternAnalysis, cycle: tuple[int, ...], inertia: tuple[int, int, int]
) -> _Result:
    pattern = facts.pattern
    part = directed_cycle_from_vertices(pattern, cycle)
    _, eps, prof = stabilize_epsilon(pattern, ladder_spec((part,)))
    return prof.inertia == inertia, f"stabilized inertia {prof.inertia} at epsilon {eps}"


@_check
def _skew_check(facts: PatternAnalysis) -> _Result:
    pattern = facts.pattern
    edges, _ = cycle_edge_order(facts.graph, facts.shape.cycles[0])
    matching = tuple(edges[t] for t in range(0, len(edges), 2))
    spec = ladder_spec(matching_parts(pattern, matching), epsilon=1e-3)
    mat = build_witness(pattern, spec)
    if not np.array_equal(mat, -mat.T):
        return False, "witness is not exactly skew-symmetric"
    return True, f"skew witness certifies inertia (0, 0, {pattern.n}) without an eigensolve"


@_check
def _leaf_distance_check(facts: PatternAnalysis, expected: list[tuple[int, int]]) -> _Result:
    """expected: (leaf, distance) pairs, 0-based leaves, for the first cycle."""
    got = sorted((leaf, d) for leaf, c, d in facts.cycle_report.leaf_cycle_distances if c == 0)
    return got == sorted(expected), f"leaf distances {got}"


@_check
def _pair_distance_check(facts: PatternAnalysis, expected_edge_counts: list[int]) -> _Result:
    got = sorted(link for (_, _, link) in facts.cycle_report.path_adjacent_pairs)
    return got == sorted(expected_edge_counts), f"path-adjacent edge counts {got}"


@_check
def _pminus_edges_check(
    facts: PatternAnalysis, expected_signs: dict[tuple[int, int], int]
) -> _Result:
    got = dict(SignedGraph(p_minus(facts.pattern)).edges)
    return got == expected_signs, f"flipped edge signs {got}"


_DNR = Conclusion.DOES_NOT_REQUIRE
_REQ = Conclusion.REQUIRES_UNIQUE


def _build_fixtures() -> dict[str, Fixture]:
    fixtures: list[Fixture] = []

    # --- order-3 single cycles -------------------------------------------
    ex26 = parse_pattern("0 + -\n- 0 +\n+ - 0")
    ex26_unit = _realize(ex26)
    fixtures.append(
        Fixture(
            "PAT_EX26",
            "3-cycle pattern whose two triangles are oppositely signed",
            ex26,
            (
                _shape_check("shape", "trivial", "triangle support", ShapeKind.SINGLE_CYCLE),
                _eig_check(
                    "unit-realization",
                    "catalog",
                    "all magnitudes 1",
                    ex26_unit,
                    (0, 0, 3),
                    eigenvalues=[0, 1.7320508075688772j, -1.7320508075688772j],
                    refined=(0, 0, 1, 2),
                    frequency=(1, 2),
                ),
                _eig_check(
                    "bumped-realization",
                    "catalog",
                    "entry (1,2) raised to 2",
                    _realize(ex26, {(0, 1): 2}),
                    (1, 2, 0),
                ),
                _charpoly_check(
                    "charpoly",
                    "catalog",
                    "cubic with pure linear term",
                    ex26_unit,
                    [0.0, 3.0, 0.0, 1.0],
                ),
                Check(
                    "pair-sum-sign",
                    "derived",
                    "all three 2-cycles are positive",
                    lambda facts: (
                        (sign := ek_sign(facts.pattern, 2)) is AmbSign.PLUS,
                        f"length-2 cycle sum sign {sign.value}",
                    ),
                ),
                _verdict_check("verdict", "catalog", "two inertias realized", Overall.DOES_NOT_REQUIRE, rules={"R1": _DNR}),
            ),
        )
    )

    xx1 = parse_pattern("0 + +\n+ 0 +\n- + 0")
    fixtures.append(
        Fixture(
            "PAT_XX1",
            "triangle with one negative edge; the two triangles disagree in sign",
            xx1,
            (
                _sign_set_check("sign-clash", "catalog", "oppositely signed triangles", True, True),
                _stabilize_check(
                    "stabilized-negative-triangle",
                    "derived",
                    "emphasize the negative triangle, shrink the rest",
                    (0, 1, 2),
                    (2, 1, 0),
                ),
                _verdict_check("verdict", "catalog", "allows singularity", Overall.DOES_NOT_REQUIRE, rules={"R1": _DNR, "R2": _DNR, "R5": _DNR}),
            ),
        )
    )

    xx2 = parse_pattern("0 + +\n+ 0 +\n+ + 0")
    fixtures.append(
        Fixture(
            "PAT_XX2",
            "all-positive triangle; every determinant term positive",
            xx2,
            (
                _sign_set_check("single-sign", "catalog", "both triangles positive", True, False),
                _census_check("census", "derived", "one inertia observed", exact_keys={(1, 2, 0)}),
                _verdict_check("verdict", "catalog", "sign nonsingular odd cycle", Overall.REQUIRES_UNIQUE, rules={"R2": _REQ}),
            ),
        )
    )

    xeg1 = parse_pattern("0 - +\n+ 0 -\n+ + 0")
    fixtures.append(
        Fixture(
            "PAT_XEG1",
            "odd cycle with an odd-length sign run that is still sign nonsingular",
            xeg1,
            (
                _verdict_check("verdict", "catalog", "odd order wins over the run condition", Overall.REQUIRES_UNIQUE, rules={"R2": _REQ, "R5": Conclusion.NO_CONCLUSION}),
            ),
        )
    )

    # --- tridiagonal family ----------------------------------------------
    p4 = parse_pattern("0 + 0 0\n+ 0 - 0\n0 + 0 +\n0 0 + 0")
    p4_imaginary = _realize(p4, _below(1, 10, 4))
    fixtures.append(
        Fixture(
            "PAT_P4",
            "order-4 path with signs +,-,+; the smallest forbidden block",
            p4,
            (
                _runs_check("runs", "catalog", "edge signs +,-,+", [1, 1, 1], cyclic=False),
                _eig_check(
                    "unit-realization",
                    "catalog",
                    "all magnitudes 1",
                    _realize(p4),
                    (2, 2, 0),
                    eigenvalues=[
                        0.8660254037844386 + 0.5j,
                        0.8660254037844386 - 0.5j,
                        -0.8660254037844386 + 0.5j,
                        -0.8660254037844386 - 0.5j,
                    ],
                ),
                _eig_check(
                    "imaginary-realization",
                    "catalog",
                    "magnitudes 1, 10, 4 below the diagonal",
                    p4_imaginary,
                    (0, 0, 4),
                    eigenvalues=[1j, -1j, 2j, -2j],
                ),
                _charpoly_check(
                    "charpoly",
                    "catalog",
                    "factors as (x^2+1)(x^2+4)",
                    p4_imaginary,
                    [4.0, 0.0, 5.0, 0.0, 1.0],
                ),
                _window_check("self-window", "trivial", "block matches itself", "block4", 1),
                _verdict_check(
                    "verdict",
                    "catalog",
                    "three odd runs",
                    Overall.DOES_NOT_REQUIRE,
                    rules={"R3": _DNR, "R4": _DNR},
                    witness_inertias={((2, 2, 0), (0, 0, 4))},
                ),
            ),
        )
    )

    p4m = parse_pattern("0 - 0 0\n+ 0 + 0\n0 + 0 -\n0 0 + 0")
    fixtures.append(
        Fixture(
            "PAT_P4M",
            "edge-flipped order-4 path; nonsingular but with colliding eigenvalues",
            p4m,
            (
                _eig_check(
                    "real-pairs",
                    "catalog",
                    "magnitudes a=c=1, b=4",
                    _realize(p4m, _below(1, 4, 1)),
                    (2, 2, 0),
                    eigenvalues=[1, 1, -1, -1],
                    tol=1e-6,
                ),
                _eig_check(
                    "imaginary-pairs",
                    "catalog",
                    "magnitudes a=8, b=c=2",
                    _realize(p4m, _below(8, 2, 2)),
                    (0, 0, 4),
                    eigenvalues=[2j, 2j, -2j, -2j],
                    tol=1e-6,
                ),
                _verdict_check("verdict", "catalog", "flip of the forbidden block", Overall.DOES_NOT_REQUIRE, rules={"R3": _DNR, "R4": _DNR}),
            ),
        )
    )

    p6 = parse_pattern("0 + 0 0 0 0\n+ 0 + 0 0 0\n0 + 0 - 0 0\n0 0 + 0 + 0\n0 0 0 + 0 +\n0 0 0 0 + 0")
    fixtures.append(
        Fixture(
            "PAT_P6",
            "order-6 path with exactly one odd sign run, still two inertias",
            p6,
            (
                _runs_check("runs", "catalog", "edge signs +,+,-,+,+", [2, 1, 2], cyclic=False),
                _abs_eig_check(
                    "imaginary-realization",
                    "catalog",
                    "magnitudes 1/20, 5, 20, 5, 1/20 below the diagonal",
                    _realize(p6, _below(1 / 20, 5, 20, 5, 1 / 20)),
                    (0, 0, 6),
                    [2.4401, 1.9859, 0.0461],
                    1e-3,
                ),
                _eig_check(
                    "unit-realization",
                    "catalog",
                    "all magnitudes 1",
                    _realize(p6),
                    (2, 2, 2),
                    eigenvalues=[
                        -1.3071 + 0.2151j,
                        -1.3071 - 0.2151j,
                        1.3071 + 0.2151j,
                        1.3071 - 0.2151j,
                        0.5698j,
                        -0.5698j,
                    ],
                    tol=1e-3,
                ),
                _window_check("embedded-block", "derived", "order-4 block at rows 2..5", "block4", 2),
                _verdict_check(
                    "verdict",
                    "catalog",
                    "forbidden block inside",
                    Overall.DOES_NOT_REQUIRE,
                    rules={"R3": Conclusion.NO_CONCLUSION, "R4": _DNR},
                    witness_inertias={((0, 0, 6), (2, 2, 2))},
                ),
            ),
        )
    )

    p6p = parse_pattern("0 + 0 0 0 0\n+ 0 - 0 0 0\n0 + 0 - 0 0\n0 0 + 0 - 0\n0 0 0 + 0 +\n0 0 0 0 + 0")
    fixtures.append(
        Fixture(
            "PAT_P6P",
            "order-6 path with runs 1,3,1",
            p6p,
            (
                _runs_check("runs", "catalog", "edge signs +,-,-,-,+", [1, 3, 1], cyclic=False),
                _eig_check(
                    "mixed-realization",
                    "catalog",
                    "magnitude a=10, rest 1",
                    _realize(p6p, _below(10)),
                    (2, 2, 2),
                    eigenvalues=[
                        3.0148,
                        -3.0148,
                        0.7983,
                        -0.7983,
                        1.3139j,
                        -1.3139j,
                    ],
                    tol=1e-3,
                ),
                _eig_check(
                    "imaginary-realization",
                    "catalog",
                    "magnitudes 1/20, 5, 20, 5, 1/20",
                    _realize(p6p, _below(1 / 20, 5, 20, 5, 1 / 20)),
                    (0, 0, 6),
                    eigenvalues=[
                        5.3970j,
                        -5.3970j,
                        0.8776j,
                        -0.8776j,
                        0.0472j,
                        -0.0472j,
                    ],
                    tol=1e-3,
                ),
                _verdict_check("verdict", "catalog", "three odd runs", Overall.DOES_NOT_REQUIRE, rules={"R3": _DNR, "R4": _DNR}),
            ),
        )
    )

    p8p = parse_pattern(
        "0 + 0 0 0 0 0 0\n+ 0 + 0 0 0 0 0\n0 + 0 - 0 0 0 0\n0 0 + 0 - 0 0 0\n"
        "0 0 0 + 0 - 0 0\n0 0 0 0 + 0 + 0\n0 0 0 0 0 + 0 +\n0 0 0 0 0 0 + 0"
    )
    fixtures.append(
        Fixture(
            "PAT_P8P",
            "order-8 path with one odd run that still splits into two inertias",
            p8p,
            (
                _eig_check(
                    "unit-realization",
                    "catalog",
                    "all magnitudes 1",
                    _realize(p8p),
                    (2, 2, 4),
                    eigenvalues=[
                        -1.3096 + 0.0611j,
                        -1.3096 - 0.0611j,
                        1.3096 + 0.0611j,
                        1.3096 - 0.0611j,
                        1.5080j,
                        -1.5080j,
                        0.3858j,
                        -0.3858j,
                    ],
                    tol=1e-3,
                ),
                _eig_check(
                    "imaginary-realization",
                    "catalog",
                    "magnitudes 1/20, 5, 20, 5, 20, 5, 1/20",
                    _realize(p8p, _below(1 / 20, 5, 20, 5, 20, 5, 1 / 20)),
                    (0, 0, 8),
                    eigenvalues=[
                        5.3989j,
                        -5.3989j,
                        2.2575j,
                        -2.2575j,
                        0.1022j,
                        -0.1022j,
                        0.8032j,
                        -0.8032j,
                    ],
                    tol=1e-3,
                ),
                _verdict_check("verdict", "catalog", "embedded order-6 block", Overall.DOES_NOT_REQUIRE, rules={"R4": _DNR}),
            ),
        )
    )

    # --- order-4 single cycles -------------------------------------------
    eg06 = parse_pattern("0 - 0 +\n+ 0 - 0\n0 + 0 +\n+ 0 + 0")
    fixtures.append(
        Fixture(
            "PAT_EG06",
            "4-cycle with edge signs -,-,+,+; one inertia for the whole class",
            eg06,
            (
                _eig_check(
                    "unit-realization",
                    "derived",
                    "all magnitudes 1",
                    _realize(eg06),
                    (1, 1, 2),
                ),
                _census_check("census", "catalog", "single inertia over the class", exact_keys={(1, 1, 2)}),
                _verdict_check(
                    "verdict",
                    "catalog",
                    "no rule applies and sampling never splits",
                    Overall.INCONCLUSIVE,
                    rules={"R5": Conclusion.NO_CONCLUSION, "R8": Conclusion.NO_CONCLUSION},
                ),
            ),
        )
    )

    allplus4 = parse_pattern("0 + 0 +\n+ 0 + 0\n0 + 0 +\n+ 0 + 0")
    fixtures.append(
        Fixture(
            "PAT_ALLPLUS4",
            "all-positive 4-cycle; no run condition yet two inertias",
            allplus4,
            (
                _eig_check(
                    "unit-realization",
                    "catalog",
                    "all magnitudes 1",
                    _realize(allplus4),
                    (1, 1, 2),
                    eigenvalues=[0, 0, 2, -2],
                    tol=1e-6,
                ),
                _eig_check(
                    "spread-realization",
                    "catalog",
                    "magnitudes 2 on one diagonal pairing",
                    _realize(allplus4, {(0, 1): 2, (1, 0): 2, (2, 3): 2, (3, 2): 2}),
                    (2, 2, 0),
                    eigenvalues=[3, 1, -1, -3],
                    tol=1e-6,
                ),
                _census_check("census", "catalog", "both inertias show up", superset={(1, 1, 2), (2, 2, 0)}),
                _verdict_check("verdict", "catalog", "top-length sign clash", Overall.DOES_NOT_REQUIRE, rules={"R1": _DNR, "R5": Conclusion.NO_CONCLUSION}),
            ),
        )
    )

    xxeg22 = parse_pattern("0 + 0 +\n- 0 + 0\n0 + 0 -\n+ 0 + 0")
    xxeg22_bumped = _realize(xxeg22, {(0, 1): 11})
    fixtures.append(
        Fixture(
            "PAT_XXEG22",
            "4-cycle digraph whose top-length composite cycles all agree in sign",
            xxeg22,
            (
                _sign_set_check("single-sign", "catalog", "all length-4 composites positive", True, False),
                _eig_check(
                    "unit-realization",
                    "catalog",
                    "all magnitudes 1",
                    _realize(xxeg22),
                    (2, 2, 0),
                    eigenvalues=[1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j],
                ),
                _eig_check(
                    "bumped-realization",
                    "catalog",
                    "entry (1,2) raised to 11",
                    xxeg22_bumped,
                    (0, 0, 4),
                    eigenvalues=[2j, -2j, 2.449489742783178j, -2.449489742783178j],
                ),
                _charpoly_check(
                    "charpoly",
                    "catalog",
                    "factors as (x^2+4)(x^2+6)",
                    xxeg22_bumped,
                    [24.0, 0.0, 10.0, 0.0, 1.0],
                ),
                _det_expansion_check(
                    "det-expansion",
                    "catalog",
                    "24 by direct permutation expansion",
                    xxeg22_bumped,
                    24.0,
                ),
                _stabilize_check(
                    "stabilized-full-cycle",
                    "catalog",
                    "emphasize the 4-cycle, shrink the rest",
                    (0, 1, 2, 3),
                    (2, 2, 0),
                ),
                _verdict_check("verdict", "catalog", "odd run on an even cycle", Overall.DOES_NOT_REQUIRE, rules={"R1": Conclusion.NO_CONCLUSION, "R5": _DNR}),
            ),
        )
    )

    xnfig2 = parse_pattern("0 + 0 +\n- 0 + 0\n0 + 0 +\n+ 0 - 0")
    fixtures.append(
        Fixture(
            "PAT_XNFIG2",
            "4-cycle with alternating edge signs; every run is odd",
            xnfig2,
            (
                _verdict_check("verdict", "catalog", "odd run on an even cycle", Overall.DOES_NOT_REQUIRE, rules={"R5": _DNR}),
            ),
        )
    )

    allneg4 = parse_pattern("0 + 0 -\n- 0 + 0\n0 - 0 +\n+ 0 - 0")
    fixtures.append(
        Fixture(
            "PAT_ALLNEG4",
            "4-cycle with every edge negative",
            allneg4,
            (
                _skew_check("skew-witness", "catalog", "alternating matching gives an exactly skew realization"),
                _verdict_check("verdict", "catalog", "all edges negative", Overall.DOES_NOT_REQUIRE, rules={"R5": _DNR}),
            ),
        )
    )

    hex6 = parse_pattern("0 + 0 0 0 +\n- 0 + 0 0 0\n0 - 0 + 0 0\n0 0 - 0 + 0\n0 0 0 + 0 +\n+ 0 0 0 + 0")
    fixtures.append(
        Fixture(
            "PAT_HEX6",
            "6-cycle split into one negative and one positive run of length 3",
            hex6,
            (
                _runs_check("runs", "catalog", "three negative then three positive edges", [3, 3], cyclic=True),
                _verdict_check("verdict", "catalog", "two odd runs on an even cycle", Overall.DOES_NOT_REQUIRE, rules={"R5": _DNR}),
            ),
        )
    )

    # --- trees -------------------------------------------------------------
    pminus4 = parse_pattern("0 + 0 0\n+ 0 + +\n0 - 0 0\n0 + 0 0")
    fixtures.append(
        Fixture(
            "PAT_PMINUS4",
            "star-like tree used to show the edge-sign flip",
            pminus4,
            (
                _shape_check("shape", "trivial", "tree with a degree-3 hub", ShapeKind.TREE),
                _pminus_edges_check(
                    "edge-flip",
                    "catalog",
                    "edge signs +,-,+ flip to -,+,-",
                    {(0, 1): -1, (1, 2): 1, (1, 3): -1},
                ),
                Check(
                    "double-flip",
                    "trivial",
                    "flipping twice restores every edge sign",
                    lambda facts: (
                        SignedGraph(p_minus(p_minus(facts.pattern))).edges
                        == facts.graph.edges,
                        "edge signs restored",
                    ),
                ),
                _verdict_check("verdict", "derived", "both 2-cycle signs occur at the top length", Overall.DOES_NOT_REQUIRE, rules={"R1": _DNR}),
            ),
        )
    )

    x16 = parse_pattern("0 - 0 0 0 0\n+ 0 + 0 0 0\n0 + 0 + 0 +\n0 0 + 0 - 0\n0 0 0 + 0 0\n0 0 + 0 0 0")
    fixtures.append(
        Fixture(
            "PAT_X16",
            "order-6 tree whose eigenvalue frequency is pinned at (2, 4)",
            x16,
            (
                _shape_check("shape", "trivial", "tree with one branch vertex", ShapeKind.TREE),
                _census_check("census", "derived", "one inertia observed over the class", exact_keys={(1, 1, 4)}),
                _verdict_check("verdict", "derived", "no rule fires; evidence only", Overall.INCONCLUSIVE),
            ),
        )
    )

    # --- unicyclic ----------------------------------------------------------
    uni61 = parse_pattern("0 + 0 + 0 0\n- 0 + 0 0 0\n0 + 0 + 0 0\n+ 0 + 0 + 0\n0 0 0 + 0 +\n0 0 0 0 + 0")
    fixtures.append(
        Fixture(
            "PAT_UNI61",
            "square with one negative edge plus a pendant path of even length",
            uni61,
            (
                _shape_check("shape", "trivial", "one cycle with a tail", ShapeKind.UNICYCLIC),
                _leaf_distance_check("leaf-distance", "catalog", "leaf two steps from the cycle", [(5, 2)]),
                _max_composite_check("max-composite", "derived", "square plus the tail 2-cycle", 6),
                _verdict_check("verdict", "catalog", "odd negative count on the cycle", Overall.DOES_NOT_REQUIRE, rules={"R6": _DNR}),
            ),
        )
    )

    uni62 = parse_pattern("0 + 0 - 0 0\n- 0 + 0 0 0\n0 - 0 + 0 0\n+ 0 - 0 + 0\n0 0 0 + 0 +\n0 0 0 0 + 0")
    fixtures.append(
        Fixture(
            "PAT_UNI62",
            "all-negative square plus a pendant path of even length",
            uni62,
            (
                _leaf_distance_check("leaf-distance", "catalog", "leaf two steps from the cycle", [(5, 2)]),
                _verdict_check("verdict", "catalog", "all cycle edges negative", Overall.DOES_NOT_REQUIRE, rules={"R6": _DNR}),
            ),
        )
    )

    tripath6 = parse_pattern("0 + + 0 0 0\n+ 0 + 0 0 0\n+ + 0 + 0 0\n0 0 + 0 + 0\n0 0 0 + 0 +\n0 0 0 0 + 0")
    fixtures.append(
        Fixture(
            "PAT_TRIPATH6",
            "triangle with a pendant path of odd length; the extension lemma fails",
            tripath6,
            (
                _shape_check("shape", "trivial", "one cycle with a tail", ShapeKind.UNICYCLIC),
                _leaf_distance_check("leaf-distance", "derived", "leaf three steps from the cycle", [(5, 3)]),
                _max_composite_check("max-composite", "catalog", "three disjoint 2-cycles despite the short cycle", 6),
                _verdict_check("verdict", "derived", "odd leaf distance blocks the cycle rule", Overall.INCONCLUSIVE, rules={"R6": Conclusion.NO_CONCLUSION}),
            ),
        )
    )

    # --- several cycles -------------------------------------------------------
    twocyc81 = parse_pattern(
        "0 + + 0 0 0 0 0\n- 0 + 0 0 0 0 0\n+ + 0 + 0 0 0 0\n0 0 + 0 + 0 0 0\n"
        "0 0 0 - 0 + 0 0\n0 0 0 0 + 0 + +\n0 0 0 0 0 + 0 +\n0 0 0 0 0 + + 0"
    )
    fixtures.append(
        Fixture(
            "PAT_TWOCYC81",
            "two triangles joined by a path of three edges",
            twocyc81,
            (
                _shape_check("shape", "trivial", "two cycles, no leaf", ShapeKind.MULTI_CYCLE_NO_LEAF),
                _pair_distance_check("pair-distance", "catalog", "three connecting edges", [3]),
                _verdict_check("verdict", "catalog", "odd negative count on one triangle", Overall.DOES_NOT_REQUIRE, rules={"R7": _DNR}),
            ),
        )
    )

    twocyc82 = parse_pattern(
        "0 + 0 - 0 0 0 0\n- 0 + 0 0 0 0 0\n0 - 0 + 0 0 0 0\n+ 0 - 0 + 0 0 0\n"
        "0 0 0 + 0 + 0 +\n0 0 0 0 + 0 + 0\n0 0 0 0 0 + 0 +\n0 0 0 0 + 0 + 0"
    )
    fixtures.append(
        Fixture(
            "PAT_TWOCYC82",
            "all-negative square and all-positive square joined by one edge",
            twocyc82,
            (
                _pair_distance_check("pair-distance", "catalog", "single bridge edge", [1]),
                _cover_check("cover-extension", "catalog", "the other square still pairs up", (0, 1, 2, 3), True),
                _verdict_check("verdict", "catalog", "all-negative cycle among even cycles", Overall.DOES_NOT_REQUIRE, rules={"R7": _DNR}),
            ),
        )
    )

    twocyc83 = parse_pattern(
        "0 + 0 + 0 0 0 0\n- 0 + 0 0 0 0 0\n0 + 0 + 0 0 0 0\n+ 0 + 0 + 0 0 0\n"
        "0 0 0 + 0 + 0 +\n0 0 0 0 + 0 + 0\n0 0 0 0 0 + 0 +\n0 0 0 0 + 0 + 0"
    )
    fixtures.append(
        Fixture(
            "PAT_TWOCYC83",
            "square with one negative edge joined to an all-positive square",
            twocyc83,
            (
                _verdict_check("verdict", "catalog", "odd run on an even cycle, odd distance", Overall.DOES_NOT_REQUIRE, rules={"R7": _DNR}),
            ),
        )
    )

    twosq9 = parse_pattern(
        "0 + 0 + 0 0 0 0 0\n+ 0 + 0 0 0 0 0 0\n0 + 0 + 0 0 0 0 0\n+ 0 + 0 + 0 0 0 0\n"
        "0 0 0 + 0 + 0 0 0\n0 0 0 0 + 0 + 0 +\n0 0 0 0 0 + 0 + 0\n0 0 0 0 0 0 + 0 +\n"
        "0 0 0 0 0 + 0 + 0"
    )
    fixtures.append(
        Fixture(
            "PAT_TWOSQ9",
            "two squares joined by a two-edge path on nine vertices",
            twosq9,
            (
                _max_composite_check("max-composite", "catalog", "one vertex always left out", 8),
                _pair_distance_check("pair-distance", "derived", "two connecting edges", [2]),
                _verdict_check("verdict", "derived", "order exceeds the top composite length", Overall.DOES_NOT_REQUIRE, rules={"R1": _DNR, "R7": Conclusion.NO_CONCLUSION}),
            ),
        )
    )

    sqtri8 = parse_pattern(
        "0 + 0 + 0 0 0 0\n+ 0 + 0 0 0 0 0\n0 + 0 + 0 0 0 0\n+ 0 + 0 + 0 0 0\n"
        "0 0 0 + 0 + 0 0\n0 0 0 0 + 0 + +\n0 0 0 0 0 + 0 +\n0 0 0 0 0 + + 0"
    )
    fixtures.append(
        Fixture(
            "PAT_SQTRI8",
            "square and triangle joined by a two-edge path",
            sqtri8,
            (
                _cover_check("cover-extension", "catalog", "five vertices remain, no perfect pairing", (5, 6, 7), False),
                _max_composite_check("max-composite", "derived", "square, bridge pair, and triangle cannot all pack", 8),
                _verdict_check("verdict", "derived", "mixed-parity composites clash in sign", Overall.DOES_NOT_REQUIRE, rules={"R1": _DNR}),
            ),
        )
    )

    return {f.name: f for f in fixtures}


FIXTURES: dict[str, Fixture] = _build_fixtures()


def fixture_names() -> list[str]:
    return sorted(FIXTURES)


def fixture(name: str) -> Fixture:
    try:
        return FIXTURES[name]
    except KeyError:
        raise KeyError(f"unknown fixture {name!r}; known: {', '.join(fixture_names())}")


def verify(names: Iterable[str] | None = None) -> list[CheckOutcome]:
    """Recompute every recorded expectation; one outcome per check."""
    outcomes: list[CheckOutcome] = []
    selected = list(names) if names is not None else fixture_names()
    for name in selected:
        fix = fixture(name)
        facts = PatternAnalysis(fix.pattern)
        for check in fix.checks:
            try:
                passed, detail = check.fn(facts)
            except Exception as exc:  # a crash is a failed expectation
                passed, detail = False, f"raised {type(exc).__name__}: {exc}"
            outcomes.append(
                CheckOutcome(name, check.check_id, check.tag, passed, detail, check.source)
            )
    return outcomes
