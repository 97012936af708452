"""Ordered decision rules for the unique-inertia question.

Each rule checks one combinatorial or numeric criterion and either forces
a conclusion or stays silent.  Only the odd-sign-nonsingular-cycle rule
can certify that a pattern requires a unique inertia; sampling evidence
never upgrades a verdict beyond inconclusive.  Whenever a rule concludes
that the pattern does not require a unique inertia, a concrete pair of
realizations with distinct inertias is attached when one can be built.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from enum import Enum

import numpy as np

from .cycles import (
    SIGN_SET_ORDER_CAP,
    PatternAnalysis,
    cover_extension_exists,
    directed_cycle_from_vertices,
    max_composite_length,
)
from .graphs import (
    GraphShape,
    ShapeKind,
    SignedDigraph,
    cycle_edge_order,
    cycle_structure,
    maximal_signed_runs,
)
from .patterns import AmbSign, PatternFlags, SignPattern, p_minus
from .spectra import (
    Census,
    SampleConfig,
    WitnessPair,
    census,
    find_witness_pair,
    spectral_profile,
)

__all__ = [
    "Conclusion",
    "Overall",
    "RuleFinding",
    "Verdict",
    "analyze",
    "explain",
    "verdict_to_json",
    "FORBIDDEN_BLOCKS",
]


class Conclusion(Enum):
    DOES_NOT_REQUIRE = "does_not_require"
    REQUIRES_UNIQUE = "requires_unique"
    NO_CONCLUSION = "no_conclusion"


class Overall(Enum):
    REQUIRES_UNIQUE = "requires_unique"
    DOES_NOT_REQUIRE = "does_not_require"
    INCONCLUSIVE = "inconclusive"


@dataclass
class RuleFinding:
    rule_id: str
    applicable: bool
    conclusion: Conclusion
    reason: str
    witness: WitnessPair | None = None
    details: dict = field(default_factory=dict)


@dataclass
class Verdict:
    pattern: SignPattern
    flags: PatternFlags
    shape: GraphShape | None
    findings: list[RuleFinding]
    overall: Overall
    census: Census | None

    def witness_pair(self) -> WitnessPair | None:
        for f in self.findings:
            if f.witness is not None:
                return f.witness
        return None


def _forbidden_blocks() -> dict[str, SignPattern]:
    p4 = SignPattern.from_rows(
        [[0, 1, 0, 0], [1, 0, -1, 0], [0, 1, 0, 1], [0, 0, 1, 0]]
    )
    p4m = SignPattern.from_rows(
        [[0, -1, 0, 0], [1, 0, 1, 0], [0, 1, 0, -1], [0, 0, 1, 0]]
    )
    p6p = SignPattern.from_rows(
        [
            [0, 1, 0, 0, 0, 0],
            [1, 0, -1, 0, 0, 0],
            [0, 1, 0, -1, 0, 0],
            [0, 0, 1, 0, -1, 0],
            [0, 0, 0, 1, 0, 1],
            [0, 0, 0, 0, 1, 0],
        ]
    )
    p6pm = SignPattern.from_rows(
        [
            [0, -1, 0, 0, 0, 0],
            [1, 0, 1, 0, 0, 0],
            [0, 1, 0, 1, 0, 0],
            [0, 0, 1, 0, 1, 0],
            [0, 0, 0, 1, 0, -1],
            [0, 0, 0, 0, 1, 0],
        ]
    )
    return {"block4": p4, "block4_flip": p4m, "block6": p6p, "block6_flip": p6pm}


FORBIDDEN_BLOCKS = _forbidden_blocks()


_FORBIDDEN_EDGE_SIGNS = {
    name: PatternAnalysis(block).path_edges[1] for name, block in FORBIDDEN_BLOCKS.items()
}

_REASONS = {
    "R0": "preconditions failed: the rules need an irreducible combinatorially"
    " symmetric pattern with zero diagonal",
    "R1": "maximum-length composite cycles occur with both signs, so the top"
    " coefficient of the characteristic polynomial takes both signs over the class",
    "R2": "the graph is an odd cycle and every determinant term has the same sign,"
    " so no realization has an eigenvalue with zero real part",
    "R2-": "the graph is an odd cycle whose two spanning cycles disagree in sign,"
    " so the determinant takes both signs over the class",
    "R3": "a tridiagonal pattern with two or more maximal sign runs of odd length"
    " admits realizations with distinct inertias",
    "R4": "the path contains a tridiagonal block already known to admit distinct"
    " inertias, and block witnesses extend along the path",
    "R5": "a cycle with an odd number of negative edges, or all edges negative, or"
    " even length with an odd-length sign run, admits distinct inertias",
    "R6": "the single cycle satisfies a distinct-inertia condition and every leaf"
    " lies at even distance from it, so cycle witnesses extend to the whole graph",
    "R7": "some cycle satisfies a distinct-inertia condition, the graph has no leaf,"
    " and path-adjacent cycles sit at odd distance, so cycle witnesses extend",
    "R8": "sampling produced realizations with different zero-real-part counts",
    "R9": "for tree patterns, requiring a unique inertia is equivalent to frequency"
    " consistency of the edge-flipped pattern; its census is reported as evidence",
}


def _finding(rule_id: str, fires: bool, details: dict, reason: str | None = None) -> RuleFinding:
    """An applicable finding that concludes does-not-require exactly when it fires."""
    return RuleFinding(
        rule_id,
        True,
        Conclusion.DOES_NOT_REQUIRE if fires else Conclusion.NO_CONCLUSION,
        reason or _REASONS[rule_id],
        details=details,
    )


def _odd_cycle_det_sign(digraph: SignedDigraph, cycle: tuple[int, ...]) -> AmbSign:
    """Determinant sign of an odd single-cycle pattern with zero diagonal.

    Its only spanning composite cycles are the cycle's two orientations, and
    an odd cycle is an even permutation, so each term's sign is its cycle
    sign.  Two terms, so no enumeration and no order cap.
    """
    forward, backward = (directed_cycle_from_vertices(digraph, c) for c in (cycle, cycle[::-1]))
    return AmbSign.from_int(forward.sign).add(AmbSign.from_int(backward.sign))


def _cycle_conditions(signs: tuple[int, ...]) -> dict[str, bool]:
    k = len(signs)
    n_neg = sum(1 for s in signs if s < 0)
    # Only an even cycle can meet the odd-run condition, so only its runs are read.
    odd_run = k % 2 == 0 and any(
        r.length % 2 == 1 and r.length < k for r in maximal_signed_runs(signs, cyclic=True)
    )
    return {
        "odd_negative_count": n_neg % 2 == 1,
        "all_negative": n_neg == k,
        "even_length_odd_run": odd_run,
    }


def _flipped_frequencies(
    flipped: SignPattern, cen: Census, cfg: SampleConfig
) -> dict[tuple[int, int], int]:
    """(real, nonreal) counts of a census of ``flipped`` under ``cfg``.

    ``flipped`` is ``p_minus`` of the tree pattern ``cen`` sampled under
    ``cfg``.  Trial t of both censuses has the same magnitudes, hence the
    same tolerance, and the flip turns its spectrum a quarter turn, so the
    flipped trial's real count is the main trial's zero-real-part count:
    the frequencies are ``cen``'s inertia counts grouped by i_zero.  A
    trial whose main solve failed is missing from ``cen`` while its flipped
    matrix may solve, so a census with failures is drawn again on
    ``flipped``.
    """
    if cen.failures:
        return census(flipped, cfg).frequency_counts
    n = flipped.n
    freqs: dict[tuple[int, int], int] = {}
    for (_, _, zero), count in cen.inertia_counts.items():
        freqs[zero, n - zero] = freqs.get((zero, n - zero), 0) + count
    return freqs


# The rules.  Each takes (facts, census, cfg, earlier findings) and returns
# its finding; or, when the pattern is out of its scope, None, or a note
# naming the cap that rules it out.
_Outcome = RuleFinding | str | None


def _r1(facts: PatternAnalysis, cen: Census, cfg: SampleConfig, findings: list) -> _Outcome:
    """Sign clash among maximum-length composite cycles."""
    if facts.pattern.n > SIGN_SET_ORDER_CAP:
        return f"order {facts.pattern.n} above enumeration cap {SIGN_SET_ORDER_CAP}"
    sign_set, m = facts.sign_set, facts.max_composite_length
    return _finding(
        "R1",
        sign_set.ambiguous and m >= 2,
        {
            "max_composite_length": m,
            "signs": {"plus": sign_set.contains_plus, "minus": sign_set.contains_minus},
        },
    )


def _r2(facts: PatternAnalysis, cen: Census, cfg: SampleConfig, findings: list) -> _Outcome:
    """Odd single cycle, decided by the determinant sign."""
    if facts.shape.kind is not ShapeKind.SINGLE_CYCLE or facts.pattern.n % 2 == 0:
        return None
    det = _odd_cycle_det_sign(facts.digraph, facts.shape.cycles[0])
    details = {"determinant_sign": det.value}
    if det in (AmbSign.PLUS, AmbSign.MINUS):
        return RuleFinding("R2", True, Conclusion.REQUIRES_UNIQUE, _REASONS["R2"], details=details)
    return _finding("R2", True, details, _REASONS["R2-"])


def _r3(facts: PatternAnalysis, cen: Census, cfg: SampleConfig, findings: list) -> _Outcome:
    """Tridiagonal odd-run count."""
    if facts.shape.kind is not ShapeKind.PATH or facts.pattern.n < 2:
        return None
    runs = maximal_signed_runs(facts.path_edges[1], cyclic=False)
    odd = [r.length for r in runs if r.length % 2 == 1]
    return _finding(
        "R3", len(odd) >= 2, {"run_lengths": [r.length for r in runs], "odd_run_count": len(odd)}
    )


def _r4(facts: PatternAnalysis, cen: Census, cfg: SampleConfig, findings: list) -> _Outcome:
    """Forbidden tridiagonal blocks.

    Inertia behavior is invariant under signature similarity, and two path
    patterns are signature-similar exactly when their edge-sign sequences
    agree, so blocks are matched by edge signs along the path rather than
    entry by entry.  Positions are 1-based path positions, which equal
    matrix window starts for patterns labeled consecutively along the path.
    """
    if facts.shape.kind is not ShapeKind.PATH or facts.pattern.n < 2:
        return None
    _, signs = facts.path_edges
    hits: dict[str, list[int]] = {}
    for name, block_signs in _FORBIDDEN_EDGE_SIGNS.items():
        width = len(block_signs)
        starts = [
            t + 1
            for t in range(len(signs) - width + 1)
            if tuple(signs[t : t + width]) == block_signs
        ]
        if starts:
            hits[name] = starts
    return _finding("R4", bool(hits), {"blocks_found": hits})


def _r5(facts: PatternAnalysis, cen: Census, cfg: SampleConfig, findings: list) -> _Outcome:
    """Single-cycle conditions."""
    if facts.shape.kind is not ShapeKind.SINGLE_CYCLE:
        return None
    _, signs = cycle_edge_order(facts.graph, facts.shape.cycles[0])
    conds = _cycle_conditions(signs)
    return _finding("R5", any(conds.values()), {"conditions": conds})


def _r6(facts: PatternAnalysis, cen: Census, cfg: SampleConfig, findings: list) -> _Outcome:
    """Unicyclic with even leaf distances."""
    if facts.shape.kind is not ShapeKind.UNICYCLIC:
        return None
    report = cycle_structure(facts.graph)
    distances = [d for (_, _, d) in report.leaf_cycle_distances]
    all_even = all(d % 2 == 0 for d in distances)
    conds = _cycle_conditions(report.cycle_edge_signs[0])
    # The rule's accounting needs the top composite length to split as
    # cycle length plus the best packing of the rest; even leaf
    # distances guarantee it, but check the identity directly.
    the_cycle = report.cycles[0]
    rest = facts.digraph.without_vertices(set(the_cycle))
    additive = facts.max_composite_length == len(the_cycle) + max_composite_length(rest)
    return _finding(
        "R6",
        all_even and additive and any(conds.values()),
        {
            "leaf_cycle_distances": distances,
            "all_leaf_distances_even": all_even,
            "length_splits_additively": additive,
            "conditions": conds,
        },
    )


def _r7(facts: PatternAnalysis, cen: Census, cfg: SampleConfig, findings: list) -> _Outcome:
    """Several cycles, no leaf, path-adjacent cycles at odd distance."""
    if facts.shape.kind is not ShapeKind.MULTI_CYCLE_NO_LEAF:
        return None
    report = cycle_structure(facts.graph)
    # The link is also the raw distance (see cycle_structure), which
    # "raw_distance" and "strict" still report to keep verdict bytes.
    pair_info = [
        {"cycles": [a, b], "edge_count": link, "raw_distance": link}
        for (a, b, link) in report.path_adjacent_pairs
    ]
    distance_ok = all(link % 2 == 1 for (_, _, link) in report.path_adjacent_pairs)
    all_even = all(len(c) % 2 == 0 for c in report.cycles)
    fired = []
    # Whether a cycle extends depends only on the vertices it leaves over.
    extends_by_vertices: dict[frozenset[int], bool] = {}
    for cyc, signs in zip(report.cycles, report.cycle_edge_signs):
        conds = _cycle_conditions(signs)
        hits = [c for c, ok in conds.items() if ok]
        if not conds["odd_negative_count"] and not all_even:
            continue
        if not hits:
            continue
        # The witnesses sit on this cycle plus a packing of everything
        # else, so the cycle must extend to a spanning composite cycle;
        # cycles sharing vertices can fail this even when every
        # path-adjacent distance is vacuously odd.
        directed = directed_cycle_from_vertices(facts.digraph, cyc)
        vertices = frozenset(cyc)
        if vertices not in extends_by_vertices:
            extends_by_vertices[vertices] = cover_extension_exists(facts.digraph, directed)
        extends = extends_by_vertices[vertices]
        for cond in hits:
            if cond != "odd_negative_count" and not all_even:
                continue
            fired.append({"cycle": list(cyc), "condition": cond, "extends_to_cover": extends})
    return _finding(
        "R7",
        distance_ok and any(f["extends_to_cover"] for f in fired),
        {
            "path_adjacent_pairs": pair_info,
            "distance_convention": "edge count of the cycle-avoiding"
            " connecting path; raw vertex-set distance must agree unless strict",
            "strict": False,
            "distances_odd": distance_ok,
            "all_cycles_even": all_even,
            "conditions_fired": fired,
        },
    )


def _r8(facts: PatternAnalysis, cen: Census, cfg: SampleConfig, findings: list) -> _Outcome:
    """Sampled zero-real-part gap, solidly classified samples only.

    A rule that proved a unique inertia outranks it: the gap is then a
    roundoff artefact, so R8 names that rule and concludes nothing.
    """
    keys = cen.solid_keys()
    details = {"inertia_keys": [list(k) for k in keys]}
    gap_pairs = [(a, b) for a in keys for b in keys if a < b and a[2] != b[2]]
    proof = next(
        (f.rule_id for f in findings if f.conclusion is Conclusion.REQUIRES_UNIQUE), None
    )
    if not gap_pairs or proof is not None:
        if gap_pairs:
            details["overruled_by"] = proof
        return _finding("R8", False, details)
    a_key, b_key = max(gap_pairs, key=lambda ab: (abs(ab[0][2] - ab[1][2]), ab))
    mat_a, mat_b = cen.solid_representatives[a_key], cen.solid_representatives[b_key]
    finding = _finding("R8", True, details)
    finding.witness = WitnessPair(
        mat_a,
        mat_b,
        spectral_profile(mat_a),
        spectral_profile(mat_b),
        "census",
        {"keys": [list(a_key), list(b_key)]},
    )
    return finding


def _r9(facts: PatternAnalysis, cen: Census, cfg: SampleConfig, findings: list) -> _Outcome:
    """Tree-pattern frequency evidence of the edge-flipped pattern, off the main census."""
    if facts.shape.kind not in (ShapeKind.PATH, ShapeKind.TREE):
        return None
    flipped = p_minus(facts.pattern)
    flipped_freqs = _flipped_frequencies(flipped, cen, cfg)
    return _finding(
        "R9",
        False,
        {
            "flipped_pattern": flipped.to_text().splitlines(),
            "flipped_frequencies": {str(list(k)): v for k, v in sorted(flipped_freqs.items())},
            "flipped_consistent_observed": len(flipped_freqs) == 1,
        },
    )


_RULES = (
    ("R1", _r1),
    ("R2", _r2),
    ("R3", _r3),
    ("R4", _r4),
    ("R5", _r5),
    ("R6", _r6),
    ("R7", _r7),
    ("R8", _r8),
    ("R9", _r9),
)


def analyze(
    pattern: SignPattern,
    cfg: SampleConfig | None = None,
    witness_budget: int = 2000,
) -> Verdict:
    """Run the rule battery and aggregate the strongest justified conclusion.

    Patterns must be irreducible, combinatorially symmetric, and have a
    zero diagonal; otherwise a single precondition finding is returned.
    The census always runs so inconclusive verdicts still carry evidence.
    The rules of ``_RULES`` run in order; every rule and the witness search
    read one ``PatternAnalysis``, so each structural fact is derived once.
    """
    cfg = cfg or SampleConfig()
    facts = PatternAnalysis(pattern)
    flags = facts.flags
    if not flags.all_ok():
        finding = RuleFinding(
            "R0", True, Conclusion.NO_CONCLUSION, _REASONS["R0"], details=asdict(flags)
        )
        return Verdict(pattern, flags, None, [finding], Overall.INCONCLUSIVE, None)

    cen = census(pattern, cfg)
    findings: list[RuleFinding] = []
    for rule_id, rule in _RULES:
        found = rule(facts, cen, cfg, findings)
        if not isinstance(found, RuleFinding):
            found = RuleFinding(
                rule_id,
                False,
                Conclusion.NO_CONCLUSION,
                _REASONS[rule_id],
                details={} if found is None else {"skipped": found},
            )
        findings.append(found)

    concluded = {f.conclusion for f in findings}
    if Conclusion.DOES_NOT_REQUIRE in concluded:
        overall = Overall.DOES_NOT_REQUIRE
    elif Conclusion.REQUIRES_UNIQUE in concluded:
        overall = Overall.REQUIRES_UNIQUE
    else:
        overall = Overall.INCONCLUSIVE

    if overall is Overall.DOES_NOT_REQUIRE:
        first = next(
            f for f in findings if f.conclusion is Conclusion.DOES_NOT_REQUIRE
        )
        if first.witness is None:
            # The sampling fallback draws a longer census under the same
            # seed and laws, so it extends the main one instead of redrawing it.
            prior = cen if witness_budget >= cfg.trials else None
            pair = find_witness_pair(facts, budget=witness_budget, cfg=cfg, prior=prior)
            if pair is not None:
                first.witness = pair
            else:
                first.details["witness_found"] = False
    return Verdict(pattern, flags, facts.shape, findings, overall, cen)

def explain(verdict: Verdict) -> str:
    """Deterministic human-readable report."""
    lines = ["pattern:"]
    lines += ["  " + row for row in verdict.pattern.to_text().splitlines()]
    lines.append("flags: " + " ".join(f"{k}={v}" for k, v in asdict(verdict.flags).items()))
    if verdict.shape is not None:
        lines.append(f"shape: {verdict.shape.kind.value}")
        if verdict.shape.cycles:
            cyc = "; ".join(
                "-".join(str(v + 1) for v in c) for c in verdict.shape.cycles
            )
            lines.append(f"cycles: {cyc}")
    for f in verdict.findings:
        status = f.conclusion.value if f.applicable else "not applicable"
        lines.append(f"{f.rule_id}: {status}")
        if f.applicable:
            if f.conclusion is not Conclusion.NO_CONCLUSION or f.rule_id == "R0":
                lines.append(f"  why: {f.reason}")
            for key in sorted(f.details):
                lines.append(f"  {key}: {f.details[key]}")
        if f.witness is not None:
            ia, ib = f.witness.inertias()
            lines.append(
                f"  witness ({f.witness.method}): inertia {ia} versus {ib}"
            )
    if verdict.census is not None:
        keys = ", ".join(
            f"{k}:{verdict.census.inertia_counts[k]}"
            + ("" if k in verdict.census.solid_representatives else " (tolerance-limited)")
            for k in verdict.census.inertia_keys()
        )
        lines.append(f"census: trials={verdict.census.trials} inertias {keys}")
    lines.append(f"overall: {verdict.overall.value}")
    return "\n".join(lines) + "\n"


def _witness_json(pair: WitnessPair) -> dict:
    ia, ib = pair.inertias()
    return {
        "method": pair.method,
        "inertias": [list(ia), list(ib)],
        "matrix_a": [[float(v) for v in row] for row in np.asarray(pair.a)],
        "matrix_b": [[float(v) for v in row] for row in np.asarray(pair.b)],
        "detail": _plain(pair.detail),
    }


def _plain(value):
    """Recursively coerce to JSON-serializable builtins with stable ordering."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    return value


def verdict_to_json(verdict: Verdict) -> str:
    """Serialize with a stable key order."""
    doc = {
        "pattern": verdict.pattern.to_text().splitlines(),
        "flags": asdict(verdict.flags),
        "shape": None
        if verdict.shape is None
        else {
            "kind": verdict.shape.kind.value,
            "cycles": [[v + 1 for v in c] for c in verdict.shape.cycles],
            "leaves": [v + 1 for v in verdict.shape.leaves],
        },
        "findings": [
            {
                "rule": f.rule_id,
                "applicable": f.applicable,
                "conclusion": f.conclusion.value,
                "citation": f.reason,
                "details": _plain(f.details),
                **({"witness": _witness_json(f.witness)} if f.witness else {}),
            }
            for f in verdict.findings
        ],
        "overall": verdict.overall.value,
        "census": None
        if verdict.census is None
        else {
            "trials": verdict.census.trials,
            "inertias": [
                {
                    "inertia": list(k),
                    "count": verdict.census.inertia_counts[k],
                    "solid": k in verdict.census.solid_representatives,
                }
                for k in verdict.census.inertia_keys()
            ],
            "frequencies": [
                {"frequency": list(k), "count": v}
                for k, v in sorted(verdict.census.frequency_counts.items())
            ],
            "failures": verdict.census.failures,
        },
    }
    return json.dumps(doc, indent=2)
