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
import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field
from enum import Enum

import numpy as np

from .cycles import (
    SIGN_ORDER_CAP,
    PatternAnalysis,
    _has_perfect_matching,
    directed_cycle_from_vertices,
)
from .graphs import (
    GraphShape,
    ShapeKind,
    _PackedTuples,
    maximal_signed_runs,
)
from .patterns import AmbSign, PatternFlags, SignPattern, _flip_edges
from .spectra import (
    Census,
    SampleConfig,
    WitnessPair,
    _widest_gap_pair,
    census,
    find_witness_pair,
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


def _path_pattern(edge_signs: tuple[int, ...]) -> SignPattern:
    """The path pattern with + below the diagonal and the edge signs above it."""
    n = len(edge_signs) + 1
    rows = [[0] * n for _ in range(n)]
    for i, sign in enumerate(edge_signs):
        rows[i][i + 1], rows[i + 1][i] = sign, 1
    return SignPattern.from_rows(rows)


# R4's forbidden tridiagonal blocks, as edge signs along the path.
_FORBIDDEN_EDGE_SIGNS = {
    "block4": (1, -1, 1),
    "block4_flip": (-1, 1, -1),
    "block6": (1, -1, -1, -1, 1),
    "block6_flip": (-1, 1, 1, 1, -1),
}

FORBIDDEN_BLOCKS = {name: _path_pattern(signs) for name, signs in _FORBIDDEN_EDGE_SIGNS.items()}

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


def _odd_cycle_det_sign(pattern: SignPattern, cycle: tuple[int, ...]) -> AmbSign:
    """Determinant sign of an odd single-cycle pattern with zero diagonal.

    Its only spanning composite cycles are the cycle's two orientations, and
    an odd cycle is an even permutation, so each term's sign is its cycle
    sign.  Two terms, so no enumeration and no order cap.
    """
    forward, backward = (directed_cycle_from_vertices(pattern, c) for c in (cycle, cycle[::-1]))
    return AmbSign.from_int(forward.sign).add(AmbSign.from_int(backward.sign))


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
    if facts.pattern.n > SIGN_ORDER_CAP:
        return f"order {facts.pattern.n} above enumeration cap {SIGN_ORDER_CAP}"
    signs, m = facts.top_signs, facts.pattern.max_composite_length
    return _finding(
        "R1",
        len(signs) == 2 and m >= 2,
        {"max_composite_length": m, "signs": {"plus": 1 in signs, "minus": -1 in signs}},
    )


def _r2(facts: PatternAnalysis, cen: Census, cfg: SampleConfig, findings: list) -> _Outcome:
    """Odd single cycle, decided by the determinant sign."""
    if facts.shape.kind is not ShapeKind.SINGLE_CYCLE or facts.pattern.n % 2 == 0:
        return None
    det = _odd_cycle_det_sign(facts.pattern, facts.shape.cycles[0])
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
    conds = dict(facts.conditions_by_cycle[0])
    return _finding("R5", any(conds.values()), {"conditions": conds})


def _r6(facts: PatternAnalysis, cen: Census, cfg: SampleConfig, findings: list) -> _Outcome:
    """Unicyclic with even leaf distances."""
    if facts.shape.kind is not ShapeKind.UNICYCLIC:
        return None
    distances = [d for (_, _, d) in facts.cycle_report.leaf_cycle_distances]
    all_even = all(d % 2 == 0 for d in distances)
    conds = dict(facts.conditions_by_cycle[0])
    # The rule's accounting needs the top composite length to split as
    # cycle length plus the best packing of the rest, the cover the cycle's
    # witnesses ride on; even leaf distances guarantee it, but check it.
    the_cycle = facts.graph.cycle_table.cycles[0]
    rest = sum(part.length for part in facts.cover_without(the_cycle))
    additive = facts.pattern.max_composite_length == len(the_cycle) + rest
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
    pairs = facts.cycle_report.path_adjacent_pairs
    # The link is also the raw distance (see cycle_structure), which
    # "raw_distance" and "strict" still report to keep verdict bytes.
    links = tuple(link for (_, _, link) in pairs)
    pair_info = _Records(
        ("cycles", "edge_count", "raw_distance"),
        (_PackedTuples.of(pair[:2] for pair in pairs), links, links),
    )
    distance_ok = all(link % 2 == 1 for link in links)
    table = facts.graph.cycle_table
    all_even = all(k % 2 == 0 for k in table.cycles.lengths())
    # The columns of conditions_fired; a hit's cycle is taken by its row in the table.
    hit_rows, hit_conditions, hit_extends = [], [], []
    succ = facts.pattern.successor_masks
    everything = (1 << facts.pattern.n) - 1
    # Whether a cycle extends depends only on the vertices it leaves over,
    # and its hits only on its three condition values, at most 8 keys.
    extends_by_leftover: dict[int, bool] = {}
    hits_by_conds: dict[tuple[bool, ...], list[str]] = {}
    for row, (mask, conds) in enumerate(zip(table.masks, facts.conditions_by_cycle)):
        values = tuple(conds.values())
        hits = hits_by_conds.get(values)
        if hits is None:
            # Unless every cycle is even, only an odd negative count counts.
            hits = hits_by_conds[values] = [
                c for c, ok in conds.items() if ok and (all_even or c == "odd_negative_count")
            ]
        if not hits:
            continue
        # The witnesses sit on this cycle plus a packing of everything
        # else, so the cycle must extend to a spanning composite cycle:
        # the arcs among the leftover vertices must match them one to one.
        # Cycles sharing vertices can fail this even when every
        # path-adjacent distance is vacuously odd.  Both directions of
        # each cycle edge are arcs of a combinatorially symmetric pattern,
        # so the cycle itself is always there.
        leftover = everything ^ mask
        extends = extends_by_leftover.get(leftover)
        if extends is None:
            extends = extends_by_leftover[leftover] = _has_perfect_matching(
                leftover, leftover, succ
            )
        hit_rows += [row] * len(hits)
        hit_conditions += hits
        hit_extends += [extends] * len(hits)
    fired = _Records(
        ("cycle", "condition", "extends_to_cover"),
        (table.cycles.take(hit_rows), tuple(hit_conditions), tuple(hit_extends)),
    )
    return _finding(
        "R7",
        distance_ok and any(hit_extends),
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
    gap = len({k[2] for k in keys}) > 1
    proof = next(
        (f.rule_id for f in findings if f.conclusion is Conclusion.REQUIRES_UNIQUE), None
    )
    if not gap or proof is not None:
        if gap:
            details["overruled_by"] = proof
        return _finding("R8", False, details)
    finding = _finding("R8", True, details)
    # Some pair has a gap, so the widest-gap pair is one of them.
    finding.witness = _widest_gap_pair(
        cen.solid_representatives, "census", lambda a, b: {"keys": [list(a), list(b)]}
    )
    return finding


def _r9(facts: PatternAnalysis, cen: Census, cfg: SampleConfig, findings: list) -> _Outcome:
    """Tree-pattern frequency evidence of the edge-flipped pattern, off the main census."""
    if facts.shape.kind not in (ShapeKind.PATH, ShapeKind.TREE):
        return None
    # analyze runs the rules only on patterns whose flags passed, so this
    # shape is a tree pattern, flipped without p_minus validating it again.
    flipped = _flip_edges(facts.pattern)
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
) -> Verdict:
    """Run the rule battery and aggregate the strongest justified conclusion.

    Patterns must be irreducible, combinatorially symmetric, and have a
    zero diagonal; otherwise a single precondition finding is returned.
    The census always runs so inconclusive verdicts still carry evidence.
    The rules of ``_RULES`` run in order; every rule and the witness search
    read one ``PatternAnalysis``, so each structural fact is derived once.
    """
    return _analyze(PatternAnalysis(pattern), cfg or SampleConfig())


def _analyze(facts: PatternAnalysis, cfg: SampleConfig) -> Verdict:
    """``analyze`` on a pattern whose analysis the caller already holds."""
    pattern, flags = facts.pattern, facts.flags
    if not flags.all_ok():
        finding = RuleFinding(
            "R0", True, Conclusion.NO_CONCLUSION, _REASONS["R0"], details=asdict(flags)
        )
        return Verdict(pattern, flags, None, [finding], Overall.INCONCLUSIVE, None)

    cen = census(facts, cfg)
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
            # The sampling fallback reads at least as long a census of facts
            # under the same seed and laws, so it draws only the trials past cen's.
            pair = find_witness_pair(facts, cfg=cfg)
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
        cycles = verdict.shape.cycles
        if cycles:
            names = list(map(str, range(1, verdict.pattern.n + 1)))
            texts = list(map(names.__getitem__, cycles.items))
            cyc = "; ".join("-".join(texts[start:end]) for start, end in cycles.spans())
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
        "matrix_a": np.asarray(pair.a, dtype=float).tolist(),
        "matrix_b": np.asarray(pair.b, dtype=float).tolist(),
        "detail": pair.detail,
    }


_encode_str = json.encoder.encode_basestring_ascii


def _float_text(x: float) -> str:
    """json's text of a float: its repr, with NaN and the infinities spelled as json does."""
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


# The text json writes for a value of exactly one of these types.  Exact
# types keep bool apart from int.
_SCALAR_TEXT = {
    str: _encode_str,
    int: int.__repr__,
    float: _float_text,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


_SEQUENCES = {list, tuple}


def _packed_texts(lists: _PackedTuples, indent: str, text) -> list[str]:
    """The text of each row of ``lists``, at depth ``indent``, joined from its item array.

    ``text`` gives an item's text: ``int.__repr__``, or for vertex lists a
    lookup in a table of vertex names.  Each item's text is taken once,
    in one pass over the items, and each row joins a slice of those texts.
    """
    inner = indent + "  "
    head, sep, tail = "[\n" + inner, ",\n" + inner, "\n" + indent + "]"
    texts = list(map(text, lists.items))
    return [
        head + sep.join(texts[start:end]) + tail if start < end else "[]"
        for start, end in lists.spans()
    ]


def _joined_texts(items) -> list[str] | None:
    """Each item's text if all are of one exact scalar type, else None."""
    kinds = set(map(type, items))
    scalar = _SCALAR_TEXT.get(next(iter(kinds))) if len(kinds) == 1 else None
    if scalar is _float_text and all(map(math.isfinite, items)):
        scalar = float.__repr__
    return None if scalar is None else list(map(scalar, items))


@dataclass(frozen=True)
class _VertexLists:
    """Lists of 0-based vertices, which the verdict writer writes 1-based.

    The text is what json gives ``[[v + 1 for v in c] for c in lists]``,
    but no shifted copy is made: each vertex's name is written once into
    a table of ``n`` names, and every list is joined from it and the
    packed list's item array.
    """

    lists: _PackedTuples | tuple[()]
    n: int

    def text(self, indent: str) -> str:
        if not self.lists:
            return "[]"
        names = list(map(str, range(1, self.n + 1)))
        inner = indent + "  "
        rows = (",\n" + inner).join(_packed_texts(self.lists, inner, names.__getitem__))
        return "[\n" + inner + rows + "\n" + indent + "]"


@dataclass(frozen=True, eq=False, repr=False)
class _Records(Sequence):
    """A read-only list of records sharing one tuple of str keys, held as columns.

    Item i, iteration, ``==`` and ``repr`` are the list of dicts', tuple cells
    read as lists; ``text`` writes the list one column at a time.  A column
    of tuple cells is a ``_PackedTuples``, whose rows are its cells; any
    other column holds cells of one exact scalar type.
    """

    keys: tuple[str, ...]
    columns: tuple[tuple, ...]

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        return self._record([c[i] for c in self.columns])

    def __iter__(self):
        return map(self._record, zip(*self.columns))

    def _record(self, cells) -> dict:
        return {k: list(v) if type(v) is tuple else v for k, v in zip(self.keys, cells)}

    def __eq__(self, other) -> bool:
        return list(self) == list(other) if isinstance(other, (list, _Records)) else NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))

    def text(self, indent: str) -> str:
        if not len(self):
            return "[]"
        inner = indent + "  "
        field = inner + "  "
        columns = []
        for key, cells in zip(self.keys, self.columns):
            if type(cells) is _PackedTuples:
                texts = _packed_texts(cells, field, int.__repr__)
            else:
                texts = _joined_texts(cells)
            if texts is None:
                kinds = ", ".join(sorted({type(cell).__name__ for cell in cells}))
                raise TypeError(f"records column {key!r} of {kinds} has no join")
            head = _encode_str(key) + ": "
            columns.append([head + text for text in texts])
        head, sep, tail = "{\n" + field, ",\n" + field, "\n" + inner + "}"
        rows = (",\n" + inner).join(head + sep.join(row) + tail for row in zip(*columns))
        return "[\n" + inner + rows + "\n" + indent + "]"


def _write(value, out: list[str], indent: str) -> None:
    """Append the text ``json.dumps(value, indent=2)`` gives ``value`` at depth ``indent``.

    ``value`` holds only what verdicts hold: exact ``str``, ``int``,
    ``float``, ``bool`` and ``None``; exact ``list`` and ``tuple``, written
    as lists; ``dict`` with exact ``str`` keys; ``_VertexLists`` and
    ``_Records``, whose every column one join writes.  Anything else, such
    as a numpy scalar, a subclass of a builtin or a non-str key, raises
    TypeError naming its type.
    """
    kind = type(value)
    scalar = _SCALAR_TEXT.get(kind)
    if scalar is not None:
        out.append(scalar(value))
    elif kind in _SEQUENCES:
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        sep = ",\n" + inner
        texts = _joined_texts(value)
        if texts is not None:
            out.append("[\n" + inner + sep.join(texts) + "\n" + indent + "]")
            return
        out.append("[\n" + inner)
        for i, v in enumerate(value):
            if i:
                out.append(sep)
            _write(v, out, inner)
        out.append("\n" + indent + "]")
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        out.append("{\n" + inner)
        for i, (k, v) in enumerate(value.items()):
            if type(k) is not str:
                raise TypeError(f"keys must be str, not {type(k).__name__}")
            if i:
                out.append(",\n" + inner)
            out.append(_encode_str(k) + ": ")
            _write(v, out, inner)
        out.append("\n" + indent + "}")
    elif kind is _VertexLists or kind is _Records:
        out.append(value.text(indent))
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def verdict_to_json(verdict: Verdict) -> str:
    """Serialize with a stable key order.

    The text is identical to ``json.dumps(doc, indent=2)``, tuples as lists
    and the shape's cycles 1-based.  It is written in one pass by
    ``_write``, without an intermediate copy of the details, and joined
    once.  A detail that holds a value ``_write`` does not take, such as a
    numpy scalar or a non-str key, raises TypeError naming its type.
    """
    cen = verdict.census
    if cen is not None:
        keys = cen.inertia_keys()
        solid = tuple(k in cen.solid_representatives for k in keys)
        inertias = (_PackedTuples.of(keys), tuple(map(cen.inertia_counts.get, keys)), solid)
        freqs = sorted(cen.frequency_counts)
        frequencies = (_PackedTuples.of(freqs), tuple(map(cen.frequency_counts.get, freqs)))
    doc = {
        "pattern": verdict.pattern.to_text().splitlines(),
        "flags": asdict(verdict.flags),
        "shape": None
        if verdict.shape is None
        else {
            "kind": verdict.shape.kind.value,
            "cycles": _VertexLists(verdict.shape.cycles, verdict.pattern.n),
            "leaves": [v + 1 for v in verdict.shape.leaves],
        },
        "findings": [
            {
                "rule": f.rule_id,
                "applicable": f.applicable,
                "conclusion": f.conclusion.value,
                "citation": f.reason,
                "details": f.details,
                **({"witness": _witness_json(f.witness)} if f.witness else {}),
            }
            for f in verdict.findings
        ],
        "overall": verdict.overall.value,
        "census": None
        if cen is None
        else {
            "trials": cen.trials,
            "inertias": _Records(("inertia", "count", "solid"), inertias),
            "frequencies": _Records(("frequency", "count"), frequencies),
            "failures": cen.failures,
        },
    }
    out: list[str] = []
    _write(doc, out, "")
    return "".join(out)
