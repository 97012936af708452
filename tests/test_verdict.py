import dataclasses
import gc
import hashlib
import json
import re
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_analysis import GOLDEN_PATTERNS

from signum import spectra
from signum.charpoly import ek_sign
from signum.cycles import PatternAnalysis
from signum.fixtures import FIXTURES
from signum.graphs import ShapeKind, _PackedTuples
from signum.patterns import (
    AmbSign,
    PermutationSimilarity,
    SignPattern,
    apply_equivalence,
    parse_pattern,
)
from signum.spectra import SampleConfig, sample, spectral_profile
from signum.verdict import (
    FORBIDDEN_BLOCKS,
    _FORBIDDEN_EDGE_SIGNS,
    Conclusion,
    Overall,
    _odd_cycle_det_sign,
    _Records,
    _VertexLists,
    _write,
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


# Three wrong answers: R8 concludes does_not_require on a census pair whose
# two matrices have one inertia at 60 digits.  The first two pairs are both
# (3, 3, 0) (smallest |Re| 6.8e-11 and 4.9e-10, inside the float
# tolerance); the third states (2, 2, 3) and (2, 4, 1), and both matrices
# are (2, 4, 1).
WRONG_ANSWERS = {
    "default-law": (
        """
        0 0 0 0 - 0
        0 0 - + - 0
        0 - 0 0 0 0
        0 + 0 0 + +
        + + 0 - 0 0
        0 0 0 - 0 0
        """,
        SampleConfig(),
    ),
    "wide-law": (
        """
        0 - 0 0 + 0
        - 0 0 0 0 0
        0 0 0 + - -
        0 0 + 0 0 -
        + 0 + 0 0 0
        0 0 - + 0 0
        """,
        SampleConfig(lo=1e-3, hi=1e3),
    ),
    "unicyclic-triangle": (
        """
        0 + 0 - - 0 0
        - 0 + 0 - 0 +
        0 - 0 0 0 0 0
        + 0 0 0 0 0 0
        - + 0 0 0 - 0
        0 0 0 0 + 0 0
        0 - 0 0 0 0 0
        """,
        SampleConfig(),
    ),
}


def high_precision_inertia(mpmath, a: np.ndarray) -> tuple[int, int, int]:
    """Inertia from ``mpmath.eig`` at 60 digits; a real part within 1e-40 (1 + ||a||_F) is zero."""
    with mpmath.workdps(60):
        m = mpmath.matrix(a.tolist())  # every float converts exactly
        zero = mpmath.mpf(10) ** -40 * (1 + mpmath.mnorm(m, "f"))
        re = [mpmath.re(z) for z in mpmath.eig(m, left=False, right=False)]
        return (sum(x > zero for x in re), sum(x < -zero for x in re), sum(abs(x) <= zero for x in re))


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP items 1a and 4: R8 concludes on a float census pair whose"
    " two matrices have the same exact inertia",
)
@pytest.mark.parametrize("name", list(WRONG_ANSWERS))
def test_does_not_require_rests_on_distinct_exact_inertias(name):
    mpmath = pytest.importorskip("mpmath")
    text, cfg = WRONG_ANSWERS[name]
    v = analyze(parse_pattern(text), cfg=cfg)
    for f in v.findings:
        if f.conclusion is Conclusion.DOES_NOT_REQUIRE and f.witness is not None:
            a, b = (high_precision_inertia(mpmath, m) for m in (f.witness.a, f.witness.b))
            assert a != b, (f.rule_id, f.witness.inertias(), a)


# Four labellings of the third wrong answer: the identity and three vertex
# permutations.  Today two answer does_not_require and two inconclusive.
LABELLINGS = [
    (0, 1, 2, 3, 4, 5, 6),
    (0, 3, 4, 6, 1, 2, 5),
    (5, 3, 1, 6, 2, 0, 4),
    (1, 4, 0, 5, 6, 3, 2),
]


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP items 1a, 4 and 23: R8 decides on a float census pair"
    " drawn in the input's labelling, so relabelling the vertices changes the answer",
)
def test_overall_answer_is_one_for_every_labelling():
    text, cfg = WRONG_ANSWERS["unicyclic-triangle"]
    pattern = parse_pattern(text)
    answers = {
        analyze(apply_equivalence(pattern, PermutationSimilarity(perm)), cfg=cfg).overall
        for perm in LABELLINGS
    }
    assert len(answers) == 1, answers


def one_sign_tree(n: int, edges, product: int) -> SignPattern:
    """A zero-diagonal tree pattern whose edge products a_ij * a_ji all have sign ``product``."""
    rows = [[0] * n for _ in range(n)]
    for i, j in edges:
        rows[i - 1][j - 1], rows[j - 1][i - 1] = 1, product
    return SignPattern.from_rows(rows)


CATERPILLAR = [(1, 2), (2, 3), (3, 4), (2, 5), (3, 6), (3, 7)]
# Trees whose edge products all have one sign, as (order, edges, product
# sign, inertia).  Every realization has the inertia (nu, nu, n - 2 nu) when
# the products are positive, nu the maximum matching number, and (0, 0, n)
# when they are negative (ROADMAP item 20).
ONE_SIGN_TREES = {
    "positive-path-5": (5, [(i, i + 1) for i in range(1, 5)], 1, (2, 2, 1)),
    "negative-path-6": (6, [(i, i + 1) for i in range(1, 6)], -1, (0, 0, 6)),
    "positive-star-6": (6, [(1, j) for j in range(2, 7)], 1, (1, 1, 4)),
    "positive-caterpillar-7": (7, CATERPILLAR, 1, (2, 2, 3)),
    "negative-caterpillar-7": (7, CATERPILLAR, -1, (0, 0, 7)),
}


@pytest.mark.parametrize("name", list(ONE_SIGN_TREES))
def test_one_sign_tree_census_sees_only_its_inertia(name):
    n, edges, product, inertia = ONE_SIGN_TREES[name]
    cen = analyze(one_sign_tree(n, edges, product), cfg=SampleConfig()).census
    assert cen.inertia_keys() == cen.solid_keys() == [inertia]


@pytest.mark.parametrize("name", list(ONE_SIGN_TREES))
def test_one_sign_tree_requires_unique(name):
    n, edges, product, _ = ONE_SIGN_TREES[name]
    v = analyze(one_sign_tree(n, edges, product), cfg=SampleConfig())
    assert v.overall is Overall.REQUIRES_UNIQUE


@st.composite
def signed_one_sign_trees(draw):
    """A one-sign path or random-attach tree of order 3-12, on a random labelling.

    Returns the pattern, its product sign and one realization whose
    magnitudes are powers 2^k, k in -12..12, so every entry is exact.
    """
    n = draw(st.integers(3, 12))
    label = draw(st.permutations(range(n)))
    if draw(st.booleans()):
        edges = [(t - 1, t) for t in range(1, n)]
    else:
        edges = [(draw(st.integers(0, t - 1)), t) for t in range(1, n)]
    product = draw(st.sampled_from((1, -1)))
    rows, a = [[0] * n for _ in range(n)], np.zeros((n, n))
    for i, j in ((label[u], label[v]) for u, v in edges):
        first = draw(st.sampled_from((1, -1)))
        rows[i][j], rows[j][i] = first, first * product
        for r, c in ((i, j), (j, i)):
            a[r, c] = rows[r][c] * 2.0 ** draw(st.integers(-12, 12))
    return SignPattern.from_rows(rows), product, a


@settings(max_examples=60, deadline=None, derandomize=True)
@given(drawn=signed_one_sign_trees())
def test_one_sign_tree_inertia_is_exact(drawn):
    """R2 certifies every one-sign tree, and a wide dyadic realization has its stated inertia."""
    mpmath = pytest.importorskip("mpmath")
    pattern, product, a = drawn
    v = analyze(pattern, cfg=SampleConfig(trials=256))
    assert v.overall is Overall.REQUIRES_UNIQUE
    r2 = rule(v, "R2")
    nu = r2.details["matching_number"]
    want = [nu, nu, pattern.n - 2 * nu] if product > 0 else [0, 0, pattern.n]
    assert r2.details == {
        "edge_product_sign": "+" if product > 0 else "-",
        "matching_number": nu,
        "inertia": want,
    }
    assert list(high_precision_inertia(mpmath, a)) == want
    r8 = rule(v, "R8")
    if len({key[2] for key in r8.details["inertia_keys"]}) > 1:
        assert r8.details["overruled_by"] == "R2"


def test_order_40_one_sign_tree_requires_unique():
    # The heap-ordered binary tree, vertex j hanging from j // 2, whose
    # maximum matching has 14 edges.
    v = analyze(one_sign_tree(40, [(j // 2, j) for j in range(2, 41)], 1), cfg=SampleConfig())
    assert v.shape.kind is ShapeKind.TREE
    assert v.overall is Overall.REQUIRES_UNIQUE
    assert rule(v, "R2").details["inertia"] == [14, 14, 12]


def test_mixed_sign_tree_leaves_r2_not_applicable():
    pattern = parse_pattern("0 + 0 0\n+ 0 + 0\n0 - 0 +\n0 0 + 0")
    r2 = rule(analyze(pattern, cfg=CFG), "R2")
    assert not r2.applicable
    assert r2.details == {}


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


def test_forbidden_blocks_are_pinned():
    """Each block is a path with + below the diagonal and its edge signs above."""
    assert {name: block.rows for name, block in FORBIDDEN_BLOCKS.items()} == {
        "block4": ((0, 1, 0, 0), (1, 0, -1, 0), (0, 1, 0, 1), (0, 0, 1, 0)),
        "block4_flip": ((0, -1, 0, 0), (1, 0, 1, 0), (0, 1, 0, -1), (0, 0, 1, 0)),
        "block6": (
            (0, 1, 0, 0, 0, 0),
            (1, 0, -1, 0, 0, 0),
            (0, 1, 0, -1, 0, 0),
            (0, 0, 1, 0, -1, 0),
            (0, 0, 0, 1, 0, 1),
            (0, 0, 0, 0, 1, 0),
        ),
        "block6_flip": (
            (0, -1, 0, 0, 0, 0),
            (1, 0, 1, 0, 0, 0),
            (0, 1, 0, 1, 0, 0),
            (0, 0, 1, 0, 1, 0),
            (0, 0, 0, 1, 0, -1),
            (0, 0, 0, 0, 1, 0),
        ),
    }
    for name, block in FORBIDDEN_BLOCKS.items():
        assert PatternAnalysis(block).path_edges[1] == _FORBIDDEN_EDGE_SIGNS[name]


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
        v = analyze(p, cfg=cfg)
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
    # length 0 asks for no cycle, so the empty composite lends R1 no sign
    r1 = next(f for f in v.findings if f.rule_id == "R1")
    assert r1.details == {"max_composite_length": 0, "signs": {"plus": False, "minus": False}}


def test_json_deterministic(pat):
    a = verdict_to_json(analyze(pat("PAT_EG06"), cfg=CFG))
    b = verdict_to_json(analyze(pat("PAT_EG06"), cfg=CFG))
    assert a == b


def old_plain(value):
    """The deep copy the verdict writer replaced, kept here as its oracle."""
    if isinstance(value, dict):
        return {k: old_plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, _Records)):
        return [old_plain(v) for v in value]
    return value


def write(doc) -> str:
    out: list[str] = []
    _write(doc, out, "")
    return "".join(out)


NASTY_FLOATS = [
    -0.0, 0.0, 5e-324, 1e16, 0.1, 1e-7, 2.5e300, float("nan"), float("inf"), -float("inf")
]
NASTY_TEXT = [
    '"', "\\", 'a"b\\c', "\x00\x01\x1f\x7f", "\n\t\r\b\f", "é", "ünïcode — ∑", "\U0001f600", ""
]

SCALARS = [
    st.integers(-(2**70), 2**70),
    st.booleans(),
    st.none(),
    st.floats(),
    st.sampled_from(NASTY_FLOATS),
    st.text(),
    st.sampled_from(NASTY_TEXT),
]
KEYS = st.one_of(st.text(max_size=4), st.sampled_from(NASTY_TEXT))


INT_LIST = st.lists(st.integers(-(2**70), 2**70), min_size=1, max_size=4)
# Lists near INT_LIST: empty, tuples, or holding bools or floats.
NEAR_INT_LIST = st.one_of(
    INT_LIST.map(tuple),
    st.lists(
        st.one_of(st.integers(-5, 5), st.booleans(), st.floats(), st.sampled_from(NASTY_FLOATS)),
        max_size=4,
    ),
)
INT_LISTS = st.lists(INT_LIST, min_size=1, max_size=5)
NEAR_INT_LISTS = st.lists(st.one_of(INT_LIST, NEAR_INT_LIST), min_size=1, max_size=5)
RECORD_VALUES = st.one_of(*SCALARS, INT_LIST, NEAR_INT_LIST)


@st.composite
def records(draw, values=RECORD_VALUES):
    """A list of dicts sharing one tuple of keys, now and then perturbed.

    Rare draws put one record's keys in another order, add or drop a key,
    or put a scalar, a list or an empty dict among the records.
    """
    keys = draw(st.lists(KEYS, min_size=1, max_size=4, unique=True))
    out = []
    for _ in range(draw(st.integers(1, 5))):
        order = draw(st.permutations(keys)) if draw(st.integers(0, 4)) == 0 else keys
        record = {k: draw(values) for k in order}
        if draw(st.integers(0, 6)) == 0:
            record[draw(KEYS)] = draw(values)
        if draw(st.integers(0, 6)) == 0:
            record.pop(draw(st.sampled_from(order)))
        out.append(record)
    if draw(st.integers(0, 4)) == 0:
        other = draw(st.one_of(*SCALARS, INT_LIST, st.just({})))
        out.insert(draw(st.integers(0, len(out))), other)
    return out


# The cells of one _Records column and what holds them: each column is of
# one of these kinds, and a column of tuple cells is packed.
RECORD_CELLS = st.sampled_from(
    [
        (st.integers(-(2**70), 2**70), tuple),
        (st.booleans(), tuple),
        (st.one_of(st.text(max_size=4), st.sampled_from(NASTY_TEXT)), tuple),
        (st.lists(st.integers(0, 2**40), min_size=1, max_size=4).map(tuple), _PackedTuples.of),
    ]
)


@st.composite
def record_columns(draw):
    """Keys and columns of a ``_Records``, zero to five rows, each column of one kind."""
    keys = draw(st.lists(KEYS, min_size=1, max_size=4, unique=True))
    rows = draw(st.integers(0, 5))
    columns = []
    for _ in keys:
        cells, column = draw(RECORD_CELLS)
        columns.append(column(draw(st.lists(cells, min_size=rows, max_size=rows))))
    return tuple(keys), tuple(columns)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(KEYS, children, max_size=5),
        # one scalar type throughout, the case written with one join
        st.one_of(*(st.lists(s, min_size=1, max_size=6) for s in SCALARS)),
        # lists of int lists, lists of dicts, and record columns
        INT_LISTS,
        NEAR_INT_LISTS,
        records(st.one_of(RECORD_VALUES, children)),
        record_columns().map(lambda kc: _Records(*kc)),
    )


DOCS = st.recursive(st.one_of(*SCALARS), _containers, max_leaves=40)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(doc=DOCS)
def test_writer_matches_plain_and_json_dumps(doc):
    assert write(doc) == json.dumps(old_plain(doc), indent=2)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(doc=st.one_of(INT_LISTS, NEAR_INT_LISTS, records()), depth=st.integers(0, 2))
def test_list_joins_match_json_dumps(doc, depth):
    """Lists of int lists, written item by item, and lists of dicts, at the top level and nested."""
    for _ in range(depth):
        doc = {"x": [doc]}
    assert write(doc) == json.dumps(old_plain(doc), indent=2)


def test_cycle_lists_take_the_joins(monkeypatch, pat):
    """Shape cycles, R7's two cycle columns and the census keys are written by one join each.

    Each is a packed list, joined from its item array by ``_packed_texts``
    (vertex names for the shape, ``int.__repr__`` for R7's 0-based columns
    and for the census's inertia and frequency keys, which the writer packs
    itself); the writer reads no row of it as a tuple.
    """
    from signum import verdict as verdict_module

    written = []
    real_join = verdict_module._packed_texts

    def spy_join(lists, indent, text):
        written.append((id(lists), len(lists), text is int.__repr__))
        return real_join(lists, indent, text)

    def no_rows(*args):
        raise AssertionError("the writer read a packed row as a tuple")

    monkeypatch.setattr(verdict_module, "_packed_texts", spy_join)
    for name in ("PAT_TWOCYC82", "ladder-n12-0"):
        pattern = GOLDEN_PATTERNS[name] if name in GOLDEN_PATTERNS else pat(name)
        found = analyze(pattern, cfg=CFG)
        r7 = rule(found, "R7")
        columns = [r7.details[k].columns[0] for k in ("path_adjacent_pairs", "conditions_fired")]
        plain = old_plain(r7.details)
        written.clear()
        with monkeypatch.context() as rows_off:
            rows_off.setattr(_PackedTuples, "__getitem__", no_rows)
            rows_off.setattr(_PackedTuples, "__iter__", no_rows)
            doc = json.loads(verdict_to_json(found))
        held = [(id(found.shape.cycles), len(found.shape.cycles), False)]
        held += [(id(column), len(column), True) for column in columns]
        ids = {i for i, _, _ in held}
        assert sorted(w for w in written if w[0] in ids) == sorted(held)
        cen = found.census
        assert sorted(w[1:] for w in written if w[0] not in ids) == sorted(
            [(len(cen.inertia_counts), True), (len(cen.frequency_counts), True)]
        )
        assert all(type(column) is _PackedTuples and column for column in columns)
        assert doc["findings"][6]["details"] == json.loads(json.dumps(plain))
        assert [r["inertia"] for r in doc["census"]["inertias"]] == list(
            map(list, cen.inertia_keys())
        )
        assert [r["frequency"] for r in doc["census"]["frequencies"]] == list(
            map(list, sorted(cen.frequency_counts))
        )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(drawn=record_columns(), depth=st.integers(0, 2))
def test_records_read_and_write_as_the_list_of_dicts(drawn, depth):
    keys, columns = drawn
    records = _Records(keys, columns)
    plain = [
        {k: list(c[i]) if isinstance(c[i], tuple) else c[i] for k, c in zip(keys, columns)}
        for i in range(len(columns[0]))
    ]
    assert len(records) == len(plain)
    assert [records[i] for i in range(len(plain))] == plain
    assert [records[-i] for i in range(1, len(plain) + 1)] == plain[::-1]
    assert records[1:] == plain[1:]
    with pytest.raises(IndexError):
        records[len(plain)]
    assert list(records) == plain
    assert records == plain and plain == records and not records != plain
    assert records == _Records(keys, columns)
    assert records != plain + [{}] and records != tuple(plain)
    assert repr(records) == repr(plain) == str(records)
    doc = records
    for _ in range(depth):
        doc = {"x": [doc]}
    want = plain
    for _ in range(depth):
        want = {"x": [want]}
    assert write(doc) == json.dumps(want, indent=2)


def reachable(root, held=None) -> list:
    """The objects reachable from ``root`` and not from ``held``, each once."""
    skip = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)
    seen: set[int] = set()
    found = []
    for start, kept in ((held, False), (root, True)):
        stack = [start]
        while stack:
            obj = stack.pop()
            if id(obj) in seen or isinstance(obj, skip):
                continue
            seen.add(id(obj))
            if kept:
                found.append(obj)
            stack.extend(gc.get_referents(obj))
    return found


def deep_size(root, held) -> int:
    """Bytes of the objects reachable from ``root`` and not from ``held``."""
    return sum(map(sys.getsizeof, reachable(root, held)))


# R7's details, less what the shape holds, as measured on CPython 3.11 with
# the record lists held as columns and their cycle columns packed (14,670
# and 1,864 bytes), plus at most 25%.  With unpacked columns, the hits'
# cycles being the shape's own tuples, they read 35,002 and 1,552: two
# arrays cost more than a few shared tuples.  As lists of dicts with copied
# cycles, ladder-n12-0's read 186,610.
R7_DETAIL_BYTES = {"ladder-n12-0": 18_400, "PAT_TWOCYC82": 1_950}


@pytest.mark.parametrize("name", sorted(R7_DETAIL_BYTES))
def test_r7_records_stay_columns(name, pat):
    """R7's record lists are columns; both cycle columns are packed, the hits' taken by row."""
    pattern = GOLDEN_PATTERNS[name] if name in GOLDEN_PATTERNS else pat(name)
    found = analyze(pattern, cfg=CFG)
    details = rule(found, "R7").details
    pairs = details["path_adjacent_pairs"]
    assert isinstance(pairs, _Records) and type(pairs.columns[0]) is _PackedTuples
    assert all(len(pair) == 2 for pair in pairs.columns[0])
    fired = details["conditions_fired"]
    assert isinstance(fired, _Records) and fired
    cycle_column = fired.columns[fired.keys.index("cycle")]
    assert type(cycle_column) is _PackedTuples
    assert set(cycle_column) <= set(found.shape.cycles)
    assert deep_size(details, found.shape) <= R7_DETAIL_BYTES[name]


# The six seed-1 ladder verdicts, patterns excluded, as measured on CPython
# 3.11 with every cycle list packed: 262,390 bytes.  With a tuple per cycle
# they held 914,350, 577,388 of them the shapes' cycles.
LADDER_VERDICT_BYTES = 450_000


def test_ladder_verdicts_keep_no_cycle_tuples():
    """The seed-1 ladder verdicts hold their cycles in arrays, not one tuple per cycle.

    No tuple of three or more ints is reachable from a shape or from R7's
    details, save the records' int columns, one tuple per column (R7's
    link lengths); and the six verdicts stay small.
    """
    total = 0
    for label in (f"ladder-n12-{i}" for i in range(6)):
        found = analyze(GOLDEN_PATTERNS[label], SampleConfig())
        details = rule(found, "R7").details
        columns = {
            id(column)
            for records in details.values()
            if isinstance(records, _Records)
            for column in records.columns
        }
        for root in (found.shape, details):
            int_tuples = [
                obj
                for obj in reachable(root)
                if type(obj) is tuple
                and len(obj) >= 3
                and id(obj) not in columns
                and all(type(x) is int for x in obj)
            ]
            assert int_tuples == []
        assert len(found.shape.cycles) > 700
        total += deep_size(found, found.pattern)
    assert total < LADDER_VERDICT_BYTES


# Rows of vertices or other small non-negative ints, and a depth to nest them at.
PACKED_ROWS = st.lists(
    st.lists(st.integers(0, 20), max_size=5).map(tuple), min_size=1, max_size=6
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rows=PACKED_ROWS, wide=st.integers(0, 2**64 - 1), depth=st.integers(0, 3))
def test_packed_lists_write_as_json_dumps(rows, wide, depth):
    """A packed list writes as ``json.dumps`` writes its rows, named 1-based or as ints."""
    packed = _PackedTuples.of(rows)
    n = 1 + max((v for row in rows for v in row), default=0)
    ints = _PackedTuples.of(rows + [(wide, 0)])
    docs = [
        (_VertexLists(packed, n), [[v + 1 for v in row] for row in rows]),
        (_Records(("cycle",), (ints,)), [{"cycle": list(row)} for row in rows + [(wide, 0)]]),
    ]
    for doc, want in docs:
        for _ in range(depth):
            doc, want = {"x": [doc]}, {"x": [want]}
        assert write(doc) == json.dumps(want, indent=2)
    with pytest.raises(TypeError):
        json.dumps(packed)
    with pytest.raises(TypeError, match="_PackedTuples"):
        write({"x": packed})


@pytest.mark.parametrize(
    "doc",
    [
        {},
        [],
        [[1, 2], [3]],
        [[1, 2], []],
        [[1], [True]],
        [[1], [None]],
        [[1], [2.0]],
        [(1, 2), [3]],
        [{"a": 1, "b": [1, 2]}, {"a": 2, "b": (3,)}],
        [{"a": 1, "b": [1, 2]}, {"b": [3], "a": 2}],
        [{"a": 1}, {"a": 2, "b": 3}],
        [{"1": "x"}, {"1": "y"}],
        [{"": "x", "1": "y"}, {"": "z", "1": "w"}],
        [{"a": float("nan"), "b": float("inf")}, {"a": -float("inf"), "b": 1.5}],
        [{"a": 1, "b": None}, {"a": True, "b": "s"}],
        [{"a": []}, {"a": [1]}],
        [{"a": [True]}],
        [{"a": 2**70}],
        [{"a": {}}],
        [{"a": 1}, 2, {"a": 3}],
        [{"a": 1}, [1, 2]],
        [{}, {}],
        {"a": [], "b": {}, "c": [[], {}]},
        {"1": "digit key", "true": "word key", "null": "json word", "": "empty key"},
        [1, 2, 3],
        [1.5, float("nan"), float("inf"), -float("inf"), -0.0],
        [True, 1, 1.0],
        (7, 0.1, float(np.float32(0.1))),
        {"cycles": [[1, 2, 3], (4, 5)], "strict": False, "none": None},
    ],
)
def test_writer_matches_json_dumps_on_edge_cases(doc):
    assert write(doc) == json.dumps(old_plain(doc), indent=2)


@pytest.mark.parametrize("bad", [{1, 2}, np.bool_(True), np.array([1.0]), object()])
def test_writer_rejects_what_json_rejects(pat, bad):
    with pytest.raises(TypeError):
        json.dumps(old_plain({"x": [bad]}), indent=2)
    with pytest.raises(TypeError, match="not JSON serializable"):
        write({"x": [bad]})
    v = analyze(pat("PAT_P4"), cfg=CFG)
    v.findings[0].details["bad"] = bad
    with pytest.raises(TypeError, match="not JSON serializable"):
        verdict_to_json(v)


class Count(int):
    pass


class Name(str):
    pass


class Ratio(float):
    pass


# Values json.dumps takes but no verdict holds, each with the type name the
# writer's TypeError gives.
OUTSIDE_VERDICTS = {
    "np.int64": (np.int64(7), "int64"),
    "np.float64": (np.float64(0.1), "float64"),
    "np.float32": (np.float32(0.1), "float32"),
    "int subclass": (Count(3), "Count"),
    "str subclass": (Name("x"), "Name"),
    "float subclass": (Ratio(0.5), "Ratio"),
    "int key": ({1: "x"}, "int"),
    "bool key": ({"a": 1, True: "x"}, "bool"),
    "None key": ({None: "x"}, "NoneType"),
    "str subclass key": ({Name("x"): 1}, "Name"),
    "numpy int in an int list": ([[1], [np.int64(2)]], "int64"),
    "numpy int in a record": ([{"a": np.int64(1)}], "int64"),
    "numpy scalars in a tuple": ((7, np.float64(0.1)), "float64"),
    "mixed records column": (_Records(("a", "b"), ((1, "s"), (True, False))), "int, str"),
    "empty cell in a records column": (_Records(("cycle",), (((0, 1), ()),)), "tuple"),
    "unpacked tuple cells in a records column": (_Records(("key",), (((0, 1),),)), "tuple"),
}


@pytest.mark.parametrize("bad, name", OUTSIDE_VERDICTS.values(), ids=list(OUTSIDE_VERDICTS))
def test_writer_rejects_what_verdicts_do_not_hold(pat, bad, name):
    """Numpy scalars, subclasses of builtins, non-str keys and unjoinable columns raise."""
    named = rf"(?<![\w.]){re.escape(name)}\b"
    with pytest.raises(TypeError, match=named):
        write({"x": [bad]})
    v = analyze(pat("PAT_P4"), cfg=CFG)
    v.findings[0].details["bad"] = bad
    with pytest.raises(TypeError, match=named):
        verdict_to_json(v)


def test_vertex_numbering(pat):
    """Where a verdict numbers vertices from 1 and where from 0.

    The shape's cycles and leaves and explain's cycles line are 1-based;
    vertex lists in rule details and witness details are 0-based, as in
    the API; R7's pairs name cycles by their index in the shape's list.
    """
    v = analyze(pat("PAT_TWOCYC82"), cfg=CFG)
    doc = json.loads(verdict_to_json(v))
    assert v.shape.cycles == ((0, 1, 2, 3), (4, 5, 6, 7))
    assert doc["shape"]["cycles"] == [[1, 2, 3, 4], [5, 6, 7, 8]]
    assert "cycles: 1-2-3-4; 5-6-7-8\n" in explain(v)
    r1, r7 = doc["findings"][0], doc["findings"][6]
    assert r1["witness"]["detail"]["plus_parts"] == [[0, 1], [2, 3], [4, 5], [6, 7]]
    assert r1["witness"]["detail"]["minus_parts"] == [[0, 1], [2, 3], [4, 5, 6, 7]]
    assert [hit["cycle"] for hit in r7["details"]["conditions_fired"]] == [[0, 1, 2, 3]]
    assert [pair["cycles"] for pair in r7["details"]["path_adjacent_pairs"]] == [[0, 1]]
    unicyclic = analyze(pat("PAT_UNI61"), cfg=CFG)
    assert unicyclic.shape.leaves == (5,)
    assert json.loads(verdict_to_json(unicyclic))["shape"]["leaves"] == [6]


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
    got = _odd_cycle_det_sign(pattern, facts.shape.cycles[0])
    assert got is ek_sign(pattern, pattern.n)


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
