"""One ``PatternAnalysis`` per ``analyze``: each structural fact is derived once."""

from __future__ import annotations

import functools
import gc
import itertools
import json
import pickle
import sys
import weakref
from collections import Counter
from pathlib import Path

import pytest

from signum import cycles, fixtures, graphs, patterns, spectra, verdict
from signum.cycles import PatternAnalysis, composite_signs
from signum.errors import (
    CycleNotInPattern,
    DegenerateBase,
    EigenFailure,
    NonFinite,
    NoStabilization,
    NotCombinatoriallySymmetric,
    SignMismatch,
)
from signum.fixtures import FIXTURES
from signum.graphs import build_graphs, classify_shape, path_edge_signs
from signum.patterns import SignPattern, parse_pattern, validate
from signum.spectra import SampleConfig
from signum.verdict import analyze, verdict_to_json

GOLDEN = Path(__file__).with_name("golden_census.json")

COUNTED = {
    "validate": patterns.validate,
    "classify_shape": graphs.classify_shape,
    "composite_signs": cycles.composite_signs,
    "census": spectra.census,
    "directed_cycle_from_vertices": cycles.directed_cycle_from_vertices,
    "cover_extension_exists": cycles.cover_extension_exists,
    "_has_perfect_matching": cycles._has_perfect_matching,
    "_max_cover": patterns._max_cover,
    "cycle_structure": graphs.cycle_structure,
    "cycle_edge_order": graphs.cycle_edge_order,
    "cycle_conditions": graphs.cycle_conditions,
    "stabilize_epsilon": spectra.stabilize_epsilon,
    "_try_pair": spectra._try_pair,
    "_bfs_levels": graphs._bfs_levels,
}


def _count_calls(monkeypatch) -> Counter:
    """Wrap every ``signum.*`` module binding of the counted functions.

    Callers import by name, so patching only the defining module would miss
    nearly every call.
    """
    calls: Counter = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name, fn in COUNTED.items():
        _rebind(monkeypatch, fn, counting(name, fn))
    return calls


def _rebind(monkeypatch, fn, wrapper) -> None:
    """Point every ``signum.*`` module binding of ``fn`` at ``wrapper``."""
    for mod_name, module in sorted(sys.modules.items()):
        if module is None or not (mod_name == "signum" or mod_name.startswith("signum.")):
            continue
        for attr, obj in list(vars(module).items()):
            if obj is fn:
                monkeypatch.setattr(module, attr, wrapper)


def _golden_patterns() -> dict[str, SignPattern]:
    """Every catalog fixture and every golden ``ladder`` and ``trees`` pattern."""
    data = json.loads(GOLDEN.read_text())
    named = {name: FIXTURES[name].pattern for name in sorted(FIXTURES)}
    for entry in data["ladder"] + data["trees"]:
        named[entry["label"]] = parse_pattern("\n".join(entry["rows"]))
    return named


GOLDEN_PATTERNS = _golden_patterns()


def _count_by_rows(monkeypatch, fn) -> Counter:
    """Wrap every ``signum.*`` module binding of ``fn``, counting calls by their first argument."""
    seen: Counter = Counter()

    def wrapper(rows, *args):
        seen[tuple(rows)] += 1
        return fn(rows, *args)

    _rebind(monkeypatch, fn, wrapper)
    return seen


def test_each_fact_computed_once_per_analyze(monkeypatch):
    calls = _count_calls(monkeypatch)
    transposed = _count_by_rows(monkeypatch, patterns._transpose)
    tabulated = _count_by_rows(monkeypatch, patterns._union_table)
    masks_built: Counter = Counter()
    build_masks = SignPattern.successor_masks.func

    def counting_masks(pattern):
        masks_built[pattern.rows] += 1
        return build_masks(pattern)

    counted = functools.cached_property(counting_masks)
    counted.__set_name__(SignPattern, "successor_masks")
    monkeypatch.setattr(SignPattern, "successor_masks", counted)
    # PAT_EX26 is an odd single cycle, so R2 reads the determinant sign too.
    for shared in (GOLDEN_PATTERNS["ladder-n12-0"], FIXTURES["PAT_EX26"].pattern):
        pattern = SignPattern(shared.rows)  # nothing cached on a fresh object
        for counter in (calls, masks_built, transposed, tabulated):
            counter.clear()
        verdict = analyze(pattern, SampleConfig())
        assert verdict.witness_pair() is not None  # the witness search ran too
        assert calls["classify_shape"] == 1
        assert calls["composite_signs"] == 1
        assert calls["validate"] == 1
        # validate, the composite walk, R7 and the graph share the analyzed pattern's masks,
        # their one transpose and their one union table.
        assert masks_built == Counter({pattern.rows: 1})
        assert transposed[pattern.successor_masks] == 1
        assert tabulated[pattern.successor_masks] == 1


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_analyze_validates_once_and_decides_connectivity_once(monkeypatch, name):
    """One ``validate``, at most one connectivity run per graph, no witness key re-profiled.

    R9 flips the tree it analyses without validating it again, the shape,
    the path order and the cycle report share the graph's one connectivity
    answer, and ``_widest_gap_pair`` states the census keys it picked.
    """
    calls = _count_calls(monkeypatch)
    runs, profiled_by = Counter(), Counter()
    reaches_all, profile = graphs._reaches_all, spectra.spectral_profile
    post_init = graphs.SignedGraph.__post_init__

    def building(graph):
        calls["SignedGraph"] += 1
        post_init(graph)

    def connectivity(*args):
        runs["connectivity"] += 1
        return reaches_all(*args)

    def profiling(a):
        profiled_by[sys._getframe(1).f_code.co_name] += 1
        return profile(a)

    monkeypatch.setattr(graphs, "_reaches_all", connectivity)
    monkeypatch.setattr(spectra, "spectral_profile", profiling)
    monkeypatch.setattr(graphs.SignedGraph, "__post_init__", building)
    analyze(FIXTURES[name].pattern, SampleConfig())
    assert calls["validate"] == 1
    assert runs["connectivity"] <= calls["SignedGraph"] <= 1
    assert profiled_by["_widest_gap_pair"] == 0


def test_cycle_report_read_once_and_edges_ordered_only_for_constructions(monkeypatch):
    """R7 and the cycle witness strategy share one cycle report.

    The strategy decides each cycle's constructions from the conditions table
    and orders a cycle's edges only for a matching construction: 13 of the
    cycles it walks on ``ladder-n12-0`` before the orientation clash holds.
    """
    calls = _count_calls(monkeypatch)
    verdict = analyze(GOLDEN_PATTERNS["ladder-n12-0"], SampleConfig())
    assert verdict.witness_pair().method == "cycle-orientation-sign-clash"
    assert calls["cycle_structure"] == 1
    assert calls["cycle_edge_order"] == 13


def test_cycle_conditions_decided_once_per_mask_and_length(monkeypatch):
    """R7 and the cycle witness strategy read one conditions table.

    ``ladder-n12-0`` runs both; each distinct (negative-edge mask, length)
    of its cycles is decided once, and the table is what R7 would have
    decided cycle by cycle.
    """
    calls = _count_calls(monkeypatch)
    pattern = GOLDEN_PATTERNS["ladder-n12-0"]
    found = analyze(pattern, SampleConfig())
    assert found.witness_pair().method == "cycle-orientation-sign-clash"
    r7 = next(f for f in found.findings if f.rule_id == "R7")
    assert r7.applicable and r7.details["conditions_fired"]
    facts = PatternAnalysis(pattern)
    table = facts.graph.cycle_table
    keys = [(neg, len(cyc)) for neg, cyc in zip(table.negatives, table.cycles)]
    assert calls["cycle_conditions"] == len(set(keys)) < len(keys)
    monkeypatch.undo()
    assert facts.conditions_by_cycle == tuple(graphs.cycle_conditions(*key) for key in keys)


@pytest.mark.parametrize("name", ["PAT_EX26", "PAT_UNI61"])
def test_single_cycle_rules_copy_the_shared_conditions(name):
    """R5 and R6 put a dict of their own in their details."""
    facts = PatternAnalysis(FIXTURES[name].pattern)
    rule = verdict._r5 if facts.shape.kind is graphs.ShapeKind.SINGLE_CYCLE else verdict._r6
    conds = rule(facts, None, None, []).details["conditions"]
    assert conds == facts.conditions_by_cycle[0]
    assert conds is not facts.conditions_by_cycle[0]


@pytest.mark.parametrize(
    "name, method",
    [("PAT_UNI61", "cycle-orientation-sign-clash"), ("PAT_UNI62", "all-negative-cycle")],
)
def test_r6_and_cycle_witness_share_the_leftover_cover(monkeypatch, name, method):
    facts = PatternAnalysis(FIXTURES[name].pattern)
    assert facts.shape.kind is graphs.ShapeKind.UNICYCLIC
    facts.pattern.max_composite_length  # the whole pattern's cover, solved before counting
    calls = _count_calls(monkeypatch)
    finding = verdict._r6(facts, None, None, [])
    assert finding.details["length_splits_additively"]
    pattern = facts.pattern
    specs = (
        (spectra.ladder_spec(a), spectra.ladder_spec(b), m, d)
        for a, b, m, d in spectra._cycle_condition_candidates(facts)
    )
    pairs = (spectra._try_pair(pattern, *args) for args in specs)
    assert next(pair for pair in pairs if pair is not None).method == method
    assert calls["_max_cover"] == 1
    (cycle,) = facts.graph.cycle_table.cycles
    assert facts.cover_without(cycle) == facts.cover_without(reversed(cycle))
    assert calls["_max_cover"] == 1


def test_r9_reads_the_main_census(monkeypatch):
    """R9 folds the main census instead of drawing one of the flipped pattern."""
    calls = _count_calls(monkeypatch)
    # PAT_P6P's witness is a construction; PAT_P8P's resumes the main census.
    for name, method, count in (
        ("PAT_P6P", "negative-vs-positive-matching", 1),
        ("PAT_P8P", "sampled", 2),
    ):
        calls.clear()
        verdict = analyze(FIXTURES[name].pattern, SampleConfig())
        assert verdict.witness_pair().method == method
        assert calls["census"] == count
    calls.clear()
    init = PatternAnalysis.__init__

    def counting_init(self, *args, **kwargs):
        calls["PatternAnalysis"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(PatternAnalysis, "__init__", counting_init)
    fixtures.verify()
    # Seven verdict checks of verify analyze a tree, each once.
    assert calls["census"] == 33
    # One analysis per fixture: the verdict checks read the one verify holds.
    assert calls["PatternAnalysis"] == len(FIXTURES) == 25


def test_r7_matches_each_leftover_vertex_set_once(monkeypatch):
    """R7 builds no directed cycle and tests extension on leftover masks, memoized."""
    facts = PatternAnalysis(GOLDEN_PATTERNS["ladder-n12-0"])
    assert facts.shape.kind is graphs.ShapeKind.MULTI_CYCLE_NO_LEAF
    calls = _count_calls(monkeypatch)
    fired = verdict._r7(facts, None, None, []).details["conditions_fired"]
    # Several hit cycles can run through one vertex set.
    hit_cycles = {tuple(hit["cycle"]) for hit in fired}
    leftovers = {frozenset(cycle) for cycle in hit_cycles}
    assert len(hit_cycles) > len(leftovers) > 100
    assert calls["directed_cycle_from_vertices"] == 0
    assert calls["cover_extension_exists"] == 0
    assert calls["_has_perfect_matching"] == len(leftovers)


def test_sampling_witness_resumes_the_main_census(monkeypatch):
    """The 2000-trial witness census extends the 1000-trial main census."""
    drawn = []
    solve = spectra._solve_stack

    def counting(mats):
        # Census blocks only: a single matrix is solved as a stack of one.
        if sys._getframe(1).f_code.co_name == "block_rows":
            drawn.append(len(mats))
        return solve(mats)

    monkeypatch.setattr(spectra, "_solve_stack", counting)
    verdict = analyze(GOLDEN_PATTERNS["ladder-n12-1"], SampleConfig())
    assert verdict.witness_pair().method == "sampled"
    assert verdict.census.trials == 1000
    assert sum(drawn) == 2000


@pytest.mark.parametrize("name", ["PAT_TWOCYC81", "PAT_P8P"])
def test_verdict_keeps_neither_the_analysis_nor_its_census_record(monkeypatch, name):
    """Both die by reference counting once ``analyze`` returns.

    Both witnesses are sampled, so the census record is extended past the
    main census; PAT_P8P is a path, so R9 reads the record too.
    """
    refs = []
    original = verdict._analyze

    def watched(facts, cfg):
        try:
            return original(facts, cfg)
        finally:
            # Each record is one array of rows.
            refs.extend(map(weakref.ref, [facts, *facts.censuses.values()]))

    monkeypatch.setattr(verdict, "_analyze", watched)
    gc.disable()
    try:
        result = analyze(FIXTURES[name].pattern, SampleConfig())
        alive = [ref() is not None for ref in refs]
    finally:
        gc.enable()
    assert result.witness_pair().method == "sampled"
    assert alive == [False, False]


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_analysis_matches_direct_computation(name):
    pattern = FIXTURES[name].pattern
    facts = PatternAnalysis(pattern)
    digraph, graph = build_graphs(pattern)
    assert facts.flags == validate(pattern)
    assert digraph is pattern
    assert facts.graph == graph
    assert facts.shape == classify_shape(graph)
    assert facts.top_signs == composite_signs(pattern, pattern.max_composite_length)
    assert facts.cycle_report == graphs.cycle_structure(graph)
    for cycle in facts.graph.cycle_table.cycles:
        # The cover avoiding the cycle is the maximum cover of the pattern
        # with the cycle's rows and columns zeroed.
        zeroed = SignPattern.from_rows(
            [0 if i in cycle or j in cycle else v for j, v in enumerate(row)]
            for i, row in enumerate(pattern.rows)
        )
        assert facts.cover_without(cycle) == PatternAnalysis(zeroed).cover_without(())
    if facts.shape.kind is graphs.ShapeKind.PATH:
        assert facts.path_edges == path_edge_signs(graph)
    else:
        with pytest.raises(ValueError):
            facts.path_edges


def test_analysis_field_errors_repeat():
    lopsided = SignPattern.from_rows([[0, 1], [0, 0]])
    facts = PatternAnalysis(lopsided)
    assert not facts.flags.combinatorially_symmetric
    assert facts.pattern.successor_masks == (0b10, 0)
    for _ in range(2):
        with pytest.raises(NotCombinatoriallySymmetric):
            facts.graph


def _try_pair_both_walks(pattern, spec_a, spec_b, method, detail):
    """Reference ``_try_pair``: both walks always run before anything is checked."""
    try:
        mat_a, eps_a, prof_a = spectra.stabilize_epsilon(pattern, spec_a)
        mat_b, eps_b, prof_b = spectra.stabilize_epsilon(pattern, spec_b)
    except (
        NoStabilization,
        DegenerateBase,
        CycleNotInPattern,
        SignMismatch,
        EigenFailure,
        NonFinite,
    ):
        return None
    if prof_a.inertia == prof_b.inertia:
        return None
    if prof_a.suspect_inertia or prof_b.suspect_inertia:
        return None
    detail = dict(detail, epsilon_a=eps_a, epsilon_b=eps_b)
    return spectra.WitnessPair(mat_a, mat_b, prof_a.inertia, prof_b.inertia, method, detail)


@pytest.mark.parametrize("name", list(GOLDEN_PATTERNS))
def test_witness_pair_stops_at_first_suspect_walk_byte_for_byte(monkeypatch, name):
    """Skipping the second walk after a suspect first one changes no byte."""
    pattern = GOLDEN_PATTERNS[name]
    fast = verdict_to_json(analyze(pattern, SampleConfig()))
    monkeypatch.setattr(spectra, "_try_pair", _try_pair_both_walks)
    assert verdict_to_json(analyze(pattern, SampleConfig())) == fast


def test_witness_pairs_walk_second_only_after_a_firm_first(monkeypatch):
    """47 of the 53 pairs tried on the golden ladder stop at a suspect first walk.

    Candidates are built only as the certifying loop asks for them, so no
    extra pair is tried and no extra cover solved.  Each pattern is a fresh
    copy, so its cached ``max_composite_length`` is solved here, once, and
    the count does not depend on which tests ran before.
    """
    calls = _count_calls(monkeypatch)
    walks, tried, covers = {}, [], []
    for label in (f"ladder-n12-{i}" for i in range(6)):
        calls.clear()
        analyze(SignPattern(GOLDEN_PATTERNS[label].rows), SampleConfig())
        walks[label] = calls["stabilize_epsilon"]
        tried.append(calls["_try_pair"])
        covers.append(calls["_max_cover"])
    assert walks["ladder-n12-0"] == 32
    assert sum(walks.values()) == 59
    assert tried == [31, 2, 1, 14, 1, 4]
    assert covers == [17, 1, 1, 10, 1, 3]


@pytest.mark.parametrize("name", ["PAT_TWOCYC81", "ladder-n12-1", "path-n16-0"])
def test_cached_pattern_facts_never_move_bytes(name):
    """A pattern analyzed again, copied, or pickled with its facts cached gives the same bytes.

    PAT_TWOCYC81's witness is sampled from a resumed census.
    """
    pattern = SignPattern(GOLDEN_PATTERNS[name].rows)
    first = verdict_to_json(analyze(pattern, SampleConfig()))
    for again in (pattern, SignPattern(pattern.rows), pickle.loads(pickle.dumps(pattern))):
        assert verdict_to_json(analyze(again, SampleConfig())) == first


def test_candidates_propose_and_never_walk(monkeypatch):
    """Strategies only propose; the loop in ``find_witness_pair`` certifies."""

    def no_walk(*args, **kwargs):
        raise AssertionError("a candidate strategy walked epsilon")

    monkeypatch.setattr(spectra, "stabilize_epsilon", no_walk)
    facts = PatternAnalysis(GOLDEN_PATTERNS["ladder-n12-0"])
    candidates = list(itertools.islice(spectra._candidates(facts), 20))
    assert len(candidates) == 20
    assert candidates[0][2] == "max-composite-sign-clash"


@pytest.mark.parametrize("name", list(GOLDEN_PATTERNS))
def test_cycle_structure_runs_a_bfs_only_where_a_link_can_exist(monkeypatch, name):
    """One BFS per leaf, and one per cycle that has a later disjoint cycle."""
    graph = PatternAnalysis(GOLDEN_PATTERNS[name]).graph
    calls = _count_calls(monkeypatch)
    report = graphs.cycle_structure(graph)
    cycles = [set(cycle) for cycle in graph.cycle_table.cycles]
    linkable = sum(
        any(cycle.isdisjoint(later) for later in cycles[a + 1 :])
        for a, cycle in enumerate(cycles)
    )
    assert calls["_bfs_levels"] == len(graph.leaves()) + linkable
