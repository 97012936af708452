"""One ``PatternAnalysis`` per ``analyze``: each structural fact is derived once."""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from signum import cycles, fixtures, graphs, patterns, spectra, verdict
from signum.cycles import (
    PatternAnalysis,
    composite_signs,
    max_composite_cover,
    max_composite_length,
)
from signum.errors import NotCombinatoriallySymmetric
from signum.fixtures import FIXTURES
from signum.graphs import build_digraph, build_graphs, classify_shape, path_edge_signs
from signum.patterns import SignPattern, parse_pattern, validate
from signum.spectra import SampleConfig
from signum.verdict import analyze

GOLDEN = Path(__file__).with_name("golden_census.json")

COUNTED = {
    "validate": patterns.validate,
    "build_digraph": graphs.build_digraph,
    "classify_shape": graphs.classify_shape,
    "composite_signs": cycles.composite_signs,
    "census": spectra.census,
    "directed_cycle_from_vertices": cycles.directed_cycle_from_vertices,
    "cover_extension_exists": cycles.cover_extension_exists,
    "_has_perfect_matching": cycles._has_perfect_matching,
    "_max_cover": cycles._max_cover,
    "cycle_structure": graphs.cycle_structure,
    "cycle_edge_order": graphs.cycle_edge_order,
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

    wrappers = {id(fn): (fn, counting(name, fn)) for name, fn in COUNTED.items()}
    for mod_name, module in sorted(sys.modules.items()):
        if module is None or not (mod_name == "signum" or mod_name.startswith("signum.")):
            continue
        for attr, obj in list(vars(module).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                monkeypatch.setattr(module, attr, hit[1])
    return calls


def _ladder_pattern(label: str) -> SignPattern:
    entry = next(e for e in json.loads(GOLDEN.read_text())["ladder"] if e["label"] == label)
    return parse_pattern("\n".join(entry["rows"]))


def test_each_fact_computed_once_per_analyze(monkeypatch):
    calls = _count_calls(monkeypatch)
    # PAT_EX26 is an odd single cycle, so R2 reads the determinant sign too.
    for pattern in (_ladder_pattern("ladder-n12-0"), FIXTURES["PAT_EX26"].pattern):
        calls.clear()
        verdict = analyze(pattern, SampleConfig())
        assert verdict.witness_pair() is not None  # the witness search ran too
        assert calls["classify_shape"] == 1
        assert calls["composite_signs"] == 1
        assert calls["validate"] == 1
        assert calls["build_digraph"] <= 1


def test_cycle_report_read_once_and_edges_ordered_only_for_constructions(monkeypatch):
    """R7 and the cycle witness strategy share one cycle report.

    The strategy decides each cycle's constructions from the report's signs
    and orders a cycle's edges only for a matching construction: 13 of the
    cycles it walks on ``ladder-n12-0`` before the orientation clash holds.
    """
    calls = _count_calls(monkeypatch)
    verdict = analyze(_ladder_pattern("ladder-n12-0"), SampleConfig())
    assert verdict.witness_pair().method == "cycle-orientation-sign-clash"
    assert calls["cycle_structure"] == 1
    assert calls["cycle_edge_order"] == 13


@pytest.mark.parametrize(
    "name, method",
    [("PAT_UNI61", "cycle-orientation-sign-clash"), ("PAT_UNI62", "all-negative-cycle")],
)
def test_r6_and_cycle_witness_share_the_leftover_cover(monkeypatch, name, method):
    facts = PatternAnalysis(FIXTURES[name].pattern)
    assert facts.shape.kind is graphs.ShapeKind.UNICYCLIC
    facts.max_composite_length  # the whole pattern's cover, solved before counting
    calls = _count_calls(monkeypatch)
    finding = verdict._r6(facts, None, None, [])
    assert finding.details["length_splits_additively"]
    assert spectra._pair_from_cycle_conditions(facts).method == method
    assert calls["_max_cover"] == 1
    (cycle,) = facts.cycle_report.cycles
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
    fixtures.verify()
    # Seven verdict checks of verify analyze a tree, each once.
    assert calls["census"] == 33


def test_r7_matches_each_leftover_vertex_set_once(monkeypatch):
    """R7 builds no directed cycle and tests extension on leftover masks, memoized."""
    facts = PatternAnalysis(_ladder_pattern("ladder-n12-0"))
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
    fill = spectra._fill

    def counting(pattern, support, seed, laws, start, stop):
        drawn.append(stop - start)
        return fill(pattern, support, seed, laws, start, stop)

    monkeypatch.setattr(spectra, "_fill", counting)
    verdict = analyze(_ladder_pattern("ladder-n12-1"), SampleConfig())
    assert verdict.witness_pair().method == "sampled"
    assert verdict.census.trials == 1000
    assert sum(drawn) == 2000


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_analysis_matches_direct_computation(name):
    pattern = FIXTURES[name].pattern
    facts = PatternAnalysis(pattern)
    digraph, graph = build_graphs(pattern)
    assert facts.flags == validate(pattern)
    assert facts.digraph == digraph == build_digraph(pattern)
    assert facts.graph == graph
    assert facts.shape == classify_shape(graph)
    assert facts.max_composite_length == max_composite_length(digraph)
    assert facts.top_signs == composite_signs(digraph, max_composite_length(digraph))
    assert facts.cycle_report == graphs.cycle_structure(graph)
    for cycle in facts.cycle_report.cycles:
        cover = max_composite_cover(digraph.without_vertices(set(cycle)))
        assert facts.cover_without(cycle) == (cover.parts if cover else ())
    if facts.shape.kind is graphs.ShapeKind.PATH:
        assert facts.path_edges == path_edge_signs(graph)
    else:
        with pytest.raises(ValueError):
            facts.path_edges


def test_analysis_field_errors_repeat():
    lopsided = SignPattern.from_rows([[0, 1], [0, 0]])
    facts = PatternAnalysis(lopsided)
    assert not facts.flags.combinatorially_symmetric
    assert facts.digraph.arcs == ((0, 1, 1),)
    for _ in range(2):
        with pytest.raises(NotCombinatoriallySymmetric):
            facts.graph
