"""In-house enumerators and solvers against the code they replaced.

``composite_cycles_of_length`` walks vertex sets and part layouts in
sort-key order, pruning with a perfect-matching test; ``cycle_structure``
links cycle pairs from one BFS per cycle, read through per-vertex masks of
the cycles; ``SignedGraph.cycle_table`` lists
undirected cycles with its own depth-first search; the maximum
composite cover comes from a pure-Python port of scipy's assignment
solver; and ``graphs.cycle_conditions``, which R5-R7 and the cycle
witness strategy read, decides a cycle's conditions off its negative-edge
mask, while R7 tests extension with the matcher on the leftover vertex mask.  The
oracles below are what they replaced: composites combined from networkx's
list of directed simple cycles, the keep-the-minimum composite of each
sign (which ``composite_signs`` and ``ek_sign`` must match at every
length), the scipy bipartite-matching cover test, one BFS per cycle pair,
networkx's undirected cycles in canonical form, the cover that scipy's
``linear_sum_assignment`` picks, and R7 built from maximal sign runs,
``directed_cycle_from_vertices`` and ``cover_extension_exists``.
Agreement must be exact, down to the order of the composites and the
choice among optimal covers.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path
from typing import Iterator

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from signum import verdict
from signum.charpoly import ek_sign
from signum.cycles import (
    COMPOSITE_CYCLE_BUDGET,
    CompositeCycle,
    PatternAnalysis,
    SimpleCycle,
    composite_cycles_of_length,
    composite_signs,
    cover_extension_exists,
    directed_cycle_from_vertices,
)
from signum.errors import CycleBudgetExceeded
from signum.graphs import (
    UNDIRECTED_CYCLE_BUDGET,
    CycleStructureReport,
    ShapeKind,
    SignedGraph,
    build_graphs,
    cycle_conditions,
    cycle_structure,
    maximal_signed_runs,
)
from signum.patterns import AmbSign, SignPattern, _max_cover, parse_pattern

GOLDEN = Path(__file__).with_name("golden_census.json")


def simple_cycles(
    pattern: SignPattern,
    max_len: int | None = None,
    budget: int = COMPOSITE_CYCLE_BUDGET,
) -> Iterator[SimpleCycle]:
    """Every directed simple cycle of length <= max_len, exactly once, from networkx.

    Loops count as length-1 cycles.  Raises CycleBudgetExceeded past the
    emission budget.
    """
    g = nx.DiGraph()
    g.add_nodes_from(range(pattern.n))
    g.add_edges_from(pattern.support())
    count = 0
    for cyc in nx.simple_cycles(g, length_bound=max_len):
        count += 1
        if count > budget:
            raise CycleBudgetExceeded(f"more than {budget} simple cycles")
        yield directed_cycle_from_vertices(pattern, cyc)


def _canonical_cycle(vertices: list[int]) -> tuple[int, ...]:
    """Rotate/reflect an undirected vertex cycle to a canonical tuple."""
    k = len(vertices)
    best = None
    for seq in (vertices, vertices[::-1]):
        start = seq.index(min(seq))
        rot = tuple(seq[(start + t) % k] for t in range(k))
        if best is None or rot < best:
            best = rot
    assert best is not None
    return best


def oracle_undirected_cycles(graph: SignedGraph) -> tuple[tuple[int, ...], ...]:
    """networkx's undirected simple cycles, canonical and sorted, under the same budget."""
    g = nx.Graph()
    g.add_nodes_from(range(graph.n))
    g.add_edges_from(e for e, _ in graph.edges)
    out = []
    for count, cyc in enumerate(nx.simple_cycles(g)):
        if count >= UNDIRECTED_CYCLE_BUDGET:
            raise CycleBudgetExceeded(f"more than {UNDIRECTED_CYCLE_BUDGET} undirected cycles")
        out.append(_canonical_cycle(list(cyc)))
    return tuple(sorted(out))


def oracle_cover(n: int, arcs, include_loops: bool) -> dict[int, int]:
    """Arcs of scipy's optimal assignment: arcs cost -1, the diagonal is free slack."""
    if n == 0:
        return {}
    cost = np.full((n, n), float(n + 1))
    np.fill_diagonal(cost, 0.0)
    for i, j in arcs:
        if i != j or include_loops:
            cost[i, j] = -1.0
    rows, cols = linear_sum_assignment(cost)
    return {int(i): int(j) for i, j in zip(rows, cols) if cost[i, j] < 0}


def oracle_composites(
    pattern: SignPattern, length: int, include_loops: bool = False
) -> list[CompositeCycle]:
    """Every composite of the given length, combined from the simple cycles."""
    cycles = [
        c
        for c in simple_cycles(pattern, max_len=length)
        if include_loops or c.length > 1
    ]
    cycles.sort(key=lambda c: (c.vertices[0], c.length, c.vertices, -c.sign))
    free = pattern.n
    out: list[CompositeCycle] = []

    def rec(start: int, chosen: list[SimpleCycle], used: set[int], cur: int) -> None:
        if cur == length:
            out.append(CompositeCycle(tuple(chosen)))
            return
        if cur + (free - len(used)) < length:
            return
        for t in range(start, len(cycles)):
            c = cycles[t]
            if cur + c.length > length or used.intersection(c.vertices):
                continue
            chosen.append(c)
            used.update(c.vertices)
            rec(t + 1, chosen, used, cur + c.length)
            chosen.pop()
            used.difference_update(c.vertices)

    rec(0, [], set(), 0)
    return out


def oracle_composite_signs(pattern: SignPattern, length: int) -> dict[int, CompositeCycle]:
    """Keep the smallest-sort-key nonempty composite of each sign, loops included."""
    best: dict[int, CompositeCycle] = {}
    for comp in oracle_composites(pattern, length, include_loops=True):
        prev = best.get(comp.sign)
        if comp.parts and (prev is None or comp.sort_key() < prev.sort_key()):
            best[comp.sign] = comp
    return best


def oracle_cover_extension(pattern: SignPattern, cycle: SimpleCycle) -> bool:
    remaining = sorted(set(range(pattern.n)) - set(cycle.vertices))
    if not remaining:
        return True
    pos = {v: t for t, v in enumerate(remaining)}
    rows, cols = [], []
    for i, j in pattern.support():
        if i != j and i in pos and j in pos:
            rows.append(pos[i])
            cols.append(pos[j])
    if not rows:
        return False
    r = len(remaining)
    graph = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(r, r))
    return bool(np.all(maximum_bipartite_matching(graph, perm_type="column") >= 0))


def oracle_adjacency(graph: SignedGraph) -> dict[int, list[int]]:
    """Each vertex's neighbours in increasing order, from the edge list."""
    adjacency: dict[int, list[int]] = {v: [] for v in range(graph.n)}
    for (i, j), _ in graph.edges:
        adjacency[i].append(j)
        adjacency[j].append(i)
    return {v: sorted(ws) for v, ws in adjacency.items()}


def oracle_cycle_signs(graph: SignedGraph, cycle: tuple[int, ...]) -> tuple[int, ...]:
    """The sign of each edge around a cycle, from the edge list: edge t leaves ``cycle[t]``."""
    sign = dict(graph.edges)
    steps = zip(cycle, cycle[1:] + cycle[:1])
    return tuple(sign[min(u, v), max(u, v)] for u, v in steps)


def _distances(adjacency: dict[int, list[int]], sources: set[int]) -> dict[int, int]:
    dist = {v: 0 for v in sources}
    frontier = sorted(sources)
    while frontier:
        nxt = []
        for u in frontier:
            for w in adjacency[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        frontier = sorted(nxt)
    return dist


def _restricted_link(
    adjacency: dict[int, list[int]], va: set[int], vb: set[int], on_cycle: set[int]
) -> int | None:
    if va & vb:
        return None
    dist = {v: 0 for v in va}
    frontier = sorted(va)
    best = None
    while frontier:
        nxt = []
        for u in frontier:
            for w in adjacency[u]:
                if w in vb:
                    cand = dist[u] + 1
                    best = cand if best is None else min(best, cand)
                elif w not in dist and w not in on_cycle:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        if best is not None:
            return best
        frontier = sorted(nxt)
    return None


def oracle_cycle_structure(graph: SignedGraph) -> CycleStructureReport:
    """One BFS per cycle pair for the link, one more for the raw distance.

    Every listed link must equal the pair's raw distance: the interior edges
    of a cycle-avoiding path are bridges, so every route between the two
    cycles runs along it.
    """
    cycles = graph.cycle_table.cycles
    adjacency = oracle_adjacency(graph)
    on_cycle = {v for cyc in cycles for v in cyc}
    leaf_rows = []
    for leaf in (v for v, ws in adjacency.items() if len(ws) == 1):
        dist = _distances(adjacency, {leaf})
        for c_idx, cyc in enumerate(cycles):
            leaf_rows.append((leaf, c_idx, min(dist[v] for v in cyc)))
    pair_rows = []
    for a in range(len(cycles)):
        for b in range(a + 1, len(cycles)):
            va, vb = set(cycles[a]), set(cycles[b])
            link = _restricted_link(adjacency, va, vb, on_cycle)
            if link is None:
                continue
            raw = min(_distances(adjacency, va)[v] for v in sorted(vb))
            assert raw == link, (cycles[a], cycles[b], link, raw)
            pair_rows.append((a, b, link))
    return CycleStructureReport(tuple(leaf_rows), tuple(pair_rows))


def oracle_cycle_conditions(signs: tuple[int, ...]) -> dict[str, bool]:
    """The three cycle conditions, the odd run read off the maximal cyclic runs."""
    k = len(signs)
    n_neg = sum(1 for s in signs if s < 0)
    odd_run = k % 2 == 0 and any(
        r.length % 2 == 1 and r.length < k for r in maximal_signed_runs(signs, cyclic=True)
    )
    return {
        "odd_negative_count": n_neg % 2 == 1,
        "all_negative": n_neg == k,
        "even_length_odd_run": odd_run,
    }


def oracle_r7_fired(facts: PatternAnalysis) -> list[dict]:
    """R7's ``conditions_fired``, each hit cycle built as a directed cycle and
    tested with ``cover_extension_exists``."""
    table = facts.graph.cycle_table
    all_even = all(len(c) % 2 == 0 for c in table.cycles)
    fired = []
    for cyc in table.cycles:
        conds = oracle_cycle_conditions(oracle_cycle_signs(facts.graph, cyc))
        hits = [c for c, ok in conds.items() if ok and (all_even or c == "odd_negative_count")]
        if not hits:
            continue
        directed = directed_cycle_from_vertices(facts.pattern, cyc)
        extends = cover_extension_exists(facts.pattern, directed)
        fired += [{"cycle": list(cyc), "condition": c, "extends_to_cover": extends} for c in hits]
    return fired


@st.composite
def digraph_patterns(draw, max_n: int = 8) -> SignPattern:
    """Random sign patterns, loops allowed; at most 3n arcs above order 6.

    The cap keeps the oracle, which combines every pair of simple cycles,
    fast on the complete digraphs hypothesis likes to try.
    """
    n = draw(st.integers(1, max_n))
    count = draw(st.integers(0, n * n if n <= 6 else 3 * n))
    cells = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    arcs = draw(st.lists(cells, min_size=count, max_size=count, unique=True))
    signs = draw(st.lists(st.sampled_from((-1, 1)), min_size=count, max_size=count))
    sign_of = dict(zip(arcs, signs))
    return SignPattern.from_rows([[sign_of.get((i, j), 0) for j in range(n)] for i in range(n)])


def _symmetric(draw, n: int, edges) -> SignPattern:
    rows = [[0] * n for _ in range(n)]
    for i, j in edges:
        rows[i][j] = draw(st.sampled_from((-1, 1)))
        rows[j][i] = draw(st.sampled_from((-1, 1)))
    return SignPattern.from_rows(rows)


@st.composite
def tree_plus_chords(draw, max_n: int = 11, dense: bool = False) -> SignPattern:
    """A random tree plus up to n chords, or plus any set of chords when dense."""
    n = draw(st.integers(1, max_n))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    others = sorted((i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in edges)
    if dense:
        edges.update(draw(st.permutations(others))[: draw(st.integers(0, len(others)))])
    elif others:
        edges.update(draw(st.lists(st.sampled_from(others), max_size=n, unique=True)))
    return _symmetric(draw, n, edges)


@st.composite
def linked_cycles(draw, max_n: int = 11, min_n: int = 0) -> SignPattern:
    """Two or three disjoint short cycles joined by paths, a few extra edges, relabelled.

    Tree-plus-chord graphs mostly have overlapping cycles; here many pairs
    are disjoint, some joined only through another cycle.  With ``min_n``,
    cycles are added until they hold at least ``min_n`` vertices.
    """
    rings: list[list[int]] = []
    n = 0
    count = draw(st.integers(2, 3))
    while len(rings) < count or n < min_n:
        k = draw(st.integers(3, 4))
        if n + k > max_n:
            break
        rings.append(list(range(n, n + k)))
        n += k
    edges = {(r[t], r[(t + 1) % len(r)]) for r in rings for t in range(len(r))}
    for c in range(1, len(rings)):
        a = draw(st.sampled_from(rings[draw(st.integers(0, c - 1))]))
        hops = draw(st.integers(0, min(2, max_n - n)))
        path = [a, *range(n, n + hops), draw(st.sampled_from(rings[c]))]
        n += hops
        edges.update(zip(path, path[1:]))
    vertex = st.integers(0, n - 1)
    edges.update(draw(st.lists(st.tuples(vertex, vertex), max_size=2)))
    label = draw(st.permutations(range(n)))
    relabelled = {tuple(sorted((label[i], label[j]))) for i, j in edges if i != j}
    return _symmetric(draw, n, sorted(relabelled))


# Orders 17-24, whose vertex masks span three bytes of the union tables.
WIDE_LINKED_CYCLES = linked_cycles(max_n=24, min_n=17)

ORACLE_SETTINGS = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


@ORACLE_SETTINGS
@given(pattern=digraph_patterns())
def test_composites_match_oracle_in_sort_key_order(pattern):
    for length in range(pattern.n + 1):
        got = list(composite_cycles_of_length(pattern, length))
        keys = [c.sort_key() for c in got]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        want = oracle_composites(pattern, length, include_loops=True)
        assert got == sorted(want, key=lambda c: c.sort_key())


@ORACLE_SETTINGS
@given(pattern=digraph_patterns())
def test_composite_signs_match_min_witness_oracle(pattern):
    for length in range(pattern.n + 1):
        want = oracle_composite_signs(pattern, length)
        assert composite_signs(pattern, length) == want
        if length:
            acc = AmbSign.ZERO
            for sign in want:
                acc = acc.add(AmbSign.from_int(sign))
            assert ek_sign(pattern, length) is acc


@ORACLE_SETTINGS
@given(pattern=digraph_patterns())
def test_cover_extension_matches_bipartite_oracle(pattern):
    for cycle in simple_cycles(pattern):
        if cycle.length > 1:
            assert cover_extension_exists(pattern, cycle) == oracle_cover_extension(
                pattern, cycle
            )


@ORACLE_SETTINGS
@given(pattern=st.one_of(tree_plus_chords(), linked_cycles(), WIDE_LINKED_CYCLES))
def test_cycle_structure_matches_pairwise_oracle(pattern):
    _, graph = build_graphs(pattern)
    assert cycle_structure(graph) == oracle_cycle_structure(graph)


@pytest.mark.parametrize("label", ["ladder-n12-1", "ladder-n12-4"])
def test_cycle_structure_matches_pairwise_oracle_on_ladder(label):
    """Order-12 graphs with 2n edges: hundreds of cycles, tens of thousands of pairs."""
    entry = next(e for e in json.loads(GOLDEN.read_text())["ladder"] if e["label"] == label)
    _, graph = build_graphs(parse_pattern("\n".join(entry["rows"])))
    report = cycle_structure(graph)
    assert len(graph.cycle_table.cycles) > 800 and len(report.path_adjacent_pairs) > 300
    assert report == oracle_cycle_structure(graph)


def test_cycle_structure_through_off_cycle_vertices():
    """Triangles A, B, square C and triangle D (sharing vertex 8 with C), joined by bridges.

    A and B are linked by the off-cycle path 2-10-11-3, which carries a
    pendant leaf 12; B and C by the edge 5-6.  A reaches C and D, and B
    reaches D, only through the vertices of another cycle, so those pairs
    are not listed though their raw distances are finite.  The oracle checks
    that each listed link is the pair's raw distance.
    """
    cycle_edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    cycle_edges += [(6, 7), (7, 8), (8, 9), (6, 9), (8, 13), (13, 14), (8, 14)]
    bridges = [(2, 10), (10, 11), (3, 11), (10, 12), (5, 6)]
    signs = [(-1) ** (i * j) for i, j in cycle_edges + bridges]
    graph = SignedGraph(_edge_signed(15, zip(cycle_edges + bridges, signs)))
    report = cycle_structure(graph)
    assert graph.cycle_table.cycles == ((0, 1, 2), (3, 4, 5), (6, 7, 8, 9), (8, 13, 14))
    assert report.path_adjacent_pairs == ((0, 1, 3), (1, 2, 1))
    assert report.leaf_cycle_distances == ((12, 0, 2), (12, 1, 3), (12, 2, 5), (12, 3, 7))
    assert report == oracle_cycle_structure(graph)


def test_cycle_conditions_match_runs_on_every_short_sign_sequence():
    """All 32,766 sequences of signs of lengths 1-14, each given as its negative-edge mask."""
    checked = 0
    for k in range(1, 15):
        for signs in itertools.product((1, -1), repeat=k):
            negatives = sum(1 << t for t, s in enumerate(signs) if s < 0)
            assert cycle_conditions(negatives, k) == oracle_cycle_conditions(signs), signs
            checked += 1
    assert checked == 2**15 - 2


def _edge_signed(n: int, signed_edges) -> SignPattern:
    """p_ij = +1 and p_ji = the edge sign, for each ((i, j), sign)."""
    rows = [[0] * n for _ in range(n)]
    for (i, j), s in signed_edges:
        rows[i][j], rows[j][i] = 1, s
    return SignPattern.from_rows(rows)


# Bipartite graphs, whose cycles are all even, so every condition can fire:
# K_{2,3} and K_{3,3} with every edge negative, and a three-rung ladder
# whose squares have an odd run.
_ALL_EVEN = (
    _edge_signed(5, [((i, j), -1) for i in (0, 1) for j in (2, 3, 4)]),
    _edge_signed(6, [((i, j), -1) for i in (0, 1, 2) for j in (3, 4, 5)]),
    _edge_signed(
        6,
        [((0, 1), 1), ((1, 2), -1), ((3, 4), -1), ((4, 5), -1), ((0, 3), 1), ((1, 4), 1)]
        + [((2, 5), -1)],
    ),
)


@ORACLE_SETTINGS
@given(pattern=st.one_of(linked_cycles(), tree_plus_chords(dense=True)))
@example(pattern=_ALL_EVEN[0])
@example(pattern=_ALL_EVEN[1])
@example(pattern=_ALL_EVEN[2])
def test_r7_matches_run_and_cover_oracle(pattern):
    facts = PatternAnalysis(pattern)
    try:
        kind = facts.shape.kind
    except CycleBudgetExceeded:
        kind = None
    assume(kind is ShapeKind.MULTI_CYCLE_NO_LEAF)
    finding = verdict._r7(facts, None, None, [])
    fired = oracle_r7_fired(facts)
    assert finding.details["conditions_fired"] == fired
    pairs = cycle_structure(facts.graph).path_adjacent_pairs
    distance_ok = all(link % 2 == 1 for (_, _, link) in pairs)
    assert finding.details["distances_odd"] == distance_ok
    assert (finding.conclusion is verdict.Conclusion.DOES_NOT_REQUIRE) == (
        distance_ok and any(f["extends_to_cover"] for f in fired)
    )


@ORACLE_SETTINGS
@given(pattern=st.one_of(tree_plus_chords(dense=True), linked_cycles(), WIDE_LINKED_CYCLES))
def test_undirected_cycles_match_networkx(pattern):
    """Connected graphs up to order 24, dense ones past the cycle budget included."""
    _, graph = build_graphs(pattern)
    try:
        want = oracle_undirected_cycles(graph)
    except CycleBudgetExceeded:
        with pytest.raises(CycleBudgetExceeded):
            graph.cycle_table
        return
    assert graph.cycle_table.cycles == want


def _bouquet(block_sizes: list[int]) -> SignedGraph:
    """Copies of K_{2,k} sharing one pole (vertex 0); each has k(k-1)/2 cycles."""
    edges = []
    n = 1
    for k in block_sizes:
        pole, mids = n, range(n + 1, n + 1 + k)
        edges += [((0, m), 1) for m in mids] + [((pole, m), 1) for m in mids]
        n += 1 + k
    return SignedGraph(_edge_signed(n, edges))


def test_undirected_cycle_budget_boundary():
    # 141*140/2 + 16*15/2 + 5*4/2 = 9870 + 120 + 10
    at_budget = _bouquet([141, 16, 5])
    assert len(at_budget.cycle_table.cycles) == UNDIRECTED_CYCLE_BUDGET
    assert at_budget.cycle_table.cycles == oracle_undirected_cycles(at_budget)
    with pytest.raises(CycleBudgetExceeded):
        _bouquet([141, 16, 5, 2]).cycle_table


def assert_cycle_table_matches_rebuild(graph: SignedGraph) -> None:
    """Recorded masks equal the ones rebuilt from the cycles, in sorted order.

    Bit t of a cycle's negative-edge mask is checked against the sign of its
    edge t in the edge list, and no bit past its last edge may be set.
    """
    table = graph.cycle_table
    assert len(table.negatives) == len(table.masks) == len(table.cycles)
    assert list(table.cycles) == sorted(table.cycles)
    for cyc, negatives, mask in zip(*table):
        assert negatives >> len(cyc) == 0
        for t, sign in enumerate(oracle_cycle_signs(graph, cyc)):
            assert negatives >> t & 1 == (sign < 0), (cyc, t)
        assert mask == sum(1 << v for v in cyc)


@ORACLE_SETTINGS
@given(
    pattern=st.one_of(
        tree_plus_chords(max_n=10, dense=True), linked_cycles(max_n=10), WIDE_LINKED_CYCLES
    )
)
def test_cycle_table_matches_rebuild(pattern):
    """Graphs up to order 24; the search emits the cycles already sorted."""
    assert_cycle_table_matches_rebuild(build_graphs(pattern)[1])


def test_cycle_table_matches_rebuild_on_ladder():
    for entry in json.loads(GOLDEN.read_text())["ladder"]:
        _, graph = build_graphs(parse_pattern("\n".join(entry["rows"])))
        assert len(graph.cycle_table.cycles) > 700
        assert_cycle_table_matches_rebuild(graph)


def test_cycle_table_budget(monkeypatch):
    """K_{2,5} has 10 cycles: at a budget of 10 it lists them, at 9 it raises."""
    from signum import graphs

    monkeypatch.setattr(graphs, "UNDIRECTED_CYCLE_BUDGET", 10)
    assert len(_bouquet([5]).cycle_table.cycles) == 10
    monkeypatch.setattr(graphs, "UNDIRECTED_CYCLE_BUDGET", 9)
    with pytest.raises(CycleBudgetExceeded, match="more than 9"):
        _bouquet([5]).cycle_table


@st.composite
def arc_sets(draw, max_n: int = 40):
    n = draw(st.integers(0, max_n))
    density = draw(st.sampled_from((0.02, 0.05, 0.1, 0.3, 0.7)))
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    arcs = [(i, j) for i in range(n) for j in range(n) if rnd.random() < density]
    return n, arcs


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=arc_sets())
@example(case=(0, []))
@example(case=(6, []))
@example(case=(3, [(0, 0), (1, 1), (2, 2)]))
def test_cover_length_matches_assignment_support(case):
    n, arcs = case
    assert _max_cover(n, arcs) == oracle_cover(n, arcs, include_loops=True)


def test_simple_cycles_example(pat):
    cycles = list(simple_cycles(pat("PAT_EX26")))
    two = sorted(c.vertices for c in cycles if c.length == 2)
    assert two == [(0, 1), (0, 2), (1, 2)]
    assert all(c.sign == 1 for c in cycles if c.length == 2)
    three = {c.vertices: c.sign for c in cycles if c.length == 3}
    assert three == {(0, 1, 2): 1, (0, 2, 1): -1}


def test_simple_cycles_all_positive_triangle(pat):
    three = {c.vertices: c.sign for c in simple_cycles(pat("PAT_XX2")) if c.length == 3}
    assert three == {(0, 1, 2): 1, (0, 2, 1): 1}


def test_two_cycle_sign_rule():
    cycles = list(simple_cycles(SignPattern.from_rows([[0, 1], [1, 0]])))
    assert len(cycles) == 1 and cycles[0].sign == -1


def test_cycle_sign_recomputes(pat):
    p = pat("PAT_TWOCYC81")
    for c in simple_cycles(p):
        prod = 1
        for i, j in c.arcs():
            prod *= p.rows[i][j]
        assert c.sign == prod * (-1) ** (len(c.vertices) - 1)


def test_simple_cycles_budget(pat):
    with pytest.raises(CycleBudgetExceeded):
        list(simple_cycles(pat("PAT_TWOSQ9"), budget=2))
