import hashlib
import pickle
import random
from collections import Counter
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signum import fixtures, graphs
from signum.errors import Disconnected, NotCombinatoriallySymmetric
from signum.graphs import (
    ShapeKind,
    _PackedTuples,
    SignedGraph,
    build_graphs,
    classify_shape,
    cycle_edge_order,
    cycle_structure,
    digraph_to_dot,
    graph_to_dot,
    maximal_signed_runs,
    path_edge_signs,
)
from signum.patterns import SignPattern, _transpose, parse_pattern, validate


def test_build_hexagon_edges(pat):
    _, g = build_graphs(pat("PAT_HEX6"))
    assert dict(g.edges) == {
        (0, 1): -1,
        (1, 2): -1,
        (2, 3): -1,
        (3, 4): 1,
        (4, 5): 1,
        (0, 5): 1,
    }


def test_build_example_graphs(pat):
    p = pat("PAT_EX26")
    d, g = build_graphs(p)
    assert d is p  # the pattern is its own digraph
    assert len(d.support()) == 6
    assert [s for _, s in g.edges] == [-1, -1, -1]


def test_build_product_rule():
    _, g = build_graphs(SignPattern.from_rows([[0, 1], [-1, 0]]))
    assert g.edges == (((0, 1), -1),)


def test_build_requires_symmetry():
    with pytest.raises(NotCombinatoriallySymmetric):
        build_graphs(SignPattern.from_rows([[0, 1], [0, 0]]))


def test_shapes(pat):
    cases = {
        "PAT_P6": ShapeKind.PATH,
        "PAT_PMINUS4": ShapeKind.TREE,
        "PAT_XX2": ShapeKind.SINGLE_CYCLE,
        "PAT_TRIPATH6": ShapeKind.UNICYCLIC,
        "PAT_TWOCYC82": ShapeKind.MULTI_CYCLE_NO_LEAF,
    }
    for name, kind in cases.items():
        _, g = build_graphs(pat(name))
        assert classify_shape(g).kind is kind, name


def test_shape_edge_count_invariants(pat):
    for name in ("PAT_P6", "PAT_PMINUS4", "PAT_TRIPATH6", "PAT_UNI61"):
        _, g = build_graphs(pat(name))
        kind = classify_shape(g).kind
        if kind in (ShapeKind.PATH, ShapeKind.TREE):
            assert len(g.edges) == g.n - 1
        if kind in (ShapeKind.UNICYCLIC, ShapeKind.SINGLE_CYCLE):
            assert len(g.edges) == g.n


def test_disconnected_rejected():
    p = SignPattern.from_rows(
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    )
    _, g = build_graphs(p)
    with pytest.raises(Disconnected):
        classify_shape(g)


def test_runs_hexagon_cyclic(pat):
    _, g = build_graphs(pat("PAT_HEX6"))
    shape = classify_shape(g)
    _, signs = cycle_edge_order(g, shape.cycles[0])
    runs = maximal_signed_runs(signs, cyclic=True)
    assert sorted(r.length for r in runs) == [3, 3]
    assert {r.sign for r in runs} == {-1, 1}


def test_runs_path_p6(pat):
    _, g = build_graphs(pat("PAT_P6"))
    _, signs = path_edge_signs(g)
    runs = maximal_signed_runs(signs, cyclic=False)
    assert [r.length for r in runs] == [2, 1, 2]
    assert sum(1 for r in runs if r.length % 2 == 1) == 1


def test_runs_singleton():
    runs = maximal_signed_runs([1], cyclic=False)
    assert len(runs) == 1 and runs[0].length == 1 and runs[0].sign == 1


def test_runs_cyclic_wraparound():
    runs = maximal_signed_runs([1, -1, -1, 1], cyclic=True)
    assert sorted(r.length for r in runs) == [2, 2]
    wrap = next(r for r in runs if r.sign == 1)
    assert wrap.indices == (3, 0)


def test_runs_cyclic_all_equal():
    runs = maximal_signed_runs([-1, -1, -1, -1], cyclic=True)
    assert len(runs) == 1 and runs[0].length == 4


@given(st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=30), st.booleans())
def test_runs_partition_properties(signs, cyclic):
    runs = maximal_signed_runs(signs, cyclic=cyclic)
    assert sum(r.length for r in runs) == len(signs)
    covered = sorted(i for r in runs for i in r.indices)
    assert covered == list(range(len(signs)))
    for a, b in zip(runs, runs[1:]):
        assert a.sign != b.sign
    if cyclic and len(runs) > 1:
        assert runs[0].sign != runs[-1].sign


def test_cycle_structure_leaf_distance(pat):
    _, g = build_graphs(pat("PAT_TRIPATH6"))
    report = cycle_structure(g)
    assert g.cycle_table.cycles == ((0, 1, 2),)
    assert report.leaf_cycle_distances == ((5, 0, 3),)


def test_cycle_structure_pair_distance(pat):
    _, g = build_graphs(pat("PAT_TWOSQ9"))
    report = cycle_structure(g)
    assert len(g.cycle_table.cycles) == 2
    assert report.path_adjacent_pairs == ((0, 1, 2),)


def test_cycle_structure_single_cycle(pat):
    _, g = build_graphs(pat("PAT_XX2"))
    report = cycle_structure(g)
    assert report.leaf_cycle_distances == ()
    assert report.path_adjacent_pairs == ()


@pytest.mark.parametrize(
    "name, tables", [("PAT_XX2", 1), ("PAT_UNI61", 1), ("PAT_TRIPATH6", 1), ("PAT_TWOSQ9", 2)]
)
def test_cycle_structure_builds_link_table_only_for_disjoint_cycles(monkeypatch, pat, name, tables):
    """The cycle-touch table always; the link table only once a cycle has a later disjoint one."""
    built = []
    real = graphs._union_table

    def counted(rows):
        built.append(len(rows))
        return real(rows)

    monkeypatch.setattr(graphs, "_union_table", counted)
    report = cycle_structure(SignedGraph(pat(name)))
    assert len(built) == tables == 1 + bool(report.path_adjacent_pairs)


def test_dot_directed(pat):
    dot = digraph_to_dot(pat("PAT_EX26"))
    assert dot.count("->") == 6
    assert dot == digraph_to_dot(pat("PAT_EX26"))


# sha256 of the directed DOT text of every catalog fixture, in catalog order:
# the export's bytes are part of the CLI's output contract.
CATALOG_DOT_SHA256 = "54aba88e78e250c2502fed58997171c83ba86dee5d63c52022c68361cd134957"


def test_dot_directed_catalog_is_pinned():
    text = "".join(
        digraph_to_dot(fixtures.fixture(name).pattern) for name in fixtures.fixture_names()
    )
    assert len(fixtures.fixture_names()) == 25
    assert hashlib.sha256(text.encode()).hexdigest() == CATALOG_DOT_SHA256


def test_dot_undirected_dashes(pat):
    _, g = build_graphs(pat("PAT_EG06"))
    dot = graph_to_dot(g)
    assert dot.count("--") == 4
    assert dot.count("dashed") == 2


def test_dot_trivial_pattern():
    _, g = build_graphs(parse_pattern("0"))
    dot = graph_to_dot(g)
    assert "--" not in dot


def test_transpose_matches_per_bit_rebuild():
    """Bit c of ``_transpose(masks, n)[v]`` is bit v of ``masks[c]``, across byte boundaries."""
    rnd = random.Random(31)
    for n in (1, 7, 8, 9, 16, 17, 24, 40):
        for count in (0, 1, 5, 1000):
            masks = [rnd.getrandbits(n) for _ in range(count)]
            want = [sum((m >> v & 1) << c for c, m in enumerate(masks)) for v in range(n)]
            assert _transpose(masks, n) == want, (n, count)


def _signed_pattern(n: int, sign: dict[tuple[int, int], int]) -> SignPattern:
    """The symmetric pattern with p_ij = sign and p_ji = +1 for each edge (i, j): sign."""
    rows = [[0] * n for _ in range(n)]
    for (i, j), s in sign.items():
        rows[i][j], rows[j][i] = s, 1
    return SignPattern.from_rows(rows)


def test_sign_queries_match_edge_list_oracle():
    """``sign_of``, ``degree``, ``leaves`` and ``path_edge_signs`` agree with the edge list.

    Seeded random graphs of orders 1-40, every other one a path in random
    vertex order; every vertex pair is queried, and a non-edge, a loop or a
    vertex out of range raises KeyError.
    """
    rnd = random.Random(32)
    for trial in range(60):
        n = rnd.randint(1, 40)
        order = rnd.sample(range(n), n)
        if trial % 2:
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rnd.random() < 0.15]
        else:
            pairs = list(zip(order, order[1:]))
        sign = {(min(u, v), max(u, v)): rnd.choice((-1, 1)) for u, v in pairs}
        g = SignedGraph(_signed_pattern(n, sign))
        for u in range(n):
            for v in range(n):
                if (min(u, v), max(u, v)) in sign:
                    assert g.sign_of(u, v) == sign[min(u, v), max(u, v)]
                else:
                    with pytest.raises(KeyError):
                        g.sign_of(u, v)
        for u, v in ((-1, 0), (0, n), (n, 0)):
            with pytest.raises(KeyError):
                g.sign_of(u, v)
        degree = Counter(v for edge in sign for v in edge)
        assert [g.degree(v) for v in range(n)] == [degree[v] for v in range(n)]
        assert g.leaves() == tuple(v for v in range(n) if degree[v] == 1)
        if not trial % 2:
            walk = order if order[0] <= order[-1] else order[::-1]
            edges = tuple((min(a, b), max(a, b)) for a, b in zip(walk, walk[1:]))
            assert path_edge_signs(g) == (edges, tuple(sign[e] for e in edges))


def _scan_edges(pattern: SignPattern):
    """The pairwise scan that built the edge list before the graph became a view of the pattern."""
    rows = pattern.rows
    edges = []
    for i in range(pattern.n):
        for j in range(i + 1, pattern.n):
            if (rows[i][j] != 0) != (rows[j][i] != 0):
                raise NotCombinatoriallySymmetric(
                    "undirected edge signs need p_ij != 0 iff p_ji != 0"
                )
            if rows[i][j]:
                edges.append(((i, j), rows[i][j] * rows[j][i]))
    return tuple(edges)


def _edge_masks(n: int, edges) -> tuple[int, ...]:
    """Bitmask of each vertex's neighbours across the given edges, one edge at a time."""
    rows = [0] * n
    for i, j in edges:
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return tuple(rows)


def test_graph_is_a_view_of_its_pattern():
    """``SignedGraph(p)`` against the pairwise scan, the per-edge masks and a per-bit transpose.

    Seeded random patterns of orders 1-40, with and without diagonal
    entries, half of them combinatorially symmetric.  The graph raises
    exactly when ``validate`` says the pattern is not combinatorially
    symmetric, and otherwise reads its neighbour rows off the pattern.
    """
    rnd = random.Random(35)
    raised = 0
    for trial in range(300):
        n = rnd.randint(1, 40)
        density = rnd.choice((0.05, 0.2, 0.5))
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if rnd.random() < density:
                    rows[i][j], rows[j][i] = rnd.choice((-1, 1)), rnd.choice((-1, 1))
        if trial % 2 and n > 1:
            # One-sided arcs break combinatorial symmetry.
            for _ in range(rnd.randint(1, 3)):
                i, j = rnd.sample(range(n), 2)
                rows[i][j], rows[j][i] = rnd.choice((-1, 1)), 0
        if trial % 3 == 0:
            for i in range(n):
                rows[i][i] = rnd.choice((-1, 0, 1))
        p = SignPattern.from_rows(rows)
        want = [sum((row[v] != 0 and v != i) << i for i, row in enumerate(rows)) for v in range(n)]
        assert list(p.predecessor_masks) == want
        if not validate(p).combinatorially_symmetric:
            raised += 1
            with pytest.raises(NotCombinatoriallySymmetric):
                _scan_edges(p)
            with pytest.raises(NotCombinatoriallySymmetric):
                SignedGraph(p)
            continue
        g = SignedGraph(p)
        edges = _scan_edges(p)
        assert g.edges == edges
        assert g.neighbour_masks is p.successor_masks
        assert g.neighbour_masks == _edge_masks(n, (e for e, _ in edges))
        assert g.negative_masks == _edge_masks(n, (e for e, s in edges if s < 0))
    assert 100 < raised < 200


# Tuples of non-negative ints, most small like vertex and cycle indices, some
# up to the widest array item.
INT_ROWS = st.lists(
    st.lists(st.one_of(st.integers(0, 300), st.integers(0, 2**64 - 1)), max_size=5).map(tuple),
    max_size=8,
).map(tuple)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(model=INT_ROWS, data=st.data())
def test_packed_tuples_read_as_the_tuple_of_tuples(model, data):
    """A packed list reads as the tuple of tuples it packs: the model here."""
    packed = _PackedTuples.of(model)
    n = len(model)
    assert len(packed) == n and bool(packed) == bool(model)
    assert [packed[i] for i in range(-n, n)] == [model[i] for i in range(-n, n)]
    assert all(type(packed[i]) is tuple for i in range(-n, n))
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            packed[i]
    cuts = [slice(None), slice(None, None, -1)] + [data.draw(st.slices(n)) for _ in range(4)]
    for cut in cuts:
        assert packed[cut] == model[cut] and type(packed[cut]) is tuple
    assert tuple(packed) == model and list(reversed(packed)) == list(reversed(model))
    assert packed == model and model == packed and not packed != model
    assert packed == list(model) and list(model) == packed
    assert packed == _PackedTuples.of(model) and packed == _PackedTuples.of(list(map(list, model)))
    longer = model + ((0,),)
    assert packed != longer and longer != packed and packed != _PackedTuples.of(longer)
    if model:
        # Rows compare as tuples, so lists of lists differ, as they do from the tuple of tuples.
        assert packed != [list(row) for row in model]
        bumped = model[:-1] + (model[-1] + (1,),)
        assert packed != bumped and packed != _PackedTuples.of(bumped)
        assert model[-1] in packed and packed.index(model[-1]) == model.index(model[-1])
    assert packed != "not rows" and packed != {}
    assert hash(packed) == hash(model)
    assert repr(packed) == repr(model) == str(packed)
    assert packed.lengths() == [len(row) for row in model]
    ends = list(accumulate(map(len, model)))
    assert list(packed.spans()) == list(zip([0] + ends, ends))
    rows = data.draw(st.lists(st.integers(-n, n - 1), max_size=10)) if n else []
    taken = packed.take(rows)
    assert type(taken) is _PackedTuples and taken == tuple(model[r] for r in rows)
    for kept in (packed, taken):
        copy = pickle.loads(pickle.dumps(kept))
        assert type(copy) is _PackedTuples and copy == kept and tuple(copy) == tuple(kept)


def test_packed_tuples_empty_and_read_only():
    empty = _PackedTuples.of(())
    assert empty == () and empty == [] and not empty and len(empty) == 0
    assert list(empty) == [] and empty.lengths() == [] and empty[:] == ()
    assert hash(empty) == hash(()) and repr(empty) == "()"
    assert empty.take([]) == () and _PackedTuples.of([(1, 2)]).take([]) == ()
    with pytest.raises(IndexError):
        empty[0]
    with pytest.raises(IndexError):
        _PackedTuples.of([(1, 2)]).take([1])
    packed = _PackedTuples.of([(0, 1, 2), (), (3,)])
    assert packed == ((0, 1, 2), (), (3,)) and packed.lengths() == [3, 0, 1]
    with pytest.raises(AttributeError):
        packed.items = packed.ends
    with pytest.raises(TypeError):
        packed[0] = (1,)


def test_cycle_table_is_packed(pat):
    """The graph's cycle table and the shape hold one packed list, read without rows."""
    facts_graph = SignedGraph(pat("PAT_TWOCYC82"))
    cycles = facts_graph.cycle_table.cycles
    assert type(cycles) is _PackedTuples
    assert cycles == ((0, 1, 2, 3), (4, 5, 6, 7)) and cycles.lengths() == [4, 4]
    assert classify_shape(facts_graph).cycles is cycles
    assert classify_shape(SignedGraph(pat("PAT_P4"))).cycles == ()
