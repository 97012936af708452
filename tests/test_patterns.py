import pickle
import random
from collections import Counter
from typing import Iterator

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from signum.errors import (
    DimensionMismatch,
    NonSquare,
    NotCombinatoriallySymmetric,
    NotTreePattern,
    RaggedRows,
    UnknownToken,
)
from signum.graphs import build_graphs
from signum.patterns import (
    Negation,
    PermutationSimilarity,
    SignPattern,
    SignatureSimilarity,
    Transposition,
    _union_table,
    apply_equivalence,
    find_principal_subpattern,
    p_minus,
    parse_pattern,
    validate,
)

patterns_st = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.sampled_from([-1, 0, 1]), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
).map(SignPattern.from_rows)


def test_parse_smallest_symmetric_path():
    p = parse_pattern("0 +\n+ 0")
    assert p.rows == ((0, 1), (1, 0))


def test_parse_comments_and_blanks():
    p = parse_pattern("# a comment\n0 +\n\n+ 0\n")
    assert p.n == 2


def test_parse_example_pattern(pat):
    text = "0 + -\n- 0 +\n+ - 0"
    assert parse_pattern(text) == pat("PAT_EX26")


def test_parse_unknown_token_position():
    with pytest.raises(UnknownToken, match=r"row 1, column 3"):
        parse_pattern("0 + x\n+ 0 +\n0 + 0")


def test_parse_ragged_rows():
    with pytest.raises(RaggedRows, match=r"row 2"):
        parse_pattern("0 +\n+")


def test_parse_non_square():
    with pytest.raises(NonSquare):
        parse_pattern("0 + 0\n+ 0 +")


def test_order_zero_pattern_rejected():
    """An empty pattern is refused when built, as empty text is when parsed."""
    with pytest.raises(NonSquare):
        SignPattern(())
    with pytest.raises(NonSquare):
        SignPattern.from_rows([])


@given(patterns_st)
def test_text_round_trip(p):
    assert parse_pattern(p.to_text()) == p


def test_validate_flags(pat):
    assert validate(pat("PAT_EX26")).all_ok()
    loops = SignPattern.from_rows([[1, 0], [0, 1]])
    flags = validate(loops)
    assert (flags.combinatorially_symmetric, flags.zero_diagonal, flags.irreducible) == (
        True,
        False,
        False,
    )
    asym = SignPattern.from_rows([[0, 1], [0, 0]])
    flags = validate(asym)
    assert (flags.combinatorially_symmetric, flags.zero_diagonal, flags.irreducible) == (
        False,
        True,
        False,
    )


def test_transposition_involution(pat):
    p4 = pat("PAT_P4")
    assert apply_equivalence(apply_equivalence(p4, Transposition()), Transposition()) == p4


def test_negation_flips_everything(pat):
    p = pat("PAT_EX26")
    q = apply_equivalence(p, Negation())
    assert q.to_array().tolist() == (-p.to_array()).tolist()


def test_permutation_entry_mapping(pat):
    p4 = pat("PAT_P4")
    reversed_perm = PermutationSimilarity((3, 2, 1, 0))
    q = apply_equivalence(p4, reversed_perm)
    assert q[0, 1] == p4[3, 2] == 1


def test_dimension_mismatch():
    p = SignPattern.from_rows([[0, 1], [1, 0]])
    with pytest.raises(DimensionMismatch):
        apply_equivalence(p, PermutationSimilarity((0, 1, 2)))
    with pytest.raises(DimensionMismatch):
        apply_equivalence(p, PermutationSimilarity((0, 0)))
    with pytest.raises(DimensionMismatch):
        apply_equivalence(p, SignatureSimilarity((1, 2)))


def test_p_minus_representative(pat):
    flipped = p_minus(pat("PAT_PMINUS4"))
    assert flipped.rows == ((0, -1, 0, 0), (1, 0, -1, -1), (0, -1, 0, 0), (0, 1, 0, 0))


def test_p_minus_double_flip_preserves_edge_signs(pat):
    p = pat("PAT_PMINUS4")
    twice = p_minus(p_minus(p))
    _, g0 = build_graphs(p)
    _, g2 = build_graphs(twice)
    assert g0.edges == g2.edges


def test_p_minus_two_vertex_path():
    p = SignPattern.from_rows([[0, 1], [1, 0]])
    _, g = build_graphs(p_minus(p))
    assert g.edges == (((0, 1), -1),)


def test_p_minus_rejects_cycles(pat):
    with pytest.raises(NotTreePattern):
        p_minus(pat("PAT_EX26"))
    # A triangle plus an isolated vertex has n - 1 edges but is no tree.
    with pytest.raises(NotTreePattern):
        p_minus(parse_pattern("0 + + 0\n+ 0 + 0\n+ + 0 0\n0 0 0 0"))
    with pytest.raises(NotCombinatoriallySymmetric):
        p_minus(SignPattern.from_rows([[0, 1], [0, 0]]))


def test_p_minus_preserves_support(pat):
    p = pat("PAT_X16")
    q = p_minus(p)
    assert [(i, j) for i, j in p.support()] == [(i, j) for i, j in q.support()]


def test_subpattern_window(pat):
    windows = find_principal_subpattern(pat("PAT_P6"), pat("PAT_P4"))
    assert windows == [(1, 2, 3, 4)]


def test_subpattern_self(pat):
    assert find_principal_subpattern(pat("PAT_P4"), pat("PAT_P4")) == [(0, 1, 2, 3)]


def test_subpattern_too_small(pat):
    assert find_principal_subpattern(pat("PAT_EX26"), pat("PAT_P4")) == []


def test_window_extraction_matches(pat):
    p6, p4 = pat("PAT_P6"), pat("PAT_P4")
    for window in find_principal_subpattern(p6, p4):
        assert p6.principal(window) == p4


def _random_patterns(rng: random.Random, count: int) -> Iterator[SignPattern]:
    """Patterns of orders 1-8 from five families, in turn.

    Symmetric at a random density (connected and disconnected graphs),
    symmetric with n - 1 random edges (trees, and cycles plus an isolated
    part), random trees, asymmetric digraphs, and symmetric graphs with
    loops.
    """
    for k in range(count):
        n = rng.randint(1, 8)
        family = k % 5
        rows = [[0] * n for _ in range(n)]
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        if family == 0:
            density = rng.random()
            edges = [e for e in pairs if rng.random() < density]
        elif family in (1, 4):
            edges = rng.sample(pairs, n - 1)
        elif family == 2:
            edges = [(rng.randrange(v), v) for v in range(1, n)]
        else:
            edges = []
            density = rng.random()
            for i in range(n):
                for j in range(n):
                    if i != j and rng.random() < density:
                        rows[i][j] = rng.choice((-1, 1))
        for i, j in edges:
            rows[i][j], rows[j][i] = rng.choice((-1, 1)), rng.choice((-1, 1))
        if family == 4:
            for v in rng.sample(range(n), rng.randint(1, n)):
                rows[v][v] = rng.choice((-1, 1))
        yield SignPattern.from_rows(rows)


def test_reachability_matches_networkx():
    """Irreducibility, connectivity and tree support against networkx on 2,000 patterns."""
    seen = Counter()
    for p in _random_patterns(random.Random(20261019), 2000):
        digraph = nx.DiGraph()
        digraph.add_nodes_from(range(p.n))
        digraph.add_edges_from((i, j) for i, j in p.support() if i != j)
        flags = validate(p)
        assert flags.irreducible == nx.is_strongly_connected(digraph), p.rows
        if not flags.combinatorially_symmetric:
            seen["asymmetric"] += 1
            with pytest.raises(NotCombinatoriallySymmetric):
                build_graphs(p)
            with pytest.raises(NotCombinatoriallySymmetric):
                p_minus(p)
            continue
        graph = digraph.to_undirected()
        connected = nx.is_connected(graph)
        assert build_graphs(p)[1].is_connected == connected, p.rows
        tree = flags.zero_diagonal and nx.is_tree(graph)
        try:
            p_minus(p)
            accepted = True
        except NotTreePattern:
            accepted = False
        assert accepted == tree, p.rows
        seen["looped" if not flags.zero_diagonal else "tree" if tree else "other"] += 1
        seen["disconnected"] += not connected
        seen["n-1 edge non-tree"] += graph.number_of_edges() == p.n - 1 and not connected
    assert min(seen.values()) > 100, seen


def _union_per_bit(rows, mask: int) -> int:
    """The per-set-bit OR that ``_union_table`` replaced, kept as its oracle."""
    out = 0
    while mask:
        low = mask & -mask
        out |= rows[low.bit_length() - 1]
        mask ^= low
    return out


def test_pattern_pickles_after_its_facts_are_cached():
    """A pattern past order 8 caches a chained union table, which no pickle can hold."""
    p = SignPattern.from_rows([[int(abs(i - j) == 1) for j in range(12)] for i in range(12)])
    assert validate(p).all_ok() and p.successor_union(1) == 2
    copy = pickle.loads(pickle.dumps(p))
    assert copy == p and copy.successor_masks == p.successor_masks


def test_union_table_matches_per_bit_or():
    """Orders 1-40, so every byte boundary, with rows of up to about 1,000 bits.

    Each order is tried with vertex-wide rows (neighbour masks) and with
    wide ones (cycle membership masks), on the empty mask, the full mask,
    every single bit and random masks.
    """
    rnd = random.Random(20261019)
    for n in range(1, 41):
        for width in (n, rnd.randint(900, 1100)):
            rows = [rnd.getrandbits(width) for _ in range(n)]
            union = _union_table(rows)
            masks = [0, (1 << n) - 1, *(1 << v for v in range(n))]
            masks += [rnd.getrandbits(n) & rnd.getrandbits(n) for _ in range(30)]
            for mask in masks:
                assert union(mask) == _union_per_bit(rows, mask), (n, width, mask)


def test_successor_masks_match_support_oracle():
    """``successor_masks`` against the support list on 300 patterns of orders 1-40.

    Each pattern has its own density and, in turn, a symmetric support, an
    arbitrary support, or either with a random diagonal, so loops (which
    the masks leave out) and asymmetric patterns both occur.
    """
    rng = random.Random(20261020)
    seen = Counter()
    for k in range(300):
        n = rng.randint(1, 40)
        density = rng.random()
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if i != j and rng.random() < density:
                    rows[i][j] = rng.choice((-1, 1))
                    if k % 2 == 0:
                        rows[j][i] = rng.choice((-1, 1))
        if k % 4 >= 2:
            for v in range(n):
                rows[v][v] = rng.choice((-1, 0, 1))
        p = SignPattern.from_rows(rows)
        support = p.support()
        want = [0] * n
        for i, j in support:
            if i != j:
                want[i] |= 1 << j
        assert p.successor_masks == tuple(want), p.rows
        symmetric = set(support) == {(j, i) for i, j in support}
        assert validate(p).combinatorially_symmetric == symmetric, p.rows
        seen["loops" if any(rows[v][v] for v in range(n)) else "no loops"] += 1
        seen["symmetric" if symmetric else "asymmetric"] += 1
    assert min(seen.values()) >= 50, seen
