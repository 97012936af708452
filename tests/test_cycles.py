import itertools

import numpy as np
import pytest

from signum.cycles import (
    Matching,
    composite_cycles_of_length,
    cover_extension_exists,
    directed_cycle_from_vertices,
    gamma_matchings_from_odd_run,
    max_composite_cover,
    max_composite_length,
    max_composite_sign_set,
)
from signum.errors import (
    CycleBudgetExceeded,
    CycleNotEven,
    CycleNotInPattern,
    OrderCapExceeded,
    RunNotOdd,
)
from signum.graphs import MaximalSignedRun, build_digraph, maximal_signed_runs
from signum.patterns import SignPattern


def digraph_of(pat, name):
    return build_digraph(pat(name))


def test_max_composite_examples(pat):
    assert max_composite_length(digraph_of(pat, "PAT_TWOSQ9")) == 8
    assert max_composite_length(digraph_of(pat, "PAT_TRIPATH6")) == 6
    assert max_composite_length(digraph_of(pat, "PAT_P4")) == 4


def brute_max_composite(arcs: set, n: int) -> int:
    """Largest support of a fixed-point-free partial permutation on the arcs."""

    def has_perfect(sub):
        adj = {v: [w for w in sub if w != v and (v, w) in arcs] for v in sub}
        match: dict = {}

        def augment(v, seen):
            for w in adj[v]:
                if w in seen:
                    continue
                seen.add(w)
                if w not in match or augment(match[w], seen):
                    match[w] = v
                    return True
            return False

        return all(augment(v, set()) for v in sub)

    for size in range(n, 0, -1):
        for sub in itertools.combinations(range(n), size):
            if has_perfect(sub):
                return size
    return 0


def test_max_composite_matches_brute_force():
    rng = np.random.default_rng(17)
    for trial in range(60):
        n = int(rng.integers(2, 7))
        density = (0.15, 0.3, 0.5)[trial % 3]
        arcs = set()
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if i != j and rng.random() < density:
                    arcs.add((i, j))
                    rows[i][j] = 1
        d = build_digraph(SignPattern.from_rows(rows))
        assert max_composite_length(d) == brute_max_composite(arcs, n)


def test_max_composite_excludes_loops():
    diag = SignPattern.from_rows([[1, 0], [0, 1]])
    assert max_composite_length(build_digraph(diag)) == 0


def test_max_composite_cover_is_valid(pat):
    d = digraph_of(pat, "PAT_TWOSQ9")
    cover = max_composite_cover(d)
    assert cover is not None and cover.length == 8
    seen = set()
    for part in cover.parts:
        assert not seen.intersection(part.vertices)
        seen.update(part.vertices)


def test_composite_enumeration_counts(pat):
    d = digraph_of(pat, "PAT_P4")
    assert len(list(composite_cycles_of_length(d, 4))) == 1
    d26 = digraph_of(pat, "PAT_EX26")
    assert len(list(composite_cycles_of_length(d26, 3))) == 2
    assert len(list(composite_cycles_of_length(d26, 2))) == 3


def test_composite_budget_counts_composites(pat):
    d = digraph_of(pat, "PAT_EX26")
    assert len(list(composite_cycles_of_length(d, 3, budget=2))) == 2
    with pytest.raises(CycleBudgetExceeded):
        list(composite_cycles_of_length(d, 3, budget=1))
    first = composite_cycles_of_length(d, 3, budget=1)
    assert next(first).sort_key() == ((0, 1, 2), ((0, 1, 2),))
    with pytest.raises(CycleBudgetExceeded):
        next(first)


def sign_set_of(digraph):
    return max_composite_sign_set(digraph, max_composite_length(digraph))


def test_sign_set_examples(pat):
    assert sign_set_of(digraph_of(pat, "PAT_EX26")).ambiguous
    ss = sign_set_of(digraph_of(pat, "PAT_XXEG22"))
    assert (ss.contains_plus, ss.contains_minus) == (True, False)
    ss2 = sign_set_of(digraph_of(pat, "PAT_XX2"))
    assert (ss2.contains_plus, ss2.contains_minus) == (True, False)


def test_sign_set_witness_signs(pat):
    ss = sign_set_of(digraph_of(pat, "PAT_EX26"))
    assert ss.plus_witness.sign == 1
    assert ss.minus_witness.sign == -1
    assert ss.plus_witness.length == ss.minus_witness.length == 3


def test_sign_set_order_cap():
    big = SignPattern.from_rows([[0] * 17 for _ in range(17)])
    with pytest.raises(OrderCapExceeded):
        sign_set_of(build_digraph(big))


def test_cover_extension_cases(pat):
    d82 = digraph_of(pat, "PAT_TWOCYC82")
    square = directed_cycle_from_vertices(d82, (0, 1, 2, 3))
    assert cover_extension_exists(d82, square) is True

    d_sq_tri = digraph_of(pat, "PAT_SQTRI8")
    triangle = directed_cycle_from_vertices(d_sq_tri, (5, 6, 7))
    assert cover_extension_exists(d_sq_tri, triangle) is False

    d_xx2 = digraph_of(pat, "PAT_XX2")
    full = directed_cycle_from_vertices(d_xx2, (0, 1, 2))
    assert cover_extension_exists(d_xx2, full) is True


def test_cover_extension_implies_spanning(pat):
    d = digraph_of(pat, "PAT_TWOCYC82")
    square = directed_cycle_from_vertices(d, (0, 1, 2, 3))
    assert cover_extension_exists(d, square)
    assert max_composite_length(d) == d.n


def test_cover_extension_rejects_missing_arcs(pat):
    d = digraph_of(pat, "PAT_P4")
    from signum.cycles import SimpleCycle

    with pytest.raises(CycleNotInPattern):
        cover_extension_exists(d, SimpleCycle((0, 2), 1))


def test_cycle_with_a_repeated_vertex_is_rejected(pat):
    from signum.cycles import _pattern_cycle

    with pytest.raises(CycleNotInPattern, match="vertex 2 repeats"):
        directed_cycle_from_vertices(digraph_of(pat, "PAT_P4"), (1, 2, 1, 2))
    with pytest.raises(CycleNotInPattern, match="vertex 2 repeats"):
        _pattern_cycle(pat("PAT_P4"), (1, 2, 1, 2))


def _run_for(signs, start, length):
    return MaximalSignedRun(signs[start], tuple((start + t) % len(signs) for t in range(length)))


def test_gamma_matchings_proof_example():
    # eight-cycle with signs -,-,-,+,+,-,+,+ and the leading run of length 3
    edges = [((t, (t + 1) % 8), s) for t, s in enumerate([-1, -1, -1, 1, 1, -1, 1, 1])]
    runs = maximal_signed_runs([s for _, s in edges], cyclic=True)
    run = next(r for r in runs if r.indices[0] == 0)
    assert run.length == 3
    m_neg, m_pos = gamma_matchings_from_odd_run(edges, run)
    assert 2 * (m_neg.length + m_pos.length) == 8 + 2
    chosen = set(m_neg.edges) | set(m_pos.edges)
    assert chosen == {(0, 1), (2, 3), (3, 4), (5, 6), (7, 0)}


def test_gamma_matchings_four_cycle():
    edges = [((t, (t + 1) % 4), s) for t, s in enumerate([1, -1, 1, -1])]
    run = _run_for([1, -1, 1, -1], 0, 1)
    m_neg, m_pos = gamma_matchings_from_odd_run(edges, run)
    assert 2 * (m_neg.length + m_pos.length) == 6
    assert m_neg.length + m_pos.length == 3


def test_gamma_matchings_wrapped_run():
    # the odd run wraps around the end of the edge list: indices (4, 5, 0)
    signs = [1, -1, -1, -1, 1, 1]
    edges = [((t, (t + 1) % 6), s) for t, s in enumerate(signs)]
    runs = maximal_signed_runs(signs, cyclic=True)
    wrap = next(r for r in runs if r.sign == 1)
    assert wrap.indices == (4, 5, 0) and wrap.length == 3
    m_neg, m_pos = gamma_matchings_from_odd_run(edges, wrap)
    assert 2 * (m_neg.length + m_pos.length) == 6 + 2
    for matching in (m_neg, m_pos):
        seen = set()
        for u, v in matching.edges:
            assert u not in seen and v not in seen
            seen.update((u, v))


def test_gamma_matchings_rejects_odd_cycle():
    edges = [((t, (t + 1) % 3), s) for t, s in enumerate([1, -1, 1])]
    with pytest.raises(CycleNotEven):
        gamma_matchings_from_odd_run(edges, _run_for([1, -1, 1], 0, 1))


def test_gamma_matchings_rejects_even_run():
    edges = [((t, (t + 1) % 6), s) for t, s in enumerate([1, 1, -1, -1, 1, -1])]
    with pytest.raises(RunNotOdd):
        gamma_matchings_from_odd_run(edges, _run_for([1, 1, -1, -1, 1, -1], 0, 2))


def test_matching_rejects_adjacent_edges():
    with pytest.raises(ValueError):
        Matching(((0, 1), (1, 2)))


def _random_even_tailed_unicyclic(rng):
    """Cycle plus pendant paths of even length, all-positive entries."""
    k = int(rng.integers(3, 7))
    tails = [int(rng.integers(0, 3)) * 2 for _ in range(k)]
    n = k + sum(tails)
    rows = [[0] * n for _ in range(n)]

    def connect(a, b):
        rows[a][b] = rows[b][a] = 1

    for t in range(k):
        connect(t, (t + 1) % k)
    nxt = k
    for anchor in range(k):
        prev = anchor
        for _ in range(tails[anchor]):
            connect(prev, nxt)
            prev = nxt
            nxt += 1
    return SignPattern.from_rows(rows), k


def test_unicyclic_extension_lemma():
    rng = np.random.default_rng(23)
    for _ in range(25):
        p, k = _random_even_tailed_unicyclic(rng)
        if p.n > 12:
            continue
        d = build_digraph(p)
        rest = d.without_vertices(set(range(k)))
        assert max_composite_length(d) == k + max_composite_length(rest)
