import itertools

import numpy as np
import pytest

from signum import cycles
from signum.cycles import (
    Matching,
    PatternAnalysis,
    SimpleCycle,
    composite_cycles_of_length,
    composite_signs,
    cover_extension_exists,
    directed_cycle_from_vertices,
    gamma_matchings_from_odd_run,
)
from signum.errors import (
    CycleBudgetExceeded,
    CycleNotEven,
    CycleNotInPattern,
    OrderCapExceeded,
    RunNotOdd,
)
from signum.graphs import MaximalSignedRun, maximal_signed_runs
from signum.patterns import SignPattern


def test_max_composite_examples(pat):
    assert pat("PAT_TWOSQ9").max_composite_length == 8
    assert pat("PAT_TRIPATH6").max_composite_length == 6
    assert pat("PAT_P4").max_composite_length == 4


def brute_max_composite(arcs: set, n: int) -> int:
    """Largest support of a partial permutation on the arcs, a loop (v, v) fixing v."""

    def has_perfect(sub):
        adj = {v: [w for w in sub if (v, w) in arcs] for v in sub}
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
        assert SignPattern.from_rows(rows).max_composite_length == brute_max_composite(arcs, n)


def test_max_composite_counts_loops():
    # E_k counts a loop as a 1-cycle, so two loops make a composite cycle of length 2.
    diag = SignPattern.from_rows([[1, 0], [0, 1]])
    assert diag.max_composite_length == 2


def test_max_composite_length_is_the_top_nonzero_ek():
    """L is the largest k whose E_k has a term: the length-L signs exist, none above L do."""
    rng = np.random.default_rng(31)
    for trial in range(240):
        n = int(rng.integers(1, 9))
        density = (0.15, 0.3, 0.5)[trial % 3]
        loops = trial % 2
        arcs = set()
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if (i != j or loops) and rng.random() < density:
                    arcs.add((i, j))
                    rows[i][j] = int(rng.choice((-1, 1)))
        p = SignPattern.from_rows(rows)
        top = p.max_composite_length
        assert top == brute_max_composite(arcs, n)
        assert bool(composite_signs(p, top)) == (top > 0)
        for k in range(top + 1, n + 1):
            assert composite_signs(p, k) == {}


def test_max_composite_cover_is_valid(pat):
    p = pat("PAT_TWOSQ9")
    parts = PatternAnalysis(p).cover_without(())
    assert sum(part.length for part in parts) == 8
    seen = set()
    for part in parts:
        assert not seen.intersection(part.vertices)
        seen.update(part.vertices)


def test_composite_enumeration_counts(pat):
    p = pat("PAT_P4")
    assert len(list(composite_cycles_of_length(p, 4))) == 1
    p26 = pat("PAT_EX26")
    assert len(list(composite_cycles_of_length(p26, 3))) == 2
    assert len(list(composite_cycles_of_length(p26, 2))) == 3


def test_composite_budget_counts_composites(pat, monkeypatch):
    p = pat("PAT_EX26")
    monkeypatch.setattr(cycles, "COMPOSITE_CYCLE_BUDGET", 2)
    assert len(list(composite_cycles_of_length(p, 3))) == 2
    monkeypatch.setattr(cycles, "COMPOSITE_CYCLE_BUDGET", 1)
    with pytest.raises(CycleBudgetExceeded):
        list(composite_cycles_of_length(p, 3))
    first = composite_cycles_of_length(p, 3)
    assert next(first).sort_key() == ((0, 1, 2), ((0, 1, 2),))
    with pytest.raises(CycleBudgetExceeded):
        next(first)


def top_signs_of(pattern):
    return composite_signs(pattern, pattern.max_composite_length)


def test_sign_set_examples(pat):
    assert sorted(top_signs_of(pat("PAT_EX26"))) == [-1, 1]
    assert list(top_signs_of(pat("PAT_XXEG22"))) == [1]
    assert list(top_signs_of(pat("PAT_XX2"))) == [1]


def test_sign_set_witness_signs(pat):
    signs = top_signs_of(pat("PAT_EX26"))
    assert signs[1].sign == 1
    assert signs[-1].sign == -1
    assert signs[1].length == signs[-1].length == 3


def test_sign_set_order_cap():
    """composite_signs enumerates up to order 16 only."""
    at_cap = SignPattern.from_rows([[0] * 16 for _ in range(16)])
    assert composite_signs(at_cap, 2) == {}
    big = SignPattern.from_rows([[0] * 17 for _ in range(17)])
    for length in (0, 2):
        with pytest.raises(OrderCapExceeded):
            composite_signs(big, length)


def test_cover_extension_cases(pat):
    p82 = pat("PAT_TWOCYC82")
    square = directed_cycle_from_vertices(p82, (0, 1, 2, 3))
    assert cover_extension_exists(p82, square) is True

    p_sq_tri = pat("PAT_SQTRI8")
    triangle = directed_cycle_from_vertices(p_sq_tri, (5, 6, 7))
    assert cover_extension_exists(p_sq_tri, triangle) is False

    p_xx2 = pat("PAT_XX2")
    full = directed_cycle_from_vertices(p_xx2, (0, 1, 2))
    assert cover_extension_exists(p_xx2, full) is True


def test_cover_extension_implies_spanning(pat):
    p = pat("PAT_TWOCYC82")
    square = directed_cycle_from_vertices(p, (0, 1, 2, 3))
    assert cover_extension_exists(p, square)
    assert p.max_composite_length == p.n


def test_cover_extension_rejects_missing_arcs(pat):
    p = pat("PAT_P4")
    with pytest.raises(CycleNotInPattern):
        cover_extension_exists(p, SimpleCycle((0, 2), 1))


@pytest.mark.parametrize("vertices", [(2, -1), (-1, -2), (-4, -3), (3, 4), (4, 3)])
def test_vertex_outside_the_pattern_is_rejected(pat, vertices):
    """A vertex outside 0..n-1 names no arc, even where a negative index would wrap onto one."""
    p = pat("PAT_P4")  # the path 0-1-2-3: rows[2][-1] is rows[2][3], a nonzero entry
    with pytest.raises(CycleNotInPattern):
        directed_cycle_from_vertices(p, vertices)
    with pytest.raises(CycleNotInPattern):
        cover_extension_exists(p, SimpleCycle(tuple(vertices), 1))


def test_cycle_with_a_repeated_vertex_is_rejected(pat):
    with pytest.raises(CycleNotInPattern, match="vertex 2 repeats"):
        directed_cycle_from_vertices(pat("PAT_P4"), (1, 2, 1, 2))


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
        # The pattern with the cycle's rows and columns zeroed.
        rest = SignPattern.from_rows(
            [0 if i < k or j < k else v for j, v in enumerate(row)] for i, row in enumerate(p.rows)
        )
        assert p.max_composite_length == k + rest.max_composite_length
