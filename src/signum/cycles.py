"""Directed cycle combinatorics of a sign pattern.

A simple cycle through vertices (i1, ..., ik) carries the sign
(-1)^(k-1) times the product of its arc signs; vertex-disjoint unions of
simple cycles are composite cycles, and the length-n ones are exactly the
nonzero determinant terms.  This module enumerates composite cycles,
finds a maximum composite cycle by an assignment relaxation with zero-cost
self slack (one solver, whose cover gives the maximum length too), tests
whether a cycle extends to a spanning composite cycle, and builds the
alternating matchings used by the even-cycle decision rules.

A composite cycle on a vertex set S is a permutation of S along arcs, so S
carries one exactly when the bipartite graph of arcs inside S (rows to
columns) has a perfect matching; the enumerator and the cover test share
one small augmenting-path matcher over vertex bitmasks.

``PatternAnalysis`` bundles the structural facts the decision rules read
(flags, both graphs, the shape, the path edges, the maximum composite
length and its sign set), each derived once per analysis object.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    CycleBudgetExceeded,
    CycleNotEven,
    CycleNotInPattern,
    OrderCapExceeded,
    RunNotOdd,
    SignMismatch,
)
from .graphs import (
    GraphShape,
    MaximalSignedRun,
    SignedDigraph,
    SignedGraph,
    _bits,
    build_digraph,
    build_graph,
    classify_shape,
    path_edge_signs,
)
from .patterns import PatternFlags, SignPattern, validate

__all__ = [
    "SimpleCycle",
    "CompositeCycle",
    "Matching",
    "SignSet",
    "max_composite_length",
    "max_composite_cover",
    "composite_cycles_of_length",
    "max_composite_sign_set",
    "cover_extension_exists",
    "gamma_matchings_from_odd_run",
    "directed_cycle_from_vertices",
    "PatternAnalysis",
]

SIMPLE_CYCLE_BUDGET = 1_000_000
SIGN_SET_ORDER_CAP = 16


@dataclass(frozen=True)
class SimpleCycle:
    """Directed simple cycle, canonically rotated to start at its minimum vertex.

    A cycle and its reversal are distinct objects; for even lengths they can
    differ in sign.
    """

    vertices: tuple[int, ...]
    sign: int

    @property
    def length(self) -> int:
        return len(self.vertices)

    def arcs(self) -> tuple[tuple[int, int], ...]:
        k = len(self.vertices)
        if k == 1:
            return ((self.vertices[0], self.vertices[0]),)
        return tuple(
            (self.vertices[t], self.vertices[(t + 1) % k]) for t in range(k)
        )


@dataclass(frozen=True)
class CompositeCycle:
    """Vertex-disjoint simple cycles; sign is the product of part signs."""

    parts: tuple[SimpleCycle, ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for part in self.parts:
            for v in part.vertices:
                if v in seen:
                    raise ValueError("composite cycle parts must be vertex-disjoint")
                seen.add(v)

    @property
    def length(self) -> int:
        return sum(p.length for p in self.parts)

    @property
    def sign(self) -> int:
        s = 1
        for p in self.parts:
            s *= p.sign
        return s

    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted(v for p in self.parts for v in p.vertices))

    def sort_key(self) -> tuple:
        return (self.vertices(), tuple(sorted(p.vertices for p in self.parts)))


@dataclass(frozen=True)
class Matching:
    """Pairwise non-adjacent undirected edges."""

    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for i, j in self.edges:
            if i in seen or j in seen:
                raise ValueError("matching edges must be pairwise non-adjacent")
            seen.update((i, j))

    @property
    def length(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class SignSet:
    contains_plus: bool
    contains_minus: bool
    plus_witness: CompositeCycle | None = None
    minus_witness: CompositeCycle | None = None

    @property
    def ambiguous(self) -> bool:
        return self.contains_plus and self.contains_minus


def _canonical_rotation(vertices: Sequence[int]) -> tuple[int, ...]:
    """The rotation starting at the smallest vertex; a repeated vertex raises CycleNotInPattern."""
    if len(set(vertices)) < len(vertices):
        repeated = next(v for t, v in enumerate(vertices) if v in vertices[:t])
        raise CycleNotInPattern(f"vertex {repeated + 1} repeats: a cycle visits each vertex once")
    k = len(vertices)
    start = min(range(k), key=lambda t: vertices[t])
    return tuple(vertices[(start + t) % k] for t in range(k))


def _cycle_sign(sign_of: Callable[[int, int], int], vertices: Sequence[int]) -> int:
    """Cycle sign from ``sign_of(i, j)``, the sign of arc i -> j or 0 when it is absent."""
    k = len(vertices)
    prod = 1
    for t in range(k):
        a = (vertices[t], vertices[(t + 1) % k]) if k > 1 else (vertices[0], vertices[0])
        s = sign_of(*a)
        if not s:
            raise CycleNotInPattern(f"arc {a[0] + 1}->{a[1] + 1} is not in the pattern")
        prod *= s
    return prod * (-1) ** (k - 1)


def directed_cycle_from_vertices(
    digraph: SignedDigraph, vertices: Sequence[int]
) -> SimpleCycle:
    """Build a SimpleCycle from a vertex sequence, checking every arc exists."""
    verts = _canonical_rotation(list(vertices))
    return SimpleCycle(verts, _cycle_sign(lambda i, j: digraph.arc_sign.get((i, j), 0), verts))


def _pattern_cycle(pattern: SignPattern, vertices: Sequence[int]) -> SimpleCycle:
    """``directed_cycle_from_vertices`` read off the pattern's rows, with no digraph built."""
    rows, n = pattern.rows, pattern.n

    def sign_of(i: int, j: int) -> int:
        return rows[i][j] if 0 <= i < n and 0 <= j < n else 0

    verts = _canonical_rotation(list(vertices))
    return SimpleCycle(verts, _cycle_sign(sign_of, verts))


def _max_cover(n: int, arcs: Iterable[tuple[int, int]], include_loops: bool) -> dict[int, int]:
    """Successor map of one maximum-support composite cycle on vertices 0..n-1.

    An assignment problem: arcs cost -1, the diagonal is free slack meaning
    "vertex unused" (a loop costs -1 instead when loops count), and every
    other entry costs n + 1, more than any assignment can save, so it is
    never chosen.  The cover is the optimum's entries of cost -1.

    Solved exactly by Crouse's shortest augmenting path (IEEE TAES 52(4),
    2016), the algorithm of scipy's ``linear_sum_assignment``, making its
    choices: rows join in order, the free columns are listed in reverse,
    and a tie for the shortest path goes to an unassigned column.
    Witnesses depend on which of several optimal covers is found, so these
    choices are part of the output.  The costs are small integers, so the
    arithmetic is exact.
    """
    cost = [[n + 1] * n for _ in range(n)]
    for w in range(n):
        cost[w][w] = 0
    for i, j in arcs:
        if i != j or include_loops:
            cost[i][j] = -1
    u = [0] * n
    v = [0] * n
    path = [-1] * n
    row4col = [-1] * n
    col4row = [-1] * n
    for cur in range(n):
        # One Dijkstra search from row cur over reduced costs, ending at the
        # first unassigned column it settles.
        shortest = [math.inf] * n
        remaining = list(range(n - 1, -1, -1))
        rows_seen, cols_seen = [], []
        i, min_val, sink = cur, 0, -1
        while sink < 0:
            rows_seen.append(i)
            row, base = cost[i], min_val - u[i]
            index, lowest = -1, math.inf
            for it, j in enumerate(remaining):
                r = base + row[j] - v[j]
                if r < shortest[j]:
                    path[j], shortest[j] = i, r
                if shortest[j] < lowest or (shortest[j] == lowest and row4col[j] < 0):
                    lowest, index = shortest[j], it
            min_val = lowest
            j = remaining[index]
            if row4col[j] < 0:
                sink = j
            else:
                i = row4col[j]
            cols_seen.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur] += min_val
        for i in rows_seen[1:]:
            u[i] += min_val - shortest[col4row[i]]
        for j in cols_seen:
            v[j] -= min_val - shortest[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return {i: j for i, j in enumerate(col4row) if cost[i][j] < 0}


def max_composite_length(digraph: SignedDigraph) -> int:
    """Maximum total length of vertex-disjoint directed cycles, loops excluded.

    A composite cycle of length l is a fixed-point-free partial permutation
    supported on l vertices with every arc present, so this is the support
    of an optimal assignment.
    """
    return len(_max_cover(digraph.n, digraph.arc_sign, include_loops=False))


def max_composite_cover(digraph: SignedDigraph) -> CompositeCycle | None:
    """One composite cycle achieving the maximum length, or None if none exist."""
    succ = _max_cover(digraph.n, digraph.arc_sign, include_loops=False)
    parts = []
    seen: set[int] = set()
    for start in sorted(succ):
        if start in seen:
            continue
        cyc = [start]
        v = succ[start]
        while v != start:
            cyc.append(v)
            v = succ[v]
        seen.update(cyc)
        parts.append(directed_cycle_from_vertices(digraph, cyc))
    if not parts:
        return None
    return CompositeCycle(tuple(sorted(parts, key=lambda p: p.vertices)))


def _has_perfect_matching(rows: int, cols: int, succ: Sequence[int]) -> bool:
    """Whether the row vertices match one-to-one onto the column vertices along arcs.

    ``rows`` and ``cols`` are vertex masks of equal size and ``succ[v]`` is
    the mask of v's successors.  Kuhn's augmenting paths, after a greedy
    pick of a free column.
    """
    owner = [-1] * len(succ)
    taken = 0
    seen = 0

    def augment(r: int) -> bool:
        nonlocal seen, taken
        free = succ[r] & cols & ~seen
        while free:
            low = free & -free
            seen |= low
            c = low.bit_length() - 1
            if owner[c] < 0 or augment(owner[c]):
                owner[c] = r
                taken |= low
                return True
            free = succ[r] & cols & ~seen
        return False

    for r in _bits(rows):
        direct = succ[r] & cols & ~taken
        if direct:
            low = direct & -direct
            taken |= low
            owner[low.bit_length() - 1] = r
            continue
        seen = 0
        if not augment(r):
            return False
    return True


def composite_cycles_of_length(
    digraph: SignedDigraph,
    length: int,
    include_loops: bool = False,
    budget: int = SIMPLE_CYCLE_BUDGET,
) -> Iterator[CompositeCycle]:
    """All composite cycles of exactly the given length, each exactly once.

    Yields in increasing ``CompositeCycle.sort_key()`` order.  Vertex sets
    are walked as lexicographic combinations, skipping any without a cycle
    cover.  Inside a set each part starts at the smallest uncovered vertex;
    a path first closes back to its start (a loop only with
    ``include_loops``), then extends through its successors in increasing
    order, and a step is taken only if the vertices left over can still
    complete it (a perfect-matching test).  Every step therefore leads to
    a composite, and ``budget`` counts composites yielded: asking for one
    more raises CycleBudgetExceeded.
    """
    succ = list(digraph.successor_masks)
    if include_loops:
        for i, j, _ in digraph.arcs:
            if i == j:
                succ[i] |= 1 << i
    arc_sign = digraph.arc_sign
    emitted = 0

    def complete(rest: int, parts: tuple[SimpleCycle, ...]) -> Iterator[CompositeCycle]:
        nonlocal emitted
        if not rest:
            emitted += 1
            if emitted > budget:
                raise CycleBudgetExceeded(f"more than {budget} composite cycles")
            yield CompositeCycle(parts)
            return
        start = (rest & -rest).bit_length() - 1
        yield from grow(start, [start], 1, rest ^ (1 << start), parts)

    def grow(
        start: int, path: list[int], prod: int, rest: int, parts: tuple[SimpleCycle, ...]
    ) -> Iterator[CompositeCycle]:
        # The open path runs from start to path[-1]; rest holds the uncovered
        # vertices off the path, and (rest + tail) -> (rest + start) matches.
        tail = path[-1]
        if succ[tail] >> start & 1 and _has_perfect_matching(rest, rest, succ):
            sign = prod * arc_sign[(tail, start)] * (-1) ** (len(path) - 1)
            yield from complete(rest, parts + (SimpleCycle(tuple(path), sign),))
        for w in _bits(succ[tail] & rest):
            if _has_perfect_matching(rest, rest ^ (1 << w) | 1 << start, succ):
                path.append(w)
                yield from grow(start, path, prod * arc_sign[(tail, w)], rest ^ (1 << w), parts)
                path.pop()

    for combo in itertools.combinations(range(digraph.n), length):
        mask = sum(1 << v for v in combo)
        if _has_perfect_matching(mask, mask, succ):
            yield from complete(mask, ())


def max_composite_sign_set(digraph: SignedDigraph, length: int) -> SignSet:
    """Signs occurring among maximum-length composite cycles, with witnesses.

    ``length`` is the digraph's maximum composite length, as
    ``max_composite_length`` gives it; callers usually hold it already.
    Witness choice is deterministic: the first composite of each sign in
    sort-key order (smallest vertex set, then smallest part layout).  The
    enumeration stops once both signs have appeared.
    """
    if digraph.n > SIGN_SET_ORDER_CAP:
        raise OrderCapExceeded(f"sign-set enumeration capped at order {SIGN_SET_ORDER_CAP}")
    if length == 0:
        return SignSet(False, False)
    first: dict[int, CompositeCycle] = {}
    for comp in composite_cycles_of_length(digraph, length):
        first.setdefault(comp.sign, comp)
        if len(first) == 2:
            break
    return SignSet(1 in first, -1 in first, first.get(1), first.get(-1))


def cover_extension_exists(digraph: SignedDigraph, cycle: SimpleCycle) -> bool:
    """Whether some length-n composite cycle contains the given cycle.

    Equivalent to the off-diagonal arcs on the remaining vertices having a
    perfect matching (rows to columns).
    """
    for i, j in cycle.arcs():
        if (i, j) not in digraph.arc_sign:
            raise CycleNotInPattern(f"arc {i + 1}->{j + 1} is not in the pattern")
    remaining = (1 << digraph.n) - 1
    for v in cycle.vertices:
        remaining &= ~(1 << v)
    return _has_perfect_matching(remaining, remaining, digraph.successor_masks)


def gamma_matchings_from_odd_run(
    cycle_edges: Sequence[tuple[tuple[int, int], int]],
    run: MaximalSignedRun,
) -> tuple[Matching, Matching]:
    """Split the alternating near-cover of an even cycle by edge sign.

    Given an even cycle and a maximal constant-sign run of odd length, take
    every other edge inside the run (both ends included), every other edge
    of the complementary path, and the edge closing the cycle.  Only the two
    seams are adjacent pairs, and the seam edges differ in sign, so the
    negative part M1 and positive part M2 are each matchings, with
    2(|M1| + |M2|) = k + 2.
    """
    k = len(cycle_edges)
    if k % 2:
        raise CycleNotEven(f"cycle length {k} is odd")
    if run.length % 2 == 0:
        raise RunNotOdd(f"run length {run.length} is even")
    signs = [s for _, s in cycle_edges]
    for t in run.indices:
        if signs[t] != run.sign:
            raise SignMismatch(f"edge {t} does not carry the run sign")
    r0 = run.indices[0]
    for offset, t in enumerate(run.indices):
        if t != (r0 + offset) % k:
            raise SignMismatch("run indices are not cyclically contiguous")
    length = run.length
    if length < k and signs[(r0 + length) % k] == run.sign:
        raise SignMismatch("run is not maximal: the following edge has the same sign")
    if length < k and signs[(r0 - 1) % k] == run.sign:
        raise SignMismatch("run is not maximal: the preceding edge has the same sign")
    rel = list(range(0, length, 2))
    rel += list(range(length, k - 1, 2))
    rel += [k - 1]
    chosen = [(r0 + t) % k for t in rel]
    neg = tuple(sorted(cycle_edges[t][0] for t in chosen if signs[t] < 0))
    pos = tuple(sorted(cycle_edges[t][0] for t in chosen if signs[t] > 0))
    return Matching(neg), Matching(pos)


@dataclass(frozen=True)
class PatternAnalysis:
    """The structural facts the decision rules read, each derived once.

    Every field is computed on first use and kept on this object only, so
    the rules and witness strategies of one ``analyze`` share them while
    nothing outlives the analysis.  A field that raises (``graph`` on a
    pattern that is not combinatorially symmetric, ``shape`` on a
    disconnected graph, ``path_edges`` off a path, ``sign_set`` above the
    order cap) raises again on every read.
    """

    pattern: SignPattern

    @cached_property
    def flags(self) -> PatternFlags:
        return validate(self.pattern)

    @cached_property
    def digraph(self) -> SignedDigraph:
        return build_digraph(self.pattern)

    @cached_property
    def graph(self) -> SignedGraph:
        return build_graph(self.pattern)

    @cached_property
    def shape(self) -> GraphShape:
        return classify_shape(self.graph)

    @cached_property
    def path_edges(self) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
        return path_edge_signs(self.graph)

    @cached_property
    def max_composite_length(self) -> int:
        return max_composite_length(self.digraph)

    @cached_property
    def sign_set(self) -> SignSet:
        return max_composite_sign_set(self.digraph, self.max_composite_length)
