"""Directed cycle combinatorics of a sign pattern.

The pattern is its own digraph, arc i -> j being the nonzero entry p_ij,
so every function here takes the pattern.

A simple cycle through vertices (i1, ..., ik) carries the sign
(-1)^(k-1) times the product of its arc signs; vertex-disjoint unions of
simple cycles are composite cycles, and the length-n ones are exactly the
nonzero determinant terms.  This module enumerates composite cycles,
reads a maximum composite cycle off the one assignment solver,
``patterns._max_cover`` (whose length the pattern caches as
``SignPattern.max_composite_length``), tests whether a cycle extends to a
spanning composite cycle, and builds the alternating matchings used by
the even-cycle decision rules.

A composite cycle on a vertex set S is a permutation of S along arcs, so S
carries one exactly when the bipartite graph of arcs inside S (rows to
columns) has a perfect matching; the enumerator and the cover test share
one small augmenting-path matcher over vertex bitmasks.

``composite_signs`` is the one answer to which signs the length-k composite
cycles take, loops included: R1, the sign-clash witness, the fixture
checks and ``charpoly.ek_sign`` all read it.

``PatternAnalysis`` bundles the structural facts the decision rules and
witness strategies read (flags, the undirected graph, the shape, the path
edges, the cycle report, the signs at the pattern's maximum composite
length and the covers left over by each cycle tried), each derived once
per analysis object.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import (
    CycleBudgetExceeded,
    CycleNotEven,
    CycleNotInPattern,
    OrderCapExceeded,
    RunNotOdd,
    SignMismatch,
)
from .graphs import (
    CycleStructureReport,
    GraphShape,
    MaximalSignedRun,
    SignedGraph,
    _bits,
    classify_shape,
    cycle_conditions,
    cycle_structure,
    path_edge_signs,
)
from .patterns import PatternFlags, SignPattern, _max_cover, validate

__all__ = [
    "SimpleCycle",
    "CompositeCycle",
    "Matching",
    "composite_cycles_of_length",
    "composite_signs",
    "cover_extension_exists",
    "gamma_matchings_from_odd_run",
    "directed_cycle_from_vertices",
    "PatternAnalysis",
]

COMPOSITE_CYCLE_BUDGET = 1_000_000
SIGN_ORDER_CAP = 16


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


def _canonical_rotation(vertices: Sequence[int]) -> tuple[int, ...]:
    """The rotation starting at the smallest vertex; a repeated vertex raises CycleNotInPattern."""
    if len(set(vertices)) < len(vertices):
        repeated = next(v for t, v in enumerate(vertices) if v in vertices[:t])
        raise CycleNotInPattern(f"vertex {repeated + 1} repeats: a cycle visits each vertex once")
    k = len(vertices)
    start = min(range(k), key=lambda t: vertices[t])
    return tuple(vertices[(start + t) % k] for t in range(k))


def _arc_entry(pattern: SignPattern, i: int, j: int) -> int:
    """The sign p_ij of arc i -> j; raises CycleNotInPattern when the pattern has no such arc.

    An end outside 0..n-1 names no arc: a negative index must not wrap
    around to the end of a row.
    """
    n = pattern.n
    sign = pattern.rows[i][j] if 0 <= i < n and 0 <= j < n else 0
    if not sign:
        raise CycleNotInPattern(f"arc {i + 1}->{j + 1} is not in the pattern")
    return sign


def directed_cycle_from_vertices(pattern: SignPattern, vertices: Sequence[int]) -> SimpleCycle:
    """Build a SimpleCycle from a vertex sequence, checking every arc is in the pattern."""
    verts = _canonical_rotation(list(vertices))
    k = len(verts)
    sign = (-1) ** (k - 1)
    for t in range(k):
        sign *= _arc_entry(pattern, verts[t], verts[(t + 1) % k])
    return SimpleCycle(verts, sign)


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


def composite_cycles_of_length(pattern: SignPattern, length: int) -> Iterator[CompositeCycle]:
    """All composite cycles of exactly the given length, each exactly once.

    Yields in increasing ``CompositeCycle.sort_key()`` order.  Vertex sets
    are walked as lexicographic combinations, skipping any without a cycle
    cover.  Inside a set each part starts at the smallest uncovered vertex;
    a path first closes back to its start (at once, by a loop, for a
    one-vertex part), then extends through its successors in increasing
    order, and a step is taken only if the vertices left over can still
    complete it (a perfect-matching test).  Every step therefore leads to
    a composite, and ``COMPOSITE_CYCLE_BUDGET`` counts composites yielded:
    asking for one more raises CycleBudgetExceeded.
    """
    rows = pattern.rows
    succ = list(pattern.successor_masks)
    for i in range(pattern.n):
        if rows[i][i]:
            succ[i] |= 1 << i
    budget = COMPOSITE_CYCLE_BUDGET
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
            sign = prod * rows[tail][start] * (-1) ** (len(path) - 1)
            yield from complete(rest, parts + (SimpleCycle(tuple(path), sign),))
        for w in _bits(succ[tail] & rest):
            if _has_perfect_matching(rest, rest ^ (1 << w) | 1 << start, succ):
                path.append(w)
                yield from grow(start, path, prod * rows[tail][w], rest ^ (1 << w), parts)
                path.pop()

    for combo in itertools.combinations(range(pattern.n), length):
        mask = sum(1 << v for v in combo)
        if _has_perfect_matching(mask, mask, succ):
            yield from complete(mask, ())


def composite_signs(pattern: SignPattern, length: int) -> dict[int, CompositeCycle]:
    """The signs the length-k composite cycles take, each with its first witness.

    Maps each sign that occurs (+1, -1) to the first composite cycle of
    that sign in sort-key order (smallest vertex set, then smallest part
    layout).  Loops count as length-1 cycles, as they do in the
    characteristic coefficient E_k.  The walk stops once both signs have
    appeared, and length 0, asking for no cycle, gives ``{}``.  Exhaustive,
    so capped at order ``SIGN_ORDER_CAP``.
    """
    if pattern.n > SIGN_ORDER_CAP:
        raise OrderCapExceeded(f"composite-sign enumeration capped at order {SIGN_ORDER_CAP}")
    first: dict[int, CompositeCycle] = {}
    if length:
        for comp in composite_cycles_of_length(pattern, length):
            first.setdefault(comp.sign, comp)
            if len(first) == 2:
                break
    return first


def cover_extension_exists(pattern: SignPattern, cycle: SimpleCycle) -> bool:
    """Whether some length-n composite cycle contains the given cycle.

    Equivalent to the off-diagonal arcs on the remaining vertices having a
    perfect matching (rows to columns).  Raises CycleNotInPattern when an
    arc of the cycle is not in the pattern.
    """
    for i, j in cycle.arcs():
        _arc_entry(pattern, i, j)
    remaining = (1 << pattern.n) - 1
    for v in cycle.vertices:
        remaining &= ~(1 << v)
    return _has_perfect_matching(remaining, remaining, pattern.successor_masks)


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
    the rules and witness strategies of one ``analyze`` share them and none
    outlives the analysis; ``cover_without`` keeps one answer per vertex set
    the same way, and ``censuses`` one ``spectra.census`` record per seed
    and law pair.  Facts of the pattern alone (its masks and
    ``max_composite_length``) are cached on the pattern instead, so every
    analysis and census of that object shares them.  A field that raises
    (``graph`` on a pattern that is not combinatorially symmetric, ``shape``
    and ``cycle_report`` on a disconnected graph, ``path_edges`` off a path,
    ``top_signs`` above the order cap) raises again on every read.
    """

    pattern: SignPattern
    _covers: dict[frozenset[int], tuple[SimpleCycle, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    censuses: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def flags(self) -> PatternFlags:
        return validate(self.pattern)

    @cached_property
    def graph(self) -> SignedGraph:
        return SignedGraph(self.pattern)

    @cached_property
    def shape(self) -> GraphShape:
        return classify_shape(self.graph)

    @cached_property
    def path_edges(self) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
        return path_edge_signs(self.graph)

    @cached_property
    def cycle_report(self) -> CycleStructureReport:
        return cycle_structure(self.graph)

    @cached_property
    def conditions_by_cycle(self) -> tuple[dict[str, bool], ...]:
        """``cycle_conditions`` of each cycle of ``graph.cycle_table``, index for index.

        Shared by R5-R7 and the cycle-driven witness strategy; each distinct
        (negative-edge mask, length) is decided once and its cycles share one
        dict, so a rule that puts a cycle's conditions into its details copies it.
        """
        table = self.graph.cycle_table
        keys = list(zip(table.negatives, table.cycles.lengths()))
        by_key = {key: cycle_conditions(*key) for key in dict.fromkeys(keys)}
        return tuple(map(by_key.__getitem__, keys))

    @cached_property
    def top_signs(self) -> dict[int, CompositeCycle]:
        """``composite_signs`` at the pattern's ``max_composite_length``."""
        return composite_signs(self.pattern, self.pattern.max_composite_length)

    def cover_without(self, vertices: Iterable[int]) -> tuple[SimpleCycle, ...]:
        """The parts of one maximum composite cycle avoiding ``vertices``, solved once per set.

        The assignment runs over the pattern's arcs with neither end in
        ``vertices``, so no smaller pattern is built.
        """
        key = frozenset(vertices)
        if key not in self._covers:
            pattern = self.pattern
            arcs = [(i, j) for i, j in pattern.support() if i not in key and j not in key]
            succ = _max_cover(pattern.n, arcs)
            parts, seen = [], set()
            # Each part starts at its smallest vertex, so the parts come out ordered.
            for start in sorted(succ):
                if start not in seen:
                    cyc = [start]
                    while succ[cyc[-1]] != start:
                        cyc.append(succ[cyc[-1]])
                    seen.update(cyc)
                    parts.append(directed_cycle_from_vertices(pattern, cyc))
            self._covers[key] = tuple(parts)
        return self._covers[key]
