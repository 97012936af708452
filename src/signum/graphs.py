"""The signed undirected graph of a sign pattern, and the DOT text of both graphs.

The signed digraph D, an arc (i, j) for every nonzero entry carrying that
entry's sign, is the pattern itself, so no digraph object is built.  For
combinatorially symmetric patterns the undirected graph G has an edge
{i, j} whose sign is the sign of p_ij * p_ji.  The shape of
G (path, tree, single cycle, unicyclic, ...) routes the decision rules;
this module also computes maximal constant-sign runs along paths and
cycles, leaf-to-cycle distances, path-adjacent cycle pairs, and (the one
place this is decided) the distinct-inertia conditions a cycle meets.

G is a view of the pattern: its ``neighbour_masks`` and their union are
the pattern's cached ``successor_masks`` and ``successor_union``; sign and
degree queries read them and ``negative_masks`` (neighbours across a
negative edge), and the shape, path order and cycle report share one
connectivity answer from ``patterns._reaches_all``.  Every union of bitmask
rows here (the cycle search's flood, the BFS levels, the cycle report's
membership masks) is a ``patterns._union_table`` lookup per 8 vertices.
``SignedGraph.cycle_table`` is the one listing of the undirected cycles,
with their negative-edge and vertex masks: the shape, the cycle report,
the rules and the witness search all read it.  Its cycles are held packed,
as one ``_PackedTuples``: an array of every cycle's vertices and an array of
end offsets, read as a tuple of tuples, so a verdict that keeps them keeps
two arrays rather than one tuple per cycle.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain
from typing import Callable, Iterator, NamedTuple

from .errors import CycleBudgetExceeded, Disconnected, NotCombinatoriallySymmetric
from .patterns import SignPattern, _reaches_all, _transpose, _union_table

__all__ = [
    "SignedGraph",
    "CycleTable",
    "ShapeKind",
    "GraphShape",
    "MaximalSignedRun",
    "CycleStructureReport",
    "build_graphs",
    "classify_shape",
    "maximal_signed_runs",
    "path_edge_signs",
    "cycle_edge_order",
    "cycle_conditions",
    "cycle_structure",
    "digraph_to_dot",
    "graph_to_dot",
]

UNDIRECTED_CYCLE_BUDGET = 10_000


def _narrowest(values: list[int], top: int) -> array:
    """``values``, none above ``top``, in the narrowest unsigned array that holds ``top``."""
    if top < 256:
        # bytes() converts a list of small ints several times faster than array() does.
        return array("B", bytes(values))
    code = next((c for c in "HI" if top >> 8 * array(c).itemsize == 0), "Q")
    return array(code, values)


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class _PackedTuples(Sequence):
    """A read-only tuple of tuples of non-negative ints, held as two arrays.

    Row r is ``items[ends[r - 1]:ends[r]]`` (from 0 for row 0).  Indexing,
    negative indices and slices, iteration, ``==``, ``hash`` and ``repr``
    are the tuple of tuples': a row reads as a new tuple, a slice as a
    tuple of rows, and the sequence equals a tuple or list of the same
    rows.  ``spans``, ``lengths`` and ``take`` read the end offsets and
    build no row.  It is no list, so ``json.dumps`` rejects it.
    """

    items: array
    ends: array

    @classmethod
    def of(cls, rows: Iterable[Iterable[int]]) -> _PackedTuples:
        items: list[int] = []
        ends: list[int] = []
        for row in rows:
            items += row
            ends.append(len(items))
        return cls(_narrowest(items, max(items, default=0)), _narrowest(ends, len(items)))

    def __len__(self) -> int:
        return len(self.ends)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(len(self.ends))[i]))
        r = range(len(self.ends))[i]
        return tuple(self.items[self.ends[r - 1] if r else 0 : self.ends[r]])

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        items = self.items
        return (tuple(items[start:end]) for start, end in self.spans())

    def __eq__(self, other) -> bool:
        if type(other) is _PackedTuples:
            return self.ends == other.ends and self.items == other.items
        if isinstance(other, (tuple, list)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))

    def spans(self) -> Iterator[tuple[int, int]]:
        """Each row's (start, end) in ``items``."""
        return zip(chain((0,), self.ends), self.ends)

    def lengths(self) -> list[int]:
        """Each row's length, the gap between its end offsets."""
        return [end - start for start, end in self.spans()]

    def take(self, rows: Iterable[int]) -> _PackedTuples:
        """The rows at the given indices, in that order, their items copied array to array."""
        items, spans = self.items, list(self.spans())
        out = array(items.typecode)
        out_ends = []
        for r in rows:
            start, end = spans[r]
            out += items[start:end]
            out_ends.append(len(out))
        return _PackedTuples(out, _narrowest(out_ends, len(out)))


class CycleTable(NamedTuple):
    """The simple cycles of a graph with, index for index, their negative-edge and vertex masks.

    Bit t of ``negatives[c]`` is set when the edge from ``cycles[c][t]`` to
    the next vertex around the cycle is negative, and bit v of ``masks[c]``
    is set when v lies on cycle c.  The cycles are packed: ``cycles[c]``
    builds cycle c's tuple, and ``cycles.lengths()`` reads every length
    without one.
    """

    cycles: _PackedTuples
    negatives: tuple[int, ...]
    masks: tuple[int, ...]


@dataclass(frozen=True)
class SignedGraph:
    """The undirected graph of a pattern, loops left out; needs combinatorial symmetry."""

    pattern: SignPattern

    def __post_init__(self) -> None:
        if self.pattern.predecessor_masks != self.pattern.successor_masks:
            raise NotCombinatoriallySymmetric("undirected edge signs need p_ij != 0 iff p_ji != 0")

    @property
    def n(self) -> int:
        return self.pattern.n

    @property
    def neighbour_masks(self) -> tuple[int, ...]:
        """Bitmask of each vertex's neighbours, read by connectivity and every cycle search."""
        return self.pattern.successor_masks

    @property
    def neighbour_union(self) -> Callable[[int], int]:
        """The union of ``neighbour_masks`` over a vertex mask: the neighbours of the set."""
        return self.pattern.successor_union

    @cached_property
    def negative_masks(self) -> tuple[int, ...]:
        """Bitmask of each vertex's neighbours across a negative edge {i, j}: p_ij != p_ji."""
        rows = self.pattern.rows
        return tuple(
            sum(1 << j for j in _bits(adj) if row[j] != rows[j][i])
            for i, (row, adj) in enumerate(zip(rows, self.neighbour_masks))
        )

    @cached_property
    def edges(self) -> tuple[tuple[tuple[int, int], int], ...]:
        """Undirected edges ((i, j), sign) with i < j, in row-major order."""
        rows = self.pattern.rows
        return tuple(
            ((i, j), rows[i][j] * rows[j][i])
            for i, adj in enumerate(self.neighbour_masks)
            for j in _bits(adj >> i + 1 << i + 1)
        )

    @cached_property
    def cycle_table(self) -> CycleTable:
        """Every simple cycle with its negative-edge and vertex masks, in lexicographic order.

        A cycle is written from its smallest vertex s towards the smaller of
        s's two neighbours on it.  A depth-first search from each s steps
        only onto vertices above s and closes a path back to s only when
        its second vertex is below its last, so each cycle comes out once,
        already in that form.  A path steps only onto vertices from which a
        neighbour of s that can still close it is reachable off the path, so
        every step leads to a cycle.  Each path is emitted before its
        extensions, and s and each step go in increasing order, so the
        cycles come out sorted.  The search carries the path's negative-edge
        and vertex masks, so a cycle's masks are recorded as it is emitted.
        Raises CycleBudgetExceeded past UNDIRECTED_CYCLE_BUDGET cycles.
        """
        n = self.n
        adj, neg = self.neighbour_masks, self.negative_masks
        neighbours = self.neighbour_union
        items: list[int] = []
        ends: list[int] = []
        negatives: list[int] = []
        masks: list[int] = []

        def grow(path: list[int], path_neg: int, on_path: int, above: int, closers: int) -> None:
            # closers: neighbours of path[0] above path[1]; only they end a cycle.
            tail = path[-1]
            last = len(path) - 1  # the index of the edge from tail
            if closers >> tail & 1:
                if len(ends) >= UNDIRECTED_CYCLE_BUDGET:
                    raise CycleBudgetExceeded(
                        f"more than {UNDIRECTED_CYCLE_BUDGET} undirected cycles"
                    )
                items.extend(path)
                ends.append(len(items))
                negatives.append(path_neg | (neg[tail] >> path[0] & 1) << last)
                masks.append(on_path)
            free = above & ~on_path
            if not adj[tail] & free:
                return
            # live: vertices off the path that reach a closer off the path.
            live = frontier = closers & ~on_path
            while frontier:
                frontier = neighbours(frontier) & free & ~live
                live |= frontier
            row = neg[tail]
            steps = adj[tail] & live
            while steps:
                low = steps & -steps
                steps ^= low
                w = low.bit_length() - 1
                path.append(w)
                grow(path, path_neg | (row >> w & 1) << last, on_path | low, above, closers)
                path.pop()

        for s in range(n):
            above = ~((2 << s) - 1)
            for first in _bits(adj[s] & above):
                closers = adj[s] & ~((2 << first) - 1)
                if closers:
                    grow([s, first], neg[s] >> first & 1, 1 << s | 1 << first, above, closers)
        cycles = _PackedTuples(_narrowest(items, n - 1), _narrowest(ends, len(items)))
        return CycleTable(cycles, tuple(negatives), tuple(masks))

    def sign_of(self, u: int, v: int) -> int:
        """Sign of the edge {u, v}; raises KeyError when it is not an edge."""
        if not (0 <= u < self.n and 0 <= v < self.n and self.neighbour_masks[u] >> v & 1):
            raise KeyError((min(u, v), max(u, v)))
        return -1 if self.negative_masks[u] >> v & 1 else 1

    def degree(self, v: int) -> int:
        return self.neighbour_masks[v].bit_count()

    def leaves(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.n) if self.degree(v) == 1)

    def negative_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(e for e, s in self.edges if s < 0)

    def positive_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(e for e, s in self.edges if s > 0)

    @cached_property
    def is_connected(self) -> bool:
        return _reaches_all(self.neighbour_union, self.n)


class ShapeKind(Enum):
    PATH = "path"
    TREE = "tree"
    SINGLE_CYCLE = "single_cycle"
    UNICYCLIC = "unicyclic"
    MULTI_CYCLE_NO_LEAF = "multi_cycle_no_leaf"
    OTHER = "other"


@dataclass(frozen=True)
class GraphShape:
    """Kind, cycles (the cycle table's packed list; () for a tree) and leaves of a graph."""

    kind: ShapeKind
    cycles: _PackedTuples | tuple[()] = ()
    leaves: tuple[int, ...] = ()


@dataclass(frozen=True)
class MaximalSignedRun:
    """Maximal block of consecutive equal-sign edges along a traversal."""

    sign: int
    indices: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class CycleStructureReport:
    """Leaf distances and cycle-pair links, cycles numbered as in the graph's ``cycle_table``.

    ``leaf_cycle_distances`` entries are (leaf, cycle, distance).
    ``path_adjacent_pairs`` entries are (cycle_a, cycle_b, edge_count):
    edge_count is the length of the shortest connecting path whose interior
    avoids every cycle vertex.  It is also the unrestricted distance
    between the two vertex sets (see ``cycle_structure``).
    """

    leaf_cycle_distances: tuple[tuple[int, int, int], ...]
    path_adjacent_pairs: tuple[tuple[int, int, int], ...]


def build_graphs(pattern: SignPattern) -> tuple[SignPattern, SignedGraph]:
    """D and G, where the pattern is its own digraph D; G needs combinatorial symmetry."""
    return pattern, SignedGraph(pattern)


def classify_shape(graph: SignedGraph) -> GraphShape:
    """Classify the undirected graph; raises Disconnected otherwise.

    Tree means connected with n-1 edges, a path is a tree of maximum degree
    two, a single cycle has every degree equal to two, unicyclic means
    exactly n edges, and the multi-cycle kind additionally requires that
    there is no leaf.
    """
    if not graph.is_connected:
        raise Disconnected("shape classification needs a connected graph")
    n, m = graph.n, len(graph.edges)
    leaves = graph.leaves()
    if m == n - 1:
        kind = ShapeKind.PATH if all(graph.degree(v) <= 2 for v in range(n)) else ShapeKind.TREE
        return GraphShape(kind, (), leaves)
    cycles = graph.cycle_table.cycles
    if m == n:
        if all(graph.degree(v) == 2 for v in range(n)):
            return GraphShape(ShapeKind.SINGLE_CYCLE, cycles, leaves)
        return GraphShape(ShapeKind.UNICYCLIC, cycles, leaves)
    if not leaves:
        return GraphShape(ShapeKind.MULTI_CYCLE_NO_LEAF, cycles, leaves)
    return GraphShape(ShapeKind.OTHER, cycles, leaves)


def _bits(mask: int) -> Iterator[int]:
    """Set bit positions of a vertex mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def maximal_signed_runs(signs, cyclic: bool) -> list[MaximalSignedRun]:
    """Partition an edge-sign sequence into maximal constant-sign runs.

    With ``cyclic=True`` the first and last runs merge when they agree in
    sign and both signs occur; an all-equal cyclic sequence is one run of
    full length.
    """
    signs = [int(s) for s in signs]
    if not signs:
        return []
    if any(s not in (-1, 1) for s in signs):
        raise ValueError("edge signs must be -1 or +1")
    runs: list[MaximalSignedRun] = []
    start = 0
    for pos in range(1, len(signs) + 1):
        if pos == len(signs) or signs[pos] != signs[start]:
            runs.append(MaximalSignedRun(signs[start], tuple(range(start, pos))))
            start = pos
    if cyclic and len(runs) > 1 and runs[0].sign == runs[-1].sign:
        merged = MaximalSignedRun(runs[0].sign, runs[-1].indices + runs[0].indices)
        runs = [merged] + runs[1:-1]
    return runs


def path_edge_signs(graph: SignedGraph) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
    """Ordered edges and signs along a path graph, from its smallest leaf.

    A path is a connected graph with n - 1 edges and no degree above two,
    which needs no cycle listing, so the shape is not classified here.
    """
    if not graph.is_connected:
        raise Disconnected("edge ordering along a path needs a connected graph")
    if len(graph.edges) != graph.n - 1 or any(graph.degree(v) > 2 for v in range(graph.n)):
        raise ValueError("edge ordering along a path needs a path graph")
    if graph.n == 1:
        return (), ()
    order = [min(graph.leaves())]
    seen = 1 << order[0]
    while len(order) < graph.n:
        # A path vertex has at most one neighbour not yet walked.
        step = graph.neighbour_masks[order[-1]] & ~seen
        seen |= step
        order.append(step.bit_length() - 1)
    edges = tuple((min(a, b), max(a, b)) for a, b in zip(order, order[1:]))
    return edges, tuple(graph.sign_of(*e) for e in edges)


def cycle_edge_order(
    graph: SignedGraph, cycle: tuple[int, ...]
) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
    """Edges and signs around a cycle, in the order the vertices are listed."""
    k = len(cycle)
    edges = tuple(
        (min(cycle[t], cycle[(t + 1) % k]), max(cycle[t], cycle[(t + 1) % k]))
        for t in range(k)
    )
    return edges, tuple(graph.sign_of(*e) for e in edges)


def cycle_conditions(negatives: int, length: int) -> dict[str, bool]:
    """The distinct-inertia conditions of a cycle, read off its negative-edge mask.

    Bit t of ``negatives`` is set when edge t of the cycle is negative, as
    in ``CycleTable.negatives``, and the negative count is its popcount.
    The odd-run condition asks an even cycle of length k for a maximal
    cyclic run of odd length below k, so the cycle must carry both signs.
    Its sign changes, the positions t where edges t - 1 and t differ, are
    the set bits of the mask XOR the mask rotated by one.  Each run's
    length is the gap from one change to the next around the cycle.  As k
    is even, all gaps are even exactly when all changes share one parity,
    so an odd run exists exactly when the changes fall on both parities.
    No run is built.
    """
    k = length
    n_neg = negatives.bit_count()
    odd_run = False
    if k % 2 == 0 and 0 < n_neg < k:
        full = (1 << k) - 1
        changes = negatives ^ ((negatives << 1 | negatives >> (k - 1)) & full)
        # full // 3 sets the even positions 0, 2, ..., k - 2.
        odd_run = changes & full // 3 not in (0, changes)
    return {
        "odd_negative_count": n_neg % 2 == 1,
        "all_negative": n_neg == k,
        "even_length_odd_run": odd_run,
    }


def cycle_structure(graph: SignedGraph) -> CycleStructureReport:
    """Leaf-to-cycle distances and cycle-pair links over the graph's ``cycle_table``.

    A pair of cycles is listed only if some connecting path has all interior
    vertices off every cycle; the reported edge count is minimal among such
    paths.  It is also the unrestricted distance between the two vertex
    sets.  A link of one edge is trivially so, the cycles being disjoint.  A
    longer link's every edge has an end off every cycle, so the edge lies on
    no cycle and is a bridge; every route between the two cycles crosses
    each such bridge, so none is shorter than the link.

    The cycles and their vertex masks come from the graph's
    ``cycle_table`` and the adjacency from its ``neighbour_masks``, so no
    cycle is listed and no adjacency built again here.  Cycles are read as
    bitmasks of their indices: ``on[v]`` marks the cycles through vertex v,
    so its union over a vertex mask gives every cycle that mask touches,
    and ``near[v]``, the union of ``on`` over v's neighbours, marks the
    cycles one edge from v.  ``on`` is the cycle masks transposed as one
    bit matrix, and each union is a ``patterns._union_table`` lookup.
    Each leaf gets one BFS, whose levels name the cycles first touched at
    each distance.  Each cycle with a later disjoint cycle gets one BFS
    stepping only onto vertices off every cycle; the union of ``near`` over
    its level t names the later disjoint cycles first touched at link
    length t + 1.  A cycle with none gets no BFS, and ``near`` is built
    for the first that gets one.  The union of ``on`` over a cycle's mask
    gives the cycles it overlaps.  No pair is tested on its own, so the
    work follows the cycles and the pairs listed.
    """
    if not graph.is_connected:
        raise Disconnected("cycle structure needs a connected graph")
    n = graph.n
    cycles, _, masks = graph.cycle_table
    step = graph.neighbour_union
    on = _transpose(masks, n)
    touching = _union_table(on)
    adjacent = None
    off_cycle = sum(1 << v for v in range(n) if not on[v])
    all_cycles = (1 << len(cycles)) - 1

    leaf_rows = []
    for leaf in graph.leaves():
        dist: dict[int, int] = {}
        pending = all_cycles
        for t, level in enumerate(_bfs_levels(step, 1 << leaf, (1 << n) - 1)):
            touched = touching(level) & pending
            pending ^= touched
            for c in _bits(touched):
                dist[c] = t
        leaf_rows += [(leaf, c, dist[c]) for c in range(len(cycles))]

    pair_rows = []
    for a, va in enumerate(masks):
        # Later cycles sharing no vertex with cycle a.
        pending = all_cycles & ~((2 << a) - 1) & ~touching(va)
        if not pending:
            # The loop below would break at level 0 with nothing linked.
            continue
        if adjacent is None:
            adjacent = _union_table([touching(nbrs) for nbrs in graph.neighbour_masks])
        link: dict[int, int] = {}
        for t, level in enumerate(_bfs_levels(step, va, off_cycle)):
            if not pending:
                break
            # Cycles adjacent to level t of the cycle-avoiding BFS are t + 1 edges away.
            touched = adjacent(level) & pending
            pending ^= touched
            for b in _bits(touched):
                link[b] = t + 1
        pair_rows += [(a, b, link[b]) for b in sorted(link)]
    return CycleStructureReport(tuple(leaf_rows), tuple(pair_rows))


def _bfs_levels(step: Callable[[int], int], sources: int, allowed: int) -> list[int]:
    """Vertex masks at each BFS level from sources, stepping only onto allowed vertices.

    ``step`` maps a vertex mask to the mask of its neighbours.
    """
    levels = []
    seen = frontier = sources
    while frontier:
        levels.append(frontier)
        frontier = step(frontier) & allowed & ~seen
        seen |= frontier
    return levels


def digraph_to_dot(pattern: SignPattern) -> str:
    """Deterministic DOT text of the pattern's digraph, arcs row by row; labels carry the sign."""
    lines = ["digraph pattern {"]
    for v in range(pattern.n):
        lines.append(f"  {v + 1};")
    for i, j in pattern.support():
        label = "+" if pattern.rows[i][j] > 0 else "-"
        lines.append(f'  {i + 1} -> {j + 1} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_dot(graph: SignedGraph) -> str:
    """Deterministic DOT text; negative edges are dashed."""
    lines = ["graph pattern {"]
    for v in range(graph.n):
        lines.append(f"  {v + 1};")
    for (i, j), s in sorted(graph.edges):
        label = "+" if s > 0 else "-"
        style = ', style="dashed"' if s < 0 else ""
        lines.append(f'  {i + 1} -- {j + 1} [label="{label}"{style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
