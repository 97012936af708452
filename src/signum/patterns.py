"""Sign pattern matrices over {+, -, 0}.

A sign pattern stands for its whole qualitative class: every real matrix
whose entries match it in sign.  This module owns the pattern
representation and text format, validation flags, the inertia-preserving
equivalence transforms (permutation similarity, signature similarity,
negation, transposition), the edge-sign flip transform for tree patterns,
and principal-subpattern search.

A pattern is its own signed digraph: arc i -> j, carrying the sign p_ij,
is the nonzero entry at row i, column j, so every digraph question in the
package reads ``rows`` and no second copy of the arcs is built.  Each
pattern caches its one build of successor bitmasks (``successor_masks``),
their one transpose (``predecessor_masks``, by the package's one bit
transpose ``_transpose``) and their one union table (``successor_union``,
by the one union routine ``_union_table``, a lookup per byte of the mask),
and its maximum composite cycle length (``max_composite_length``, loops
counted as 1-cycles as in E_k), one solve of the package's one assignment
solver ``_max_cover``.  ``_reaches_all``, the one reachability routine,
decides irreducibility here, connectivity in ``graphs``, and so tree
support: a combinatorially symmetric, zero-diagonal pattern is a tree
pattern exactly when it is irreducible with n - 1 undirected edges.

Entries are stored as plain ints in {-1, 0, +1}.  Indices are 0-based
throughout the API, and so are the vertex lists in a verdict's rule details
and witness details.  Error messages, the verdict's shape (its cycles and
leaves) and the ``cycles:`` line of ``explain`` number vertices from 1, and
R4's block positions are 1-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Iterable, Sequence, Union

import numpy as np

from .errors import (
    DimensionMismatch,
    NonSquare,
    NotCombinatoriallySymmetric,
    NotTreePattern,
    RaggedRows,
    UnknownToken,
)

__all__ = [
    "AmbSign",
    "SignPattern",
    "PatternFlags",
    "PermutationSimilarity",
    "SignatureSimilarity",
    "Negation",
    "Transposition",
    "EquivalenceOp",
    "parse_pattern",
    "validate",
    "apply_equivalence",
    "p_minus",
    "find_principal_subpattern",
]

_TOKEN_TO_INT = {"+": 1, "-": -1, "0": 0}
_INT_TO_TOKEN = {1: "+", -1: "-", 0: "0"}


class AmbSign(Enum):
    """Sign of a symbolic sum, where opposite contributions blur to AMBIGUOUS."""

    MINUS = "-"
    ZERO = "0"
    PLUS = "+"
    AMBIGUOUS = "#"

    @classmethod
    def from_int(cls, value: int) -> "AmbSign":
        return {1: cls.PLUS, -1: cls.MINUS, 0: cls.ZERO}[int(np.sign(value))]

    def add(self, other: "AmbSign") -> "AmbSign":
        """Sign of a sum: (+) + (-) is ambiguous, zero is neutral."""
        if AmbSign.AMBIGUOUS in (self, other):
            return AmbSign.AMBIGUOUS
        if self is AmbSign.ZERO:
            return other
        if other is AmbSign.ZERO:
            return self
        return self if self is other else AmbSign.AMBIGUOUS


@dataclass(frozen=True)
class SignPattern:
    """Square grid of entry signs; immutable and hashable."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.rows)
        if not n:
            raise NonSquare("a pattern needs at least one row")
        for r in self.rows:
            if len(r) != n:
                raise NonSquare(f"got {len(r)} columns in a pattern of {n} rows")
            if any(v not in (-1, 0, 1) for v in r):
                raise ValueError("entries must be -1, 0, or +1")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "SignPattern":
        return cls(tuple(tuple(int(v) for v in row) for row in rows))

    @property
    def n(self) -> int:
        return len(self.rows)

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.rows[i][j]

    def to_array(self) -> np.ndarray:
        return np.array(self.rows, dtype=np.int8)

    def to_text(self) -> str:
        return "\n".join(" ".join(_INT_TO_TOKEN[v] for v in row) for row in self.rows)

    def support(self) -> list[tuple[int, int]]:
        """Positions (i, j) of nonzero entries, row-major order: the digraph's arcs."""
        return [(i, j) for i in range(self.n) for j in range(self.n) if self.rows[i][j]]

    @cached_property
    def successor_masks(self) -> tuple[int, ...]:
        """Bitmask of each vertex's successors in the digraph, loops left out.

        Bit j of entry i is set when p_ij != 0 and i != j.  The one place
        successor masks are built.
        """
        return tuple(
            sum(1 << j for j, v in enumerate(row) if v) & ~(1 << i)
            for i, row in enumerate(self.rows)
        )

    @cached_property
    def predecessor_masks(self) -> tuple[int, ...]:
        """``successor_masks`` transposed; equal to them exactly when p_ij != 0 iff p_ji != 0."""
        return tuple(_transpose(self.successor_masks, self.n))

    @cached_property
    def successor_union(self) -> Callable[[int], int]:
        """The union of ``successor_masks`` over a vertex mask: the successors of the set."""
        return _union_table(self.successor_masks)

    @cached_property
    def max_composite_length(self) -> int:
        """Largest k with a composite cycle of length k, loops counting as 1-cycles.

        That is the largest k at which E_k, the signed sum over length-k
        composite cycles and the coefficient of x^(n-k) up to sign, has a
        term; E_k is then a nonzero polynomial in the entries, so almost
        every realization has exactly n - k zero eigenvalues.  One solve of
        ``_max_cover`` per pattern, read by the census and the rules alike.
        """
        return len(_max_cover(self.n, self.support()))

    def __reduce__(self):  # pickle the rows alone: a cached union table is a closure
        return SignPattern, (self.rows,)

    def principal(self, indices: Sequence[int]) -> "SignPattern":
        """Principal subpattern on the given (sorted) index list."""
        idx = tuple(indices)
        return SignPattern(tuple(tuple(self.rows[i][j] for j in idx) for i in idx))


@dataclass(frozen=True)
class PatternFlags:
    combinatorially_symmetric: bool
    zero_diagonal: bool
    irreducible: bool

    def all_ok(self) -> bool:
        return self.combinatorially_symmetric and self.zero_diagonal and self.irreducible


@dataclass(frozen=True)
class PermutationSimilarity:
    """Relabeling: entry (i, j) of the result is entry (perm[i], perm[j])."""

    perm: tuple[int, ...]


@dataclass(frozen=True)
class SignatureSimilarity:
    """Conjugation by diag(signs) with signs in {-1, +1}."""

    signs: tuple[int, ...]


@dataclass(frozen=True)
class Negation:
    pass


@dataclass(frozen=True)
class Transposition:
    pass


EquivalenceOp = Union[PermutationSimilarity, SignatureSimilarity, Negation, Transposition]


def parse_pattern(text: str) -> SignPattern:
    """Parse the pattern text format: one row per line, tokens +, -, 0.

    Blank lines and lines starting with ``#`` are ignored.  Raises
    :class:`UnknownToken`, :class:`RaggedRows`, or :class:`NonSquare` with
    1-based positions.
    """
    rows: list[tuple[int, ...]] = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        row = []
        for c, tok in enumerate(tokens, start=1):
            if tok not in _TOKEN_TO_INT:
                raise UnknownToken(f"unknown token {tok!r} at row {len(rows) + 1}, column {c}")
            row.append(_TOKEN_TO_INT[tok])
        rows.append(tuple(row))
    if not rows:
        raise NonSquare("empty pattern text")
    width = len(rows[0])
    for r, row in enumerate(rows, start=1):
        if len(row) != width:
            raise RaggedRows(f"row {r} has {len(row)} tokens, expected {width}")
    if len(rows) != width:
        raise NonSquare(f"{len(rows)} rows but {width} columns")
    return SignPattern(tuple(rows))


def validate(pattern: SignPattern) -> PatternFlags:
    """Compute the structural flags used as preconditions by the rule battery.

    Irreducibility is strong connectivity of the digraph of nonzero entries:
    vertex 0 reaches every vertex along successors and along predecessors.
    The pattern's cached ``predecessor_masks`` agree with its
    ``successor_masks`` exactly when it is combinatorially symmetric, and
    then one pass over its cached ``successor_union`` decides it.
    """
    n = pattern.n
    pred = pattern.predecessor_masks
    comb_sym = pattern.successor_masks == pred
    zero_diag = all(pattern.rows[i][i] == 0 for i in range(n))
    irreducible = _reaches_all(pattern.successor_union, n) and (
        comb_sym or _reaches_all(_union_table(pred), n)
    )
    return PatternFlags(comb_sym, zero_diag, irreducible)


def _reaches_all(step: Callable[[int], int], n: int) -> bool:
    """Whether vertex 0 reaches every vertex of ``range(n)``.

    ``step`` maps a vertex mask to the mask of the vertices one step from
    it, a ``_union_table`` of successor masks.  The one reachability
    routine: ``validate`` and ``SignedGraph.is_connected`` run it over the
    pattern's cached ``successor_union``.
    """
    seen = frontier = 1
    while frontier:
        frontier = step(frontier) & ~seen
        seen |= frontier
    return seen == (1 << n) - 1


def _union_table(rows: Sequence[int]) -> Callable[[int], int]:
    """The function taking a mask to the OR of ``rows[v]`` over its set bits v.

    The package's one union routine.  The rows are cut into chunks of 8,
    and entry m of chunk c's table is the OR of ``rows[8c + b]`` over the
    set bits b of m.  The function looks the mask's low byte up in chunk
    0's table and hands the mask shifted down a byte to the function of
    the later chunks, so a union costs one lookup per 8 vertices, not one
    OR per set bit.  Masks must lie within ``range(len(rows))``.
    """
    union = None
    for c in reversed(range(0, max(len(rows), 1), 8)):
        table = [0]
        for row in rows[c : c + 8]:
            table += [t | row for t in table]
        union = table.__getitem__ if union is None else _chained(table, union)
    return union


def _chained(table: list[int], rest: Callable[[int], int]) -> Callable[[int], int]:
    """The union over one chunk's table for a mask's low byte, and ``rest`` for the bytes above."""

    def union(mask: int) -> int:
        return table[mask & 255] | rest(mask >> 8)

    return union


def _transpose(masks: Sequence[int], width: int) -> list[int]:
    """Bit c of entry v is bit v of ``masks[c]``: the package's one bit-matrix transpose.

    Each mask is unpacked to a row of ``width`` bits, and each column of
    the matrix is packed back into one int, in one pass over the bytes.
    """
    size = (width + 7) // 8
    packed = np.frombuffer(b"".join(m.to_bytes(size, "little") for m in masks), np.uint8)
    bits = np.unpackbits(packed.reshape(len(masks), size), axis=1, count=width, bitorder="little")
    columns = np.packbits(bits.T, axis=1, bitorder="little")
    return [int.from_bytes(column.tobytes(), "little") for column in columns]


def _max_cover(n: int, arcs: Iterable[tuple[int, int]]) -> dict[int, int]:
    """Successor map of one maximum-support composite cycle on vertices 0..n-1.

    An assignment problem: arcs cost -1, loops included, the rest of the
    diagonal is free slack meaning "vertex unused", and every other entry
    costs n + 1, more than any assignment can save, so it is never chosen.
    The cover is the optimum's entries of cost -1.

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


def apply_equivalence(pattern: SignPattern, op: EquivalenceOp) -> SignPattern:
    """Apply one inertia-class-preserving transform."""
    n = pattern.n
    rows = pattern.rows
    if isinstance(op, PermutationSimilarity):
        if len(op.perm) != n:
            raise DimensionMismatch(f"permutation of length {len(op.perm)} on order {n}")
        if sorted(op.perm) != list(range(n)):
            raise DimensionMismatch("permutation is not a bijection of 0..n-1")
        return SignPattern(
            tuple(tuple(rows[op.perm[i]][op.perm[j]] for j in range(n)) for i in range(n))
        )
    if isinstance(op, SignatureSimilarity):
        if len(op.signs) != n:
            raise DimensionMismatch(f"signature of length {len(op.signs)} on order {n}")
        if any(s not in (-1, 1) for s in op.signs):
            raise DimensionMismatch("signature entries must be +1 or -1")
        return SignPattern(
            tuple(
                tuple(op.signs[i] * rows[i][j] * op.signs[j] for j in range(n))
                for i in range(n)
            )
        )
    if isinstance(op, Negation):
        return SignPattern(tuple(tuple(-v for v in row) for row in rows))
    if isinstance(op, Transposition):
        return SignPattern(tuple(tuple(rows[j][i] for j in range(n)) for i in range(n)))
    raise TypeError(f"not an equivalence op: {op!r}")


def p_minus(pattern: SignPattern) -> SignPattern:
    """Flip every undirected edge sign of a tree pattern.

    The sign of edge {i, j} is the sign of p_ij * p_ji; flipping it rotates
    the spectrum of every realization by a quarter turn.  R9 relies on that
    rotation: it reads the flipped pattern's frequencies off the census of
    the pattern itself (``verdict._flipped_frequencies``).  The representative
    is fixed by negating the above-diagonal entry and leaving the entry
    below the diagonal unchanged, so output is deterministic.
    """
    flags = validate(pattern)
    if not flags.combinatorially_symmetric:
        raise NotCombinatoriallySymmetric("edge signs need p_ij != 0 iff p_ji != 0")
    edges = sum(1 for i, j in pattern.support() if i < j)
    # Irreducible means G is connected, here where p_ij != 0 iff p_ji != 0,
    # and a connected graph on n vertices is a tree exactly when it has n - 1 edges.
    if not (flags.zero_diagonal and flags.irreducible and edges == pattern.n - 1):
        raise NotTreePattern("edge-sign flip is defined for tree patterns with zero diagonal")
    return _flip_edges(pattern)


def _flip_edges(pattern: SignPattern) -> SignPattern:
    """``p_minus`` without its checks, for a caller that knows it holds a tree pattern."""
    a = pattern.to_array()
    return SignPattern.from_rows(np.tril(a) - np.triu(a, 1))


def find_principal_subpattern(pattern: SignPattern, query: SignPattern) -> list[tuple[int, ...]]:
    """Contiguous windows [l, l+k) where ``query`` appears as a principal subpattern.

    Windows are the relevant notion for tridiagonal patterns: any
    tridiagonal principal block is contiguous after relabeling.
    """
    k = query.n
    windows = (tuple(range(l, l + k)) for l in range(pattern.n - k + 1))
    return [idx for idx in windows if pattern.principal(idx) == query]

