"""Sign pattern matrices over {+, -, 0}.

A sign pattern stands for its whole qualitative class: every real matrix
whose entries match it in sign.  This module owns the pattern
representation and text format, validation flags, the inertia-preserving
equivalence transforms (permutation similarity, signature similarity,
negation, transposition), the edge-sign flip transform for tree patterns,
and principal-subpattern search.

Entries are stored as plain ints in {-1, 0, +1}.  Indices are 0-based
throughout the API; positions in error messages and reports are 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence, Union

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
        """Positions (i, j) of nonzero entries, row-major order."""
        return [(i, j) for i in range(self.n) for j in range(self.n) if self.rows[i][j]]

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

    Irreducibility is strong connectivity of the digraph of nonzero entries.
    """
    n = pattern.n
    rows = pattern.rows
    comb_sym = all(
        (rows[i][j] != 0) == (rows[j][i] != 0) for i in range(n) for j in range(i + 1, n)
    )
    zero_diag = all(rows[i][i] == 0 for i in range(n))
    irreducible = _strongly_connected(pattern)
    return PatternFlags(comb_sym, zero_diag, irreducible)


def _strongly_connected(pattern: SignPattern) -> bool:
    n = pattern.n
    if n == 1:
        return True
    fwd = [[j for j in range(n) if pattern.rows[i][j] and i != j] for i in range(n)]
    bwd = [[j for j in range(n) if pattern.rows[j][i] and i != j] for i in range(n)]

    def reach(adj):
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == n

    return reach(fwd) and reach(bwd)


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


def _undirected_support(pattern: SignPattern) -> list[tuple[int, int]]:
    n = pattern.n
    return [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if pattern.rows[i][j] or pattern.rows[j][i]
    ]


def _is_tree_support(pattern: SignPattern) -> bool:
    n = pattern.n
    edges = _undirected_support(pattern)
    if len(edges) != n - 1:
        return False
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in edges:
        ri, rj = find(i), find(j)
        if ri == rj:
            return False
        parent[ri] = rj
    return True


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
    if not (flags.zero_diagonal and _is_tree_support(pattern)):
        raise NotTreePattern("edge-sign flip is defined for tree patterns with zero diagonal")
    rows = [list(r) for r in pattern.rows]
    for i, j in _undirected_support(pattern):
        rows[i][j] = -rows[i][j]
    return SignPattern.from_rows(rows)


def find_principal_subpattern(pattern: SignPattern, query: SignPattern) -> list[tuple[int, ...]]:
    """Contiguous windows [l, l+k) where ``query`` appears as a principal subpattern.

    Windows are the relevant notion for tridiagonal patterns: any
    tridiagonal principal block is contiguous after relabeling.
    """
    k = query.n
    windows = (tuple(range(l, l + k)) for l in range(pattern.n - k + 1))
    return [idx for idx in windows if pattern.principal(idx) == query]

