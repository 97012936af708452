"""The benchmark's workloads: which sign patterns each pass analyzes.

Patterns are generated here, from the workload seed, before any timing.
The program under test only ever sees the resulting ``SignPattern`` objects.

- ``catalog``: the 25 built-in fixtures (orders 3-9), then ``fixtures.verify``
  over the whole catalog.  This is the paper reproduction (``signum
  verify-paper``) plus per-fixture ``analyze``; almost all of its time is
  spent in ``spectra`` on small matrices.  Its patterns do not depend on the
  seed, so its reference outputs hold at every seed.
- ``ladder``: irreducible, combinatorially symmetric, zero-diagonal patterns
  of order 12 whose undirected graph has exactly 2n edges (a random spanning
  tree plus random chords) and whose arcs carry independent random signs.  It is the only workload where ``cycles`` and ``graphs`` do most of
  the work.  The time ``analyze`` takes on such a pattern depends on its
  graph, its cycle signs and even its vertex labelling (which cycle the
  witness search tries first): fresh draws at one order differ by up to 7x,
  so per-seed draws would make a run's time mostly a matter of the seed.
  The patterns are therefore drawn once, from fixed structural seeds, and
  the workload seed applies a random signature similarity (D A D with D a
  diagonal of random signs).  That changes the sign of arcs in every input
  but no cycle sign and no spectrum, so every seed does the same work.
- ``trees``: random labelled paths and random-attach trees at orders 12-24,
  with independent random arc signs.  Matrices are larger and ``analyze``
  runs up to three censuses per pattern (main, R9's flipped pattern, and the
  sampling witness search), so the census is exercised at sizes the catalog
  never reaches.  Fresh draws differ up to 4x in ``analyze`` time (the sign
  runs decide which rules fire and how the witness is found), so these too
  are drawn once and the seed applies a signature similarity.

The ladder and trees patterns are fixed, not hand-picked: copy k of order n
is the k-th draw from the structural seed string, taken in order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from signum import fixtures
from signum.graphs import ShapeKind, build_graphs, classify_shape
from signum.patterns import SignPattern, validate

WORKLOADS = ("catalog", "ladder", "trees")
DEFAULT_SEED = 1

LADDER_ORDERS = (12,)
LADDER_PER_ORDER = 6
TREE_ORDERS = (12, 16, 20, 24)
TREES_PER_KIND = 2


@dataclass(frozen=True)
class Operation:
    index: int
    label: str
    pattern: SignPattern

    @property
    def edge_count(self) -> int:
        p = self.pattern
        return sum(1 for i in range(p.n) for j in range(i + 1, p.n) if p.rows[i][j])


class GeneratorDrift(Exception):
    """A generated pattern left the family its workload is defined by."""


def _signed(n: int, edges, rng: random.Random) -> SignPattern:
    rows = [[0] * n for _ in range(n)]
    for u, v in edges:
        rows[u][v] = rng.choice((-1, 1))
        rows[v][u] = rng.choice((-1, 1))
    return SignPattern.from_rows(rows)


def _random_tree_edges(n: int, rng: random.Random, path: bool) -> list[tuple[int, int]]:
    """Random-attach tree (or a path) on a random labelling of 0..n-1."""
    order = list(range(n))
    rng.shuffle(order)
    edges = []
    for k in range(1, n):
        u = order[k]
        v = order[k - 1] if path else order[rng.randrange(k)]
        edges.append((min(u, v), max(u, v)))
    return edges


def _ladder_draw(n: int, copy: int) -> SignPattern:
    """Order n, 2n edges: a random spanning tree plus random chords."""
    rng = random.Random(f"signum-ladder-skeleton/{n}/{copy}")
    edges = set(_random_tree_edges(n, rng, path=False))
    chords = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in edges]
    edges.update(rng.sample(chords, 2 * n - len(edges)))
    return _signed(n, sorted(edges), rng)


def _tree_draw(kind: str, n: int, copy: int) -> SignPattern:
    rng = random.Random(f"signum-trees/{kind}/{n}/{copy}")
    return _signed(n, _random_tree_edges(n, rng, path=kind == "path"), rng)


def _signature_similar(pattern: SignPattern, rng: random.Random) -> SignPattern:
    """D P D for a random diagonal D of signs: same cycle signs, same spectra."""
    d = [rng.choice((-1, 1)) for _ in range(pattern.n)]
    return SignPattern.from_rows(
        [[d[i] * d[j] * v for j, v in enumerate(row)] for i, row in enumerate(pattern.rows)]
    )


def _catalog() -> list[Operation]:
    return [
        Operation(k, name, fixtures.fixture(name).pattern)
        for k, name in enumerate(fixtures.fixture_names())
    ]


def _ladder(seed: int) -> list[Operation]:
    rng = random.Random(f"signum-ladder/{seed}")
    ops = []
    for n in LADDER_ORDERS:
        for copy in range(LADDER_PER_ORDER):
            pattern = _signature_similar(_ladder_draw(n, copy), rng)
            ops.append(Operation(len(ops), f"ladder-n{n}-{copy}", pattern))
    return ops


def _trees(seed: int) -> list[Operation]:
    rng = random.Random(f"signum-trees/{seed}")
    ops = []
    for n in TREE_ORDERS:
        for kind in ("path", "tree"):
            for copy in range(TREES_PER_KIND):
                pattern = _signature_similar(_tree_draw(kind, n, copy), rng)
                ops.append(Operation(len(ops), f"{kind}-n{n}-{copy}", pattern))
    return ops


def _guard(workload: str, ops: list[Operation]) -> None:
    for op in ops:
        if not validate(op.pattern).all_ok():
            raise GeneratorDrift(f"{workload} {op.label}: pattern fails validate()")
        if workload == "ladder" and op.edge_count != 2 * op.pattern.n:
            raise GeneratorDrift(f"ladder {op.label}: {op.edge_count} edges, want {2 * op.pattern.n}")
        if workload == "trees":
            kind = classify_shape(build_graphs(op.pattern)[1]).kind
            if kind not in (ShapeKind.PATH, ShapeKind.TREE):
                raise GeneratorDrift(f"trees {op.label}: shape {kind.value}")
            if op.label.startswith("path") and kind is not ShapeKind.PATH:
                raise GeneratorDrift(f"trees {op.label}: shape {kind.value}, want path")


def build(workload: str, seed: int) -> list[Operation]:
    """The operations of one pass, checked against the workload's family."""
    if workload == "catalog":
        ops = _catalog()
    elif workload == "ladder":
        ops = _ladder(seed)
    elif workload == "trees":
        ops = _trees(seed)
    else:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    _guard(workload, ops)
    return ops
