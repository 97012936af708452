"""The rule battery under the transforms that preserve a pattern's inertia class.

Permutation similarity, signature similarity, negation and transposition
map a qualitative class onto one with the same inertia question (negation
swaps the positive and negative counts), so the overall verdict and the
conclusion of every combinatorial rule R1-R7 must not move.

R8 is left out: it reads the census, and census trial t draws its
magnitudes in the row-major order of the pattern's nonzero positions, so a
relabelled pattern puts different magnitudes on the same arcs and may see
other inertias.  The overall verdict is still compared.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from signum.patterns import (
    Negation,
    PermutationSimilarity,
    SignatureSimilarity,
    SignPattern,
    Transposition,
    apply_equivalence,
    validate,
)
from signum.spectra import SampleConfig
from signum.verdict import analyze

CFG = SampleConfig(trials=64, seed=7)
COMBINATORIAL_RULES = {f"R{k}" for k in range(1, 8)}


@st.composite
def valid_patterns(draw, min_n: int = 2, max_n: int = 8) -> SignPattern:
    """Irreducible, combinatorially symmetric and zero-diagonal: a spanning
    tree plus chords, each arc signed on its own."""
    n = draw(st.integers(min_n, max_n))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    others = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in edges]
    if others:
        edges |= set(draw(st.lists(st.sampled_from(others), max_size=n, unique=True)))
    grid = [[0] * n for _ in range(n)]
    for i, j in edges:
        grid[i][j] = draw(st.sampled_from((-1, 1)))
        grid[j][i] = draw(st.sampled_from((-1, 1)))
    return SignPattern.from_rows(grid)


@st.composite
def patterns_and_ops(draw):
    pattern = draw(valid_patterns())
    n = pattern.n
    op = draw(
        st.one_of(
            st.permutations(range(n)).map(lambda p: PermutationSimilarity(tuple(p))),
            st.lists(st.sampled_from((-1, 1)), min_size=n, max_size=n).map(
                lambda s: SignatureSimilarity(tuple(s))
            ),
            st.just(Negation()),
            st.just(Transposition()),
        )
    )
    return pattern, op


def decision(pattern: SignPattern):
    v = analyze(pattern, cfg=CFG)
    rules = [
        (f.rule_id, f.applicable, f.conclusion)
        for f in v.findings
        if f.rule_id in COMBINATORIAL_RULES
    ]
    return v.overall, rules


@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(patterns_and_ops())
def test_verdict_and_combinatorial_rules_survive_equivalence(case):
    pattern, op = case
    assert validate(pattern).all_ok()
    assert decision(apply_equivalence(pattern, op)) == decision(pattern)
