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
