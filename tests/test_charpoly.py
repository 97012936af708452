import itertools

import numpy as np
import pytest

from conftest import random_tree_pattern
from signum.charpoly import (
    CharPoly,
    char_poly,
    descartes,
    ek_sign,
)
from signum.errors import NonFinite, OrderCapExceeded, ZeroLeading
from signum.patterns import AmbSign, SignPattern
from signum.spectra import SampleConfig, sample


def minor_sum_coeffs(a: np.ndarray) -> list[float]:
    """Characteristic polynomial via principal-minor sums, ascending."""
    n = a.shape[0]
    coeffs = [0.0] * (n + 1)
    coeffs[n] = 1.0
    for k in range(1, n + 1):
        ek = sum(
            np.linalg.det(a[np.ix_(idx, idx)])
            for idx in itertools.combinations(range(n), k)
        )
        coeffs[n - k] = (-1) ** k * ek
    return coeffs


def test_char_poly_examples(pat):
    b = np.array([[0, 1, -1], [-1, 0, 1], [1, -1, 0]], float)
    got = char_poly(b).coeffs
    assert np.allclose(got, [0, 3, 0, 1], atol=1e-9)

    b4 = np.array([[0, 1, 0, 0], [1, 0, -1, 0], [0, 10, 0, 1], [0, 0, 4, 0]], float)
    assert np.allclose(char_poly(b4).coeffs, [4, 0, 5, 0, 1], atol=1e-8)

    assert char_poly(np.zeros((2, 2))).coeffs == (0.0, 0.0, 1.0)
    assert char_poly(np.zeros((0, 0))).coeffs == (1.0,)


def test_char_poly_against_minor_sums():
    rng = np.random.default_rng(3)
    for _ in range(40):
        n = int(rng.integers(1, 8))
        a = rng.normal(size=(n, n)) * 10 ** rng.uniform(-1, 1)
        got = np.array(char_poly(a).coeffs)
        want = np.array(minor_sum_coeffs(a))
        scale = 1 + np.abs(want).max()
        assert np.allclose(got, want, atol=1e-9 * scale)


def test_char_poly_rejects_nonfinite():
    with pytest.raises(NonFinite):
        char_poly(np.array([[np.nan, 0], [0, 1.0]]))
    with pytest.raises(NonFinite):
        char_poly(np.array([[0.0, np.inf], [1.0, 0.0]]))
    # Finite entries, but a norm that overflows, as in spectral_profile.
    with pytest.raises(NonFinite):
        char_poly(np.array([[0.0, 1e300], [-1e300, 0.0]]))


def test_char_poly_is_np_poly_of_the_matrix_bit_for_bit():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        a = rng.normal(size=(n, n)) * 10 ** rng.uniform(-3, 3, size=(n, n))
        want = tuple(float(c) for c in np.real(np.poly(a))[::-1])
        assert np.array(char_poly(a).coeffs).tobytes() == np.array(want).tobytes()
    assert char_poly(np.zeros((0, 0))).coeffs == (1.0,)


def test_ek_sign_examples(pat):
    assert ek_sign(pat("PAT_EX26"), 2) is AmbSign.PLUS
    assert ek_sign(pat("PAT_EX26"), 3) is AmbSign.AMBIGUOUS
    # even-order tree: no odd-length composite cycles at all
    assert ek_sign(pat("PAT_P6"), 3) is AmbSign.ZERO
    assert ek_sign(pat("PAT_P6"), 5) is AmbSign.ZERO
    assert ek_sign(pat("PAT_P4"), 4) is AmbSign.PLUS


def test_ek_sign_counts_loops():
    diag = SignPattern.from_rows([[1, 0], [0, 1]])
    assert ek_sign(diag, 1) is AmbSign.PLUS
    assert ek_sign(diag, 2) is AmbSign.PLUS
    mixed = SignPattern.from_rows([[1, 0], [0, -1]])
    assert ek_sign(mixed, 1) is AmbSign.AMBIGUOUS
    assert ek_sign(mixed, 2) is AmbSign.MINUS


def test_ek_sign_cap():
    """ek_sign shares composite_signs' cap: order 16 is allowed, 17 is not."""
    at_cap = SignPattern.from_rows([[0] * 16 for _ in range(16)])
    assert ek_sign(at_cap, 2) is AmbSign.ZERO
    big = SignPattern.from_rows([[0] * 17 for _ in range(17)])
    with pytest.raises(OrderCapExceeded):
        ek_sign(big, 2)


def test_descartes_recorded_cases():
    assert (descartes([1, 0, 1, 1]).v_plus, descartes([1, 0, 1, 1]).v_minus) == (0, 1)
    assert (descartes([1, 0, 1, -1]).v_plus, descartes([1, 0, 1, -1]).v_minus) == (1, 0)
    # degree-6 polynomial in even powers with negative lower coefficients
    v = descartes([1, 0, -1, 0, -1, 0, -1])
    assert (v.v_plus, v.v_minus) == (1, 1)


def test_descartes_charpoly_input():
    v = descartes(CharPoly((4.0, 0.0, 5.0, 0.0, 1.0)))
    assert (v.v_plus, v.v_minus) == (0, 0)


def test_descartes_zero_leading():
    with pytest.raises(ZeroLeading):
        descartes([0, 1, 1])


def test_sign_det_examples(pat):
    # E_n is the determinant sign over the qualitative class
    for name, want in (("PAT_XX2", AmbSign.PLUS), ("PAT_XX1", AmbSign.AMBIGUOUS)):
        assert ek_sign(pat(name), pat(name).n) is want
    odd_path = SignPattern.from_rows([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    assert ek_sign(odd_path, 3) is AmbSign.ZERO


def test_tree_pattern_even_power_coefficients():
    rng = np.random.default_rng(31)
    cfg = SampleConfig(trials=1, seed=77)
    for trial in range(30):
        n = int(rng.integers(2, 8))
        p = random_tree_pattern(rng, n)
        mat = sample(p, cfg, index=trial)
        coeffs = char_poly(mat).coeffs
        scale = 1 + max(abs(c) for c in coeffs)
        # nonzero coefficients only share the parity of n
        for j, c in enumerate(coeffs):
            if (n - j) % 2 == 1:
                assert abs(c) <= 1e-8 * scale


def test_ek_sign_matches_sampled_cycle_sums(pat):
    # the properly signed length-k cycle sum equals the sum of principal
    # k-by-k minors, so a symbolic ZERO must vanish numerically and a
    # symbolic PLUS must stay positive on every sample
    cfg = SampleConfig(trials=1, seed=85)

    def numeric_ek(a, k):
        n = a.shape[0]
        return sum(
            np.linalg.det(a[np.ix_(idx, idx)])
            for idx in itertools.combinations(range(n), k)
        )

    p6 = pat("PAT_P6")
    ex26 = pat("PAT_EX26")
    for t in range(20):
        mat = sample(p6, cfg, index=t)
        scale = 1 + np.abs(mat).max() ** 3
        assert ek_sign(p6, 3) is AmbSign.ZERO
        assert abs(numeric_ek(mat, 3)) <= 1e-8 * scale
        mat26 = sample(ex26, cfg, index=t)
        assert ek_sign(ex26, 2) is AmbSign.PLUS
        assert numeric_ek(mat26, 2) > 0


def build_integer_root_poly(rng):
    """Polynomial with known real and complex roots, exact small-integer arithmetic."""
    degree_budget = int(rng.integers(1, 11))
    poly = np.array([1.0])
    pos = 0
    while degree_budget >= 2 and rng.random() < 0.5:
        a = int(rng.integers(-4, 5))
        b = int(rng.integers(1, 5))
        poly = np.polymul(poly, [1.0, -2.0 * a, float(a * a + b * b)])
        degree_budget -= 2
    while degree_budget >= 1:
        r = int(rng.integers(-5, 6))
        while r == 0:
            r = int(rng.integers(-5, 6))
        poly = np.polymul(poly, [1.0, -float(r)])
        pos += r > 0
        degree_budget -= 1
    return poly, pos


def test_positive_root_count_bounded_by_variations():
    rng = np.random.default_rng(101)
    for _ in range(200):
        poly, pos = build_integer_root_poly(rng)
        v = descartes(poly)
        assert pos <= v.v_plus
        assert (v.v_plus - pos) % 2 == 0
