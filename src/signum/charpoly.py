"""Characteristic polynomials, cycle-sum signs, and sign-variation counts.

The characteristic polynomial of any realization expands over composite
cycles: the coefficient of x^(n-k) is (-1)^k times E_k, the properly
signed sum of all length-k cycles.  Working over the pattern alone
therefore gives each coefficient a symbolic sign (possibly ambiguous),
read off ``cycles.composite_signs``; the determinant sign is E_n's.
Counting sign variations bounds the number of positive and negative real
eigenvalues.
The numeric polynomial of one realization (``char_poly``) is numpy's
product over its eigenvalues, which come from the package's one eigensolve,
``spectra._solve_stack``, as a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cycles import composite_signs
from .errors import ZeroLeading
from .patterns import AmbSign, SignPattern
from .spectra import _solve

__all__ = [
    "CharPoly",
    "Variations",
    "char_poly",
    "ek_sign",
    "descartes",
    "coefficient_sign_threshold",
]


@dataclass(frozen=True)
class CharPoly:
    """Monic polynomial, coefficients ascending: coeffs[k] multiplies x^k."""

    coeffs: tuple[float, ...]

    def descending(self) -> tuple[float, ...]:
        return tuple(reversed(self.coeffs))


@dataclass(frozen=True)
class Variations:
    v_plus: int
    v_minus: int


def char_poly(matrix: np.ndarray) -> CharPoly:
    """Monic characteristic polynomial, multiplied out from the eigenvalues.

    The eigenvalues are ``spectra._solve``'s, the package's one eigensolve
    on a stack of one, so a matrix that is not square raises ValueError,
    one whose norm is not finite (an infinite or NaN entry, or finite
    entries whose norm overflows) raises NonFinite, as in
    ``spectral_profile``, and a LAPACK failure raises EigenFailure.
    ``np.poly`` expands the product of (x - lambda) over them, bit for bit
    what ``np.poly`` of the matrix gives, since it solves with the same
    ``eigvals``; a real matrix has a real polynomial, so the rounding left
    in the imaginary parts is dropped.
    """
    eig = _solve(matrix)[0]
    if not len(eig):  # np.poly of no roots is a scalar
        return CharPoly((1.0,))
    return CharPoly(tuple(float(c) for c in np.real(np.poly(eig))[::-1]))


def ek_sign(pattern: SignPattern, k: int) -> AmbSign:
    """Symbolic sign of E_k, the properly signed sum of length-k cycles.

    ZERO when no length-k composite cycle exists, PLUS or MINUS when all
    agree, AMBIGUOUS when both signs occur.  Loops count as length-1
    cycles.  At k = n this is the determinant sign over the qualitative
    class: PLUS or MINUS certify sign nonsingularity, ZERO sign
    singularity.  Raises OrderCapExceeded above ``cycles.SIGN_ORDER_CAP``.
    """
    if not 1 <= k <= pattern.n:
        raise ValueError(f"k={k} out of range 1..{pattern.n}")
    acc = AmbSign.ZERO
    for sign in composite_signs(pattern, k):
        acc = acc.add(AmbSign.from_int(sign))
    return acc


def coefficient_sign_threshold(coeffs: Sequence[float]) -> float:
    """Relative zero threshold for coefficient signs."""
    return 1e-8 * (1.0 + max(abs(float(c)) for c in coeffs))


def _as_descending_signs(poly) -> list[int]:
    if isinstance(poly, CharPoly):
        coeffs = poly.descending()
    else:
        coeffs = tuple(poly)
    values = [float(c) for c in coeffs]
    tau = coefficient_sign_threshold(values)
    return [0 if abs(v) <= tau else (1 if v > 0 else -1) for v in values]


def _variations(signs: Sequence[int]) -> int:
    nonzero = [s for s in signs if s]
    return sum(1 for a, b in zip(nonzero, nonzero[1:]) if a != b)


def descartes(poly) -> Variations:
    """Sign-variation counts bounding positive and negative real root counts.

    Accepts a CharPoly or a descending coefficient sequence (leading
    first).  v_plus counts variations of the coefficients as given, v_minus
    after substituting x -> -x.  The positive (negative) real root count
    equals the corresponding variation count minus a nonnegative even
    number.
    """
    signs = _as_descending_signs(poly)
    if not signs or signs[0] == 0:
        raise ZeroLeading("leading coefficient is zero")
    degree = len(signs) - 1
    flipped = [s if (degree - t) % 2 == 0 else -s for t, s in enumerate(signs)]
    return Variations(_variations(signs), _variations(flipped))
