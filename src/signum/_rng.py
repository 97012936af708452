"""The uniforms of ``default_rng((seed, t)).random(k)`` for a block of trials t at once.

``np.random.default_rng((seed, t))`` hashes its entropy words with
``SeedSequence`` into four 64-bit words, seeds ``PCG64`` with them and
turns each 64-bit output into a double.  Building one generator per trial
costs far more than the draws, so ``block_uniforms`` reproduces the whole
chain bit for bit with array arithmetic over the ``_BLOCK`` trials of one
block:

- ``SeedSequence`` is a fixed sequence of 32-bit hash steps whose
  constants do not depend on the data, so one pass over ``(rows,)`` word
  arrays hashes every row;
- PCG64's ``srandom`` and its XSL-RR output run in 128-bit arithmetic on
  two ``uint64`` halves, with 32-bit limbs for the 64x64 product;
- the state after draw t is ``M^j x + (sum_{i<j} M^i) inc`` for a fixed j,
  so every draw of every row is one affine map of the seeded state.  Those
  constants are built per draw count on first use.

``tests/test_rng.py`` checks the result against ``default_rng`` itself, so
a change to numpy's ``SeedSequence`` or ``PCG64`` shows there first.
"""

from __future__ import annotations

from functools import cache

import numpy as np

# Trials per block.  2**32 is a multiple of it, so no block straddles 2**32.
_BLOCK = 256
_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_POOL = 4  # SeedSequence's default pool size, in 32-bit words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _words(n: int) -> list[int]:
    """The 32-bit entropy words SeedSequence makes of a nonnegative int, low first."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _hasher(const: int, mult: int):
    """SeedSequence's ``hashmix`` with its running constant, over uint32 arrays."""

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = (const * mult) & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
    return out ^ (out >> np.uint32(16))


def _seed_words(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """``SeedSequence(entropy).generate_state(4, uint64)`` row by row.

    ``entropy`` holds one ``(rows,)`` uint32 array per entropy word; the
    result holds one ``(rows,)`` uint64 array per state word.
    """
    zero = np.zeros_like(entropy[0])
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hasher(_INIT_B, _MULT_B)
    out = [hashmix(pool[i % _POOL]).astype(np.uint64) for i in range(8)]
    return [out[2 * j] | (out[2 * j + 1] << np.uint64(32)) for j in range(4)]


def _mul64(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64 bits of the full products x * y of uint64 arrays."""
    m32, s32 = np.uint64(_MASK32), np.uint64(32)
    x0, x1, y0, y1 = x & m32, x >> s32, y & m32, y >> s32
    low, cross_a, cross_b = x0 * y0, x0 * y1, x1 * y0
    mid = (low >> s32) + (cross_a & m32) + (cross_b & m32)
    high = x1 * y1 + (cross_a >> s32) + (cross_b >> s32) + (mid >> s32)
    return high, x * y


def _mul128(xh, xl, yh, yl) -> tuple[np.ndarray, np.ndarray]:
    """(xh, xl) * (yh, yl) mod 2**128, halves as uint64 arrays."""
    high, low = _mul64(xl, yl)
    return high + xh * yl + xl * yh, low


def _add128(xh, xl, yh, yl) -> tuple[np.ndarray, np.ndarray]:
    low = xl + yl
    return xh + yh + (low < xl), low


def _halves(values: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """High and low uint64 halves of 128-bit ints, read-only: ``_jump`` shares them."""
    high = np.array([v >> 64 for v in values], dtype=np.uint64)
    low = np.array([v & _MASK64 for v in values], dtype=np.uint64)
    high.flags.writeable = low.flags.writeable = False
    return high, low


@cache
def _jump(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Halves of ``M^j`` and ``sum_{i<j} M^i`` mod 2**128 for j = 2 .. k + 1.

    ``srandom`` leaves ``x = initstate + inc`` one step before the seeded
    state, and draw t reads the state t + 1 steps after that, so draw t
    sees ``M^(t+2) x + (sum_{i<t+2} M^i) inc``.  One entry per support
    size, so the cache stays small.
    """
    power, total = _PCG_MULT, 1  # j = 1
    powers, totals = [], []
    for _ in range(k):
        total = (total + power) & _MASK128
        power = (power * _PCG_MULT) & _MASK128
        powers.append(power)
        totals.append(total)
    return _halves(powers) + _halves(totals)


def _pcg64_doubles(state: list[np.ndarray], k: int) -> np.ndarray:
    """The first k doubles of PCG64 seeded with each row's four state words."""
    s0, s1, q0, q1 = (w[:, None] for w in state)
    one = np.uint64(1)
    # srandom: inc = (initseq << 1) | 1, state = initstate + inc before a step.
    inc_h, inc_l = (q0 << one) | (q1 >> np.uint64(63)), (q1 << one) | one
    xh, xl = _add128(s0, s1, inc_h, inc_l)
    pow_h, pow_l, sum_h, sum_l = _jump(k)
    hi, lo = _add128(*_mul128(xh, xl, pow_h, pow_l), *_mul128(inc_h, inc_l, sum_h, sum_l))
    # XSL-RR: fold the halves, rotate right by the top six bits.
    folded, rot = hi ^ lo, hi >> np.uint64(58)
    out = (folded >> rot) | (folded << ((np.uint64(64) - rot) & np.uint64(63)))
    return (out >> np.uint64(11)).astype(np.float64) * (1.0 / 9007199254740992.0)


def block_uniforms(seed: int, block: int, k: int) -> np.ndarray:
    """Row r is ``np.random.default_rng((seed, 256 * block + r)).random(k)``, bit for bit.

    ``seed`` is any nonnegative int and ``block`` any int in [0, 2**56), so
    every trial index is below 2**64.  An index below 2**32 is one entropy
    word and a larger one two, its high word ``block >> 24``; no block
    straddles 2**32, so its rows all take one word or all take two, and
    they differ only in the low word.  Row r at width k is the first k
    doubles of row r at any larger width.
    """
    high, low = divmod(block * _BLOCK, 1 << 32)
    entropy = [np.full(_BLOCK, w, dtype=np.uint32) for w in _words(seed)]
    entropy.append(np.arange(low, low + _BLOCK, dtype=np.uint32))
    if high:
        entropy.append(np.full(_BLOCK, high, dtype=np.uint32))
    return _pcg64_doubles(_seed_words(entropy), k)
