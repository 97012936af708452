"""Block uniforms and the census tally against the numpy code they replace.

``_rng.block_uniforms`` must give, row for row, exactly the doubles of
``np.random.default_rng((seed, 256 * block + r)).random(k)``: census output
bytes rest on it.  Comparing against ``default_rng`` itself means a change
to numpy's ``SeedSequence`` or ``PCG64`` fails here first.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import signum
from signum import _rng, spectra
from signum.patterns import SignPattern
from signum.spectra import SampleConfig, _tally, sample

# 2**32 splits into two entropy words; 2**130 + 3 is five words, more than
# SeedSequence's pool of four, so it runs the leftover-entropy loop.
SEEDS = [0, 1729, 2**32, 2**64 + 1, 2**130 + 3]
# Blocks 2**24 - 1 and 2**24 hold the last trials below 2**32 and the first
# at it, one entropy word and two; block 2**56 - 1 ends at trial 2**64 - 1.
BLOCKS = [0, 1, 2**24 - 1, 2**24, 2**56 - 1]


def reference(seed: int, block: int, k: int) -> np.ndarray:
    start = _rng._BLOCK * block
    return np.array(
        [np.random.default_rng((seed, start + r)).random(k) for r in range(_rng._BLOCK)]
    ).reshape(_rng._BLOCK, k)


def assert_bits_equal(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("k", [0, 1, 16, 50])
@pytest.mark.parametrize("seed", SEEDS)
def test_uniforms_match_default_rng(seed, k):
    for block in BLOCKS:
        want = reference(seed, block, k)
        assert_bits_equal(_rng.block_uniforms(seed, block, k), want)
        for narrow in (k // 2, 0):  # a prefix of the columns, and none
            assert_bits_equal(_rng.block_uniforms(seed, block, narrow), want[:, :narrow])


def test_uniforms_census_block():
    """A census block drawn narrow is the prefix of the same block drawn wide."""
    wide = _rng.block_uniforms(1729, 1, 12)
    assert_bits_equal(wide, reference(1729, 1, 12))
    assert_bits_equal(_rng.block_uniforms(1729, 1, 5), wide[:, :5])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**140), block=st.integers(0, 2**56 - 1), k=st.integers(0, 40))
def test_uniforms_match_default_rng_anywhere(seed, block, k):
    assert_bits_equal(_rng.block_uniforms(seed, block, k), reference(seed, block, k))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**140),
    block=st.integers(0, 2**56 - 1),
    k=st.integers(0, 40),
    extra=st.integers(0, 20),
)
def test_narrow_draw_is_the_prefix_of_a_wide_one(seed, block, k, extra):
    """The census magnitude cache reads a k-wide block off any wider one."""
    wide = _rng.block_uniforms(seed, block, k + extra)
    assert_bits_equal(_rng.block_uniforms(seed, block, k), wide[:, :k])


def test_negative_seed_is_rejected():
    with pytest.raises(ValueError):
        SampleConfig(seed=-1)


@pytest.mark.parametrize("start", [0, 7, 2**32 - 2])
def test_one_sample_equals_its_row_in_a_block(start):
    """``sample`` builds one generator; a block uses ``block_uniforms``.

    Trials 2**32 - 2 .. 2**32 span two blocks.
    """
    pattern = SignPattern.from_rows([[0, 1, 0], [-1, 0, 1], [0, 1, 0]])
    cfg = SampleConfig(seed=2**40 + 9)
    laws = [(cfg.lo, cfg.hi)]
    support = spectra._support(pattern)
    for t in range(start, start + 3):
        first = t // spectra._BLOCK * spectra._BLOCK
        block = spectra._fill(pattern, support, cfg.seed, laws, first, first + spectra._BLOCK)
        assert sample(pattern, cfg, t).tobytes() == block[t - first].tobytes()


def test_jump_constants_not_built_at_import():
    """Neither the jump constants, the census magnitude cache nor the census pool is built at import."""
    code = (
        "import sys, signum.cli, signum._rng as r, signum.spectra as s;"
        " print(r._jump.cache_info().currsize, len(s._MAGS), s._POOL,"
        " 'concurrent.futures' in sys.modules)"
    )
    src = str(Path(signum.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.split() == ["0", "0", "None", "False"]


def old_tally(keys: np.ndarray, mask: np.ndarray):
    """The row-wise ``np.unique(axis=0)`` tally that ``_tally`` replaced."""
    rows = np.flatnonzero(mask)
    if not len(rows):
        return []
    uniq, first, count = np.unique(
        keys[rows], axis=0, return_index=True, return_counts=True
    )
    order = np.argsort(first)
    return [
        (tuple(int(v) for v in uniq[o]), int(rows[first[o]]), int(count[o]))
        for o in order
    ]


@st.composite
def keys_and_mask(draw):
    """A census record, four ``uint16`` columns, and a mask of its rows."""
    rows = draw(st.integers(0, 300))
    top = draw(st.sampled_from([1, 3, 25, 2**16 - 1]))
    keys = draw(hnp.arrays(np.uint16, (rows, 4), elements=st.integers(0, top)))
    mask = draw(hnp.arrays(np.bool_, rows))
    return keys, mask


@settings(max_examples=200, deadline=None, derandomize=True)
@given(keys_and_mask())
def test_tally_matches_row_unique(case):
    keys, mask = case
    got = _tally(keys, mask)
    assert got == old_tally(keys, mask)
    for key, first, count in got:
        assert all(type(v) is int for v in (*key, first, count))
