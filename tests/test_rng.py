"""The process's one re-keyed Philox draws, bit for bit, what a fresh
``generator(seed, stream)`` draws, for every stream and every kind of draw
the samplers make, also right after a draw that left the shared state dirty:
a buffered 32-bit half-word, a binomial at another n, or a part-used buffer
of raw 64-bit words."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fbmbt import rng
from fbmbt.fgn import _padded_size, _path_rows, grid_spacing, sample_increments
from fbmbt.rng import StreamKey, generator, keyed

SEED = st.integers(min_value=0, max_value=(1 << 64) - 1)
STREAMS = [getattr(rng, name) for name in dir(rng) if name.startswith("STREAM_")]

# Draws that leave state behind in the generator: a buffered uint32
# half-word, a binomial set up at another n (the buffer part-used too), and
# one raw word of a buffer of four.
DIRTY = {
    "uint32 half-word": lambda g: g.integers(0, 1 << 32, dtype=np.uint32),
    "binomial at another n": lambda g: g.binomial(1000, 0.5),
    "part-used raw buffer": lambda g: g.bit_generator.random_raw(1),
}


def _normal_row(g):
    out = np.empty(37)
    g.standard_normal(out=out)
    return out


# The draws the samplers make: fGn normal rows, the single STREAM_B and
# STREAM_Y normals, the terminal binomial, the walk's raw words and an
# identity instance's bounded integers and uniforms; and 32-bit words,
# which read the buffered half-word.
DRAWS = {
    "normal row": _normal_row,
    "one normal": lambda g: np.float64(g.standard_normal()),
    "binomial": lambda g: g.binomial(257, 0.5),
    "raw words": lambda g: g.bit_generator.random_raw(5),
    "uint32 words": lambda g: g.integers(0, 1 << 32, size=3, dtype=np.uint32),
    "bounded integers": lambda g: np.array([g.integers(4, 21), g.integers(0, 1 << 20)]),
    "uniforms": lambda g: np.array([g.uniform(0.05, 0.48), g.uniform(0.2, 1.5)]),
}


def _bits(a) -> bytes:
    return np.asarray(a).tobytes()


def test_keyed_is_one_generator_per_process():
    assert keyed(1, rng.STREAM_X1) is keyed(2, rng.STREAM_B)


@settings(deadline=None, max_examples=30)
@given(seed=SEED, other=SEED)
def test_rekeyed_draws_equal_fresh_generator_draws(seed, other):
    assert len(STREAMS) == 6
    for stream in STREAMS:
        for draw in DRAWS.values():
            want = _bits(draw(generator(seed, stream)))
            for dirty in DIRTY.values():
                dirty(keyed(other, stream))
                assert _bits(draw(keyed(seed, stream))) == want


@settings(deadline=None, max_examples=30)
@given(seed=SEED, other=SEED)
def test_stream_key_rows_equal_fresh_generator_rows(seed, other):
    for stream in STREAMS:
        want = _bits(_normal_row(generator(seed, stream)))
        for dirty in DIRTY.values():
            dirty(keyed(other, stream))
            assert _bits(_normal_row(StreamKey(seed, stream))) == want


@settings(deadline=None, max_examples=20)
@given(seeds=st.lists(SEED, min_size=1, max_size=6), size=st.integers(1, 70))
def test_path_rows_from_handles_equal_rows_from_generators(seeds, size):
    # Each handle re-keys the shared generator just before its row is read:
    # the rows equal the cumulated increments of fresh generators.
    fresh = [generator(s, stream) for stream in (rng.STREAM_X1, rng.STREAM_X2) for s in seeds]
    incs = sample_increments(0.3, grid_spacing(2), _padded_size(size), fresh)
    want = np.zeros((len(fresh), size + 1))
    np.cumsum(incs[:, :size], axis=1, out=want[:, 1:])
    assert _bits(np.concatenate(_path_rows(0.3, 2, [(0, size)] * len(seeds), seeds))) == _bits(
        want)
