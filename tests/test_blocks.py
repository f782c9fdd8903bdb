"""Blocks of seeds: every row of a block draw equals, bit for bit, what its
seed gives alone, for the fGn sampler, the midpoint kernel, the Euler
samplers and every batched estimator, also when the Brownian-clock seeds of
several j* share one padded fGn draw; the Euler sum that reads no
component of X is the value drawn along X; the sampler is the full-FFT
Davies-Harte map of the normals it reads; and the key-only Philox generator
is the one ``Philox(key=...)`` builds."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fbmbt import fgn, rng, variations
from fbmbt.calculus import function_names, get_test_function
from fbmbt.experiments import (
    _level_paths,
    draw_correction_fbm,
    draw_o_tilde,
    draw_rhs_fbmbt,
    draw_skeleton_residual,
    draw_terminal_y,
    draw_v3,
    draw_v_pq,
    draw_v_tilde_3,
    draw_w3_horizons,
)
from fbmbt.fgn import (
    BLOCK_VALUES,
    H_SPECIAL,
    _embedding_sqrt_eig,
    grid_spacing,
    rho,
    sample_increments,
)
from fbmbt.limitlaw import (
    _INTEGRAND_READS,
    _RHS_READS,
    _euler_sum,
    sample_change_of_variable_rhs,
    sample_correction_fbm,
)
from fbmbt.rng import derive_seed, generator, stream_seed
from fbmbt.skeleton import sample_terminal
from fbmbt.variations import (
    _TAYLOR,
    _VALUE,
    _components_read,
    _grid_count,
    _midpoint_sums,
    _step_count,
    _taylor_sum,
    _taylor_terms,
)
from test_fgn import sample_fbm_2d
from test_variations import v3, v_pq, w3, w_grad

SEED = st.integers(min_value=0, max_value=(1 << 64) - 1)
SEEDS = st.lists(SEED, min_size=1, max_size=40)
STREAMS = [getattr(rng, name) for name in dir(rng) if name.startswith("STREAM_")]


def _bits(x) -> bytes:
    return np.ascontiguousarray(x, dtype=np.float64).tobytes()


def _full_fft_increments(H, spacing, size, g):
    """The Davies-Harte draw as written before the Hermitian FFT: a full
    complex FFT of the mirrored spectrum, fed by a ``(2, 2 * size)`` draw of
    which it reads ``v[0, 0..size]`` and ``v[1, 1..size-1]``.  Returns the
    increments and the normals it read, in the order the sampler reads them."""
    c = spacing ** (2.0 * H) * rho(np.arange(size + 1), H)
    sq = np.sqrt(np.clip(np.fft.fft(np.concatenate([c, c[-2:0:-1]])).real, 0.0, None))
    m = 2 * size
    v = g.standard_normal((2, m))
    w = np.empty(m, dtype=complex)
    w[0] = sq[0] * v[0, 0] * math.sqrt(2.0)
    w[size] = sq[size] * v[0, size] * math.sqrt(2.0)
    w[1:size] = sq[1:size] * (v[0, 1:size] + 1j * v[1, 1:size])
    w[size + 1 :] = np.conj(w[size - 1 : 0 : -1])
    read = np.concatenate([v[0, : size + 1], v[1, 1:size]])
    return np.fft.fft(w).real[:size] / math.sqrt(2.0 * m), read


class _Replay:
    """A stand-in generator whose one draw is a given array of normals."""

    def __init__(self, normals):
        self.normals = normals

    def standard_normal(self, out):
        out[...] = self.normals


def _assert_same_law_map(H, spacing, size, seed):
    """The sampler fed the normals the full-FFT map reads gives its output."""
    want, read = _full_fft_increments(H, spacing, size, generator(seed, rng.STREAM_X1))
    got = sample_increments(H, spacing, size, [_Replay(read)])[0]
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def _same_state(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return np.asarray(a).dtype == np.asarray(b).dtype and np.array_equal(a, b)


@settings(deadline=None)
@given(seed=SEED)
def test_generator_is_philox_with_the_stream_key(seed):
    assert len(STREAMS) == 6
    for stream in STREAMS:
        got = generator(seed, stream).bit_generator.state
        want = np.random.Philox(key=stream_seed(seed, stream)).state
        assert _same_state(got, want)


@settings(deadline=None, max_examples=40)
@given(H=st.floats(min_value=0.05, max_value=0.95), size=st.integers(0, 300), seeds=SEEDS)
def test_increment_block_rows_equal_one_row_draws(H, size, seeds):
    block = sample_increments(H, 0.5, size, [generator(s, rng.STREAM_X1) for s in seeds])
    assert block.shape == (len(seeds), size)
    for row, seed in zip(block, seeds):
        one = sample_increments(H, 0.5, size, [generator(seed, rng.STREAM_X1)])[0]
        assert _bits(row) == _bits(one)
    if size:
        _assert_same_law_map(H, 0.5, size, seeds[0])


@pytest.mark.parametrize("size", [1, 2, 3, 7, 64, 255, 1000, 4095, 4096])
def test_increments_are_the_full_fft_map_of_the_normals_read(size):
    for H in (0.1, H_SPECIAL, 0.3, 0.7):
        _assert_same_law_map(H, 0.37, size, size)


def test_spacing_scales_the_unit_draw_and_shares_its_eigenvalues():
    size, seeds = 300, [derive_seed(3, i) for i in range(4)]
    _embedding_sqrt_eig.cache_clear()
    unit = sample_increments(H_SPECIAL, 1.0, size, [generator(s, rng.STREAM_X1) for s in seeds])
    for spacing in (0.125, 3.7):
        scaled = sample_increments(
            H_SPECIAL, spacing, size, [generator(s, rng.STREAM_X1) for s in seeds])
        np.testing.assert_allclose(scaled, spacing**H_SPECIAL * unit, rtol=1e-15, atol=0)
    assert _embedding_sqrt_eig.cache_info().misses == 1


def test_increment_block_straddles_the_chunk_cap():
    size = 1 << 12
    rows = BLOCK_VALUES // (2 * size) + 3  # one full chunk of rows and three more
    seeds = [derive_seed(11, i) for i in range(rows)]
    block = sample_increments(H_SPECIAL, 0.25, size, [generator(s, rng.STREAM_X2) for s in seeds])
    for row, seed in zip(block, seeds):
        one = sample_increments(H_SPECIAL, 0.25, size, [generator(seed, rng.STREAM_X2)])[0]
        assert _bits(row) == _bits(one)


@settings(deadline=None, max_examples=60)
@given(
    name=st.sampled_from(function_names()),
    rows=st.integers(min_value=1, max_value=40),
    length=st.integers(min_value=0, max_value=60),
    seed=SEED,
    mirrored=st.booleans(),
)
def test_midpoint_sums_rows_equal_one_path_sums(name, rows, length, seed, mirrored):
    f = get_test_function(name)
    v1, v2 = np.random.default_rng(seed).normal(0.0, 0.3, (2, rows, length)).cumsum(axis=-1)
    if mirrored:  # the one-sided sums read the negative side reversed
        v1, v2 = v1[..., ::-1], v2[..., ::-1]
    terms = [((a,), a) for a in _TAYLOR] + [(_VALUE, (2, 3)), (((3, 0), (1, 2)), (1, 0))]
    block = _midpoint_sums(f, v1, v2, terms)
    for r in range(rows):
        one = _midpoint_sums(f, v1[r], v2[r], terms)
        assert [_bits(s[r]) for s in block] == [_bits(s) for s in one]


@settings(deadline=None, max_examples=60)
@given(
    name=st.sampled_from(function_names()),
    width=st.integers(min_value=0, max_value=40),
    data=st.data(),
    seed=SEED,
)
def test_ragged_rows_equal_one_path_sums_on_their_prefix(name, width, data, seed):
    # Row r holds a path of lengths[r] + 1 values, read backward from its end
    # when mirrored, and NaN beyond: no padding may reach a sum.
    f = get_test_function(name)
    lengths = data.draw(st.lists(st.integers(0, width), min_size=1, max_size=12))
    lengths = np.array(lengths + [width])
    mirrored = data.draw(st.lists(st.booleans(), min_size=len(lengths), max_size=len(lengths)))
    steps = np.random.default_rng(seed).normal(0.0, 0.3, (2, len(lengths), width))
    v1, v2 = np.full((2, len(lengths), width + 1), np.nan)
    for r, (k, back) in enumerate(zip(lengths, mirrored)):
        for v, d in ((v1, steps[0, r]), (v2, steps[1, r])):
            path = np.concatenate([[0.0], np.cumsum(d[:k])])
            v[r, : k + 1] = path[::-1] - path[-1] if back else path
    terms = [((a,), a) for a in _TAYLOR] + [(_VALUE, (2, 3)), (((3, 0), (1, 2)), (1, 0))]
    block = _midpoint_sums(f, v1, v2, terms, counts=lengths)
    taylor = [_taylor_sum(f, v1, v2, order, lengths) for order in (1, 3)]
    for r, k in enumerate(lengths):
        p1, p2 = v1[r, : k + 1], v2[r, : k + 1]
        one = _midpoint_sums(f, p1, p2, terms)
        assert [_bits(s[r]) for s in block] == [_bits(s) for s in one]
        assert [_bits(s[r]) for s in taylor] == [_bits(_taylor_sum(f, p1, p2, o)) for o in (1, 3)]


@settings(deadline=None, max_examples=60)
@given(
    name=st.sampled_from(function_names()),
    j_stars=st.lists(st.integers(min_value=-40, max_value=40), min_size=1, max_size=12),
    seed=SEED,
    pq=st.sampled_from([(1, 0), (0, 1), (3, 0), (0, 3), (1, 2), (2, 1), (5, 0), (2, 3)]),
)
@example(name="x*y", j_stars=[3, -2], seed=3, pq=(2, 1))
def test_sign_times_forward_sum_is_the_mirrored_sum(name, j_stars, seed, pq):
    # Row r holds X on (min(0, j*), max(0, j*)) with X_0 = 0 in column
    # -min(0, j*), NaN beyond.  Its odd sums read forward, times sign(j*),
    # plus 0.0, are bit for bit the sums of the path read from 0 toward j*,
    # a zero sum +0.0 on either side (x*y has no live third-order term).
    f = get_test_function(name)
    width = max(1, *map(abs, j_stars))
    j_stars = np.array(j_stars + [-width, 0])
    lo, hi = np.minimum(0, j_stars), np.maximum(0, j_stars)
    steps = np.random.default_rng(seed).normal(0.0, 0.3, (2, len(j_stars), width))
    v1, v2 = np.full((2, len(j_stars), width + 1), np.nan)
    toward_end = []
    for r in range(len(j_stars)):
        k = hi[r] - lo[r]
        for v, d in ((v1, steps[0, r]), (v2, steps[1, r])):
            path = np.concatenate([[0.0], np.cumsum(d[:k])])
            v[r, : k + 1] = path - path[-lo[r]]
        rows = v1[r, : k + 1], v2[r, : k + 1]
        toward_end.append([row[::-1] if j_stars[r] < 0 else row for row in rows])
    sign, counts = np.sign(j_stars), hi - lo
    forward = [_midpoint_sums(f, v1, v2, [(_VALUE, pq)], counts=counts)[0]]
    forward += [_taylor_sum(f, v1, v2, order, counts) for order in (1, 3)]
    for r, (m1, m2) in enumerate(toward_end):
        mirrored = [_midpoint_sums(f, m1, m2, [(_VALUE, pq)])[0]]
        mirrored += [_taylor_sum(f, m1, m2, order) for order in (1, 3)]
        assert [_bits(sign[r] * s[r] + 0.0) for s in forward] == [_bits(s) for s in mirrored]


@settings(deadline=None, max_examples=40)
@given(
    H=st.floats(min_value=0.05, max_value=0.95),
    n=st.integers(min_value=0, max_value=12),
    ends=st.lists(st.integers(min_value=-70, max_value=70), min_size=1, max_size=30),
    seed=SEED,
)
def test_path_rows_are_the_one_seed_paths_on_their_ranges(H, n, ends, seed):
    # The kernel hands back each chunk's rows padded to one width, then the
    # row ranges, so the gather returns every seed's whole path.  The ranges
    # run from 0 to a signed end, or around 0 to both sides of it.
    seeds = [derive_seed(seed, i) for i in range(len(ends))]
    ranges = [(min(0, end), max(0, end)) if i % 3 else (-abs(end) // 2, abs(end))
              for i, end in enumerate(ends)]
    width = max(hi - lo for lo, hi in ranges) + 1

    def padded(v1, v2, chunk):
        rows = np.full((len(chunk), 2 * width + 2), np.nan)
        rows[:, : v1.shape[1]], rows[:, width : width + v2.shape[1]] = v1, v2
        rows[:, -2:] = chunk
        return rows

    rows = fgn._path_draws(H, n, ranges, seeds, padded, 2 * width + 2)
    for row, (lo, hi), s in zip(rows, ranges, seeds):
        assert tuple(row[-2:]) == (lo, hi)
        one = sample_fbm_2d(H, n, lo, hi, s)
        assert _bits(row[: hi - lo + 1]) == _bits(one.values1)
        assert _bits(row[width : width + hi - lo + 1]) == _bits(one.values2)


# One H per seed, as the identity suite draws them: a chunk computes its
# rows' eigenvalues as one block.  The first example puts H = 1/2 (rho's
# exact-zero branch), H = 1/4 (an exponent that ``x ** 0.5`` would turn
# into a square root) and two other H in one chunk of padded size 64, and
# a zero-width range beside them.
@settings(deadline=None, max_examples=30)
@example(rows=[(0.5, 40), (0.25, -50), (0.1, 60), (0.9, -64), (0.3, 0)], n=7, seed=5)
@example(rows=[(0.5, 3), (0.5, -3)], n=0, seed=6)
@given(
    rows=st.lists(st.tuples(st.sampled_from([0.25, 0.5]) | st.floats(min_value=0.05,
                                                                      max_value=0.95),
                            st.integers(min_value=-70, max_value=70)), min_size=1, max_size=30),
    n=st.integers(min_value=0, max_value=12),
    seed=SEED,
)
def test_per_seed_hurst_rows_are_the_one_seed_paths(rows, n, seed):
    hs = [h for h, _ in rows]
    ranges = [(min(0, end), max(0, end)) for _, end in rows]
    seeds = [derive_seed(seed, i) for i in range(len(rows))]
    width = max(hi - lo for lo, hi in ranges) + 1

    def padded(v1, v2, chunk):
        rows = np.full((len(chunk), 2 * width), np.nan)
        rows[:, : v1.shape[1]], rows[:, width : width + v2.shape[1]] = v1, v2
        return rows

    before = _embedding_sqrt_eig.cache_info()
    got = fgn._path_draws(hs, n, ranges, seeds, padded, 2 * width)
    assert _embedding_sqrt_eig.cache_info() == before
    for row, h, (lo, hi), s in zip(got, hs, ranges, seeds):
        one = sample_fbm_2d(h, n, lo, hi, s)
        assert _bits(row[: hi - lo + 1]) == _bits(one.values1)
        assert _bits(row[width : width + hi - lo + 1]) == _bits(one.values2)


# The identity suite's one path form: each instance's X^1 and X^2 on its
# range (lo, hi) as a (2, hi - lo + 1) array, the instances of one level
# drawn as rows of one fGn draw.  The first example mixes levels 4 and 7,
# H = 1/6 and H = 1/2 beside other H in one level, ranges with lo < 0 and
# the zero-width range (0, 0).
@settings(deadline=None, max_examples=30)
@example(rows=[(H_SPECIAL, 4, -20, 30), (0.5, 4, 0, 40), (0.3, 7, -64, 0), (0.1, 4, 0, 0),
               (H_SPECIAL, 7, -3, 5), (0.5, 7, 0, 0)], seed=9)
@given(
    rows=st.lists(st.tuples(st.sampled_from([H_SPECIAL, 0.5]) | st.floats(min_value=0.05,
                                                                          max_value=0.95),
                            st.integers(min_value=0, max_value=12),
                            st.integers(min_value=-70, max_value=0),
                            st.integers(min_value=0, max_value=70)), min_size=1, max_size=30),
    seed=SEED,
)
def test_level_paths_are_the_one_seed_paths(rows, seed):
    seeds = [derive_seed(seed, i) for i in range(len(rows))]
    params = [(None, None, n) for _, n, _, _ in rows]
    ranges = [(lo, hi) for *_, lo, hi in rows]
    hs = [h for h, *_ in rows]
    for h in (hs, hs[0]):  # one H per instance, and one float: the cached draw
        paths = _level_paths(seeds, params, h, ranges)
        for x, H, (_, n, lo, hi), s in zip(paths, np.broadcast_to(h, len(rows)).tolist(),
                                           rows, seeds):
            one = sample_fbm_2d(H, n, lo, hi, s)
            assert x.shape == (2, hi - lo + 1)
            assert _bits(x[0]) == _bits(one.values1) and _bits(x[1]) == _bits(one.values2)


def test_per_seed_hurst_draws_leave_the_eigenvalue_cache_alone():
    # 2000 random H, the identity suite's count, neither read nor evict the
    # single-H entries that the other workloads reuse.
    _embedding_sqrt_eig.cache_clear()
    for H in (H_SPECIAL, 0.1):
        sample_increments(H, 0.5, 64, [generator(1, rng.STREAM_X1)])
    before = _embedding_sqrt_eig.cache_info()
    draw = np.random.default_rng(32)
    hs = draw.uniform(0.05, 0.48, 2000).tolist()
    ranges = [(0, int(w)) for w in draw.integers(0, 300, 2000)]
    fgn._path_draws(hs, 8, ranges, list(range(2000)), lambda v1, v2, chunk: np.zeros(len(chunk)))
    assert _embedding_sqrt_eig.cache_info() == before
    for H in (H_SPECIAL, 0.1):
        sample_increments(H, 0.5, 64, [generator(2, rng.STREAM_X1)])
    after = _embedding_sqrt_eig.cache_info()
    assert (after.hits, after.misses) == (before.hits + 2, before.misses)


def test_non_psd_embedding_names_the_rows_hurst(monkeypatch):
    # rho(1) = 2 at H = 0.3 alone gives that row a negative eigenvalue; the
    # other rows of the chunk are fine, and the error names the bad one.
    def bad_rho(k, H):
        out = np.array(rho(k, H))
        out[np.ravel(H) == 0.3, 1] = 2.0
        return out

    monkeypatch.setattr("fbmbt.fgn.rho", bad_rho)
    before = _embedding_sqrt_eig.cache_info()
    with pytest.raises(np.linalg.LinAlgError, match=r"at H=0\.3, size=8: eigenvalue -"):
        sample_increments([0.2, 0.45, 0.3, 0.1], 0.5, 8,
                          [generator(s, rng.STREAM_X1) for s in range(4)])
    sample_increments([0.2, 0.45, 0.1], 0.5, 8, [generator(s, rng.STREAM_X1) for s in range(3)])
    assert _embedding_sqrt_eig.cache_info() == before


def test_ragged_draws_make_one_kernel_pass_per_fgn_chunk(monkeypatch):
    # 300 seeds at n = 10 hold dozens of distinct |j*| and Brownian-time
    # step counts K but only a few padded sizes: one kernel or weight pass
    # per fGn chunk, not one per length.  The fixed-clock draws, whose rows
    # all end at m, make one pass per chunk too.
    seeds = [derive_seed(14, i) for i in range(300)]
    calls = {"chunks": 0, "passes": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(fgn, "_path_rows", counted(fgn._path_rows, "chunks"))
    monkeypatch.setattr(variations, "_midpoint_sums", counted(variations._midpoint_sums, "passes"))
    n, t = 10, 1.0
    lengths = {abs(sample_terminal(_step_count(n, t), s)) for s in seeds}
    with monkeypatch.context() as small:
        small.setattr(fgn, "BLOCK_VALUES", 1 << 12)  # chunks of 32 rows of m = 32
        for draw, kwargs in ((draw_v3, {}), (draw_v_pq, dict(p=1, q=2))):
            calls.update(chunks=0, passes=0)
            draw(seeds, H=0.3, n=n, t=t, fname="sin_x_cos_y", **kwargs)
            assert calls["passes"] == calls["chunks"] == 10, draw.__name__
    for draw in (draw_v_tilde_3, draw_o_tilde):
        calls.update(chunks=0, passes=0)
        draw(seeds, H=0.3, n=n, t=t, fname="sin_x_cos_y")
        assert calls["passes"] == calls["chunks"] < len(lengths) // 4, draw.__name__
    f, mesh = get_test_function("sin_x_cos_y"), 2.0**-8
    times = _brownian_times(t, seeds)
    steps = {max(1, round(abs(y) / mesh)) for y in times}
    monkeypatch.setattr(type(f), "partials_at", counted(type(f).partials_at, "passes"))
    calls.update(chunks=0, passes=0)
    draw_rhs_fbmbt(seeds, fname="sin_x_cos_y", t=t, mesh=mesh)
    assert calls["passes"] == calls["chunks"] < len(steps) // 4


BOTH, X1, X2, NEITHER = (True, True), (True, False), (False, True), (False, False)


@pytest.mark.parametrize("fname,terms,reads", [
    # Order 3: x^3 keeps only 6 d1^3 / 24 with the constant partial 6.
    ("x^3", _taylor_terms(3), X1),
    ("y^3", _taylor_terms(3), X2),
    ("x*y^2", _taylor_terms(3), BOTH),
    ("sin_x_cos_y", _taylor_terms(3), BOTH),
    ("bump", _taylor_terms(3), BOTH),
    ("x*y", _taylor_terms(3), NEITHER),
    # draw_v_pq's one term: its exponents name the components, alone for f = 1.
    ("x*y", [(_VALUE, (1, 2))], BOTH),
    ("1", [(_VALUE, (1, 2))], BOTH),
    ("1", [(_VALUE, (3, 0))], X1),
    # f at the path's end: the skeleton residual and the Euler right-hand
    # side read what f depends on; the correction alone reads the integrands.
    ("x^3", _taylor_terms(1) + [(_VALUE, (0, 0))], X1),
    ("x^3", list(_RHS_READS), X1),
    ("1", list(_RHS_READS), NEITHER),
    ("y^3", _taylor_terms(1) + [(_VALUE, (0, 0))], X2),
    ("x*y^2", _taylor_terms(1) + [(_VALUE, (0, 0))], BOTH),
    ("y^3", list(_RHS_READS), X2),
    ("sin_x_cos_y", list(_RHS_READS), BOTH),
    # A partial that is not constant reads only the variables it depends on.
    ("x^4", _taylor_terms(3), X1),
    ("x^4", [(_VALUE, (0, 1))], BOTH),
    ("x^4", list(_INTEGRAND_READS), X1),
    ("sin_x_cos_y", list(_INTEGRAND_READS), BOTH),
    # Constant integrands read nothing.
    ("x^3", list(_INTEGRAND_READS), NEITHER),
    ("x*y^2", list(_INTEGRAND_READS), NEITHER),
])
def test_read_rule_over_the_catalog(fname, terms, reads):
    assert _components_read(get_test_function(fname), terms) == reads


def _record_handles(monkeypatch):
    """Patch ``fgn.sample_increments`` to record the (seed, stream) handles
    of each call: one list per call."""
    calls = []

    def recording(H, spacing, size, rngs):
        rngs = list(rngs)
        calls.append([(g.seed, g.stream) for g in rngs])
        return sample_increments(H, spacing, size, rngs)

    monkeypatch.setattr(fgn, "sample_increments", recording)
    return calls


@pytest.mark.parametrize("fname,streams", [
    ("x^3", {rng.STREAM_X1}),
    ("y^3", {rng.STREAM_X2}),
    ("sin_x_cos_y", {rng.STREAM_X1, rng.STREAM_X2}),
])
def test_draws_key_only_the_streams_their_statistic_reads(monkeypatch, fname, streams):
    seeds = [derive_seed(18, i) for i in range(300)]
    calls = _record_handles(monkeypatch)
    # The draws that evaluate f at their end read what f depends on too.
    for draw, kwargs in ((draw_v3, dict(H=0.3, n=10)), (draw_v_tilde_3, dict(H=0.3, n=10)),
                         (draw_skeleton_residual, dict(H=0.3, n=10)),
                         (draw_rhs_fbmbt, dict(mesh=2.0**-8))):
        calls.clear()
        draw(seeds, t=1.0, fname=fname, **kwargs)
        handles = [h for call in calls for h in call]
        assert {stream for _, stream in handles} == streams, draw.__name__
        if draw is draw_v3:  # every path ends at m; a zero j* draws nothing
            assert sorted(handles) == sorted((s, k) for s in seeds for k in streams)


def test_one_component_chunks_hold_twice_the_rows(monkeypatch):
    # m = 32 at n = 10 pads to 32: a chunk of 2^12 complex values holds 32
    # seeds of two components or 64 of one, so 300 seeds make 10 or 5.
    seeds = [derive_seed(18, i) for i in range(300)]
    calls = _record_handles(monkeypatch)
    monkeypatch.setattr(fgn, "BLOCK_VALUES", 1 << 12)
    chunks = {}
    for fname in ("x^3", "sin_x_cos_y"):
        calls.clear()
        draw_v3(seeds, H=0.3, n=10, t=1.0, fname=fname)
        chunks[fname] = len(calls)
    assert chunks == {"x^3": 5, "sin_x_cos_y": 10}


def _terminal_segment(seed, H, n, t):
    """Terminal walk position j*, its height y, and the fBm between 0 and
    j*, drawn for one seed alone."""
    j_star = sample_terminal(_step_count(n, t), seed)
    fbm = sample_fbm_2d(H, n, min(0, j_star), max(0, j_star), seed)
    return j_star, j_star * grid_spacing(n), fbm


def _one_sided(statistic, fname, H, n, t):
    def one(seed):
        _, y, fbm = _terminal_segment(seed, H, n, t)
        return statistic(get_test_function(fname), fbm, y)
    return one


def _residual(fname, H, n, t):
    """The skeleton residual f(X_{j*}) - f(0) - O_tilde of one seed, as the
    residual estimator drew it seed by seed."""
    def one(seed):
        f = get_test_function(fname)
        j_star, y, fbm = _terminal_segment(seed, H, n, t)
        z1, z2 = fbm.values1[j_star - fbm.j_min], fbm.values2[j_star - fbm.j_min]
        return float(f(z1, z2)) - float(f(0.0, 0.0)) - w_grad(f, fbm, y)
    return one


def _brownian_times(t, seeds):
    """Y_t of each seed, from its own ``STREAM_Y`` normal."""
    return np.array([math.sqrt(t) * float(generator(s, rng.STREAM_Y).standard_normal()) if t
                     else 0.0 for s in seeds])


def sample_correction_fbmbt(f, t, mesh, seeds):
    """The Brownian-time correction alone: the Euler sum out to |Y_t| that
    ``sample_change_of_variable_rhs`` subtracts, one value per seed."""
    return _euler_sum(f, np.abs(_brownian_times(t, seeds)).tolist(), mesh, seeds)[0]


# The one-seed oracles draw both components through ``sample_fbm_2d``, so a
# draw that leaves out a component its statistic reads fails here; x^3,
# y^3 and x*y leave one or both out of some draws, and each runs every time.
@settings(deadline=None, max_examples=15)
@given(
    H=st.sampled_from([0.1, H_SPECIAL, 0.3]),
    n=st.integers(min_value=2, max_value=10),
    fname=st.sampled_from(["x^3", "x*y^2", "sin_x_cos_y", "bump", "y^3", "x^4", "x*y"]),
    seeds=SEEDS,
)
@example(H=0.3, n=6, fname="x^3", seeds=[1, 2, 3])
@example(H=H_SPECIAL, n=7, fname="y^3", seeds=[4, 5, 6])
@example(H=0.1, n=5, fname="x*y", seeds=[7, 8, 9])
def test_batched_estimators_equal_one_seed_draws(H, n, fname, seeds):
    t, f = 1.0, get_test_function(fname)
    m = _grid_count(n, t)
    ys = (-1.0, -0.5, 0.0, 0.5, 1.0)
    mesh = 2.0**-6

    def horizons(seed):
        fbm = sample_fbm_2d(H, n, -m, m, seed)
        return [w3(f, fbm, y) for y in ys]

    cases = [
        (draw_v3, dict(H=H, n=n, t=t), lambda s: v3(f, sample_fbm_2d(H, n, 0, m, s), t)),
        (draw_v_pq, dict(H=H, n=n, t=t, p=1, q=2),
         lambda s: v_pq(f, sample_fbm_2d(H, n, 0, m, s), t, 1, 2)),
        (draw_v_tilde_3, dict(H=H, n=n, t=t), _one_sided(w3, fname, H, n, t)),
        (draw_o_tilde, dict(H=H, n=n, t=t), _one_sided(w_grad, fname, H, n, t)),
        (draw_skeleton_residual, dict(H=H, n=n, t=t), _residual(fname, H, n, t)),
        (draw_w3_horizons, dict(H=H, n=n, ys=ys), horizons),
        (draw_correction_fbm, dict(t=t, mesh=mesh),
         lambda s: sample_correction_fbm(f, t, mesh, [s])[0]),
        (draw_rhs_fbmbt, dict(t=t, mesh=mesh),
         lambda s: sample_change_of_variable_rhs(f, t, mesh, [s])[0]),
    ]
    for draw, kwargs, one in cases:
        block = draw(seeds, fname=fname, **kwargs)
        assert len(block) == len(seeds)
        for value, seed in zip(block, seeds):
            assert _bits(value) == _bits(one(seed)), draw.__name__
            assert _bits(value) == _bits(draw([seed], fname=fname, **kwargs)[0]), draw.__name__


@pytest.mark.parametrize("fname", ["x^3", "sin_x_cos_y"])
def test_brownian_clock_block_with_each_sign_of_j_star(fname):
    # Four walk steps: j* is one of -4, -2, 0, 2, 4, and 0 in 3 draws of 8.
    n, t = 2, 1.0
    seeds = [derive_seed(5, i) for i in range(40)]
    signs = [np.sign(sample_terminal(4, s)) for s in seeds]
    assert set(signs) == {-1, 0, 1}
    for draw, one in ((draw_v_tilde_3, _one_sided(w3, fname, H_SPECIAL, n, t)),
                      (draw_o_tilde, _one_sided(w_grad, fname, H_SPECIAL, n, t)),
                      (draw_skeleton_residual, _residual(fname, H_SPECIAL, n, t))):
        values = draw(seeds, H=H_SPECIAL, n=n, t=t, fname=fname)
        for value, seed, sign in zip(values, seeds, signs):
            assert _bits(value) == _bits(one(seed))
            if sign == 0:
                assert _bits(value) == _bits(0.0)  # +0.0, not -0.0


def test_brownian_clock_draws_reject_a_bad_level():
    # The terminal draw reads no level.  At n = -1 every j* would be 0, so
    # no path would reach ``grid_spacing`` and the sums would read 0.0.
    with pytest.raises(ValueError, match="dyadic level .* got -1"):
        draw_v_tilde_3([1, 2], H=0.3, n=-1, t=1.0, fname="x^3")
    with pytest.raises(ValueError, match="dyadic level .* got -1"):
        draw_terminal_y([1, 2], n=-1, t=1.0)


# No seeds make no fGn chunk to show a row's width, so a draw of rows is
# told it (``_path_draws``'s ``width``) and returns an empty result of its
# estimator's shape.
@pytest.mark.parametrize("fname", ["sin_x_cos_y", "x^3"])
def test_empty_seed_lists_give_empty_results_of_their_shape(fname):
    f, mesh, ys = get_test_function(fname), 2.0**-4, (-1.0, 0.0, 0.5)
    for values in (sample_correction_fbm(f, 1.0, mesh, []),
                   sample_change_of_variable_rhs(f, 1.0, mesh, []),
                   draw_v3([], H=H_SPECIAL, n=4, t=1.0, fname=fname)):
        assert np.shape(values) == (0,)
    assert np.shape(draw_w3_horizons([], H=H_SPECIAL, n=4, ys=ys, fname=fname)) == (0, len(ys))


@pytest.mark.parametrize("fname", ["x^3", "sin_x_cos_y"])
def test_brownian_time_block_rows_equal_one_seed_values(fname):
    # At mesh 2^-14 a Brownian time |Y_1| in (0.5, 1] pads to 2^14 steps, of
    # which a chunk holds 4 seeds; 40 seeds span several padded sizes.
    f, mesh = get_test_function(fname), 2.0**-14
    seeds = [derive_seed(8, i) for i in range(40)]
    rhs = sample_change_of_variable_rhs(f, 1.0, mesh, seeds)
    corr = sample_correction_fbmbt(f, 1.0, mesh, seeds)
    padded = [1 << (max(1, round(abs(y) / mesh)) - 1).bit_length()
              for y in _brownian_times(1.0, seeds)]
    assert len(set(padded)) >= 3
    assert any(padded.count(p) > BLOCK_VALUES // (4 * p) for p in padded)
    for r, seed in enumerate(seeds):
        assert _bits(rhs[r]) == _bits(sample_change_of_variable_rhs(f, 1.0, mesh, [seed])[0])
        assert _bits(corr[r]) == _bits(sample_correction_fbmbt(f, 1.0, mesh, [seed])[0])
    zero = sample_change_of_variable_rhs(f, 0.0, mesh, seeds)
    assert _bits(zero) == _bits(np.zeros(len(seeds)))


@pytest.mark.parametrize("fname", ["x^3", "sin_x_cos_y"])
def test_euler_sum_mixes_zero_and_nonzero_lengths(fname):
    # Zero lengths take K = 0 and h = 0 through the same draw as the rest,
    # in the padded size 0 of their own chunk.  With f at the end read, x^3
    # draws X^1.
    f, mesh = get_test_function(fname), 2.0**-8
    seeds = [derive_seed(15, i) for i in range(12)]
    lengths = [0.0 if i % 3 == 0 else 0.15 * i for i in range(12)]
    block = _euler_sum(f, lengths, mesh, seeds, _RHS_READS)
    for r, (length, seed) in enumerate(zip(lengths, seeds)):
        alone = (_euler_sum(f, [length], mesh, [seed], _RHS_READS) if length
                 else np.zeros((3, 1)))
        assert _bits([values[r] for values in block]) == _bits([values[0] for values in alone])


@pytest.mark.parametrize("fname", ["x^3", "x*y^2"])
@pytest.mark.parametrize("t", [0.0, 0.7, 1.0])
def test_constant_integrand_correction_equals_the_euler_sum_along_x(fname, t):
    # The integrands of x^3 and x*y^2 are constant and read no component;
    # with f at the end read too, the same sum is drawn along X.  At t = 0.7
    # the grid has K = round(179.2) = 179 steps, padded to 256.
    f, mesh = get_test_function(fname), 2.0**-8
    assert _components_read(f, _INTEGRAND_READS) == NEITHER
    assert _components_read(f, _RHS_READS) != NEITHER
    seeds = [derive_seed(12, i) for i in range(200)]
    along_x = _euler_sum(f, [t] * len(seeds), mesh, seeds, _RHS_READS)[0]
    assert _bits(sample_correction_fbm(f, t, mesh, seeds)) == _bits(along_x)
    for seed, value in zip(seeds[:3], along_x):
        assert _bits(sample_correction_fbm(f, t, mesh, [seed])[0]) == _bits(value)
    # Ragged Brownian-time lengths: K = 0 and grids that pad to 1, 2, 4, ...
    lengths = [0.0, 2.0**-9, mesh, 1.5 * mesh, 3 * mesh, 0.1, 0.37, 0.7, 1.3, 2.9] * 3
    seeds = [derive_seed(13, i) for i in range(len(lengths))]
    padded = {1 << (max(1, round(L / mesh)) - 1).bit_length() for L in lengths if L}
    assert len(padded) >= 6
    assert _bits(_euler_sum(f, lengths, mesh, seeds)[0]) == _bits(
        _euler_sum(f, lengths, mesh, seeds, _RHS_READS)[0])


@settings(deadline=None)
@given(k=st.integers(0, 5000),
       c=st.floats(min_value=0.0, max_value=1e300, allow_subnormal=True))
def test_k_copies_of_a_weight_sum_to_one_rounded_product(k, c):
    assert _bits(float(k) * c) == _bits(math.fsum([c] * k))


@pytest.mark.parametrize("block_values", [fgn.BLOCK_VALUES, 64])
@pytest.mark.parametrize("n,t", [(4, 1.0), (3, 0.9)])
def test_brownian_clock_rows_shared_across_j_star(monkeypatch, block_values, n, t):
    # 16 walk steps give even j*: 0, |j*| = 2, 4 and 8, exact powers of
    # two, and 6, which shares 8's padded size.  7 steps give odd j*: -1
    # and 1 share size 1, 5 and 7 size 8.  With 64 values a block holds
    # 16 / size seeds, so the seeds of one j* straddle blocks.
    monkeypatch.setattr(fgn, "BLOCK_VALUES", block_values)
    seeds = [derive_seed(6, i) for i in range(200)]
    steps = _step_count(n, t)
    j_stars = {sample_terminal(steps, s) for s in seeds}
    want = {0, 2, 4, 6, 8, -2, -4, -6, -8} if steps == 16 else {1, -1, 5, -5, 7, -7}
    assert want <= j_stars
    H, fname = 0.3, "sin_x_cos_y"
    for draw, one in ((draw_v_tilde_3, _one_sided(w3, fname, H, n, t)),
                      (draw_o_tilde, _one_sided(w_grad, fname, H, n, t)),
                      (draw_skeleton_residual, _residual(fname, H, n, t))):
        values = draw(seeds, H=H, n=n, t=t, fname=fname)
        for value, seed in zip(values, seeds):
            assert _bits(value) == _bits(one(seed)), draw.__name__
