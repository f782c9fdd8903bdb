"""Two-sided fractional Brownian motion on dyadic grids.

The process lives on the grid ``j * 2**(-n/2)``, ``j_min <= j <= j_max``, and
is the single two-sided fBm whose covariance is

    cov(X_t, X_s) = (|s|^{2H} + |t|^{2H} - |t-s|^{2H}) / 2

for all real t, s.  Note that this makes the negative and positive halves
correlated; the increment sequence over the whole two-sided grid is the
stationary fractional Gaussian noise with autocovariance
``2**(-n*H) * rho(k)``, which is what the sampler draws.

Every path is laid out one way (``_path_rows``): a row holds X on a grid
range [lo, hi] that contains 0, drawn as one increment sequence, cumulated
once and less its value at index 0, so that X_0 = 0.  Every Monte Carlo
draw, the estimators' midpoint sums, the Euler sampler's correction and
the identity suite's paths alike, runs through ``_path_draws``: it draws
blocks of seeds as ragged rows, each a seed's path on its own range, whose
normals come from that seed's own streams, and runs a kernel once per fGn
chunk of rows.  H is one float, whose circulant eigenvalues are cached, or
one per seed (the identity suite's random H), whose eigenvalues a chunk
computes as one block.  The circulant-embedding FFT runs row-wise, so
every row is bit for bit the path its seed gives alone on that range.
Only the components the kernel's statistic reads
(``variations._components_read``) are drawn; for f = x^3 that is X^1
alone, and the kernel gets zeros for X^2.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .rng import STREAM_X1, STREAM_X2, StreamKey

# Hard cap on the number of increments sampled exactly; beyond this we refuse
# rather than silently approximate.
MAX_INCREMENTS = 1 << 22

# A Davies-Harte block runs its FFT on chunks of rows holding at most this
# many complex values, which bounds its working set (4 MiB).
BLOCK_VALUES = 1 << 18

# sum_rho_cubed evaluates rho on chunks of this many lags, which bounds its
# temporaries (~0.5 MB an array) for any truncation.
_RHO_CHUNK = 1 << 16

# Switch from the direct second-difference formula to the expm1 form of rho
# at this lag (the direct form loses ~|k|^{2H} * eps absolute accuracy).
_RHO_DIRECT_CUTOFF = 8

# The critical Hurst index at which the third-order correction has a limit law.
H_SPECIAL = 1.0 / 6.0


class CapacityError(RuntimeError):
    """Requested grid too large for exact sampling."""


def check_hurst(H: float) -> float:
    if not 0.0 < H < 1.0:
        raise ValueError(f"Hurst exponent must lie in (0,1), got {H}")
    return float(H)


def check_special_hurst(H: float, what: str) -> None:
    """Reject any H other than 1/6 (up to 1e-12) for ``what``."""
    if abs(H - H_SPECIAL) > 1e-12:
        raise ValueError(f"{what} is defined at H = 1/6 only, got H = {H}")


def check_level(n: int) -> int:
    if not (n >= 0 and float(n).is_integer()):
        raise ValueError(f"dyadic level must be a nonnegative integer, got {n}")
    return int(n)


def check_index(j, name: str) -> int:
    """``j`` as an int, or a ValueError that names it (numpy truncates 2.5 to 2)."""
    if not float(j).is_integer():
        raise ValueError(f"{name} must be an integer, got {j!r}")
    return int(j)


def grid_spacing(n: int) -> float:
    """Grid step 2**(-n/2) on the fBm clock."""
    return 2.0 ** (-check_level(n) / 2.0)


def rho(k, H):
    """Autocovariance of unit-step fGn: (|k+1|^{2H} + |k-1|^{2H} - 2|k|^{2H}) / 2.

    Vectorized over ``k`` and ``H``, which broadcast (a column of H against a
    row of lags gives one row per H).  For large lags the naive second
    difference cancels catastrophically, so the tail is evaluated as
    ``a^{2H} * (expm1(2H*log1p(1/a)) + expm1(2H*log1p(-1/a))) / 2``.  The
    powers are ``np.power`` calls (``x ** 0.5`` would be a square root), so a
    row has the same bits whether its H comes alone or in a column.
    """
    h2 = 2.0 * np.array([check_hurst(h) for h in np.ravel(H)]).reshape(np.shape(H))
    a, h2 = np.broadcast_arrays(np.abs(np.asarray(k, dtype=np.float64)), h2)
    out = np.empty(a.shape)
    near = a <= _RHO_DIRECT_CUTOFF
    an, hn = a[near], h2[near]
    out[near] = 0.5 * (np.power(an + 1.0, hn) + np.power(np.abs(an - 1.0), hn)
                       - 2.0 * np.power(an, hn))
    af, hf = a[~near], h2[~near]
    if af.size:
        u = np.expm1(hf * np.log1p(1.0 / af))
        v = np.expm1(hf * np.log1p(-1.0 / af))
        out[~near] = 0.5 * np.power(af, hf) * (u + v)
    brownian = h2 == 1.0  # Brownian increments: exact zeros off the diagonal.
    out[brownian] = a[brownian] == 0
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class RhoSeriesResult:
    """Partial sum of sum_{r in Z} rho(r)^3 with a certified tail bound."""

    H: float
    m: int
    partial_sum: float
    tail_bound: float


def sum_rho_cubed(H: float, m: int) -> RhoSeriesResult:
    """Certified evaluation of sum_{|r| <= m} rho(r)^3.

    The tail bound uses |rho(r)| <= H|2H-1| (r-1)^{2H-2} for r >= 2 (Taylor
    remainder of the second difference), valid and summable-cubed for H < 5/6.
    The lags are cubed as products r * r * r in chunks of ``_RHO_CHUNK`` and
    fed to one exactly rounded ``math.fsum``, so the sum is that of the whole
    array.  For H < 1/2 every cube past lag 0 is negative, so once that sum's
    rounding error plus the one-sided tail bound is under half an ulp of it,
    every larger m gives the same bits: at H = 1/6 this holds from m = 2^13,
    which is what lets ``limitlaw.DEFAULT_SERIES_TRUNCATION`` stop at 2^14.
    """
    H = check_hurst(H)
    if H >= 5.0 / 6.0:
        raise ValueError(f"series sum of rho^3 requires H < 5/6, got {H}")
    m = check_index(m, "truncation")
    if m < 2:
        raise ValueError(f"truncation must satisfy m >= 2, got {m}")
    lags = (rho(np.arange(lo, min(lo + _RHO_CHUNK, m + 1)), H)
            for lo in range(1, m + 1, _RHO_CHUNK))
    cubes = (r * r * r for r in lags)
    partial = 1.0 + 2.0 * math.fsum(itertools.chain.from_iterable(c.tolist() for c in cubes))
    c = H * abs(2.0 * H - 1.0)
    # sum_{r>m} (r-1)^{3(2H-2)} <= m^{6H-6} + integral_m^inf x^{6H-6} dx
    tail = 2.0 * c**3 * (float(m) ** (6 * H - 6) + float(m) ** (6 * H - 5) / (5 - 6 * H))
    return RhoSeriesResult(H=H, m=m, partial_sum=partial, tail_bound=tail)


def _padded_size(count: int) -> int:
    """The power of two a draw of ``count`` increments pads to; 0 for none."""
    return 1 << (count - 1).bit_length() if count else 0


def _sqrt_eigs(H, size: int) -> np.ndarray:
    """sqrt of the first size + 1 circulant-embedding eigenvalues for ``size``
    unit-spacing increments (the other size - 1 mirror them); a column of H
    gives one row per H.

    The embedding's first row is rho(0), ..., rho(size), rho(size - 1), ...,
    rho(1), a Hermitian-symmetric sequence, so its eigenvalues are the real
    ``hfft`` of rho(0..size), run row-wise.  The fGn embedding is
    nonnegative definite for every H in (0, 1) (Dietrich-Newsam 1997), so
    only rounding-level negatives are clipped; a larger one means the
    covariance is wrong, and it is an error that names the row's H.
    Another spacing scales the draw by spacing**H (self-similarity).
    """
    eig = np.fft.hfft(rho(np.arange(size + 1), H))[..., : size + 1]
    low = eig.min(axis=-1)
    bad = np.flatnonzero(low < -1e-9 * np.maximum(eig.max(axis=-1), 1.0))
    if bad.size:
        raise np.linalg.LinAlgError(
            f"circulant embedding not nonnegative definite at H={np.ravel(H)[bad[0]]}, "
            f"size={size}: eigenvalue {np.ravel(low)[bad[0]]:.3g}"
        )
    return np.sqrt(np.clip(eig, 0.0, None))


@functools.lru_cache(maxsize=16)
def _embedding_sqrt_eig(H: float, size: int) -> np.ndarray:
    """``_sqrt_eigs`` of one H, cached: a draw at one H reads its eigenvalues
    here, and a draw with one H per row never does."""
    return _sqrt_eigs(H, size)


def sample_increments(H, spacing: float, size: int, rngs) -> np.ndarray:
    """Exact draw of ``size`` stationary fBm increments at the given spacing,
    by circulant embedding (Davies-Harte 1987).

    Each row draws 2 * size normals: the first size + 1 are the real parts
    of the half-spectrum w_0..w_size (w_0 and w_size are real and carry a
    factor sqrt(2)), the next size - 1 the imaginary parts of
    w_1..w_{size-1}.  The Hermitian FFT of sqrt(eig) * w, scaled by
    spacing**H / sqrt(4 * size), gives the increments.

    ``rngs`` is a sequence of generators or ``rng.StreamKey`` handles, and
    the draw a ``(len(rngs), size)`` block whose row r is exactly what
    ``[rngs[r]]`` alone gives: each row takes its normals from its own
    generator, one row after another, so a handle that re-keys the
    process's one generator is read before the next re-keys it; the FFT
    runs row-wise, in chunks of at most ``BLOCK_VALUES`` complex values.
    ``H`` is one float, whose eigenvalues are cached, or one per generator:
    then each chunk computes its rows' eigenvalues as one block with H as a
    column, and scales each row by its own spacing**H.
    """
    if size > MAX_INCREMENTS:
        raise CapacityError(
            f"grid of {size} increments exceeds exact-sampling cap {MAX_INCREMENTS}"
        )
    rngs = list(rngs)
    out = np.empty((len(rngs), size))
    if size:
        m = 2 * size
        rows = max(1, BLOCK_VALUES // m)
        if np.ndim(H) == 0:
            sq, scale = _embedding_sqrt_eig(H, size), spacing**H / math.sqrt(2.0 * m)
        for lo in range(0, len(rngs), rows):
            chunk = rngs[lo : lo + rows]
            if np.ndim(H):  # spacing**h in Python, as one H gets it, not np.power
                hs = list(H[lo : lo + rows])
                sq = _sqrt_eigs(np.array(hs)[:, None], size)
                scale = np.array([spacing**h for h in hs])[:, None] / math.sqrt(2.0 * m)
            v = np.empty((len(chunk), m))
            for normals, g in zip(v, chunk):
                g.standard_normal(out=normals)
            w = np.zeros((len(chunk), size + 1), dtype=complex)
            w.real = v[:, : size + 1]
            w.imag[:, 1:size] = v[:, size + 1 :]
            w[:, 0] *= math.sqrt(2.0)
            w[:, size] *= math.sqrt(2.0)
            w *= sq
            # hfft(w, m) is irfft(conj(w), m, norm="forward"); run in place
            # of w and of the normals, it makes no temporaries.
            np.fft.irfft(np.conjugate(w, out=w), n=m, norm="forward", out=v)
            np.multiply(v[:, :size], scale, out=out[lo : lo + len(chunk)])
    return out


def _path_rows(H, n: int, ranges: list[tuple[int, int]], seeds: list[int],
               scales: list[float] | None = None,
               reads: tuple[bool, bool] = (True, True)) -> list[np.ndarray]:
    """Each seed's level-n X^1 and X^2 on its grid range ``ranges[r] =
    (lo, hi)``, lo <= 0 <= hi: one ``(len(seeds), width + 1)`` array per
    component, width the widest hi - lo, whose row r holds X at indices
    lo..hi in its first hi - lo + 1 entries, with X_0 = 0 at entry -lo.

    Every row is drawn from its seed's own streams as one fGn draw of the
    padded size of width (so nearby widths share one eigenvalue cache
    entry; it exceeds ``MAX_INCREMENTS`` exactly when width does),
    cumulated once and less its value at entry -lo; ``H`` is one float or
    one per seed, and ``scales``, one per seed, multiplies a seed's
    increments before they are cumulated.  A component that ``reads``
    leaves out is zeros: no handle is keyed to its stream.  The components
    read are rows of one draw; a width of 0 draws nothing."""
    width = max(hi - lo for lo, hi in ranges)
    size = _padded_size(width)
    streams = [stream for stream, read in zip((STREAM_X1, STREAM_X2), reads) if read]
    v = np.zeros((len(streams) * len(seeds), width + 1))
    if size and streams:
        incs = sample_increments(H if np.ndim(H) == 0 else list(H) * len(streams),
                                 grid_spacing(n), size,
                                 [StreamKey(s, stream) for stream in streams for s in seeds])
        if scales is not None:
            incs *= np.array(list(scales) * len(streams))[:, None]
        np.cumsum(incs[:, :width], axis=1, out=v[:, 1:])
        if any(lo for lo, _ in ranges):  # less each row's X_0, at flat index r (width + 1) - lo
            v -= v.take([r * (width + 1) - lo
                         for r, (lo, _) in enumerate(ranges * len(streams))])[:, None]
    drawn = iter(v.reshape(len(streams), len(seeds), width + 1))
    return [next(drawn) if read else np.zeros((len(seeds), width + 1)) for read in reads]


def _path_draws(H, n: int, ranges: list[tuple[int, int]], seeds: list[int], kernel,
                width: int | None = None, scales: list[float] | None = None,
                reads: tuple[bool, bool] = (True, True)) -> np.ndarray:
    """``kernel(v1, v2, ranges)`` on each seed's path on its grid range
    ``ranges[i] = (lo, hi)``, lo <= 0 <= hi, at Hurst index ``H``, one float
    or one per seed, gathered in seed order: one value per seed, or one row
    of ``width`` values.

    The seeds whose hi - lo pads to one power of two share one fGn draw of
    that size, sorted by hi - lo, in chunks whose drawn components pass at
    most about ``BLOCK_VALUES`` complex values through the draw, which
    bounds a chunk's working set: a chunk of one component holds twice the
    rows.  The kernel runs once per chunk, on its ``_path_rows``, X^1 and
    X^2, and their ranges as a ``(rows, 2)`` array: row r is X on
    lo..hi in its first hi - lo + 1 entries, X_0 at entry -lo, bit for bit
    the path ``_path_rows`` gives the seed alone on that range, whatever H
    the other rows have.  Only
    the components that ``reads`` names are drawn (the kernel's
    ``variations._components_read``); the kernel gets zeros for the other,
    which by that rule moves no bit of its value, and leaving it out moves
    no bit of the other: each row is its own seed's stream and the FFT runs
    row-wise.  The increments are freed before the kernel runs, so its
    temporaries reuse that memory."""
    out = np.empty(len(seeds) if width is None else (len(seeds), width))
    padded: dict[int, list[int]] = {}
    for i in sorted(range(len(seeds)), key=lambda i: ranges[i][1] - ranges[i][0]):
        padded.setdefault(_padded_size(ranges[i][1] - ranges[i][0]), []).append(i)
    components = max(1, sum(reads))
    for size, idx in padded.items():
        step = max(1, BLOCK_VALUES // (2 * components * max(size, 1)))
        for block in (idx[lo : lo + step] for lo in range(0, len(idx), step)):
            chunk = [ranges[i] for i in block]
            paths = _path_rows(H if np.ndim(H) == 0 else [H[i] for i in block], n, chunk,
                               [seeds[i] for i in block],
                               None if scales is None else [scales[i] for i in block], reads)
            out[block] = kernel(*paths, np.array(chunk))
    return out
