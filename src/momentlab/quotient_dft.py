"""Independent finite-quotient DFT oracle.

A modulated step function supported in the ball of radius q^M and locally
constant at scale q^-r factors through the finite group (Z/q^(M+r))^k; the
q-adic Fourier transform then coincides with the standard discrete Fourier
transform on that group, up to the Haar cell volume q^(-rk).

This module evaluates functions pointwise on the quotient grid and
transforms with numpy's FFT, giving a correctness anchor that shares no
code path with the symbolic term calculus in stepfn.  Each term is a rank-1
product of axis vectors added on its strided support, a cache-sized slab of
planes at a time; the FFTs run in place, bitwise numpy's out-of-place calls.
``live_lines`` reads off f's terms, never a grid, which lines along the last
axis they write, and the transforms and L^2 norms pass over every other
line, which is +0.  ``compare_transform`` checks f-hat against the DFT of f
with no grid past one slab unless f writes every axis-0 plane: it holds f's
live planes and takes their axis-0 FFT one block of columns at a time,
against f-hat's values on the block; ``compare_on_grid`` checks a function
against a convolution grid a slab at a time.  Grid values, FFTs and maxima
equal the whole-grid computations' (up to the sign of a zero); L^2 norms are
summed per slab or block (on a grid of one slab, one sum over it).

It is an oracle only: ``verify.oracle_agreement``, the tests and the
Fourier demo use it, and no check or norm computes through it, so it stays
independent of the modulus-cell planner it checks.
"""

from __future__ import annotations

import math

import numpy as np

from . import errors
from .errors import check_budget
from .qadic import QRational

__all__ = [
    "grid_geometry",
    "evaluate_on_grid",
    "dft_grid",
    "convolve_grids",
    "live_lines",
    "grid_l2_norm",
    "compare_on_grid",
    "compare_transform",
]

SLAB_POINTS = 2**15  # per slab (at least one grid plane, or one FFT line): 512 KiB of complex128 stays in cache


def grid_geometry(f) -> tuple[int, int]:
    """(M, r): support radius exponent and constancy scale of the function.

    The spatial grid is the ball of radius q^M sampled at step q^-r; the
    frequency grid is the ball of radius q^r sampled at step q^-M.
    """
    M = 0
    r = max(0, f.scale_exp)
    for _, b, cube in f.terms:
        M = max(M, -cube.scale_exp)
        for c in cube.corner:
            if not c.is_zero:
                M = max(M, -c.valuation)
        for bi in b:
            if not bi.is_zero:
                r = max(r, -bi.valuation)
    return M, r


def _axis_offsets(q: int, M: int, value: QRational) -> int:
    """value as an integer multiple of q^-M (value must have valuation >= -M)."""
    if value.is_zero:
        return 0
    if value.valuation < -M:
        raise ValueError(f"{value} has digits below the grid resolution q^-{M}")
    return value.unit * q ** (value.valuation + M)


def _phase_numerators(mult: int, u: np.ndarray, n: int) -> np.ndarray:
    """(mult * u) % n for 0 <= mult, u < n, exact for every n.

    int64 products wrap once n * n >= 2^63 (n above about 3.0e9); past that
    the products are taken in Python ints.
    """
    if n * n < 2**63:
        return (mult * u) % n
    return (u.astype(object) * mult % n).astype(np.int64)


def live_lines(f, M: int, r: int) -> np.ndarray | None:
    """Which lines along the last axis of f's spatial grid (M, r) its terms write, by axis-0..k-2 index.

    A term writes only where u_i = w_i mod step on every axis, as in
    ``_slabs``; every line off the mask stays +0, so the transforms and
    ``grid_l2_norm`` pass over it.  None for a grid of at most one slab,
    which those take whole.
    """
    n = f.q ** (M + r)
    if n**f.k <= SLAB_POINTS:
        return None
    step = f.q ** (f.scale_exp + M)
    live = np.zeros((n,) * (f.k - 1), dtype=bool)
    for _, _, cube in f.terms:
        live[tuple(slice(_axis_offsets(f.q, M, c) % step, n, step) for c in cube.corner.coords[:-1])] = True
    return live


def _slabs(f, M: int, r: int, grid: np.ndarray | None = None, axis: int = 0):
    """f's values on the quotient grid (M, r), written a slab of planes across ``axis`` at a time.

    Yields after each slab: ``grid`` (zero on entry: the whole grid, or just
    the axis-0 planes f's terms write, in order) or, without one, a buffer
    holding just the slab, zeroed for each.  Terms are added on their strided
    support in order, each as axis 0 times axis 1 times ..., then coeff: the
    rounding of a dense outer-product sum, to which the tests pin the values.
    """
    q, k = f.q, f.k
    n = q ** (M + r)
    step = q ** (f.scale_exp + M)  # canonical cubes share one side; membership: u = w mod step
    if not 1 <= step <= n:
        raise ValueError("cube side outside the grid's resolution and radius")
    planes = n  # a power of q: a slab holds whole strides of support rows, or at most one
    while planes > 1 and planes * n ** (k - 1) > SLAB_POINTS:
        planes //= q
    target = np.empty((n,) * axis + (planes,) + (n,) * (k - 1 - axis), dtype=np.complex128) if grid is None else grid
    lanes = None  # for a grid of just the axis-0 planes f's terms write: their offsets
    if grid is not None and grid.shape[0] < n:
        lanes = sorted({_axis_offsets(q, M, cube.corner[0]) % step for _, _, cube in f.terms})
    ones = np.ones(n // step, dtype=np.complex128)  # read-only, shared by every unmodulated axis
    terms = []
    for coeff, b, cube in f.terms:
        offsets, support, axis_vectors = [], [], []
        for i in range(k):
            w = _axis_offsets(q, M, cube.corner[i]) % step
            offsets.append(w)
            support.append(slice(w % target.shape[i], n, step))  # in a slab buffer, w mod planes across axis
            bi = b[i]
            if bi.is_zero:
                axis_vectors.append(ones)
            else:
                # b_i * x_i = unit * u * q^(val - M); over denominator n the
                # numerator unit * u * q^(val + r) is integral because any
                # canonical modulation on this grid has val >= -r.
                if bi.valuation + r < 0:
                    raise ValueError(f"modulation {bi} finer than the grid dual q^{r}")
                mult = bi.unit * q ** (bi.valuation + r) % n
                phase = _phase_numerators(mult, np.arange(w, n, step, dtype=np.int64), n)
                axis_vectors.append(np.exp(2j * np.pi * phase / n))
        if lanes:  # plane w + j * step is row j * len(lanes) + lanes.index(w) of the grid
            support[0] = slice(lanes.index(offsets[0]), None, len(lanes))
        terms.append((coeff, offsets[axis], axis_vectors, target[tuple(support)]))
    scratch = np.empty(ones.shape * axis + (-(-planes // step),) + ones.shape * (k - 1 - axis), dtype=np.complex128)
    cut = (slice(None),) * axis
    for p in range(0, n, planes):
        if grid is None:
            target.fill(0)
        for coeff, w, axis_vectors, view in terms:
            lo, hi = -((w - p) // step), -((w - p - planes) // step)  # support rows in the slab
            if lo < hi:
                vectors = list(axis_vectors)
                vectors[axis] = vectors[axis][lo:hi]
                term, tmp = vectors[0], scratch[cut + (slice(hi - lo),)]
                for i in range(1, k):
                    term = np.multiply.outer(term, vectors[i], out=tmp if i == k - 1 else None)
                base = lo if grid is None else 0  # the view's first row in the slab
                view[cut + (slice(lo - base, hi - base),)] += np.multiply(coeff, term, out=tmp)
        yield target


def evaluate_on_grid(f, M: int, r: int) -> np.ndarray:
    """Pointwise values on the quotient grid, shape (q^(M+r),) * k.

    Index u along an axis encodes the point u * q^-M, which enumerates the
    ball of radius q^M modulo q^r.  Works for spatial or frequency grids
    alike (swap the roles of M and r for the latter).
    """
    n = f.q ** (M + r)
    check_budget(n**f.k, errors.GRID_BUDGET, "grid of {estimated} points exceeds the budget")
    grid = np.zeros((n,) * f.k, dtype=np.complex128)
    for _ in _slabs(f, M, r, grid):
        pass
    return grid


def compare_on_grid(ref: np.ndarray, f, M: int, r: int) -> tuple[float, float]:
    """(max |ref|, max |ref - f|) against f's values on the grid (M, r), a slab at a time.

    Bitwise the whole-grid maxima; past one slab f's grid is never whole.
    """
    ref, peaks, done = ref.reshape(-1), [-math.inf, -math.inf], 0  # a view of a C-contiguous grid
    for z in _slabs(f, M, r):
        z = z.reshape(-1)
        _fold_peaks(peaks, ref[done : done + z.size], z, np.empty(z.size))
        done += z.size
    return float(peaks[0]), float(peaks[1])


def compare_transform(f, fhat, M: int, r: int) -> tuple[float, float, float, float]:
    """(L^2 norm of f, max |F|, max |F - fhat|, L^2 norm of fhat), F the DFT of f's spatial grid (M, r).

    f's live axis-0 planes are transformed along axes k-1..1, then along axis
    0 a block of axis-1 rows at a time (at once where every plane is live: one
    slab, or k = 1), each block scaled and compared with fhat's values on it.
    """
    q, k = f.q, f.k
    n = q ** (M + r)
    check_budget(n**k, errors.GRID_BUDGET, "grid of {estimated} points exceeds the budget")
    live = live_lines(f, M, r)
    planes = np.arange(n) if live is None or k == 1 else np.flatnonzero(live.reshape(n, -1).any(axis=1))
    every = planes.size == n
    live = live if every else live[planes]
    spatial = np.zeros((planes.size,) + (n,) * (k - 1), dtype=np.complex128)
    for _ in _slabs(f, M, r, spatial):
        pass
    grid_l2 = grid_l2_norm(spatial, q, r, live)
    _fft_trailing(spatial, live)
    if every:
        np.fft.fft(spatial, axis=0, out=spatial)
    axis, p, peaks, norm_sq = min(1, k - 1), 0, [-math.inf, -math.inf], 0.0
    for z in _slabs(fhat, r, M, axis=axis):
        cut = (slice(None),) * axis + (slice(p, p + z.shape[axis]),)
        if every:
            block = spatial[cut]
        else:  # dead planes are +0
            block = np.zeros_like(z)
            block[planes] = spatial[cut]
            np.fft.fft(block, axis=0, out=block)
        block *= 1 / q ** (r * k)  # int true division: q^-rk correctly rounded
        mod = np.abs(z)
        norm_sq += np.add.reduce(np.square(mod, out=mod).reshape(-1))
        _fold_peaks(peaks, block, z, mod)
        p += z.shape[axis]
    return grid_l2, float(peaks[0]), float(peaks[1]), float(np.sqrt(norm_sq * (1 / q ** (M * k))))


def _fold_peaks(peaks: list, a: np.ndarray, z: np.ndarray, mod: np.ndarray) -> None:
    """Fold max |a| and max |a - z| into ``peaks``; overwrites z and mod."""
    for i, x in enumerate((np.abs(a, out=mod).max(), np.abs(np.subtract(a, z, out=z), out=mod).max())):
        if x > peaks[i] or math.isnan(x):  # a NaN stays, as in the whole-grid max
            peaks[i] = x


def dft_grid(grid: np.ndarray, q: int, r: int, live: np.ndarray | None) -> np.ndarray:
    """Forward transform of spatial grid values (cell volume q^-r per axis), with their ``live_lines``.

    In place: returns ``grid``, whose index s now encodes frequency s * q^-r.
    """
    np.fft.fft(_fft_trailing(grid, live), axis=0, out=grid)
    grid *= 1 / q ** (r * grid.ndim)  # int true division: q^-rk correctly rounded
    return grid


def _fft_trailing(grid: np.ndarray, live: np.ndarray | None) -> np.ndarray:
    """Axes k-1..1 of ``np.fft.fftn(grid, out=grid)``, calling the FFT only on the lines ``live`` marks.

    fftn runs the last axis first.  Once axes k-1..a+1 are done, a line along
    axis a is still all +0 unless a live line lies under its axis-0..a-1
    prefix, and the FFT maps it to zeros (+0, or at Bluestein lengths such as
    101 some -0.0), so it is left as it is.  Axis 0, then transformed in full
    by the caller, may hold just some planes of a grid.  In place.
    """
    n, k = grid.shape[-1], grid.ndim
    if live is None:
        for a in range(k - 1, 0, -1):  # as fftn does, without its argument handling
            np.fft.fft(grid, axis=a, out=grid)
        return grid
    for a in range(k - 1, 0, -1):
        lines = grid.reshape(-1, n, n ** (k - 1 - a))  # a view: (axis-0..a-1 prefix, axis a, the rest)
        prefixes = np.flatnonzero(live)
        per_slab = max(1, SLAB_POINTS // (n * lines.shape[2]))
        for lo in range(0, prefixes.size, per_slab):
            chunk = prefixes[lo : lo + per_slab]
            block = lines[chunk]
            lines[chunk] = np.fft.fft(block, axis=1, out=block)
        live = live.any(axis=-1)
    return grid


def convolve_grids(a: np.ndarray, b: np.ndarray, q: int, r: int, live_a, live_b) -> np.ndarray:
    """Circular (= exact group) convolution of two spatial grids with their ``live_lines``.

    In place: returns ``a``, consumes ``b``.
    """
    out = a if a.size > 1 else None  # numpy rounds a one-point complex product made in place differently
    a_hat = np.fft.fft(_fft_trailing(a, live_a), axis=0, out=a)
    b_hat = np.fft.fft(_fft_trailing(b, live_b), axis=0, out=b)
    np.fft.ifftn(np.multiply(a_hat, b_hat, out=out), out=a)
    a *= 1 / q ** (r * a.ndim)
    return a


def grid_l2_norm(grid: np.ndarray, q: int, r: int, live: np.ndarray | None) -> float:
    """``np.sqrt((np.abs(grid) ** 2).sum() * cell)`` of a C-contiguous grid with its ``live_lines``.

    Summed a chunk of at most one slab of live lines at a time, so no
    temporary outgrows a slab; a grid of one slab (``live`` None) is one sum.
    """
    flat, cell, norm_sq = grid.reshape(-1), 1 / q ** (r * grid.ndim), 0.0
    if live is None:
        chunks = [flat]
    else:
        n, rows = grid.shape[-1], np.flatnonzero(live)
        per = max(1, SLAB_POINTS // n)  # lines per chunk
        chunks = (flat.reshape(-1, n)[rows[lo : lo + per]] for lo in range(0, rows.size, per))
    for chunk in chunks:
        mod = np.abs(chunk)
        norm_sq += np.add.reduce(np.square(mod, out=mod), axis=None)
    return float(np.sqrt(norm_sq * cell))
