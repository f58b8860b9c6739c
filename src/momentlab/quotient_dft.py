"""Independent finite-quotient DFT oracle.

A modulated step function supported in the ball of radius q^M and locally
constant at scale q^-r factors through the finite group (Z/q^(M+r))^k; the
q-adic Fourier transform then coincides with the standard discrete Fourier
transform on that group, up to the Haar cell volume q^(-rk).

This module evaluates functions pointwise on the quotient grid and
transforms with numpy's FFT, giving a correctness anchor that shares no
code path with the symbolic term calculus in stepfn.  Each term is a rank-1
product of axis vectors written into its strided support slice of the grid.
The grid is filled in cache-sized slabs of axis-0 rows, every term within a
slab, so the slab stays in cache across the terms.  The FFTs run in place
and consume their input grids, with results bitwise those of numpy's
out-of-place calls; on a grid larger than one slab the forward transform
calls the FFT only on the lines that are not all zero (a spatial grid is a
few strided sublattices, one point per term at the finest scale).
``max_abs_and_error`` takes both maxima of an oracle comparison in one pass
of slabs, with no whole-grid temporary.

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
    "grid_l2_norm",
    "max_abs_and_error",
]

SLAB_POINTS = 2**15  # per slab (at least one axis-0 row of a term, or one FFT line): 512 KiB of complex128 stays in cache


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


def evaluate_on_grid(f, M: int, r: int) -> np.ndarray:
    """Pointwise values on the quotient grid, shape (q^(M+r),) * k.

    Index u along an axis encodes the point u * q^-M, which enumerates the
    ball of radius q^M modulo q^r.  Works for spatial or frequency grids
    alike (swap the roles of M and r for the latter).
    """
    q, k = f.q, f.k
    n = q ** (M + r)
    check_budget(n**k, errors.GRID_BUDGET, "grid of {estimated} points exceeds the budget")
    step = q ** (f.scale_exp + M)  # canonical cubes share one side; membership: u = w mod step
    if not 1 <= step <= n:
        raise ValueError("cube side outside the grid's resolution and radius")
    grid = np.zeros((n,) * k, dtype=np.complex128)
    m = n // step  # support points per axis
    rows = min(m, SLAB_POINTS // m ** (k - 1) or 1)
    scratch = np.empty((rows,) + (m,) * (k - 1), dtype=np.complex128)
    ones = np.ones(m, dtype=np.complex128)  # read-only, shared by every unmodulated axis
    terms = []
    for coeff, b, cube in f.terms:
        support, axis_vectors = [], []
        for i in range(k):
            w = _axis_offsets(q, M, cube.corner[i]) % step
            support.append(slice(w, n, step))
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
        terms.append((coeff, grid[tuple(support)], axis_vectors))
    # slab by slab, every term in order (the slab's grid rows stay in cache);
    # multiply axis 0, axis 1, ..., then coeff: the rounding of a dense
    # outer-product sum, to which the tests pin every grid value bitwise
    for lo in range(0, m, rows):
        out = scratch[: m - lo]
        for coeff, view, axis_vectors in terms:
            term = axis_vectors[0][lo : lo + rows]
            for i in range(1, k):
                term = np.multiply.outer(term, axis_vectors[i], out=out if i == k - 1 else None)
            np.multiply(coeff, term, out=out)
            view[lo : lo + rows] += out
    return grid


def dft_grid(grid: np.ndarray, q: int, r: int) -> np.ndarray:
    """Forward transform of spatial grid values (cell volume q^-r per axis).

    In place: returns ``grid``, whose index s now encodes frequency s * q^-r.
    """
    _fftn_live_lines(grid)
    grid *= 1 / q ** (r * grid.ndim)  # int true division: q^-rk correctly rounded
    return grid


def _fftn_live_lines(grid: np.ndarray) -> np.ndarray:
    """``np.fft.fftn(grid, out=grid)`` bitwise, calling the FFT only on lines not all +0.

    fftn runs the last axis first.  Once axes k-1..a+1 are done, a line along
    axis a is still all +0 unless the input has a set bit under its axis-0..a-1
    prefix; leaving it is exact when the FFT maps a +0 line to a +0 line (not
    so for Bluestein lengths such as 101).  Axis 0 is transformed in full.
    """
    n, k = grid.shape[0], grid.ndim
    if grid.size <= SLAB_POINTS or np.fft.fft(np.zeros(n, dtype=np.complex128)).view(np.uint64).any():
        return np.fft.fftn(grid, out=grid)
    live = grid.view(np.uint64).any(axis=-1)  # per line along the last axis
    for a in range(k - 1, 0, -1):
        lines = grid.reshape(n**a, n, -1)  # a view: (axis-0..a-1 prefix, axis a, the rest)
        prefixes = np.flatnonzero(live)
        per_slab = max(1, SLAB_POINTS // (n * lines.shape[2]))
        for lo in range(0, prefixes.size, per_slab):
            chunk = prefixes[lo : lo + per_slab]
            block = lines[chunk]
            lines[chunk] = np.fft.fft(block, axis=1, out=block)
        live = live.any(axis=-1)
    return np.fft.fft(grid, axis=0, out=grid)


def max_abs_and_error(ref: np.ndarray, approx: np.ndarray) -> tuple[float, float]:
    """(max |ref|, max |ref - approx|) over two grids of one shape, slab by slab.

    Consumes ``approx``, which holds ref - approx afterwards.  A maximum is
    exact in any order, so both equal the whole-grid ``np.abs(...).max()``.
    """
    ref, diff = ref.reshape(-1), approx.reshape(-1)  # views of C-contiguous grids
    buf = np.empty(min(SLAB_POINTS, ref.size))
    peaks = [-math.inf, -math.inf]
    for lo in range(0, ref.size, buf.size):
        a, d = ref[lo : lo + buf.size], diff[lo : lo + buf.size]
        np.subtract(a, d, out=d)
        part = buf[: a.size]
        for i, x in enumerate((np.abs(a, out=part).max(), np.abs(d, out=part).max())):
            if x > peaks[i] or math.isnan(x):  # a NaN stays, as in the whole-grid max
                peaks[i] = x
    return float(peaks[0]), float(peaks[1])


def convolve_grids(a: np.ndarray, b: np.ndarray, q: int, r: int) -> np.ndarray:
    """Circular (= exact group) convolution of two spatial grids, in place: returns ``a``, consumes ``b``."""
    np.fft.ifftn(np.multiply(_fftn_live_lines(a), _fftn_live_lines(b), out=a), out=a)
    a *= 1 / q ** (r * a.ndim)
    return a


def grid_l2_norm(grid: np.ndarray, q: int, r: int) -> float:
    cell = 1 / q ** (r * grid.ndim)
    mod_sq = np.abs(grid)
    np.square(mod_sq, out=mod_sq)
    return float(np.sqrt(mod_sq.sum() * cell))

