#!/usr/bin/env python3
"""The exact Fourier calculus for modulated step functions.

Finite sums of (coefficient x character x cube indicator) close under
products, convolution, and the transform, all in closed form.  A numpy
DFT over the finite quotient group provides an independent check.
"""

import random

import numpy as np

import momentlab.quotient_dft as qd
from momentlab import ModulatedStep, ball
from momentlab.random_instances import random_modstep

q, k = 3, 2

print("== the unit cube is a fixed point of the transform ==")
one = ModulatedStep.indicator(ball(q, k, 0))
print("  FT(1) == 1 exactly:", one.fourier().is_identical(one))

print("\n== a random function against the quotient DFT oracle ==")
rng = random.Random(0)
f = random_modstep(rng, q, k, n_terms=4, scale_exp=2)
M, r = qd.grid_geometry(f)
grid = qd.evaluate_on_grid(f, M, r)
oracle = qd.dft_grid(grid, q, r, qd.live_lines(f, M, r))
symbolic = qd.evaluate_on_grid(f.fourier(), r, M)
print(f"  grid side {q}^{M + r}, worst deviation {np.abs(oracle - symbolic).max():.2e}")

print("\n== Plancherel ==")
print(f"  ||f||_2 = {f.lp_norm(2):.12f}")
print(f"  ||FT f||_2 = {f.fourier().lp_norm(2):.12f}")

print("\n== convolution theorem ==")
g = random_modstep(rng, q, k, n_terms=3, scale_exp=1)
lhs = (f * g).fourier()
rhs = f.fourier().convolve(g.fourier())
print("  FT(f g) == FT(f) * FT(g):", lhs.close_to(rhs, 1e-10))

print("\n== frequency restriction is a partition of unity ==")
from momentlab import unit_interval
from momentlab.random_instances import random_curve_supported

h = random_curve_supported(rng, q, k, 2, 4, 2)
pieces = h.freq_components(unit_interval(q).partition(2))
total = ModulatedStep.zero(q, k)
for piece in pieces.values():
    total = total + piece
print("  sum of the pieces reproduces the function:", total.close_to(h, 1e-10))
print("  nonzero pieces:", sum(1 for piece in pieces.values() if not piece.is_zero))
