"""Seeded random instances for the verification suites.

All randomness flows through ``random.Random(seed)`` so every suite is
reproducible; the default seed everywhere is 0.
"""

from __future__ import annotations

import random

from . import errors
from .geometry import Cube, Interval, _diff_corners, gamma, tangent_frame
from .qadic import QRational, QVector
from .stepfn import ModulatedStep

__all__ = [
    "random_modstep",
    "random_box_function",
    "random_curve_supported",
]


def random_modstep(
    rng: random.Random,
    q: int,
    k: int,
    n_terms: int,
    scale_exp: int,
    mod_depth: int = 3,
) -> ModulatedStep:
    """Random cubes at one scale inside the unit cube, modulated coefficients."""
    terms = []
    for _ in range(n_terms):
        corner = QVector(
            [QRational(q, rng.randrange(q**scale_exp)).rep_mod(scale_exp) for _ in range(k)]
        )
        cube = Cube(corner, scale_exp)
        mod = QVector(
            [QRational(q, rng.randrange(q**mod_depth), -mod_depth).rep_mod(0) for _ in range(k)]
        )
        coeff = complex(rng.gauss(0, 1), rng.gauss(0, 1))
        terms.append((coeff, mod, cube))
    return ModulatedStep(q, k, terms)


def random_box_function(
    rng: random.Random,
    q: int,
    k: int,
    K: Interval,
    n_terms: int,
) -> ModulatedStep:
    """A function Fourier supported in the curve box over K.

    Built on the frequency side from the box's exact cube decomposition
    (shifted to the curve point), then transported back; the spatial
    support is the ball of radius delta^-k.
    """
    m = K.scale_exp
    modulus, entries = q ** (m * k), tangent_frame(K.corner, k)
    steps = [q ** (m * j) for j in range(1, k + 1)]  # group point t: t_j a multiple of q^(mj) below q^(mk)
    anchor_shift = gamma(K.corner, k)
    terms = []
    for _ in range(n_terms):
        # the cube of theta_diff_decompose(K, k) at an index drawn as rng.choice would, built alone
        index, t = rng.randrange(q ** (m * k * (k - 1) // 2)), []
        for step in reversed(steps):
            index, digit = divmod(index, modulus // step)
            t.insert(0, digit * step)
        corner = (QVector.from_ints(q, _diff_corners(entries, t, modulus)) + anchor_shift).rep_mod(m * k)
        coeff = complex(rng.gauss(0, 1), rng.gauss(0, 1))
        terms.append((coeff, QVector.zero(q, k), Cube(corner, m * k)))
    hat = ModulatedStep(q, k, terms)
    return hat.inverse_fourier()


def random_curve_supported(
    rng: random.Random,
    q: int,
    k: int,
    delta_exp: int,
    n_intervals: int,
    terms_per_interval: int = 2,
) -> ModulatedStep:
    """A function Fourier supported in the union of curve boxes.

    Picks a few intervals of the fine partition by their indices (interval
    i has corner i) and superposes box functions over them.
    """
    n = q**delta_exp
    errors.check_budget(n, errors.CELL_BUDGET, "partition into {estimated} intervals exceeds the budget")
    chosen = [Interval(QRational(q, i), delta_exp) for i in rng.sample(range(n), min(n_intervals, n))]
    boxes = [random_box_function(rng, q, k, K, terms_per_interval) for K in chosen]
    return ModulatedStep(q, k, [term for box in boxes for term in box.terms])
