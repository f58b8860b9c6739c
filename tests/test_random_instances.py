"""Seeded instance builders against their straightforward constructions."""

import random

import pytest

from momentlab.geometry import unit_interval
from momentlab.random_instances import random_box_function, random_curve_supported
from momentlab.stepfn import ModulatedStep


def curve_supported_by_chain(rng, q, k, delta_exp, n_intervals, terms_per_interval=2):
    """Reference: the same box functions summed one ``+`` at a time."""
    fine = unit_interval(q).partition(delta_exp)
    chosen = rng.sample(fine, min(n_intervals, len(fine)))
    total = ModulatedStep.zero(q, k)
    for K in chosen:
        total = total + random_box_function(rng, q, k, K, terms_per_interval)
    return total


@pytest.mark.parametrize("q, k, m", [(3, 1, 1), (3, 1, 2), (3, 2, 1), (3, 2, 2), (5, 1, 2), (5, 2, 1), (5, 2, 2)])
def test_curve_supported_is_the_chain_sum(q, k, m):
    for seed in range(20):
        n = random.Random(seed).randint(0, q**m)
        got = random_curve_supported(random.Random(seed), q, k, m, n, 1 + seed % 3)
        want = curve_supported_by_chain(random.Random(seed), q, k, m, n, 1 + seed % 3)
        assert got.is_identical(want)
