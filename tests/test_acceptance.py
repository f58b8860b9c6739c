"""Acceptance gate: every desk-scale criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible under ``pytest -s`` or in the
summary of a failing run).  Criteria combine exact identity checks,
exhaustive lemma verification at small parameters, and seeded property
suites; the asymptotic headline statements are represented by their exact
finite-parameter consequences.

The valid parameter grid always respects q > k (the frame matrices are
unimodular only then), so the (q, k) = (3, 3) cell is skipped where a
criterion sweeps q in {3, 5} and k up to 3.
"""

import time
from fractions import Fraction

import pytest

from momentlab import verify
from momentlab.stepfn import REL_TOL
from momentlab.vinogradov import count_J

RESULTS = []


def record(number, label, passed, budget_s, elapsed, detail=""):
    status = "PASS" if passed else "FAIL"
    line = f"ACCEPTANCE {number:>2}: {status}  {label}  [{elapsed:.1f}s < {budget_s}s] {detail}"
    print(line)
    RESULTS.append(line)
    assert passed, line
    assert elapsed < budget_s, f"runtime budget exceeded: {line}"


def test_criterion_01_fourier_identity():
    t0 = time.perf_counter()
    reports = [verify.fourier_identity(q, ks=(1, 2, 3)) for q in (3, 5)]
    ok = all(r["passed"] for r in reports)
    record(1, "transform fixes the unit cube (q in {3,5}, k in {1,2,3})", ok, 1.0, time.perf_counter() - t0)


def test_criterion_02_oracle_agreement():
    assert REL_TOL == 1e-9  # the oracle's tolerance
    t0 = time.perf_counter()
    worst = 0.0
    ok = True
    for q in (3, 5):
        for k in (1, 2, 3):
            r = verify.oracle_agreement(q, k, n_instances=100, seed=0)
            ok = ok and r["passed"]
            worst = max(worst, r["worst_rel_error"])
    record(
        2,
        "norms/transform/convolution vs quotient DFT, 100 seeded instances per (q,k)",
        ok and worst <= 1e-9,
        2.0,
        time.perf_counter() - t0,
        f"worst rel err {worst:.2e}",
    )


def test_criterion_03_tilings():
    t0 = time.perf_counter()
    ok = True
    for q, k in ((3, 2), (5, 2), (5, 3)):
        r = verify.tilings(q, k, delta_exps=(1, 2))
        ok = ok and r["passed"]
    record(
        3,
        "both tiling counts d^(-k(k-1)/2) with exact disjoint unions (q>k cells)",
        ok,
        1.0,
        time.perf_counter() - t0,
    )


def test_criterion_04_wavepackets():
    t0 = time.perf_counter()
    r = verify.wavepackets_suite(3, 2, delta_exps=(1, 2), n_instances=50, seed=0)
    record(
        4,
        "wavepacket reconstruction/constant modulus/box support, 50 seeded instances",
        r["passed"],
        1.0,
        time.perf_counter() - t0,
    )


def test_criterion_05_linnik():
    t0 = time.perf_counter()
    r = verify.linnik_suite(pairs=((2, 3), (2, 5), (3, 5)))
    bounds = {key: v["bound"] for key, v in r["results"].items()}
    expected = {"k=2,p=3": 6, "k=2,p=5": 10, "k=3,p=5": 750}
    record(
        5,
        "exhaustive residue maxima under k! p^(k(k-1)/2) (bounds 6, 10, 750)",
        r["passed"] and bounds == expected,
        10.0,
        time.perf_counter() - t0,
        str({key: v["max"] for key, v in r["results"].items()}),
    )


def test_criterion_06_vinogradov_counts():
    t0 = time.perf_counter()
    r = verify.vinogradov_suite()
    anchors = count_J(2, 2, 2) == 6 and count_J(2, 2, 3) == 15
    record(
        6,
        "exact counts: diagonal, 2X^2-X closed form, multiset ceiling, dual strategies",
        r["passed"] and anchors,
        10.0,
        time.perf_counter() - t0,
    )


def test_criterion_07_counting_lemma():
    t0 = time.perf_counter()
    r = verify.counting_lemma_suite(cases=((3, 2, 2, 1), (5, 2, 2, 1)))
    ok = r["passed"] and all(v["bound"] == 1 for v in r["results"].values())
    record(
        7,
        "every admissible transverse query meets zero at most (q kappa)^(-k(k-1)) = 1 times",
        ok,
        10.0,
        time.perf_counter() - t0,
        str(r["results"]),
    )


def test_criterion_08_broad_narrow():
    t0 = time.perf_counter()
    r = verify.broad_narrow_suite(3, 2, n_instances=50, seed=0)
    record(
        8,
        "pointwise dichotomy on every constancy cell, 50 seeded instances",
        r["passed"],
        10.0,
        time.perf_counter() - t0,
        f"narrow cells {r['narrow_binding_cells']}, broad cells {r['broad_binding_cells']}",
    )


def test_criterion_09_main_and_reversed_inequalities():
    t0 = time.perf_counter()
    r1 = verify.main_lemma_suite(3, 2, p=8, n_instances=20, seed=0)
    r2 = verify.reversed_holder_suite(3, 2, p=8, n_instances=20, seed=0)
    # independent factor recomputation on sampled instances
    import random

    from momentlab import decoupling as dec
    from momentlab import quotient_dft as qd
    from momentlab.geometry import unit_interval
    from momentlab.random_instances import random_curve_supported
    from momentlab.wavepackets import ScaleConfig

    rng = random.Random(0)
    cfg = ScaleConfig.from_epsilon(3, 2, 2, Fraction(1, 2))
    factors_ok = True
    for _ in range(3):
        g = random_curve_supported(rng, 3, 2, 2, rng.randint(1, 9), 2)
        rep = dec.verify_main_lemma(g, cfg, 8)
        comps = g.freq_components(cfg.fine_partition())
        live = [fK for fK in comps.values() if not fK.is_zero]
        # sup norms recomputed through the numpy grid evaluator
        max_inf = sum_inf = 0.0
        for fK in live:
            M, r = qd.grid_geometry(fK)
            import numpy as np

            grid_max = float(np.abs(qd.evaluate_on_grid(fK, M, r)).max())
            max_inf = max(max_inf, grid_max)
            sum_inf += grid_max
        n_mid = sum(
            1 for gJ in g.freq_components(unit_interval(3).partition(cfg.nu_exp)).values() if not gJ.is_zero
        )
        factors_ok = factors_ok and abs(max_inf - rep["max_piece_sup"]) < 1e-9
        factors_ok = factors_ok and abs(sum_inf - rep["sum_piece_sup"]) < 1e-9
        factors_ok = factors_ok and n_mid == rep["N"]
    record(
        9,
        "two-branch moment inequality and reversed Hoelder, 20 seeded instances each",
        r1["passed"] and r2["passed"] and factors_ok,
        10.0,
        time.perf_counter() - t0,
        f"min slack {min(r1['min_slack'], r2['min_slack']):.3g}",
    )


def test_criterion_10_exponent_identities():
    t0 = time.perf_counter()
    r = verify.exponent_suite()
    record(
        10,
        "exact rational exponent identities, monotone b, positivity propagation",
        r["passed"],
        1.0,
        time.perf_counter() - t0,
    )


def test_criterion_11_karatsuba():
    t0 = time.perf_counter()
    r = verify.karatsuba_suite()
    record(
        11,
        "iteration bound dominates exact counts; symbolic exponents match closed form",
        r["passed"],
        10.0,
        time.perf_counter() - t0,
    )


def test_criterion_12_extremizer():
    t0 = time.perf_counter()
    r = verify.extremizer_suite(3, 2, delta_exps=(1, 2), ps=(4, 12))
    record(
        12,
        "wave-superposition ratios: counting cross-check, ceiling, monotone at p=12",
        r["passed"],
        10.0,
        time.perf_counter() - t0,
        str({key: round(v, 4) for key, v in r["ratios"].items()}),
    )


@pytest.fixture(scope="module", autouse=True)
def summary():
    yield
    print()
    for line in RESULTS:
        print(line)
