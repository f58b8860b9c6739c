import ast
import random
from fractions import Fraction
from itertools import permutations, product
from math import fsum
from pathlib import Path

import numpy as np
import pytest

import momentlab.quotient_dft as qd
from momentlab import decoupling as dec
from momentlab import verify
from momentlab.errors import MomentLabError, SupportError, VerificationError
from momentlab.geometry import Cube, Interval, ball, gamma, tau_of, unit_interval
from momentlab.qadic import QRational, QVector
from momentlab.random_instances import random_box_function, random_curve_supported
from momentlab.stepfn import ModulatedStep
from momentlab.wavepackets import ScaleConfig, pigeonhole


def cfg92():
    return ScaleConfig.from_epsilon(3, 2, 2, Fraction(1, 2))


def tau_corners(q, k, delta_exp, kappa_exp):
    """The coarse intervals, their fine children, and each child's tau
    corner as an integer tuple."""
    coarse = unit_interval(q).partition(kappa_exp)
    fine_by_coarse = {I: I.partition(delta_exp) for I in coarse}
    tau_corner = {}
    for I in coarse:
        for K in fine_by_coarse[I]:
            corner = tau_of(K, k).corner
            tau_corner[K] = tuple(c.unit * q**c.valuation if not c.is_zero else 0 for c in corner)
    return coarse, fine_by_coarse, tau_corner


def box_loop_table(combo_I, fine_by_coarse, tau_corner, qm):
    """How many fine tuples under the coarse tuple have each tau-corner sum mod q^m."""
    k = len(combo_I)
    table = {}
    for combo_K in product(*(fine_by_coarse[I] for I in combo_I)):
        key = tuple(sum(tau_corner[K][i] for K in combo_K) % qm for i in range(k))
        table[key] = table.get(key, 0) + 1
    return table


def counting_lemma_box_loop(q, k, delta_exp, kappa_exp):
    """Reference: counting_lemma_exhaustive's report with every box residue
    w looked up one at a time, anchor tuple by anchor tuple."""
    qm = q**delta_exp
    coarse, fine_by_coarse, tau_corner = tau_corners(q, k, delta_exp, kappa_exp)
    worst, worst_query, n_queries = 0, None, 0
    for combo_I in permutations(coarse, k):
        table = box_loop_table(combo_I, fine_by_coarse, tau_corner, qm)
        for combo_Kbar in product(*(fine_by_coarse[I] for I in combo_I)):
            base = tuple(sum(tau_corner[K][i] for K in combo_Kbar) % qm for i in range(k))
            for w in product(range(qm), repeat=k):
                n_queries += 1
                count = table.get(tuple((base[i] - w[i]) % qm for i in range(k)), 0)
                if count > worst:
                    worst, worst_query = count, (combo_I, combo_Kbar, w)
    return reference_report(q, k, kappa_exp, worst, worst_query, n_queries)


def counting_lemma_by_tables(q, k, delta_exp, kappa_exp):
    """Reference: counting_lemma_exhaustive's report from one box_loop_table
    per ordered coarse tuple.  A box residue w meets the key (base - w) mod
    q^m, so the first maximum sits at the first anchor tuple, at the least w
    over the most frequent keys."""
    qm = q**delta_exp
    coarse, fine_by_coarse, tau_corner = tau_corners(q, k, delta_exp, kappa_exp)
    worst, worst_query, n_queries = 0, None, 0
    for combo_I in permutations(coarse, k):
        table = box_loop_table(combo_I, fine_by_coarse, tau_corner, qm)
        combo_Kbar = [fine_by_coarse[I][0] for I in combo_I]
        n_queries += len(fine_by_coarse[combo_I[0]]) ** k * qm**k
        best = max(table.values())
        if best > worst:
            base = [sum(tau_corner[K][i] for K in combo_Kbar) for i in range(k)]
            w = min(tuple((b - c) % qm for b, c in zip(base, key)) for key, n in table.items() if n == best)
            worst, worst_query = best, (combo_I, combo_Kbar, w)
    return reference_report(q, k, kappa_exp, worst, worst_query, n_queries)


def reference_report(q, k, kappa_exp, worst, worst_query, n_queries):
    bound = q ** ((kappa_exp - 1) * k * (k - 1))
    report = {
        "worst_count": worst,
        "bound": bound,
        "n_queries": n_queries,
        "holds": worst <= bound,
        "worst_query": None,
    }
    if worst_query is not None:
        combo_I, combo_Kbar, w = worst_query
        report["worst_query"] = {
            "intervals": [I.to_json() for I in combo_I],
            "anchors": [K.to_json() for K in combo_Kbar],
            "box_residue": list(w),
        }
    return report


class TestCertificates:
    def test_curve_supported_instances_pass(self):
        rng = random.Random(0)
        f = random_curve_supported(rng, 3, 2, 2, 4, 2)
        cert = dec.freq_certificate(f, 2)
        assert cert and all(K.scale_exp == 2 for K in cert)

    def test_off_curve_support_rejected(self):
        f = ModulatedStep.indicator(ball(3, 2, 0))
        with pytest.raises(SupportError):
            dec.freq_certificate(f, 2)

    @pytest.mark.parametrize(
        "check, splits",
        [(lambda f: dec.decoupling_ratio(f, 2, 8), lambda cfg: [cfg.fine_partition()]),
         (lambda f: dec.verify_main_lemma(f, cfg92(), 8), lambda cfg: [cfg.fine_partition()]),
         (lambda f: dec.reverse_square_check(f, 2, 1), lambda cfg: [cfg.fine_partition(), cfg.coarse_partition()]),
         (lambda f: pigeonhole(f, cfg92(), 8), lambda cfg: [cfg.fine_partition()])],
        ids=["ratio", "main-lemma", "reverse-square", "pigeonhole"],
    )
    def test_one_transform_per_step_and_one_inverse_per_live_piece(self, transforms, check, splits):
        rng = random.Random(5)
        for n in (1, 2, 5):
            f = random_curve_supported(rng, 3, 2, 2, n, 2)
            transforms.clear()
            check(f)
            calls = list(transforms)
            live = sum(len(f.freq_components(P)) for P in splits(cfg92()))
            # the certificate and every split share f's one transform; no
            # certified piece is transformed again
            assert calls == [False] + [True] * live


class TestRatio:
    def test_single_interval_gives_one(self):
        rng = random.Random(2)
        K = unit_interval(3).partition(2)[4]
        f = random_box_function(rng, 3, 2, K, 3)
        ratio, _ = dec.decoupling_ratio(f, 2, 6)
        assert abs(ratio - 1.0) < 1e-12

    def test_a_box_function_on_finer_cubes_gives_one(self):
        # the same function with its cubes subdivided to side 3: the
        # transform cubes then span several fine intervals, and over two of
        # them its characters cancel to rounding noise, which a threshold
        # taken per interval would count as support outside the boxes
        q, k, m = 3, 2, 2
        g = random_box_function(random.Random(5), q, k, unit_interval(q).partition(m)[5], 2)
        f = ModulatedStep(q, k, [(c, b, piece) for c, b, cube in g.terms for piece in cube.subdivide(-1)])
        assert f.close_to(g, 1e-12) and f.fourier().scale_exp < m
        ratio, _ = dec.decoupling_ratio(f, m, 8)
        assert abs(ratio - 1.0) < 1e-12
        # a bucket that cancels is no piece, so the per-piece checks of pigeonhole pass
        assert list(f.freq_components(cfg92().fine_partition())) == [unit_interval(q).partition(m)[5]]
        buckets, _, _ = pigeonhole(f, cfg92(), 8)
        assert len(buckets) == 3

    def test_odd_p_rejected(self):
        rng = random.Random(1)
        f = random_curve_supported(rng, 3, 2, 2, 2, 2)
        with pytest.raises(ValueError):
            dec.decoupling_ratio(f, 2, 5)

    def test_report_lists_the_certificate_intervals(self):
        rng = random.Random(4)
        f = random_curve_supported(rng, 3, 2, 2, 4, 2)
        cert = dec.freq_certificate(f, 2)
        _, rep = dec.decoupling_ratio(f, 2, 8)
        assert rep["certificate_intervals"] == [K.to_json() for K in sorted(cert, key=Interval.key)]
        assert len(rep["certificate_intervals"]) == rep["pieces"] == 4

    def test_disjoint_supports_with_equal_norms(self):
        # pieces on disjoint spatial balls: the ratio is (#K)^(1/p - 1/2)
        q, k, m, p = 3, 2, 1, 4
        big = ball(q, k, m * k)
        anchors = unit_interval(q).partition(m)
        terms = []
        for j, K in enumerate(anchors):
            corner = QVector([QRational(q, j, -(m * k + 1)), QRational(q, 0)])
            cube = Cube(corner.rep_mod(-m * k), -m * k)
            terms.append((1.0 + 0j, gamma(K.corner, k), cube))
        f = ModulatedStep(q, k, terms)
        ratio, rep = dec.decoupling_ratio(f, m, p)
        n = len(anchors)
        assert abs(ratio - n ** (1 / p - 1 / 2)) < 1e-12
        assert ratio <= n ** (1 / 2 - 1 / p) + 1e-12

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            dec.decoupling_ratio(ModulatedStep.zero(3, 2), 2, 4)

    def test_trivial_ceiling_on_random_instances(self):
        rng = random.Random(3)
        for _ in range(10):
            f = random_curve_supported(rng, 3, 2, 2, rng.randint(1, 9), 2)
            ratio, rep = dec.decoupling_ratio(f, 2, 8)
            assert ratio <= rep["trivial_ceiling"] * (1 + 1e-9)


class TestExtremizer:
    def test_plancherel_case_is_flat(self):
        ratio, _ = dec.exp_sum_lower_bound(3, 2, 1, 2)
        assert abs(ratio - 1.0) < 1e-12

    def test_counting_formula_agreement(self):
        for m, p in ((1, 4), (1, 12), (2, 4)):
            ratio, rep = dec.exp_sum_lower_bound(3, 2, m, p)
            assert abs(ratio - rep["ratio_from_count"]) < 1e-9

    def test_supercritical_growth(self):
        r1, rep1 = dec.exp_sum_lower_bound(3, 2, 1, 12)
        r2, rep2 = dec.exp_sum_lower_bound(3, 2, 2, 12)
        assert r2 >= r1 >= 1.0
        assert rep1["predicted_exponent"] == 0.25
        # the scale-one ratio already beats the predicted power of delta
        assert r1 >= 3 ** 0.25 - 1e-9


def dense_broad_narrow(g, cfg):
    """Reference: the dichotomy on every point of the dense quotient grid."""
    q, k = cfg.q, cfg.k
    coarse = cfg.coarse_partition()
    comps, zero = g.freq_components(coarse), ModulatedStep.zero(q, k)
    fns = [g] + [comps.get(I, zero) for I in coarse]
    geo = [qd.grid_geometry(fn) for fn in fns if not fn.is_zero]
    M, r = max(mm for mm, _ in geo), max(rr for _, rr in geo)
    flats = [
        np.zeros(q ** ((M + r) * k)) if fn.is_zero else qd.evaluate_on_grid(fn, M, r).reshape(-1)
        for fn in fns
    ]
    g_abs, piece_abs = np.abs(flats[0]), np.stack([np.abs(v) for v in flats[1:]])
    narrow = 2.0 ** (2 * k - 1) * float(k) ** (2 * k) * piece_abs.max(axis=0) ** (2 * k)
    core = np.max([np.prod(piece_abs[list(t)], axis=0) for t in permutations(range(len(coarse)), k)], axis=0)
    broad = 2.0 ** (2 * k - 1) * float(cfg.kappa) ** (-(4 * k - 2)) * core**2
    lhs, rhs = g_abs ** (2 * k), narrow + broad
    live = rhs > 0
    n_narrow = int((narrow >= broad).sum())
    return {
        "points": g_abs.size,
        "narrow_binding": n_narrow,
        "broad_binding": g_abs.size - n_narrow,
        "holds": bool((lhs <= rhs * (1 + 1e-9)).all()),
        "worst_ratio": float((lhs[live] / rhs[live]).max()) if live.any() else 0.0,
    }


class TestBroadNarrow:
    def test_single_coarse_interval_is_narrow(self):
        rng = random.Random(4)
        cfg = cfg92()
        K = unit_interval(3).partition(2)[1]  # inside coarse interval 0
        g = random_box_function(rng, 3, 2, K, 3)
        rep = dec.broad_narrow_check(g, cfg)
        assert rep["holds"]
        assert rep["broad_binding"] == 0

    def test_aligned_transverse_waves_bind_broad(self):
        q, k, m = 3, 2, 1
        cfg = ScaleConfig.from_epsilon(q, k, m, Fraction(1, 2))
        big = ball(q, k, m * k)
        terms = [
            (1.0 + 0j, gamma(QRational(q, a), k), big) for a in (0, 1)
        ]
        g = ModulatedStep(q, k, terms)
        rep = dec.broad_narrow_check(g, cfg)
        assert rep["holds"]
        assert rep["broad_binding"] >= 1

    def test_zero_function(self):
        rep = dec.broad_narrow_check(ModulatedStep.zero(3, 2), cfg92())
        assert rep["holds"] and rep["points"] == 0

    def test_failing_dichotomy_raises_and_the_suite_reports_it(self, monkeypatch):
        # below a negative tolerance every nonzero cell breaks the dichotomy
        monkeypatch.setattr(dec, "REL_TOL", -1.0)
        g = random_curve_supported(random.Random(0), 3, 2, 2, 4, 2)
        with pytest.raises(VerificationError, match="pointwise dichotomy failed"):
            dec.broad_narrow_check(g, cfg92())
        rep = verify.broad_narrow_suite(3, 2, n_instances=2)
        assert not rep["passed"] and "budget_exceeded" not in rep
        assert len(rep["failures"]) == 1 and "pointwise dichotomy failed" in rep["failures"][0]

    @pytest.mark.parametrize("q, n", [(3, 12), (5, 4)])
    def test_matches_dense_grid(self, q, n):
        rng = random.Random(20 + q)
        cfg = ScaleConfig.from_epsilon(q, 2, 2, Fraction(1, 2))
        cases = [(random_curve_supported(rng, q, 2, 2, rng.randint(1, q**2), 2), cfg) for _ in range(n)]
        if q == 3:  # the aligned transverse waves above
            big = ball(3, 2, 2)
            waves = ModulatedStep(3, 2, [(1.0 + 0j, gamma(QRational(3, a), 2), big) for a in (0, 1)])
            cases.append((waves, ScaleConfig.from_epsilon(3, 2, 1, Fraction(1, 2))))
        for g, c in cases:
            got, want = dec.broad_narrow_check(g, c), dense_broad_narrow(g, c)
            a, b = got.pop("worst_ratio"), want.pop("worst_ratio")
            assert abs(a - b) <= 1e-12 * max(1.0, b)
            assert got == want


class TestCountingLemma:
    def test_diagonal_membership(self):
        cfg = ScaleConfig(3, 2, 2, 1)
        coarse = cfg.coarse_partition()
        K1 = coarse[0].partition(2)[1]
        K2 = coarse[2].partition(2)[0]
        box = Cube(QVector.zero(3, 2), cfg.nu_exp * 2)
        qry = dec.CountingQuery([coarse[0], coarse[2]], [K1, K2], box, cfg)
        hits = dec.counting_set_pointwise_oracle(qry)
        assert (K1, K2) in hits
        assert len(hits) <= 1

    @pytest.mark.parametrize("q,k,delta_exp,kappa_exp", [(3, 2, 2, 1), (5, 2, 2, 1), (3, 2, 3, 1), (3, 2, 2, 2)])
    def test_pointwise_oracle_matches_the_exhaustive_table(self, q, k, delta_exp, kappa_exp):
        rep = dec.counting_lemma_exhaustive(q, k, delta_exp, kappa_exp)
        cfg = ScaleConfig(q, k, delta_exp, kappa_exp)
        qm = q**delta_exp
        coarse, fine_by_coarse, tau_corner = tau_corners(q, k, delta_exp, kappa_exp)

        def oracle_count(combo_I, combo_Kbar, w, rng):
            box = Cube(QVector.from_ints(q, w).rep_mod(cfg.nu_exp * k), cfg.nu_exp * k)
            return len(dec.counting_set_pointwise_oracle(dec.CountingQuery(combo_I, combo_Kbar, box, cfg), rng))

        worst = rep["worst_query"]
        combo_I = [Interval.from_json(q, j) for j in worst["intervals"]]
        combo_Kbar = [Interval.from_json(q, j) for j in worst["anchors"]]
        assert oracle_count(combo_I, combo_Kbar, worst["box_residue"], random.Random(0)) == rep["worst_count"]

        rng = random.Random(6)
        for trial in range(30):
            combo_I = rng.sample(coarse, k)
            combo_Kbar = [rng.choice(fine_by_coarse[I]) for I in combo_I]
            w = [rng.randrange(qm) for _ in range(k)]
            count = oracle_count(combo_I, combo_Kbar, w, random.Random(trial))
            table = box_loop_table(combo_I, fine_by_coarse, tau_corner, qm)
            base = [sum(tau_corner[K][i] for K in combo_Kbar) for i in range(k)]
            assert count <= rep["worst_count"]
            assert count == table.get(tuple((base[i] - w[i]) % qm for i in range(k)), 0)

    def test_exhaustive_bound_small(self):
        rep = dec.counting_lemma_exhaustive(3, 2, 2, 1)
        assert rep["holds"] and rep["bound"] == 1 and rep["worst_count"] == 1

    @pytest.mark.parametrize("q,k,delta_exp,kappa_exp", [(3, 2, 2, 1), (5, 2, 2, 1), (3, 2, 3, 1), (3, 2, 2, 2)])
    def test_exhaustive_report_matches_the_box_loop(self, q, k, delta_exp, kappa_exp):
        assert dec.counting_lemma_exhaustive(q, k, delta_exp, kappa_exp) == counting_lemma_box_loop(
            q, k, delta_exp, kappa_exp
        )

    @pytest.mark.parametrize("q,k,delta_exp,kappa_exp", [(5, 3, 2, 1), (7, 3, 2, 1)])
    def test_degree_three_report_matches_the_tables(self, q, k, delta_exp, kappa_exp):
        assert dec.counting_lemma_exhaustive(q, k, delta_exp, kappa_exp) == counting_lemma_by_tables(
            q, k, delta_exp, kappa_exp
        )

    def test_suite_rejects_cases_sharing_q_before_counting(self, monkeypatch):
        # its results are keyed by q, so the second case would overwrite the first
        def count(*case):
            raise AssertionError(f"counted {case}")

        monkeypatch.setattr(dec, "counting_lemma_exhaustive", count)
        with pytest.raises(ValueError, match=r"\(5, 3, 2, 1\) and \(5, 3, 3, 1\) share q=5"):
            verify.counting_lemma_suite(cases=((5, 3, 2, 1), (5, 3, 3, 1)))

    def test_invalid_queries_rejected(self):
        cfg = ScaleConfig(3, 2, 2, 1)
        coarse = cfg.coarse_partition()
        box = Cube(QVector.zero(3, 2), cfg.nu_exp * 2)
        with pytest.raises(ValueError):
            dec.CountingQuery([coarse[0], coarse[0]], [coarse[0].partition(2)[0]] * 2, box, cfg)
        with pytest.raises(ValueError):
            dec.CountingQuery(
                [coarse[0], coarse[1]],
                [coarse[0].partition(2)[0], coarse[0].partition(2)[1]],
                box,
                cfg,
            )


class TestMainInequality:
    def test_zero_function(self):
        rep = dec.verify_main_lemma(ModulatedStep.zero(3, 2), cfg92(), 8)
        assert rep["holds"]

    def test_single_wavepacket(self):
        rng = random.Random(8)
        K = unit_interval(3).partition(2)[3]
        g = random_box_function(rng, 3, 2, K, 1)
        rep = dec.verify_main_lemma(g, cfg92(), 8)
        assert rep["holds"] and rep["N"] == 1

    def test_seeded_random_suite(self):
        rng = random.Random(0)
        for _ in range(8):
            g = random_curve_supported(rng, 3, 2, 2, rng.randint(1, 9), 2)
            assert dec.verify_main_lemma(g, cfg92(), 8)["holds"]

    def test_parity_rejected(self):
        rng = random.Random(9)
        g = random_curve_supported(rng, 3, 2, 2, 2, 2)
        with pytest.raises(ValueError):
            dec.verify_main_lemma(g, cfg92(), 7)
        with pytest.raises(ValueError):
            dec.verify_main_lemma(g, cfg92(), 4)  # p - 2k must be positive

    def test_supplied_decoupling_bounds_are_consumed(self):
        rng = random.Random(10)
        g = random_curve_supported(rng, 3, 2, 2, 4, 2)
        loose = dec.verify_main_lemma(g, cfg92(), 8)
        generous = dec.verify_main_lemma(
            g, cfg92(), 8, dec_bound_supplier=lambda p, m: 10.0 * dec.trivial_decoupling_bound(3, m)
        )
        assert generous["rhs"] > loose["rhs"]

    def test_failed_inequality_raises_verification_error(self):
        g = random_curve_supported(random.Random(10), 3, 2, 2, 4, 2)
        # a claimed decoupling constant of 0 empties the right-hand side
        with pytest.raises(VerificationError, match="main inequality failed") as info:
            dec.verify_main_lemma(g, cfg92(), 8, dec_bound_supplier=lambda p, m: 0.0)
        assert isinstance(info.value, MomentLabError)

    def test_same_verdict_when_p_th_powers_leave_the_float_range(self):
        g = random_curve_supported(random.Random(0), 3, 2, 2, 4, 2)
        plain = dec.verify_main_lemma(g, cfg92(), 40)
        assert "normalized_by" not in plain
        for factor in (1e12, 1e-12):  # ||g||_p^40 overflows, then underflows
            rep = dec.verify_main_lemma(g.scaled(factor), cfg92(), 40)
            assert rep["holds"] and 0.0 < rep["lhs"] < float("inf")
            scale = rep["normalized_by"] / factor
            assert abs(rep["lhs"] * scale**40 - plain["lhs"]) <= 1e-9 * plain["lhs"]
            assert abs(rep["rhs"] * scale**40 - plain["rhs"]) <= 1e-9 * plain["rhs"]


class TestReversedHoelder:
    def test_single_interval_is_plain_hoelder(self):
        rng = random.Random(11)
        K = unit_interval(3).partition(2)[5]
        g = random_box_function(rng, 3, 2, K, 2)
        rep = dec.verify_reversed_holder(g, cfg92(), 8)
        assert rep["holds"] and rep["N"] == 1
        p, k = 8, 2
        lhs = g.lp_norm(p) ** p
        rhs = g.lp_norm(float("inf")) ** (2 * k) * g.lp_norm(p - 2 * k) ** (p - 2 * k)
        assert lhs <= rhs * (1 + 1e-9)

    def test_flat_instance_with_slack_recorded(self):
        rng = random.Random(12)
        fine = unit_interval(3).partition(2)
        g = ModulatedStep.zero(3, 2)
        for K in fine:
            g = g + random_box_function(rng, 3, 2, K, 1)
        rep = dec.verify_reversed_holder(g, cfg92(), 8)
        assert rep["holds"] and rep["rhs"] >= rep["lhs"]

    def test_seeded_random_suite(self):
        rng = random.Random(0)
        for _ in range(8):
            g = random_curve_supported(rng, 3, 2, 2, rng.randint(1, 9), 2)
            assert dec.verify_reversed_holder(g, cfg92(), 8)["holds"]


class TestFinePiecePass:
    """Both moment inequalities read every fine piece's norms off one cell plan."""

    @pytest.mark.parametrize("check, extra", [(dec.verify_main_lemma, 1), (dec.verify_reversed_holder, 0)],
                             ids=["main-lemma", "reversed-holder"])
    def test_one_cell_plan_per_live_fine_piece(self, monkeypatch, check, extra):
        import momentlab.stepfn as stepfn

        calls = []
        original = stepfn.joint_cell_values

        def counted(fns, *args, **kwargs):
            calls.append(len(fns))
            return original(fns, *args, **kwargs)

        monkeypatch.setattr(stepfn, "joint_cell_values", counted)
        monkeypatch.setattr(dec, "joint_cell_values", counted)
        cfg = cfg92()
        rng = random.Random(3)
        for _ in range(4):
            g = random_curve_supported(rng, 3, 2, 2, rng.randint(1, 9), 2)
            live = len(g.freq_components(cfg.fine_partition()))
            calls.clear()
            check(g, cfg, 8)
            # main lemma: one plan per live piece, then one for ||g||_p
            assert calls == [1] * (live + extra)

    def test_norms_equal_lp_norm(self):
        cfg, p = cfg92(), 8
        rng = random.Random(4)
        for _ in range(4):
            g = random_curve_supported(rng, 3, 2, 2, rng.randint(1, 9), 2)
            pieces = g.freq_components(cfg.fine_partition())
            want = {K: (gK.lp_norm(p), gK.lp_norm(float("inf")), gK.lp_norm(p - 4)) for K, gK in pieces.items()}
            got = dec._fine_piece_norms(pieces, p, cfg.k)
            assert list(got.items()) == list(want.items())


def _live_mid_intervals(g, nu_exp):
    """Reference mid split: the nu-intervals of the unit interval whose piece
    of g, cut out of the transform refined to scale nu, is nonzero."""
    hat = g.fourier()
    s = max(hat.scale_exp, nu_exp)
    buckets = {}
    for c, b, cube in hat.terms:
        for piece in [cube] if cube.scale_exp == s else cube.subdivide(s):
            buckets.setdefault(Interval.containing(piece.corner[0], nu_exp), []).append((c, b, piece))
    O = unit_interval(g.q)
    return {
        J for J, terms in buckets.items()
        if O.contains_interval(J) and not ModulatedStep(g.q, g.k, terms).inverse_fourier().is_zero
    }


class TestLiveParents:
    @pytest.mark.parametrize("q, k, m", [(3, 2, 2), (3, 2, 3), (5, 2, 2), (5, 3, 1)])
    def test_parents_of_live_fine_pieces_are_the_live_mid_pieces(self, q, k, m):
        cfg = ScaleConfig.from_epsilon(q, k, m, Fraction(1, 2))
        rng = random.Random(100 * q + 10 * k + m)
        for i in range(40):
            g = random_curve_supported(rng, q, k, m, rng.randint(1, q**m), 1)
            live = [K for K, gK in g.freq_components(cfg.fine_partition()).items() if not gK.is_zero]
            parents = {K.parent(cfg.nu_exp) for K in live}
            assert parents == _live_mid_intervals(g, cfg.nu_exp)
            if i < 4:
                assert dec.verify_reversed_holder(g, cfg, 2 * k + 2)["N"] == len(parents)


class TestAffineRescaling:
    def test_identity_interval(self):
        rng = random.Random(14)
        g = random_curve_supported(rng, 3, 2, 2, 4, 2)
        h, detm = dec.affine_rescale(g, unit_interval(3))
        assert detm == 1
        assert h.close_to(g, 1e-10)

    def test_norms_reproduced(self):
        rng = random.Random(15)
        g = random_curve_supported(rng, 3, 2, 2, 6, 2)
        for I, g_I in g.freq_components(unit_interval(3).partition(1)).items():
            if g_I.is_zero:
                continue
            rep = dec.affine_rescale_verify(g, I, cfg92(), 8)
            assert rep["holds"]

    def test_rescaled_support_lands_at_the_quotient_scale(self):
        rng = random.Random(16)
        g = random_curve_supported(rng, 3, 2, 2, 6, 2)
        I, g_I = next((i, g_i) for i, g_i in g.freq_components(unit_interval(3).partition(1)).items()
                      if not g_i.is_zero)
        h, _ = dec.affine_rescale(g_I, I)
        cert = dec.freq_certificate(h, 2 - I.scale_exp)
        assert all(K.scale_exp == 1 for K in cert)


class TestReverseSquare:
    def test_single_interval_ratio_one(self):
        rng = random.Random(17)
        K = unit_interval(3).partition(2)[7]
        g = random_box_function(rng, 3, 2, K, 2)
        rep = dec.reverse_square_check(g, 2, 1)
        assert abs(rep["ratio"] - 1.0) < 1e-9

    def test_extremizer_family_under_trivial_ceiling(self):
        f = dec.exp_sum_extremizer(3, 2, 2)
        rep = dec.reverse_square_check(f, 2, 1)
        assert rep["ratio"] <= rep["trivial_ceiling"] * (1 + 1e-9)
        assert rep["recursion_holds"]

    def test_seeded_random_suite(self):
        rng = random.Random(0)
        for _ in range(6):
            g = random_curve_supported(rng, 3, 2, 2, rng.randint(1, 9), 2)
            rep = dec.reverse_square_check(g, 2, 1)
            assert rep["recursion_holds"] and rep["broad_holds"]

    def test_suite_at_five_fits_the_cell_budget(self):
        from momentlab.verify import reverse_square_suite

        rep = reverse_square_suite(5, 2, n_instances=8, seed=0)
        assert rep["passed"] and "budget_exceeded" not in rep


def test_verify_reads_no_verdict_key():
    # every check raises VerificationError when its statement fails, so no suite re-tests a flag
    tree = ast.parse(Path(verify.__file__).read_text(encoding="utf-8"))
    strings = {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)}
    assert not strings & {"holds", "broad_holds", "recursion_holds"}
