from fractions import Fraction

import pytest

from momentlab.exponents import (
    BoundTrajectory,
    ExponentParams,
    a_coeff,
    a_coeff_recurrence,
    b_func,
    b_monotone_check,
    bdg_sharp_exponent,
    corollary_q_exponent,
    iterate_D_bound,
    iteration_count,
    positivity_hypothesis,
    rung,
    supercritical_slack,
    theorem_exponent,
)


class TestQExponent:
    def test_vanishes_at_the_base(self):
        for k in (2, 3, 4):
            for p0 in (2 * k, 2 * k + 2):
                assert a_coeff(p0, p0, k) == 0

    def test_first_step_value(self):
        assert a_coeff(8, 4, 2) == 11

    def test_recurrence_equals_closed_form(self):
        for k in range(2, 6):
            for p0 in (2 * k, 2 * k + 2, 4 * k):
                p = p0
                while p <= p0 + 20 * k:
                    assert a_coeff(p, p0, k) == a_coeff_recurrence(p, p0, k)
                    p += 2 * k

    def test_off_lattice_rejected(self):
        with pytest.raises(ValueError):
            a_coeff(9, 4, 2)
        with pytest.raises(ValueError):
            a_coeff(2, 4, 2)


class TestCorollaryExponent:
    def test_reference_value(self):
        assert corollary_q_exponent(8, 2) == Fraction(11, 8)

    def test_base_vanishes(self):
        for k in (2, 3, 5):
            assert corollary_q_exponent(2 * k, k) == 0

    def test_two_forms_agree_on_a_grid(self):
        for k in (2, 3, 4):
            for j in range(1, 9):
                corollary_q_exponent(2 * k * j, k)  # raises on mismatch

    def test_off_lattice_rejected(self):
        with pytest.raises(ValueError):
            corollary_q_exponent(10, 2)


class TestBFunction:
    def test_vanishes_at_critical_without_constant(self):
        for k in (2, 3, 4):
            assert b_func(k * (k + 1), k, 0) == 0.0

    def test_degree_two_values(self):
        assert b_func(6, 2, 0) == 0.0
        assert abs(b_func(8, 2, 0) - 8.0) < 1e-12

    def test_monotone_on_grids(self):
        for k in (2, 3, 4):
            assert b_monotone_check(k, 0)
            assert b_monotone_check(k, 11)

    def test_positivity_propagates(self):
        for k in (2, 3):
            for p0 in (2 * k, 4 * k):
                for c0 in (Fraction(k * k, 2) + 1, 4 * k * k):
                    if positivity_hypothesis(k, p0, c0):
                        for j in range(16):
                            assert supercritical_slack(k, c0, p0 + 2 * k * j) >= -1e-12


class TestParams:
    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            ExponentParams(k=2, p0=4, c0=Fraction(1))
        ExponentParams(k=2, p0=4, c0=Fraction(2))  # boundary case admissible

    def test_basic_validation(self):
        with pytest.raises(ValueError):
            ExponentParams(k=2, p0=5, c0=Fraction(3))
        with pytest.raises(ValueError):
            ExponentParams(k=1, p0=4, c0=Fraction(3))


class TestTheoremExponent:
    def test_corollary_parameters_reproduce_the_corollary(self):
        # p0 = 2k and c0 = k^2/2 give the headline delta exponent
        k = 2
        params = ExponentParams(k=k, p0=2 * k, c0=Fraction(k * k, 2), epsilon=Fraction(1, 100))
        for p in (8, 12, 16):
            te = theorem_exponent(params, p)
            decay = Fraction(k - 1, k) ** (p // (2 * k))
            expect = -(0.5 - k * (k + 1) / (2 * p)) - float(
                Fraction(k * k, 2 * p) * decay
            ) - 0.01
            assert abs(te["delta_exponent"] - expect) < 1e-12
            assert te["q_exponent"] == a_coeff(p, 2 * k, k) / p

    def test_large_p_limit(self):
        params = ExponentParams(k=2, p0=4, c0=Fraction(2), epsilon=Fraction(1, 100))
        te = theorem_exponent(params, 4 + 4 * 5000)
        assert abs(te["delta_exponent"] - (-0.51)) < 3e-4

    def test_summand_cross_check(self):
        params = ExponentParams(k=2, p0=4, c0=Fraction(2), epsilon=Fraction(1, 100))
        te = theorem_exponent(params, 12)
        main = 0.5 - 6 / 24
        corr = (2 / 12) * (1 / 2) ** 3
        assert abs(te["delta_exponent_no_eps"] + main + corr) < 1e-12

    @pytest.mark.parametrize("k, p0, c0, p", [(2, 4, Fraction(2), 4), (2, 4, Fraction(7, 3), 400_004),
                                              (10, 200, Fraction(2), 2_000_200)])
    def test_exact_branch_is_the_rounded_fraction(self, k, p0, c0, p):
        # one int ratio, rounded once by int true division: bitwise the float of the exact sum
        te = theorem_exponent(ExponentParams(k=k, p0=p0, c0=c0, epsilon=Fraction(1, 10)), p)
        main = Fraction(1, 2) - Fraction(k * (k + 1), 2 * p)
        exact = -float(main + c0 / p * Fraction(k - 1, k) ** (p // (2 * k)))
        assert te["delta_exponent_no_eps"].hex() == exact.hex()

    def test_beats_trivial_for_large_p(self):
        params = ExponentParams(k=2, p0=4, c0=Fraction(2), epsilon=Fraction(1, 100))
        for p in (24, 48, 96):
            te = theorem_exponent(params, p)
            assert -te["delta_exponent_no_eps"] < 0.5


class TestIteration:
    def test_iteration_count_examples(self):
        assert iteration_count(Fraction(1, 2)) == 1
        assert iteration_count(Fraction(1, 10)) >= 2

    def test_base_only(self):
        params = ExponentParams(k=2, p0=4, c0=Fraction(2), epsilon=Fraction(1, 10))
        traj = iterate_D_bound(params, 4)
        assert len(traj.steps) == 1 and traj.steps[0]["branch"] == "base"

    def test_never_beats_the_claimed_bound(self):
        params = ExponentParams(k=2, p0=4, c0=Fraction(2), epsilon=Fraction(1, 10))
        traj = iterate_D_bound(params, 12)
        te = theorem_exponent(params, 12)
        assert traj.final_delta_exponent <= te["delta_exponent_no_eps"] + 1e-12

    def test_epsilon_monotonicity(self):
        te = theorem_exponent(
            ExponentParams(k=2, p0=4, c0=Fraction(2), epsilon=Fraction(1, 100)), 8
        )
        gaps = []
        for eps in (Fraction(1, 4), Fraction(1, 10), Fraction(1, 50), Fraction(1, 200)):
            traj = iterate_D_bound(ExponentParams(k=2, p0=4, c0=Fraction(2), epsilon=eps), 8)
            gaps.append(te["delta_exponent_no_eps"] - traj.final_delta_exponent)
        assert all(g >= -1e-12 for g in gaps)
        assert all(a >= b - 1e-12 for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 0.01

    def test_q_exponent_tracks_the_recurrence(self):
        params = ExponentParams(k=3, p0=6, c0=Fraction(9, 2), epsilon=Fraction(1, 20))
        traj = iterate_D_bound(params, 6 + 6 * 4)
        assert traj.final_q_exponent == a_coeff(30, 6, 3) / 30


class TestRung:
    def test_floats_match_the_counted_branch_bit_for_bit(self):
        for k in (2, 3, 5):
            params = ExponentParams(k=k, p0=2 * k, c0=Fraction(k * k), epsilon=Fraction(1, 30))
            steps = iterate_D_bound(params, 12 * k).steps
            epsf = float(params.epsilon)
            for prev, step in zip(steps, steps[1:]):
                cur, T = step["p"], prev["T"]
                by_hand = (k * k + 4 * k - 2) * epsf + (cur / 2.0 + k * (k - 3) / 2.0) / k + (1.0 - 1.0 / k) * T
                assert step["counted_branch"] == by_hand

    def test_fractions_stay_exact(self):
        value = rung(Fraction(4), Fraction(16), Fraction(1, 7), Fraction(1, 3))
        assert value == Fraction(1, 3) + Fraction(8 + 2, 4) + Fraction(3, 4) * Fraction(1, 7)


def test_sharp_exponent_reference():
    assert bdg_sharp_exponent(2, 12) == 0.25
    assert bdg_sharp_exponent(2, 4) == 0.0
