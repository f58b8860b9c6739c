import cmath
import math
import random
import struct
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentlab import qadic
from momentlab.qadic import (
    QRational,
    QVector,
    char_value,
    qnorm_of_fraction,
    qval_of_fraction,
)


def q3(n, v=0):
    return QRational(3, n, v)


class TestNorm:
    def test_norm_of_fifty_base_five(self):
        assert QRational(5, 50).qnorm() == Fraction(1, 25)

    def test_norm_of_zero(self):
        assert QRational(5, 0).qnorm() == 0

    def test_norm_of_one_fifth(self):
        assert QRational(5, 1, -1).qnorm() == 5

    def test_factorial_is_a_unit_when_q_exceeds_k(self):
        # 5! has norm one in the 7-adic world
        assert QRational(7, math.factorial(5)).qnorm() == 1

    def test_multiplicative_on_many_random_pairs(self):
        rng = random.Random(0)
        for _ in range(10_000):
            x = QRational(5, rng.randint(-500, 500), rng.randint(-3, 3))
            y = QRational(5, rng.randint(-500, 500), rng.randint(-3, 3))
            assert (x * y).qnorm() == x.qnorm() * y.qnorm()


class TestRingOps:
    def test_ultrametric_with_equality_when_norms_differ(self):
        one, five = QRational(5, 1), QRational(5, 5)
        assert (one + five).qnorm() == 1 == max(one.qnorm(), five.qnorm())

    def test_ultrametric_strict_drop(self):
        two, three = QRational(5, 2), QRational(5, 3)
        assert (two + three).qnorm() == Fraction(1, 5)

    @settings(max_examples=200, deadline=None)
    @given(
        u1=st.integers(-1000, 1000), v1=st.integers(-4, 4),
        u2=st.integers(-1000, 1000), v2=st.integers(-4, 4),
    )
    def test_ultrametric_property(self, u1, v1, u2, v2):
        x, y = QRational(3, u1, v1), QRational(3, u2, v2)
        s = (x + y).qnorm()
        assert s <= max(x.qnorm(), y.qnorm())
        if x.qnorm() != y.qnorm():
            assert s == max(x.qnorm(), y.qnorm())

    def test_exact_division_inside_the_ring(self):
        assert q3(6, -1) / q3(2) == q3(3, -1)
        assert q3(5) / q3(5, 2) == q3(1, -2)

    def test_division_by_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            q3(1) / q3(0)

    def test_division_leaving_the_ring_rejected(self):
        with pytest.raises(ValueError):
            q3(1) / q3(2)

    def test_mixed_primes_rejected(self):
        with pytest.raises(ValueError):
            q3(1) + QRational(5, 1)

    def test_normalization_strips_q_powers(self):
        x = QRational(5, 50, 0)
        assert x.unit == 2 and x.valuation == 2

    def test_zero_forces_sentinel_valuation(self):
        assert QRational(5, 0, 7).valuation == 0

    def test_unequal_to_the_int_and_fraction_of_its_value(self):
        """``==`` agrees with ``hash``: only a QRational of the same value is equal."""
        for x in (QRational(3, 1), QRational(3, 7, 2), QRational(5, 0), QRational(3, 2, -1)):
            fr = x.to_fraction()
            for n in [fr, int(fr)] if fr.denominator == 1 else [fr]:
                assert x != n and n != x
                assert x not in {n} and n not in {x}
        assert QRational(3, 3, 0) == QRational(3, 1, 1) and len({QRational(3, 3, 0), QRational(3, 1, 1)}) == 1


class TestDigits:
    def test_rep_mod_truncates_digits(self):
        x = q3(14, -1)  # 14/3 = 2*3^-1 + 1 + 3
        assert x.rep_mod(0) == q3(2, -1)
        assert x.rep_mod(1) == q3(5, -1)
        assert x.rep_mod(-1) == q3(0)

    def test_rep_mod_of_negative_numbers_is_nonnegative(self):
        x = q3(-1)
        r = x.rep_mod(2)
        assert r == q3(8) and (x - r).valuation >= 2

    def test_fractional_digits_vanish_iff_nonnegative_valuation(self):
        rng = random.Random(1)
        for _ in range(300):
            x = QRational(3, rng.randint(-200, 200), rng.randint(-4, 4))
            assert x.rep_mod(0).is_zero == (x.is_zero or x.valuation >= 0)


def _angle(x: QRational) -> Fraction:
    """The exact angle of chi(x): the fractional digits ``x.rep_mod(0)``, in [0, 1)."""
    return x.rep_mod(0).to_fraction()


class TestCharacter:
    def test_trivial_on_integers(self):
        assert _angle(q3(7)) == 0 and char_value(q3(7)) == 1
        assert _angle(q3(9, 2)) == 0 and char_value(q3(9, 2)) == 1

    def test_primitive_cube_root_at_one_third(self):
        assert _angle(q3(1, -1)) == Fraction(1, 3)
        assert abs(char_value(q3(1, -1)) - complex(-0.5, 3**0.5 / 2)) < 1e-15

    def test_inverse_pairs_cancel(self):
        x = q3(7, -2)
        assert (_angle(x) + _angle(-x)) % 1 == 0
        assert abs(char_value(x) * char_value(-x) - 1) < 1e-15

    @settings(max_examples=200, deadline=None)
    @given(
        u1=st.integers(-200, 200), v1=st.integers(-4, 2),
        u2=st.integers(-200, 200), v2=st.integers(-4, 2),
    )
    def test_additive_on_exact_angles(self, u1, v1, u2, v2):
        x, y = QRational(3, u1, v1), QRational(3, u2, v2)
        assert (x + y).rep_mod(0) == (x.rep_mod(0) + y.rep_mod(0)).rep_mod(0)
        assert _angle(x + y) == (_angle(x) + _angle(y)) % 1
        assert abs(char_value(x + y) - char_value(x) * char_value(y)) < 1e-12

    def test_angles_have_q_power_denominators(self):
        rng = random.Random(2)
        for q in (2, 3, 5, 7):
            for _ in range(100):
                v = rng.randint(-5, 2)
                a = _angle(QRational(q, rng.randint(-10**4, 10**4), v))
                assert 0 <= a < 1
                assert q ** max(0, -v) % a.denominator == 0

    def test_char_value_matches_unit_complex(self):
        """chi(x) is the unit complex number e(angle), to the bit."""
        x = q3(5, -3)
        assert _angle(x) == Fraction(5, 27)
        assert _bits(char_value(x)) == _bits(_chi(Fraction(5, 27)))
        assert abs(abs(char_value(x)) - 1) < 1e-15


class TestVector:
    def test_vnorm_is_max_rule(self):
        v = QVector([QRational(3, 1), QRational(3, 1, -1)])
        assert v.vnorm() == 3

    def test_vnorm_zero(self):
        assert QVector.zero(3, 2).vnorm() == 0

    def test_vnorm_of_multiples_of_q(self):
        v = QVector([q3(3), q3(9)])
        assert v.vnorm() == Fraction(1, 3)

    def test_dot_is_bilinear_sample(self):
        a = QVector([q3(1), q3(2)])
        b = QVector([q3(4), q3(1, -1)])
        assert a.dot(b) == q3(4) + q3(2, -1)


class TestSerialization:
    def test_text_round_trip(self):
        for x in (q3(0), q3(7), q3(-2, -3), q3(5, 4)):
            assert QRational.from_text(3, x.to_text()) == x

    def test_fraction_round_trip(self):
        fr = Fraction(22, 27)
        assert QRational.from_fraction(3, fr).to_fraction() == fr
        with pytest.raises(ValueError):
            QRational.from_fraction(3, Fraction(1, 2))

    def test_fraction_valuations(self):
        assert qval_of_fraction(Fraction(9, 2), 3) == 2
        assert qval_of_fraction(Fraction(2, 9), 3) == -2
        assert qval_of_fraction(Fraction(0), 3) is None
        assert qnorm_of_fraction(Fraction(5, 6), 3) == 3


def _bits(c):
    return struct.pack("<dd", c.real, c.imag)


def _fold_dot(x, y):
    """The dot product as a left fold of ``QRational`` + and *."""
    total = QRational(x.q, 0)
    for a, b in zip(x.coords, y.coords, strict=True):
        total = total + a * b
    return total


@st.composite
def dot_pairs(draw):
    """Two vectors over one q with zero coordinates and negative valuations."""
    q = draw(st.sampled_from([2, 3, 5, 7]))
    k = draw(st.integers(1, 4))
    coord = st.builds(QRational, st.just(q), st.one_of(st.just(0), st.integers(-q**4, q**4)), st.integers(-5, 3))
    return tuple(QVector(draw(st.lists(coord, min_size=k, max_size=k))) for _ in range(2))


def _chi(angle: Fraction) -> complex:
    return -1 + 0j if angle == Fraction(1, 2) else cmath.exp(2j * cmath.pi * float(angle))


class TestIntegerPaths:
    @settings(max_examples=300, deadline=None)
    @given(dot_pairs())
    def test_dot_equals_the_rational_fold(self, pair):
        x, y = pair
        got, want = x.dot(y), _fold_dot(x, y)
        assert (got.q, got.unit, got.valuation) == (want.q, want.unit, want.valuation)

    def test_dot_cancels_to_zero(self):
        x, y = QVector([q3(1, -2), q3(1, -2)]), QVector([q3(1, 1), q3(-1, 1)])
        assert x.dot(y) == _fold_dot(x, y) == q3(0)
        assert x.dot(y).valuation == 0

    def test_dot_rejects_mixed_primes_and_lengths(self):
        with pytest.raises(ValueError):
            QVector.from_ints(3, [1, 2]).dot(QVector.from_ints(5, [1, 2]))
        with pytest.raises(ValueError):
            QVector([QRational(3, 0)]).dot(QVector([QRational(5, 0)]))
        with pytest.raises(ValueError):
            QVector.from_ints(3, [1, 2]).dot(QVector.from_ints(3, [1, 2, 0]))

    @settings(max_examples=200, deadline=None)
    @given(q=st.sampled_from([2, 3, 5, 7]), n=st.integers(1, 5), unit=st.integers(-10**6, 10**6))
    def test_char_value_and_unit_complex_share_one_cache_bitwise(self, q, n, unit):
        """char_value and ``_char_at`` on a longer numerator of the same angle
        give the same unit complex number, bitwise, from one cache key."""
        if unit % q == 0:
            unit += 1
        x = QRational(q, unit, -n)
        angle = _angle(x)
        qadic._CHAR_CACHE.clear()
        assert _bits(char_value(x)) == _bits(_chi(angle))
        assert list(qadic._CHAR_CACHE) == [(angle.numerator, angle.denominator)]
        # the same reduced fraction reached from a longer numerator reuses the key
        assert _bits(qadic._char_at(unit * q**3 + q ** (n + 3), q, n + 3)) == _bits(_chi(angle))
        assert list(qadic._CHAR_CACHE) == [(angle.numerator, angle.denominator)]

    def test_trivial_and_half_angles_are_exact(self):
        qadic._CHAR_CACHE.clear()
        assert _bits(char_value(QRational(2, 1, -1))) == _bits(qadic._char_at(6, 2, 2)) == _bits(-1 + 0j)
        assert _bits(char_value(QRational(5, 3, 0))) == _bits(qadic._char_at(25, 5, 2)) == _bits(1 + 0j)
        assert list(qadic._CHAR_CACHE) == [(1, 2)]
