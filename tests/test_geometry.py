import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentlab.geometry import (
    Cube,
    Interval,
    MaMatrix,
    ThetaBox,
    Tile,
    ball,
    gamma,
    gamma_derivative,
    interval_distance,
    tau_of,
    theta_diff_decompose,
    theta_of,
    tile_of_point,
    tile_partition,
    unit_interval,
)
from momentlab.qadic import QRational, QVector, qnorm_of_fraction


def q3(n, v=0):
    return QRational(3, n, v)


class TestIntervals:
    def test_unit_interval_partition(self):
        P = unit_interval(3).partition(1)
        assert [i.corner for i in P] == [q3(0), q3(1), q3(2)]

    def test_partition_count(self):
        I = Interval(QRational(5, 0), 1)
        assert len(I.partition(3)) == 25

    def test_nested_partition_equals_direct(self):
        I = unit_interval(3)
        direct = I.partition(2)
        nested = [j for i in I.partition(1) for j in i.partition(2)]
        assert set(direct) == set(nested)

    def test_coarser_partition_rejected(self):
        I = Interval(q3(1), 2)
        with pytest.raises(ValueError):
            I.partition(1)

    def test_noncanonical_corner_rejected(self):
        with pytest.raises(ValueError):
            Interval(q3(9), 1)

    def test_distinct_same_length_intervals_are_q_lengths_apart(self):
        for m in range(3):
            P = unit_interval(3).partition(m)
            for i, a in enumerate(P):
                for b in P[i + 1 :]:
                    assert interval_distance(a, b) >= 3 * a.length

    def test_containment(self):
        I = unit_interval(3).partition(1)[1]
        assert I.contains(q3(4))
        assert not I.contains(q3(2))
        assert I.contains_interval(Interval(q3(4), 2))


class TestCubes:
    def test_subdivide_covers_and_counts(self):
        c = ball(3, 2, 0)
        parts = c.subdivide(1)
        assert len(parts) == 9
        assert len({p.corner for p in parts}) == 9
        assert sum((p.volume for p in parts), Fraction(0)) == c.volume

    def test_minkowski_add_corners(self):
        a = Cube(QVector([q3(1), q3(0)]), 1)
        b = Cube(QVector([q3(2), q3(1)]), 1)
        s = a.minkowski_add(b)
        assert s.corner == QVector([q3(0), q3(1)]) and s.scale_exp == 1

    def test_equal_scale_cubes_disjoint_or_identical(self):
        a = Cube(QVector([q3(1), q3(0)]), 1)
        b = Cube(QVector([q3(1), q3(1)]), 1)
        assert not any(b.contains(x.corner) for x in a.subdivide(2))

    def test_json_round_trip(self):
        c = Cube(QVector([q3(2, -1), q3(1)]), 1)
        assert Cube.from_json(3, c.to_json()) == c


class TestMomentCurve:
    def test_gamma_at_zero_and_one(self):
        assert gamma(q3(0), 3) == QVector.zero(3, 3)
        assert gamma(q3(1), 3) == QVector([q3(1)] * 3)

    def test_gamma_direct_powers(self):
        assert gamma(q3(2), 2) == QVector([q3(2), q3(4)])

    def test_gamma_rejects_large_parameters(self):
        with pytest.raises(ValueError):
            gamma(q3(1, -1), 2)

    def test_frame_matrix_at_zero(self):
        M = MaMatrix(QRational(7, 0), 3)
        cols = [gamma_derivative(QRational(7, 0), j, 3) for j in (1, 2, 3)]
        assert cols[0] == QVector.from_ints(7, [1, 0, 0])
        assert cols[1] == QVector.from_ints(7, [0, 2, 0])
        assert cols[2] == QVector.from_ints(7, [0, 0, 6])
        assert M.det().qnorm() == 1

    def test_determinant_norm_is_one(self):
        for a in (q3(0), q3(1), q3(5, 1)):
            assert MaMatrix(a, 2).det().qnorm() == 1

    def test_anchor_change_is_unipotent_in_the_ring(self):
        # the frame at one anchor equals the frame at another times a
        # matrix preserving the anisotropic box: M_b^(-1) M_a t keeps
        # |t_j| <= 5^-j, checked through the adjugate of M_b
        rng = random.Random(0)
        K = unit_interval(5).partition(1)[1]
        a = K.corner
        b = a + QRational(5, 1, 1)  # another point of K
        Ma, box_b = MaMatrix(a, 3), ThetaBox(b, 1, 3)
        for _ in range(25):
            t = QVector([QRational(5, rng.randrange(125), j) for j in (1, 2, 3)])
            assert box_b.difference_contains(Ma.apply(t))

    def test_frame_requires_large_prime(self):
        with pytest.raises(ValueError):
            MaMatrix(QRational(3, 0), 3)


class TestThetaTau:
    def test_curve_point_inside_both(self):
        K = unit_interval(3).partition(1)[1]
        th, ta = theta_of(K, 2), tau_of(K, 2)
        g = gamma(K.corner, 2)
        assert th.contains(g) and ta.contains(g)

    def test_scaled_tangent_shift_inside_both(self):
        # gamma(1) + t gamma'(1) with |t| = 1/3 lands in both boxes
        K = unit_interval(3).partition(1)[1]
        pt = gamma(q3(1), 2) + gamma_derivative(q3(1), 1, 2).scale(q3(3))
        assert pt == QVector([q3(4), q3(7)])
        assert theta_of(K, 2).contains(pt)
        assert tau_of(K, 2).contains(pt)

    def test_theta_in_tau(self):
        # exhaustive lattice at the fine cube scale
        for m in (1, 2):
            for K in unit_interval(3).partition(m):
                th, ta = theta_of(K, 2), tau_of(K, 2)
                for cube in theta_diff_decompose(K, 2):
                    pt = gamma(K.corner, 2) + cube.corner
                    assert th.contains(pt)
                    assert ta.contains(pt)

    def test_anchor_independence(self):
        rng = random.Random(0)
        K = unit_interval(3).partition(1)[2]
        a, b = K.corner, K.corner + q3(2, 1)
        from momentlab.geometry import ThetaBox

        th_a, th_b = ThetaBox(a, 1, 2), ThetaBox(b, 1, 2)
        for _ in range(100):
            pt = QVector([QRational(3, rng.randrange(81), -1) for _ in range(2)])
            assert th_a.contains(pt) == th_b.contains(pt)

    def test_membership_beyond_the_box_fails(self):
        K = unit_interval(3).partition(1)[1]
        pt = gamma(q3(1), 2) + gamma_derivative(q3(1), 1, 2).scale(q3(1, -1))
        assert not theta_of(K, 2).contains(pt)
        assert not tau_of(K, 2).contains(pt)


class TestDecompositions:
    def test_difference_box_small_case(self):
        K = unit_interval(3).partition(1)[0]
        cubes = theta_diff_decompose(K, 2)
        assert len(cubes) == 3
        assert all(c.side == Fraction(1, 9) for c in cubes)

    def test_degree_one_is_trivial(self):
        K = unit_interval(5).partition(1)[2]
        cubes = theta_diff_decompose(K, 1)
        assert len(cubes) == 1 and cubes[0].side == Fraction(1, 5)
        tiles = tile_partition(ball(5, 1, 1), K)
        assert len(tiles) == 1

    def test_difference_box_formula_at_five_cubed(self):
        K = unit_interval(5).partition(1)[1]
        cubes = theta_diff_decompose(K, 3)
        assert len(cubes) == 125
        assert len({c.corner for c in cubes}) == 125
        total = sum((c.volume for c in cubes), Fraction(0))
        assert total == Fraction(1, 5**6)

    def test_tile_partition_small_case(self):
        K = unit_interval(3).partition(1)[0]
        Q = ball(3, 2, 2)
        tiles = tile_partition(Q, K)
        assert len(tiles) == 3
        assert sum((t.volume for t in tiles), Fraction(0)) == Q.volume
        # exhaustive residue membership
        for sub in Q.subdivide(-1):
            assert sum(1 for t in tiles if t.contains(sub.corner)) == 1

    def test_tile_partition_wrong_side_rejected(self):
        K = unit_interval(3).partition(1)[0]
        from momentlab.errors import MomentLabError

        with pytest.raises(MomentLabError):
            tile_partition(ball(3, 2, 1), K)

    def test_tile_of_point_consistency(self):
        K = unit_interval(3).partition(2)[4]
        Q = ball(3, 2, 4)
        tiles = tile_partition(Q, K)
        tset = set(tiles)
        rng = random.Random(2)
        for _ in range(50):
            x = QVector([QRational(3, rng.randrange(3**8), -4) for _ in range(2)])
            t = tile_of_point(x, K)
            assert t.contains(x)
            assert t in tset

    def test_offset_points_lie_in_their_tiles(self):
        for q, k, m in ((3, 2, 1), (3, 2, 2), (5, 3, 1)):
            K = unit_interval(q).partition(m)[1]
            for t in tile_partition(ball(q, k, m * k), K):
                assert t.contains(t.offset_point())


def _frame_columns(a, k):
    return [gamma_derivative(a, j, k) for j in range(1, k + 1)]


def _transpose_qr(a, k, x):
    """M_a^T x in QRational arithmetic: entry i is column i dotted with x."""
    return QVector([col.dot(x) for col in _frame_columns(a, k)])


def _solve_fractions(a, k, v):
    """M_a t = v by forward substitution over the rationals."""
    cols = _frame_columns(a, k)
    t = []
    for i in range(k):
        acc = v[i].to_fraction() - sum(cols[j][i].to_fraction() * t[j] for j in range(i))
        t.append(acc / cols[i][i].to_fraction())
    return t


@st.composite
def frame_cases(draw):
    q, k = draw(st.sampled_from([(3, 1), (3, 2), (5, 2), (5, 3), (7, 3)]))
    m = draw(st.integers(0, 2))
    K = unit_interval(q).partition(m)[draw(st.integers(0, q**m - 1))]
    coord = st.builds(
        lambda u, v: QRational(q, u, v), st.integers(-(q**5), q**5) | st.just(0), st.integers(-6, 3)
    )
    x = QVector(draw(st.lists(coord, min_size=k, max_size=k)))
    y = QVector(draw(st.lists(coord, min_size=k, max_size=k)))
    return q, k, K, x, y


class TestIntegerFrameMaps:
    @settings(max_examples=150, deadline=None)
    @given(frame_cases())
    def test_transpose_apply_and_tile_of_point(self, case):
        q, k, K, x, y = case
        a, m = K.corner, K.scale_exp
        M = MaMatrix(a, k)
        image = _transpose_qr(a, k, x)
        assert M.transpose_apply(x) == image
        assert all(type(c.unit) is int for c in (*M.transpose_apply(x), *M.apply(x)))
        assert M.apply(x) == QVector(
            [sum((col[i] * x[j] for j, col in enumerate(_frame_columns(a, k))), QRational(q, 0)) for i in range(k)]
        )
        t = tile_of_point(x, K)
        assert t.dual_corner == QVector([image[j].rep_mod(-m * (j + 1)) for j in range(k)])
        assert t.contains(x)
        # membership of another point: M^T y - w inside the dual group
        d = _transpose_qr(a, k, y) - t.dual_corner
        expected = all(d[j].is_zero or d[j].valuation >= -m * (j + 1) for j in range(k))
        assert t.contains(y) == expected
        assert (tile_of_point(y, K) == t) == expected

    @settings(max_examples=150, deadline=None)
    @given(frame_cases())
    def test_theta_box_membership(self, case):
        q, k, K, x, y = case
        a, m = K.corner, K.scale_exp
        box, g = theta_of(K, k), gamma(a, k)
        for diff in (x, y, x - g):
            t = _solve_fractions(a, k, diff)
            inside = all(qnorm_of_fraction(tj, q) <= Fraction(1, q ** (m * j)) for j, tj in enumerate(t, 1))
            assert box.difference_contains(diff) == inside
            assert box.contains(g + diff) == inside
