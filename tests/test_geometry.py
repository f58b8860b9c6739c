import random
import time
from fractions import Fraction
from itertools import product
from math import factorial, perm, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentlab import errors
from momentlab.errors import BudgetExceededError
from momentlab.geometry import (
    Cube,
    Interval,
    ThetaBox,
    Tile,
    _diff_corners,
    _offset_digits,
    _owner_digits,
    _scaled,
    _tile_owners,
    ball,
    binomial_frame,
    frame_apply,
    gamma,
    interval_distance,
    tangent_frame,
    tau_of,
    theta_diff_decompose,
    theta_of,
    tile_of_point,
    tile_partition,
    unit_interval,
)
from momentlab.qadic import QRational, QVector, qnorm_of_fraction
from momentlab.verify import _lattice


def q3(n, v=0):
    return QRational(3, n, v)


def gamma_derivative(a, j, k):
    """j-th derivative of the moment curve at a: column j of the frame matrix."""
    return QVector([QRational(a.q, perm(i, j)) * a ** (i - j) if i >= j else QRational(a.q, 0)
                    for i in range(1, k + 1)])


def _det(a, k):
    """Determinant of the lower-triangular frame matrix at a: its diagonal product."""
    rows = tangent_frame(a, k)
    return QRational(a.q, prod(rows[i][i] for i in range(k)))


class TestIntervals:
    def test_unit_interval_partition(self):
        P = unit_interval(3).partition(1)
        assert [i.corner for i in P] == [q3(0), q3(1), q3(2)]

    @pytest.mark.parametrize("scale_exp", [True, 1.0, 1.5, "1"])
    def test_json_scale_exp_is_a_json_integer(self, scale_exp):
        assert Interval.from_json(3, {"corner": "1", "scale_exp": 1}) == Interval(q3(1), 1)
        with pytest.raises(ValueError, match="scale_exp must be a JSON integer"):
            Interval.from_json(3, {"corner": "1", "scale_exp": scale_exp})

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


def _rational_axis(corner, scale_exp, fine):
    """Corners of ``Interval(corner, scale_exp).partition(fine)`` by QRational
    arithmetic: corner + t * q^scale_exp, reduced at the fine scale."""
    q = corner.q
    step = QRational(q, 1, scale_exp)
    return [(corner + step * QRational(q, t)).rep_mod(fine) for t in range(q ** (fine - scale_exp))]


@st.composite
def subdivision_cases(draw):
    """A cube at scale s (negative scales, zero corners and corners of negative
    valuation included) and a finer scale with few subcubes."""
    q, k = draw(st.sampled_from([(2, 1), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2)]))
    s = draw(st.integers(-3, 2))
    depth = draw(st.integers(0, 2 if q**k <= 9 else 1))
    coord = st.one_of(st.just(QRational(q, 0)),
                      st.builds(QRational, st.just(q), st.integers(1, q**6), st.integers(-4, 1)))
    corner = QVector([c.rep_mod(s) for c in draw(st.lists(coord, min_size=k, max_size=k))])
    return Cube(corner, s), s + depth


class TestCubes:
    @settings(max_examples=200, deadline=None)
    @given(subdivision_cases())
    def test_integer_corners_match_rational_reference(self, case):
        cube, fine = case
        s = cube.scale_exp
        want = [Cube(QVector(c), fine) for c in product(*[_rational_axis(ci, s, fine) for ci in cube.corner])]
        assert cube.subdivide(fine) == want
        for ci in cube.corner:
            assert [I.corner for I in Interval(ci, s).partition(fine)] == _rational_axis(ci, s, fine)

    def test_ball_subdivides_in_digit_order(self):
        for q, k, r in ((3, 2, 2), (5, 1, 1), (2, 3, 1)):
            b = ball(q, k, r)
            want = [Cube(QVector(c), 0) for c in product(*[_rational_axis(ci, -r, 0) for ci in b.corner])]
            assert b.subdivide(0) == want

    def test_subdivide_builds_no_interval(self, monkeypatch):
        built = []
        init = Interval.__init__
        monkeypatch.setattr(Interval, "__init__", lambda self, *a: (built.append(a), init(self, *a))[1])
        assert len(Cube(QVector([q3(1, -1), q3(0)]), 0).subdivide(2)) == 81
        assert built == []
        assert len(unit_interval(3).partition(1)) == 3 and len(built) == 4  # the counter does count

    def test_subdivide_covers_and_counts(self):
        c = ball(3, 2, 0)
        parts = c.subdivide(1)
        assert len(parts) == 9
        assert len({p.corner for p in parts}) == 9
        assert sum((p.volume for p in parts), Fraction(0)) == c.volume

    def test_subdivide_at_own_scale_is_the_cube_itself(self):
        c = Cube(QVector([q3(2, -1), q3(1)]), 1)
        [same] = c.subdivide(1)
        assert same is c
        with pytest.raises(ValueError):
            c.subdivide(0)

    def test_equal_scale_cubes_disjoint_or_identical(self):
        a = Cube(QVector([q3(1), q3(0)]), 1)
        b = Cube(QVector([q3(1), q3(1)]), 1)
        assert not any(b.contains(x.corner) for x in a.subdivide(2))

    def test_json_round_trip(self):
        c = Cube(QVector([q3(2, -1), q3(1)]), 1)
        assert Cube.from_json(3, c.to_json()) == c

    def test_subdivision_past_the_budget_raises_at_once(self):
        # each axis splits into 625 intervals, within the budget; the product does not
        t0 = time.perf_counter()
        with pytest.raises(BudgetExceededError) as exc:
            ball(5, 3, 0).subdivide(4)
        assert time.perf_counter() - t0 < 1.0
        assert (exc.value.estimated, exc.value.budget) == (625**3, errors.CELL_BUDGET)


scalars = st.builds(QRational, st.sampled_from([3, 5]), st.integers(-300, 300), st.integers(-4, 4))


class TestCanonicalCorners:
    """The constructors decide canonicity on (unit, valuation); ``rep_mod`` is the oracle."""

    @settings(max_examples=400, deadline=None)
    @given(scalars, st.integers(-5, 5))
    def test_interval_raises_exactly_off_canonical_corners(self, x, scale):
        if x.rep_mod(scale) == x:
            assert Interval(x, scale).corner == x
        else:
            with pytest.raises(ValueError):
                Interval(x, scale)

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from([3, 5]), st.lists(st.tuples(st.integers(-300, 300), st.integers(-4, 4)),
                                            min_size=1, max_size=3), st.integers(-5, 5))
    def test_cube_raises_exactly_off_canonical_corners(self, q, coords, scale):
        corner = QVector([QRational(q, u, v) for u, v in coords])
        if corner.rep_mod(scale) == corner:
            assert Cube(corner, scale).corner == corner
        else:
            with pytest.raises(ValueError):
                Cube(corner, scale)


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
        cols = [gamma_derivative(QRational(7, 0), j, 3) for j in (1, 2, 3)]
        assert cols[0] == QVector.from_ints(7, [1, 0, 0])
        assert cols[1] == QVector.from_ints(7, [0, 2, 0])
        assert cols[2] == QVector.from_ints(7, [0, 0, 6])
        assert _det(QRational(7, 0), 3).qnorm() == 1

    def test_determinant_norm_is_one(self):
        for a in (q3(0), q3(1), q3(5, 1)):
            assert _det(a, 2).qnorm() == 1

    def test_anchor_change_is_unipotent_in_the_ring(self):
        # the frame at one anchor equals the frame at another times a
        # matrix preserving the anisotropic box: M_b^(-1) M_a t keeps
        # |t_j| <= 5^-j, checked through B(-b)
        rng = random.Random(0)
        K = unit_interval(5).partition(1)[1]
        a = K.corner
        b = a + QRational(5, 1, 1)  # another point of K
        Ma, box_b = tangent_frame(a, 3), ThetaBox(b, 1, 3)
        for _ in range(25):
            t = QVector([QRational(5, rng.randrange(125), j) for j in (1, 2, 3)])
            assert box_b._group_member(*_scaled(frame_apply(Ma, t)))

    def test_frame_requires_large_prime(self):
        with pytest.raises(ValueError):
            tangent_frame(QRational(3, 0), 3)


class TestThetaTau:
    def test_curve_point_inside_both(self):
        K = unit_interval(3).partition(1)[1]
        th, ta = theta_of(K, 2), tau_of(K, 2)
        g = gamma(K.corner, 2)
        assert th.contains(g) and ta.contains(g)

    def test_scaled_tangent_shift_inside_both(self):
        # gamma(1) + t gamma'(1) with |t| = 1/3 lands in both boxes
        K = unit_interval(3).partition(1)[1]
        pt = gamma(q3(1), 2) + QVector([q3(3) * c for c in gamma_derivative(q3(1), 1, 2)])
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
        pt = gamma(q3(1), 2) + QVector([q3(1, -1) * c for c in gamma_derivative(q3(1), 1, 2)])
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
        # exhaustive residue membership, by the definition rather than the owner digits
        for sub in Q.subdivide(-1):
            assert sum(1 for t in tiles if _in_tile(t, sub.corner)) == 1

    def test_tile_partition_wrong_side_rejected(self):
        K = unit_interval(3).partition(1)[0]
        with pytest.raises(ValueError):
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


def _in_tile(tile, y):
    """Tile membership by its definition: M_a^T y - w lies in the dual group."""
    m, k = tile.base_interval.scale_exp, tile.k
    d = _transpose_qr(tile.base_interval.corner, k, y) - tile.dual_corner
    return all(d[j].is_zero or d[j].valuation >= -m * (j + 1) for j in range(k))


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
        E = tangent_frame(a, k)
        image = _transpose_qr(a, k, x)
        assert frame_apply(E, x, transpose=True) == image
        assert all(type(c.unit) is int for c in (*frame_apply(E, x, transpose=True), *frame_apply(E, x)))
        assert frame_apply(E, x) == QVector(
            [sum((col[i] * x[j] for j, col in enumerate(_frame_columns(a, k))), QRational(q, 0)) for i in range(k)]
        )
        t = tile_of_point(x, K)
        assert t.dual_corner == QVector([image[j].rep_mod(-m * (j + 1)) for j in range(k)])
        assert t.contains(x)
        expected = _in_tile(t, y)
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
            assert box._group_member(*_scaled(diff)) == inside
            assert box.contains(g + diff) == inside


def _legacy_binomial_matrix(c, k, negate=False):
    """Rows binom(j, i) c^(j-i) in QRational arithmetic (the pre-frame copy)."""
    from math import comb

    base = -c if negate else c
    return tuple(
        tuple(QRational(c.q, comb(j, i)) * base ** (j - i) if i <= j else QRational(c.q, 0) for i in range(1, k + 1))
        for j in range(1, k + 1)
    )


def _legacy_mat_apply(rows, v):
    return QVector([sum((e * vi for e, vi in zip(row, v)), QRational(v.q, 0)) for row in rows])


def _legacy_frame_rows(anchor, k, transpose=False):
    """The frame matrix M_a as QRational rows (or its transpose)."""
    rows = [[QRational(anchor.q, e) for e in row] for row in tangent_frame(anchor, k)]
    return [list(col) for col in zip(*rows)] if transpose else rows


def _legacy_affine_rescale(g_I, I):
    from momentlab.stepfn import ModulatedStep

    q, k, r, c = g_I.q, g_I.k, I.scale_exp, I.corner
    btrans, bneg = _legacy_binomial_matrix(c, k), _legacy_binomial_matrix(c, k, negate=True)
    gvec = gamma(c, k)
    coeff_scale = float(Fraction(q ** (r * k * (k + 1) // 2)))
    terms = []
    for coeff, b, cube in g_I.terms:
        s = cube.scale_exp
        w = QVector([sum((btrans[j][i] * cube.corner[j] for j in range(i, k)), QRational(q, 0)) for i in range(k)])
        shifted = _legacy_mat_apply(bneg, b - gvec)
        new_mod = QVector([QRational(q, 1, -r * (i + 1)) * shifted[i] for i in range(k)])
        axes = [
            [(QRational(q, 1, r) ** i * w[i - 1] + QRational(q, t, s + r * i)).rep_mod(s + r * k) for t in range(q ** (r * (k - i)))]
            for i in range(1, k + 1)
        ]
        terms += [(coeff * coeff_scale, new_mod, Cube(QVector(combo), s + r * k)) for combo in product(*axes)]
    return ModulatedStep(q, k, terms)


def _legacy_offset_point(tile):
    """Back substitution for M^T x = w in QRational arithmetic."""
    q, k, m = tile.q, tile.k, tile.base_interval.scale_exp
    E = tangent_frame(tile.base_interval.corner, k)
    x = [QRational(q, 0)] * k
    for j in range(k - 1, -1, -1):
        r = tile.dual_corner[j]
        for i in range(j + 1, k):
            r = r - x[i] * E[i][j]
        if r.is_zero or r.valuation >= -m * (j + 1):
            continue
        e = -m * (j + 1) - r.valuation
        x[j] = QRational(q, (r.unit * pow(E[j][j], -1, q**e)) % q**e, r.valuation)
    return QVector(x)


def _flat_index(sizes):
    """Mixed-radix index tuples, last axis fastest."""
    total = 1
    for s in sizes:
        total *= s
    for flat in range(total):
        idx = []
        for s in reversed(sizes):
            idx.append(flat % s)
            flat //= s
        yield idx[::-1]


def _legacy_theta_diff_decompose(K, k):
    q, m = K.q, K.scale_exp
    rows = _legacy_frame_rows(K.corner, k)
    axes = [Interval(QRational(q, 0), m * j).partition(m * k) for j in range(1, k + 1)]
    return [
        Cube(_legacy_mat_apply(rows, QVector([axes[i][t].corner for i, t in enumerate(idx)])).rep_mod(m * k), m * k)
        for idx in _flat_index([len(ax) for ax in axes])
    ]


def _legacy_tile_partition(Q, K):
    q, k, m = Q.q, Q.k, K.scale_exp
    base = _legacy_mat_apply(_legacy_frame_rows(K.corner, k, transpose=True), Q.corner)
    axes = [
        sorted(
            {(base[j - 1] + QRational(q, t, -m * k)).rep_mod(-m * j) for t in range(q ** (m * (k - j)))},
            key=QRational.key,
        )
        for j in range(1, k + 1)
    ]
    return [Tile(K, QVector([axes[i][t] for i, t in enumerate(idx)])) for idx in _flat_index([len(a) for a in axes])]


CRITERION_3_GRID = [
    (q, k, m, K)
    for q, k in ((3, 2), (5, 2), (5, 3))
    for m in (1, 2)
    for K in unit_interval(q).partition(m)[: q - 1]
]


class TestBinomialFrame:
    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from([(3, 1), (3, 2), (5, 2), (5, 3), (7, 3), (11, 5)]),
        st.integers(-(10**6), 10**6),
        st.integers(-(10**6), 10**6),
    )
    def test_frame_identities(self, qk, a, t):
        q, k = qk
        B, Binv = binomial_frame(a, k), binomial_frame(-a, k)
        identity = tuple(tuple(int(i == j) for j in range(k)) for i in range(k))
        assert tuple(tuple(sum(B[i][l] * Binv[l][j] for l in range(k)) for j in range(k)) for i in range(k)) == identity
        gamma_int = lambda s: QVector.from_ints(q, [s**i for i in range(1, k + 1)])
        assert gamma_int(a + t) == gamma_int(a) + frame_apply(B, gamma_int(t))
        anchor = QRational(q, a)
        columns = [gamma_derivative(anchor, j, k) for j in range(1, k + 1)]
        entries = tangent_frame(anchor, k)
        assert entries == tuple(tuple(B[i][j] * factorial(j + 1) for j in range(k)) for i in range(k))
        assert all(QRational(q, entries[i][j]) == columns[j][i] for i in range(k) for j in range(k))

    def test_offset_point_matches_rational_back_substitution(self):
        for q, k, m, K in CRITERION_3_GRID:
            for t in tile_partition(ball(q, k, m * k), K):
                assert t.offset_point() == _legacy_offset_point(t)

    def test_offset_point_on_translated_cubes(self):
        rng = random.Random(5)
        for q, k, m, K in CRITERION_3_GRID[:6]:
            shift = QVector([QRational(q, rng.randrange(1, q**3), -m * k - 2) for _ in range(k)])
            for t in tile_partition(ball(q, k, m * k).translate(shift), K):
                assert t.offset_point() == _legacy_offset_point(t)
                assert t.contains(t.offset_point())

    @pytest.mark.parametrize("q, k", [(3, 1), (3, 2), (5, 2), (5, 3)])
    def test_enumerations_match_flat_index_loops(self, q, k):
        rng = random.Random(q * 10 + k)
        for m, Ks in ((1, unit_interval(q).partition(1)[:3]), (2, unit_interval(q).partition(2)[7:8])):
            for K in Ks:
                assert theta_diff_decompose(K, k) == _legacy_theta_diff_decompose(K, k)
                Q = ball(q, k, m * k)
                shifted = Q.translate(QVector([QRational(q, rng.randrange(q**4), -m * k - 3) for _ in range(k)]))
                for cube in (Q, shifted):
                    new, old = tile_partition(cube, K), _legacy_tile_partition(cube, K)
                    assert [t.dual_corner for t in new] == [t.dual_corner for t in old]
        c = Cube(QVector([QRational(q, 1, -2)] * k), -1)
        expected = [
            Cube(QVector([Interval(ci, c.scale_exp).partition(0)[t].corner for ci, t in zip(c.corner, idx)]), 0)
            for idx in _flat_index([q] * k)
        ]
        assert c.subdivide(0) == expected

    def test_affine_rescale_matches_rational_matrices(self):
        from momentlab import decoupling as dec
        from momentlab.random_instances import random_curve_supported

        rng = random.Random(3)
        checked = 0
        for _ in range(6):
            g = random_curve_supported(rng, 3, 2, 2, rng.randint(2, 9), 2)
            pieces = {**g.freq_components(unit_interval(3).partition(1)),
                      **g.freq_components(unit_interval(3).partition(2)[:3])}
            for I, g_I in pieces.items():
                if g_I.is_zero:
                    continue
                h, _ = dec.affine_rescale(g_I, I)
                assert h.is_identical(_legacy_affine_rescale(g_I, I))
                checked += 1
        assert checked >= 6


# every (q, k, m) whose residue lattice the tilings suite walks: criterion 3 and the benchmark's (3, 2, 3)
RESIDUE_CELLS = [(3, 2, 1), (3, 2, 2), (3, 2, 3), (5, 2, 1), (5, 2, 2), (5, 3, 1)]


class TestLatticeKernels:
    """The frame kernels on numpy columns against their one-point wrappers."""

    @pytest.mark.parametrize("q, k, m", RESIDUE_CELLS)
    def test_owner_digits_match_tile_of_point_on_every_residue(self, q, k, m):
        L = -m * k
        x = _lattice([q ** (m * (k - 1))] * k, object)
        for K in unit_interval(q).partition(m)[: q - 1]:
            digits = _owner_digits(tangent_frame(K.corner, k), x, L, m, q)
            for i in range(len(x[0])):
                point = QVector([QRational(q, c[i], L) for c in x])
                want = tile_of_point(point, K).dual_corner
                assert QVector([QRational(q, int(d[i]), L) for d in digits]) == want

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_columnar_owners_match_tile_of_point(self, data):
        # points repeat (as the pieces of one cube share tiles), sit off the unit
        # ball or deep inside it, and some coordinates are too large for int64
        q, k = data.draw(st.sampled_from([(3, 2), (5, 2), (5, 3)]))
        m = data.draw(st.integers(1, 3 if q == 3 else 2))
        K = Interval(QRational(q, data.draw(st.integers(0, q**m - 1))), m)
        unit = st.one_of(st.integers(-q**6, q**6), st.integers(q**40, q**41))
        coord = st.builds(QRational, st.just(q), unit, st.integers(-3 * m * k, 3))
        pool = data.draw(st.lists(st.lists(coord, min_size=k, max_size=k).map(QVector), min_size=1, max_size=4))
        points = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
        tiles, owner = _tile_owners(points, K)
        assert [tiles[i] for i in owner] == [tile_of_point(x, K) for x in points]
        assert len(set(tiles)) == len(tiles) == len(set(owner))  # one Tile per distinct owner

    @pytest.mark.parametrize("dtype", ["int64", object])
    def test_column_offsets_and_corners_match_the_objects(self, dtype):
        # Python-int columns are slow, so they skip the 15,625-tile cell
        for q, k, m, K in [c for c in CRITERION_3_GRID if dtype == "int64" or c[:3] != (5, 3, 2)]:
            entries = tangent_frame(K.corner, k)
            tiles = tile_partition(ball(q, k, m * k), K)
            L = -m * k
            duals = [[c.unit * q ** (c.valuation - L) if c.unit else 0 for c in t.dual_corner] for t in tiles]
            offsets = _offset_digits(entries, list(np.array(duals, dtype=dtype).T), L, m, q)
            offsets = [o if hasattr(o, "__len__") else [o] * len(tiles) for o in offsets]
            assert [QVector([QRational(q, int(o[i]), L) for o in offsets]) for i in range(len(tiles))] == [
                t.offset_point() for t in tiles
            ]
            group = _lattice([q ** (m * (k - j)) for j in range(1, k + 1)], dtype)
            corners = _diff_corners(entries, [u * q ** (m * j) for j, u in enumerate(group, 1)], q ** (m * k))
            assert [QVector.from_ints(q, [int(c[i]) for c in corners]) for i in range(len(corners[0]))] == [
                cube.corner for cube in theta_diff_decompose(K, k)
            ]
            box = theta_of(K, k)
            assert box._group_member(corners, 0).all()
            assert not box._group_member([corners[0] + 1, *corners[1:]], 0).any()


class TestTilingsLatticePass:
    """The suite reports a failure for each way the lattice pass can go wrong."""

    def _failures(self, q=5, k=2, m=1):
        from momentlab import verify

        report = verify.tilings(q, k, delta_exps=(m,))
        assert not report["passed"]
        return report["failures"]

    def test_dropped_tile(self, monkeypatch):
        from momentlab import verify

        monkeypatch.setattr(verify, "tile_partition", lambda Q, K: tile_partition(Q, K)[1:])
        failures = self._failures()
        assert "tile count at m=1: 4" in failures
        assert any("owned by a foreign tile" in f for f in failures)

    def test_duplicated_tile(self, monkeypatch):
        from momentlab import verify

        def duplicated(Q, K):
            tiles = tile_partition(Q, K)
            return tiles[:-1] + tiles[:1]

        monkeypatch.setattr(verify, "tile_partition", duplicated)
        failures = self._failures()
        assert "tile coset reps collide at m=1" in failures
        assert any("owned by a foreign tile" in f for f in failures)

    def test_shifted_owner_digit(self, monkeypatch):
        from momentlab import geometry, verify

        def shifted(rows, n, L, m, q):
            digits = geometry._owner_digits(rows, n, L, m, q)
            return [digits[0] + 1, *digits[1:]]

        monkeypatch.setattr(verify, "_owner_digits", shifted)
        failures = self._failures()
        assert "tile offset point escapes at m=1" in failures
        assert any("owned by a foreign tile" in f for f in failures)

    def test_moved_difference_corner(self, monkeypatch):
        from momentlab import geometry, verify

        def moved(rows, t, modulus):
            corners = geometry._diff_corners(rows, t, modulus)
            corners[0] = corners[0].copy()
            corners[0][-1] = (corners[0][-1] + 1) % modulus
            return corners

        monkeypatch.setattr(verify, "_diff_corners", moved)
        assert "difference-box corner escapes at m=1" in self._failures()

    def test_wrong_offset(self, monkeypatch):
        from momentlab import geometry, verify

        def wrong(rows, n, L, m, q):
            x = geometry._offset_digits(rows, n, L, m, q)
            return [x[0] + 1, *x[1:]]

        monkeypatch.setattr(verify, "_offset_digits", wrong)
        assert set(self._failures(5, 3, 1)) == {"tile offset point escapes at m=1"}

    def test_python_int_columns_give_the_same_reports(self, monkeypatch):
        from momentlab import verify

        def reports():
            return [verify.tilings(q, k, delta_exps=(m,)) for q, k, m in RESIDUE_CELLS]

        fast = reports()
        monkeypatch.setattr(verify, "INT64_LIMIT", 0)
        assert reports() == fast and all(r["passed"] for r in fast)
