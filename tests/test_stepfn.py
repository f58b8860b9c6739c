import random
import struct
import tracemalloc
from fractions import Fraction
from math import inf, isqrt

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import momentlab.quotient_dft as qd
from momentlab import errors, verify
from momentlab.errors import BudgetExceededError
from momentlab.geometry import Cube, ball, unit_interval
from momentlab.qadic import QRational, QVector, char_value
from momentlab.random_instances import random_modstep
from momentlab.stepfn import ModulatedStep, _cell_values, joint_cell_values


def q3(n, v=0):
    return QRational(3, n, v)


def vec(*vals):
    return QVector([q3(n) for n in vals])


def deep(n, v):
    return QRational(3, n, v)


GROUPS = [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (5, 3)]


def integral(f):
    """The Haar integral of f, read off as its transform at the origin."""
    return f.fourier().evaluate(QVector.zero(f.q, f.k))


def _parts(f):
    """(support cube, its (coeff, modulation) parts) pairs of a function."""
    return [(cube, [(c, b) for c, b, Q in f.terms if Q == cube]) for cube in f.support_cubes()]


@st.composite
def small_modsteps(draw, qk=None):
    """Random functions on the unit cube with modulations up to one digit
    finer than their cubes, over the group qk when given.

    Where q^k <= 25, term cubes sit at two scales, so the canonical form
    subdivides the coarser ones.
    """
    q, k = qk or draw(st.sampled_from(GROUPS))
    small = q**k <= 25
    top = draw(st.integers(0, 2 if small else 1))
    low = max(0, top - 1) if small else top
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        scale = draw(st.integers(low, top))
        corner = QVector(
            [QRational(q, draw(st.integers(0, q**scale - 1))).rep_mod(scale) for _ in range(k)]
        )
        depth = draw(st.integers(0, top + 1))
        mod = QVector(
            [QRational(q, draw(st.integers(0, q**depth - 1)), -depth).rep_mod(0) for _ in range(k)]
        )
        coeff = complex(draw(st.floats(0.1, 2.0)), draw(st.floats(-2.0, 2.0)))
        terms.append((coeff, mod, Cube(corner, scale)))
    return ModulatedStep(q, k, terms)


def _draw_terms(draw, q, k, scale, n_terms, offset=0):
    """n_terms random terms on cubes at one scale; corners may carry a digit
    at valuation -offset (off the unit ball), modulations go up to one digit
    finer than the cubes."""
    terms = []
    for _ in range(n_terms):
        corner = []
        for _ in range(k):
            x = QRational(q, draw(st.integers(0, q ** max(scale, 0) - 1)))
            if offset:
                x = x + QRational(q, draw(st.integers(0, q**offset - 1)), -offset)
            corner.append(x.rep_mod(scale))
        depth = draw(st.integers(0, scale + 1))
        mod = QVector(
            [QRational(q, draw(st.integers(0, q**depth - 1)), -depth).rep_mod(0) for _ in range(k)]
        )
        coeff = complex(draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0)))
        terms.append((coeff, mod, Cube(QVector(corner), scale)))
    return terms


@st.composite
def convolution_pairs(draw):
    """(f, g) with f drawn coarser than, finer than or at the scale of g."""
    q, k = draw(st.sampled_from([(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (5, 3)]))
    relation = draw(st.sampled_from(["coarser", "finer", "equal"]))
    base = draw(st.integers(0, 1))
    gap = draw(st.integers(1, 2 if q**k <= 9 else 1))
    sf, sg = {"coarser": (base, base + gap), "finer": (base + gap, base),
              "equal": (base, base)}[relation]
    f = ModulatedStep(q, k, _draw_terms(draw, q, k, sf, draw(st.integers(1, 4))))
    g = ModulatedStep(q, k, _draw_terms(draw, q, k, sg, draw(st.integers(1, 4))))
    return f, g


@st.composite
def grid_modsteps(draw, qk=None):
    """Small functions for full-grid checks: k = 1 included, corners off the
    unit ball, terms at two scales; grids of at most a few thousand points.
    Over the group qk when given."""
    q, k = qk or draw(st.sampled_from([(3, 1), (5, 1), (3, 2), (5, 2), (3, 3)]))
    digits = {(3, 1): 6, (5, 1): 4, (3, 2): 3, (5, 2): 2, (3, 3): 2}[(q, k)]  # max M + r
    offset = draw(st.integers(0, 1))
    top = draw(st.integers(0, digits - offset - 1))
    terms = []
    for scale in sorted({draw(st.integers(max(0, top - 1), top)) for _ in range(2)}):
        terms += _draw_terms(draw, q, k, scale, draw(st.integers(1, 2)), offset)
    return ModulatedStep(q, k, terms)


@st.composite
def fft_grids(draw):
    """(q, r, a, b): two complex grids of one shape, (q^d,) * k with k = 1..3,
    each dense, mostly zero (as a step function with small support leaves it),
    zero but for one point or a strided sublattice (its own step per axis), or zero."""
    q, k = draw(st.sampled_from([(3, 1), (5, 1), (3, 2), (5, 2), (3, 3)]))
    d = draw(st.integers(1, {1: 5, 2: 3, 3: 2}[k]))
    n = q**d
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grids = []
    for kind in (draw(st.sampled_from(["dense", "sparse", "point", "sublattice", "zero"])) for _ in range(2)):
        g = rng.standard_normal((n,) * k) + 1j * rng.standard_normal((n,) * k)
        if kind == "sparse":
            g[rng.random(g.shape) > 0.05] = 0
        elif kind in ("point", "sublattice"):
            steps = [n if kind == "point" else q ** draw(st.integers(0, d)) for _ in range(k)]
            support = tuple(slice(draw(st.integers(0, s - 1)), n, s) for s in steps)
            kept = g[support].copy()
            g[...] = 0
            g[support] = kept
        elif kind == "zero":
            g[...] = 0
        grids.append(g)
    return q, draw(st.integers(0, d)), *grids


@st.composite
def product_pairs(draw):
    """(f, g) with f drawn coarser than, finer than or at the scale of g.

    Most finer cubes are drawn inside cubes of the coarser function, so that
    products are rarely zero; a few land anywhere.
    """
    q, k = draw(st.sampled_from(GROUPS))
    relation = draw(st.sampled_from(["coarser", "finer", "equal"]))
    base = draw(st.integers(0, 1))
    gap = 0 if relation == "equal" else draw(st.integers(1, 2 if q**k <= 9 else 1))
    coarse = _draw_terms(draw, q, k, base, draw(st.integers(1, 4)))
    fine = _draw_terms(draw, q, k, base + gap, draw(st.integers(0, 1)))
    for _ in range(draw(st.integers(1, 5))):
        cube = draw(st.sampled_from(coarse))[2]
        shift = QVector([QRational(q, draw(st.integers(0, q**gap - 1)), base) for _ in range(k)])
        c, b, _ = _draw_terms(draw, q, k, base + gap, 1)[0]
        fine.append((c, b, Cube((cube.corner + shift).rep_mod(base + gap), base + gap)))
    f, g = ModulatedStep(q, k, coarse), ModulatedStep(q, k, fine)
    return (g, f) if relation == "finer" else (f, g)


def _pieces(h, scale):
    """h's terms with every cube subdivided to the given finer scale."""
    return [(c, b, piece) for c, b, cube in h.terms
            for piece in ([cube] if cube.scale_exp == scale else cube.subdivide(scale))]


def _subdivide_and_pair_product(f, g):
    """Reference product: both functions subdivided to the finer scale, then
    paired on equal cubes, g's pieces in the outer loop."""
    if f.is_zero or g.is_zero:
        return ModulatedStep.zero(f.q, f.k)
    scale = max(f.scale_exp, g.scale_exp)
    by_cube = {}
    for c, b, cube in _pieces(f, scale):
        by_cube.setdefault(cube, []).append((c, b))
    out = [(c1 * c2, b1 + b2, cube) for c2, b2, cube in _pieces(g, scale) for c1, b1 in by_cube.get(cube, ())]
    return ModulatedStep(f.q, f.k, out)


def _subdivide_and_pair_convolve(f, g):
    """Reference convolution: both functions subdivided to the finer scale,
    then every piece pair tested."""
    if f.is_zero or g.is_zero:
        return ModulatedStep.zero(f.q, f.k)
    scale = max(f.scale_exp, g.scale_exp)
    vol = float(Fraction(f.q) ** (-scale * f.k))

    out = []
    for c1, b1, cube1 in _pieces(f, scale):
        for c2, b2, cube2 in _pieces(g, scale):
            d = b1 - b2
            if any(not (di.is_zero or di.valuation >= -scale) for di in d):
                continue
            corner = (cube1.corner + cube2.corner).rep_mod(scale)
            out.append((c1 * c2 * vol * char_value(d.dot(cube1.corner)), b2, Cube(corner, scale)))
    return ModulatedStep(f.q, f.k, out)


def _grid_point(q, k, M, index):
    """The q-adic point encoded by a spatial grid index."""
    return QVector([QRational(q, int(u), -M) for u in index])


def _dense_evaluate_on_grid(f, M, r):
    """Reference quotient grid: a full-grid mask and phase per axis, one
    dense rank-1 grid per term."""
    q, k = f.q, f.k
    n = q ** (M + r)
    u = np.arange(n, dtype=np.int64)
    grid = np.zeros((n,) * k, dtype=np.complex128)
    for coeff, b, cube in f.terms:
        axis_vectors = []
        for i in range(k):
            w = qd._axis_offsets(q, M, cube.corner[i])
            mask = (u - w) % q ** (cube.scale_exp + M) == 0
            if b[i].is_zero:
                axis_vectors.append(mask.astype(np.complex128))
            else:
                phase = qd._phase_numerators(b[i].unit * q ** (b[i].valuation + r) % n, u, n)
                axis_vectors.append(mask * np.exp(2j * np.pi * phase / n))
        term_grid = axis_vectors[0].reshape((n,) + (1,) * (k - 1))
        for i in range(1, k):
            term_grid = term_grid * axis_vectors[i].reshape((1,) * i + (n,) + (1,) * (k - i - 1))
        grid = grid + coeff * term_grid
    return grid


def _per_term_canonical(q, k, raw):
    """(terms, scale) of the canonical form with every term's modulation
    reduced and phased on its own, pieces merged by (cube, modulation) key;
    pruning and sibling compaction as in ``ModulatedStep``."""
    terms = [(complex(c), b, cube) for c, b, cube in raw if c != 0]
    if not terms:
        return [], 0
    scale = max(cube.scale_exp for _, _, cube in terms)
    merged = {}
    for c, b, cube in terms:
        rep = b.rep_mod(-scale)
        drift = b - rep
        for piece in [cube] if cube.scale_exp == scale else cube.subdivide(scale):
            coeff = c * char_value(drift.dot(piece.corner))
            key = (piece.key(), rep.key())
            if key in merged:
                merged[key][0] += coeff
            else:
                merged[key] = [coeff, rep, piece]
    tol = max(abs(c) for c, _, _ in merged.values()) * 1e-12
    out = [(c, b, cube) for c, b, cube in merged.values() if abs(c) > tol]
    if not out:
        return [], 0
    out, scale = _parent_cube_compact(q, k, out, scale)
    out.sort(key=lambda t: (t[2].key(), t[1].key()))
    return out, scale


def _parent_cube_compact(q, k, terms, scale):
    """Sibling compaction that builds every term's parent ``Cube`` and keys
    the families by (parent.key(), b.key()), first member's coefficient kept."""
    family = q**k
    while len(terms) % family == 0 and terms:
        groups = {}
        for c, b, cube in terms:
            parent = Cube(cube.corner.rep_mod(scale - 1), scale - 1)
            groups.setdefault((parent.key(), b.key()), []).append((c, b, cube, parent))
        mergeable = []
        for members in groups.values():
            c0 = members[0][0]
            if len(members) != family or any(abs(c - c0) > 1e-12 * max(1.0, abs(c0)) for c, _, _, _ in members):
                return terms, scale
            mergeable.append((c0, members[0][1], members[0][3]))
        terms = mergeable
        scale -= 1
    return terms, scale


def _bits(c):
    return struct.pack("<dd", c.real, c.imag)


# signed zeros in either part, next to ordinary values
COEFFS = st.one_of(
    st.sampled_from([complex(-0.0, -1.0), complex(-0.0, 1.0), complex(1.0, -0.0), complex(-1.5, -0.0),
                     complex(-0.0, 0.0), complex(2.0, 0.0)]),
    st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
)


@st.composite
def raw_terms(draw):
    """(q, k, terms): cubes at up to two scales, big ones (negative scales)
    and diagonal corners included, modulations drawn from a small pool so
    that they repeat.  A pool modulation is arbitrary, canonical at the
    finest scale, canonical plus an integer vector (a drift whose phase is
    1), canonical plus opposite drifts on two axes (which cancel mod 1 on
    diagonal corners), or a negated canonical corner, as ``_transform``
    makes them."""
    q, k = draw(st.sampled_from([(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (5, 3)]))
    top = draw(st.integers(-3, 2))
    low = top - draw(st.integers(0, 1 if q**k <= 125 else 0))
    pool = []
    for _ in range(draw(st.integers(1, 3))):
        b = QVector([QRational(q, draw(st.integers(-q**3, q**3)), draw(st.integers(-4, 1))) for _ in range(k)])
        kind = draw(st.sampled_from(["arbitrary", "canonical", "integer drift", "opposite drifts", "negated corner"]))
        if kind == "canonical":
            b = b.rep_mod(-top)
        elif kind == "integer drift":
            b = b.rep_mod(-top) + QVector.from_ints(q, [draw(st.integers(-q**2, q**2)) for _ in range(k)])
        elif kind == "opposite drifts":
            d = QRational(q, draw(st.integers(1, q**3)), draw(st.integers(-top, -top + 2)))
            b = b.rep_mod(-top) + QVector([d, -d, *[QRational(q, 0)] * (k - 2)][:k])
        elif kind == "negated corner":
            b = -QVector([QRational(q, draw(st.integers(0, q**4)), -3).rep_mod(-top) for _ in range(k)])
        pool.append(b)
    terms = []
    for _ in range(draw(st.integers(1, 6))):
        scale = draw(st.integers(low, top))
        coords = [QRational(q, draw(st.integers(0, q**4)), min(scale, 0) - 3).rep_mod(scale) for _ in range(k)]
        corner = QVector([coords[0]] * k if draw(st.booleans()) else coords)
        terms.append((draw(COEFFS), draw(st.sampled_from(pool)), Cube(corner, scale)))
    return q, k, terms


class TestCanonicalize:
    @settings(max_examples=150, deadline=None)
    @given(raw_terms())
    def test_matches_the_per_term_reduction_bitwise(self, case):
        q, k, raw = case
        f = ModulatedStep(q, k, raw)
        want, scale = _per_term_canonical(q, k, raw)
        assert f.scale_exp == scale and len(f.terms) == len(want)
        for (c1, b1, Q1), (c2, b2, Q2) in zip(f.terms, want):
            assert (_bits(c1), b1, Q1) == (_bits(c2), b2, Q2)

    def test_canonical_terms_at_one_scale_build_no_scalar_and_keep_their_cubes(self, monkeypatch):
        # the modulations are canonical on their cubes, read off their integer keys
        cubes = ball(3, 2, 0).subdivide(1)[:4]
        b = QVector([deep(1, -2), deep(2, -2)])
        raw = [(1.0 + i, b, cube) for i, cube in enumerate(cubes)]
        built = []
        init = QRational.__init__
        monkeypatch.setattr(QRational, "__init__", lambda self, *a: (built.append(a), init(self, *a))[1])
        f = ModulatedStep(3, 2, raw)
        assert built == []
        assert all(Q is cube and bb is b for (_, bb, Q), cube in zip(f.terms, cubes))

    def test_a_canonical_modulation_keeps_the_unit_phase_product(self):
        # c * (1 + 0j) turns the real part -0.0 of (-0.0 - 1j) into +0.0
        f = ModulatedStep.indicator(ball(3, 1, 0), complex(-0.0, -1.0))
        assert _bits(f.terms[0][0]) == _bits(complex(-0.0, -1.0) * (1 + 0j)) == _bits(complex(0.0, -1.0))

    def test_a_slot_adds_its_contributions_in_term_order(self):
        # (1e16 - 1e16) + 1 is 1, while 1e16 + (-1e16 + 1) rounds to 0; integer drifts phase by exactly 1 + 0j
        O = ball(3, 2, 0)
        for mods in ([vec(0, 0)] * 3, [vec(0, 0), vec(1, 0), vec(2, 5)]):
            f = ModulatedStep(3, 2, [(c, b, O) for c, b in zip((1e16, -1e16, 1.0), mods)])
            assert [(c, b, Q) for c, b, Q in f.terms] == [(1.0, vec(0, 0), O)]

    def test_duplicate_indicators_merge(self):
        one = ModulatedStep.indicator(ball(3, 1, 0))
        two = one + one
        assert len(two.terms) == 1
        assert two.terms[0][0] == 2.0

    def test_complete_sibling_family_merges_to_parent(self):
        O = ball(3, 2, 0)
        children = O.subdivide(1)
        f = ModulatedStep(3, 2, [(1.5, QVector.zero(3, 2), c) for c in children])
        assert f.scale_exp == 0
        assert len(f.terms) == 1
        assert f.terms[0][2] == O

    def test_small_modulation_absorbed(self):
        # |b| at most the dual side is constant on the cube
        Q = Cube(vec(1, 0), 1)
        b = QVector([q3(1, -1), q3(0)])
        f = ModulatedStep.indicator(Q, 1.0, b)
        assert all(bi.is_zero for _, bb, _ in f.terms for bi in bb)
        want = complex(-0.5, 3**0.5 / 2)  # chi(1/3 * corner 1)
        assert abs(f.terms[0][0] - want) < 1e-15

    def test_live_modulation_kept(self):
        Q = Cube(vec(1, 0), 1)
        b = QVector([deep(1, -2), q3(0)])
        f = ModulatedStep.indicator(Q, 1.0, b)
        assert not all(bi.is_zero for _, bb, _ in f.terms for bi in bb)

    def test_idempotent(self):
        rng = random.Random(0)
        f = random_modstep(rng, 3, 2, 4, 2)
        g = ModulatedStep(3, 2, list(f.terms))
        assert f.is_identical(g)

    def test_zero_prunes(self):
        Q = ball(3, 1, 0)
        f = ModulatedStep(3, 1, [(1.0, QVector.zero(3, 1), Q), (-1.0, QVector.zero(3, 1), Q)])
        assert f.is_zero


@st.composite
def sibling_families(draw):
    """(q, k, terms, scale): every piece at ``scale`` of a few root cubes with
    one coefficient per (root, modulation), in drawn order, sometimes spoiled
    by one far coefficient or nudged by one within the merge tolerance."""
    q, k = draw(st.sampled_from([(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)]))
    top, depth = draw(st.integers(-2, 1)), draw(st.integers(1, 2))
    coord = st.builds(QRational, st.just(q), st.integers(0, q**4), st.integers(-3, 0)).map(lambda c: c.rep_mod(top))
    roots = draw(st.lists(st.lists(coord, min_size=k, max_size=k).map(lambda cs: Cube(QVector(cs), top)),
                          min_size=1, max_size=2, unique=True))
    mods = list(dict.fromkeys(
        QVector([QRational(q, draw(st.integers(-q**3, q**3)), draw(st.integers(-3, 1))) for _ in range(k)])
        for _ in range(draw(st.integers(1, 2)))))
    terms = [(c, b, piece) for root in roots for b in mods for c in [draw(COEFFS)]
             for piece in root.subdivide(top + depth)]
    terms = draw(st.permutations(terms))
    i, spoil = draw(st.integers(0, len(terms) - 1)), draw(st.sampled_from([None, 1.0, 1e-14]))
    if spoil is not None:
        c, b, cube = terms[i]
        terms[i] = (c + spoil * max(1.0, abs(c)), b, cube)
    return q, k, terms, top + depth


def _keyed(terms):
    return [((cube.key(), b.key()), c, b, cube) for c, b, cube in terms]


class TestCompact:
    @settings(max_examples=150, deadline=None)
    @given(sibling_families())
    def test_matches_the_parent_cube_version(self, case):
        q, k, terms, scale = case
        got, got_scale = ModulatedStep._compact(q, k, _keyed(terms), scale)
        want, want_scale = _parent_cube_compact(q, k, terms, scale)
        assert got_scale == want_scale
        assert [(key, _bits(c), b, cube) for key, c, b, cube in got] == \
            [(key, _bits(c), b, cube) for key, c, b, cube in _keyed(want)]

    def test_a_family_merges_twice(self):
        terms = [(1.5 + 0.5j, QVector.zero(3, 2), piece) for piece in ball(3, 2, 0).subdivide(2)]
        got, scale = ModulatedStep._compact(3, 2, _keyed(terms), 2)
        assert (scale, got) == (0, _keyed([(1.5 + 0.5j, QVector.zero(3, 2), ball(3, 2, 0))]))
        assert _parent_cube_compact(3, 2, terms, 2) == ([(1.5 + 0.5j, QVector.zero(3, 2), ball(3, 2, 0))], 0)

    def test_no_cube_built_when_a_family_does_not_merge(self, monkeypatch):
        built = []
        init = Cube.__init__
        monkeypatch.setattr(Cube, "__init__", lambda self, *a: (built.append(a), init(self, *a))[1])
        zero = QVector.zero(3, 2)
        children = ball(3, 2, 0).subdivide(1)
        spoiled = _keyed([(1.0 + (i == 4), zero, c) for i, c in enumerate(children)])
        built.clear()
        assert ModulatedStep._compact(3, 2, spoiled, 1) == (spoiled, 1)
        assert built == []
        merging = _keyed([(1.0, zero, c) for c in children])
        assert ModulatedStep._compact(3, 2, merging, 1)[1] == 0
        assert len(built) == 1  # one parent for the one family that merged


class TestIntegration:
    def test_unit_mass(self):
        for k in (1, 2, 3):
            assert integral(ModulatedStep.indicator(ball(3, k, 0))) == 1

    def test_haar_scaling(self):
        for m in (1, 2):
            f = ModulatedStep.indicator(Cube(QVector.zero(3, 2).rep_mod(m), m))
            assert abs(integral(f) - float(Fraction(1, 9**m))) < 1e-15

    def test_oscillation_kills_the_integral(self):
        f = ModulatedStep.indicator(ball(3, 1, 0), 1.0, QVector([q3(1, -1)]))
        assert integral(f) == 0
        # oracle: the three cube-rooted character values sum to zero
        s = sum(np.exp(2j * np.pi * j / 3) for j in range(3)) / 3
        assert abs(integral(f) - s) < 1e-15


class TestFourier:
    def test_unit_cube_fixed_point(self):
        for q in (3, 5):
            for k in (1, 2, 3):
                one = ModulatedStep.indicator(ball(q, k, 0))
                assert one.fourier().is_identical(one)

    def test_transform_is_kept(self, transforms):
        f = random_modstep(random.Random(3), 3, 2, 4, 2)
        assert f.fourier() is f.fourier()
        assert transforms == [False]

    def test_small_ball_transform(self):
        # the indicator of 3 Z_3 maps to a third of the ball of radius 3
        f = ModulatedStep.indicator(Cube(QVector([q3(0)]), 1))
        hat = f.fourier()
        assert len(hat.terms) == 1
        coeff, b, cube = hat.terms[0]
        assert abs(coeff - 1 / 3) < 1e-15
        assert cube == Cube(QVector([q3(0)]), -1)
        # oracle: finite character sums over the quotient
        M, r = qd.grid_geometry(f)
        oracle = qd.dft_grid(qd.evaluate_on_grid(f, M, r), 3, r, qd.live_lines(f, M, r))
        sym = qd.evaluate_on_grid(hat, r, M)
        assert np.abs(oracle - sym).max() < 1e-15

    def test_double_transform_is_reflection(self):
        rng = random.Random(1)
        f = random_modstep(rng, 3, 2, 5, 2)
        rt = f.fourier().fourier()
        reflected = ModulatedStep(
            3,
            2,
            [
                (c, -b, Cube((-cube.corner).rep_mod(cube.scale_exp), cube.scale_exp))
                for c, b, cube in f.terms
            ],
        )
        assert rt.close_to(reflected, 1e-12)

    def test_round_trip(self):
        rng = random.Random(2)
        for _ in range(10):
            f = random_modstep(rng, 3, 2, rng.randint(1, 5), rng.randint(1, 2))
            assert f.fourier().inverse_fourier().close_to(f, 1e-12)

    def test_modulation_translation_duality(self):
        b = QVector([deep(1, -1)])
        f = ModulatedStep.indicator(ball(3, 1, 0), 1.0, b)
        hat = f.fourier()
        assert len(hat.terms) == 1
        assert hat.terms[0][2].corner == b.rep_mod(0)


class TestPointwise:
    def test_unit_modulus_squares_to_indicator(self):
        Q = ball(3, 2, 0)
        f = ModulatedStep.indicator(Q, 1.0, QVector([deep(1, -2), q3(0)]))
        sq = f * f.conj()
        assert sq.is_identical(ModulatedStep.indicator(Q))

    def test_multiplication_by_zero(self):
        f = ModulatedStep.indicator(ball(3, 2, 0))
        assert (f * ModulatedStep.zero(3, 2)).is_zero

    def test_product_transform_is_convolution(self):
        rng = random.Random(3)
        for _ in range(8):
            f = random_modstep(rng, 3, 2, rng.randint(1, 4), 2)
            g = random_modstep(rng, 3, 2, rng.randint(1, 3), 1)
            lhs = (f * g).fourier()
            rhs = f.fourier().convolve(g.fourier())
            assert lhs.close_to(rhs, 1e-10)

    def test_product_support_calculus(self):
        rng = random.Random(4)
        for _ in range(8):
            f = random_modstep(rng, 3, 2, 3, 2)
            g = random_modstep(rng, 3, 2, 3, 2)
            supp = {c for c in (f * g).support_cubes()}
            allowed = set()
            for a in f.support_cubes():
                for b in g.support_cubes():
                    if a == b:
                        allowed.add(a)
            assert supp <= allowed

    def test_transform_support_of_products_adds(self):
        rng = random.Random(5)
        for _ in range(5):
            f = random_modstep(rng, 3, 1, 2, 1, mod_depth=1)
            g = random_modstep(rng, 3, 1, 2, 1, mod_depth=1)
            prod_cubes = (f * g).fourier().support_cubes()
            sums = set()
            for a in f.fourier().support_cubes():
                for b in g.fourier().support_cubes():
                    m = min(a.scale_exp, b.scale_exp)
                    sums.add(Cube((a.corner + b.corner).rep_mod(m), m))
            for cube in prod_cubes:
                assert any(s.contains_cube(cube) or cube.contains_cube(s) for s in sums)


class TestProductByParentLookup:
    @settings(max_examples=150, deadline=None)
    @given(product_pairs())
    def test_matches_subdivide_and_pair(self, pair):
        f, g = pair
        for a, b in ((f, g), (g, f)):
            assert (a * b).is_identical(_subdivide_and_pair_product(a, b))

    def test_subdivides_nothing(self, monkeypatch):
        f = ModulatedStep.indicator(ball(3, 2, 0), 2.0, QVector([deep(1, -1), q3(0)]))
        g = ModulatedStep.indicator(Cube(vec(1, 2), 2), 1.5, QVector([deep(5, -3), q3(0)]))
        want = _subdivide_and_pair_product(f, g)
        real = Cube.subdivide

        def refuse(self, scale_exp):  # a cube at its own scale is its own subdivision
            if scale_exp != self.scale_exp:
                raise AssertionError("the product subdivided a cube")
            return real(self, scale_exp)

        monkeypatch.setattr(Cube, "subdivide", refuse)
        assert (f * g).is_identical(want)
        assert len(want.terms) == 1


class TestConvolution:
    def test_unit_ball_idempotent(self):
        one = ModulatedStep.indicator(ball(3, 2, 0))
        assert one.convolve(one).is_identical(one)

    def test_averaging_locally_constant(self):
        f = ModulatedStep.indicator(ball(3, 2, 0), 2.5)
        mollifier = ModulatedStep.indicator(Cube(QVector.zero(3, 2).rep_mod(2), 2), 81.0)
        assert f.convolve(mollifier).close_to(f, 1e-12)

    def test_corner_sum_support(self):
        a = ModulatedStep.indicator(Cube(vec(1, 2), 1))
        b = ModulatedStep.indicator(Cube(vec(2, 0), 1))
        conv = a.convolve(b)
        assert conv.support_cubes() == [Cube(vec(0, 2), 1)]


class TestClosedFormConvolution:
    @settings(max_examples=80, deadline=None)
    @given(convolution_pairs())
    def test_matches_subdivide_and_pair(self, pair):
        f, g = pair
        for a, b in ((f, g), (g, f)):
            got, want = a.convolve(b), _subdivide_and_pair_convolve(a, b)
            assert got.close_to(want, 1e-12)
            if a.scale_exp == b.scale_exp:
                assert got.is_identical(want)

    @settings(max_examples=40, deadline=None)
    @given(convolution_pairs())
    def test_matches_grid_convolution(self, pair):
        f, g = pair
        (Mf, rf), (Mg, rg) = qd.grid_geometry(f), qd.grid_geometry(g)
        M, r = max(Mf, Mg), max(rf, rg)
        assume(f.q ** ((M + r) * f.k) <= 50_000)
        oracle = qd.convolve_grids(
            qd.evaluate_on_grid(f, M, r), qd.evaluate_on_grid(g, M, r), f.q, r,
            qd.live_lines(f, M, r), qd.live_lines(g, M, r),
        )
        sym = qd.evaluate_on_grid(f.convolve(g), M, r)
        assert np.abs(oracle - sym).max() <= 1e-12 * max(1.0, float(np.abs(oracle).max()))


class TestRestriction:
    def test_full_interval_is_identity(self):
        # needs the transform inside the unit slab, so use curve support
        from momentlab.random_instances import random_curve_supported

        rng = random.Random(6)
        f = random_curve_supported(rng, 3, 2, 2, 3, 2)
        O = unit_interval(3)
        assert f.freq_components([O])[O].close_to(f, 1e-10)

    def test_disjoint_interval_kills(self):
        hat = ModulatedStep.indicator(Cube(vec(1, 0), 1))
        f = hat.inverse_fourier()
        P = unit_interval(3).partition(1)
        comps = f.freq_components(P)
        assert list(comps) == [P[1]]

    def test_dead_intervals_are_left_out(self, transforms):
        # hat - chi(xi_1 / 3) hat cancels where xi_1 = 0 mod 3: that bucket
        # is not empty, but its piece canonicalizes to zero
        O = ball(3, 2, 0)
        wave = QVector([deep(1, -1), q3(0)])
        f = (ModulatedStep.indicator(O) - ModulatedStep.indicator(O, 1.0, wave)).inverse_fourier()
        P = unit_interval(3).partition(1)
        transforms.clear()
        comps = f.freq_components(P)
        assert list(comps) == [P[1], P[2]]
        assert transforms == [False, True, True]  # one transform, one inverse per live piece
        assert (comps[P[1]] + comps[P[2]]).close_to(f, 1e-10)

    def test_pieces_keep_the_transform_they_were_made_from(self, transforms):
        rng = random.Random(11)
        f = random_modstep(rng, 3, 2, 3, 2)
        P = unit_interval(3).partition(1)
        comps = f.freq_components(P)
        assert len(comps) == 3
        transforms.clear()
        for I, g in comps.items():
            hat = g.fourier()
            assert all(I.contains(cube.corner[0]) for cube in hat.support_cubes())
            assert hat.close_to(ModulatedStep(3, 2, g.terms).fourier(), 1e-12)
        assert transforms == [False] * len(comps)  # only the fresh copies

    def test_partition_of_unity(self):
        from momentlab.random_instances import random_curve_supported

        rng = random.Random(7)
        f = random_curve_supported(rng, 3, 2, 2, 4, 2)
        P = unit_interval(3).partition(2)
        comps = f.freq_components(P)
        total = ModulatedStep.zero(3, 2)
        for g in comps.values():
            total = total + g
        assert total.close_to(f, 1e-10)

    def test_projections_idempotent_and_commuting(self):
        from momentlab.random_instances import random_curve_supported

        rng = random.Random(8)
        f = random_curve_supported(rng, 3, 2, 1, 3, 2)
        P = unit_interval(3).partition(1)
        a = f.freq_components(P)[P[0]]
        again = a.freq_components(P)
        assert again[P[0]].close_to(a, 1e-10)
        assert P[1] not in again


class TestNorms:
    def test_indicator_norm(self):
        Q = Cube(QVector.zero(3, 2).rep_mod(1), 1)
        f = ModulatedStep.indicator(Q)
        for p in (1, 2, 4, 8):
            assert abs(f.lp_norm(p) - float(Q.volume) ** (1 / p)) < 1e-12
        assert f.lp_norm(inf) == 1.0

    def test_modulation_invariance(self):
        Q = ball(3, 2, 0)
        f = ModulatedStep.indicator(Q, 1.5)
        g = ModulatedStep.indicator(Q, 1.5, QVector([deep(2, -2), deep(1, -1)]))
        for p in (1, 2, 6, inf):
            assert abs(f.lp_norm(p) - g.lp_norm(p)) < 1e-12

    def test_plancherel_random(self):
        rng = random.Random(9)
        for _ in range(20):
            f = random_modstep(rng, 3, 2, rng.randint(1, 5), rng.randint(1, 2))
            assert abs(f.lp_norm(2) - f.fourier().lp_norm(2)) < 1e-9

    def test_sup_attained_on_cells(self):
        rng = random.Random(10)
        f = random_modstep(rng, 3, 2, 4, 2)
        r = f.cell_scale()
        coarse, fine = (
            max(float(np.abs(_cell_values(cube, parts, scale)).max()) for cube, parts in _parts(f))
            for scale in (r, r + 1)
        )
        assert abs(coarse - fine) < 1e-12
        assert abs(f.lp_norm(inf) - coarse) < 1e-12

    def test_small_p_rejected(self):
        f = ModulatedStep.indicator(ball(3, 1, 0))
        with pytest.raises(ValueError):
            f.lp_norm(0.5)

    def test_cell_budget(self, monkeypatch):
        monkeypatch.setattr(errors, "CELL_BUDGET", 10)
        Q = ball(3, 2, 0)
        f = ModulatedStep(
            3,
            2,
            [
                (1.0, QVector([deep(1, -9), deep(1, -9)]), Q),
                (1.0, QVector([deep(2, -9), deep(1, -8)]), Q),
            ],
        )
        with pytest.raises(BudgetExceededError):
            f.lp_norm(2)


class TestCellKernel:
    @settings(max_examples=60, deadline=None)
    @given(small_modsteps(), st.integers(0, 1))
    def test_kernel_matches_symbolic_evaluation(self, f, extra):
        r = f.cell_scale() + extra
        assume(len(f.support_cubes()) * f.q ** (f.k * (r - f.scale_exp)) <= 4000)
        for cube, parts in _parts(f):
            values = _cell_values(cube, parts, r)
            expected = [f.evaluate(cell.corner) for cell in cube.subdivide(r)]
            assert values.shape == (len(expected),)
            assert np.abs(values - np.array(expected)).max() < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(small_modsteps())
    def test_norms_match_quotient_grid(self, f):
        M, r = qd.grid_geometry(f)
        grid = qd.evaluate_on_grid(f, M, r)
        l2, sup = qd.grid_l2_norm(grid, f.q, r, qd.live_lines(f, M, r)), float(np.abs(grid).max())
        assert abs(f.lp_norm(2) - l2) < 1e-12 * max(1.0, l2)
        assert abs(f.lp_norm(inf) - sup) < 1e-12 * max(1.0, sup)
        # joint cells align functions of different scales on common cubes
        coarse = ModulatedStep.indicator(ball(f.q, f.k, 0), 0.5)
        volumes, moduli = joint_cell_values([coarse, f])
        energies = (volumes * moduli**2).sum(axis=1)
        assert abs(energies[0] - 0.25) < 1e-12
        assert abs(energies[1] - l2**2) < 1e-12 * max(1.0, l2**2)


class TestJointCells:
    """``joint_cell_values`` against |``evaluate``| at every cell corner."""

    @staticmethod
    def check(fns):
        q, k = fns[0].q, fns[0].k
        live = [f for f in fns if not f.is_zero]
        s = max(f.scale_exp for f in live)
        finest = max(f.cell_scale() for f in live)
        volumes, moduli = joint_cell_values(fns)
        assert moduli.shape == (len(fns), volumes.size)
        # the documented order: support cubes at scale s as they first appear, each refined
        cubes = dict.fromkeys(p for f in live for _, _, c in f.terms for p in c.subdivide(s))
        start = 0
        for cube in cubes:
            n = round(float(cube.volume) / volumes[start])
            r = s + round(np.log(n) / np.log(q)) // k
            assert n == q ** ((r - s) * k) and s <= r <= max(s, finest)
            for j, cell in enumerate(cube.subdivide(r), start):
                assert volumes[j] == float(cell.volume)
                # |f| is constant on the cell: one value at every point of the finest scale
                points = [x.corner for x in cell.subdivide(max(r, finest))]
                for i, f in enumerate(fns):
                    want = [abs(f.evaluate(x)) for x in points]
                    assert max(abs(w - moduli[i, j]) for w in want) < 1e-12 * max(1.0, moduli[i, j])
            start += n
        assert start == volumes.size

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_symbolic_evaluation_across_scales(self, data):
        qk = data.draw(st.sampled_from(GROUPS))
        fns = [data.draw(small_modsteps(qk)) for _ in range(data.draw(st.integers(1, 3)))]
        assume(any(not f.is_zero for f in fns))
        live = [f for f in fns if not f.is_zero]
        s, finest = max(f.scale_exp for f in live), max(f.cell_scale() for f in live)
        cubes = {p for f in live for c in f.support_cubes() for p in c.subdivide(s)}
        assume(len(cubes) * qk[0] ** (qk[1] * (finest - s)) * len(fns) <= 3000)
        self.check(fns)

    def test_two_terms_on_an_unrefined_cube(self):
        # 1 + chi(x/3) on Z_3 has moduli 2, 1, 1 by residue, though its modulation
        # difference is constant on the scale-2 cells the indicator forces
        f = ModulatedStep(3, 1, [(1.0, vec(0), ball(3, 1, 0)), (1.0, QVector([deep(1, -1)]), ball(3, 1, 0))])
        g = ModulatedStep.indicator(Cube(vec(0), 2))
        self.check([f, g])
        volumes, moduli = joint_cell_values([f, g])
        assert volumes.size == 9 and sorted(np.round(moduli[0], 12).tolist()) == [1.0] * 6 + [2.0] * 3

    def test_zero_rows_and_budget(self, monkeypatch):
        f = ModulatedStep.indicator(ball(3, 2, 0), 2.0)
        volumes, moduli = joint_cell_values([ModulatedStep.zero(3, 2), f])
        assert volumes.tolist() == [1.0] and moduli.tolist() == [[0.0], [2.0]]
        monkeypatch.setattr(errors, "CELL_BUDGET", 100)
        with pytest.raises(BudgetExceededError):
            joint_cell_values([f, ModulatedStep.indicator(Cube(vec(0, 0), 4))])


class TestOracleAgreement:
    def test_transform_against_quotient_dft(self):
        rng = random.Random(11)
        for q, k in ((3, 1), (3, 2), (5, 2)):
            for _ in range(10):
                f = random_modstep(rng, q, k, rng.randint(1, 4), rng.randint(1, 3))
                M, r = qd.grid_geometry(f)
                oracle = qd.dft_grid(qd.evaluate_on_grid(f, M, r), q, r, qd.live_lines(f, M, r))
                sym = qd.evaluate_on_grid(f.fourier(), r, M)
                ref = max(1.0, float(np.abs(oracle).max()))
                assert np.abs(oracle - sym).max() / ref < 1e-12

    def test_convolution_against_quotient_dft(self):
        rng = random.Random(12)
        q, k = 3, 2
        for _ in range(8):
            f = random_modstep(rng, q, k, 3, 2)
            g = random_modstep(rng, q, k, 2, 1)
            Mf, rf = qd.grid_geometry(f)
            Mg, rg = qd.grid_geometry(g)
            M, r = max(Mf, Mg), max(rf, rg)
            oracle = qd.convolve_grids(
                qd.evaluate_on_grid(f, M, r), qd.evaluate_on_grid(g, M, r), q, r,
                qd.live_lines(f, M, r), qd.live_lines(g, M, r),
            )
            sym = qd.evaluate_on_grid(f.convolve(g), M, r)
            assert np.abs(oracle - sym).max() < 1e-12

    def test_grid_points_match_symbolic_evaluation(self):
        rng = random.Random(13)
        f = random_modstep(rng, 3, 2, 3, 2)
        M, r = qd.grid_geometry(f)
        grid = qd.evaluate_on_grid(f, M, r)
        n = 3 ** (M + r)
        for _ in range(20):
            idx = (rng.randrange(n), rng.randrange(n))
            x = _grid_point(3, 2, M, idx)
            assert abs(grid[idx] - f.evaluate(x)) < 1e-12


def _whole_grid_l2(grid, q, r):
    return float(np.sqrt((np.abs(grid) ** 2).sum() * float(Fraction(q) ** (-r * grid.ndim))))


def _l2_close(got, want) -> bool:
    """Within 1e-12 relative, a NaN matching a NaN: a streamed norm sums per slab, not in numpy's pairwise order."""
    return got == pytest.approx(want, rel=1e-12, abs=0, nan_ok=True)


def _out_of_place_oracle_agreement(report, q, k, n_instances, seed, grid_points, tol=1e-9):
    """``verify.oracle_agreement`` with materialized grids, out-of-place FFTs
    and whole-grid norms and maxima; records each instance's grid size and
    that of its convolution check (0 where it has none)."""
    rng = random.Random(seed)
    worst = 0.0
    heavy = q ** (3 * k) > verify.GRID_CHECK_LIMIT
    for i in range(n_instances):
        scale = rng.choice([1, 1, 2, 2, 3]) if not heavy else rng.choice([1, 1, 1, 2, 2, 2, 2, 3])
        f = random_modstep(rng, q, k, rng.randint(1, 4), scale, mod_depth=scale)
        M, r = qd.grid_geometry(f)
        grid = qd.evaluate_on_grid(f, M, r)
        grid_points.append([grid.size, 0])
        oracle_hat = np.fft.fftn(grid)
        oracle_hat *= float(Fraction(q) ** (-r * k))
        fhat = f.fourier()
        sym_hat = qd.evaluate_on_grid(fhat, r, M)
        l2 = f.lp_norm(2)
        grid_l2, hat_l2 = _whole_grid_l2(grid, q, r), _whole_grid_l2(sym_hat, q, M)
        scale_ref = max(1.0, float(np.abs(oracle_hat).max()))
        np.subtract(oracle_hat, sym_hat, out=sym_hat)
        worst = max(worst, float(np.abs(sym_hat).max()) / scale_ref)
        worst = max(worst, abs(grid_l2 - l2), abs(l2 - hat_l2))
        g = random_modstep(rng, q, k, rng.randint(1, 3), max(1, scale - 1), mod_depth=1)
        if not (f * g).fourier().close_to(fhat.convolve(g.fourier()), tol):
            report["failures"].append(f"product/convolution theorem failed at instance {i}")
        n = q ** (M + r)
        if n**k <= verify.GRID_CHECK_LIMIT:
            Mg, rg = qd.grid_geometry(g)
            MM, rr = max(M, Mg), max(r, rg)
            a, b = qd.evaluate_on_grid(f, MM, rr), qd.evaluate_on_grid(g, MM, rr)
            grid_points[-1][1] = a.size
            conv_oracle = np.fft.ifftn(np.fft.fftn(a) * np.fft.fftn(b))
            conv_oracle *= float(Fraction(q) ** (-rr * k))
            conv_sym = qd.evaluate_on_grid(f.convolve(g), MM, rr)
            ref = max(1.0, float(np.abs(conv_oracle).max()))
            np.subtract(conv_oracle, conv_sym, out=conv_sym)
            worst = max(worst, float(np.abs(conv_sym).max()) / ref)
    report["worst_rel_error"] = worst
    report["instances"] = n_instances
    if worst > tol:
        report["failures"].append(f"relative error {worst} above {tol}")


def _scanned_live_lines(grid):
    """The lines along the last axis with a set bit, by a whole-grid scan; None for at most one slab."""
    return None if grid.size <= qd.SLAB_POINTS else grid.view(np.uint64).any(axis=-1)


def _check_in_place_transforms(q, r, a, b):
    cell = float(Fraction(q) ** (-r * a.ndim))
    want_hat = np.fft.fftn(a)
    want_hat *= cell
    want_conv = np.fft.ifftn(np.fft.fftn(a) * np.fft.fftn(b))
    want_conv *= cell
    spatial = a.copy()
    got_hat = qd.dft_grid(spatial, q, r, _scanned_live_lines(spatial))
    assert got_hat is spatial and got_hat.tobytes() == want_hat.tobytes()
    got_conv = qd.convolve_grids(a, b, q, r, _scanned_live_lines(a), _scanned_live_lines(b))
    assert got_conv is a and got_conv.tobytes() == want_conv.tobytes()


class TestInPlaceTransforms:
    @settings(max_examples=40, deadline=None)
    @given(fft_grids())
    def test_bitwise_equal_to_out_of_place(self, grids):
        _check_in_place_transforms(*grids)

    @settings(max_examples=80, deadline=None)
    @given(fft_grids())
    def test_live_lines_bitwise_equal_to_out_of_place(self, grids):
        # one-point slabs send every grid down the path that skips all-zero lines
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(qd, "SLAB_POINTS", 1)
            _check_in_place_transforms(*grids)

    @pytest.mark.parametrize("kind", ["zero", "point"])
    def test_bluestein_length_transforms_every_line(self, kind):
        # numpy's FFT of a +0 line of length 101 has -0.0 entries, so no line may be left
        a, b = np.zeros((2, 101, 101), dtype=np.complex128)
        if kind == "point":
            a[3, 7] = b[50, 2] = 1 - 2j
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(qd, "SLAB_POINTS", 1)
            _check_in_place_transforms(101, 1, a, b)

    @pytest.mark.parametrize("slab_points", [1, 7, 50, qd.SLAB_POINTS])
    @settings(max_examples=30, deadline=None)
    @given(f=grid_modsteps(), seed=st.integers(0, 2**32 - 1), noise=st.floats(0, 1e-3))
    def test_streamed_comparison_equals_materialized_pipeline(self, slab_points, f, seed, noise):
        # f-hat on (r, M), strided supports on (M+1, r), a convolution and the zero function
        M, r = qd.grid_geometry(f)
        rng = np.random.default_rng(seed)
        cases = ((f.fourier(), r, M), (f, M + 1, r), (f.convolve(f), M, r), (ModulatedStep.zero(f.q, f.k), M, r))
        for h, MM, rr in cases:
            grid = qd.evaluate_on_grid(h, MM, rr)
            ref = grid + noise * (rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
            want = (float(np.abs(ref).max()), float(np.abs(ref - grid).max()), _whole_grid_l2(grid, f.q, rr))
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(qd, "SLAB_POINTS", slab_points)
                *peaks, l2 = qd.compare_on_grid(ref, h, MM, rr)
            assert peaks == list(want[:2]) and _l2_close(l2, want[2])

    @pytest.mark.parametrize("slab_points", [1, qd.SLAB_POINTS])  # one point per slab, or one slab
    def test_streamed_comparison_keeps_a_nan_of_an_early_slab(self, slab_points, monkeypatch):
        monkeypatch.setattr(qd, "SLAB_POINTS", slab_points)
        f = ModulatedStep.indicator(Cube(QVector([q3(0)]), 1), 2.0)
        ref = np.ones(9, dtype=np.complex128)
        ref[1] = np.nan
        peak, err, l2 = qd.compare_on_grid(ref, f, 1, 1)
        assert np.isnan(peak) and np.isnan(err)
        assert l2 == _whole_grid_l2(qd.evaluate_on_grid(f, 1, 1), 3, 1)

    def test_oracle_agreement_fails_on_a_nan_error(self, monkeypatch):
        compare = qd.compare_on_grid

        def nan_error(*args):
            peak, _, l2 = compare(*args)
            return peak, float("nan"), l2

        monkeypatch.setattr(qd, "compare_on_grid", nan_error)
        report = verify.oracle_agreement(3, 2, n_instances=3, seed=1)
        assert not report["passed"]
        assert len(report["failures"]) == 3 and all("non-finite error" in x for x in report["failures"])

    def test_oracle_report_on_the_largest_grid_equals_out_of_place_pipeline(self):
        # seed 9 draws its (5,3) instance at scale 3, on the 125^3-point grid, with no
        # convolution check; seed 17 draws (5,2) and (3,3) instances at scale 3 that have one
        for q, k, seed, points in ((5, 3, 9, [125**3, 0]), (5, 2, 17, [5**6] * 2), (3, 3, 17, [3**9] * 2)):
            grid_points = []
            want = verify._suite("oracle-agreement")(_out_of_place_oracle_agreement)(
                q, k, n_instances=1, seed=seed, grid_points=grid_points
            )
            assert grid_points == [points]
            got = verify.oracle_agreement(q, k, n_instances=1, seed=seed)
            assert repr(got) == repr(want)


class TestLiveLines:
    """``live_lines`` read from f's terms, against a whole-grid bit scan and numpy's whole-grid pipeline."""

    @staticmethod
    def spatial(h, M, r):
        """h's grid and live lines, after checking that no line off the mask has a set bit."""
        grid, live = qd.evaluate_on_grid(h, M, r), qd.live_lines(h, M, r)
        if live is None:
            assert grid.size <= qd.SLAB_POINTS
        else:
            assert live.shape == grid.shape[:-1]
            assert not (_scanned_live_lines(grid) & ~live).any()
        return grid, live

    @pytest.mark.parametrize("slab_points", [1, 7, 50])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_mask_covers_every_nonzero_line_and_the_pipeline_is_bitwise_whole_grid(self, slab_points, data):
        f = data.draw(grid_modsteps())
        g = data.draw(grid_modsteps((f.q, f.k)))
        (M, r), (Mg, rg) = qd.grid_geometry(f), qd.grid_geometry(g)
        MM, rr = max(M, Mg), max(r, rg)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(qd, "SLAB_POINTS", slab_points)
            for MF, rF in ((M, r), (M + 1, r)):
                grid, live = self.spatial(f, MF, rF)
                want_l2, want_hat = _whole_grid_l2(grid, f.q, rF), np.fft.fftn(grid)
                want_hat *= float(Fraction(f.q) ** (-rF * f.k))
                assert _l2_close(qd.grid_l2_norm(grid, f.q, rF, live), want_l2)
                assert qd.dft_grid(grid, f.q, rF, live).tobytes() == want_hat.tobytes()
            (a, live_a), (b, live_b) = self.spatial(f, MM, rr), self.spatial(g, MM, rr)
            want_conv = np.fft.ifftn(np.fft.fftn(a) * np.fft.fftn(b))
            want_conv *= float(Fraction(f.q) ** (-rr * f.k))
            assert qd.convolve_grids(a, b, f.q, rr, live_a, live_b).tobytes() == want_conv.tobytes()


class TestPairwiseSum:
    """The streamed L^2 norm against numpy's pairwise sum over the whole grid."""

    @pytest.mark.parametrize("slab_points", [1, 7, 50, qd.SLAB_POINTS])
    @pytest.mark.parametrize("kind", ["zero runs", "negative zeros", "nan"])
    @pytest.mark.parametrize("shape", [(125,) * 3, (3**7,)])
    def test_grid_l2_norm_equals_whole_grid_norm(self, slab_points, kind, shape, monkeypatch):
        rng = np.random.default_rng(7)
        grid = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * 10 ** rng.uniform(-8, 8, shape)
        flat = grid.reshape(-1)
        flat[flat.size // 6 : flat.size // 2] = 0  # a run of +0 longer than any slab
        if kind == "negative zeros":
            flat[-10:-5] = complex(-0.0, -0.0)
            flat[-3] = complex(-0.0, 0.0)
        elif kind == "nan":
            flat[-40] = np.nan
        want = np.sqrt((np.abs(grid) ** 2).sum() * (1 / 5**grid.ndim))
        monkeypatch.setattr(qd, "SLAB_POINTS", slab_points)
        assert _l2_close(qd.grid_l2_norm(grid, 5, 1, _scanned_live_lines(grid)), want)


class TestSlicedGrid:
    @settings(max_examples=60, deadline=None)
    @given(grid_modsteps())
    def test_bitwise_equal_to_dense_grid(self, f):
        M, r = qd.grid_geometry(f)
        for h, MM, rr in ((f, M, r), (f, M + 1, r), (f.fourier(), r, M)):
            got, want = qd.evaluate_on_grid(h, MM, rr), _dense_evaluate_on_grid(h, MM, rr)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("slab_points", [1, 7, 50])
    @settings(max_examples=30, deadline=None)
    @given(f=grid_modsteps())
    def test_several_slabs_bitwise_equal_to_dense_grid(self, slab_points, f):
        # slabs of one row, of a row or several, and of several rows with a short last one
        M, r = qd.grid_geometry(f)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(qd, "SLAB_POINTS", slab_points)
            for h, MM, rr in ((f, M, r), (f, M + 1, r), (f.fourier(), r, M)):
                got, want = qd.evaluate_on_grid(h, MM, rr), _dense_evaluate_on_grid(h, MM, rr)
                assert np.array_equal(got, want)

    @settings(max_examples=25, deadline=None)
    @given(grid_modsteps())
    def test_every_grid_point_matches_symbolic_evaluation(self, f):
        M, r = qd.grid_geometry(f)
        for h, MM, rr in ((f, M, r), (f.fourier(), r, M)):
            grid = qd.evaluate_on_grid(h, MM, rr)
            for idx in np.ndindex(grid.shape):
                x = _grid_point(f.q, f.k, MM, idx)
                assert abs(grid[idx] - h.evaluate(x)) < 1e-12

    def test_budget_raised_before_any_array(self, monkeypatch):
        f = ModulatedStep.indicator(ball(3, 2, 0), 1.0, QVector([deep(1, -6), deep(2, -6)]))
        M, r = qd.grid_geometry(f)
        points = 3 ** ((M + r) * 2)  # 531441 points, 8.5 MB as complex128
        monkeypatch.setattr(errors, "GRID_BUDGET", points - 1)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError):
                qd.evaluate_on_grid(f, M, r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000


class TestGridPhases:
    @pytest.mark.parametrize("n", [isqrt(2**63 - 1), isqrt(2**63 - 1) + 2, 10**12 + 39])
    def test_phase_numerators_exact_on_both_sides_of_int64(self, n):
        # n * n crosses 2^63 between the first two; a few offsets, no grid
        u = np.array([0, 1, 2, n // 2 + 7, n - 2, n - 1], dtype=np.int64)
        for mult in (1, n // 3, n - 1):
            got = qd._phase_numerators(mult, u, n)
            assert got.dtype == np.int64
            assert got.tolist() == [mult * int(v) % n for v in u]


class TestSerialization:
    def test_fixture_round_trip(self):
        rng = random.Random(14)
        f = random_modstep(rng, 3, 2, 4, 2)
        g = ModulatedStep.from_json(f.to_json())
        assert f.is_identical(g)

    def test_joint_cells_cover_union(self):
        a = ModulatedStep.indicator(Cube(vec(0, 0), 1))
        b = ModulatedStep.indicator(Cube(vec(1, 1), 1))
        volumes, moduli = joint_cell_values([a, b])
        assert moduli.shape == (2, 2) and volumes.tolist() == [1 / 9, 1 / 9]
        assert sorted(moduli.sum(axis=1).tolist()) == [1.0, 1.0]


def test_each_tolerance_is_written_once():
    # REL_TOL is every check's float tolerance; 1e-12 is the exponent engine's and the pruning threshold
    import ast
    from pathlib import Path

    found = {1e-9: [], 1e-12: []}
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "momentlab").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {id(node.value): node.targets[0].id for node in ast.walk(tree)
                 if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and type(node.value) is float and node.value in found:
                found[node.value].append(f"{path.stem}.{names.get(id(node), node.lineno)}")
    assert found == {1e-9: ["stepfn.REL_TOL"], 1e-12: ["exponents.FLOAT_TOL", "stepfn.PRUNE_REL_TOL"]}
