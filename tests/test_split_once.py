"""Both splitters merge their input once and finish each part from its share.

The oracles are the per-part construction the splitters replaced: every cube
subdivided into ``Cube``s, each part's terms collected apart and put through
the ``ModulatedStep`` constructor on their own, and each piece's tile looked
up alone with ``tile_of_point``.  Parts must agree bitwise (``is_identical``),
each pruned against its own largest coefficient.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import momentlab.stepfn as sf
from momentlab.geometry import Cube, Interval, tile_of_point, unit_interval
from momentlab.qadic import QRational, QVector, char_value
from momentlab.random_instances import random_box_function, random_curve_supported, random_modstep
from momentlab.stepfn import PRUNE_REL_TOL, ModulatedStep
from momentlab.wavepackets import wavepacket_decompose


def freq_components_per_part(f, partition):
    """{interval: (piece, its transform)}: each transform cube subdivided to
    the finer scale, one bucket per interval, each bucket constructed alone."""
    hat = f.fourier()
    buckets = {}
    if not hat.is_zero:
        scale = partition[0].scale_exp
        live = set(partition)
        for c, b, cube in hat.terms:
            for piece in cube.subdivide(max(hat.scale_exp, scale)):
                interval = Interval.containing(piece.corner[0], scale)
                if interval in live:
                    buckets.setdefault(interval, []).append((c, b, piece))
    out = {}
    for interval in partition:
        if interval in buckets:
            hat_i = ModulatedStep(f.q, f.k, buckets[interval])
            if hat_i.max_abs_coeff() > PRUNE_REL_TOL * hat.max_abs_coeff():
                out[interval] = (hat_i.inverse_fourier(), hat_i)
    return out


def decompose_per_tile(g, K):
    """[(tile, packet)]: g's cubes subdivided to the tile scale, each piece's
    tile found alone, each tile's terms constructed alone, in tile order."""
    scale = max(g.scale_exp, -K.scale_exp)
    shares = {}
    for cube, parts in g._by_cube.items():
        for piece in cube.subdivide(scale):
            shares.setdefault(tile_of_point(piece.corner, K), []).extend((c, b, piece) for c, b in parts)
    packets = sorted(((t, ModulatedStep(g.q, g.k, ts)) for t, ts in shares.items()), key=lambda p: p[0].key())
    return [(t, p) for t, p in packets if not p.is_zero]


def assert_same_split(f, partition):
    got, want = f.freq_components(partition), freq_components_per_part(f, partition)
    assert list(got) == list(want)
    for interval, (piece, hat) in want.items():
        assert got[interval].is_identical(piece)
        assert got[interval]._hat.is_identical(hat)
    return got


def assert_same_packets(g, K):
    got, want = wavepacket_decompose(g, K).packets, decompose_per_tile(g, K)
    assert [t for t, _ in got] == [t for t, _ in want]
    assert all(p.is_identical(w) for (_, p), (_, w) in zip(got, want))
    return got


def translated(g, factor):
    """factor * g moved off the ball g lives on: its transform modulated by
    q^-(s+1) in coordinate 1, s its cube scale, so still in the same boxes."""
    hat = g.fourier()
    t = QVector([QRational(g.q, 1, -hat.scale_exp - 1)] + [QRational(g.q, 0)] * (g.k - 1))
    return ModulatedStep(g.q, g.k, [(c * factor, b + t, cube) for c, b, cube in hat.terms]).inverse_fourier()


def wide(rng, q, k, n_terms):
    """Cubes of side q^-1 with no modulation: the transform sits on one cube
    of side q, so the split subdivides it and every piece takes drift phases."""
    return random_modstep(rng, q, k, n_terms, 1, mod_depth=0)


def compacting(rng, q, k, m):
    """A function whose transform holds one complete sibling family of equal
    coefficients over one interval at scale m and one stray cube over
    another: the transform cannot compact, the family's part does."""
    s = m + 1
    i, j = rng.sample(range(q**m), 2)
    corner = [QRational(q, i + q**m * rng.randrange(q)).rep_mod(s - 1)]
    corner += [QRational(q, rng.randrange(q ** (s - 1))).rep_mod(s - 1) for _ in range(k - 1)]
    b = QVector([QRational(q, rng.randrange(q**2), -s - 1).rep_mod(-s) for _ in range(k)])
    c = complex(rng.gauss(0, 1), rng.gauss(0, 1))
    family = [(c, b, piece) for piece in Cube(QVector(corner), s - 1).subdivide(s)]
    stray = Cube(QVector([QRational(q, j).rep_mod(s)] + [QRational(q, 0)] * (k - 1)), s)
    return ModulatedStep(q, k, family + [(1.0, b, stray)]).inverse_fourier()


# (q, k, delta_exp) whose pieces split into at most 625 tile pieces per cube, so the oracle stays quick; a
# piece at (5, 3, 1) splits into 15,625 and is checked once, below (q > k, so k = 3 needs q = 5)
PACKET_CELLS = {(3, 2, 1), (3, 2, 2), (5, 2, 1), (5, 2, 2)}


@st.composite
def split_cases(draw):
    """(f, m, kind): f curve-supported at (3,2), (5,2) or (5,3) with delta =
    q^-m, sometimes with a translated copy 3e-12 to 1e-6 times as large;
    or a function whose split takes drift phases, or one whose part compacts."""
    q, k = draw(st.sampled_from([(3, 2), (5, 2), (5, 3)]))
    m = draw(st.integers(1, 2))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["curve", "curve", "drift", "compact"]))
    if kind == "drift":
        return wide(rng, q, k, draw(st.integers(1, 3))), 1, kind
    if kind == "compact":
        return compacting(rng, q, k, m), m, kind
    f = random_curve_supported(rng, q, k, m, draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    factor = draw(st.sampled_from([None, 3e-12, 1e-11, 1e-6]))
    if factor is not None:
        f = f + translated(f, factor)
    return f, m, kind


class TestSplitOnce:
    @settings(max_examples=60, deadline=None)
    @given(split_cases())
    def test_each_part_is_the_per_part_construction(self, case):
        f, m, kind = case
        q, k = f.q, f.k
        pieces = assert_same_split(f, unit_interval(q).partition(m))
        if m > 1:
            assert_same_split(f, unit_interval(q).partition(1))
        if kind == "curve" and (q, k, m) in PACKET_CELLS:
            for K, fK in pieces.items():
                assert_same_packets(fK, K)

    def test_the_drawn_kinds_take_drift_phases_and_compact(self, monkeypatch):
        phases, compacted = [], []
        char_at, compact = sf._char_at, ModulatedStep._compact

        def spy_compact(q, k, terms, scale):
            out = compact(q, k, terms, scale)
            compacted.append(out[1] < scale)
            return out

        monkeypatch.setattr(sf, "_char_at", lambda *a: (phases.append(a), char_at(*a))[1])
        monkeypatch.setattr(ModulatedStep, "_compact", staticmethod(spy_compact))
        rng = random.Random(3)
        P = unit_interval(3).partition(1)
        f = wide(rng, 3, 2, 2)
        f.fourier()
        phases.clear()
        f.freq_components(P)
        assert phases  # the split of a coarse transform phases its pieces
        g = random_curve_supported(rng, 3, 2, 1, 1, 2)
        (K, gK), = g.freq_components(P).items()
        phases.clear()
        wavepacket_decompose(gK, K)
        assert phases  # a packet's modulations keep only their coarse digits
        h = compacting(rng, 3, 2, 1)
        assert h.fourier().scale_exp == 2  # the whole transform does not compact
        compacted.clear()
        h.freq_components(P)
        assert any(compacted)

    def test_parts_1e12_apart_are_pruned_each_against_its_own_maximum(self):
        q, k = 3, 2
        K, J = unit_interval(q).partition(1)[:2]
        rng = random.Random(4)
        cubes = [random_box_function(rng, q, k, I, 1).fourier().terms[0][2] for I in (K, K, J)]
        assert cubes[0] != cubes[1]
        zero, t = QVector.zero(q, k), QVector([QRational(q, 0), QRational(q, 1, -3)])
        # the split at scale 3 subdivides J's cube, and in each part 3e-12 - 2.7e-12 chi(t . x) is 3e-13 on
        # the piece sharing the cube's second corner coordinate and 4.9e-12 on the others: a prune against
        # the whole input would drop that piece
        x = cubes[2].corner
        hat = ModulatedStep(q, k, [(1.0, zero, cubes[0]), (3e-12, zero, cubes[2]),
                                   (-2.7e-12 / char_value(t.dot(x)), t, cubes[2])])
        f = hat.inverse_fourier()
        pieces = assert_same_split(f, unit_interval(q).partition(3))
        kept = [abs(c) for piece in pieces.values() for c, _, _ in piece._hat.terms]
        assert min(kept) < PRUNE_REL_TOL * max(kept)
        # packets over K of moduli up to 2 and of 1.5e-12 on the tiles of a translated cube
        g = ModulatedStep(q, k, [(1.0, zero, cubes[0]), (1.0, zero, cubes[1]), (1.5e-12, t, cubes[0])])
        sizes = [p.max_abs_coeff() for _, p in assert_same_packets(g.inverse_fourier(), K)]
        assert min(sizes) < PRUNE_REL_TOL * max(sizes)

    @pytest.mark.parametrize("q, k, m, n", [(*cell, 3) for cell in sorted(PACKET_CELLS)] + [(5, 3, 1, 1)])
    def test_seeded_curve_instances(self, q, k, m, n):
        rng = random.Random(q * 100 + k * 10 + m)
        f = random_curve_supported(rng, q, k, m, n, 2)
        for K, fK in assert_same_split(f, unit_interval(q).partition(m)).items():
            assert_same_packets(fK, K)
