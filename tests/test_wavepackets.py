import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import momentlab.wavepackets as wp
from momentlab import errors, verify
from momentlab.errors import BudgetExceededError, SupportError
from momentlab.geometry import Cube, Interval, ball, theta_of, unit_interval
from momentlab.qadic import QRational, QVector, char_value
from momentlab.random_instances import random_box_function, random_curve_supported, random_modstep
from momentlab.stepfn import REL_TOL, ModulatedStep
from momentlab.wavepackets import (
    ScaleConfig,
    freq_certificate,
    pigeonhole,
    verify_theta_support,
    wavepacket_decompose,
)


def _bucket_sum(b):
    """The sum of a pigeonhole bucket's packets, their terms in ``b.packets`` order."""
    return ModulatedStep(b.packets[0][2].q, b.packets[0][2].k, [t for *_, piece, _ in b.packets for t in piece.terms])


def _terms_at_scale(h, scale_exp):
    """h's raw terms with every cube subdivided to the given finer scale."""
    return [(c, b, piece) for c, b, cube in h.terms for piece in cube.subdivide(scale_exp)]


class TestScaleConfig:
    def test_from_epsilon_rounds_to_q_powers(self):
        cfg = ScaleConfig.from_epsilon(3, 2, 4, Fraction(1, 3))
        assert cfg.nu_exp == 2  # ceil(4/2)
        assert cfg.kappa_exp == 2  # ceil(4/3)
        assert cfg.nu <= Fraction(1, 3) ** 2
        assert cfg.kappa <= Fraction(1, 81) ** Fraction(1, 3)

    def test_invalid_scales_rejected(self):
        with pytest.raises(ValueError):
            ScaleConfig(3, 2, 2, 0)


class TestDecomposition:
    def test_single_tile_wave(self):
        # one frequency cube inside the box over K: constant modulus one
        rng = random.Random(0)
        K = unit_interval(3).partition(1)[1]
        g = random_box_function(rng, 3, 2, K, 1)
        ws = wavepacket_decompose(g, K)
        heights = ws.heights()
        assert len(set(round(h, 12) for h in heights)) == 1
        assert ws.reconstruct().close_to(g, 1e-12)

    def test_zero_function(self):
        K = unit_interval(3).partition(1)[0]
        ws = wavepacket_decompose(ModulatedStep.zero(3, 2), K)
        assert len(ws) == 0

    def test_random_instances_decompose_exactly(self):
        rng = random.Random(1)
        K = unit_interval(3).partition(1)[2]
        for _ in range(10):
            g = random_box_function(rng, 3, 2, K, rng.randint(1, 4))
            ws = wavepacket_decompose(g, K)
            assert len(ws) <= 3  # the tile count bound over the big ball
            assert ws.reconstruct().close_to(g, 1e-10)

    def test_support_violation_carries_offending_cube(self):
        K = unit_interval(3).partition(1)[0]
        bad = ModulatedStep.indicator(ball(3, 2, 0))
        with pytest.raises(SupportError) as err:
            wavepacket_decompose(bad, K)
        assert err.value.offending_cube is not None

    def test_one_tile_lookup_per_distinct_cube(self, monkeypatch):
        calls = []
        real = wp._tile_owners
        monkeypatch.setattr(wp, "_tile_owners", lambda xs, K: (calls.append(xs), real(xs, K))[1])
        rng = random.Random(7)
        for m, i in ((1, 1), (2, 5)):
            K = unit_interval(3).partition(m)[i]
            g = random_box_function(rng, 3, 2, K, 4)
            scale = max(g.scale_exp, -m)
            cubes = [p for c in g.support_cubes() for p in c.subdivide(scale)]
            assert len(_terms_at_scale(g, scale)) > len(cubes)  # several terms share a cube
            calls.clear()
            wavepacket_decompose(g, K)
            assert len(calls) == 1  # one columnar pass
            # the distinct piece corners, each a QVector or a tuple of its coordinates
            assert sorted(map(QVector, calls[0]), key=QVector.key) == sorted((c.corner for c in cubes), key=QVector.key)

    def test_subsums_stay_supported(self):
        rng = random.Random(2)
        K = unit_interval(3).partition(2)[5]
        g = random_box_function(rng, 3, 2, K, 4)
        ws = wavepacket_decompose(g, K)
        partial = ModulatedStep.zero(3, 2)
        for _, piece in ws.packets[: max(1, len(ws.packets) // 2)]:
            partial = partial + piece
        verify_theta_support(partial, K)


class TestPigeonhole:
    def test_single_wavepacket_single_bucket(self):
        rng = random.Random(3)
        K = unit_interval(3).partition(1)[1]
        g = random_box_function(rng, 3, 2, K, 1)
        ws = wavepacket_decompose(g, K)
        single = ws.packets[0][1]  # one tile piece is itself admissible
        cfg = ScaleConfig.from_epsilon(3, 2, 1, Fraction(1, 2))
        buckets, remainder, report = pigeonhole(single, cfg, p=8)
        assert len(buckets) == 1
        assert remainder.is_zero
        b = buckets[0]
        assert b.packet_count_alpha == 1 and b.sibling_count_beta == 1
        assert abs(b.height_H - report["H_star"]) < 1e-12

    def test_two_heights_two_buckets(self):
        rng = random.Random(4)
        K = unit_interval(3).partition(1)[0]
        g = random_box_function(rng, 3, 2, K, 1)
        ws = wavepacket_decompose(g, K)
        t0, p0 = ws.packets[0]
        t1, p1 = ws.packets[1]
        f = p0 + p1.scaled(0.5)
        cfg = ScaleConfig.from_epsilon(3, 2, 1, Fraction(1, 2))
        buckets, remainder, report = pigeonhole(f, cfg, p=8)
        assert len(buckets) == 2
        hs = sorted(b.height_H for b in buckets)
        assert abs(hs[1] / hs[0] - 2.0) < 1e-9

    def test_reconstruction_and_remainder_bound(self):
        rng = random.Random(5)
        cfg = ScaleConfig.from_epsilon(3, 2, 2, Fraction(1, 2))
        for _ in range(6):
            f = random_curve_supported(rng, 3, 2, 2, rng.randint(2, 9), 2)
            buckets, remainder, report = pigeonhole(f, cfg, p=8)
            total = remainder
            for b in buckets:
                total = total + _bucket_sum(b)
            assert total.close_to(f, 1e-9)
            assert report["remainder_lp"] <= report["remainder_bound"] * (1 + 1e-9)
            assert report["n_buckets"] <= report["class_bound"]

    def test_off_box_wave_is_refused_before_any_split(self, monkeypatch):
        # the wave's frequency (0, 1) lies in the unit interval, so the
        # frequency split keeps it, but it lies in no curve box
        rng = random.Random(12)
        cfg = ScaleConfig.from_epsilon(3, 2, 2, Fraction(1, 2))
        b = QVector([QRational(3, 0), QRational(3, 1)])
        assert not any(theta_of(K, 2).contains(b) for K in cfg.fine_partition())
        f = random_curve_supported(rng, 3, 2, 2, 3, 2) + ModulatedStep.indicator(ball(3, 2, 4), 0.5, b)
        calls, real = [], wp.wavepacket_decompose
        monkeypatch.setattr(wp, "wavepacket_decompose", lambda g, K: (calls.append(K), real(g, K))[1])
        with pytest.raises(SupportError):
            pigeonhole(f, cfg, p=8)
        assert calls == []

    def test_zero_function_short_circuits(self):
        cfg = ScaleConfig.from_epsilon(3, 2, 2, Fraction(1, 2))
        buckets, remainder, report = pigeonhole(ModulatedStep.zero(3, 2), cfg, p=8)
        assert buckets == [] and remainder.is_zero

    def test_spatial_support_precondition(self):
        # support spanning two big-ball translates is rejected
        rng = random.Random(6)
        K = unit_interval(3).partition(1)[0]
        g = random_box_function(rng, 3, 2, K, 1)
        cfg = ScaleConfig.from_epsilon(3, 2, 1, Fraction(1, 2))
        from momentlab.geometry import Cube
        from momentlab.qadic import QRational

        far = Cube(QVector([QRational(3, 1, -3), QRational(3, 0)]), -2)
        bad = g + ModulatedStep.indicator(far)
        with pytest.raises(SupportError):
            pigeonhole(bad, cfg, p=8)

    def test_height_floor_exponent_is_a_parameter(self):
        rng = random.Random(7)
        cfg = ScaleConfig.from_epsilon(3, 2, 1, Fraction(1, 2))
        f = random_curve_supported(rng, 3, 2, 1, 2, 2)
        _, _, strict = pigeonhole(f, cfg, p=8, height_floor_exponent=Fraction(5))
        _, _, loose = pigeonhole(f, cfg, p=8, height_floor_exponent=Fraction(1, 2))
        assert strict["height_floor_exponent"] == Fraction(5)
        assert loose["height_floor_exponent"] == Fraction(1, 2)

    def test_mid_interval_count_ceiling(self):
        rng = random.Random(8)
        cfg = ScaleConfig.from_epsilon(3, 2, 2, Fraction(1, 2))
        f = random_curve_supported(rng, 3, 2, 2, 9, 2)
        n_mid = sum(
            1 for gJ in f.freq_components(unit_interval(3).partition(cfg.nu_exp)).values() if not gJ.is_zero
        )
        assert n_mid <= 3  # at most 1/nu intervals

    def test_dyadic_class_up_is_the_doubling_loop(self):
        alpha = 1
        for n in range(1, 2**16 + 1):
            while alpha < n:
                alpha *= 2
            assert wp._dyadic_class_up(n) == alpha


def _refined_transform(f, scale_exp):
    """The transform refined to at least the given scale and canonicalized as a whole."""
    hat = f.fourier()
    return ModulatedStep(f.q, f.k, _terms_at_scale(hat, max(hat.scale_exp, scale_exp)))


def _box_holds(K, cube):
    """A cube lies in the box over K iff its corner does and its side is at most d^k."""
    return cube.scale_exp >= K.scale_exp * cube.k and theta_of(K, cube.k).contains(cube.corner)


def _refined_certificate(f, m):
    """Reference certificate: test each term of the canonical refined transform."""
    if f.is_zero:
        return {}
    out = {}
    for _, _, cube in _refined_transform(f, m * f.k).terms:
        first = cube.corner[0]
        if not first.is_zero and first.valuation < 0:
            raise SupportError("leaves the unit interval", offending_cube=cube)
        K = Interval(first.rep_mod(m), m)
        if not _box_holds(K, cube):
            raise SupportError("leaves the box", offending_cube=cube)
        out.setdefault(K, []).append(cube)
    return out


def _refined_theta_support(g, K):
    """Reference single-box check on the same refined transform."""
    if not g.is_zero:
        for _, _, cube in _refined_transform(g, K.scale_exp * g.k).terms:
            if not _box_holds(K, cube):
                raise SupportError("leaves the box", offending_cube=cube)


def _certified_piece_by_piece(f, m):
    """Reference for what pigeonhole certifies: the reference certificate,
    then each piece of the split certified alone on a transform taken anew."""
    _refined_certificate(f, m)
    pieces = f.freq_components(unit_interval(f.q).partition(m))
    for K, fK in pieces.items():
        _refined_theta_support(ModulatedStep(f.q, f.k, fK.terms), K)
    return pieces


def _certified_for_pigeonhole(f, m):
    """What pigeonhole certifies: the certificate, then each piece in its own box."""
    pieces = freq_certificate(f, m)
    for K, fK in pieces.items():
        verify_theta_support(fK, K)
    return pieces


def _off_box_wave(q, k, m, seed, where, exponent):
    """A curve-supported f plus one off-box transform cell, in the unit
    interval or beyond it, sized 10^exponent times the largest coefficient
    over its interval (over all of f beyond the unit interval or over an
    empty interval); None when the cell happens to lie in its box."""
    rng = random.Random(seed)
    f = random_curve_supported(rng, q, k, m, rng.randint(1, 3), rng.randint(1, 2))
    first = QRational(q, rng.randrange(q**m)) if where == "unit" else QRational(q, rng.randrange(1, q), -1)
    rest = [QRational(q, rng.randrange(q ** (m * k))) for _ in range(k - 1)]
    cell = Cube(QVector([first, *rest]).rep_mod(m * k), m * k)
    K = Interval(first.rep_mod(m), m)
    if where == "unit" and _box_holds(K, cell):
        return None
    hat = f.fourier()
    over_K = [abs(c) for c, _, cube in hat.terms if where == "unit" and K.contains(cube.corner[0])]
    size = 10.0**exponent * max(over_K or [abs(c) for c, _, _ in hat.terms])
    return f + ModulatedStep.indicator(cell, size).inverse_fourier()


def _outcome(fn, *args):
    try:
        return fn(*args)
    except SupportError:
        return SupportError


class TestCertificate:
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([(3, 2), (5, 2)]),
        st.integers(1, 2),
        st.integers(-1, 1),
        st.integers(0, 2**32),
        st.sampled_from(["none", "wave", "coarse", "translates"]),
    )
    def test_matches_refined_canonicalization(self, qk, m, shift, seed, extra):
        q, k = qk
        rng = random.Random(seed)
        f = random_curve_supported(rng, q, k, m, rng.randint(1, 3), rng.randint(1, 2))
        if extra == "wave":  # one more frequency cell, on or off the curve
            b = QVector([QRational(q, rng.randrange(q ** (m * k)), -m * k) for _ in range(k)])
            f = f + ModulatedStep.indicator(ball(q, k, m * k), 0.3, b.rep_mod(0))
        elif extra == "coarse":  # a frequency cube wider than any box
            f = f + ModulatedStep.indicator(ball(q, k, m * k - 1), 0.2)
        elif extra == "translates":
            # f(x - v) for two v: two modulations on each transform cube that
            # stay distinct below scale (m+1)k, so cells repeat in the lists
            e, zeros = (m + 1) * k, [QRational(q, 0)] * (k - 1)
            shifts = [QVector([QRational(q, u, -e - 1)] + zeros) for u in (-2, -1 - q)]
            f = ModulatedStep(
                q, k, [(c * char_value(-b.dot(v)), b, cube.translate(v)) for v in shifts for c, b, cube in f.terms]
            )
        m_check = max(1, m + shift)
        hat = f.fourier()
        # the reference builds every refined piece as an object; keep it quick
        assume(len(hat.terms) * q ** (k * max(0, m_check * k - hat.scale_exp)) <= 3000)
        expected = _outcome(_refined_certificate, f, m_check)
        got = _outcome(wp._support_witnesses, f, m_check)
        if expected is SupportError:
            assert got is SupportError
        else:
            assert list(got) == sorted(expected, key=Interval.key)
            assert all(cell in expected[K] for K, cell in got.items())
        K = rng.choice(unit_interval(q).partition(m_check))
        assert _outcome(verify_theta_support, f, K) is _outcome(_refined_theta_support, f, K)

    def test_degree_one_support_across_fine_intervals(self):
        # k = 1: the transform fills a whole coarse interval, so each fine
        # interval's box (the interval itself) holds its share; canonicalizing
        # the refined transform as a whole merged the share back into one
        # coarse cube, which failed every box
        I = unit_interval(3).partition(1)[2]
        f = ModulatedStep.indicator(Cube(QVector([I.corner]), 1)).inverse_fourier()
        assert _outcome(_refined_certificate, f, 2) is SupportError
        cert = wp._support_witnesses(f, 2)
        assert list(cert) == sorted(I.partition(2), key=Interval.key)
        assert all(cell == Cube(QVector([K.corner]), 2) for K, cell in cert.items())

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([(3, 2), (5, 2)]), st.integers(1, 2), st.integers(1, 4), st.integers(0, 2**32))
    def test_certified_pieces_are_the_split(self, qk, m, n, seed):
        q, k = qk
        rng = random.Random(seed)
        f = random_curve_supported(rng, q, k, m, min(n, q**m), rng.randint(1, 2))
        pieces = freq_certificate(f, m)
        split = f.freq_components(unit_interval(q).partition(m))
        assert list(pieces) == list(split)
        assert all(pieces[K].is_identical(fK) for K, fK in split.items())
        assert sorted(pieces, key=Interval.key) == list(wp._support_witnesses(f, m))

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from([(3, 2), (5, 2)]),
        st.integers(1, 2),
        st.integers(0, 2**32),
        st.sampled_from(["unit", "beyond"]),
        st.sampled_from([-16, -14, -10, -6, 0]),
    )
    def test_pieces_certify_on_the_transform_they_were_made_from(self, qk, m, seed, where, exponent):
        """pigeonhole certifies each piece on the transform the split made it
        from; the oracle certifies a copy of the piece on a transform taken
        anew.  The off-box cell is at least 100 times from the threshold
        PRUNE_REL_TOL = 1e-12 of its interval (of all of f beyond the unit
        interval): at the threshold itself, rounding decides, and the two
        transforms of a piece differ by rounding."""
        q, k = qk
        g = _off_box_wave(q, k, m, seed, where, exponent)
        assume(g is not None)
        expected = _outcome(_certified_piece_by_piece, g, m)
        got = _outcome(_certified_for_pigeonhole, g, m)
        if expected is SupportError:
            assert got is SupportError
        else:
            assert list(got) == list(expected)
            assert all(got[J].is_identical(gJ) for J, gJ in expected.items())

    @pytest.mark.parametrize("where, exponent", [("unit", -16), ("unit", 0), ("beyond", 0)])
    def test_python_int_columns_agree_with_int64(self, monkeypatch, where, exponent):
        # the witness pass reads cells as int64 columns when no overflow can
        # occur, else as Python ints; force the second on the same inputs
        def run(g, m):
            try:
                return wp._support_witnesses(g, m), list(freq_certificate(g, m))
            except SupportError as err:
                return str(err), err.offending_cube

        refused = []
        for seed in range(24):
            q, k, m = (3 if seed < 12 else 5), 2, 1 + seed % 2
            g = _off_box_wave(q, k, m, seed, where, exponent)
            if g is None:
                continue
            fast = run(g, m)
            with monkeypatch.context() as patch:
                patch.setattr(wp, "INT64_LIMIT", 0)
                assert run(g, m) == fast
            refused.append(isinstance(fast[0], str))
        assert refused and refused == [exponent == 0] * len(refused)

    def test_a_weak_interval_passes_the_certificate_but_not_its_piece_check(self):
        # spread over the nine subcubes of side 3, each box cell of the
        # transform becomes nine characters on a cube of side 1/3 that add up
        # on it, so the largest cell is nine times the largest coefficient;
        # an off-box wave over the weak interval, between the two, survives
        # canonicalization but stays under a threshold taken from the whole
        # transform, while its own piece's threshold catches it
        q, k, m = 3, 2, 1
        P = unit_interval(q).partition(m)
        rng = random.Random(3)
        strong = random_box_function(rng, q, k, P[0], 1)
        weak = random_box_function(rng, q, k, P[1], 1).scaled(1e-6)
        f = ModulatedStep(q, k, _terms_at_scale(strong, -1) + _terms_at_scale(weak, -1))
        wave = (abs(strong.terms[0][0]) * 10**-11.5, QVector([QRational(q, 1), QRational(q, 2)]), ball(q, k, 1))
        g = ModulatedStep(q, k, [*f.terms, wave])
        assert not g.is_identical(f)
        assert list(freq_certificate(f, m)) == P[:2]
        assert list(freq_certificate(g, m)) == P[:2]
        assert set(_refined_certificate(g, m)) == set(P[:2])
        for check in (_certified_piece_by_piece, _certified_for_pigeonhole):
            with pytest.raises(SupportError):
                check(g, m)
        with pytest.raises(SupportError):
            pigeonhole(g, ScaleConfig.from_epsilon(q, k, m, Fraction(1, 2)), 8)

    def test_packets_pass_and_foreign_intervals_fail(self):
        rng = random.Random(9)
        P = unit_interval(3).partition(2)
        g = random_box_function(rng, 3, 2, P[5], 3)
        assert set(freq_certificate(g, 2)) == {P[5]}
        verify_theta_support(g, P[5])
        with pytest.raises(SupportError) as err:
            verify_theta_support(g, P[4])
        assert err.value.offending_cube is not None

    def test_budget_checked_before_any_cell_array(self, monkeypatch):
        rng = random.Random(10)
        f = random_curve_supported(rng, 3, 2, 2, 3, 2)

        def no_kernel(*args):
            raise AssertionError("cell kernel called past the budget")

        monkeypatch.setattr(wp, "_cell_values", no_kernel)
        monkeypatch.setattr(errors, "CELL_BUDGET", 100)
        # scale 3 refines each transform cube into 3^4 cells
        with pytest.raises(BudgetExceededError) as err:
            freq_certificate(f, 3)
        assert err.value.estimated == len(f.fourier().terms) * 81


def _chain(fns, q, k):
    total = ModulatedStep.zero(q, k)
    for g in fns:
        total = total + g
    return total


class TestSinglePassSums:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("floor_exp", [None, Fraction(1, 4)])  # 1/4 leaves a remainder
    def test_pigeonhole_matches_plus_chains(self, seed, floor_exp):
        rng = random.Random(100 + seed)
        cfg = ScaleConfig.from_epsilon(3, 2, 2, Fraction(1, 2))
        f = random_curve_supported(rng, 3, 2, 2, rng.randint(2, 5), 2)
        buckets, remainder, _ = pigeonhole(f, cfg, p=8, height_floor_exponent=floor_exp)
        pieces = {}
        for K, fK in f.freq_components(cfg.fine_partition()).items():
            if not fK.is_zero:
                pieces[K] = dict(wavepacket_decompose(fK, K).packets)
        in_buckets = set()
        for b in buckets:
            chain = _chain((pieces[K][t] for K, t, _, _ in b.packets), 3, 2)
            assert _bucket_sum(b).is_identical(chain)
            in_buckets |= {(K, t) for K, t, _, _ in b.packets}
        rest = _chain((g for K, ps in pieces.items() for t, g in ps.items() if (K, t) not in in_buckets), 3, 2)
        assert remainder.is_identical(rest)

    def test_reconstruct_matches_plus_chain(self):
        rng = random.Random(11)
        K = unit_interval(3).partition(2)[7]
        ws = wavepacket_decompose(random_box_function(rng, 3, 2, K, 4), K)
        assert ws.reconstruct().is_identical(_chain((g for _, g in ws.packets), 3, 2))
        with pytest.raises(ValueError):
            wp.WavepacketSet(K, []).reconstruct()


def _packets(pieces):
    """(K, tile, piece, height) for each packet of each piece of {K: g_K}, in
    the dict's order, then in tile order."""
    out = []
    for K, gK in pieces.items():
        ws = wavepacket_decompose(gK, K)
        out.extend((K, t, piece, h) for (t, piece), h in zip(ws.packets, ws.heights()))
    return out


def _assert_same_packets(got, want):
    """Same intervals and tiles; each piece on the same cubes with the same
    modulations, its coefficients and height equal up to the rounding of the
    transform and its inverse that the split goes through."""
    assert [(K, t) for K, t, _, _ in got] == [(K, t) for K, t, _, _ in want]
    for (*_, g, hg), (*_, w, hw) in zip(got, want):
        assert [(b, cube) for _, b, cube in g.terms] == [(b, cube) for _, b, cube in w.terms]
        assert g.close_to(w) and abs(hg - hw) <= REL_TOL * hw


@st.composite
def packet_sums(draw):
    """(f, m, rng): f curve-supported at (3,2) or (5,2) with delta = q^-m."""
    q, m = draw(st.sampled_from([3, 5])), draw(st.integers(1, 2))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return random_curve_supported(rng, q, 2, m, draw(st.integers(1, 4)), draw(st.integers(1, 3))), m, rng


class TestPacketsRoundTrip:
    """Splitting and decomposing a sum of packets gives the packets back, so
    the pigeonhole suite reads each bucket's classes off ``b.packets``."""

    @settings(max_examples=30, deadline=None)
    @given(packet_sums())
    def test_buckets_and_packet_sums_split_back_into_their_packets(self, case):
        f, m, rng = case
        fine = unit_interval(f.q).partition(m)
        buckets, _, _ = pigeonhole(f, ScaleConfig.from_epsilon(f.q, 2, m, Fraction(1, 2)), p=8)
        rank = {K: i for i, K in enumerate(fine)}
        for b in buckets:  # a bucket lists its children in sibling order, not partition order
            got = _packets(_bucket_sum(b).freq_components(fine))
            _assert_same_packets(got, sorted(b.packets, key=lambda p: rank[p[0]]))
        packets = _packets(freq_certificate(f, m))
        chosen = [p for p in packets if rng.random() < 0.5] or packets[:1]
        g = ModulatedStep(f.q, 2, [t for *_, piece, _ in chosen for t in piece.terms])
        _assert_same_packets(_packets(g.freq_components(fine)), chosen)

    def test_the_suite_splits_no_bucket_again(self, monkeypatch):
        inside = []
        real_pigeonhole, real_split = verify.pigeonhole, ModulatedStep.freq_components

        def spy_pigeonhole(*args, **kwargs):
            inside.append(True)
            try:
                return real_pigeonhole(*args, **kwargs)
            finally:
                inside.pop()

        def spy_split(g, partition):
            assert inside, "the pigeonhole suite split a bucket again"
            return real_split(g, partition)

        def no_decompose(*args):
            raise AssertionError("the pigeonhole suite decomposed a bucket again")

        monkeypatch.setattr(verify, "pigeonhole", spy_pigeonhole)
        monkeypatch.setattr(ModulatedStep, "freq_components", spy_split)
        monkeypatch.setattr(verify, "wavepacket_decompose", no_decompose)
        report = verify.pigeonhole_suite(3, 2, n_instances=3)
        assert report["passed"] and report["instances"] == 3


def _spy_constructions(monkeypatch):
    """Count ModulatedStep constructions, and record the terms of every ``_merge`` call."""
    inits, merges = [], []
    real_init, real_merge = ModulatedStep.__init__, ModulatedStep._merge

    def init(self, q, k, terms=()):
        inits.append(q)
        real_init(self, q, k, terms)

    def merge(q, terms, scale):
        merges.append(list(terms))
        return real_merge(q, merges[-1], scale)

    monkeypatch.setattr(ModulatedStep, "__init__", init)
    monkeypatch.setattr(ModulatedStep, "_merge", staticmethod(merge))
    return inits, merges


def _closures(merges, f):
    """The merges that take f's negated terms last: a check that parts add up to f."""
    negated = [(-c, b, cube) for c, b, cube in f.terms]
    return [terms for terms in merges if len(terms) >= len(negated) and terms[len(terms) - len(negated):] == negated]


@st.composite
def sums_near(draw):
    """(f, parts, off): parts add up to f, each of f's terms split in two, one half on the
    term's child cubes, plus one stray term whose largest coefficient is off * max(|f|, 1)."""
    q, k = draw(st.sampled_from([(3, 1), (3, 2), (5, 2)]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.integers(0, 2))
    f = random_modstep(rng, q, k, draw(st.integers(0, 4)), scale, mod_depth=scale + 1)
    parts = []
    for c, b, cube in f.terms:
        w = draw(st.floats(0.1, 0.9))
        parts.append((c * w, b, cube))
        parts.extend((c * (1 - w), b, child) for child in cube.subdivide(cube.scale_exp + 1))
    off = draw(st.sampled_from([0.0, 1e-15, 1e-13, 1e-6, 1e-3, 1.0]))
    if off:
        (c, b, cube), = random_modstep(rng, q, k, 1, scale + 1, mod_depth=scale + 1).terms
        parts.insert(draw(st.integers(0, len(parts))), (c / abs(c) * off * max(f.max_abs_coeff(), 1.0), b, cube))
    return f, parts, off


class TestOneClosureMerge:
    """Each reconstruction check is one merge of the parts against f: no sum of
    a bucket, of all the parts or of their difference from f is built."""

    @settings(max_examples=200, deadline=None)
    @given(sums_near())
    def test_is_sum_of_agrees_with_close_to_away_from_the_tolerance(self, case):
        f, parts, off = case
        assert f._is_sum_of(parts) == ModulatedStep(f.q, f.k, parts).close_to(f) == (off < 1e-9)

    def test_pigeonhole_builds_no_bucket_sum_and_merges_against_f_once(self, monkeypatch):
        cfg = ScaleConfig.from_epsilon(3, 2, 2, Fraction(1, 2))
        f = random_curve_supported(random.Random(4), 3, 2, 2, 5, 2)
        f.fourier()  # kept, so that each construction below is a piece's inverse transform or the remainder
        n_pieces = len(freq_certificate(f, 2))
        inits, merges = _spy_constructions(monkeypatch)
        buckets, remainder, _ = pigeonhole(f, cfg, p=8, height_floor_exponent=Fraction(1, 4))
        assert len(buckets) > 1 and not remainder.is_zero
        assert not hasattr(buckets[0], "function")
        assert len(inits) == n_pieces + 1
        (closure,) = _closures(merges, f)
        parts = [t for b in buckets for *_, piece, _ in b.packets for t in piece.terms] + list(remainder.terms)
        assert closure[: len(parts)] == parts
        # so a packet dropped from, or listed twice in, a bucket's packets fails the check
        assert f._is_sum_of(parts) and not f._is_sum_of(parts[len(buckets[0].packets[0][2].terms):])
        assert not f._is_sum_of(list(buckets[0].packets[0][2].terms) + parts)

    def test_the_wavepacket_suite_checks_each_reconstruction_by_one_merge(self, monkeypatch):
        inits, merges = _spy_constructions(monkeypatch)
        checked, real = [], ModulatedStep._is_sum_of
        monkeypatch.setattr(ModulatedStep, "_is_sum_of", lambda g, terms: checked.append(g) or real(g, terms))
        monkeypatch.setattr(wp.WavepacketSet, "reconstruct", lambda ws: pytest.fail("the suite summed the packets"))
        monkeypatch.setattr(ModulatedStep, "close_to", lambda *args: pytest.fail("the suite built a difference"))
        report = verify.wavepackets_suite(3, 2, n_instances=6)
        assert report["passed"] and report["instances"] == len(checked) == 6
        assert all(len(_closures(merges, g)) == 1 for g in checked)

    @pytest.mark.parametrize("q, m", [(3, 1), (3, 2), (5, 1), (5, 2), (7, 2)])
    def test_the_suite_draws_its_interval_as_a_choice_of_the_partition(self, q, m):
        P = unit_interval(q).partition(m)
        assert all(P[i] == Interval(QRational(q, i), m) for i in range(q**m))
        for seed in range(20):
            assert random.Random(seed).choice(P) == Interval(QRational(q, random.Random(seed).randrange(q**m)), m)
