"""Desk-scale verification suites.

Each suite checks one family of exact statements at small parameters and
returns a report dict with a ``passed`` flag, plus ``budget_exceeded``,
``estimated`` and ``budget`` if it ran out of budget; ``run_all`` strings the
applicable suites together for a given (q, k).  The acceptance tests and the
command-line ``verify-all`` run these.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np

from . import decoupling as dec
from . import errors
from . import quotient_dft as qd
from .errors import BudgetExceededError, MomentLabError, SupportError, check_budget
from .exponents import (
    FLOAT_TOL,
    ExponentParams,
    a_coeff,
    a_coeff_recurrence,
    b_monotone_check,
    corollary_q_exponent,
    iterate_D_bound,
    positivity_hypothesis,
    supercritical_slack,
    theorem_exponent,
)
from .geometry import (
    INT64_LIMIT,
    Interval,
    _diff_corners,
    _offset_digits,
    _owner_digits,
    _scaled,
    ball,
    tangent_frame,
    theta_of,
    tile_partition,
    unit_interval,
)
from .qadic import QRational, QVector
from .random_instances import random_box_function, random_curve_supported, random_modstep
from .stepfn import REL_TOL, ModulatedStep
from .vinogradov import (
    _check_field,
    classical_iteration_exponent,
    count_J,
    count_J_nested,
    karatsuba_bound,
    karatsuba_exponent_trace,
    linnik_bound,
    linnik_max,
)
from .wavepackets import ScaleConfig, _check_split_budget, pigeonhole, verify_theta_support, wavepacket_decompose

GRID_CHECK_LIMIT = 600_000
RESIDUE_CHECK_LIMIT = 200_000


def _suite(name):
    def wrap(fn):
        def run(*args, **kwargs):
            report = {"name": name, "passed": True, "failures": []}
            try:
                fn(report, *args, **kwargs)
            except BudgetExceededError as exc:
                # a third state, neither pass nor failure; only overruns carry these keys
                report.update(budget_exceeded=str(exc), estimated=exc.estimated, budget=exc.budget)
            except MomentLabError as exc:
                report["failures"].append(str(exc))
            report["passed"] = not report["failures"] and "budget_exceeded" not in report
            return report

        run.__name__ = fn.__name__
        return run

    return wrap


@_suite("fourier-identity")
def fourier_identity(report, q: int, ks=(1, 2, 3)):
    """The transform of the unit-cube indicator is itself, exactly."""
    for k in ks:
        one = ModulatedStep.indicator(ball(q, k, 0))
        if not one.fourier().is_identical(one):
            report["failures"].append(f"unit-cube transform differs at k={k}")
    report["cases"] = len(tuple(ks))


@_suite("oracle-agreement")
def oracle_agreement(report, q: int, k: int, n_instances: int = 100, seed: int = 0, tol=REL_TOL):
    """Symbolic transform, norms, and convolution against the quotient DFT."""
    rng = random.Random(seed)
    worst = 0.0
    heavy = q ** (3 * k) > GRID_CHECK_LIMIT
    for i in range(n_instances):
        scale = rng.choice([1, 1, 2, 2, 3]) if not heavy else rng.choice([1, 1, 1, 2, 2, 2, 2, 3])
        f = random_modstep(rng, q, k, rng.randint(1, 4), scale, mod_depth=scale)
        M, r = qd.grid_geometry(f)
        grid, live = qd.evaluate_on_grid(f, M, r), qd.live_lines(f, M, r)
        grid_l2 = qd.grid_l2_norm(grid, q, r, live)  # before dft_grid transforms grid in place
        fhat = f.fourier()
        peak, err, hat_l2 = qd.compare_on_grid(qd.dft_grid(grid, q, r, live), fhat, r, M)
        l2 = f.lp_norm(2)
        errs = [err / max(1.0, peak), abs(grid_l2 - l2), abs(l2 - hat_l2)]
        g = random_modstep(rng, q, k, rng.randint(1, 3), max(1, scale - 1), mod_depth=1)
        prod_hat = (f * g).fourier()
        conv_hat = fhat.convolve(g.fourier())
        if not prod_hat.close_to(conv_hat, tol):
            report["failures"].append(f"product/convolution theorem failed at instance {i}")
        n = q ** (M + r)
        if n**k <= GRID_CHECK_LIMIT:
            Mg, rg = qd.grid_geometry(g)
            MM, rr = max(M, Mg), max(r, rg)
            conv_oracle = qd.convolve_grids(
                qd.evaluate_on_grid(f, MM, rr), qd.evaluate_on_grid(g, MM, rr), q, rr,
                qd.live_lines(f, MM, rr), qd.live_lines(g, MM, rr),
            )
            peak, err, _ = qd.compare_on_grid(conv_oracle, f.convolve(g), MM, rr)
            errs.append(err / max(1.0, peak))
        if not all(map(math.isfinite, errs)):  # max() would pass over a NaN
            report["failures"].append(f"non-finite error {errs} at instance {i}")
        worst = max(worst, *errs)
    report["worst_rel_error"] = worst
    report["instances"] = n_instances
    if worst > tol:
        report["failures"].append(f"relative error {worst} above {tol}")


@_suite("tilings")
def tilings(report, q: int, k: int, delta_exps=(1, 2)):
    """Counts, disjointness, and exact unions for both tiling statements.

    One pass per base interval K runs geometry's frame kernels on integer
    columns (int64 where a bound rules out overflow): the difference-box
    corners M t mod q^(mk) are distinct and in theta_K - theta_K; the tiles
    of ``tile_partition`` are distinct, fill Q and own their offset points;
    up to RESIDUE_CHECK_LIMIT residues of Q at side d^-1, each is owned by
    one of them, evenly.  ``Tile.contains`` is this owner test, so with
    distinct tile keys each residue lies in exactly one tile.
    """
    # a tile costs about 4.5 us (45 operations) through tile_partition and the frame checks
    check_budget(45 * sum((q - 1) * q ** (m * k * (k - 1) // 2) for m in delta_exps), errors.OPERATION_BUDGET,
                 "the tile partitions need about {estimated} operations (budget {budget})")
    checked = 0
    for m in delta_exps:
        expected = q ** (m * k * (k - 1) // 2)
        Q = ball(q, k, m * k)
        n_residues = q ** (m * (k - 1) * k)
        modulus = q ** (m * k)
        for K in unit_interval(q).partition(m)[: q - 1]:
            entries = tangent_frame(K.corner, k)
            tiles = tile_partition(Q, K)
            # one scale L <= -mk for every dual corner and the residue step q^-mk
            flat, L = _scaled([c for t in tiles for c in t.dual_corner] + [QRational(q, 1, -m * k)])
            # every column value stays below this; B(-a) has M_a's entries up to sign and factorials
            bound = q ** (-L * max(2, k)) * (1 + sum(abs(e) for row in entries for e in row))
            dtype = np.int64 if bound < INT64_LIMIT else object
            radices = [q ** max(-m * j - L, 0) for j in range(1, k + 1)]

            group = _lattice([q ** (m * (k - j)) for j in range(1, k + 1)], dtype)
            corners = _diff_corners(entries, [u * q ** (m * j) for j, u in enumerate(group, 1)], modulus)
            count = len(corners[0])
            vol = Fraction(count, q ** (m * k * k))
            duals = list(np.array(flat[:-1], dtype=dtype).reshape(len(tiles), k).T)
            keys = _pack(duals, radices)
            tvol = len(tiles) * tiles[0].volume if tiles else Fraction(0)
            offsets = _offset_digits(entries, duals, L, m, q)
            checks = (
                (count == expected, f"difference-box count at m={m}: {count}"),
                (np.unique(_pack(corners, [modulus] * k)).size == expected,
                 f"difference-box corners collide at m={m}"),
                (vol == Fraction(1, q ** (m * k * (k + 1) // 2)), f"difference-box volume at m={m}: {vol}"),
                (np.all(theta_of(K, k)._group_member(corners, 0)), f"difference-box corner escapes at m={m}"),
                (len(tiles) == expected, f"tile count at m={m}: {len(tiles)}"),
                (np.unique(keys).size == expected, f"tile coset reps collide at m={m}"),
                (len({t.base_interval.scale_exp for t in tiles}) <= 1, f"tile scales differ at m={m}"),
                (tvol == Q.volume, f"tile volumes at m={m}: {tvol} != {Q.volume}"),
                (np.all(_pack(_owner_digits(entries, offsets, L, m, q), radices) == keys),
                 f"tile offset point escapes at m={m}"),
            )
            report["failures"].extend(message for holds, message in checks if not holds)

            if n_residues <= RESIDUE_CHECK_LIMIT:
                x = [u * q ** (-m * k - L) for u in _lattice([q ** (m * (k - 1))] * k, dtype)]
                owners = _pack(_owner_digits(entries, x, L, m, q), radices)
                foreign = np.flatnonzero(~np.isin(owners, keys))
                first = int(foreign[0]) if foreign.size else n_residues
                if foreign.size:
                    point = QVector([QRational(q, int(c[first]), L) for c in x])
                    report["failures"].append(f"residue {point} owned by a foreign tile")
                _, shares = np.unique(owners[:first], return_counts=True)
                if shares.size and set(shares.tolist()) != {n_residues // len(tiles)}:
                    report["failures"].append(f"uneven tile ownership at m={m}")
            checked += 1
    report["checked"] = checked


def _lattice(sides, dtype) -> list:
    """Every point of prod(range(s) for s in sides) as integer columns, in itertools.product order."""
    return list(np.indices(sides).reshape(len(sides), -1).astype(dtype))


def _pack(digits, radices):
    """Mixed-radix key of digit columns, each digit below its radix."""
    key = 0
    for d, r in zip(digits, radices):
        key = key * r + d
    return key


@_suite("interval-separation")
def interval_separation(report, q: int, max_scale: int = 3):
    """Distinct same-length intervals sit at least q times their length apart."""
    from .geometry import interval_distance

    for m in range(0, max_scale + 1):
        check_budget(q**m * (q**m - 1) // 2, errors.OPERATION_BUDGET,
                     "interval separation walks {estimated} pairs (budget {budget})")
        P = unit_interval(q).partition(m)
        length = Fraction(1, q**m)
        for i, a in enumerate(P):
            for b in P[i + 1 :]:
                d = interval_distance(a, b)
                if d < q * length:
                    report["failures"].append(f"{a} and {b} are only {d} apart")
    report["scales"] = max_scale + 1


@_suite("wavepackets")
def wavepackets_suite(report, q: int, k: int, delta_exps=(1, 2), n_instances: int = 50, seed: int = 0):
    """Reconstruction (one merge of the packets against g), constant modulus, and box support for tile pieces."""
    rng = random.Random(seed)
    per_scale = max(1, n_instances // len(tuple(delta_exps)))
    for m in delta_exps:
        _check_split_budget(q, k, m)
    done = 0
    for m in delta_exps:
        for _ in range(per_scale):
            K = Interval(QRational(q, rng.randrange(q**m)), m)  # rng.choice of the partition, without building it
            g = random_box_function(rng, q, k, K, rng.randint(1, 4))
            ws = wavepacket_decompose(g, K)
            if not g._is_sum_of(t for _, piece in ws.packets for t in piece.terms):
                report["failures"].append(f"reconstruction failed at m={m}")
            if len(ws) > q ** (m * k * (k - 1) // 2):
                report["failures"].append(f"tile count exceeded at m={m}")
            for tile, piece in ws.packets:
                vals = {round(abs(piece.evaluate(x)), 9) for x in tile.sample_points(6)}
                if len(vals) != 1:
                    report["failures"].append(f"modulus varies on a tile at m={m}: {vals}")
                try:
                    verify_theta_support(piece, K)
                except SupportError as exc:
                    report["failures"].append(f"packet support escapes at m={m}: {exc}")
            done += 1
    report["instances"] = done


@_suite("pigeonhole")
def pigeonhole_suite(report, q: int, k: int, delta_exp: int = 2, p: int = 8, n_instances: int = 10, seed: int = 0):
    """Bucket statistics on each bucket's packets, reconstruction, and the remainder bound."""
    rng = random.Random(seed)
    cfg = ScaleConfig.from_epsilon(q, k, delta_exp, Fraction(1, 2))
    _check_split_budget(q, k, delta_exp)
    for i in range(n_instances):
        f = random_curve_supported(rng, q, k, delta_exp, rng.randint(1, q**delta_exp), 2)
        buckets, remainder, info = pigeonhole(f, cfg, p)
        for b in buckets:
            if not all(b.height_H / 2 < h <= b.height_H * (1 + REL_TOL) for *_, h in b.packets):
                report["failures"].append(f"height class broken in instance {i}")
            parents: dict = {}
            for K, n in Counter(K for K, *_ in b.packets).items():
                if not (b.packet_count_alpha / 2 < n <= b.packet_count_alpha):
                    report["failures"].append(f"packet-count class broken in instance {i}")
                parents.setdefault(K.parent(cfg.nu_exp), []).append(K)
            for J, children in parents.items():
                if not (b.sibling_count_beta / 2 < len(children) <= b.sibling_count_beta):
                    report["failures"].append(f"sibling class broken in instance {i}")
            if len(parents) > q**cfg.nu_exp:
                report["failures"].append("mid-interval count exceeds its ceiling")
    report["instances"] = n_instances


@_suite("linnik")
def linnik_suite(report, pairs=((2, 3), (2, 5), (3, 5))):
    """Exhaustive residue maxima against k! p^(k(k-1)/2)."""
    results = {}
    for k, p in pairs:
        bound = linnik_bound(k, p)
        value, argmax = linnik_max(k, p)
        results[f"k={k},p={p}"] = {"max": value, "bound": bound, "argmax": argmax}
        if value > bound:
            report["failures"].append(f"residue count {value} above {bound} at (k={k}, p={p})")
    report["results"] = results


@_suite("vinogradov")
def vinogradov_suite(report):
    """Exact counts, the closed form at s=k=2, and strategy agreement."""
    for X in (1, 4, 9):
        for k in (2, 3):
            if count_J(1, k, X) != X:
                report["failures"].append(f"diagonal count at X={X}")
    for X in range(1, 31):
        if count_J(2, 2, X) != 2 * X * X - X:
            report["failures"].append(f"closed form fails at X={X}")
    for X in range(1, 13):
        v = count_J(3, 3, X)
        if not X**3 <= v <= 6 * X**3:
            report["failures"].append(f"multiset bound fails at X={X}: {v}")
    for s, k, X in ((2, 2, 4), (2, 3, 3), (3, 2, 3)):
        if count_J(s, k, X) != count_J_nested(s, k, X):
            report["failures"].append(f"strategies disagree at (s,k,X)=({s},{k},{X})")
    report["checked"] = True


@_suite("karatsuba")
def karatsuba_suite(report):
    """Bound dominates exact counts; symbolic exponents match the closed form."""
    for X in range(1, 9):
        for s in (2, 4):
            bound = karatsuba_bound(s, 2, X).bound
            exact = count_J(s, 2, X)
            if bound < exact:
                report["failures"].append(f"bound {bound} below exact {exact} at (s={s}, X={X})")
    for k in range(2, 7):
        for s in range(k, 10 * k + 1, k):
            got, _ = karatsuba_exponent_trace(s, k)
            want = classical_iteration_exponent(s, k)
            if got != want:
                report["failures"].append(f"exponent trace {got} != closed form {want}")
            slack = supercritical_slack(k, Fraction(k * k, 2), 2 * s)
            if abs(float(got - s) - slack) > FLOAT_TOL:
                report["failures"].append(f"exponent trace {got} - {s} != T(2s) = {slack} at k={k}")
    report["checked"] = True


@_suite("counting-lemma")
def counting_lemma_suite(report, cases=((3, 2, 2, 1), (5, 2, 2, 1))):
    """Exhaustive verification over every admissible query; results are keyed by q."""
    by_q = {}
    for case in cases:
        if case[0] in by_q:
            raise ValueError(f"counting-lemma cases {by_q[case[0]]} and {case} share q={case[0]}")
        by_q[case[0]] = case
    results = {}
    for q, k, m, r in cases:
        rep = dec.counting_lemma_exhaustive(q, k, m, r)
        results[f"q={q}"] = {
            "worst": rep["worst_count"],
            "bound": rep["bound"],
            "queries": rep["n_queries"],
        }
    report["results"] = results


def _curve_instances(q: int, k: int, n_instances: int, seed: int, least_terms: int = 1):
    """Seeded functions Fourier supported on the curve boxes at delta = q^-2."""
    rng = random.Random(seed)
    for _ in range(n_instances):
        yield random_curve_supported(rng, q, k, 2, rng.randint(least_terms, q**2), 2)


def _slack_suite(report, check, q, k, p, n_instances, seed):
    cfg = ScaleConfig.from_epsilon(q, k, 2, Fraction(1, 2))
    slack = []
    for g in _curve_instances(q, k, n_instances, seed):
        rep = check(g, cfg, p)
        if rep["lhs"] > 0:
            slack.append(rep["rhs"] / rep["lhs"])
    report["instances"] = n_instances
    report["min_slack"] = min(slack, default=float("inf"))


@_suite("broad-narrow")
def broad_narrow_suite(report, q: int = 3, k: int = 2, n_instances: int = 50, seed: int = 0):
    """Pointwise dichotomy on every constancy cell of seeded instances."""
    cfg = ScaleConfig.from_epsilon(q, k, 2, Fraction(1, 2))
    narrow = broad = 0
    for g in _curve_instances(q, k, n_instances, seed):
        rep = dec.broad_narrow_check(g, cfg)
        narrow += rep["narrow_binding"]
        broad += rep["broad_binding"]
    report["instances"] = n_instances
    report["narrow_binding_cells"] = narrow
    report["broad_binding_cells"] = broad


@_suite("main-inequality")
def main_lemma_suite(report, q: int = 3, k: int = 2, p: int = 8, n_instances: int = 20, seed: int = 0):
    _slack_suite(report, dec.verify_main_lemma, q, k, p, n_instances, seed)


@_suite("reversed-holder")
def reversed_holder_suite(report, q: int = 3, k: int = 2, p: int = 8, n_instances: int = 20, seed: int = 0):
    _slack_suite(report, dec.verify_reversed_holder, q, k, p, n_instances, seed)


@_suite("affine-rescaling")
def affine_rescaling_suite(report, q: int = 3, k: int = 2, p: int = 8, n_instances: int = 10, seed: int = 0):
    cfg = ScaleConfig.from_epsilon(q, k, 2, Fraction(1, 2))
    done = 0
    for g in _curve_instances(q, k, n_instances, seed, least_terms=2):
        for I in g.freq_components(unit_interval(q).partition(1)):
            dec.affine_rescale_verify(g, I, cfg, p)
            done += 1
    report["rescalings"] = done


@_suite("reverse-square")
def reverse_square_suite(report, q: int = 3, k: int = 2, n_instances: int = 20, seed: int = 0):
    for g in _curve_instances(q, k, n_instances, seed):
        dec.reverse_square_check(g, 2, 1)
    report["instances"] = n_instances


@_suite("extremizer")
def extremizer_suite(report, q: int = 3, k: int = 2, delta_exps=(1, 2), ps=(4, 12)):
    """Wave-superposition ratios against the counting formula and ceilings."""
    values = {}
    for m in delta_exps:
        for p in ps:
            values[(m, p)], _ = dec.exp_sum_lower_bound(q, k, m, p)
    for p in ps:
        if p > 2:
            seq = [values[(m, p)] for m in sorted(delta_exps)]
            if any(b < a * (1 - REL_TOL) for a, b in zip(seq, seq[1:])):
                report["failures"].append(f"ratio not monotone in 1/delta at p={p}")
    report["ratios"] = {f"delta_exp={m},p={p}": v for (m, p), v in values.items()}


@_suite("exponent-engine")
def exponent_suite(report):
    """Exact rational identities and the iteration's bookkeeping."""
    if a_coeff(4, 4, 2) != 0 or a_coeff(8, 4, 2) != 11:
        report["failures"].append("anchor values of the q-exponent are off")
    for k in range(2, 6):
        for p0 in (2 * k, 2 * k + 2):
            for j in range(0, 11):
                p = p0 + 2 * k * j
                if a_coeff(p, p0, k) != a_coeff_recurrence(p, p0, k):
                    report["failures"].append(f"recurrence != closed form at (k={k}, p={p})")
    if corollary_q_exponent(8, 2) != Fraction(11, 8):
        report["failures"].append("corollary exponent at (k=2, p=8) is off")
    for k in (2, 3, 4):
        if not b_monotone_check(k, 0) or not b_monotone_check(k, 7):
            report["failures"].append(f"b not monotone at k={k}")
    for k in (2, 3):
        for p0 in (2 * k, 4 * k):
            for c0 in (Fraction(k * k, 2) + 1, 3 * k * k):
                if positivity_hypothesis(k, p0, c0):
                    for j in range(12):
                        if supercritical_slack(k, c0, p0 + 2 * k * j) < -FLOAT_TOL:
                            report["failures"].append(
                                f"positivity does not propagate at (k={k}, p0={p0})"
                            )
    params = ExponentParams(k=2, p0=4, c0=Fraction(2), epsilon=Fraction(1, 10))
    te = theorem_exponent(params, 8)
    tr = iterate_D_bound(params, 8)
    if tr.final_q_exponent != te["q_exponent"]:
        report["failures"].append("trajectory q-exponent disagrees with the closed form")
    gaps = []
    for eps in (Fraction(1, 4), Fraction(1, 10), Fraction(1, 50)):
        t = iterate_D_bound(
            ExponentParams(k=2, p0=4, c0=Fraction(2), epsilon=eps), 8
        )
        gaps.append(te["delta_exponent_no_eps"] - t.final_delta_exponent)
    if not all(g >= -FLOAT_TOL for g in gaps) or not all(
        a >= b - FLOAT_TOL for a, b in zip(gaps, gaps[1:])
    ):
        report["failures"].append("iteration does not tighten as epsilon shrinks")
    report["checked"] = True


def run_all(q: int, k: int, seed: int = 0):
    """Every suite that applies at (q, k), smallest first, each report
    yielded as its suite finishes (so a caller can time the suites)."""
    _check_field(q, k)
    yield fourier_identity(q)
    yield interval_separation(q)
    yield oracle_agreement(q, k, n_instances=30, seed=seed)
    yield vinogradov_suite()
    yield linnik_suite(pairs=((2, 3), (2, 5)))
    yield karatsuba_suite()
    yield exponent_suite()
    if k >= 2:
        yield tilings(q, k)
        yield wavepackets_suite(q, k, n_instances=20, seed=seed)
        yield pigeonhole_suite(q, k, n_instances=5, seed=seed)
        yield counting_lemma_suite(cases=((q, k, 2, 1),))
        if k == 2:
            yield broad_narrow_suite(q, k, n_instances=20, seed=seed)
            yield main_lemma_suite(q, k, n_instances=8, seed=seed)
            yield reversed_holder_suite(q, k, n_instances=8, seed=seed)
            yield affine_rescaling_suite(q, k, n_instances=4, seed=seed)
            yield reverse_square_suite(q, k, n_instances=8, seed=seed)
            yield extremizer_suite(q, k)
