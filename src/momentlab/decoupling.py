"""Decoupling functionals and instance checks for the moment-curve geometry.

The decoupling constant itself is a supremum over all admissible
functions and is never computed; instances give certified lower bounds,
and the checks consume certified upper bounds (by default the trivial
Cauchy-Schwarz ceiling) where one is needed on the right-hand side.

Conventions: delta = q^-delta_exp is the fine frequency scale, kappa and
nu the coarse and intermediate scales of a ScaleConfig.  For intervals of
a common length, distance > kappa is the same as being distinct, because
distinct same-length intervals are automatically q*kappa apart.
"""

from __future__ import annotations

import random
from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, frexp, fsum, inf, isfinite, perm

from . import errors
from .errors import VerificationError, check_budget
from .exponents import bdg_sharp_exponent
from .geometry import Cube, Interval, _axis_corners, ball, binomial_frame, frame_apply, gamma, tau_of, unit_interval
from .qadic import QRational, QVector
from .stepfn import REL_TOL, ModulatedStep, _lp_from_cells, joint_cell_values
from .vinogradov import _check_field, _power_sum_distribution, count_power_sum_congruences
from .wavepackets import ScaleConfig, freq_certificate

__all__ = [
    "CountingQuery",
    "freq_certificate",
    "trivial_decoupling_bound",
    "decoupling_ratio",
    "exp_sum_extremizer",
    "exp_sum_lower_bound",
    "broad_narrow_check",
    "counting_set_pointwise_oracle",
    "counting_lemma_exhaustive",
    "main_inequality_constants",
    "verify_main_lemma",
    "verify_reversed_holder",
    "affine_rescale",
    "affine_rescale_verify",
    "reverse_square_check",
]


def trivial_decoupling_bound(q: int, scale_exp: int) -> float:
    """Cauchy-Schwarz ceiling: the constant at scale q^-m is at most q^(m/2)."""
    return float(q) ** (scale_exp / 2.0)


def decoupling_ratio(f: ModulatedStep, delta_exp: int, p: int):
    """||f||_p divided by the square-function ell^2 aggregate of the pieces.

    f must be Fourier supported in the curve boxes at scale q^-delta_exp,
    which freq_certificate checks.  Every instance certifies a lower bound
    for the decoupling constant at its scale; the trivial ceiling is
    asserted on the way out.
    """
    if p < 2 or p % 2 != 0:
        raise ValueError("p must be an even integer >= 2")
    if f.is_zero:
        raise ValueError("the zero function has no decoupling ratio")
    numerator = f.lp_norm(p)  # before the split: f's own modulus cells meet the budget first
    pieces = freq_certificate(f, delta_exp)
    sq = fsum(fK.lp_norm(p) ** 2 for fK in pieces.values())
    ratio = numerator / sq**0.5
    ceiling = trivial_decoupling_bound(f.q, delta_exp)
    if ratio > ceiling * (1 + REL_TOL):
        raise VerificationError(f"ratio {ratio} exceeds the trivial ceiling {ceiling}")
    report = {
        "ratio": ratio,
        "numerator": numerator,
        "pieces": len(pieces),
        "square_sum": sq,
        "trivial_ceiling": ceiling,
        "certificate_intervals": [K.to_json() for K in sorted(pieces, key=Interval.key)],
    }
    return ratio, report


def exp_sum_extremizer(q: int, k: int, delta_exp: int) -> ModulatedStep:
    """Superposition of curve-frequency waves on the big ball.

    One wave chi(gamma(a) . x) per fine-partition anchor a, all carried by
    the ball of radius delta^-k; its p-th moments count power-sum
    congruences among the anchors.
    """
    # counted before any is built: a wave costs 20-45 us here and 140-380 us more in a ratio's split and norms
    check_budget(4000 * q**delta_exp, errors.OPERATION_BUDGET,
                 "the extremizer's waves need about {estimated} operations (budget {budget})")
    big = ball(q, k, delta_exp * k)
    anchors = unit_interval(q).partition(delta_exp)
    return ModulatedStep(q, k, [(1.0 + 0j, gamma(I.corner, k), big) for I in anchors])


def exp_sum_lower_bound(q: int, k: int, delta_exp: int, p: int):
    """Decoupling ratio of the canonical wave superposition, cross-checked
    against the exact congruence count of anchor power sums."""
    m = delta_exp
    ratio, report = decoupling_ratio(exp_sum_extremizer(q, k, m), m, p)
    s = p // 2
    n_cong = count_power_sum_congruences(s, k, q**m, [q ** (m * k)] * k)
    # ||f||_p^p = vol(ball) * N and each ||f_K||_p = vol^(1/p), so the ratio
    # collapses to N^(1/p) / q^(m/2)
    predicted = n_cong ** (1.0 / p) / float(q) ** (m / 2.0)
    report.update(
        {
            "congruence_count": n_cong,
            "ratio_from_count": predicted,
            "predicted_exponent": bdg_sharp_exponent(k, p),
            "delta_exp": m,
            "p": p,
        }
    )
    if abs(ratio - predicted) > REL_TOL * max(1.0, predicted):
        raise VerificationError(
            f"analytic ratio {ratio} disagrees with counting value {predicted}"
        )
    return ratio, report


# -- broad-narrow ---------------------------------------------------------------


def _dichotomy_constants(k: int, kappa: float) -> tuple[float, float]:
    """The pointwise dichotomy's narrow and broad constants,
    a1 = 2^(2k-1) k^(2k) and a2 = 2^(2k-1) kappa^-(4k-2)."""
    return 2.0 ** (2 * k - 1) * float(k) ** (2 * k), 2.0 ** (2 * k - 1) * kappa ** (-(4 * k - 2))


def broad_narrow_check(g: ModulatedStep, cfg: ScaleConfig):
    """Pointwise dichotomy: |g|^2k is controlled by the best narrow piece
    or by a transverse k-fold product, with explicit constants.

    Checked exhaustively on the modulus cells of g and its coarse pieces.
    ``points`` counts the points of the grid of step q^-r over the ball of
    radius q^M, with r = max(0, finest ``cell_scale``) and M the least
    radius, at least 0, that holds every support.  A cell stands for the
    grid points it holds; the points off every support, where all the
    functions vanish, are narrow-binding.  A cell that breaks the
    dichotomy raises VerificationError.
    """
    import numpy as np

    q, k = cfg.q, cfg.k
    if g.is_zero:
        return {
            "points": 0,
            "narrow_binding": 0,
            "broad_binding": 0,
            "holds": True,
            "worst_ratio": 0.0,
        }
    coarse = cfg.coarse_partition()
    comps, zero = g.freq_components(coarse), ModulatedStep.zero(q, k)
    fns = [g] + [comps.get(I, zero) for I in coarse]
    cubes = [cube for fn in fns for cube in fn.support_cubes()]
    r = max([0] + [fn.cell_scale() for fn in fns])
    M = max([0] + [-cube.scale_exp for cube in cubes]
            + [-c.valuation for cube in cubes for c in cube.corner if not c.is_zero])
    n_points = q ** ((M + r) * k)
    volumes, moduli = joint_cell_values(fns)
    g_abs, piece_abs = moduli[0], moduli[1:]
    narrow_const, broad_const = _dichotomy_constants(k, float(cfg.kappa))
    narrow = narrow_const * piece_abs.max(axis=0) ** (2 * k)
    broad_core = None
    for tup in permutations(range(len(coarse)), k):
        prod = piece_abs[tup[0]].copy()
        for i in tup[1:]:
            prod = prod * piece_abs[i]
        broad_core = prod if broad_core is None else np.maximum(broad_core, prod)
    broad = broad_const * (broad_core**2 if broad_core is not None else 0.0)
    lhs = g_abs ** (2 * k)
    rhs = narrow + broad
    holds = bool((lhs <= rhs * (1 + REL_TOL)).all())
    live = rhs > 0
    worst = float((lhs[live] / rhs[live]).max()) if live.any() else 0.0
    if not holds:
        raise VerificationError(f"pointwise dichotomy failed: worst |g|^2k / rhs = {worst}")
    # a cell of volume q^-e stands for q^(rk - e) grid points, counted in exact integers
    exps, counts = np.unique(np.rint(-np.log(volumes[narrow < broad]) / np.log(q)), return_counts=True)
    broad_binding = sum(int(n) * q ** (r * k - int(e)) for e, n in zip(exps, counts))
    return {
        "points": n_points,
        "narrow_binding": n_points - broad_binding,
        "broad_binding": broad_binding,
        "holds": holds,
        "worst_ratio": worst,
    }


# -- the counting lemma -----------------------------------------------------------


@dataclass
class CountingQuery:
    """Fixed coarse intervals, one fine anchor interval in each, and a box.

    Pairwise-distinct coarse intervals of one length are automatically
    more than kappa apart; the box must have side nu^k, which is at most
    delta.
    """

    intervals: list[Interval]
    anchors: list[Interval]
    box: Cube
    cfg: ScaleConfig

    def __post_init__(self):
        cfg = self.cfg
        k = cfg.k
        if len(self.intervals) != k or len(self.anchors) != k:
            raise ValueError(f"need {k} intervals and {k} anchor intervals")
        if len({i.corner for i in self.intervals}) != k:
            raise ValueError("coarse intervals must be pairwise distinct (> kappa apart)")
        for I in self.intervals:
            if I.scale_exp != cfg.kappa_exp:
                raise ValueError("coarse intervals must have length kappa")
        for I, Kb in zip(self.intervals, self.anchors):
            if Kb.scale_exp != cfg.delta_exp or not I.contains_interval(Kb):
                raise ValueError("anchors must be delta-intervals inside their coarse interval")
        if self.box.scale_exp != cfg.nu_exp * k:
            raise ValueError("box must have side nu^k")


def counting_set_pointwise_oracle(qry: CountingQuery, rng: random.Random | None = None):
    """Independent membership route: sample actual points of every cube,
    sum them, and test the q-adic size of the result.

    Shifting a sample inside its cube moves the sum by a lattice element,
    so any sample decides membership; randomizing the samples exercises
    that invariance.
    """
    cfg = qry.cfg
    q, k, m = cfg.q, cfg.k, cfg.delta_exp
    rng = rng or random.Random(0)

    def sample_in(cube: Cube) -> QVector:
        shift = QVector(
            [QRational(q, rng.randrange(q**2), cube.scale_exp) for _ in range(k)]
        )
        return cube.corner + shift

    choices = [I.partition(m) for I in qry.intervals]
    hits = []
    for combo in product(*choices):
        total = sample_in(qry.box)
        for K in combo:
            total = total + sample_in(tau_of(K, k))
        for Kb in qry.anchors:
            total = total - sample_in(tau_of(Kb, k))
        if all(c.is_zero or c.valuation >= m for c in total):
            hits.append(combo)
    return hits


def counting_lemma_exhaustive(q: int, k: int, delta_exp: int, kappa_exp: int):
    """Check every admissible query at the given scales against the bound.

    A count is an entry of the distribution of the anchors' power sums mod
    q^m (their tau corners), built by the counting side once per set of
    coarse intervals, as power sums are symmetric.  Boxes range over their
    residues modulo the delta lattice (inequivalent residues exhaust the
    distinct membership questions, and boxes away from the unit ball give
    empty sets).  The whole enumeration is budgeted first.  Returns a report
    with the worst count and the query space size in ordered tuples.
    """
    _check_field(q, k)
    cfg = ScaleConfig(q, k, delta_exp, kappa_exp)
    m, r = delta_exp, kappa_exp
    qm, per_coarse = q**m, q ** (m - r)
    # at measured costs (an operation is about 0.1 us): the q^r intervals (1.4 us each) and q^m
    # anchors (4 us) built first, then per set one distribution call (20 us), in which the i-th
    # interval shifts at most per_coarse^(i-1) keys by per_coarse anchors
    work = 15 * q**r + 40 * qm + comb(q**r, k) * (200 + sum(per_coarse**i for i in range(1, k + 1)))
    check_budget(work, errors.OPERATION_BUDGET,
                 "counting-lemma enumeration needs about {estimated} operations (budget {budget})")
    coarse = cfg.coarse_partition()
    bound = q ** ((r - 1) * k * (k - 1))  # (q kappa)^(-k(k-1)) with kappa = q^-r
    # anchors are canonical digit integers, so their power sums mod q^m are tau corners
    anchors = {I: [int(K.corner.to_fraction()) for K in I.partition(m)] for I in coarse}
    worst, worst_query = 0, None
    for combo_I in combinations(coarse, k):
        table = _power_sum_distribution(k, [(anchors[I], 1, None) for I in combo_I], [qm] * k)
        best = max(table.values())
        if best > worst:
            # the first max is at the sorted ordering's first anchors, where w meets key (base - w) mod q^m
            base = [sum(pow(anchors[I][0], j, qm) for I in combo_I) % qm for j in range(1, k + 1)]
            w = min(tuple((b - c) % qm for b, c in zip(base, key)) for key, n in table.items() if n == best)
            worst, worst_query = best, (combo_I, w)
    n_queries = perm(len(coarse), k) * per_coarse**k * qm**k
    report = {
        "worst_count": worst,
        "bound": bound,
        "n_queries": n_queries,
        "holds": worst <= bound,
        "worst_query": None,
    }
    if worst_query is not None:
        combo_I, w = worst_query
        report["worst_query"] = {
            "intervals": [I.to_json() for I in combo_I],
            "anchors": [Interval(I.corner, m).to_json() for I in combo_I],
            "box_residue": list(w),
        }
    if not report["holds"]:
        raise VerificationError(
            f"counting lemma violated: {worst} > {bound} at {report['worst_query']}"
        )
    return report


# -- the main inequality -------------------------------------------------------------


def main_inequality_constants(k: int, p: int) -> tuple[float, float]:
    """Explicit admissible constants for the two branches.

    Narrow: the pointwise constant 2^(2k-1) k^(2k) passes through Hoelder
    and an absorption with weight one half; broad: the pointwise constant
    doubles through the same absorption.
    """
    if p <= 2 * k:
        raise ValueError("need p > 2k")
    a1, _ = _dichotomy_constants(k, 1.0)
    lam = (2.0 * (p - 2 * k) / p) ** ((p - 2 * k) / p)
    c_narrow = 2.0 * (2.0 * k / p) * lam ** (p / (2.0 * k)) * a1 ** (p / (2.0 * k))
    c_broad = 2.0 ** (2 * k)
    return c_narrow, c_broad


def _fine_piece_norms(pieces, p: int, k: int) -> dict[Interval, tuple[float, float, float]]:
    """The L^p, L^inf and L^(p-2k) norms of each fine piece, all three read
    off one modulus-cell plan of the piece."""
    norms = {}
    for K, fK in pieces.items():
        volumes, moduli = joint_cell_values([fK])
        norms[K] = tuple(_lp_from_cells(volumes, moduli[0], e) for e in (p, inf, p - 2 * k))
    return norms


def _live_children(live, scale_exp: int) -> dict[Interval, list[Interval]]:
    """The live fine intervals grouped by parent at ``scale_exp``, each group
    in ``live``'s order.  The keys are the live parents, since a coarser
    piece is the sum of the fine pieces below it."""
    children: dict[Interval, list[Interval]] = {}
    for K in live:
        children.setdefault(K.parent(scale_exp), []).append(K)
    return children


def _holder_factors(norms, children, p: int, k: int, scale: float):
    """The reversed-Hoelder factors of the fine pieces, each norm divided by
    ``scale``: the square sum of the L^p norms, the max over nu-parents of
    the l^2 sum of their L^(p-2k) norms to the power p-2k, and the max and
    the sum of the sup norms."""
    sq_sum = fsum((v / scale) ** 2 for v, _, _ in norms.values())
    max_parent = max(
        (fsum((norms[K][2] / scale) ** 2 for K in Ks) ** ((p - 2 * k) / 2.0) for Ks in children.values()),
        default=0.0,
    )
    sups = [v for _, v, _ in norms.values()]
    return sq_sum, max_parent, max(sups, default=0.0) / scale, fsum(sups) / scale


def verify_main_lemma(g: ModulatedStep, cfg: ScaleConfig, p: int, dec_bound_supplier=None):
    """Instance check of the two-branch inequality controlling the p-th
    moment by a coarse decoupling term plus a counted transverse term.

    ``dec_bound_supplier(p', scale_exp)`` must return a certified upper
    bound for the decoupling constant at scale q^-scale_exp; the default
    is the trivial ceiling.  Every factor is computed from g and reported,
    from g / normalized_by when a p-th power of g's norms leaves the float range.
    """
    q, k = cfg.q, cfg.k
    if p % 2 != 0 or p < 2 * k + 2:
        raise ValueError("p must be even with p - 2k an even positive integer")
    if dec_bound_supplier is None:
        dec_bound_supplier = lambda pp, scale_exp: trivial_decoupling_bound(q, scale_exp)
    if g.is_zero:
        return {"lhs": 0.0, "rhs": 0.0, "holds": True, "zero": True}
    norms = _fine_piece_norms(freq_certificate(g, cfg.delta_exp), p, k)
    children = _live_children(norms, cfg.nu_exp)
    N = len(children)

    gnorm = g.lp_norm(p)
    c_narrow, c_broad = main_inequality_constants(k, p)
    d_kappa = dec_bound_supplier(p, cfg.delta_exp - cfg.kappa_exp)
    d_nu = dec_bound_supplier(p - 2 * k, cfg.delta_exp - cfg.nu_exp)
    kappa, nu = float(cfg.kappa), float(cfg.nu)
    # both sides are homogeneous of degree p in g: out of float range, check g / 2^e ~ g / ||g||_p
    for scale in (1.0, 2.0 ** frexp(gnorm)[1]):
        with suppress(OverflowError):
            lhs = (gnorm / scale) ** p
            sq_sum, max_inner, max_inf, sum_inf = _holder_factors(norms, children, p, k, scale)
            narrow_term = c_narrow * d_kappa**p * sq_sum ** (p / 2.0)
            broad_term = (
                c_broad
                * float(q) ** (-k * (k - 1))
                * kappa ** (-(k * k + 4 * k - 2))
                * nu ** (-k * (k - 1) / 2.0)
                * N ** (p - 2 * k)
                * d_nu ** (p - 2 * k)
                * max_inf**k
                * sum_inf**k
                * max_inner
            )
            rhs = narrow_term + broad_term
            if 0.0 < lhs and isfinite(rhs):
                break
    else:
        raise ValueError(f"p = {p} is too large to evaluate the terms in floating point")
    report = {
        "lhs": lhs,
        "rhs": rhs,
        "narrow_term": narrow_term,
        "broad_term": broad_term,
        "constants": {"narrow": c_narrow, "broad": c_broad},
        "dec_bounds": {"coarse": d_kappa, "mid": d_nu},
        "N": N,
        "max_piece_sup": max_inf,
        "sum_piece_sup": sum_inf,
        "max_inner_sum": max_inner,
        "square_sum": sq_sum,
        "holds": lhs <= rhs * (1 + REL_TOL),
    }
    if scale != 1.0:
        report["normalized_by"] = scale
    if not report["holds"]:
        raise VerificationError(f"main inequality failed: {lhs} > {rhs}")
    return report


def verify_reversed_holder(g: ModulatedStep, cfg: ScaleConfig, p: int):
    """Instance check of the reversed Hoelder chain for the square sum.

    The max over parents runs over the live intervals of the intermediate
    partition (a dead one adds zero), which is what the main inequality
    consumes.
    """
    k = cfg.k
    if p % 2 != 0 or p <= 2 * k:
        raise ValueError("p must be even and exceed 2k")
    if g.is_zero:
        return {"lhs": 0.0, "rhs": 0.0, "holds": True, "zero": True}
    norms = _fine_piece_norms(g.freq_components(cfg.fine_partition()), p, k)
    children = _live_children(norms, cfg.nu_exp)
    N = len(children)
    sq_sum, max_parent, max_inf, sum_inf = _holder_factors(norms, children, p, k, 1.0)
    lhs = sq_sum ** (p / 2.0)
    rhs = N ** ((p - 2 * k) / 2.0) * max_inf**k * sum_inf**k * max_parent
    report = {
        "lhs": lhs,
        "rhs": rhs,
        "N": N,
        "max_parent_sum": max_parent,
        "holds": lhs <= rhs * (1 + REL_TOL),
    }
    if not report["holds"]:
        raise VerificationError(f"reversed Hoelder failed: {lhs} > {rhs}")
    return report


# -- affine rescaling ------------------------------------------------------------------


def affine_rescale(g_I: ModulatedStep, I: Interval) -> tuple[ModulatedStep, Fraction]:
    """Pull a piece over the interval I back to the unit interval.

    Returns (h, det_modulus): h is the exact rescaled function and
    det_modulus = kappa^(k(k+1)/2) the q-adic modulus of the frequency
    map's determinant, so ||g_I||_p = det_modulus^((p-1)/p) ||h||_p.
    Space maps by B(c)^T and frequency by diag(kappa^-i) B(-c) (xi - gamma(c)),
    with B the binomial frame at the corner c of I.
    """
    q, k = g_I.q, g_I.k
    r, c = I.scale_exp, I.corner
    gvec = gamma(c, k)  # raises ValueError unless |c| <= 1
    anchor = int(c.to_fraction())
    forward, inverse = binomial_frame(anchor, k), binomial_frame(-anchor, k)
    kappa_elt = QRational(q, 1, r)  # the element of norm kappa
    det_modulus = Fraction(1, q ** (r * k * (k + 1) // 2))
    coeff_scale = float(Fraction(1) / det_modulus)

    terms = []
    for coeff, b, cube in g_I.terms:
        s = cube.scale_exp
        w = frame_apply(forward, cube.corner, transpose=True)
        shifted = frame_apply(inverse, b - gvec)
        new_mod = QVector(
            [QRational(q, 1, -r * (i + 1)) * shifted[i] for i in range(k)]
        )
        fine_scale = s + r * k
        # axis i: the digits of kappa^i w_i below s + r i, then every digit block up to fine_scale
        axis_corners = [
            _axis_corners((kappa_elt**i * w_i).rep_mod(s + r * i), s + r * i, q ** (r * (k - i)))
            for i, w_i in enumerate(w, 1)
        ]
        for combo in product(*axis_corners):
            terms.append(
                (coeff * coeff_scale, new_mod, Cube(QVector(combo), fine_scale))
            )
    return ModulatedStep(q, k, terms), det_modulus


def affine_rescale_verify(g: ModulatedStep, I: Interval, cfg: ScaleConfig, p: int):
    """Norm equalities and support transport under the rescaling map."""
    q, k, m = cfg.q, cfg.k, cfg.delta_exp
    g_I = g.freq_components([I]).get(I)
    if g_I is None:
        raise ValueError("the piece over I vanishes; nothing to rescale")
    h, det_modulus = affine_rescale(g_I, I)
    factor = float(det_modulus) ** ((p - 1) / p)
    lhs, h_norm = g_I.lp_norm(p), h.lp_norm(p)
    rhs = factor * h_norm
    report = {
        "interval": I.to_json(),
        "norm_parent": lhs,
        "norm_rescaled": h_norm,
        "det_modulus": det_modulus,
        "holds_parent": abs(lhs - rhs) <= REL_TOL * max(1.0, lhs),
        "pieces": [],
    }
    # the rescaled function decouples at the quotient scale over O
    new_exp = m - I.scale_exp
    h_parts, zero = freq_certificate(h, new_exp), ModulatedStep.zero(q, k)
    for K, g_K in g.freq_components(I.partition(m)).items():
        K_new = Interval(((K.corner - I.corner) / QRational(q, 1, I.scale_exp)).rep_mod(new_exp), new_exp)
        a = g_K.lp_norm(p)
        bnorm = factor * h_parts.get(K_new, zero).lp_norm(p)
        report["pieces"].append(
            {
                "K": K.to_json(),
                "K_rescaled": K_new.to_json(),
                "norm": a,
                "norm_rescaled_side": bnorm,
                "holds": abs(a - bnorm) <= REL_TOL * max(1.0, a),
            }
        )
    report["holds"] = report["holds_parent"] and all(x["holds"] for x in report["pieces"])
    if not report["holds"]:
        raise VerificationError("affine rescaling failed to reproduce the norms")
    return report


# -- reverse square function ---------------------------------------------------------


def _square_sum_moment(pieces: list[ModulatedStep], k_power: int) -> float:
    """integral of (sum |g_K|^2)^k over the modulus cells of the nonzero pieces."""
    if not pieces:
        return 0.0
    volumes, moduli = joint_cell_values(pieces)
    return fsum((volumes * (moduli**2).sum(axis=0) ** k_power).tolist())


def reverse_square_check(g: ModulatedStep, delta_exp: int, kappa_exp: int):
    """Instance ratio for the reverse square estimate plus its recursion.

    The ratio integral |g|^2k over integral (sum |g_K|^2)^k lower-bounds
    the 2k-th power of the best constant; the recursion inequality is
    checked with the narrow constant replaced by the certified ratios of
    the coarse pieces.
    """
    q, k = g.q, g.k
    if g.is_zero:
        raise ValueError("zero function has no reverse-square ratio")
    cfg = ScaleConfig(q, k, delta_exp, kappa_exp)
    pieces = freq_certificate(g, delta_exp)
    denom = _square_sum_moment(list(pieces.values()), k)
    numer = g.lp_norm(2 * k) ** (2 * k)
    ratio = numer / denom
    ceiling = float(q) ** (delta_exp * k)  # delta^-k, the trivial ceiling
    if ratio > ceiling * (1 + REL_TOL):
        raise VerificationError(f"reverse-square ratio {ratio} above trivial ceiling {ceiling}")

    coarse = g.freq_components(cfg.coarse_partition())
    live = _live_children(pieces, kappa_exp)
    narrow_ratios = []
    for I, g_i in coarse.items():
        d = _square_sum_moment([pieces[K] for K in live.get(I, ())], k)
        narrow_ratios.append(g_i.lp_norm(2 * k) ** (2 * k) / d)
    s_narrow = max(narrow_ratios, default=0.0)

    # direct transverse sum for the broad side of the dichotomy
    broad_sum = 0.0
    if len(coarse) >= k:
        volumes, moduli = joint_cell_values(list(coarse.values()))
        squares = moduli**2
        for tup in permutations(range(len(coarse)), k):
            broad_sum += fsum((volumes * squares[list(tup)].prod(axis=0)).tolist())
    count_bound = float(q) ** ((kappa_exp - 1) * k * (k - 1))
    broad_vs_square = count_bound * denom
    a1, a2 = _dichotomy_constants(k, float(cfg.kappa))
    recursion_rhs = a1 * s_narrow + a2 * count_bound
    report = {
        "ratio": ratio,
        "trivial_ceiling": ceiling,
        "narrow_instance_constant": s_narrow,
        "broad_transverse_integral": broad_sum,
        "broad_counted_bound": broad_vs_square,
        "broad_holds": broad_sum <= broad_vs_square * (1 + REL_TOL),
        "recursion_rhs": recursion_rhs,
        "recursion_holds": ratio <= recursion_rhs * (1 + REL_TOL),
    }
    if not (report["broad_holds"] and report["recursion_holds"]):
        raise VerificationError(f"reverse-square recursion failed: {report}")
    return report
