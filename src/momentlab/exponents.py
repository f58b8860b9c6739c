"""Exponent bookkeeping for the p-iteration bound.

The headline estimate for the decoupling constant at even p reachable
from a base exponent p0 in steps of 2k reads

    q^(a(p, p0)/p) * delta^-( (1/2 - k(k+1)/(2p)) + (c0/p)(1-1/k)^(p/(2k)) + eps )

with a(p, p0) an explicit quadratic.  Everything rational is kept exact;
only (1-1/k)^(p/(2k)) with fractional exponent forces floating point
(tolerance 1e-12 documented for those comparisons).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, log

from .errors import VerificationError

__all__ = [
    "ExponentParams",
    "BoundTrajectory",
    "a_coeff",
    "a_coeff_recurrence",
    "corollary_q_exponent",
    "b_func",
    "b_monotone_check",
    "positivity_hypothesis",
    "supercritical_slack",
    "theorem_exponent",
    "bdg_sharp_exponent",
    "rung",
    "iterate_D_bound",
]

FLOAT_TOL = 1e-12


def _decay(k: int, p) -> float:
    """(1 - 1/k)^(p/(2k)); rational only when 2k divides p."""
    return float(Fraction(k - 1, k)) ** (float(p) / (2 * k))


def _check_lattice(p: int, p0: int, k: int) -> None:
    if p < p0 or (p - p0) % (2 * k) != 0:
        raise ValueError(f"p = {p} is not reachable from p0 = {p0} in steps of 2k = {2 * k}")


def a_coeff(p: int, p0: int, k: int) -> Fraction:
    """The exact q-exponent numerator a(p, p0)."""
    _check_lattice(p, p0, k)
    steps = Fraction(p - p0, 2 * k)
    return steps * (Fraction(p0, 2) + Fraction(k * k + 7 * k - 4, 2)) + Fraction(k, 2) * steps * (
        steps + 1
    )


def a_coeff_recurrence(p: int, p0: int, k: int) -> Fraction:
    """Same value built from a(p0,p0) = 0 and the step relation
    a(p) = a(p-2k) + p/2 + (k^2+7k-4)/2."""
    _check_lattice(p, p0, k)
    value = Fraction(0)
    cur = p0
    while cur < p:
        cur += 2 * k
        value += Fraction(cur, 2) + Fraction(k * k + 7 * k - 4, 2)
    return value


def corollary_q_exponent(p: int, k: int) -> Fraction:
    """a(p, 2k)/p, asserted equal to its expanded closed form."""
    if p % (2 * k) != 0 or p < 2 * k:
        raise ValueError(f"p = {p} must be a positive multiple of 2k = {2 * k}")
    via_a = a_coeff(p, 2 * k, k) / p
    closed = (Fraction(1, 2 * k) - Fraction(1, p)) * Fraction(k * k + 9 * k - 4, 2) + Fraction(
        1, 4
    ) * (Fraction(p, 2 * k) - 1)
    if via_a != closed:
        raise VerificationError(f"q-exponent forms disagree: {via_a} != {closed}")
    return via_a


def b_func(p, k: int, c0) -> float:
    """(p - k(k+1)) (1-1/k)^(-p/(2k)) + 2 c0, increasing on [2, inf)."""
    return (float(p) - k * (k + 1)) * float(Fraction(k - 1, k)) ** (-float(p) / (2 * k)) + 2.0 * float(
        c0
    )


def b_monotone_check(k: int, c0, p_lo=2, p_hi=100, step=Fraction(1, 4)) -> bool:
    """Grid check that b is nondecreasing (consequence of its derivative bound)."""
    p = Fraction(p_lo)
    prev = b_func(p, k, c0)
    while p < p_hi:
        p += Fraction(step)
        cur = b_func(p, k, c0)
        if cur < prev - FLOAT_TOL * max(1.0, abs(prev)):
            return False
        prev = cur
    return True


def positivity_hypothesis(k: int, p0: int, c0) -> bool:
    """1/2 - k(k+1)/(2 p0) + (c0/p0)(1-1/k)^(p0/(2k)) >= 0."""
    value = 0.5 - k * (k + 1) / (2.0 * p0) + float(c0) / p0 * _decay(k, p0)
    return value >= -FLOAT_TOL


def supercritical_slack(k: int, c0, p) -> float:
    """p/2 - k(k+1)/2 + c0 (1-1/k)^(p/(2k)), nonnegative for p >= p0 under
    the positivity hypothesis."""
    return float(p) / 2 - k * (k + 1) / 2.0 + float(c0) * _decay(k, p)


@dataclass(frozen=True)
class ExponentParams:
    """Parameters of the iteration: degree, base exponent, base constant."""

    k: int
    p0: int
    c0: Fraction
    epsilon: Fraction = Fraction(1, 100)

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("need k >= 2")
        if self.p0 % 2 != 0 or self.p0 < 2:
            raise ValueError("p0 must be an even integer >= 2")
        if not 0 < self.epsilon < 1:
            raise ValueError("epsilon must lie in (0, 1)")
        if Fraction(self.c0) < 0:
            raise ValueError("c0 must be nonnegative")
        if not positivity_hypothesis(self.k, self.p0, self.c0):
            raise ValueError("parameters violate the base positivity constraint; no admissible bound")


def theorem_exponent(params: ExponentParams, p: int):
    """The claimed (delta_exponent, q_exponent) at Lebesgue exponent p.

    delta_exponent is the (negative) power of delta including the epsilon
    loss; q_exponent is the exact rational a(p, p0)/p.
    """
    k, p0, c0 = params.k, params.p0, Fraction(params.c0)
    _check_lattice(p, p0, k)
    q_exp = a_coeff(p, p0, k) / p
    if p % (2 * k) == 0:  # the decay is rational: one ratio of ints, rounded once by int true division
        e = p // (2 * k)
        den = c0.denominator * k**e  # 1/2 - k(k+1)/2p + c0/p ((k-1)/k)^e over 2p den
        magnitude = ((p - k * (k + 1)) * den + 2 * c0.numerator * (k - 1) ** e) / (2 * p * den)
    else:
        magnitude = float(Fraction(1, 2) - Fraction(k * (k + 1), 2 * p)) + float(c0) / p * _decay(k, p)
    return {
        "p": p,
        "delta_exponent": -magnitude - float(params.epsilon),
        "delta_exponent_no_eps": -magnitude,
        "q_exponent": q_exp,
        "epsilon": params.epsilon,
    }


def bdg_sharp_exponent(k: int, p: int) -> float:
    """The sharp supercritical delta-exponent max(0, 1/2 - k(k+1)/(2p))."""
    return max(0.0, 0.5 - k * (k + 1) / (2.0 * p))


@dataclass
class BoundTrajectory:
    """Per-rung record of the numeric unroll of the iteration."""

    params: ExponentParams
    p: int
    steps: list[dict] = field(default_factory=list)
    final_delta_exponent: float = 0.0
    final_q_exponent: Fraction = Fraction(0)
    constants: list[str] = field(default_factory=list)


def rung(k, p, T, loss):
    """The counted branch T(p) fed by T = T(p - 2k), plus a loss; exact when
    k and p are Fractions.  With no loss it is Karatsuba's step as well."""
    return loss + (p / 2 + k * (k - 3) / 2) / k + (1 - 1 / k) * T


def iteration_count(epsilon: Fraction) -> int:
    """Least M with (1-eps)^M <= eps."""
    eps = float(epsilon)
    return max(1, ceil(log(1.0 / eps) / log(1.0 / (1.0 - eps))))


def iterate_D_bound(params: ExponentParams, p: int) -> BoundTrajectory:
    """Numerically unroll the induction from p0 up to p.

    Each rung inherits the previous rung's delta-exponent T(p') for the
    p'-th power of the constant, runs the two-branch scale iteration M
    times, and takes the worse branch.  Unspecified constants stay
    symbolic in the ``constants`` list; exponents are what is tracked.
    """
    k, p0, c0, eps = params.k, params.p0, Fraction(params.c0), Fraction(params.epsilon)
    _check_lattice(p, p0, k)
    M = iteration_count(eps)
    epsf = float(eps)
    base_T = supercritical_slack(k, c0, p0)
    if base_T < -FLOAT_TOL:
        raise ValueError("base bound has negative exponent; hypothesis violated")
    traj = BoundTrajectory(params=params, p=p)
    traj.constants = ["C1", f"C(k,p)^M with M={M}", "(log 1/delta)^(3Mp)"]
    T_prev = base_T
    traj.steps.append(
        {
            "p": p0,
            "T": base_T,
            "per_Lp_delta_exponent": base_T / p0,
            "q_exponent": Fraction(0),
            "M": 0,
            "branch": "base",
        }
    )
    cur = p0
    while cur < p:
        cur += 2 * k
        slack = supercritical_slack(k, c0, cur)
        if slack < -FLOAT_TOL:
            raise VerificationError(f"positivity fails at p = {cur}; iteration inadmissible")
        counted = rung(k, cur, T_prev, (k * k + 4 * k - 2) * epsf)
        # trivial cap after M rounds of replacing delta by delta^(1-eps)
        trivial_cap = (1.0 - epsf) ** M * cur / 2.0
        T_cur = max(trivial_cap, counted)
        traj.steps.append(
            {
                "p": cur,
                "T": T_cur,
                "per_Lp_delta_exponent": T_cur / cur,
                "target_no_eps": slack / cur,
                "counted_branch": counted,
                "trivial_branch": trivial_cap,
                "branch": "counted" if counted >= trivial_cap else "trivial-cap",
                "q_exponent": a_coeff(cur, p0, k),
                "M": M,
            }
        )
        T_prev = T_cur
        cur_slack = T_cur - slack
        if cur_slack < -FLOAT_TOL:
            raise VerificationError(
                f"unrolled exponent beats the claimed bound at p = {cur}; bookkeeping error"
            )
    traj.final_delta_exponent = -T_prev / p
    traj.final_q_exponent = a_coeff(p, p0, k) / p
    return traj
