"""Wavepacket decomposition and three-stage dyadic pigeonholing.

A function whose transform lives in the curve box over K restricts to each
dual tile with constant modulus, and the restriction keeps its Fourier
support inside the box.  Pigeonholing splits a frequency-decomposed
function into buckets that are uniform in wavepacket height H, per-piece
packet count alpha, and per-parent sibling count beta, plus a small
remainder controlled in L^p.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil

from . import errors
from .errors import SupportError, VerificationError, check_budget
from .geometry import (
    INT64_LIMIT,
    Cube,
    Interval,
    Tile,
    _scaled,
    _tile_owners,
    theta_of,
    tile_of_point,  # noqa: F401  (unused here; perfbench's tracer wraps it in this namespace too)
    unit_interval,
)
from .qadic import QRational, QVector
from .stepfn import PRUNE_REL_TOL, REL_TOL, ModulatedStep, _cell_values

__all__ = [
    "ScaleConfig",
    "WavepacketSet",
    "PigeonholeBucket",
    "wavepacket_decompose",
    "pigeonhole",
    "freq_certificate",
    "verify_theta_support",
]


@dataclass(frozen=True)
class ScaleConfig:
    """The (delta, nu, kappa) scale triple used by the main inequalities.

    delta = q^-delta_exp is the fine scale, nu the intermediate scale
    (largest q-power at most delta^(1/k), derived from delta), kappa the
    coarse scale (``from_epsilon``: largest q-power at most delta^epsilon).
    """

    q: int
    k: int
    delta_exp: int
    kappa_exp: int

    @classmethod
    def from_epsilon(cls, q: int, k: int, delta_exp: int, epsilon) -> "ScaleConfig":
        epsilon = Fraction(epsilon)
        if not 0 < epsilon < 1:
            raise ValueError("epsilon must lie in (0, 1)")
        return cls(q, k, delta_exp, ceil(delta_exp * epsilon))

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"need a degree k >= 1, got k={self.k}")
        if self.delta_exp < 1:
            raise ValueError("need delta < 1")
        if not 1 <= self.kappa_exp <= self.delta_exp:
            raise ValueError("kappa must lie in [delta, 1/q]")

    @property
    def nu_exp(self) -> int:
        return -(-self.delta_exp // self.k)

    @property
    def nu(self) -> Fraction:
        return Fraction(1, self.q**self.nu_exp)

    @property
    def kappa(self) -> Fraction:
        return Fraction(1, self.q**self.kappa_exp)

    def fine_partition(self) -> list[Interval]:
        return unit_interval(self.q).partition(self.delta_exp)

    def coarse_partition(self) -> list[Interval]:
        return unit_interval(self.q).partition(self.kappa_exp)


def _support_witnesses(f: ModulatedStep, delta_exp: int) -> dict[Interval, Cube]:
    """Which fine intervals carry Fourier support, each with a witness cell.

    This is the one check of the hypothesis supp(FT f) inside the union of
    curve boxes, on f's one transform taken to the curve-box cube scale: on
    each transform cube, the terms whose modulations agree below that scale
    merge into one coefficient per cell, the one canonicalization would
    give.  Cells above the prune threshold, read as integer digit columns,
    are tested against the box over their interval; the first cell outside
    raises with the offender attached, a genuine violation because distinct
    canonical modulations on one cube are linearly independent characters.
    Returns the first cell over each interval, keyed in Interval.key order.
    """
    import numpy as np  # imported here so that importing momentlab does not load numpy

    q, k, m = f.q, f.k, delta_exp
    if f.is_zero:
        return {}
    hat = f.fourier()
    s = hat.scale_exp
    fine = max(s, m * k)
    groups: dict[tuple[Cube, QVector], list] = {}
    for c, b, cube in hat.terms:  # canonical terms are reduced at scale s already
        groups.setdefault((cube, b if fine == s else b.rep_mod(-fine)), []).append((c, b))
    side = q ** (fine - s)
    check_budget(len(groups) * side**k, errors.CELL_BUDGET, "certificate cells exceed the budget")
    # a lone character has modulus |c| on every cell; a cube of several goes through the kernel
    values = np.repeat([abs(parts[0][0]) for parts in groups.values()], side**k)
    for i, ((cube, rep), parts) in enumerate(groups.items()):
        if len(parts) > 1:
            values[i * side**k : (i + 1) * side**k] = np.abs(_cell_values(cube, [(c, b - rep) for c, b in parts], fine))
    counted = np.flatnonzero(values > values.max() * PRUNE_REL_TOL)
    # counted cell n is digit n % side^k, in subdivide order, of cube n // side^k; its corner
    # is cols[:, n] * q^L, and B(-a) cols stays below q^(mk + fine - L)
    ints, L = _scaled([x for cube, _ in groups for x in cube.corner] + [QRational(q, 1, min(s, 0))])
    dtype = np.int64 if q ** (m * k + fine - L) < INT64_LIMIT else object
    cols = list(np.array(ints[:-1], dtype=dtype).reshape(-1, k)[counted // side**k].T)
    for i in range(k if side > 1 else 0):  # a cell's digits within its cube step by q^(s - L)
        cols[i] = cols[i] + (counted // side ** (k - 1 - i) % side).astype(dtype) * q ** (s - L)

    def cell(n):  # only a witness or an offender becomes a Cube
        return Cube(QVector([QRational(q, int(x[n]), L) for x in cols]), fine)

    key = np.where(cols[0] % q**-L == 0, cols[0] // q**-L % q**m, -1)  # interval corner digits, -1 off Z_q
    inside = key >= 0
    witness = {}
    for a in sorted(set(key[inside].tolist())):
        run = np.flatnonzero(key == a)
        K = Interval(QRational(q, a), m)
        witness[K] = run[0]
        inside[run] = theta_of(K, k).contains([x[run] for x in cols], L)
    if not inside.all():
        n = int(inside.argmin())
        where = f"the curve box over {Interval(QRational(q, int(key[n])), m)}" if key[n] >= 0 else "the unit interval"
        raise SupportError(f"Fourier support leaves {where}", offending_cube=cell(n))
    return {K: cell(witness[K]) for K in sorted(witness, key=Interval.key)}


def freq_certificate(f: ModulatedStep, delta_exp: int) -> dict[Interval, ModulatedStep]:
    """f's nonzero pieces over the fine intervals at scale q^-delta_exp, in
    partition order, once supp(FT f) is checked to lie in their curve boxes."""
    _support_witnesses(f, delta_exp)
    return f.freq_components(unit_interval(f.q).partition(delta_exp))


def verify_theta_support(g: ModulatedStep, K: Interval) -> None:
    """Check supp(FT g) inside the curve box over K; raise otherwise."""
    for J, cell in _support_witnesses(g, K.scale_exp).items():
        if J != K:
            raise SupportError(f"Fourier support leaves the curve box over {K}", offending_cube=cell)


class WavepacketSet:
    """The tile decomposition of a single-box function."""

    def __init__(self, base_interval: Interval, packets: list[tuple[Tile, ModulatedStep]]):
        self.base_interval = base_interval
        self.packets = packets

    def reconstruct(self) -> ModulatedStep:
        if not self.packets:
            raise ValueError("empty wavepacket set has no ambient group data")
        q, k = self.packets[0][1].q, self.packets[0][1].k
        return ModulatedStep(q, k, [t for _, piece in self.packets for t in piece.terms])

    def heights(self) -> list[float]:
        """Constant modulus of each packet on its tile."""
        out = []
        for tile, piece in self.packets:
            out.append(abs(piece.evaluate(tile.offset_point())))
        return out

    def __len__(self) -> int:
        return len(self.packets)


def wavepacket_decompose(g: ModulatedStep, K: Interval) -> WavepacketSet:
    """Split g (Fourier supported in the curve box over K) along dual tiles.

    Exact: the pieces sum back to g, each has constant modulus on its
    tile, and each stays Fourier supported in the box.  g's terms are merged
    once at the tile scale, one ``_tile_owners`` pass over the distinct
    pieces finds their tiles, and each tile's share is finished on its own.
    """
    verify_theta_support(g, K)
    if g.is_zero:
        return WavepacketSet(K, [])
    scale = max(g.scale_exp, -K.scale_exp)
    slots = ModulatedStep._merge(g.q, g.terms, scale)
    pieces = {key: piece for (key, _), (_, _, piece) in slots.items()}
    tiles, owner = _tile_owners([p.corner if p.__class__ is Cube else p for p in pieces.values()], K)
    tile_of = dict(zip(pieces, owner))
    shares: list[list] = [[] for _ in tiles]
    for item in slots.items():
        shares[tile_of[item[0][0]]].append(item)
    packets = [(t, ModulatedStep.__new__(ModulatedStep)._finish(g.q, g.k, ts, scale)) for t, ts in zip(tiles, shares)]
    return WavepacketSet(K, [(t, p) for t, p in sorted(packets, key=lambda p: p[0].key()) if not p.is_zero])


def _check_split_budget(q: int, k: int, delta_exp: int) -> None:
    """Check, before an instance is drawn, its wavepacket split's subdivision of side q^(mk) cubes to side q^m."""
    check_budget(q ** (delta_exp * k * (k - 1)), errors.CELL_BUDGET,
                 "subdivision into {estimated} cubes exceeds the budget")


@dataclass
class PigeonholeBucket:
    """All wavepackets with height ~H, packet count ~alpha, sibling count ~beta:
    ``packets`` holds each as (K, tile, piece, height), the children in sibling
    order and each child's in tile order; no sum of them is built."""

    height_H: float
    packet_count_alpha: int
    sibling_count_beta: int
    packets: list[tuple[Interval, Tile, ModulatedStep, float]]

    def to_json(self) -> dict:
        tiles: dict[Interval, list[Tile]] = {}
        for K, tile, _, _ in self.packets:
            tiles.setdefault(K, []).append(tile)
        return {
            "H": self.height_H,
            "alpha": self.packet_count_alpha,
            "beta": self.sibling_count_beta,
            "packet_tiles": [
                {"interval": K.to_json(), "tiles": [t.to_json() for t in ts]}
                for K, ts in sorted(tiles.items(), key=lambda kv: kv[0].key())
            ],
        }


def _dyadic_class_down(value: float, top: float) -> int:
    """Index j >= 0 with value in (top/2^(j+1), top/2^j]; ties go down."""
    if value <= 0 or value > top:
        raise ValueError("value must lie in (0, top]")
    j = 0
    while value <= top / 2 ** (j + 1):
        j += 1
    return j


def _dyadic_class_up(count: int) -> int:
    """Smallest power of two at least count (count in (alpha/2, alpha])."""
    return 1 << (count - 1).bit_length()


def pigeonhole(
    f: ModulatedStep,
    cfg: ScaleConfig,
    p: int,
    height_floor_exponent: Fraction | None = None,
):
    """Three-stage dyadic pigeonholing of a frequency-decomposed function.

    Requires f spatially supported on one translate of the ball of radius
    delta^-k and Fourier supported in the union of curve boxes, which
    freq_certificate checks, then wavepacket_decompose per piece on the
    transform the piece was made from.  Each packet above the height floor
    goes, as (K, tile, piece, height) with its height from the one
    ``heights`` pass, into the bucket of its three classes.  One merge of
    every bucket's packets and the remainder against f checks that they
    add up to f.  Returns (buckets, remainder, report);
    ||remainder||_p <= (sum_K ||f_K||_p^2)^(1/2) is asserted.
    """
    q, k, m = cfg.q, cfg.k, cfg.delta_exp
    if height_floor_exponent is None:
        height_floor_exponent = 1 + Fraction(k * (k - 1), 2 * p)
    ball_scale = -m * k
    if not f.is_zero:
        anchors = {cube.corner.rep_mod(ball_scale) for cube in f.support_cubes()}
        if len(anchors) > 1:
            raise SupportError(
                "function is not supported on a single translate of the big ball"
            )

    pieces = freq_certificate(f, m)
    packets: dict[Interval, WavepacketSet] = {K: wavepacket_decompose(fK, K) for K, fK in pieces.items()}
    heights: dict[Interval, list[float]] = {K: ws.heights() for K, ws in packets.items()}
    h_star = max((max(hs, default=0.0) for hs in heights.values()), default=0.0)
    report = {
        "H_star": h_star,
        "height_floor_exponent": height_floor_exponent,
        "n_intervals": len(pieces),
    }

    floor = float(Fraction(q) ** (-m * height_floor_exponent)) * h_star
    max_h_classes = 0
    while h_star / 2 ** (max_h_classes + 1) > floor:
        max_h_classes += 1
    max_h_classes += 1

    # stage 1: heights; what falls below the floor is the remainder
    kept: dict[tuple[Interval, int], list[tuple[Interval, Tile, ModulatedStep, float]]] = {}
    low = []
    for K, ws in packets.items():
        for (tile, piece), h in zip(ws.packets, heights[K]):
            if h <= floor:
                low.extend(piece.terms)
            else:
                kept.setdefault((K, _dyadic_class_down(h, h_star)), []).append((K, tile, piece, h))
    remainder = ModulatedStep(q, k, low)

    # stage 2: packet counts per (K, H); stage 3: sibling counts within the nu-parent
    siblings: dict[tuple[int, int, Interval], list[Interval]] = {}
    for (K, j), items in kept.items():
        siblings.setdefault((j, _dyadic_class_up(len(items)), K.parent(cfg.nu_exp)), []).append(K)
    buckets: dict[tuple[int, int, int], list] = {}
    for (j, alpha, _), children in siblings.items():
        slot = buckets.setdefault((j, alpha, _dyadic_class_up(len(children))), [])
        for K in children:
            slot.extend(kept[(K, j)])
    out = [PigeonholeBucket(h_star / 2**j, alpha, beta, slot) for (j, alpha, beta), slot in sorted(buckets.items())]

    # closure checks: exact reconstruction and the remainder L^p bound
    parts = [t for b in out for _, _, piece, _ in b.packets for t in piece.terms]
    if not f._is_sum_of(parts + list(remainder.terms)):
        raise VerificationError("pigeonhole buckets plus remainder do not reconstruct f")
    if not remainder.is_zero:
        rhs = sum(fK.lp_norm(p) ** 2 for fK in pieces.values()) ** 0.5
        lhs = remainder.lp_norm(p)
        report["remainder_lp"] = lhs
        report["remainder_bound"] = rhs
        if lhs > rhs * (1 + REL_TOL):
            raise VerificationError(
                f"remainder bound violated: {lhs} > {rhs}"
            )
    else:
        report["remainder_lp"] = 0.0
        report["remainder_bound"] = 0.0

    # bucket count is cubically logarithmic in 1/delta
    max_alpha = q ** (m * k * (k - 1) // 2)
    max_beta = q ** (m - cfg.nu_exp)
    n_alpha_classes = max_alpha.bit_length() + 1
    n_beta_classes = max_beta.bit_length() + 1
    report["n_buckets"] = len(out)
    report["class_bound"] = max_h_classes * n_alpha_classes * n_beta_classes
    if len(out) > report["class_bound"]:
        raise VerificationError("bucket count exceeds its logarithmic-cube bound")
    return out, remainder, report
