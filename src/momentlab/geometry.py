"""Intervals, cubes, moment-curve geometry, and the dual tilings.

Regions are cosets of digit subgroups, so "disjoint or identical" is
decidable by comparing canonical corners: an interval is corner + q^m Z_q
with the corner's digits all below position m.  The anisotropic boxes
along the moment curve and their dual tiles are represented by an anchor
plus exact membership predicates; their cube decompositions are
materialized only on demand.

One integer matrix carries the whole moment-curve frame: the binomial
frame B(a), with B(a)[i][j] = C(i, j) a^(i-j), satisfies
gamma(a + t) = gamma(a) + B(a) gamma(t) and B(a) B(b) = B(a + b).  The
tangent frame M_a = B(a) diag(1!, ..., k!) defines the curve boxes and
their dual tiles, M_a^(-1) = diag(1/j!) B(-a) decides box membership, and
B(a), B(-a) rescale a piece over an interval back to the unit interval.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import product
from math import comb, factorial

from . import errors
from .errors import check_budget
from .qadic import QRational, QVector

__all__ = [
    "Interval",
    "Cube",
    "ThetaBox",
    "Tile",
    "gamma",
    "binomial_frame",
    "tangent_frame",
    "frame_apply",
    "unit_interval",
    "ball",
    "theta_of",
    "tau_of",
    "theta_diff_decompose",
    "tile_partition",
    "tile_of_point",
    "interval_distance",
]

INT64_LIMIT = 2**63  # integer columns whose values stay below this can be int64


def _is_canonical(x: QRational, scale_exp: int) -> bool:
    """Whether x == x.rep_mod(scale_exp): zero, or all digits below scale_exp."""
    return not x.unit or (x.valuation < scale_exp and 0 < x.unit < x.q ** (scale_exp - x.valuation))


def _json_int(obj: dict, name: str) -> int:
    """obj[name], which must be a JSON integer: a bool, a float or a string is refused."""
    value = obj[name]
    if type(value) is not int:
        raise ValueError(f"{name} must be a JSON integer, got {value!r}")
    return value


def _axis_corners(corner: QRational, scale_exp: int, n: int) -> list[QRational]:
    """corner + t * q^scale_exp for t in range(n), on ints at the lower valuation."""
    q, low = corner.q, min(corner.valuation, scale_exp)
    base, step = corner.unit * q ** (corner.valuation - low), q ** (scale_exp - low)
    return [QRational(q, base + t * step, low) for t in range(n)]


class Interval:
    """corner + q^scale_exp * Z_q, an interval of length q^(-scale_exp)."""

    __slots__ = ("q", "corner", "scale_exp")

    def __init__(self, corner: QRational, scale_exp: int):
        if not _is_canonical(corner, scale_exp):
            raise ValueError(f"corner {corner} not canonical at scale {scale_exp}")
        object.__setattr__(self, "q", corner.q)
        object.__setattr__(self, "corner", corner)
        object.__setattr__(self, "scale_exp", scale_exp)

    def __setattr__(self, name, value):
        raise AttributeError("Interval is immutable")

    @classmethod
    def containing(cls, x: QRational, scale_exp: int) -> "Interval":
        """The unique interval of length q^-scale_exp containing x."""
        return cls(x.rep_mod(scale_exp), scale_exp)

    @property
    def length(self) -> Fraction:
        m = self.scale_exp
        return Fraction(1, self.q**m) if m >= 0 else Fraction(self.q ** (-m))

    def contains(self, x: QRational) -> bool:
        d = x - self.corner
        return d.is_zero or d.valuation >= self.scale_exp

    def contains_interval(self, other: "Interval") -> bool:
        return other.scale_exp >= self.scale_exp and self.contains(other.corner)

    def partition(self, scale_exp: int) -> list["Interval"]:
        """Split into intervals of length q^-scale_exp: corners c + t q^m for t = 0, 1, ..., on ints."""
        if scale_exp < self.scale_exp:
            raise ValueError(
                f"cannot partition length {self.length} interval at coarser scale {scale_exp}"
            )
        n = self.q ** (scale_exp - self.scale_exp)
        check_budget(n, errors.CELL_BUDGET, "partition into {estimated} intervals exceeds the budget")
        return [Interval(c, scale_exp) for c in _axis_corners(self.corner, self.scale_exp, n)]

    def parent(self, scale_exp: int) -> "Interval":
        if scale_exp > self.scale_exp:
            raise ValueError("parent must be coarser")
        return Interval(self.corner.rep_mod(scale_exp), scale_exp)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Interval):
            return NotImplemented
        return self.corner == other.corner and self.scale_exp == other.scale_exp

    def __hash__(self):
        return hash((self.corner, self.scale_exp))

    def key(self):
        return (self.scale_exp, self.corner.key())

    def __repr__(self) -> str:
        return f"I({self.corner.to_text()}; len {self.q}^-{self.scale_exp})"

    def to_json(self) -> dict:
        return {"corner": self.corner.to_text(), "scale_exp": self.scale_exp}

    @classmethod
    def from_json(cls, q: int, obj: dict) -> "Interval":
        return cls(QRational.from_text(q, obj["corner"]), _json_int(obj, "scale_exp"))


def unit_interval(q: int) -> Interval:
    """The ring of integers Z_q as an interval."""
    return Interval(QRational(q, 0), 0)


def interval_distance(a: Interval, b: Interval) -> Fraction:
    """Distance between two intervals of a common length.

    For distinct same-length intervals every cross pair of points is at
    the same distance |corner_a - corner_b|, which is at least q times
    the common length.
    """
    return (a.corner - b.corner).qnorm()


class Cube:
    """corner + q^scale_exp * Z_q^k, a cube of side q^(-scale_exp); its key and hash are kept from first use."""

    __slots__ = ("q", "corner", "scale_exp", "_key", "_hash")

    def __init__(self, corner: QVector, scale_exp: int):
        for c in corner.coords:
            if not _is_canonical(c, scale_exp):
                raise ValueError(f"corner {corner} not canonical at scale {scale_exp}")
        object.__setattr__(self, "q", corner.q)
        object.__setattr__(self, "corner", corner)
        object.__setattr__(self, "scale_exp", scale_exp)

    def __setattr__(self, name, value):
        raise AttributeError("Cube is immutable")

    @classmethod
    def containing(cls, x: QVector, scale_exp: int) -> "Cube":
        return cls(x.rep_mod(scale_exp), scale_exp)

    @property
    def k(self) -> int:
        return self.corner.k

    @property
    def side(self) -> Fraction:
        m = self.scale_exp
        return Fraction(1, self.q**m) if m >= 0 else Fraction(self.q ** (-m))

    @property
    def volume(self) -> Fraction:
        return self.side**self.k

    def contains(self, x: QVector) -> bool:
        for xi, ci in zip(x, self.corner, strict=True):
            d = xi - ci
            if not (d.is_zero or d.valuation >= self.scale_exp):
                return False
        return True

    def subdivide(self, scale_exp: int) -> list["Cube"]:
        """All subcubes of side q^-scale_exp, in lexicographic digit order:
        the product of ``axis_corners``.  At the cube's own scale that is [self]."""
        if scale_exp == self.scale_exp:
            return [self]
        return [Cube(QVector(corner), scale_exp) for corner in product(*self.axis_corners(scale_exp))]

    def axis_corners(self, scale_exp: int) -> list[list[QRational]]:
        """Per axis, the corners of ``Interval.partition`` at scale_exp, on
        ints; their product, in order, is the corners of ``subdivide``."""
        if scale_exp < self.scale_exp:
            raise ValueError("cannot subdivide at a coarser scale")
        per_axis = self.q ** (scale_exp - self.scale_exp)
        check_budget(per_axis**self.k, errors.CELL_BUDGET, "subdivision into {estimated} cubes exceeds the budget")
        return [_axis_corners(c, self.scale_exp, per_axis) for c in self.corner]

    def translate(self, v: QVector) -> "Cube":
        return Cube((self.corner + v).rep_mod(self.scale_exp), self.scale_exp)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Cube):
            return NotImplemented
        return self.corner == other.corner and self.scale_exp == other.scale_exp

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash(self.key()))
            return self._hash

    def key(self) -> tuple:
        try:
            return self._key
        except AttributeError:
            object.__setattr__(self, "_key", (self.scale_exp, self.corner.key()))
            return self._key

    def __repr__(self) -> str:
        return f"Cube({self.corner!r}; side {self.q}^-{self.scale_exp})"

    def to_json(self) -> dict:
        return {
            "corner": [c.to_text() for c in self.corner],
            "scale_exp": self.scale_exp,
        }

    @classmethod
    def from_json(cls, q: int, obj: dict) -> "Cube":
        return cls(QVector.from_text(q, obj["corner"]), _json_int(obj, "scale_exp"))


def ball(q: int, k: int, radius_exp: int) -> Cube:
    """The cube {|x| <= q^radius_exp} centered at 0."""
    return Cube(QVector.zero(q, k), -radius_exp)


def gamma(a: QRational, k: int) -> QVector:
    """Moment curve point (a, a^2, ..., a^k); requires |a| <= 1."""
    if a.qnorm() > 1:
        raise ValueError(f"moment curve parameter must satisfy |a| <= 1, got |{a}| = {a.qnorm()}")
    return QVector([a**j for j in range(1, k + 1)])


def _scaled(values) -> tuple[list[int], int]:
    """Integers n_i and the least valuation L with values[i] = n_i * q^L."""
    L = min((c.valuation for c in values if c.unit), default=0)
    return [c.unit * c.q ** (c.valuation - L) if c.unit else 0 for c in values], L


def _matvec(rows, n, transpose: bool = False) -> list:
    """rows . n, or rows^T . n, for a lower-triangular integer matrix.

    n holds ints, or integer numpy columns for a whole lattice of points at
    once; the frame kernels built on it inherit that.
    """
    out = [0] * len(n)
    for i, row in enumerate(rows):
        for j in range(i + 1):
            if transpose:
                out[j] += row[j] * n[i]
            else:
                out[i] += row[j] * n[j]
    return out


def frame_apply(rows, v: QVector, transpose: bool = False) -> QVector:
    """rows . v (or rows^T . v) for a lower-triangular integer matrix, exactly.

    Works on the integer coordinates of v at its least valuation, so the
    product stays in int arithmetic.
    """
    n, L = _scaled(v)
    return QVector([QRational(v.q, y, L) for y in _matvec(rows, n, transpose)])


def binomial_frame(a: int, k: int) -> tuple[tuple[int, ...], ...]:
    """B(a): entry (i, j) is C(i, j) * a^(i-j) for 1 <= j <= i <= k, else 0.

    gamma(a + t) = gamma(a) + B(a) gamma(t) and B(a) B(b) = B(a + b), so
    B(-a) is the exact inverse of B(a).
    """
    return tuple(
        tuple(comb(i, j) * a ** (i - j) if i >= j else 0 for j in range(1, k + 1))
        for i in range(1, k + 1)
    )


def _frame_anchor(a: QRational, k: int) -> int:
    """The integer anchor of a unimodular frame: needs |a| <= 1 and q > k."""
    if a.qnorm() > 1:
        raise ValueError("anchor must satisfy |a| <= 1")
    if a.q <= k:
        raise ValueError(f"need q > k for a unimodular frame, got q={a.q}, k={k}")
    return int(a.to_fraction())


@cache
def tangent_frame(a: QRational, k: int) -> tuple[tuple[int, ...], ...]:
    """The integer rows of M_a = B(a) diag(1!, ..., k!), whose columns are the curve derivatives.

    With |a| <= 1 the anchor is an integer, and so is every entry
    perm(i, j) * a^(i-j).  With q > k the determinant has norm 1, so the
    matrix maps cubes of any side bijectively onto cubes of the same side.
    Memoized per (a, k): every tile over one base interval shares its frame.
    """
    return tuple(
        tuple(b * factorial(j) for j, b in enumerate(row, 1))
        for row in binomial_frame(_frame_anchor(a, k), k)
    )


class ThetaBox:
    """The anisotropic box of dimensions d, d^2, ..., d^k along the curve.

    Anchored at a point of the base interval; membership is independent of
    which anchor is used.  As a set it is gamma(anchor) + M_a(theta group),
    where the group is the product of the balls of radii d^j.  Since
    M_a^(-1) = diag(1/j!) B(-a) and every j! is a unit when q > k, the
    group coordinates of w have the norms of B(-a) w.
    """

    __slots__ = ("q", "k", "scale_exp", "_gamma", "_inverse")

    def __init__(self, anchor: QRational, scale_exp: int, k: int):
        a = _frame_anchor(anchor, k)
        object.__setattr__(self, "q", anchor.q)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "scale_exp", scale_exp)
        object.__setattr__(self, "_gamma", tuple(a**j for j in range(1, k + 1)))
        object.__setattr__(self, "_inverse", binomial_frame(-a, k))

    def __setattr__(self, name, value):
        raise AttributeError("ThetaBox is immutable")

    def _group_member(self, w, L: int):
        """Whether w * q^L lies in the group box (a mask for columns)."""
        # |t_j| = |(B(-a) w)_j| * q^-L
        q, m = self.q, self.scale_exp
        inside = True
        for j, y in enumerate(_matvec(self._inverse, w)):
            e = m * (j + 1) - L
            if e > 0:
                inside = inside & (y % q**e == 0)
        return inside

    def contains(self, xi, L: int | None = None):
        """Whether xi lies in the box: a QVector, or integer columns of points
        xi * q^L with L <= 0, for a mask (True where the box tests no digit)."""
        if L is None:  # the appended 1 keeps L <= 0; zip drops its column
            xi, L = _scaled((*xi, QRational(self.q, 1)))
        shift = self.q**-L
        return self._group_member([x - g * shift for x, g in zip(xi, self._gamma)], L)


@cache
def theta_of(K: Interval, k: int) -> ThetaBox:
    """The curve box over a base interval inside the unit interval, memoized like its frame."""
    if K.scale_exp < 0:
        raise ValueError("base interval must lie inside the unit interval")
    return ThetaBox(K.corner, K.scale_exp, k)


def tau_of(K: Interval, k: int) -> Cube:
    """The enclosing cube of side |K| around the curve point of K."""
    g = gamma(K.corner, k)
    return Cube(g.rep_mod(K.scale_exp), K.scale_exp)


def theta_diff_decompose(K: Interval, k: int) -> list[Cube]:
    """The centered box theta_K - theta_K as disjoint cubes of side d^k.

    Exactly d^(-k(k-1)/2) cubes: the group box (product of balls of radii
    d^j) splits coordinatewise into the integer points t_j in q^(mj) Z
    below q^(mk), and the unimodular frame matrix maps each piece to the
    cube of the same side at M t mod q^(mk).
    """
    q, m = K.q, K.scale_exp
    check_budget(q ** (m * k * (k - 1) // 2), errors.CELL_BUDGET,
                 "difference box of {estimated} cubes exceeds the budget")
    entries = tangent_frame(K.corner, k)
    modulus = q ** (m * k)
    axes = [range(0, modulus, q ** (m * j)) for j in range(1, k + 1)]
    return [Cube(QVector.from_ints(q, _diff_corners(entries, t, modulus)), m * k) for t in product(*axes)]


def _diff_corners(rows, t, modulus: int) -> list:
    """Corner M t mod q^(mk) of the difference cube at group point t."""
    return [y % modulus for y in _matvec(rows, t)]


class Tile:
    """A translate of the dual box of theta_K; the spatial wavepacket atom.

    Stored through its dual-side corner w: the tile is
    {x : M_a^T x  in  w + T-group}, where the T-group is the product of the
    balls of radii d^-j.  The canonical w (digits below position -m*j in
    coordinate j) identifies the coset, so tiles compare by (K, w).
    """

    __slots__ = ("q", "k", "base_interval", "dual_corner")

    def __init__(self, base_interval: Interval, dual_corner: QVector):
        k = dual_corner.k
        m = base_interval.scale_exp
        # canonical: zero, or digits only at positions below -m*(j+1)
        for j, w in enumerate(dual_corner):
            if not _is_canonical(w, -m * (j + 1)):
                raise ValueError("dual corner not canonical for this base interval")
        object.__setattr__(self, "q", base_interval.q)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "base_interval", base_interval)
        object.__setattr__(self, "dual_corner", dual_corner)

    def __setattr__(self, name, value):
        raise AttributeError("Tile is immutable")

    @property
    def volume(self) -> Fraction:
        m = self.base_interval.scale_exp
        return Fraction(self.q) ** (m * self.k * (self.k + 1) // 2)

    def contains(self, x: QVector) -> bool:
        return tile_of_point(x, self.base_interval) == self

    def offset_point(self) -> QVector:
        """A point of the tile with coordinates in Z[1/q]: M^T x = w modulo the dual group."""
        n, L = _scaled(self.dual_corner)
        rows = tangent_frame(self.base_interval.corner, self.k)
        x = _offset_digits(rows, n, L, self.base_interval.scale_exp, self.q)
        return QVector([QRational(self.q, xj, L) for xj in x])

    def sample_points(self, count: int = 8) -> list[QVector]:
        """A few lattice points of the tile: the offset plus small shifts.

        Shifts run over the cubic lattice of step q^-m inside the ball of
        radius q^m, which the tile's group contains.
        """
        q, k, m = self.q, self.k, self.base_interval.scale_exp
        base = self.offset_point()
        span = q ** (2 * m) if m > 0 else q
        out = []
        for t in range(count):
            digits = []
            tt = t
            for _ in range(k):
                digits.append(tt % span)
                tt //= span
            shift = QVector([QRational(q, d, -m) for d in digits])
            out.append(base + shift)
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tile):
            return NotImplemented
        return self.base_interval == other.base_interval and self.dual_corner == other.dual_corner

    def __hash__(self):
        return hash((self.base_interval, self.dual_corner))

    def key(self):
        return (self.base_interval.key(), self.dual_corner.key())

    def __repr__(self) -> str:
        return f"Tile(K={self.base_interval!r}, w={self.dual_corner!r})"

    def to_json(self) -> dict:
        return {
            "base_interval": self.base_interval.to_json(),
            "dual_corner": [c.to_text() for c in self.dual_corner],
        }


def _offset_digits(rows, n, L: int, m: int, q: int) -> list:
    """x with M^T x = n modulo the dual group of scale m, all at scale L.

    Back substitution, inverting the factorial diagonal modulo the
    precision each axis needs.
    """
    k = len(n)
    x = [0] * k
    for j in range(k - 1, -1, -1):
        e = -m * (j + 1) - L
        if e > 0:
            r = n[j] - sum(x[i] * rows[i][j] for i in range(j + 1, k))
            x[j] = r * pow(rows[j][j], -1, q**e) % q**e
    return x


def _owner_digits(rows, n, L: int, m: int, q: int) -> list:
    """Dual-corner digits, at scale L, of the tile of scale m holding n * q^L.

    Coordinate j keeps the digits of (M^T n)_j * q^L below position -m(j+1).
    """
    digits = []
    for j, y in enumerate(_matvec(rows, n, transpose=True)):
        e = -m * (j + 1) - L
        digits.append(y % q**e if e > 0 else y * 0)
    return digits


def tile_of_point(x: QVector, K: Interval) -> Tile:
    """The unique tile over K containing x."""
    n, L = _scaled(x)
    w = _owner_digits(tangent_frame(K.corner, x.k), n, L, K.scale_exp, x.q)
    return Tile(K, QVector([QRational(x.q, d, L) for d in w]))


def _tile_owners(points, K: Interval) -> tuple[list[Tile], list[int]]:
    """``tile_of_point`` for many points (``QVector``s or coordinate tuples), from one ``_owner_digits`` pass on
    integer columns: the distinct tiles, one ``Tile`` each in order of first appearance, and each point's index."""
    import numpy as np  # imported here so that importing momentlab does not load numpy

    q, k, m = K.q, len(points[0]), K.scale_exp
    rows = tangent_frame(K.corner, k)
    ints, L = _scaled([x for point in points for x in point])
    # |M^T n| <= k * max|entry| * max|n|, and every modulus q^e is at most q^-L
    bound = k * max(abs(e) for row in rows for e in row) * max(max(map(abs, ints)), q ** max(-L, 0))
    cols = list(np.array(ints, dtype=np.int64 if bound < INT64_LIMIT else object).reshape(-1, k).T)
    first: dict[tuple, int] = {}
    index = [first.setdefault(w, len(first)) for w in zip(*[y.tolist() for y in _owner_digits(rows, cols, L, m, q)])]
    return [Tile(K, QVector([QRational(q, d, L) for d in w])) for w in first], index


def tile_partition(Q: Cube, K: Interval) -> list[Tile]:
    """Partition a cube of side d^-k into tiles over K.

    Exactly d^(-k(k-1)/2) tiles; enumerated through dual-side coset
    representatives, so the construction is exact and deterministic.
    """
    q, k, m = Q.q, Q.k, K.scale_exp
    if Q.scale_exp != -m * k:
        raise ValueError(
            f"tile partition needs a cube of side q^{m * k}, got side exponent {-Q.scale_exp}"
        )
    check_budget(q ** (m * k * (k - 1) // 2), errors.CELL_BUDGET,
                 "tile partition into {estimated} tiles exceeds the budget")
    # scale jointly with the side q^(mk), so that shifts by it are integers
    n, L = _scaled((*Q.corner, QRational(q, 1, -m * k)))
    step = q ** (-m * k - L)
    axis_reps = [
        sorted(_axis_corners(QRational(q, y % step, L), -m * k, q ** (m * (k - j))), key=QRational.key)
        for j, y in enumerate(_matvec(tangent_frame(K.corner, k), n[:k], transpose=True), 1)
    ]
    return [Tile(K, QVector(w)) for w in product(*axis_reps)]
