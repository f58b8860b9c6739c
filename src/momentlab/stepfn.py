"""Exact calculus for modulated step functions on Q_q^k.

A function is a finite sum of terms ``coeff * chi(b . x) * 1_Q(x)`` with Q
a cube.  The class is closed under sums, products, conjugation, Fourier
transform and convolution, all computed term by term in closed form.

Two evaluation layers coexist: support and cube bookkeeping is exact
(canonical corners, exact character angles), while coefficients are
floating complex numbers.  Norms and integrals are therefore exact up to
float rounding; the documented tolerance for comparisons is REL_TOL.

Moduli are computed in one place.  One planner, ``joint_cell_values``,
decides the cells on which several functions have constant modulus; one
numpy kernel, ``_cell_values``, gives a cube's values on its cells by one
inverse DFT.  ``lp_norm``, the square-function checks and the broad-narrow
dichotomy all read |f| from the planner and sum it in one numpy reduction.
The oracles, sharing no code with either, are the symbolic ``evaluate``
and ``quotient_dft.evaluate_on_grid``.

Frequency restriction also has one path: ``freq_components`` splits f over
a partition of the first frequency coordinate with f's one transform, which
``fourier`` keeps, and returns only the nonzero pieces, each with its own.

Canonical form: all cubes at one common scale, at most one term per
(cube, modulation) pair with modulations reduced to canonical digit
representatives (so a modulation that is constant on its cube is absorbed
into the coefficient), and coefficients below a relative threshold pruned.
It is built in two halves on integer keys.  ``_merge`` reduces each
distinct modulation once (one already canonical is kept, with the phase
1 + 0j that chi(0) would give; otherwise its drift b - rep is integers at
one valuation), splits each distinct cube once per axis (the product of
the per-axis corners gives each piece's key and integer corner, so a drift
phase is one integer numerator over a power of q, evaluated by
``qadic._char_at``, chi's one evaluation), and adds into one slot per
(piece key, rep key).  ``_finish`` prunes one part's slots against that
part's own largest coefficient, compacts sibling families on the integer
parent digits read off the sort key, sorts, and builds a ``Cube`` only for
a surviving piece.  The constructor finishes the merge of its terms as one
part; a splitter (``freq_components``, ``wavepackets.wavepacket_decompose``)
merges its input once and finishes each part from its share of the slots.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product, repeat
from math import inf, isfinite
from operator import itemgetter, mul

from . import errors
from .errors import check_budget
from .geometry import Cube, Interval, _is_canonical, _json_int, _scaled
from .qadic import QRational, QVector, _char_at, char_value

__all__ = ["ModulatedStep", "joint_cell_values"]

REL_TOL = 1e-9  # relative tolerance of every float comparison of a check
PRUNE_REL_TOL = 1e-12


def _phase(b: QVector, point: QVector) -> complex:
    return char_value(b.dot(point))


def _reduce(b: QVector, scale: int):
    """(rep, rep.key(), drift): rep = b.rep_mod(-scale), drift = b - rep as
    (integers, valuation), or None if b is canonical (then rep is b)."""
    top = -scale
    if all(_is_canonical(x, top) for x in b.coords):
        return b, b.key(), None
    X, d = _scaled(b.coords)
    n = b.q ** max(top - d, 0)  # rep keeps the digits of X below position top - d
    rep = QVector([QRational(b.q, x % n, d) for x in X])
    return rep, rep.key(), ([x - x % n for x in X], d)


def _split(cube: Cube, scale: int):
    """(keys, pieces, X, L) of a cube at ``scale``, per piece in ``subdivide``
    order: its key, the cube itself or its corner coordinates, and X[j] with
    corner X[j] q^L."""
    if cube.scale_exp == scale:
        X, L = _scaled(cube.corner.coords)
        return (cube.key(),), (cube,), (X,), L
    axes = cube.axis_corners(scale)
    flat, L = _scaled([x for axis in axes for x in axis])
    n = len(axes[0])
    keys = [(scale, corner) for corner in product(*[[x.key() for x in axis] for axis in axes])]
    X = list(product(*[flat[i * n : (i + 1) * n] for i in range(len(axes))]))
    return keys, list(product(*axes)), X, L


class ModulatedStep:
    """A finite linear combination of modulated cube indicators.

    ``terms`` is the canonical list of (coeff, modulation, cube) triples,
    sorted deterministically; ``scale_exp`` is the common cube scale.
    """

    __slots__ = ("q", "k", "scale_exp", "terms", "_by_cube", "_hat")

    def __init__(self, q: int, k: int, terms=()):
        terms = [(complex(c), b, cube) for c, b, cube in terms if c != 0]
        for _, b, cube in terms:
            if len(b.coords) != k or len(cube.corner.coords) != k or cube.q != q or b.q != q:
                raise ValueError("term dimensions do not match the function")
        scale = max((cube.scale_exp for _, _, cube in terms), default=0)
        self._finish(q, k, list(self._merge(q, terms, scale).items()), scale)

    def __setattr__(self, name, value):
        raise AttributeError("ModulatedStep is immutable")

    # -- construction --------------------------------------------------------

    @classmethod
    def zero(cls, q: int, k: int) -> "ModulatedStep":
        return cls(q, k, [])

    @classmethod
    def indicator(cls, cube: Cube, coeff: complex = 1.0, modulation: QVector | None = None) -> "ModulatedStep":
        if modulation is None:
            modulation = QVector.zero(cube.q, cube.k)
        return cls(cube.q, cube.k, [(complex(coeff), modulation, cube)])

    @staticmethod
    def _merge(q, terms, scale) -> dict:
        """One slot [coeff, rep, piece] per (piece key, rep key) of the terms split to ``scale``; a slot
        adds its contributions in term order.  A piece is an unsubdivided cube or its corner coordinates."""
        merged: dict[tuple, list] = {}
        reduced: dict[QVector, tuple] = {}
        split: dict[Cube, tuple] = {}
        for c, b, cube in terms:
            red = reduced.get(b)
            if red is None:
                red = reduced[b] = _reduce(b, scale)
            rep, rep_key, drift = red
            if drift is None and cube.scale_exp == scale:  # its own one piece, of phase 1
                keys, pieces = (cube.key(),), (cube,)
            else:
                rows = split.get(cube)
                if rows is None:
                    rows = split[cube] = _split(cube, scale)
                keys, pieces, X, L = rows
            if drift is None:
                phases = repeat(1 + 0j)
            else:  # chi(drift . x) with drift = D q^d, x = X q^L: one numerator D . X over q^-(d + L)
                D, E = drift[0], max(-(drift[1] + L), 0)
                phases = [_char_at(sum(map(mul, D, x)), q, E) for x in X]
            for key, piece, phase in zip(keys, pieces, phases):
                key = (key, rep_key)
                slot = merged.get(key)
                if slot is None:
                    merged[key] = [c * phase, rep, piece]
                else:
                    slot[0] += c * phase
        return merged

    def _finish(self, q: int, k: int, slots, scale: int) -> "ModulatedStep":
        """Set up from one part's (key, slot) pairs, pruned against the part's own largest coefficient."""
        tol = max((abs(slot[0]) for _, slot in slots), default=0.0) * PRUNE_REL_TOL
        out = [(key, *slot) for key, slot in slots if abs(slot[0]) > tol]
        if out:
            out, scale = ModulatedStep._compact(q, k, out, scale)
            out.sort(key=itemgetter(0))
        canon = [(c, b, cube if cube.__class__ is Cube else Cube(QVector(cube), scale)) for _, c, b, cube in out]
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "scale_exp", scale if out else 0)
        object.__setattr__(self, "terms", tuple(canon))
        by_cube: dict[Cube, list[tuple[complex, QVector]]] = {}
        for c, b, cube in canon:
            by_cube.setdefault(cube, []).append((c, b))
        object.__setattr__(self, "_by_cube", by_cube)
        object.__setattr__(self, "_hat", None)
        return self

    @staticmethod
    def _compact(q, k, terms, scale):
        """Merge complete sibling families with equal coefficients upward.

        Terms are (key, coeff, modulation, cube), key the sort key
        (cube.key(), modulation.key()).  Families group on ints read off it:
        the corner digits below the parent scale, which are the parent's key.
        A parent ``Cube`` is built only when every family merges, so the
        common-scale invariant survives; grouping stops past len(terms)/family groups.
        """
        family = q**k
        while len(terms) % family == 0 and terms:
            up, limit = scale - 1, len(terms) // family
            groups: dict[tuple, list] = {}
            for term in terms:
                (_, corner), b_key = term[0]
                digits = tuple([(v, u % q ** (up - v)) if u and v < up else (0, 0) for v, u in corner])
                groups.setdefault((digits, b_key), []).append(term)
                if len(groups) > limit:
                    return terms, scale
            for members in groups.values():
                c0 = members[0][1]
                tol = PRUNE_REL_TOL * max(1.0, abs(c0))
                if len(members) != family or any(abs(t[1] - c0) > tol for t in members):
                    return terms, scale
            terms = [
                (((up, digits), b_key), members[0][1], members[0][2],
                 Cube(QVector([QRational(q, u, v) for v, u in digits]), up))
                for (digits, b_key), members in groups.items()
            ]
            scale = up
        return terms, scale

    # -- bookkeeping ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def support_cubes(self) -> list[Cube]:
        return sorted(self._by_cube.keys(), key=Cube.key)

    def support_volume(self) -> Fraction:
        return sum((c.volume for c in self._by_cube), Fraction(0))

    def max_abs_coeff(self) -> float:
        return max((abs(c) for c, _, _ in self.terms), default=0.0)

    # -- linear structure -----------------------------------------------------

    def __add__(self, other: "ModulatedStep") -> "ModulatedStep":
        if not isinstance(other, ModulatedStep):
            return NotImplemented
        if self.q != other.q or self.k != other.k:
            raise ValueError("cannot add functions over different groups")
        return ModulatedStep(self.q, self.k, list(self.terms) + list(other.terms))

    def __sub__(self, other: "ModulatedStep") -> "ModulatedStep":
        if not isinstance(other, ModulatedStep):
            return NotImplemented
        if self.q != other.q or self.k != other.k:
            raise ValueError("cannot subtract functions over different groups")
        return ModulatedStep(self.q, self.k, list(self.terms) + [(-c, b, cube) for c, b, cube in other.terms])

    def scaled(self, factor: complex) -> "ModulatedStep":
        return ModulatedStep(self.q, self.k, [(c * factor, b, cube) for c, b, cube in self.terms])

    def __mul__(self, other: "ModulatedStep") -> "ModulatedStep":
        """Pointwise product, cube by cube: each support cube of the finer
        factor meets one cube of the coarser, the one containing it.  Per
        cube, ``other``'s terms pair in the outer loop, ``self``'s inner."""
        if not isinstance(other, ModulatedStep):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return ModulatedStep.zero(self.q, self.k)
        fine, coarse = (self, other) if self.scale_exp >= other.scale_exp else (other, self)
        s, t = fine.scale_exp, coarse.scale_exp
        out = []
        for cube, fine_parts in fine._by_cube.items():
            coarse_parts = coarse._by_cube.get(cube if t == s else Cube.containing(cube.corner, t), ())
            mine, theirs = (fine_parts, coarse_parts) if fine is self else (coarse_parts, fine_parts)
            for c2, b2 in theirs:
                for c1, b1 in mine:
                    out.append((c1 * c2, b1 + b2, cube))
        return ModulatedStep(self.q, self.k, out)

    # -- integral calculus ----------------------------------------------------

    def fourier(self) -> "ModulatedStep":
        """Exact transform, kept on the instance: a modulated cube maps to a modulated dual cube."""
        if self._hat is None:
            object.__setattr__(self, "_hat", self._transform(inverse=False))
        return self._hat

    def inverse_fourier(self) -> "ModulatedStep":
        return self._transform(inverse=True)

    def _transform(self, inverse: bool) -> "ModulatedStep":
        """c chi(b . x) 1(a + q^s Z_q^k) maps to
        c q^(-sk) chi(b . a) chi(-+a . xi) 1(+-b + q^-s Z_q^k), upper signs
        forward.  A canonical b is reduced at scale -s already; -b is not."""
        s = self.scale_exp
        volume = float(Fraction(self.q) ** (-s * self.k))
        out = []
        for c, b, cube in self.terms:
            corner = cube.corner
            dual = Cube((-b).rep_mod(-s), -s) if inverse else Cube(b, -s)
            out.append((c * volume * _phase(b, corner), corner if inverse else -corner, dual))
        return ModulatedStep(self.q, self.k, out)

    def convolve(self, other: "ModulatedStep") -> "ModulatedStep":
        """Haar convolution in closed form, one term per interacting pair.

        Call the finer function (``self`` at equal scales) fine, at scale s,
        and the other coarse, at scale t <= s.  A fine term
        c2 chi(b2 . x) 1(a2 + q^s Z_q^k) and a coarse term
        c1 chi(b1 . x) 1(a1 + q^t Z_q^k) interact only when b1 = b2 mod q^-s
        (else the inner character integrates to zero), and then convolve to
        c1 c2 q^(-sk) chi((b2 - b1) . a2) chi(b1 . x) 1(a1 + a2 + q^t Z_q^k).
        """
        if not isinstance(other, ModulatedStep):
            raise TypeError("convolve expects a ModulatedStep")
        if self.is_zero or other.is_zero:
            return ModulatedStep.zero(self.q, self.k)
        fine, coarse = (self, other) if self.scale_exp >= other.scale_exp else (other, self)
        s, t = fine.scale_exp, coarse.scale_exp
        vol = float(Fraction(self.q) ** (-s * self.k))
        by_mod: dict[tuple, list] = {}
        for term in coarse.terms:
            by_mod.setdefault(term[1].rep_mod(-s).key(), []).append(term)
        out = []
        for c2, b2, cube2 in fine.terms:
            for c1, b1, cube1 in by_mod.get(b2.key(), ()):
                corner = (cube2.corner + cube1.corner).rep_mod(t)
                out.append((c1 * c2 * vol * _phase(b2 - b1, cube2.corner), b1, Cube(corner, t)))
        return ModulatedStep(self.q, self.k, out)

    # -- frequency restriction --------------------------------------------------

    def freq_components(self, partition) -> dict[Interval, "ModulatedStep"]:
        """The nonzero pieces whose transforms live over the intervals of a
        uniform-scale partition of coordinate 1, from the kept transform, in
        partition order, each keeping its own.  A vanishing piece, one within
        PRUNE_REL_TOL of f's largest transform coefficient, has no entry.

        This is the only frequency restriction: one interval's piece is the
        entry for it in a partition that contains it.  The transform is merged
        once; each interval's share of the slots is finished on its own.
        """
        hat = self.fourier()
        shares: dict[Interval, list] = {}
        if not hat.is_zero:
            scale = partition[0].scale_exp
            if any(i.scale_exp != scale for i in partition):
                raise ValueError("freq_components needs a uniform-scale partition")
            lookup = {i.corner: i for i in partition}
            fine = max(hat.scale_exp, scale)
            where: dict[tuple, Interval | None] = {}  # each distinct piece's interval, None off the partition
            for item in self._merge(self.q, hat.terms, fine).items():
                (key, _), (_, _, piece) = item
                if key not in where:
                    where[key] = lookup.get((piece.corner if piece.__class__ is Cube else piece)[0].rep_mod(scale))
                shares.setdefault(where[key], []).append(item)
        pieces = {}
        tol = PRUNE_REL_TOL * hat.max_abs_coeff()
        for i in partition:
            if i in shares:
                hat_i = ModulatedStep.__new__(ModulatedStep)._finish(self.q, self.k, shares[i], fine)
                if hat_i.max_abs_coeff() > tol:
                    pieces[i] = hat_i.inverse_fourier()
                    object.__setattr__(pieces[i], "_hat", hat_i)
        return pieces

    # -- evaluation and norms ----------------------------------------------------

    def evaluate(self, x: QVector) -> complex:
        if self.is_zero:
            return 0j
        cube = Cube.containing(x, self.scale_exp)
        parts = self._by_cube.get(cube)
        if not parts:
            return 0j
        return sum((c * _phase(b, x) for c, b in parts), 0j)

    def cell_scale(self) -> int:
        """Scale at which |f| (indeed f itself) is constant on cells."""
        r = self.scale_exp
        for _, b, _ in self.terms:
            for bi in b:
                if not bi.is_zero:
                    r = max(r, -bi.valuation)
        return r

    def lp_norm(self, p) -> float:
        """L^p norm, p in [1, inf]: an exact sum over the modulus cells of
        ``joint_cell_values``.  Moduli are divided by the sup before the p-th
        power, so huge coefficients cannot overflow.
        """
        if self.is_zero:
            return 0.0
        if p < 1:
            raise ValueError(f"p must be at least 1, got {p}")
        volumes, moduli = joint_cell_values([self])
        return _lp_from_cells(volumes, moduli[0], p)

    # -- comparison ----------------------------------------------------------------

    def is_identical(self, other: "ModulatedStep") -> bool:
        """Same canonical support, modulations, and bitwise-equal coefficients."""
        if self.scale_exp != other.scale_exp or len(self.terms) != len(other.terms):
            return False
        return all(
            c1 == c2 and b1 == b2 and q1 == q2
            for (c1, b1, q1), (c2, b2, q2) in zip(self.terms, other.terms)
        )

    def close_to(self, other: "ModulatedStep", tol: float = REL_TOL) -> bool:
        if (self.q, self.k) != (other.q, other.k):
            raise ValueError("cannot compare functions over different groups")
        return other._gap(self.terms) <= tol * max(self.max_abs_coeff(), other.max_abs_coeff(), 1.0)

    def _is_sum_of(self, terms) -> bool:
        """Whether the terms add up to self within REL_TOL * max(|self|, 1)."""
        return self._gap(terms) <= REL_TOL * max(self.max_abs_coeff(), 1.0)

    def _gap(self, terms) -> float:
        """max |coefficient| of (sum of the terms) - self, by one merge with self's negated terms: no canonical
        form of their sum, or of the difference, is built."""
        terms = [*terms, *[(-c, b, cube) for c, b, cube in self.terms]]
        slots = self._merge(self.q, terms, max((cube.scale_exp for _, _, cube in terms), default=0))
        return max((abs(slot[0]) for slot in slots.values()), default=0.0)

    def __repr__(self) -> str:
        if self.is_zero:
            return f"ModulatedStep(0 on Q_{self.q}^{self.k})"
        return (
            f"ModulatedStep({len(self.terms)} terms at side {self.q}^-{self.scale_exp} "
            f"on Q_{self.q}^{self.k})"
        )

    # -- serialization ----------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "k": self.k,
            "terms": [
                {
                    "re": c.real,
                    "im": c.imag,
                    "modulation": [bi.to_text() for bi in b],
                    "cube": cube.to_json(),
                }
                for c, b, cube in self.terms
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ModulatedStep":
        """Read ``to_json``'s shape; a document of any other shape raises
        ValueError.  q, k and scale_exp are JSON integers and coefficient
        parts JSON numbers: a bool, a fraction or a string is refused."""
        try:
            q, k = _json_int(obj, "q"), _json_int(obj, "k")
            terms = []
            for t in obj["terms"]:
                re, im = t["re"], t.get("im", 0.0)
                if type(re) not in (int, float) or type(im) not in (int, float):
                    raise ValueError(f"coefficient parts must be JSON numbers, got {re!r} and {im!r}")
                re, im = float(re), float(im)
                if not (isfinite(re) and isfinite(im)):
                    raise ValueError(f"coefficient {re} + {im}i is not finite")
                modulation, cube = QVector.from_text(q, t["modulation"]), Cube.from_json(q, t["cube"])
                terms.append((complex(re, im), modulation, cube))
        except (KeyError, TypeError, AttributeError) as exc:  # a missing field, or a value of the wrong type
            raise ValueError(f"malformed function document: {type(exc).__name__}: {exc}") from None
        if not terms:
            return cls.zero(q, k)
        return cls(q, k, terms)


def _lp_from_cells(volumes, modulus, p) -> float:
    """L^p norm of a function of modulus ``modulus[j]`` on cells of volume
    ``volumes[j]``, p in [1, inf], dividing by the sup before the p-th power."""
    sup = float(modulus.max())
    if p == inf:
        return sup
    p = float(p)
    return sup * float((volumes * (modulus / sup) ** p).sum()) ** (1.0 / p)


def _cell_values(cube: Cube, parts, r: int):
    """Sum of c * chi(b . x) over ``parts`` at each cell corner x of
    ``cube.subdivide(r)``, flat and in that order.

    With x = corner + t * q^s and n = q^(r-s), chi(b . x) is chi(b . corner)
    exp(2 pi i m . t / n), m_i = u_i q^(r + v_i) mod n for b_i = u_i q^v_i: the
    values are the unscaled inverse DFT of each part's c chi(b . corner) put at m.
    Callers take r at least every modulation's constancy scale, so r + v_i >= 0.
    """
    import numpy as np  # imported here so that importing momentlab does not load numpy

    q, n = cube.q, cube.q ** (r - cube.scale_exp)
    spectrum = np.zeros((n,) * cube.k, dtype=np.complex128)
    for c, b in parts:
        m = tuple(0 if bi.is_zero else bi.unit * q ** (r + bi.valuation) % n for bi in b)
        spectrum[m] += c * char_value(b.dot(cube.corner))
    for axis in range(cube.k):  # ifftn's transform, in place and without its argument handling
        np.fft.ifft(spectrum, axis=axis, norm="forward", out=spectrum)
    return spectrum.reshape(-1)


def joint_cell_values(fns):
    """Moduli of several functions on cells where each modulus is constant.

    Returns (volumes, moduli): cell j has volume volumes[j], and
    moduli[i, j] is |fns[i]| on it.  The cells cover the union of supports:
    each support cube at the finest cube scale s, in order of first
    appearance among the functions' canonical terms, refined in
    ``Cube.subdivide`` order to the coarsest scale (at least s) at which
    every function's modulation differences on that cube are constant.  A
    common phase has unit modulus, so a cube where every function has at
    most one term is one cell.  A row with two or more terms goes through
    the kernel even unrefined: its differences may be constant there yet
    not trivial.
    """
    import numpy as np

    fns = list(fns)
    if not fns:
        raise ValueError("need at least one function")
    live = [f for f in fns if not f.is_zero]
    if not live:
        return np.zeros(0), np.zeros((len(fns), 0))
    q, k = live[0].q, live[0].k
    s = max(f.scale_exp for f in live)
    cubes = dict.fromkeys(piece for f in live for cube in f._by_cube for piece in cube.subdivide(s))
    plan = []
    for cube in cubes:
        rows, r = [], s
        for f in fns:
            parts = f._by_cube.get(cube if f.scale_exp == s else Cube.containing(cube.corner, f.scale_exp), ())
            if len(parts) > 1:
                parts = [(c, b - parts[0][1]) for c, b in parts]
                r = max([r] + [-di.valuation for _, d in parts for di in d if not di.is_zero])
            rows.append(parts)
        plan.append((cube, rows, r))
    sizes = [q ** ((r - s) * k) for _, _, r in plan]
    check_budget(sum(sizes) * len(fns), errors.CELL_BUDGET, "modulus cells exceed the budget")
    scales = [r for _, _, r in plan]
    cell_volume = {r: float(Fraction(q) ** (-r * k)) for r in set(scales)}
    volumes = np.repeat([cell_volume[r] for r in scales], sizes)
    moduli = np.zeros((len(fns), volumes.size))
    start = 0
    for (cube, rows, r), n in zip(plan, sizes):
        for i, parts in enumerate(rows):
            if len(parts) == 1:
                moduli[i, start : start + n] = abs(parts[0][0])
            elif parts:
                moduli[i, start : start + n] = np.abs(_cell_values(cube, parts, r))
        start += n
    return volumes, moduli
