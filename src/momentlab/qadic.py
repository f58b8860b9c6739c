"""Exact arithmetic in Z[1/q] with the q-adic norm and additive character.

Everything the geometry and function calculus touch is a scalar of the form
``unit * q**valuation`` with ``unit`` coprime to q.  This dense subring of
the q-adic field is enough because cubes, curve points and step functions
are all determined by finitely many digits, so membership and support
questions are decidable exactly.

The additive character is fixed to ``chi(x) = exp(2*pi*i*frac_q(x))`` where
``frac_q`` keeps the digits at negative positions, the exact angle
``x.rep_mod(0)``.  ``_char_at`` is its one evaluation: the angle as an exact
integer numerator over a power of q, reduced, then evaluated once per
reduced fraction and cached.
"""

from __future__ import annotations

import cmath
from fractions import Fraction

__all__ = [
    "QRational",
    "QVector",
    "char_value",
    "qval_of_fraction",
    "qnorm_of_fraction",
]


def _strip_q(n: int, q: int) -> tuple[int, int]:
    """Factor n = unit * q**v with unit coprime to q.  Requires n != 0."""
    v = 0
    while n % q == 0:
        n //= q
        v += 1
    return n, v


class QRational:
    """An element ``unit * q**valuation`` of Z[1/q].

    ``unit`` is zero or coprime to q; zero forces the sentinel valuation 0.
    Instances are immutable and hashable.
    """

    __slots__ = ("q", "unit", "valuation")

    def __init__(self, q: int, unit: int, valuation: int = 0):
        if q < 2:
            raise ValueError(f"q must be at least 2, got {q}")
        if unit == 0:
            valuation = 0
        elif unit % q == 0:
            unit, extra = _strip_q(unit, q)
            valuation += extra
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "valuation", valuation)

    def __setattr__(self, name, value):
        raise AttributeError("QRational is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_fraction(cls, q: int, value) -> "QRational":
        """Build from an int or Fraction whose denominator is a power of q."""
        fr = Fraction(value)
        if fr == 0:
            return cls(q, 0)
        num, nv = _strip_q(fr.numerator, q)
        den, dv = _strip_q(fr.denominator, q)
        if den != 1:
            raise ValueError(
                f"{value} is not in Z[1/{q}]: denominator has a factor coprime to {q}"
            )
        return cls(q, num, nv - dv)

    # -- basic queries -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.unit == 0

    def qnorm(self) -> Fraction:
        """|x| = q**(-valuation), with |0| = 0."""
        if self.unit == 0:
            return Fraction(0)
        v = self.valuation
        return Fraction(1, self.q**v) if v >= 0 else Fraction(self.q ** (-v))

    def to_fraction(self) -> Fraction:
        if self.unit == 0:
            return Fraction(0)
        v = self.valuation
        if v >= 0:
            return Fraction(self.unit * self.q**v)
        return Fraction(self.unit, self.q ** (-v))

    # -- ring operations ---------------------------------------------------

    def _check_same_field(self, other: "QRational") -> None:
        if self.q != other.q:
            raise ValueError(f"mixed base primes {self.q} and {other.q}")

    def _coerce(self, other) -> "QRational":
        if isinstance(other, QRational):
            self._check_same_field(other)
            return other
        if isinstance(other, int):
            return QRational(self.q, other)
        if isinstance(other, Fraction):
            return QRational.from_fraction(self.q, other)
        return NotImplemented

    def __add__(self, other) -> "QRational":
        if other.__class__ is not QRational or other.q != self.q:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if self.unit == 0:
            return other
        if other.unit == 0:
            return self
        q, sv, ov = self.q, self.valuation, other.valuation
        if sv == ov:
            return QRational(q, self.unit + other.unit, sv)
        if sv < ov:
            return QRational(q, self.unit + other.unit * q ** (ov - sv), sv)
        return QRational(q, self.unit * q ** (sv - ov) + other.unit, ov)

    __radd__ = __add__

    def __neg__(self) -> "QRational":
        return QRational(self.q, -self.unit, self.valuation)

    def __sub__(self, other) -> "QRational":
        if other.__class__ is not QRational or other.q != self.q:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "QRational":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "QRational":
        if other.__class__ is not QRational or other.q != self.q:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return QRational(self.q, self.unit * other.unit, self.valuation + other.valuation)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "QRational":
        """Exact division inside Z[1/q]; the divisor's unit must divide ours."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.unit == 0:
            raise ZeroDivisionError("division by zero in Z[1/q]")
        if self.unit == 0:
            return QRational(self.q, 0)
        if self.unit % other.unit != 0:
            raise ValueError(
                f"{self} / {other} leaves Z[1/{self.q}]: {other.unit} does not divide {self.unit}"
            )
        return QRational(self.q, self.unit // other.unit, self.valuation - other.valuation)

    def __pow__(self, n: int) -> "QRational":
        if n < 0:
            if abs(self.unit) != 1:
                raise ValueError(f"negative power of {self} leaves Z[1/{self.q}]")
            return QRational(self.q, self.unit**(-n), self.valuation * n)
        if n == 0:
            return QRational(self.q, 1)
        return QRational(self.q, self.unit**n, self.valuation * n)

    # -- canonical digits ---------------------------------------------------

    def rep_mod(self, scale_exp: int) -> "QRational":
        """Canonical representative mod q**scale_exp * Z_q.

        Keeps the digits at positions strictly below ``scale_exp``; the
        result is the unique y with digits in [valuation, scale_exp) such
        that x - y has valuation >= scale_exp.  Always nonnegative.
        """
        if self.unit == 0 or self.valuation >= scale_exp:
            return QRational(self.q, 0)
        r = self.unit % self.q ** (scale_exp - self.valuation)
        return QRational(self.q, r, self.valuation)

    # -- protocol plumbing ---------------------------------------------------

    def __eq__(self, other) -> bool:
        """Equal to another ``QRational`` of the same value only, so ``==``
        agrees with ``hash``: an int or a Fraction is never equal."""
        if other.__class__ is not QRational:
            return NotImplemented
        return self.unit == other.unit and self.valuation == other.valuation and self.q == other.q

    def __hash__(self):
        return hash((self.q, self.unit, self.valuation))

    def key(self) -> tuple[int, int]:
        """Deterministic sort key."""
        return (self.valuation, self.unit)

    def __repr__(self) -> str:
        return self.to_text()

    def to_text(self) -> str:
        if self.unit == 0:
            return "0"
        if self.valuation == 0:
            return str(self.unit)
        return f"{self.unit}*{self.q}^{self.valuation}"

    @classmethod
    def from_text(cls, q: int, text: str) -> "QRational":
        """Parse the canonical rendering 'u*q^v' (plain integers allowed)."""
        text = text.strip()
        if "*" not in text:
            return cls(q, int(text))
        unit_part, power_part = text.split("*", 1)
        base, _, exp = power_part.partition("^")
        if int(base) != q:
            raise ValueError(f"rendering uses base {base}, expected {q}")
        return cls(q, int(unit_part), int(exp or "1"))


def qval_of_fraction(fr: Fraction, q: int):
    """q-adic valuation of an arbitrary rational (None for zero)."""
    fr = Fraction(fr)
    if fr == 0:
        return None
    _, nv = _strip_q(fr.numerator, q)
    _, dv = _strip_q(fr.denominator, q)
    return nv - dv


def qnorm_of_fraction(fr: Fraction, q: int) -> Fraction:
    v = qval_of_fraction(fr, q)
    if v is None:
        return Fraction(0)
    return Fraction(1, q**v) if v >= 0 else Fraction(q ** (-v))


class QVector:
    """A point of Q_q**k with coordinates in Z[1/q]; immutable, so its key and hash are kept from first use."""

    __slots__ = ("q", "coords", "_key", "_hash")

    def __init__(self, coords):
        coords = tuple(coords)
        if not coords:
            raise ValueError("QVector needs at least one coordinate")
        q = coords[0].q
        for c in coords:
            if c.q != q:
                raise ValueError("mixed base primes in QVector")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name, value):
        raise AttributeError("QVector is immutable")

    @classmethod
    def zero(cls, q: int, k: int) -> "QVector":
        return cls([QRational(q, 0)] * k)

    @classmethod
    def from_ints(cls, q: int, values) -> "QVector":
        return cls([QRational(q, int(v)) for v in values])

    @classmethod
    def from_text(cls, q: int, texts: list) -> "QVector":
        """Parse a JSON list of ``QRational.to_text`` renderings (a string is refused, not read per character)."""
        if not isinstance(texts, list):
            raise ValueError(f"a vector is a list of renderings, got {texts!r}")
        return cls([QRational.from_text(q, t) for t in texts])

    @property
    def k(self) -> int:
        return len(self.coords)

    def __len__(self) -> int:
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i) -> QRational:
        return self.coords[i]

    def __add__(self, other: "QVector") -> "QVector":
        return QVector([a + b for a, b in zip(self.coords, other.coords, strict=True)])

    def __sub__(self, other: "QVector") -> "QVector":
        return QVector([a - b for a, b in zip(self.coords, other.coords, strict=True)])

    def __neg__(self) -> "QVector":
        return QVector([-a for a in self.coords])

    def dot(self, other: "QVector") -> QRational:
        """One ``QRational``: the nonzero products u u' q^(v + v'), summed on ints at their least valuation."""
        q = self.q
        if other.q != q:
            raise ValueError(f"mixed base primes {q} and {other.q}")
        num = low = 0
        for a, b in zip(self.coords, other.coords, strict=True):
            if a.unit and b.unit:
                u, v = a.unit * b.unit, a.valuation + b.valuation
                if num and v >= low:
                    num += u * q ** (v - low)
                else:
                    num, low = (num * q ** (low - v) if num else 0) + u, v
        return QRational(q, num, low)

    def vnorm(self) -> Fraction:
        """max of the coordinate norms."""
        return max(c.qnorm() for c in self.coords)

    def rep_mod(self, scale_exp: int) -> "QVector":
        return QVector([c.rep_mod(scale_exp) for c in self.coords])

    def __eq__(self, other) -> bool:
        if not isinstance(other, QVector):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash(self.key()))
            return self._hash

    def key(self) -> tuple:
        """Deterministic sort key: the coordinates' (valuation, unit) pairs."""
        try:
            return self._key
        except AttributeError:
            object.__setattr__(self, "_key", tuple([(c.valuation, c.unit) for c in self.coords]))
            return self._key

    def __repr__(self) -> str:
        return "(" + ", ".join(c.to_text() for c in self.coords) + ")"


_CHAR_CACHE: dict[tuple[int, int], complex] = {}


def _char_at(num: int, q: int, exp: int) -> complex:
    """chi(num * q^-exp), exp >= 0: exp(2*pi*i*num/den), where num/den is
    (num mod q^exp) / q^exp reduced, so equal fractions share one cache key
    and one value, computed once; 1/2 gives exactly -1."""
    den = q**exp
    num %= den
    if not num:
        return 1 + 0j
    while num % q == 0:
        num, den = num // q, den // q
    cached = _CHAR_CACHE.get((num, den))
    if cached is None:
        cached = -1 + 0j if 2 * num == den else cmath.exp(2j * cmath.pi * (num / den))
        _CHAR_CACHE[num, den] = cached
    return cached


def char_value(x: QRational) -> complex:
    """chi(x) as a floating complex number, through ``_char_at``."""
    return 1 + 0j if x.valuation >= 0 else _char_at(x.unit, x.q, -x.valuation)
