#!/usr/bin/env python3
"""A tour of exact arithmetic in Z[1/q].

Every scalar is unit * q^valuation with the unit coprime to q; the norm
only sees the valuation, which makes the geometry ultrametric: all
triangles are isosceles and same-size balls are disjoint or equal.
"""

from momentlab import QRational, QVector, char_value

q = 3

print("== the q-adic norm (q = 3) ==")
for n in (1, 2, 3, 9, 54, 0):
    x = QRational(q, n)
    print(f"  |{n:>3}| = {x.qnorm()}")
print(f"  |1/3| = {QRational(q, 1, -1).qnorm()}   (negative valuation grows the norm)")

print("\n== the ultrametric inequality ==")
pairs = [(1, 3), (2, 7), (4, 5)]
for a, b in pairs:
    x, y = QRational(q, a), QRational(q, b)
    s = x + y
    marker = "equality" if x.qnorm() != y.qnorm() else "can drop"
    print(f"  |{a} + {b}| = {str(s.qnorm()):>4}  vs max = "
          f"{str(max(x.qnorm(), y.qnorm())):>4}   ({marker})")

print("\n== canonical digits ==")
x = QRational(q, 14, -1)  # 14/3 = 2/3 + 1 + 3
for scale in (-1, 0, 1, 2):
    print(f"  digits of 14/3 below position {scale:>2}: {x.rep_mod(scale)}")
print(f"  fractional part of 14/3: {x.rep_mod(0).to_fraction()}   (the digits below position 0)")

print("\n== the additive character ==")
print("  chi(x) = exp(2 pi i a) with the exact angle a = x.rep_mod(0):")
for v in (0, -1, -2):
    x = QRational(q, 1, v)
    print(f"  chi({x!r:>7}): angle {x.rep_mod(0).to_fraction()!s:>4}, value {char_value(x):.6f}")
x, y = QRational(q, 5, -2), QRational(q, 7, -1)
angle_sum = (x.rep_mod(0) + y.rep_mod(0)).rep_mod(0)
print(f"  additivity: angle of x+y {(x + y).rep_mod(0).to_fraction()} = "
      f"{angle_sum.to_fraction()} sum of angles mod 1")
print(f"  chi(x+y) = {char_value(x + y):.6f}, chi(x)*chi(y) = {char_value(x) * char_value(y):.6f}")

print("\n== vectors ==")
v = QVector([QRational(q, 3), QRational(q, 9)])
print(f"  |(3, 9)| = {v.vnorm()}  (the max rule)")
