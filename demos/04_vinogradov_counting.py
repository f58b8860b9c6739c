#!/usr/bin/env python3
"""Exact power-sum solution counting and the iteration bound.

J(s, k, X) counts 2s-variable solutions of the simultaneous power-sum
equations of degrees 1..k with entries in [1, X].  It is the sum of
squared multiplicities of the exact power-sum distribution, convolved one
variable at a time; the residue bound and the recursive estimate
reproduce the classical counting pipeline at desk scale.
"""

from momentlab.vinogradov import (
    classical_iteration_exponent,
    count_J,
    count_J_congruence,
    karatsuba_bound,
    karatsuba_exponent_trace,
    linnik_bound,
    linnik_max,
)

print("== exact counts ==")
print("  J(2, 2, X) versus the closed form 2X^2 - X:")
for X in (2, 5, 10, 20):
    print(f"    X = {X:>2}: {count_J(2, 2, X):>6} = {2 * X * X - X}")

print("\n  residue-restricted counts are reported side by side:")
for p in (5, 7):
    full = count_J(3, 2, 8)
    restricted = count_J_congruence(3, 2, 8, p)
    pinned = count_J_congruence(3, 2, 8, p, 0)
    print(f"    p = {p}: full {full}, distinct-mod-p {restricted}, pinned-to-0 {pinned}")

print("\n== the residue ceiling ==")
for k, p in ((2, 3), (2, 5), (3, 5)):
    value, argmax = linnik_max(k, p)
    print(f"  k = {k}, p = {p}: exhaustive max {value} <= {linnik_bound(k, p)}"
          f"  (attained at targets {argmax})")

print("\n== the iteration bound ==")
trace = karatsuba_bound(6, 2, 64)
print(f"  J(6, 2, 64) <= {float(trace.bound):.4g}")
for step in trace.steps:
    if step.get("base_case"):
        print(f"    base s={step['s']}: factor {float(step['factor']):.4g}")
    else:
        print(f"    s={step['s']}: prime {step['prime']}, factor {float(step['factor']):.4g}")

print("\n== symbolic exponent audit ==")
for s in (4, 8, 12):
    exp, _ = karatsuba_exponent_trace(s, 2)
    print(f"  s = {s:>2}: unrolled exponent {exp} = closed form "
          f"{classical_iteration_exponent(s, 2)}")
