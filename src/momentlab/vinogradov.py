"""Exact solution counting for power-sum systems and the iteration bound.

The central object is the count J(s, k, X) of 2s-variable solutions of
the simultaneous equations sum x_i^j = sum y_i^j for j = 1..k with all
variables in [1, X]: the sum of squared multiplicities of the power-sum
vectors of s-tuples, whose distribution (a dict, or numpy residues mod
prime powers) is built one variable at a time, with an independent
nested-loop oracle for small instances.  The same routine gives the
residue-restricted counts and, mod p^j, the exhaustive Linnik residue
bound.  On top sit the Newton-Girard identities and the recursive
upper-bound trace that trades one counting step for a factor
p^(2s-2k) X^k p^(k(k-1)/2).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, product
from math import comb, factorial, prod

from . import errors
from .errors import check_budget
from .exponents import rung

__all__ = [
    "count_J",
    "count_J_nested",
    "count_J_congruence",
    "count_power_sum_congruences",
    "newton_girard",
    "elementary_from_roots",
    "linnik_count",
    "linnik_max",
    "linnik_bound",
    "karatsuba_bound",
    "karatsuba_exponent_trace",
    "classical_iteration_exponent",
    "KaratsubaTrace",
]


def _power_sum_distribution(k: int, blocks, moduli=None, budget: int | None = None):
    """Multiplicities of the power-sum vector (sum x^j, j = 1..k) over tuples.

    Each block (values, n, p) adds n variables from values, one at a time;
    with p, they are pairwise distinct mod p: one pass over the classes mod
    p, each giving at most one value, times n! as power sums are symmetric.
    A step adds a table of values in one pass.  With moduli, sum j is taken
    mod moduli[j-1] in a numpy array indexed by residues, every shift of
    about 2^16 occupied cells going in one np.add.at; without, a plain dict
    over the sums packed into one integer (values nonnegative), and no
    numpy.  When prod(moduli) exceeds the multisets that can be drawn, the
    array would stay mostly empty: the dict is used and its sums are folded
    mod the moduli into a dict keyed by residue tuples.  The budget bounds
    the keys at each step by the key space and by the multisets drawn; it
    defaults to the operation limit.  Values are ranges or lists, and the
    budget is checked before any range is enumerated.
    """
    blocks = [(values, n, p) for values, n, p in blocks if n > 0]
    # a range's largest value is read off its ends
    top = max((max(v[0], v[-1]) if isinstance(v, range) else max(v) for v, _, _ in blocks if len(v)), default=0)
    n_all = sum(n for _, n, _ in blocks)
    # digit j holds sum j, which never exceeds n_all * top^j, so packed sums never carry
    radix = [prod(n_all * top**i + 1 for i in range(1, j)) for j in range(1, k + 2)]
    dense = moduli is not None and prod(moduli) <= _multiset_bound(blocks)
    cells = prod(moduli) if dense else radix[-1]
    keys, estimate = 1, 0
    for values, n, p in blocks:
        # the keys before each step: a bound that reaches the key space stays there
        # (given values to draw), so the steps after it are summed at once
        total, i, bound = 0, 0, keys
        while i < n and (bound < cells or not values):
            total, i = total + bound, i + 1
            bound = min(cells, keys * comb(len(values) + i - 1, i))
        # dense, also one scan of the array per step, and per class in a distinct block
        estimate += (total + bound * (n - i)) * len(values) + (cells * n * (p or 1) if dense else 0)
        keys = bound
    if budget is None:
        budget = errors.OPERATION_BUDGET
    check_budget(estimate, budget, "power-sum distribution needs about {estimated} operations (budget {budget})")
    blocks = [(list(values), n, p) for values, n, p in blocks]  # listed once, as each is scanned several times

    if not dense:
        def table(values):
            return list(Counter(sum(v**j * radix[j - 1] for j in range(1, k + 1)) for v in values).items())

        def shifted(dist, tab, out=None):
            out = {} if out is None else out
            get, items = out.get, dist.items()
            for e, w in tab:  # get on a plain dict: a Counter runs __missing__ in Python per new key
                for key, m in items:
                    key += e
                    out[key] = get(key, 0) + m * w
            return out

        dist = {0: 1}
    else:
        import numpy as np

        def table(values):
            return list(Counter(tuple(pow(v, j, m) for j, m in enumerate(moduli, 1)) for v in values).items())

        def shifted(dist, tab, out=None):
            out = np.zeros_like(dist) if out is None else out
            occupied = np.flatnonzero(dist)
            coords, counts = np.unravel_index(occupied, moduli), dist[occupied]
            shifts = np.array([s for s, _ in tab], dtype=np.int64).reshape(-1, k).T
            weights = np.array([w for _, w in tab], dtype=dist.dtype)
            step = 1 + 2**16 // (len(tab) + 1)  # a block of occupied cells under every shift: ~2^16 indices
            for lo in range(0, len(occupied), step):
                flat = np.ravel_multi_index([c[lo:lo + step, None] + s for c, s in zip(coords, shifts)], moduli,
                                            mode="wrap")
                np.add.at(out, flat.ravel(), (counts[lo:lo + step, None] * weights).ravel())
            return out

        dist = np.zeros(cells, dtype=np.int64 if prod(len(v) ** n for v, n, _ in blocks) < 2**63 else object)
        dist[0] = 1
    for values, n, p in blocks:
        if p is None:
            for _ in range(n):
                dist = shifted(dist, table(values))
            continue
        classes = [table(c) for c in ([v for v in values if v % p == r] for r in range(p)) if c]
        # states[j]: j values taken from the classes so far, filled in place; a shift by no value is empty
        states = [dist] + [shifted(dist, []) for _ in range(n)]
        for c, tab in enumerate(classes):
            # downwards, so this class feeds each state from before it; only states that can still reach n
            for j in range(min(c, n - 1), max(0, n - len(classes) + c) - 1, -1):
                shifted(states[j], tab, states[j + 1])
        # times n!, as a shift by the power-sum vector of 0 (the zero vector) of weight n!
        dist = shifted(states[n], [(zero, factorial(n)) for zero, _ in table([0])])
    if dense:
        return dist.reshape(moduli)
    if moduli is None:
        return dist
    folded: dict = {}
    for key, m in dist.items():
        residues = tuple(key // radix[j] % (radix[j + 1] // radix[j]) % moduli[j] for j in range(k))
        folded[residues] = folded.get(residues, 0) + m
    return folded


def _multiset_bound(blocks) -> int:
    """Multisets the blocks can draw: a bound on the occupied power-sum keys."""
    return prod(comb(len(values) + n - 1, n) for values, n, _ in blocks)


def count_J(s: int, k: int, X: int, budget: int | None = None) -> int:
    """Exact number of solutions of the degree-k system in 2s variables."""
    if s < 1 or k < 1 or X < 1:
        raise ValueError("need s, k, X >= 1")
    counts = _power_sum_distribution(k, [(range(1, X + 1), s, None)], budget=budget)
    return sum(m * m for m in counts.values())


def count_J_nested(s: int, k: int, X: int) -> int:
    """Independent oracle: plain nested loops over all 2s-tuples."""
    check_budget(X ** (2 * s), errors.OPERATION_BUDGET,
                 "nested-loop enumeration needs about {estimated} operations (budget {budget})")
    total = 0
    rng = range(1, X + 1)
    for xs in product(rng, repeat=s):
        px = tuple(sum(v**j for v in xs) for j in range(1, k + 1))
        for ys in product(rng, repeat=s):
            if all(sum(v**j for v in ys) == px[j - 1] for j in range(1, k + 1)):
                total += 1
    return total


def count_J_congruence(
    s: int,
    k: int,
    X: int,
    p: int,
    a: int | None = None,
    budget: int | None = None,
) -> int:
    """Restricted count: x_1..x_k (and y_1..y_k) pairwise distinct mod p;
    with a residue given, all later variables are pinned to it mod p.

    Symmetric in the two sides, so it is again a sum of squared
    multiplicities.
    """
    if p < 2:
        raise ValueError("p must be a prime >= 2")
    tail = range(1, X + 1) if a is None else [n for n in range(1, X + 1) if n % p == a % p]
    counts = _power_sum_distribution(k, [(range(1, X + 1), min(s, k), p), (tail, s - k, None)], budget=budget)
    return sum(m * m for m in counts.values())


def count_power_sum_congruences(s: int, k: int, base: int, moduli) -> int:
    """Pairs of s-tuples from [0, base) with congruent power sums.

    moduli[j-1] is the modulus for the degree-j equation.  This is the
    counting kernel behind exponential-sum moments on big balls.
    """
    moduli = list(moduli)
    if len(moduli) != k:
        raise ValueError("need one modulus per degree")
    counts = _power_sum_distribution(k, [(range(base), s, None)], moduli)
    values = counts.values() if isinstance(counts, dict) else counts[counts != 0].tolist()
    return sum(m * m for m in values)


# -- Newton-Girard ------------------------------------------------------------


def newton_girard(power_sums):
    """Elementary symmetric values e_1..e_k from power sums p_1..p_k.

    Uses the alternating recurrence j*e_j = sum_i (-1)^i e_(j-i-1) p_(i+1)
    over any commutative ring with exact division by 1..k; integer input
    is promoted to Fraction so every division is exact.
    """
    ps = list(power_sums)
    k = len(ps)
    if k == 0:
        return []
    if all(isinstance(v, int) for v in ps):
        ps = [Fraction(v) for v in ps]
    one = ps[0] - ps[0] + 1 if not isinstance(ps[0], Fraction) else Fraction(1)
    es = [one]  # e_0 = 1
    for j in range(1, k + 1):
        acc = None
        sign = 1
        for i in range(j):
            term = es[j - i - 1] * ps[i]
            term = term if sign > 0 else -term
            acc = term if acc is None else acc + term
            sign = -sign
        es.append(acc / j)
    return es[1:]


def elementary_from_roots(roots):
    """Oracle for the identities: expand prod (X - x_i); coefficient of
    X^(k-j) is (-1)^j e_j."""
    coeffs = [1]
    for r in roots:
        new = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            new[i] += c
            new[i + 1] -= c * r
        coeffs = new
    return [(-1) ** j * coeffs[j] for j in range(1, len(coeffs))]


# -- Linnik's residue bound ----------------------------------------------------


def _need_degree(k: int) -> None:
    if k < 1:
        raise ValueError(f"Linnik counts need a degree k >= 1, got k={k}")


def linnik_bound(k: int, p: int) -> int:
    """k! p^(k(k-1)/2), the residue-count ceiling: a theorem for a prime p > k."""
    _check_field(p, k)
    return factorial(k) * p ** (k * (k - 1) // 2)


def linnik_count(k: int, p: int, residues) -> int:
    """Number of k-tuples of residues mod p^k, pairwise distinct mod p,
    whose degree-j power sums hit the target residues mod p^j."""
    _need_degree(k)
    residues = list(residues)
    if len(residues) != k:
        raise ValueError("need one target residue per degree")
    counts = _power_sum_distribution(k, [(range(p**k), k, p)], [p**j for j in range(1, k + 1)])
    return int(counts[tuple(residues[j] % p ** (j + 1) for j in range(k))])


def linnik_max(k: int, p: int):
    """Exhaustive maximum of linnik_count over every target; with argmax."""
    _need_degree(k)
    counts = _power_sum_distribution(k, [(range(p**k), k, p)], [p**j for j in range(1, k + 1)])
    value = int(counts.max())
    if value == 0:
        return 0, None
    # ties go to the lexicographically largest target, the last in row-major order
    return value, [int(r[-1]) for r in (counts == value).nonzero()]


# -- the iteration bound --------------------------------------------------------


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least strong pseudoprime to all of _WITNESSES (Sorenson-Webster 2015)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Exact primality for n below _MR_LIMIT (about 3.3e24).

    Trial division by the primes up to 41 settles every n below 43^2;
    larger n take Miller-Rabin with those primes as witnesses, which has
    no false positive below _MR_LIMIT.  Larger n raise ValueError rather
    than risk accepting a composite.
    """
    if n >= _MR_LIMIT:
        raise ValueError(f"primality of {n} is only decided below {_MR_LIMIT}")
    if n < 2:
        return False
    for p in _WITNESSES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _check_field(q: int, k: int) -> None:
    """Refuse anything but a prime q > k >= 1, where the field and Linnik's
    bound live: q > k makes every j! with j <= k a unit."""
    if not (1 <= k < q and _is_prime(q)):
        raise ValueError(f"need a prime q > k >= 1, got q={q}, k={k}")


def smallest_prime_in(lo: Fraction, hi: Fraction):
    n = max(2, -(-lo.numerator // lo.denominator))  # ceil
    while n <= hi:
        if _is_prime(n):
            return n
        n += 1
    return None


@dataclass
class KaratsubaTrace:
    """Upper-bound value plus the per-step factors of the iteration."""

    s: int
    k: int
    X: Fraction
    bound: Fraction
    steps: list[dict] = field(default_factory=list)

    def to_json(self) -> dict:
        try:
            bound_float = float(self.bound)
        except OverflowError:  # past the float range; ``bound`` stays exact
            bound_float = None
        return {
            "s": self.s,
            "k": self.k,
            "X": str(self.X),
            "bound": str(self.bound),
            "bound_float": bound_float,
            "steps": [
                {key: (str(v) if isinstance(v, Fraction) else v) for key, v in step.items()}
                for step in self.steps
            ],
            "warnings": [],  # the prime search never widens its range (Bertrand)
        }


def karatsuba_bound(s: int, k: int, X) -> KaratsubaTrace:
    """Iterated upper bound for the solution count, with full trace.

    Each step at s' = s, s-k, ..., k+1 picks the least prime p in
    [ceil(X'^(1/k)), 2 ceil(X'^(1/k))] (one exists by Bertrand's postulate)
    and multiplies the factor p^(2s'-2k) X'^k p^(k(k-1)/2), going on with
    X' / p; the base case s' = k is k! X'^k from the Newton-Girard multiset
    argument, with X' read as at least 1.  Requires s to be a multiple of k.
    """
    if s % k != 0 or s < k:
        raise ValueError(f"iteration needs s a positive multiple of k, got s={s}, k={k}")
    X = Fraction(X)
    if X < 1:
        raise ValueError("X must be at least 1")
    trace = KaratsubaTrace(s=s, k=k, X=X, bound=Fraction(1))
    X_cur = X
    for s_cur in range(s, k, -k):
        X_eff = max(X_cur, Fraction(1))
        lo = _nth_root_ceil(X_eff, k)
        p = smallest_prime_in(Fraction(lo), Fraction(2 * lo))
        union, residue, choice = Fraction(p) ** (2 * s_cur - 2 * k), Fraction(p) ** (k * (k - 1) // 2), X_eff**k
        factor = union * choice * residue
        trace.steps.append({"s": s_cur, "X": X_cur, "prime": p, "union_bound_factor": union,
                            "residue_factor": residue, "choice_factor": choice, "factor": factor,
                            "base_case": False})
        trace.bound *= factor
        X_cur /= p
    base = Fraction(factorial(k)) * max(X_cur, Fraction(1)) ** k
    trace.steps.append({"s": k, "X": X_cur, "base_case": True, "factor": base})
    trace.bound *= base
    return trace


def _nth_root_ceil(x: Fraction, n: int) -> int:
    """ceil(x^(1/n)) for a nonnegative rational."""
    if x < 0:
        raise ValueError("negative radicand")
    lo, hi = 0, 1
    while Fraction(hi) ** n < x:
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if Fraction(mid) ** n < x:
            lo = mid
        else:
            hi = mid
    return max(1, hi)


def karatsuba_exponent_trace(s: int, k: int):
    """Symbolic exponent of X after running the iteration with p = X^(1/k).

    The exponent is s + T(2s) for the decoupling iteration's T: the base
    case k! X^k gives T(2k) = 0 and each step is one ``exponents.rung`` with
    no loss.  Returns (exponent, steps), the steps being T(2k), T(4k), ...,
    T(2s), one per rung; all arithmetic is exact rational.
    """
    if s % k != 0 or s < k:
        raise ValueError(f"iteration needs s a positive multiple of k, got s={s}, k={k}")
    fk = Fraction(k)  # rung is exact on Fractions
    steps = list(accumulate(range(2, s // k + 1), lambda T, j: rung(fk, 2 * j * fk, T, 0), initial=Fraction(0)))
    return s + steps[-1], steps


def classical_iteration_exponent(s: int, k: int) -> Fraction:
    """Closed form 2s - k(k+1)/2 + (k^2/2)(1-1/k)^(s/k) for s a multiple of k."""
    if s % k != 0 or s < k:
        raise ValueError("closed form needs s a positive multiple of k")
    l = s // k
    return 2 * s - Fraction(k * (k + 1), 2) + Fraction(k**2, 2) * Fraction(k - 1, k) ** l
