import random
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentlab import errors, vinogradov
from momentlab.errors import BudgetExceededError
from momentlab.exponents import FLOAT_TOL, supercritical_slack
from momentlab.qadic import QRational
from momentlab.vinogradov import (
    KaratsubaTrace,
    classical_iteration_exponent,
    count_J,
    count_J_congruence,
    count_J_nested,
    count_power_sum_congruences,
    elementary_from_roots,
    karatsuba_bound,
    karatsuba_exponent_trace,
    linnik_bound,
    linnik_count,
    linnik_max,
    newton_girard,
    smallest_prime_in,
)


def brute_keys(k, tuples, moduli=None):
    """Multiplicities of the power-sum vectors of the given tuples, by plain loops."""
    counts = {}
    for tup in tuples:
        key = tuple(sum(v**j for v in tup) for j in range(1, k + 1))
        if moduli is not None:
            key = tuple(c % m for c, m in zip(key, moduli))
        counts[key] = counts.get(key, 0) + 1
    return counts


def brute_restricted(s, k, X, p, a):
    """count_J_congruence's side tuples, filtered from all s-tuples."""
    head = min(s, k)
    for tup in product(range(1, X + 1), repeat=s):
        if len({v % p for v in tup[:head]}) < head:
            continue
        if a is not None and any(v % p != a % p for v in tup[head:]):
            continue
        yield tup


def brute_linnik(k, p):
    tuples = (t for t in product(range(p**k), repeat=k) if len({v % p for v in t}) == k)
    return brute_keys(k, tuples, [p**j for j in range(1, k + 1)])


# (k, p) small enough to enumerate all (p^k)^k residue tuples in a test
LINNIK_SMALL = ((1, 2), (1, 5), (2, 2), (2, 3), (2, 5), (2, 7), (3, 2), (3, 3))


class TestAgainstBruteForce:
    """The power-sum distribution against plain enumeration of every tuple."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 5))
    def test_count_J(self, s, k, X):
        expected = sum(m * m for m in brute_keys(k, product(range(1, X + 1), repeat=s)).values())
        assert count_J(s, k, X) == expected == count_J_nested(s, k, X)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 4),
        st.integers(1, 3),
        st.integers(1, 7),
        st.sampled_from([2, 3, 5, 7]),
        st.one_of(st.none(), st.integers(0, 9)),
    )
    def test_count_J_congruence(self, s, k, X, p, a):
        expected = sum(m * m for m in brute_keys(k, brute_restricted(s, k, X, p, a)).values())
        assert count_J_congruence(s, k, X, p, a) == expected

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 6), st.data())
    def test_count_power_sum_congruences(self, s, base, data):
        k = data.draw(st.integers(1, 3))
        moduli = data.draw(st.lists(st.integers(1, 12), min_size=k, max_size=k))
        keys = brute_keys(k, product(range(base), repeat=s), moduli)
        assert count_power_sum_congruences(s, k, base, moduli) == sum(m * m for m in keys.values())

    @pytest.mark.parametrize("k,p", LINNIK_SMALL)
    def test_linnik_count_on_every_target(self, k, p):
        keys = brute_linnik(k, p)
        for target in product(*(range(p**j) for j in range(1, k + 1))):
            assert linnik_count(k, p, target) == keys.get(target, 0)

    @pytest.mark.parametrize("k,p", LINNIK_SMALL)
    def test_linnik_max_and_tie_break(self, k, p):
        keys = brute_linnik(k, p)
        if not keys:
            assert linnik_max(k, p) == (0, None)
            return
        # the largest count; among equal counts, the largest target
        key, value = max(keys.items(), key=lambda kv: (kv[1], kv[0]))
        assert linnik_max(k, p) == (value, list(key))


class TestPrimality:
    def test_matches_trial_division_and_rejects_strong_pseudoprimes(self):
        def trial(n):
            return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

        assert all(vinogradov._is_prime(n) == trial(n) for n in range(-2, 20000))
        for n in (3215031751, 2152302898747, 3474749660383, 341550071728321, 3825123056546413051):
            assert not vinogradov._is_prime(n)
        assert vinogradov._is_prime(2**61 - 1) and not vinogradov._is_prime((2**61 - 1) * 1000003)

    def test_refuses_past_the_exact_bound(self):
        # the bound is a composite that every witness passes
        def strong_probable_prime(n, a):
            d, s = n - 1, 0
            while d % 2 == 0:
                d, s = d // 2, s + 1
            x = pow(a, d, n)
            if x == 1:
                return True
            for _ in range(s):
                if x == n - 1:
                    return True
                x = x * x % n
            return False

        limit = vinogradov._MR_LIMIT
        assert limit == 1287836182261 * 2575672364521
        assert all(strong_probable_prime(limit, a) for a in vinogradov._WITNESSES)
        for n in (limit, limit + 2, 2**89 - 1):
            with pytest.raises(ValueError, match="only decided below"):
                vinogradov._is_prime(n)


class TestExactCounts:
    def test_single_pair_is_diagonal(self):
        for k in (2, 3, 4):
            for X in (1, 3, 11):
                assert count_J(1, k, X) == X

    def test_two_pairs_degree_two_closed_form(self):
        assert count_J(2, 2, 2) == 6
        for X in range(1, 31):
            assert count_J(2, 2, X) == 2 * X * X - X

    def test_multiset_bound_at_the_base(self):
        for X in range(1, 13):
            v = count_J(3, 3, X)
            assert X**3 <= v <= 6 * X**3

    def test_strategies_agree(self):
        for s, k, X in ((2, 2, 5), (2, 3, 3), (3, 2, 3), (1, 4, 6)):
            assert count_J(s, k, X) == count_J_nested(s, k, X)

    def test_monotone_in_X_and_s(self):
        values = [count_J(2, 2, X) for X in range(1, 10)]
        assert values == sorted(values)
        for X in (2, 3, 4):
            assert count_J(3, 2, X) >= count_J(2, 2, X)

    def test_diagonal_lower_bound(self):
        for s, k, X in ((2, 2, 4), (3, 2, 3), (2, 3, 3)):
            assert count_J(s, k, X) >= X**s

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            count_J(8, 2, 100, budget=1000)


class TestCongruenceCounts:
    def test_no_pinned_block_when_s_equals_k(self):
        # just the distinctness filter on both sides
        v = count_J_congruence(2, 2, 4, 5)
        assert v <= count_J(2, 2, 4)

    def test_restriction_shrinks_counts(self):
        rng = random.Random(0)
        for _ in range(10):
            s, k = rng.choice([(2, 2), (3, 2)])
            X = rng.randint(2, 6)
            p = rng.choice([3, 5])
            a = rng.randrange(p)
            assert count_J_congruence(s, k, X, p, a) <= count_J(s, k, X)

    def test_exact_value_against_independent_loop(self):
        s, k, X, p = 3, 2, 6, 5
        from itertools import product

        def side_keys(a):
            out = {}
            for tup in product(range(1, X + 1), repeat=s):
                if len({tup[0] % p, tup[1] % p}) != 2:
                    continue
                if a is not None and any(v % p != a % p for v in tup[2:]):
                    continue
                key = tuple(sum(v**j for v in tup) for j in (1, 2))
                out[key] = out.get(key, 0) + 1
            return out

        for a in (None, 2):
            keys = side_keys(a)
            expected = sum(m * m for m in keys.values())
            assert count_J_congruence(s, k, X, p, a) == expected

    def test_pinning_only_shrinks(self):
        # reported side by side; the only guaranteed relation is domination
        s, k, X, p = 3, 2, 9, 3
        unpinned = count_J_congruence(s, k, X, p)
        for a in range(p):
            assert count_J_congruence(s, k, X, p, a) <= unpinned

    def test_power_sum_congruence_kernel(self):
        # s = 1: pairs (a, b) in [0, n)^2 with a = b mod each modulus
        assert count_power_sum_congruences(1, 1, 9, [9]) == 9
        assert count_power_sum_congruences(1, 1, 9, [3]) == 27

    @staticmethod
    def both_paths(k, blocks, moduli):
        """The residue distribution by the sparse path (a dict) and by the dense path (an array)."""
        out = []
        for bound in (0, float("inf")):  # forces the sparse, then the dense path
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(vinogradov, "_multiset_bound", lambda blocks: bound)
                out.append(vinogradov._power_sum_distribution(k, blocks, moduli))
        assert type(out[0]) is dict and out[1].shape == tuple(moduli)
        return out

    @staticmethod
    def occupied(dense):
        return {cell: int(m) for cell, m in np.ndenumerate(dense) if m}

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 8), st.data())
    def test_sparse_and_dense_residue_paths_agree(self, s, base, data):
        k = data.draw(st.integers(1, 3))
        moduli = data.draw(st.lists(st.integers(1, 30), min_size=k, max_size=k))
        blocks = [(range(base), s, None)]
        if data.draw(st.booleans()):  # first a block of values distinct mod p, Linnik's shape
            size, n = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 3))
            blocks.insert(0, (range(size), n, data.draw(st.sampled_from([2, 3, 5]))))
        sparse, dense = self.both_paths(k, blocks, moduli)
        assert sparse == self.occupied(dense)

    def test_linnik_distributions_agree_on_both_paths(self):
        for k, p in ((2, 3), (2, 7), (3, 5)):
            sparse, dense = self.both_paths(k, [(range(p**k), k, p)], [p**j for j in range(1, k + 1)])
            assert sparse == self.occupied(dense) and max(sparse.values()) == linnik_max(k, p)[0]

    def test_paths_agree_past_int64(self):
        # 8^21 = 2^63 tuples: the dense array holds Python integers
        sparse, dense = self.both_paths(1, [(range(8), 21, None)], [9])
        assert dense.dtype == object and sparse == self.occupied(dense) and sum(sparse.values()) == 8**21

    def test_sparse_residues_when_moduli_dwarf_the_tuples(self):
        # 49^2 pairs of values against 7^8 residue cells
        tracemalloc.start()
        try:
            value = count_power_sum_congruences(2, 2, 49, [7**4] * 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        keys = brute_keys(2, product(range(49), repeat=2), [7**4] * 2)
        assert value == sum(m * m for m in keys.values())
        assert peak < 5_000_000


class TestNewtonGirard:
    def test_first_identity(self):
        assert newton_girard([7]) == [7]

    def test_small_examples(self):
        assert newton_girard([3, 5]) == [3, 2]
        assert newton_girard([6, 14, 36]) == [6, 11, 6]

    def test_expansion_oracle(self):
        assert elementary_from_roots([1, 2, 3]) == [6, 11, 6]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(-8, 8), min_size=1, max_size=5))
    def test_against_expansion(self, roots):
        p = [sum(r**j for r in roots) for j in range(1, len(roots) + 1)]
        assert newton_girard(p) == elementary_from_roots(roots)

    def test_exact_ring_arithmetic(self):
        roots = [QRational(5, 2), QRational(5, 7)]
        p = [roots[0] + roots[1], roots[0] ** 2 + roots[1] ** 2]
        e = newton_girard(p)
        assert e[0] == QRational(5, 9) and e[1] == QRational(5, 14)

    def test_noninvertible_division_rejected(self):
        with pytest.raises(ValueError):
            newton_girard([QRational(3, 1), QRational(3, 2)])


class TestLinnik:
    def test_degree_one_is_unique(self):
        assert linnik_max(1, 5)[0] == 1 == linnik_bound(1, 5)

    @pytest.mark.parametrize("k, p", [(2, 2), (3, 3), (3, 2), (2, 4)])
    def test_bound_needs_a_prime_above_the_degree(self, k, p):
        # the counts stay exact at any p (the brute-force tests cover p <= k), but
        # k! p^(k(k-1)/2) is a theorem only for a prime p > k: linnik_max(2, 2) is 8
        with pytest.raises(ValueError, match=f"need a prime q > k >= 1, got q={p}, k={k}"):
            linnik_bound(k, p)

    def test_field_rule_is_one_check(self):
        import ast
        from pathlib import Path

        from momentlab.decoupling import counting_lemma_exhaustive
        from momentlab.verify import run_all

        for call in (lambda: counting_lemma_exhaustive(4, 2, 2, 1), lambda: counting_lemma_exhaustive(3, 3, 2, 1),
                     lambda: next(run_all(3, 0)), lambda: next(run_all(9, 2))):
            with pytest.raises(ValueError, match="need a prime q > k >= 1"):
                call()
        src = Path(__file__).resolve().parents[1] / "src" / "momentlab"
        written = [path.name for path in sorted(src.glob("*.py"))
                   for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                   if isinstance(node, ast.Constant) and isinstance(node.value, str) and "need a prime" in node.value]
        assert written == ["vinogradov.py"]

    @pytest.mark.parametrize("k", [0, -1])
    def test_degree_below_one_refused(self, k):
        for call in (lambda: linnik_bound(k, 3), lambda: linnik_count(k, 3, []), lambda: linnik_max(k, 3)):
            with pytest.raises(ValueError, match=f"k={k}"):
                call()

    def test_exhaustive_maxima_under_the_bound(self):
        for k, p in ((2, 3), (2, 5)):
            value, argmax = linnik_max(k, p)
            assert value <= linnik_bound(k, p)
            assert linnik_count(k, p, argmax) == value

    def test_specific_bound_values(self):
        assert linnik_bound(2, 3) == 6
        assert linnik_bound(2, 5) == 10
        assert linnik_bound(3, 5) == 750

    def test_count_matches_direct_enumeration(self):
        from itertools import product

        k, p = 2, 3
        H = [1, 2]
        direct = 0
        for tup in product(range(p**k), repeat=k):
            if tup[0] % p == tup[1] % p:
                continue
            if (tup[0] + tup[1]) % p == H[0] % p and (tup[0] ** 2 + tup[1] ** 2) % p**2 == H[1] % p**2:
                direct += 1
        assert linnik_count(k, p, H) == direct

    def test_budget_guard(self, monkeypatch):
        monkeypatch.setattr(errors, "OPERATION_BUDGET", 1000)
        with pytest.raises(BudgetExceededError):
            linnik_max(3, 7)

    def test_degree_three_at_seven_within_the_default_budget(self):
        value, argmax = linnik_max(3, 7)
        assert 0 < value <= linnik_bound(3, 7)
        assert linnik_count(3, 7, argmax) == value


class TestKaratsuba:
    def test_base_case(self):
        trace = karatsuba_bound(2, 2, 5)
        assert trace.bound == 50
        assert trace.steps[0]["base_case"]

    def test_bound_dominates_exact_counts(self):
        for X in range(1, 21):
            for s in (2, 4, 6):
                assert karatsuba_bound(s, 2, X).bound >= count_J(s, 2, X)

    def test_prime_selection_window(self):
        assert smallest_prime_in(Fraction(3), Fraction(6)) == 3
        assert smallest_prime_in(Fraction(24), Fraction(28)) is None

    def test_every_step_prime_is_in_bertrands_window_and_the_bound_is_the_product(self):
        for k in range(1, 5):
            for s in range(k, 6 * k + 1, k):
                for X in (1, 2, 7, 100, 12345, 10**6, 10**9 + 7, 10**12):
                    trace = karatsuba_bound(s, k, X)
                    total, X_cur = Fraction(1), Fraction(X)
                    for step in trace.steps:
                        assert step["X"] == X_cur
                        total *= step["factor"]
                        if step["base_case"]:
                            continue
                        # lo = ceil(X_eff^(1/k)) is the least integer whose k-th power reaches X_eff, so
                        # lo <= p <= 2 lo says p^k >= X_eff > (ceil(p/2) - 1)^k
                        p, X_eff = step["prime"], max(X_cur, Fraction(1))
                        assert p**k >= X_eff > ((p + 1) // 2 - 1) ** k and vinogradov._is_prime(p)
                        assert step["union_bound_factor"] == p ** (2 * step["s"] - 2 * k)
                        assert step["residue_factor"] == p ** (k * (k - 1) // 2) and step["choice_factor"] == X_eff**k
                        assert step["factor"] == step["union_bound_factor"] * step["residue_factor"] * X_eff**k
                        X_cur /= p
                    assert [(st["s"], st["base_case"]) for st in trace.steps] == [
                        (s_cur, s_cur == k) for s_cur in range(s, 0, -k)]
                    assert trace.bound == total

    def test_trace_records_primes_and_factors(self):
        trace = karatsuba_bound(6, 2, 30)
        primes = [s["prime"] for s in trace.steps if not s["base_case"]]
        assert len(primes) == 2
        assert all(p >= 2 for p in primes)
        as_json = trace.to_json()
        assert as_json["steps"][0]["prime"] == primes[0]

    def test_non_multiple_s_rejected(self):
        with pytest.raises(ValueError):
            karatsuba_bound(3, 2, 10)

    def test_symbolic_exponent_matches_closed_form(self):
        # and the dictionary: less s, it is the decoupling slack at p = 2s with c0 = k^2/2
        for k in range(2, 7):
            for l in range(1, 11):
                got, steps = karatsuba_exponent_trace(k * l, k)
                assert got == classical_iteration_exponent(k * l, k)
                assert abs(float(got - k * l) - supercritical_slack(k, Fraction(k * k, 2), 2 * k * l)) <= FLOAT_TOL
                assert len(steps) == l

    def test_hand_unrolled_degree_two_chain(self):
        # s = 8, k = 2: steps contribute (2s'-4)/2 + 2 + 1/2 at shrinking scales
        exponent, steps = karatsuba_exponent_trace(8, 2)
        shrink = [Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)]
        by_hand = (
            (Fraction(6) + Fraction(5, 2)) * shrink[0]
            + (Fraction(4) + Fraction(5, 2)) * shrink[1]
            + (Fraction(2) + Fraction(5, 2)) * shrink[2]
            + Fraction(2) * shrink[3]
        )
        assert exponent == by_hand == Fraction(105, 8)
