"""Batch experiment runner: fixtures in, tables out.

Subcommands mirror the library: verify-all, count-vinogradov, linnik,
karatsuba, counting-lemma, ratio, main-lemma, reverse-square, exponents,
pigeonhole-report.  Reports are JSON (or CSV, with --format, for the
tables of count-vinogradov, karatsuba and exponents), embed the full
configuration and library version, state every float at 10 significant
digits, and are byte-identical for identical (configuration, seed) pairs.

Exit codes: 0 success, 2 usage error, 3 budget exhausted, 4 verification
failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
import time
from fractions import Fraction
from math import isqrt, log2

from . import __version__, errors
from .errors import BudgetExceededError, MomentLabError, VerificationError, check_budget
from .exponents import ExponentParams, bdg_sharp_exponent, iterate_D_bound, theorem_exponent
from .qadic import QRational
from .stepfn import ModulatedStep
from .vinogradov import (
    _check_field,
    _is_prime,
    count_J,
    count_J_congruence,
    karatsuba_bound,
    karatsuba_exponent_trace,
    classical_iteration_exponent,
    linnik_bound,
    linnik_count,
    linnik_max,
)
from .wavepackets import ScaleConfig, _check_split_budget, pigeonhole

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_VERIFICATION = 4


def _prime_check(value: str) -> int:
    n = int(value)
    try:
        prime = _is_prime(n)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not prime:
        raise argparse.ArgumentTypeError(f"{n} is not prime")
    return n


def _positive_int(value: str) -> int:
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError(f"{n} is not a positive integer")
    return n


def _fraction(value: str) -> Fraction:
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"{value!r} has a zero denominator") from None


@functools.cache  # one parser per process: parse_args does not change it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="momentlab",
        description="Exact q-adic moment-curve laboratory: counting, tilings, decoupling checks.",
    )
    parser.add_argument("--version", action="version", version=f"momentlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        p.add_argument("--output", help="write the report to this path (default stdout)")
        if seed:
            p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("verify-all", help="run the full desk-scale verification suite")
    p.add_argument("--q", type=_prime_check, required=True)
    p.add_argument("--k", type=int, required=True)
    common(p)

    p = sub.add_parser("count-vinogradov", help="exact solution counts of the power-sum system")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--X", type=int, required=True)
    p.add_argument("--mod-p", type=_prime_check, default=None)
    p.add_argument("--residue", type=int, default=None)
    p.add_argument("--budget", type=_positive_int, default=None)
    common(p, seed=False)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("linnik", help="residue counts with prescribed power sums")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--p", type=_prime_check, required=True)
    p.add_argument("--exhaustive", action="store_true", help="maximize over all targets")
    p.add_argument("--residues", type=int, nargs="*", default=None, help="target residues H_1..H_k")
    common(p, seed=False)

    p = sub.add_parser("karatsuba", help="iteration upper bound with trace")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--X", type=int, required=True)
    common(p, seed=False)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("counting-lemma", help="exhaustive transverse-tuple counting bound")
    p.add_argument("--q", type=_prime_check, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--delta-exp", type=int, required=True)
    p.add_argument("--kappa-exp", type=int, required=True)
    p.add_argument("--exhaustive", action="store_true", default=True)
    common(p, seed=False)

    p = sub.add_parser("ratio", help="decoupling ratio of a function fixture")
    p.add_argument("--input", required=True, help="JSON fixture with the function")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--delta-exp", type=int, required=True)
    common(p, seed=False)

    p = sub.add_parser("main-lemma", help="two-branch moment inequality on a fixture")
    p.add_argument("--input", required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--delta-exp", type=int, required=True)
    p.add_argument("--eps", type=_fraction, default=Fraction(1, 2))
    common(p, seed=False)

    p = sub.add_parser("reverse-square", help="reverse square-function ratio and recursion")
    p.add_argument("--input", required=True)
    p.add_argument("--delta-exp", type=int, required=True)
    p.add_argument("--kappa-exp", type=int, required=True)
    common(p, seed=False)

    p = sub.add_parser("exponents", help="sweep the claimed exponents over p")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--p0", type=int, required=True)
    p.add_argument("--c0", type=_fraction, required=True)
    p.add_argument("--eps", type=_fraction, required=True)
    p.add_argument("--p-max", type=int, required=True)
    p.add_argument("--trajectories", action="store_true", help="include numeric unrolls")
    common(p, seed=False)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("pigeonhole-report", help="bucket statistics of a random or fixture function")
    p.add_argument("--q", type=_prime_check, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--delta-exp", type=int, required=True)
    p.add_argument("--p", type=int, default=8)
    p.add_argument("--input", help="JSON fixture (otherwise a seeded random instance)")
    p.add_argument("--n-intervals", type=int, default=3)
    common(p)

    return parser


def _config_dict(args) -> dict:
    skip = {"output", "format"}
    return {
        key: (str(v) if isinstance(v, Fraction) else v)
        for key, v in sorted(vars(args).items())
        if key not in skip and v is not None
    }


def _load_fixture(path: str) -> ModulatedStep:
    """Read a function fixture; a malformed one raises ValueError (exit 2)."""
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError("fixture must be a JSON object")
    f = ModulatedStep.from_json(obj)
    _check_field(f.q, f.k)
    return f


def _stated(value):
    """``value`` with every float in it stated at 10 significant digits; lists, tuples and dicts are walked."""
    if isinstance(value, dict):
        return {key: _stated(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_stated(v) for v in value]
    return float(f"{value:.10g}") if isinstance(value, float) else value


def _emit(args, payload: dict, csv_rows=None, csv_header=None) -> None:
    """Write the report atomically, its floats ``_stated``; stdout when no output path is given."""
    payload = _stated({"version": __version__, "config": _config_dict(args), "threads": 1, **payload})
    if csv_rows is not None and args.format == "csv":  # only the tabular subcommands take --format
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["# momentlab", __version__])
        writer.writerow(["# config", json.dumps(payload["config"], sort_keys=True)])
        writer.writerow(csv_header)
        writer.writerows(_stated(csv_rows))
        text = buf.getvalue()
    else:
        text = json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n"
    if args.output:
        tmp = args.output + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, args.output)
    else:
        sys.stdout.write(text)


def _cmd_verify_all(args) -> None:
    from .verify import run_all

    reports = []
    t0 = time.perf_counter()
    for r in run_all(args.q, args.k, seed=args.seed):
        elapsed = time.perf_counter() - t0
        status = "BUDGET" if "budget_exceeded" in r else "PASS" if r["passed"] else "FAIL"
        print(f"{status}  {r['name']:<22} {elapsed:>8.2f}s", file=sys.stderr)
        reports.append(r)
        t0 = time.perf_counter()
    _emit(args, {"passed": all(r["passed"] for r in reports), "suites": reports})
    failed = [r["name"] for r in reports if r["failures"]]
    if failed:
        raise VerificationError(f"suites failed: {', '.join(failed)}")
    for r in reports:
        if "budget_exceeded" in r:
            check_budget(r["estimated"], r["budget"], f"suite {r['name']}: {r['budget_exceeded']}")


def _cmd_count_vinogradov(args) -> None:
    if args.residue is not None and args.mod_p is None:
        raise ValueError("--residue pins a residue mod p and needs --mod-p")
    payload = {"count": count_J(args.s, args.k, args.X, args.budget)}
    if args.mod_p is not None:
        payload["count_distinct_mod_p"] = count_J_congruence(args.s, args.k, args.X, args.mod_p, None, args.budget)
        if args.residue is not None:
            payload["count_pinned_residue"] = count_J_congruence(
                args.s, args.k, args.X, args.mod_p, args.residue, args.budget
            )
    rows = [[args.s, args.k, args.X, payload["count"],
             payload.get("count_distinct_mod_p", ""), payload.get("count_pinned_residue", "")]]
    _emit(args, payload, rows, ["s", "k", "X", "count", "count_distinct_mod_p", "count_pinned_residue"])


def _cmd_linnik(args) -> None:
    bound = linnik_bound(args.k, args.p)
    payload = {"bound": bound}
    if args.exhaustive or args.residues is None:
        value, argmax = linnik_max(args.k, args.p)
        payload.update({"max_count": value, "argmax_residues": argmax, "holds": value <= bound})
    if args.residues is not None:
        if len(args.residues) != args.k:
            raise ValueError(f"need exactly {args.k} residues")
        payload["count"] = linnik_count(args.k, args.p, args.residues)
        payload["holds"] = payload.get("holds", True) and payload["count"] <= bound
    _emit(args, payload)
    if not payload["holds"]:
        raise VerificationError(f"a residue count exceeds Linnik's bound {bound}")


def _cmd_karatsuba(args) -> None:
    trace = karatsuba_bound(args.s, args.k, args.X)
    exponent, steps = karatsuba_exponent_trace(args.s, args.k)
    payload = trace.to_json()
    payload["symbolic_exponent"] = str(exponent)
    payload["closed_form_exponent"] = str(classical_iteration_exponent(args.s, args.k))
    rows = [
        [st.get("s"), str(st.get("X")), st.get("prime", ""), str(st.get("factor"))]
        for st in trace.steps
    ]
    _emit(args, payload, rows, ["s", "X", "prime", "factor"])


def _cmd_counting_lemma(args) -> None:
    from .decoupling import counting_lemma_exhaustive

    _emit(args, counting_lemma_exhaustive(args.q, args.k, args.delta_exp, args.kappa_exp))


def _cmd_ratio(args) -> None:
    from .decoupling import decoupling_ratio

    _, rep = decoupling_ratio(_load_fixture(args.input), args.delta_exp, args.p)
    _emit(args, rep)


def _cmd_main_lemma(args) -> None:
    from .decoupling import verify_main_lemma

    f = _load_fixture(args.input)
    cfg = ScaleConfig.from_epsilon(f.q, f.k, args.delta_exp, args.eps)
    _emit(args, verify_main_lemma(f, cfg, args.p))


def _cmd_reverse_square(args) -> None:
    from .decoupling import reverse_square_check

    f = _load_fixture(args.input)
    _emit(args, reverse_square_check(f, args.delta_exp, args.kappa_exp))


def _cmd_exponents(args) -> None:
    params = ExponentParams(k=args.k, p0=args.p0, c0=args.c0, epsilon=args.eps)
    n_rows = max(0, (args.p_max - args.p0) // (2 * args.k) + 1)
    # a row costs about 40 us (400 operations); where 2k divides p, k^e and (k-1)^e (e = p/2k) add 7 us per 1000
    # bits b of k^e, plus 0.22 us * (b/1000)^1.75 for each not a power of two, charged to every row at the last
    # row's b; a trajectory unrolls n_rows (n_rows - 1) / 2 rungs in all, at about 18 us (180 operations) each
    bits = args.p_max // (2 * args.k) * round(1024 * log2(args.k)) // 1024 if args.p0 % (2 * args.k) == 0 else 0
    pows = sum(x & (x - 1) != 0 for x in (args.k, args.k - 1))
    exact = 70 * bits // 1000 + pows * 22 * bits * isqrt(bits) * isqrt(isqrt(bits)) // 1_778_279
    unrolled = 180 * (n_rows * (n_rows - 1) // 2) if args.trajectories else 0
    check_budget(n_rows * (400 + exact) + unrolled, errors.OPERATION_BUDGET,
                 "exponent sweep needs about {estimated} operations (budget {budget})")
    rows = []
    records = []
    p = args.p0
    while p <= args.p_max:
        te = theorem_exponent(params, p)
        record = {
            "p": p,
            "delta_exponent": te["delta_exponent"],
            "q_exponent": str(te["q_exponent"]),
            "bdg_sharp_exponent": -bdg_sharp_exponent(args.k, p),
        }
        if args.trajectories and p > args.p0:
            record["trajectory_delta_exponent"] = iterate_D_bound(params, p).final_delta_exponent
        records.append(record)
        rows.append([p, te["delta_exponent"], str(te["q_exponent"]), -bdg_sharp_exponent(args.k, p)])
        p += 2 * args.k
    _emit(args, {"rows": records}, rows, ["p", "delta_exponent", "q_exponent", "bdg_sharp_exponent"])


def _cmd_pigeonhole_report(args) -> None:
    if args.input:
        f = _load_fixture(args.input)
        q, k = f.q, f.k
        if args.q not in (None, q) or args.k not in (None, k):
            raise ValueError(f"--q/--k must match the fixture's q={q}, k={k} or be left out")
    elif args.q is None or args.k is None:
        raise ValueError("need --q and --k (or --input) for a random instance")
    else:
        q, k = args.q, args.k
    # the certificate builds the q^delta_exp fine intervals, and the split walks them: about 10 us
    # (100 operations) per interval
    check_budget(100 * q**args.delta_exp, errors.OPERATION_BUDGET,
                 "the fine intervals need about {estimated} operations (budget {budget})")
    cfg = ScaleConfig.from_epsilon(q, k, args.delta_exp, Fraction(1, 2))
    if not args.input:
        import random

        from .random_instances import random_curve_supported

        _check_split_budget(q, k, args.delta_exp)
        f = random_curve_supported(random.Random(args.seed), q, k, args.delta_exp, args.n_intervals, 2)
    buckets, remainder, info = pigeonhole(f, cfg, args.p)
    payload = {
        "buckets": [b.to_json() for b in buckets],
        "remainder_terms": len(remainder.terms),
        "H_star": info["H_star"],
        "remainder_lp": info["remainder_lp"],
        "remainder_bound": info["remainder_bound"],
        "n_buckets": info["n_buckets"],
        "class_bound": info["class_bound"],
    }
    _emit(args, payload)


_COMMANDS = {
    "verify-all": _cmd_verify_all,
    "count-vinogradov": _cmd_count_vinogradov,
    "linnik": _cmd_linnik,
    "karatsuba": _cmd_karatsuba,
    "counting-lemma": _cmd_counting_lemma,
    "ratio": _cmd_ratio,
    "main-lemma": _cmd_main_lemma,
    "reverse-square": _cmd_reverse_square,
    "exponents": _cmd_exponents,
    "pigeonhole-report": _cmd_pigeonhole_report,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _COMMANDS[args.command](args)
    except BudgetExceededError as exc:
        error = {"error": "budget-exceeded", "reason": str(exc), "estimated": exc.estimated, "budget": exc.budget}
        print(json.dumps(error), file=sys.stderr)
        return EXIT_BUDGET
    except MomentLabError as exc:
        print(json.dumps({"error": "verification-failure", "reason": str(exc)}), file=sys.stderr)
        return EXIT_VERIFICATION
    except (OSError, ValueError, ArithmeticError) as exc:
        # ArithmeticError: a fixture whose numbers overflow a float (say scale_exp -400)
        print(json.dumps({"error": "usage", "reason": str(exc)}), file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
