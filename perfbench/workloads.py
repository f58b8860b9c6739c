"""Seeded inputs and fixed task lists for the four workloads.

Every input is made from the ``--seed`` argument during set-up; the program
only sees those inputs.  Fixture and counting tasks go through
``momentlab.cli.main([..., "--output", path])``, the path a user takes; the
suite tasks call the public ``momentlab.verify`` functions.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random

WORKLOADS = ("decoupling-fixtures", "tiles-packets", "counting", "transform-oracle")

# n_intervals of each decoupling fixture (q=3, k=2, delta=3^-2).  Each
# fixture is drawn at random but kept only in its n's most common class:
# 2n terms, cell scale 0, and the modal number of coarse parents.  Those
# three properties fix how many cells reverse-square evaluates, so a pass
# costs about the same for every seed.  n stays small to keep a pass near
# 8 s: reverse-square time grows by about 0.5 s per interval (9 s at n=9).
# The one n=2 fixture has two coarse parents, so its reverse-square also
# runs the broad transverse sum.
FIXTURE_SLOTS = (1,) * 11 + (2,)

TILINGS = ((3, 2, 1), (3, 2, 2), (3, 2, 3), (5, 2, 1), (5, 2, 2), (5, 3, 1))
# wavepackets_suite draws the interval, then the term count (1-4), of its
# one instance; pigeonhole-report draws its 3 of the 9 fine intervals.
# Seeds are kept to a fixed term mix, and to intervals under two coarse
# parents (the common case), so the cost does not depend on the seed.
PACKET_TERMS = (1, 2, 3, 4, 2, 3)  # per delta exponent
PIGEONHOLE_SEEDS = 12
# oracle_agreement instances per (q, k): ORACLE_MIX[heavy][scale] instances
# for each pair of term counts (1-4 for the first function, 1-3 for the
# second), the draws that set an instance's grid and term work.  A seed's
# class is found by replaying those draws.  (5,3) is heavy (q^(3k) is above
# the suite's grid limit, so it draws scales from [1,1,1,2,2,2,2,3]) and is
# weighted to scale 3 so that the tail percentile (the 12th slowest of 288
# tasks) falls in the middle of one class.
ORACLE_PAIRS = ((3, 1), (3, 2), (3, 3), (5, 2), (5, 3))
ORACLE_HEAVY = {(5, 3)}
ORACLE_MIX = {False: {1: 2, 2: 2, 3: 1}, True: {1: 1, 2: 1, 3: 2}}

# count-vinogradov sizes: (s, k, X, p) run plain and with a seeded residue mod p
COUNTS = ((4, 2, 10, 5), (3, 3, 15, 7), (4, 3, 9, 5), (2, 2, 60, 7), (3, 2, 20, 5), (2, 3, 40, 7))
LINNIK_EXHAUSTIVE = ((2, 3), (2, 5), (2, 7), (3, 5))
# (p, tasks) of linnik --k 2 --residues with seeded targets; the eight
# equal-cost p=13 tasks hold the tail percentile (the 11th slowest of 45
# tasks), which would otherwise fall between unequal tasks.
LINNIK_TARGETS = ((7, 2), (11, 2), (13, 8))
KARATSUBA = ((4, 2), (6, 3), (6, 2), (8, 2))

VERDICT_KEYS = ("holds", "passed", "recursion_holds", "broad_holds")
FLOAT_TOL = 1e-9  # relative, floored at 1 as in ModulatedStep.close_to


def _modulation_valuations(fixture: dict):
    for term in fixture["terms"]:
        for text in term["modulation"]:
            if text != "0":
                yield int(text.split("^")[1]) if "*" in text else 0


def fixture_properties(fixture: dict) -> dict:
    """Terms, support cubes and cell scale, read from the fixture JSON."""
    scale = max(t["cube"]["scale_exp"] for t in fixture["terms"])
    cubes = {json.dumps(t["cube"], sort_keys=True) for t in fixture["terms"]}
    cell_scale = max([scale] + [-v for v in _modulation_valuations(fixture)])
    return {"terms": len(fixture["terms"]), "support_cubes": len(cubes), "cell_scale": cell_scale}


def _fixture(rng: random.Random, n: int) -> dict:
    """A curve-supported function over n fine intervals, in its modal class."""
    from momentlab.geometry import unit_interval
    from momentlab.random_instances import random_box_function
    from momentlab.stepfn import ModulatedStep

    q, k, delta_exp = 3, 2, 2
    fine = unit_interval(q).partition(delta_exp)
    while True:
        chosen = rng.sample(fine, n)
        if len({K.parent(1) for K in chosen}) != min(n, 2):
            continue
        f = ModulatedStep.zero(q, k)
        for K in chosen:
            f = f + random_box_function(rng, q, k, K, 2)
        obj = f.to_json()
        props = fixture_properties(obj)
        if props["terms"] == 2 * n and props["cell_scale"] == 0:
            return obj


def _cli(task_id: str, *argv) -> dict:
    return {"id": task_id, "kind": "cli", "argv": [str(a) for a in argv]}


def _suite(task_id: str, fn: str, *args, **kwargs) -> dict:
    return {"id": task_id, "kind": "suite", "fn": fn, "args": list(args), "kwargs": kwargs}


def tuples_J(s: int, k: int, X: int) -> int:
    """s-tuples count_J enumerates, by its budget formula."""
    return X**s


def tuples_J_congruence(s: int, k: int, X: int, p: int, a=None) -> int:
    """Tuples count_J_congruence enumerates, by its budget formula."""
    tail = X if a is None else sum(1 for n in range(1, X + 1) if n % p == a % p)
    return X ** min(s, k) * max(1, tail) ** max(0, s - k)


def tuples_linnik(k: int, p: int) -> int:
    """Residue k-tuples linnik_count and linnik_max enumerate, by their budget formula."""
    return (p**k) ** k


def _count_tuples(s, k, X, p=None, a=None):
    """Tuples one count-vinogradov task enumerates."""
    total = tuples_J(s, k, X)
    if p is not None:
        total += tuples_J_congruence(s, k, X, p)
    if a is not None:
        total += tuples_J_congruence(s, k, X, p, a)
    return total


def _seed_where(rng: random.Random, accept) -> int:
    """The first seed from rng whose own generator passes accept."""
    while True:
        s = rng.randrange(2**31)
        if accept(random.Random(s)):
            return s


def _oracle_class(seed: int, q: int, k: int, scales) -> tuple[int, int, int]:
    """(scale, first terms, second terms) of oracle_agreement's instance for a seed.

    Mirrors the suite's draws: the scale, the first function's term count,
    random_modstep's draws for it (k corner digits, k modulation digits and
    two Gaussians per term), then the second function's term count.
    """
    d = random.Random(seed)
    scale = d.choice(scales)
    n_first = d.randint(1, 4)
    for _ in range(n_first):
        for _ in range(2 * k):
            d.randrange(q**scale)
        d.gauss(0, 1)
        d.gauss(0, 1)
    return scale, n_first, d.randint(1, 3)


def _oracle_seeds(rng: random.Random, q: int, k: int) -> list[int]:
    """Instance seeds filling ORACLE_MIX for one (q, k)."""
    heavy = (q, k) in ORACLE_HEAVY
    scales = [1, 1, 1, 2, 2, 2, 2, 3] if heavy else [1, 1, 2, 2, 3]
    want = {(scale, nf, ng): n for scale, n in ORACLE_MIX[heavy].items()
            for nf in range(1, 5) for ng in range(1, 4)}
    seeds = []
    while any(want.values()):
        s = rng.randrange(2**31)
        cls = _oracle_class(s, q, k, scales)
        if want[cls]:
            want[cls] -= 1
            seeds.append(s)
    return seeds


def build(workload: str, seed: int, workdir: str):
    """(tasks, input properties) for one workload and seed; writes fixtures to workdir."""
    rng = random.Random(f"{workload}:{seed}")
    tasks: list[dict] = []
    props: dict = {}
    if workload == "decoupling-fixtures":
        fixtures = []
        for i, n in enumerate(FIXTURE_SLOTS):
            obj = _fixture(rng, n)
            path = os.path.join(workdir, f"fixture{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
            fixtures.append({"n_intervals": n, **fixture_properties(obj)})
            tasks.append(_cli(f"ratio/{i}", "ratio", "--input", path, "--p", 8, "--delta-exp", 2))
            tasks.append(_cli(f"main-lemma/{i}", "main-lemma", "--input", path, "--p", 8, "--delta-exp", 2))
            tasks.append(_cli(f"reverse-square/{i}", "reverse-square", "--input", path,
                              "--delta-exp", 2, "--kappa-exp", 1))
        props["fixtures"] = fixtures
    elif workload == "tiles-packets":
        for q, k, m in TILINGS:
            tasks.append(_suite(f"tilings/{q},{k},{m}", "tilings", q, k, delta_exps=[m]))
        for m in (1, 2):
            for i, terms in enumerate(PACKET_TERMS):
                s = _seed_where(rng, lambda d: (d.choice(range(3**m)), d.randint(1, 4))[1] == terms)
                tasks.append(_suite(f"wavepackets/{m}/{i}", "wavepackets_suite", 3, 2, delta_exps=[m],
                                    n_instances=1, seed=s))
        for i in range(PIGEONHOLE_SEEDS):
            # fine interval j (digit order) has coarse parent j mod 3
            s = _seed_where(rng, lambda d: len({j % 3 for j in d.sample(range(9), 3)}) == 2)
            tasks.append(_cli(f"pigeonhole/{i}", "pigeonhole-report", "--q", 3, "--k", 2,
                              "--delta-exp", 2, "--seed", s))
        props["tilings"] = [{"q": q, "k": k, "delta_exp": m, "residues": q ** (m * (k - 1) * k)}
                            for q, k, m in TILINGS]
    elif workload == "counting":
        sizes = []

        def count(s, k, X, p=None, a=None):
            argv = ["count-vinogradov", "--s", s, "--k", k, "--X", X]
            argv += ["--mod-p", p] if p is not None else []
            argv += ["--residue", a] if a is not None else []
            tasks.append(_cli(f"count-vinogradov/{s},{k},{X},{p},{a is not None}", *argv))
            sizes.append({"task": tasks[-1]["id"], "tuples": _count_tuples(s, k, X, p, a)})

        count(5, 2, 12)
        count(3, 2, 30)
        count(3, 3, 25)
        count(4, 2, 15, 3)
        count(4, 2, 12, 3, rng.randrange(3))
        count(3, 3, 20, 5, rng.randrange(5))
        for s, k, X, p in COUNTS:
            count(s, k, X)
            count(s, k, X, p, rng.randrange(p))
        for k, p in LINNIK_EXHAUSTIVE:
            tasks.append(_cli(f"linnik/{k},{p}", "linnik", "--k", k, "--p", p, "--exhaustive"))
            sizes.append({"task": tasks[-1]["id"], "tuples": tuples_linnik(k, p)})
        for p, n in LINNIK_TARGETS:
            for i in range(n):
                targets = [rng.randrange(p), rng.randrange(p * p)]
                tasks.append(_cli(f"linnik/2,{p}/targets{i}", "linnik", "--k", 2, "--p", p,
                                  "--residues", *targets))
                sizes.append({"task": tasks[-1]["id"], "tuples": tuples_linnik(2, p)})
        for s, k in KARATSUBA:
            for i in range(2):
                X = rng.randrange(50, 5000)
                tasks.append(_cli(f"karatsuba/{s},{k}/{i}", "karatsuba", "--s", s, "--k", k, "--X", X))
        for q in (3, 5, 7):
            tasks.append(_cli(f"counting-lemma/{q}", "counting-lemma", "--q", q, "--k", 2,
                              "--delta-exp", 2, "--kappa-exp", 1))
        props["enumerations"] = sizes
    elif workload == "transform-oracle":
        for q, k in ORACLE_PAIRS:
            for i, s in enumerate(_oracle_seeds(rng, q, k)):
                tasks.append(_suite(f"oracle/{q},{k}/{i}", "oracle_agreement", q, k, n_instances=1, seed=s))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return tasks, props


def run_task(task: dict, out_path: str):
    """Run one task; returns its output (a dict) or raises."""
    if task["kind"] == "cli":
        from momentlab import cli

        code = cli.main(task["argv"] + ["--output", out_path])
        if code != 0:
            raise RuntimeError(f"exit code {code}")
        with open(out_path, encoding="utf-8") as fh:
            return json.load(fh)
    from momentlab import verify

    report = getattr(verify, task["fn"])(*task["args"], **task["kwargs"])
    report = {key: value for key, value in report.items() if key != "runtime_s"}
    return json.loads(json.dumps(report, default=str))


def verdict_failures(output: dict) -> list[str]:
    """Verdict flags the report itself gives that are not true."""
    return [key for key in VERDICT_KEYS if key in output and output[key] is not True]


def digest(output) -> list:
    """[sha256 of everything but the floats, the floats in document order].

    Integers, strings, booleans and the document's shape must match a
    reference exactly; the floats are compared with FLOAT_TOL.
    """
    floats: list[float] = []

    def strip(node):
        if isinstance(node, dict):
            return {key: strip(node[key]) for key in sorted(node)}
        if isinstance(node, list):
            return [strip(item) for item in node]
        if isinstance(node, float):
            floats.append(node)
            return "<float>"
        return node

    shape = json.dumps(strip(output), sort_keys=True, separators=(",", ":"))
    return [hashlib.sha256(shape.encode()).hexdigest(), floats]


def digest_matches(got: list, ref: list) -> bool:
    """True when got has ref's shape hash (as stored, possibly shortened) and close floats."""
    if not got[0].startswith(ref[0]) or len(got[1]) != len(ref[1]):
        return False
    for a, b in zip(got[1], ref[1]):
        if not (math.isfinite(a) and math.isfinite(b)):
            if not (a == b or (math.isnan(a) and math.isnan(b))):
                return False
        elif abs(a - b) > FLOAT_TOL * max(1.0, abs(a), abs(b)):
            return False
    return True
