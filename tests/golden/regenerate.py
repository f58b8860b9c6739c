"""Write the sha256 digest of each pinned report to counting.json and decoupling.json.

    PYTHONPATH=src python3 tests/golden/regenerate.py

Run from the root of a source checkout.  Each command runs through
``momentlab.cli.main`` with ``--output`` and the digest is taken over the
file's bytes, which are the bytes the command prints without it.

counting.json follows the shapes of the benchmark's ``counting`` workload:
count-vinogradov plain, mod p and with a residue at k = 2 and 3,
exhaustive and targeted Linnik counts, Karatsuba traces and the counting
lemma at q = 3, 5 and 7.  decoupling.json pins reports that pass through
the frequency split and the wavepacket split: seeded pigeonhole reports at
(q, k) = (3, 2) with delta = 3^-2 (at p = 12 with a nonzero remainder,
and at p = 4 with none), and at (5, 2) with delta = 5^-1 and, at
seeds 0 and 1, 5^-2; and the whole ``verify-all`` report at (3, 2) and at
(5, 3), where the oracle takes grids of 125^3 points and the wavepacket and
pigeonhole suites stop at their budgets (exit 3, after the report is
written).
``tests/test_golden.py`` reruns them and compares.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy

from momentlab import cli

HERE = Path(__file__).resolve().parent
GOLDEN = {
    "counting.json": (
        "count-vinogradov --s 5 --k 2 --X 12",
        "count-vinogradov --s 4 --k 2 --X 15 --mod-p 3",
        "count-vinogradov --s 4 --k 2 --X 12 --mod-p 3 --residue 1",
        "count-vinogradov --s 3 --k 3 --X 25",
        "count-vinogradov --s 3 --k 3 --X 20 --mod-p 5",
        "count-vinogradov --s 3 --k 3 --X 20 --mod-p 5 --residue 2",
        "count-vinogradov --s 2 --k 2 --X 60 --mod-p 7 --residue 3",
        "linnik --k 2 --p 3 --exhaustive",
        "linnik --k 2 --p 5 --exhaustive",
        "linnik --k 2 --p 7 --exhaustive",
        "linnik --k 3 --p 5 --exhaustive",
        "linnik --k 2 --p 13 --residues 4 100",
        "linnik --k 2 --p 13 --residues 0 0",
        "karatsuba --s 4 --k 2 --X 1000",
        "karatsuba --s 6 --k 3 --X 77",
        "counting-lemma --q 3 --k 2 --delta-exp 2 --kappa-exp 1",
        "counting-lemma --q 5 --k 2 --delta-exp 2 --kappa-exp 1",
        "counting-lemma --q 7 --k 2 --delta-exp 2 --kappa-exp 1",
    ),
    "decoupling.json": (
        "pigeonhole-report --q 3 --k 2 --delta-exp 2 --seed 0",
        "pigeonhole-report --q 3 --k 2 --delta-exp 2 --seed 1",
        "pigeonhole-report --q 3 --k 2 --delta-exp 2 --seed 2",
        "pigeonhole-report --q 3 --k 2 --delta-exp 2 --p 12 --seed 0",
        "pigeonhole-report --q 3 --k 2 --delta-exp 2 --p 4 --seed 0",
        "pigeonhole-report --q 5 --k 2 --delta-exp 1",
        "pigeonhole-report --q 5 --k 2 --delta-exp 2 --seed 0",
        "pigeonhole-report --q 5 --k 2 --delta-exp 2 --seed 1",
        "verify-all --q 3 --k 2",
        "verify-all --q 5 --k 3",
    ),
}


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": numpy.__version__}


def digest(command: str) -> str:
    """sha256 of the report ``command`` writes; raises on another exit than 0 or a budget's 3."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "report.json")
        code = cli.main([*command.split(), "--output", path])
        if code not in (cli.EXIT_OK, cli.EXIT_BUDGET):
            raise RuntimeError(f"{command!r} exited {code}")
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def main() -> int:
    for name, commands in GOLDEN.items():
        doc = {**versions(), "reports": {command: digest(command) for command in commands}}
        with open(HERE / name, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
