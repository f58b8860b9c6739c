"""The budget policy: every BUDGET report, pinned, and one check that raises.

Each case below is a desk-grid cell or a call that stops on a budget; its
message, estimate and budget are part of the reports (``verify`` suites and
``cli.main``'s ``budget-exceeded`` JSON), so they must not drift.
"""

import ast
import time
from pathlib import Path

import pytest

from momentlab import decoupling as dec
from momentlab import verify
from momentlab.decoupling import counting_lemma_exhaustive
from momentlab.errors import BudgetExceededError
from momentlab.geometry import Cube, Interval, unit_interval
from momentlab.qadic import QVector
from momentlab.stepfn import ModulatedStep
from momentlab.vinogradov import count_J, count_J_nested, count_power_sum_congruences
from momentlab.wavepackets import freq_certificate

SRC = Path(__file__).resolve().parents[1] / "src" / "momentlab"

CELLS, OPERATIONS, GRID = 8_000_000, 50_000_000, 40_000_000

PINNED = [
    pytest.param(
        lambda: verify.broad_narrow_suite(7, 2, n_instances=1),
        ("modulus cells exceed the budget", 46118408, CELLS),
        id="broad-narrow-7-2",
    ),
    pytest.param(
        lambda: verify.wavepackets_suite(5, 3, delta_exps=(2,), n_instances=1),
        ("subdivision into 244140625 cubes exceeds the budget", 244140625, CELLS),
        id="wavepackets-5-3",
    ),
    pytest.param(
        lambda: verify.pigeonhole_suite(5, 3, n_instances=1),
        ("subdivision into 244140625 cubes exceeds the budget", 244140625, CELLS),
        id="pigeonhole-5-3",
    ),
    pytest.param(
        lambda: verify.tilings(101, 3),
        ("the tile partitions need about 4776845314059000 operations (budget 50000000)", 45 * 100 * (101**3 + 101**6),
         OPERATIONS),
        id="tilings-101-3",
    ),
    pytest.param(
        lambda: unit_interval(3).partition(20),
        ("partition into 3486784401 intervals exceeds the budget", 3486784401, CELLS),
        id="partition",
    ),
    pytest.param(
        lambda: freq_certificate(ModulatedStep.indicator(Cube(QVector.zero(3, 2), 6)), 2),
        ("certificate cells exceed the budget", 3486784401, CELLS),
        id="certificate",
    ),
    pytest.param(
        lambda: verify.oracle_agreement(101, 3, n_instances=1),
        ("grid of 1061520150601 points exceeds the budget", 1061520150601, GRID),
        id="oracle-grid",
    ),
    pytest.param(
        lambda: count_power_sum_congruences(6, 2, 49, [7**4, 7**4]),
        ("power-sum distribution needs about 189551796 operations (budget 50000000)", 189551796, OPERATIONS),
        id="extremizer-7-2",
    ),
    pytest.param(
        lambda: verify.extremizer_suite(1000003, 2),
        ("the extremizer's waves need about 4000012000 operations (budget 50000000)", 4000012000, OPERATIONS),
        id="extremizer-huge-q",
    ),
    pytest.param(
        lambda: counting_lemma_exhaustive(31, 2, 3, 1),
        ("counting-lemma enumeration needs about 431169235 operations (budget 50000000)", 431169235, OPERATIONS),
        id="counting-lemma",
    ),
    pytest.param(
        lambda: count_J_nested(3, 2, 100),
        ("nested-loop enumeration needs about 1000000000000 operations (budget 50000000)", 10**12, OPERATIONS),
        id="nested-loops",
    ),
]


@pytest.mark.parametrize("run, expected", PINNED)
def test_budget_report_is_pinned(run, expected):
    try:
        report = run()
    except BudgetExceededError as exc:
        got = (str(exc), exc.estimated, exc.budget)
    else:  # a verify suite turns the overrun into its BUDGET report
        got = (report["budget_exceeded"], report["estimated"], report["budget"])
        assert not report["passed"] and not report["failures"]
    assert got == expected
    assert type(got[1]) is int and type(got[2]) is int


@pytest.mark.parametrize("suite, builder",
                         [("tilings", "tile_partition"), ("pigeonhole_suite", "random_curve_supported")])
def test_a_suite_counts_its_whole_work_before_building_any(suite, builder, monkeypatch):
    # at (101, 3) one tile partition takes about 4 s and one drawn instance about 4 s
    monkeypatch.setattr(verify, builder, lambda *args: pytest.fail(f"{suite} called {builder} past the budget"))
    report = getattr(verify, suite)(101, 3)
    assert "budget_exceeded" in report and not report["failures"]


def test_wavepackets_suite_checks_every_scale_before_drawing(monkeypatch):
    # at (5, 3) the scale-1 split fits and the scale-2 split does not: no scale-1 instance is drawn first
    monkeypatch.setattr(verify, "random_box_function", lambda *args: pytest.fail("an instance was drawn"))
    report = verify.wavepackets_suite(5, 3)
    assert report["budget_exceeded"] == "subdivision into 244140625 cubes exceeds the budget"
    assert not report["failures"]


def test_decoupling_ratio_meets_the_cell_budget_before_the_split(monkeypatch):
    # at q = 10007 the extremizer's own modulus cells overrun; its q-piece split takes about 1.4 s
    monkeypatch.setattr(dec, "freq_certificate", lambda *args: pytest.fail("f was split past the budget"))
    report = verify.extremizer_suite(10007, 2)
    assert report["budget_exceeded"] == "modulus cells exceed the budget" and not report["failures"]


def test_one_check_raises_and_only_the_cli_overrides_a_budget():
    raisers, knobs = [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and "BudgetExceededError" in ast.unparse(node):
                raisers.append(path.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and path.name != "errors.py":
                args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                if any(a.arg == "budget" for a in args):
                    knobs.append(f"{path.stem}.{node.name}")
    assert raisers == ["errors.py"]
    # outside the policy module, only what count-vinogradov --budget reaches
    assert sorted(knobs) == ["vinogradov._power_sum_distribution", "vinogradov.count_J", "vinogradov.count_J_congruence"]


def test_power_sum_estimate_costs_little_past_the_key_space():
    # every step's bound past the key space is the key space, summed at once
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError) as exc:
        count_J(10**6 + 3, 2, 10**12)
    assert time.perf_counter() - start < 1
    assert exc.value.estimated > OPERATIONS


@pytest.mark.parametrize("q, first_over", [(7, None), (23, 23**3), (101, 101**2)])
def test_interval_separation_counts_its_pairs_before_walking_them(q, first_over):
    # from q = 23 on, a partition has more pairs than the budget; the desk grid walks them all
    start = time.perf_counter()
    report = verify.interval_separation(q)
    if first_over is None:
        assert report["passed"] and "budget_exceeded" not in report
        return
    if q == 101:
        assert time.perf_counter() - start < 1
    pairs = first_over * (first_over - 1) // 2
    assert report["budget_exceeded"] == f"interval separation walks {pairs} pairs (budget {OPERATIONS})"
    assert (report["estimated"], report["budget"]) == (pairs, OPERATIONS)


def test_no_whole_partition_is_built_before_a_budget_trips(monkeypatch):
    # at q = 1000003 a partition at scale 1 holds 1,000,003 intervals and takes about 2.7 s to build
    sizes, real = [], Interval.partition
    monkeypatch.setattr(Interval, "partition", lambda I, m: sizes.append(I.q ** (m - I.scale_exp)) or real(I, m))
    reports = [verify.interval_separation(1000003), verify.wavepackets_suite(1000003, 2, n_instances=2),
               verify.extremizer_suite(1000003, 2)]
    assert all("budget_exceeded" in r and not r["failures"] for r in reports)
    assert sizes == [1]  # interval separation's scale-0 partition, before the scale-1 pairs are counted
