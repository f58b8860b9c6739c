"""Checks of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these out of the repository's default test run: the
last two tests run every workload traced, twice (about two minutes).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import boundaries  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, self_times, span_totals  # noqa: E402
from workloads import WORKLOADS, digest, digest_matches  # noqa: E402


def test_self_time_of_nested_spans():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("a.inner", 2.0, 3.0, 1),
        ("b", 3.5, 6.0, 0),     # overlaps a: the union [1, 6] is covered once
        ("c", 9.0, 12.0, 0),    # runs past its parent: only [9, 10] counts
        ("other", 20.0, 21.5, -1),
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 2.5, 3.0, 1.5])
    totals = span_totals(spans + [("a", 30.0, 30.25, -1)])
    assert totals["a"]["calls"] == 2
    assert totals["a"]["self_s"] == pytest.approx(2.25)


def test_tracer_records_spans_counts_and_errors():
    tracer = Tracer()

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x

    inner_w = tracer.span("stepfn.inner", inner)
    outer_w = tracer.span("decoupling.outer", lambda x: inner_w(x) + inner_w(x))
    counted = tracer.counter("qadic.thing", lambda: None)
    assert outer_w(2) == 4
    counted()
    with pytest.raises(ValueError):
        inner_w(-1)
    names = [s[0] for s in tracer.spans()]
    parents = [s[3] for s in tracer.spans()]
    assert names == ["decoupling.outer", "stepfn.inner", "stepfn.inner", "stepfn.inner"]
    assert parents == [-1, 0, 0, -1]
    assert tracer.counts["qadic.thing"] == 1
    assert tracer.counts["stepfn.errors"] == 1


def test_install_reaches_every_namespace_and_uninstall_restores():
    import momentlab.cli as cli
    import momentlab.decoupling as dec
    import momentlab.geometry as geo
    import momentlab.stepfn as stepfn
    import momentlab.verify as verify
    import momentlab.vinogradov as vin
    import momentlab.wavepackets as wp

    before = (cli.count_J, verify.count_J, dec.joint_cell_values, wp.tile_of_point,
              stepfn.char_value, stepfn.ModulatedStep.__dict__["evaluate"])
    tracer = Tracer()
    boundaries.install(tracer)
    try:
        assert cli.count_J is verify.count_J is vin.count_J
        assert cli.count_J is not before[0]
        assert dec.joint_cell_values is stepfn.joint_cell_values is not before[2]
        assert wp.tile_of_point is geo.tile_of_point is not before[3]
        assert stepfn.char_value is not before[4]
    finally:
        tracer.uninstall()
    after = (cli.count_J, verify.count_J, dec.joint_cell_values, wp.tile_of_point,
             stepfn.char_value, stepfn.ModulatedStep.__dict__["evaluate"])
    assert all(a is b for a, b in zip(before, after))


def test_per_layer_metrics_match_benchmark_json():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(boundaries.PER_LAYER)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)


def test_digest_tolerates_float_rounding_only():
    ref = digest({"holds": True, "count": 7, "ratio": 1.25, "parts": [0.5, "x"]})
    assert digest_matches(digest({"holds": True, "count": 7, "ratio": 1.25 * (1 + 1e-12),
                                  "parts": [0.5, "x"]}), ref)
    assert not digest_matches(digest({"holds": True, "count": 8, "ratio": 1.25, "parts": [0.5, "x"]}), ref)
    assert not digest_matches(digest({"holds": True, "count": 7, "ratio": 1.26, "parts": [0.5, "x"]}), ref)


@pytest.fixture(scope="module")
def traced_twice():
    """Two traced passes of every workload at seed 0, each in a fresh process."""
    out = {}
    for workload in WORKLOADS:
        runner = run.Runner(workload, 0)
        out[workload] = [runner.child("trace") for _ in range(2)]
    return out


@pytest.mark.parametrize("b", [b for b in boundaries.BOUNDARIES if b.workloads], ids=lambda b: b.name)
def test_each_boundary_records_calls_on_its_workloads(traced_twice, b):
    for workload in b.workloads:
        layers = traced_twice[workload][0]["layers"]
        assert layers.get(boundaries.count_key(b), 0) >= 1, f"{b.name} idle on {workload}"


def test_count_metrics_repeat_exactly(traced_twice):
    for workload, (first, second) in traced_twice.items():
        assert not any(t["error"] for p in (first, second) for t in p["tasks"]), workload
        counts = [{k: v for k, v in p["layers"].items() if not k.endswith("_s")} for p in (first, second)]
        assert counts[0] == counts[1], workload
        assert counts[0], workload
