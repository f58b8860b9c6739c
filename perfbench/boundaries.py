"""The layer boundaries the traced run wraps, and the metrics built from them.

Layers are the modules under ``src/momentlab``.  Each boundary names a
public function or method, whether it records spans or only counts, and
the workloads on which it must record at least one call.  ``qadic`` gets
counts only: it sees about ten million calls per run, so its time shows up
in the self time of its callers.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from fractions import Fraction

from tracer import Tracer, span_totals
from workloads import WORKLOADS, tuples_J, tuples_J_congruence, tuples_linnik

PACKAGE = "momentlab"
LAYERS = ("cli", "verify", "decoupling", "wavepackets", "stepfn", "quotient_dft", "geometry", "vinogradov")
ERROR_LAYERS = ("stepfn", "quotient_dft", "vinogradov", "decoupling", "wavepackets")

FIXTURES, TILES, COUNTING, ORACLE = WORKLOADS


# -- counters bumped after a wrapped call returns; ``a`` holds its bound arguments


def _tuples_J(counts, a, result):
    counts["vinogradov.tuples_enumerated"] += tuples_J(a["s"], a["k"], a["X"])


def _tuples_J_congruence(counts, a, result):
    counts["vinogradov.tuples_enumerated"] += tuples_J_congruence(a["s"], a["k"], a["X"], a["p"], a["a"])


def _tuples_congruences(counts, a, result):
    counts["vinogradov.tuples_enumerated"] += a["base"] ** a["s"]


def _tuples_linnik(counts, a, result):
    counts["vinogradov.tuples_enumerated"] += tuples_linnik(a["k"], a["p"])


def _grid(counts, a, result):
    f, M, r = a["f"], a["M"], a["r"]
    counts["quotient_dft.grid_points"] += f.q ** ((M + r) * f.k)
    counts["quotient_dft.support_cells"] += int(Fraction(f.support_volume()) * f.q ** (r * f.k))


def _cubes_out(counts, a, result):
    counts["geometry.subdivide.cubes_out"] += len(result)


def _packets_out(counts, a, result):
    counts["wavepackets.decompose.packets_out"] += len(result)


def _terms(counts, a, result):
    terms = a["terms"]
    counts["stepfn.construct.terms_in"] += len(terms) if hasattr(terms, "__len__") else 0
    counts["stepfn.construct.terms_out"] += len(a["self"].terms)


# -- the boundary table ----------------------------------------------------------


@dataclass(frozen=True)
class Boundary:
    name: str          # span name, or for kind "count" the counter key; the layer is the part before the first dot
    module: str        # defining module, relative to the package
    attr: str          # "function" or "Class.method"
    kind: str          # "span" or "count"
    workloads: tuple   # workloads on which it must record at least one call
    hook: object = None  # hook(counts, bound_arguments, result), run after a span's call
    note: str = ""     # why no workload exercises it, when workloads is empty


BOUNDARIES = (
    Boundary("cli.main", "cli", "main", "span", (FIXTURES, TILES, COUNTING)),
    Boundary("verify.tilings", "verify", "tilings", "span", (TILES,)),
    Boundary("verify.wavepackets_suite", "verify", "wavepackets_suite", "span", (TILES,)),
    Boundary("verify.oracle_agreement", "verify", "oracle_agreement", "span", (ORACLE,)),
    Boundary("decoupling.ratio", "decoupling", "decoupling_ratio", "span", (FIXTURES,)),
    Boundary("decoupling.main_lemma", "decoupling", "verify_main_lemma", "span", (FIXTURES,)),
    Boundary("decoupling.reverse_square", "decoupling", "reverse_square_check", "span", (FIXTURES,)),
    Boundary("decoupling.freq_certificate", "decoupling", "freq_certificate", "span", (FIXTURES,)),
    Boundary("decoupling.counting_lemma", "decoupling", "counting_lemma_exhaustive", "span", (COUNTING,)),
    Boundary("wavepackets.decompose", "wavepackets", "wavepacket_decompose", "span", (TILES,), _packets_out),
    Boundary("wavepackets.pigeonhole", "wavepackets", "pigeonhole", "span", (TILES,)),
    Boundary("wavepackets.theta_support", "wavepackets", "verify_theta_support", "span", (TILES,)),
    Boundary("stepfn.construct", "stepfn", "ModulatedStep.__init__", "span", (FIXTURES, TILES, ORACLE), _terms),
    Boundary("stepfn.evaluate.calls", "stepfn", "ModulatedStep.evaluate", "count", (FIXTURES, TILES)),
    Boundary("stepfn.joint_cell_values", "stepfn", "joint_cell_values", "span", (FIXTURES,)),
    Boundary("stepfn.lp_norm", "stepfn", "ModulatedStep.lp_norm", "span", (FIXTURES, ORACLE)),
    Boundary("stepfn.fourier", "stepfn", "ModulatedStep.fourier", "span", (FIXTURES, TILES, ORACLE)),
    Boundary("stepfn.product", "stepfn", "ModulatedStep.__mul__", "span", (ORACLE,)),
    Boundary("stepfn.convolve", "stepfn", "ModulatedStep.convolve", "span", (ORACLE,)),
    Boundary("stepfn.freq_components", "stepfn", "ModulatedStep.freq_components", "span", (FIXTURES, TILES)),
    Boundary("quotient_dft.evaluate_on_grid", "quotient_dft", "evaluate_on_grid", "span", (ORACLE,), _grid),
    Boundary("quotient_dft.fft", "quotient_dft", "dft_grid", "span", (ORACLE,)),
    Boundary("quotient_dft.fft", "quotient_dft", "convolve_grids", "span", (ORACLE,)),
    Boundary("geometry.subdivide", "geometry", "Cube.subdivide", "span", (FIXTURES, TILES, ORACLE), _cubes_out),
    Boundary("geometry.tile_of_point", "geometry", "tile_of_point", "span", (TILES,)),
    Boundary("geometry.tile_partition", "geometry", "tile_partition", "span", (TILES,)),
    Boundary("geometry.theta_contains.calls", "geometry", "ThetaBox.contains", "count", (FIXTURES, TILES)),
    Boundary("vinogradov.count_J", "vinogradov", "count_J", "span", (COUNTING,), _tuples_J),
    Boundary("vinogradov.count_J_congruence", "vinogradov", "count_J_congruence", "span", (COUNTING,),
             _tuples_J_congruence),
    Boundary("vinogradov.linnik", "vinogradov", "linnik_max", "span", (COUNTING,), _tuples_linnik),
    Boundary("vinogradov.linnik", "vinogradov", "linnik_count", "span", (COUNTING,), _tuples_linnik),
    Boundary("vinogradov.karatsuba", "vinogradov", "karatsuba_bound", "span", (COUNTING,)),
    Boundary("vinogradov.congruences", "vinogradov", "count_power_sum_congruences", "span", (),
             _tuples_congruences,
             note="only the extremizer calls it, and no workload runs the extremizer"),
    Boundary("qadic.qrational.created", "qadic", "QRational.__init__", "count", (FIXTURES, TILES, COUNTING, ORACLE)),
    Boundary("qadic.rep_mod.calls", "qadic", "QRational.rep_mod", "count", (FIXTURES, TILES, ORACLE)),
    Boundary("qadic.dot.calls", "qadic", "QVector.dot", "count", (FIXTURES, TILES, ORACLE)),
    Boundary("qadic.char_value.calls", "qadic", "char_value", "count", (FIXTURES, TILES, ORACLE)),
)


# The per-layer metrics a traced run reports, in BENCHMARK.json order.
PER_LAYER = (
    ("stepfn.evaluate.calls", "count"),
    ("stepfn.joint_cell_values.self_s", "s"),
    ("stepfn.lp_norm.self_s", "s"),
    ("stepfn.lp_norm.calls", "count"),
    ("qadic.dot.calls", "count"),
    ("qadic.char_value.calls", "count"),
    ("decoupling.reverse_square.self_s", "s"),
    ("decoupling.main_lemma.self_s", "s"),
    ("decoupling.ratio.self_s", "s"),
    ("qadic.qrational.created", "count"),
    ("qadic.rep_mod.calls", "count"),
    ("geometry.subdivide.calls", "count"),
    ("geometry.subdivide.cubes_out", "count"),
    ("geometry.subdivide.self_s", "s"),
    ("geometry.tile_of_point.calls", "count"),
    ("geometry.tile_of_point.self_s", "s"),
    ("geometry.tile_partition.self_s", "s"),
    ("geometry.theta_contains.calls", "count"),
    ("stepfn.construct.calls", "count"),
    ("stepfn.construct.terms_in", "count"),
    ("stepfn.construct.terms_out", "count"),
    ("stepfn.construct.self_s", "s"),
    ("wavepackets.decompose.self_s", "s"),
    ("wavepackets.pigeonhole.self_s", "s"),
    ("wavepackets.theta_support.self_s", "s"),
    ("wavepackets.decompose.packets_out", "count"),
    ("vinogradov.count_J.self_s", "s"),
    ("vinogradov.count_J_congruence.self_s", "s"),
    ("vinogradov.linnik.self_s", "s"),
    ("vinogradov.congruences.self_s", "s"),
    ("vinogradov.tuples_enumerated", "count"),
    ("decoupling.counting_lemma.self_s", "s"),
    ("quotient_dft.evaluate_on_grid.self_s", "s"),
    ("quotient_dft.fft.self_s", "s"),
    ("quotient_dft.grid_points", "count"),
    ("quotient_dft.support_fill", "ratio"),
    ("stepfn.fourier.self_s", "s"),
    ("stepfn.product.self_s", "s"),
    ("stepfn.convolve.self_s", "s"),
    ("stepfn.freq_components.self_s", "s"),
    *((f"{layer}.{what}", unit) for layer in LAYERS for what, unit in (("self_s", "s"), ("calls", "count"))),
    *((f"{layer}.errors", "count") for layer in ERROR_LAYERS),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)


def _with_arguments(fn, hook):
    """Adapt hook(counts, bound_arguments, result) to the tracer's hook signature."""
    sig = inspect.signature(fn)

    def adapted(counts, args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        hook(counts, bound.arguments, result)

    return adapted


def install(tracer: Tracer) -> None:
    """Wrap every boundary; the package must already be imported."""
    import importlib

    for b in BOUNDARIES:
        module = importlib.import_module(f"{PACKAGE}.{b.module}")
        cls_name, _, meth = b.attr.rpartition(".")
        owner = getattr(module, cls_name) if cls_name else module
        original = owner.__dict__[meth] if cls_name else getattr(module, meth)
        if b.kind == "span":
            hook = _with_arguments(original, b.hook) if b.hook is not None else None
            wrapper = tracer.span(b.name, original, hook)
        else:
            wrapper = tracer.counter(b.name, original)
        if cls_name:
            tracer.patch_method(owner, meth, wrapper)
        elif tracer.patch_function(original, wrapper, PACKAGE) == 0:
            raise RuntimeError(f"{b.module}.{b.attr} is not bound in any {PACKAGE} module")


def count_key(b: Boundary) -> str:
    """The counter that shows a boundary was exercised."""
    return b.name if b.kind == "count" else b.name + ".calls"


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every traced quantity: span self times and calls, layer totals, counters."""
    totals = span_totals(tracer.spans())
    out: dict[str, float] = {}
    for name, t in totals.items():
        out[f"{name}.calls"] = t["calls"]
        out[f"{name}.self_s"] = t["self_s"]
    for layer in LAYERS:
        mine = [t for name, t in totals.items() if name.split(".", 1)[0] == layer]
        out[f"{layer}.calls"] = sum(t["calls"] for t in mine)
        out[f"{layer}.self_s"] = sum(t["self_s"] for t in mine)
    for layer in ERROR_LAYERS:
        out[f"{layer}.errors"] = 0
    for key, value in tracer.counts.items():
        out[key] = value
    cells = tracer.counts.get("quotient_dft.support_cells", 0)
    grid = tracer.counts.get("quotient_dft.grid_points", 0)
    out["quotient_dft.support_fill"] = cells / grid if grid else 0.0
    return out
