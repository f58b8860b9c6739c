"""Every exported name resolves, so a deletion cannot leave a stale export,
and every exported name is used, so an export nothing calls cannot stay."""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import momentlab

ROOT = Path(__file__).resolve().parents[1]

MODULES = ["momentlab", *sorted(f"momentlab.{m.name}" for m in pkgutil.iter_modules(momentlab.__path__)
                                if m.name != "__main__")]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names {missing}, which do not resolve"


def test_every_benchmark_boundary_resolves(monkeypatch):
    """The benchmark's tracer wraps the functions and methods listed in
    perfbench/boundaries.py; a deletion that drops one breaks its install."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    loaded = set(sys.modules)
    try:
        boundaries = importlib.import_module("boundaries")
        missing = []
        for b in boundaries.BOUNDARIES:
            module = importlib.import_module(f"{boundaries.PACKAGE}.{b.module}")
            cls_name, _, meth = b.attr.rpartition(".")
            if cls_name:
                found = meth in vars(getattr(module, cls_name, object))
            else:
                found = hasattr(module, meth)
            if not found:
                missing.append(f"{b.module}.{b.attr}")
    finally:
        for name in set(sys.modules) - loaded:
            if not name.startswith("momentlab"):
                del sys.modules[name]
    assert not missing, f"benchmark boundaries {missing} do not resolve"


# Exported names that nothing in src/, demos/ or perfbench/ uses: each is an
# independent slow path that the tests check a fast path against.
ORACLES = {
    "counting_set_pointwise_oracle": "pointwise slow path of decoupling.counting_lemma_exhaustive",
    "qnorm_of_fraction": "the q-adic norm of any Fraction, against QRational.qnorm",
    "elementary_from_roots": "expands prod (X - r_i), against vinogradov.newton_girard",
    "newton_girard": "power sums to elementary symmetric functions; the separated-moments check "
                     "(ROADMAP item 3) is to use it on the Fourier side",
}


def _used_names():
    """Every name read, as a name or as an attribute, in src/, demos/ and
    perfbench/; a use inside the top-level definition of that same name
    (recursion, a class naming itself) does not count, nor does an import."""
    used = set()
    for path in [*ROOT.glob("src/momentlab/*.py"), *ROOT.glob("demos/*.py"), *ROOT.glob("perfbench/*.py")]:
        for top in ast.parse(path.read_text()).body:
            own = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id != own:
                    used.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and node.attr != own:
                    used.add(node.attr)
    return used


def test_every_exported_name_is_used_or_a_listed_oracle():
    used = _used_names()
    exported = {attr for name in MODULES for attr in getattr(importlib.import_module(name), "__all__", ())}
    unused = sorted(exported - used - ORACLES.keys())
    assert not unused, f"exported but used nowhere in src/, demos/ or perfbench/: {unused}"
    stale = sorted(ORACLES.keys() & used)
    assert not stale, f"listed as oracles but used: {stale}; drop them from ORACLES"
    assert ORACLES.keys() <= exported, f"ORACLES names {sorted(ORACLES.keys() - exported)}, which nothing exports"
