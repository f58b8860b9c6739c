"""Every exported name resolves, so a deletion cannot leave a stale export."""

import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import momentlab

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
