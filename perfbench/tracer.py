"""In-memory span and counter tracing for the benchmark's traced runs.

A span is recorded around each call of a wrapped function: its name, start,
end and the index of the enclosing span.  Spans stay in memory until the
run ends; self times are computed from them afterwards.  Count-only
boundaries bump a counter and record no span, for functions called so
often (scalar arithmetic, pointwise evaluation) that per-call spans would
swamp the trace.

Wrappers are installed in every namespace that holds the original object
(a module that did ``from .geometry import tile_of_point`` has its own
reference), and ``uninstall`` puts every original back, so an untraced run
measures unpatched code.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter


class Tracer:
    """Spans as parallel lists (name, parent index, start, end) plus counters."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------------

    def span(self, name: str, fn, hook=None):
        """Wrap fn so each call records a span; hook(counts, args, kwargs, result) runs after."""
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack, counts, clock = self._stack, self.counts, time.perf_counter
        errors_key = name.split(".", 1)[0] + ".errors"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[errors_key] += 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return wrapper

    def counter(self, key: str, fn):
        """Wrap fn so each call bumps one counter and records no span."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ---------------------------------------------------------------

    def patch_method(self, cls, attr: str, wrapper) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def patch_function(self, original, wrapper, package: str) -> int:
        """Replace original in every loaded module of the package that holds it."""
        replaced = 0
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)
                    replaced += 1
        return replaced

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------------

    def spans(self) -> list[tuple[str, float, float, int]]:
        return list(zip(self.names, self.starts, self.ends, self.parents))

    def write(self, path: str) -> None:
        """Write every span and counter once, as one JSON document."""
        table = sorted(set(self.names))
        ids = {n: i for i, n in enumerate(table)}
        doc = {
            "names": table,
            "spans": [
                [ids[n], round(s, 9), round(e, 9), p]
                for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
            ],
            "counts": dict(sorted(self.counts.items())),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the part its children cover.

    ``spans`` is a sequence of (name, start, end, parent_index) with parent
    -1 for a root.  Child intervals are clipped to the parent and merged, so
    overlapping children are not subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(max(0.0, (end - start) - covered))
    return out


def span_totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: number of calls and summed self time."""
    totals: dict[str, dict[str, float]] = {}
    for (name, _, _, _), own in zip(spans, self_times(spans)):
        slot = totals.setdefault(name, {"calls": 0, "self_s": 0.0})
        slot["calls"] += 1
        slot["self_s"] += own
    return totals
