"""Per-layer numbers from ``cProfile``.

A layer is a module of the ``scopefoil`` package.  cProfile records a
function's self time under the function's own code object; time spent in
code that belongs to no layer (builtins, and the ``__init__`` methods that
``dataclasses`` generates, whose file name is ``<string>``) is handed up to
the callers in proportion to the self time each caller's calls took, so a
layer's self time includes the builtins and constructors it called.
"""

from __future__ import annotations

import cProfile
import os
from collections import defaultdict
from dataclasses import dataclass, field

_PACKAGE_DIR = os.sep + "scopefoil" + os.sep


def layer_of(key: tuple) -> str | None:
    """The module a profiler key ``(file, line, function)`` belongs to."""
    filename = key[0]
    if _PACKAGE_DIR in filename and filename.endswith(".py"):
        return os.path.basename(filename)[:-3]
    return None


@dataclass
class Profile:
    """One profiled phase, reduced to what the metrics need."""

    self_s: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    calls: dict[tuple[str, str], int] = field(default_factory=lambda: defaultdict(int))
    refreshes: int = 0  # fresh_raw_name calls made from with_refreshed

    def add(self, other: "Profile", scale: float = 1.0) -> None:
        for layer, seconds in other.self_s.items():
            self.self_s[layer] += seconds * scale
        for fn, n in other.calls.items():
            self.calls[fn] += n
        self.refreshes += other.refreshes


def profile(fn) -> tuple[object, Profile]:
    """Run ``fn()`` under cProfile; return its result and the reduced profile."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
    profiler.create_stats()
    return result, reduce(profiler.stats)


def reduce(stats: dict) -> Profile:
    """Self time per layer and call counts per layer function.

    ``stats`` maps ``key -> (primitive calls, calls, self time, cumulative
    time, callers)``, and ``callers`` maps ``caller key -> (calls, primitive
    calls, self time, cumulative time)`` of that caller's calls.
    """
    out = Profile()

    def attribute(key: tuple, seconds: float, depth: int) -> None:
        layer = layer_of(key)
        if layer is not None:
            out.self_s[layer] += seconds
            return
        callers = stats[key][4] if key in stats else {}
        total = sum(edge[2] for edge in callers.values())
        if depth > 8 or total <= 0:
            return  # the benchmark's own code, or the profiler itself
        for caller, edge in callers.items():
            attribute(caller, seconds * edge[2] / total, depth + 1)

    for key, (_, calls, self_time, _, callers) in stats.items():
        attribute(key, self_time, 0)
        layer = layer_of(key)
        if layer is not None:
            out.calls[(layer, key[2])] += calls
        if layer == "names" and key[2] == "fresh_raw_name":
            out.refreshes += sum(
                edge[0] for caller, edge in callers.items() if caller[2] == "with_refreshed"
            )
    return out
