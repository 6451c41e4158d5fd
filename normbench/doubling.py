"""Depth-doubling ratios: each engine's time on a binder nest twice as deep.

    env PYTHONHASHSEED=0 python3 normbench/doubling.py

For the two shapes of the ``deep`` workload (see ``workloads.py``), prints
the median time of each engine, and of the bridge conversion
``to_foil_closed``, at depth N and 2N, in reference seconds (see
``run.py``), and their ratio.  A ratio near 2 is linear in the depth, near 4
quadratic.
"""

from __future__ import annotations

import statistics
import sys
from functools import partial

import run
import workloads

REPEATS = 3
SHAPES = (
    ("under", partial(workloads.under, a=1, b=1), 1000),
    ("through", partial(workloads.through, c=1), 500),
)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from scopefoil import bench, bridge, syntax

    bench.ensure_deep_recursion()
    clock = run.Clock()
    print(f"{'shape':<8} {'engine':<12} {'N':>5} {'t(N) s':>9} {'t(2N) s':>9} {'ratio':>6}")
    for shape, make, n in SHAPES:
        times: dict[str, list[float]] = {}
        for depth in (n, 2 * n):
            term = syntax.parse_term(make(depth)[0])
            ops = {engine: calls[0] for engine, calls in run.prepare([term]).items()}
            ops["bridge"] = partial(bridge.to_foil_closed, term)
            for name, op in ops.items():
                samples = [clock.span(op)[0] for _ in range(REPEATS)]
                times.setdefault(name, []).append(statistics.median(samples))
        for name, (small, large) in times.items():
            print(f"{shape:<8} {name:<12} {n:>5} {small:9.4f} {large:9.4f} {large / small:6.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
