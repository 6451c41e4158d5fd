"""Work budgets for the normalizers.

Exceeding the budget is a reported error, never a wrong answer: the
normalizers raise :class:`FuelExceededError` instead of returning a
partially reduced term.

The default budget, the stack a deep term needs, and the names of the
normalizers and of the benchmark groups live here too, low in the layers,
so that the command-line parser reads them without importing an engine.
"""

from __future__ import annotations

import sys

IMPLEMENTATIONS = ("named", "debruijn", "foil_direct", "free_foil", "nbe")
GROUPS = ("nf", "random15", "random20")

# Budget handed to the fueled normalizers during measured runs.  The de
# Bruijn oracle charges work units (beta cost ~ size of the copied
# argument), and the largest fixed workload (factorial of 6) costs about
# 3.1 million of them, so leave decent headroom.
DEFAULT_FUEL = 10_000_000

_RECURSION_LIMIT = 100_000


class FuelExceededError(Exception):
    """The work budget ran out before a normal form was reached."""


class Fuel:
    """Mutable countdown of normalization work; ``None`` means unlimited.

    Most normalizers charge one unit per contraction.  A normalizer may
    instead charge ``spend(cost)`` proportional to the work a contraction
    does (the size of the subterm it duplicates), which turns the budget
    into a bound on total allocation — useful for cutting off terms whose
    intermediate forms explode even though they take few steps.
    """

    __slots__ = ("remaining",)

    def __init__(self, budget: int | None = None):
        self.remaining = budget

    def spend(self, cost: int = 1) -> None:
        r = self.remaining
        if r is not None:
            if r < cost:
                raise FuelExceededError("work budget exhausted")
            self.remaining = r - cost


def ensure_deep_recursion() -> None:
    """Normal forms can be long constructor chains (Church 720 is an
    application spine of depth 720); raise the interpreter's recursion limit
    so walking them is safe.

    Raising only ``sys.setrecursionlimit`` is not enough on CPython builds
    where every Python call also consumes C stack: past the OS stack size the
    process dies with a segfault instead of a catchable ``RecursionError``.
    So the OS stack limit is raised too, where the platform allows it.
    """
    if sys.getrecursionlimit() < _RECURSION_LIMIT:
        sys.setrecursionlimit(_RECURSION_LIMIT)
    try:
        import resource
    except ImportError:  # non-POSIX: keep the default stack
        return
    soft, hard = resource.getrlimit(resource.RLIMIT_STACK)
    want = 1 << 30  # 1 GiB comfortably holds that many C-level frames
    if soft != resource.RLIM_INFINITY and soft < want:
        new_soft = want if hard == resource.RLIM_INFINITY else min(want, hard)
        if new_soft > soft:
            try:
                resource.setrlimit(resource.RLIMIT_STACK, (new_soft, hard))
            except (ValueError, OSError):
                pass
