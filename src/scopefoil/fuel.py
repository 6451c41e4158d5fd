"""Work budgets for the normalizers.

Exceeding the budget is a reported error, never a wrong answer: the
normalizers raise :class:`FuelExceededError` instead of returning a
partially reduced term.
"""

from __future__ import annotations


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
