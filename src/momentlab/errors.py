"""Exception types shared across the package, and the budget policy.

The three limits below are the only budgets.  Each site reads its limit
from this module when it runs, so setting one attribute here changes it
everywhere; ``count-vinogradov --budget`` is the one override.
"""

CELL_BUDGET = 8_000_000  # cubes, intervals, modulus cells and certificate cells
OPERATION_BUDGET = 50_000_000  # steps of a counting enumeration, about 0.1 us each; timed costs convert at that rate
GRID_BUDGET = 40_000_000  # points of a quotient-DFT grid


class MomentLabError(Exception):
    """Base class for all package errors."""


class BudgetExceededError(MomentLabError):
    """An enumeration would exceed its configured operation budget."""

    def __init__(self, message, estimated, budget):
        super().__init__(message)
        self.estimated = estimated
        self.budget = budget


def check_budget(estimated: int, budget: int, message: str) -> None:
    """Raise BudgetExceededError when estimated > budget.

    ``message`` is a template; ``{estimated}`` and ``{budget}`` are filled
    in only when the check raises, so a passing check builds no string.
    """
    if estimated > budget:
        raise BudgetExceededError(message.format(estimated=estimated, budget=budget), estimated, budget)


class SupportError(MomentLabError):
    """A function violates a required Fourier- or space-support condition.

    ``offending_cube`` carries the first cube found outside the allowed
    region, when known.
    """

    def __init__(self, message, offending_cube=None):
        super().__init__(message)
        self.offending_cube = offending_cube


class VerificationError(MomentLabError):
    """A checked inequality or identity failed at runtime."""
