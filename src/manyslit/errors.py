"""Exception types shared across the library."""
from __future__ import annotations


class EnumerationBudgetError(ValueError):
    """A path, pair, or combination enumeration would exceed its budget.

    Carries the slit count ``n``, detector count ``m``, the number of terms
    the enumeration would need, and the budget that was in force.
    """

    def __init__(self, message: str, *, n: int, m: int, required: int, budget: int):
        super().__init__(message)
        self.n = n
        self.m = m
        self.required = required
        self.budget = budget


class DegenerateNormalizationError(ValueError):
    """A normalization peak evaluated to zero, so the ratio is undefined."""
