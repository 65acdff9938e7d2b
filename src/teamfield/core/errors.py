"""Error types shared across the package.

BudgetError carries the size that was requested so callers (and the CLI)
can report how far over the cap a computation would have gone.
"""

from __future__ import annotations


class TeamfieldError(Exception):
    pass


class ModelError(TeamfieldError):
    """Malformed model data or an index out of range."""


def check_team(team) -> None:
    """Raise a ModelError unless team is 0 or 1."""
    if team not in (0, 1):
        raise ModelError(f"team index {team} out of range")


class SpecValidationError(TeamfieldError):
    """Raised when a spec fails validation at load time."""

    def __init__(self, entries: list[str]):
        self.entries = list(entries)
        super().__init__("spec validation failed: " + "; ".join(self.entries))


class BudgetError(TeamfieldError):
    """An enumeration or support size exceeded its budget."""

    def __init__(self, what: str, required: int, budget: int):
        self.what = what
        self.required = int(required)
        self.budget = int(budget)
        super().__init__(f"{what} needs {required} which exceeds the budget {budget}")
