"""Exception types shared across solver modules, and the constructions' size cap."""

# The most nodes a cover gadget, or conditions plus operators a replanning
# case, may have; a larger one is refused before anything is built.
CONSTRUCTION_BUDGET = 1 << 16


class InvalidHintError(ValueError):
    """The supplied hint violates its stated precondition."""


class BudgetExceededError(RuntimeError):
    """A search or oracle would exceed its size or work budget; the CLI exits 3."""
