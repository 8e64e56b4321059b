"""Exception types shared across solver modules."""


class InvalidHintError(ValueError):
    """The supplied hint violates its stated precondition."""


class BudgetExceededError(RuntimeError):
    """A search or oracle would exceed its size or work budget; the CLI exits 3."""
