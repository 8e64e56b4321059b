"""Every exception type the library defines, the constructions' and DPLL's
size caps, and the JSON hook with which every loader refuses a repeated key.

No other module defines an exception type: any other refusal is a plain
``ValueError`` or ``KeyError`` whose message says what was refused.
Exit 1: ``InvalidConfigError`` (a configuration field out of range) and
``InvalidHintError`` (a hint that breaks its precondition), among the
other ``ValueError``s.  Exit 2: ``VerdictMismatchError``.  Exit 3:
``BudgetExceededError``, raised when a size, oracle, table or
construction limit refuses an input before any work starts, and its one
subclass ``SearchBudgetError``, raised when a search runs past its cap.
"""

from collections import Counter

# The most nodes a cover gadget, conditions plus operators a replanning
# case, nodes plus edges a random graph, or clauses times the clause size
# a random formula may have; a larger one is refused before anything is
# built.
CONSTRUCTION_BUDGET = 1 << 16
# Mentioned variables times clauses above which a formula carries no
# literal masks and DPLL refuses it, so that the masks stay within 16 MiB.
DPLL_BUDGET = 1 << 26


class InvalidHintError(ValueError):
    """The supplied hint violates its stated precondition."""


class InvalidConfigError(ValueError):
    """A configuration field is out of range; ``field`` names it."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field = field_name


class VerdictMismatchError(RuntimeError):
    """Cold and hinted solving disagreed; the message is a reproducer."""


class BudgetExceededError(RuntimeError):
    """A size, oracle, table or construction limit refused the input before any work; exit 3."""


class SearchBudgetError(BudgetExceededError):
    """The configured search cap was exceeded."""


def unique_keys(pairs: list) -> dict:
    """``json.loads`` object hook: a JSON object naming a key twice is a ``ValueError``.

    Plain ``json.loads`` keeps the last value silently, so a file could say
    one thing to a reader and another to the loader.
    """
    obj = dict(pairs)
    if len(obj) < len(pairs):
        repeated = next(key for key, count in Counter(key for key, _ in pairs).items() if count > 1)
        raise ValueError(f"JSON object repeats the key {repeated!r}")
    return obj
