"""SAT-side constructions for solving under instance modification.

Three builders live here.  ``reduce_fixed_model`` maps a formula G to a
triple (F, change clause, known model) such that the known model satisfies
F but tells you nothing about whether F plus the change clause is
satisfiable.  ``reduce_unique_model`` strengthens this: it produces a
formula with exactly one model, so that *no* choice of model can help
once one clause is swapped for another.  ``make_nsat_instance`` pairs a
formula with a unary string encoding its variable count, the shape used by
the bounded-change compilation scenario.

With alphabet X of G and a fresh variable a, the two SAT constructions
build their formula in one pass over G's clauses, as defined: the guarded
formula {c or a | c in G}, and the single-model formula {a} together with
{x or c | x in X plus a, c in G plus -a}.  The single-model formula grows
as |X| times |G|, so one past the DPLL budget is refused before it is built.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cnf import Assignment, Clause, CnfFormula, clause, evaluate
from .errors import DPLL_BUDGET, BudgetExceededError


def fresh_variable(formula: CnfFormula) -> int:
    """Smallest variable id strictly above the formula's alphabet."""
    return max(formula.alphabet, default=0) + 1


@dataclass(frozen=True)
class FixedModelInstance:
    """A formula, a clause about to be added, and one known model."""

    formula: CnfFormula
    change_clause: Clause
    hint_model: Assignment

    def __post_init__(self):
        if not evaluate(self.formula, self.hint_model):
            raise ValueError("hint model does not satisfy the formula")


def reduce_fixed_model(g: CnfFormula) -> FixedModelInstance:
    """Embed satisfiability of ``g`` into a known-model instance.

    A fresh variable ``a`` is disjoined onto every clause of ``g``; the
    change clause is the unit clause for ``-a`` and the known model is
    ``{a}``.  Adding the change clause makes the result equisatisfiable
    with ``g``, yet ``{a}`` satisfies the base formula trivially.
    """
    a = fresh_variable(g)
    guarded = CnfFormula(g.alphabet | {a}, frozenset(clause(*cl, a) for cl in g.clauses))
    return FixedModelInstance(guarded, clause(-a), frozenset({a}))


@dataclass(frozen=True)
class UniqueModelInstance:
    """A single-model formula with a designated clause swap."""

    formula: CnfFormula
    add_clause: Clause
    del_clause: Clause


def reduce_unique_model(g: CnfFormula) -> UniqueModelInstance:
    """Embed satisfiability of ``g`` into a single-model instance.

    With fresh ``a`` and alphabet X of ``g``, the formula is
    {a} together with the pairwise disjunction of (units of X plus {a})
    and (clauses of g plus {-a}).  Its only model makes ``a`` and all of X
    true.  Swapping the clause {a} for {-a} yields a formula that is
    satisfiable iff ``g`` is.  If |X|+1 variables times the
    (|X|+1)(|clauses|+1) pairs of the product exceed the budget the DPLL
    solver puts on variables times clauses, ``BudgetExceededError`` is
    raised before anything is built.
    """
    if any(len(cl) == 0 for cl in g.clauses):
        raise ValueError("the construction does not support empty clauses")
    variables = len(g.alphabet) + 1
    pairs = variables * (len(g.clauses) + 1)
    if variables * pairs > DPLL_BUDGET:
        raise BudgetExceededError(
            f"{variables} variables times up to {pairs} clauses exceed the DPLL budget"
            f" of {DPLL_BUDGET}")
    a = fresh_variable(g)
    product = frozenset(clause(x, *c) for x in (*g.alphabet, a) for c in (*g.clauses, (-a,)))
    formula = CnfFormula(g.alphabet | {a}, product | {(a,)})
    return UniqueModelInstance(formula, clause(-a), clause(a))


def unique_model(instance: UniqueModelInstance) -> Assignment:
    """The single model of a unique-model instance: everything true."""
    return frozenset(instance.formula.alphabet)


@dataclass(frozen=True)
class NsatInstance:
    """A formula paired with a unary encoding of its variable count."""

    unary_part: str
    formula: CnfFormula

    def __post_init__(self):
        if self.unary_part != "1" * len(self.formula.alphabet):
            raise ValueError("unary part must be '1' repeated once per alphabet variable")


def make_nsat_instance(y: CnfFormula) -> NsatInstance:
    """Pair ``y`` with a unary string of length |alphabet|.

    The declared alphabet is counted, not merely the mentioned variables,
    so formulas over the same alphabet share a unary part.
    """
    return NsatInstance("1" * len(y.alphabet), y)
