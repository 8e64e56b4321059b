"""Satisfiability solvers: an exhaustive oracle and a deterministic DPLL.

Both solvers exist to cross-check constructions at desk scale, not to
compete: no clause learning, no preprocessing beyond clause
canonicalization.  DPLL keeps an explicit stack of open decisions, each
with the clause masks saved when it was taken, and backtracks by
restoring them, so its depth is bounded by memory, not by the
interpreter's recursion limit.  Each literal has an integer mask of the
clauses that contain it, keyed by the signed literal itself, so negation
is ``-lit``.  A bit-sliced counter holds how many literals of each
clause are not false, so propagation, conflict detection and the choice
of unit are a few whole-formula integer operations, not visits to single
clauses.  Bit ``i`` is clause ``i`` of ``formula.ordered``, the clauses
in plain tuple order; the order and the literal masks, ``formula.occ``,
come with the formula from its construction, so per call DPLL only
sorts the mentioned variables and builds the counter planes, and makes
the same decisions as one that rescans the clauses in that order.  The
masks grow with variables times clauses, which ``cnf.DPLL_BUDGET``
caps; ``DPLL_SEARCH_BUDGET`` caps the steps.
"""

from __future__ import annotations

from . import cnf
from .cnf import Assignment, CnfFormula, evaluate
from .errors import BudgetExceededError, SearchBudgetError

ORACLE_LIMIT = 20
# The most decisions plus propagations one DPLL call may make.
DPLL_SEARCH_BUDGET = 1_000_000


def iter_assignments(variables):
    """Yield all assignments over the variables in binary counting order.

    Bit i of the counter (least significant bit first) drives the i-th
    smallest variable, so the all-false assignment comes first.
    """
    order = sorted(variables)
    for counter in range(1 << len(order)):
        yield frozenset(v for i, v in enumerate(order) if counter >> i & 1)


def _check_limit(formula: CnfFormula) -> None:
    if len(formula.alphabet) > ORACLE_LIMIT:
        raise BudgetExceededError(
            f"{len(formula.alphabet)} variables exceed the oracle limit of {ORACLE_LIMIT}"
        )


def solve_brute(formula: CnfFormula) -> Assignment | None:
    """First satisfying assignment in enumeration order, or None if unsatisfiable."""
    _check_limit(formula)
    for assignment in iter_assignments(formula.alphabet):
        if evaluate(formula, assignment):
            return assignment
    return None


def count_models(formula: CnfFormula) -> int:
    """Number of satisfying assignments over the declared alphabet."""
    _check_limit(formula)
    return sum(1 for a in iter_assignments(formula.alphabet) if evaluate(formula, a))


def solve_dpll(formula: CnfFormula) -> Assignment | None:
    return solve_dpll_stats(formula)[0]


def solve_dpll_stats(formula: CnfFormula) -> tuple[Assignment | None, int]:
    """DPLL with unit propagation; returns (model, work).

    One loop over the assignment, a trail of assigned literals and a
    stack of decisions whose false branch is untried.  Each step, in this
    order: on a conflict, pop the newest decision, restore the state saved
    with it and set its variable false; else propagate the unit clause
    that comes first in plain sorted clause order; else decide true the
    lowest unassigned variable that occurs in a clause not yet satisfied,
    so branching is lowest id first, positive first.  ``work`` counts
    decisions plus unit propagations, the solver-step currency of the hint
    reuse measurements.

    Set-up reads the masks the formula was built with, ``formula.occ``,
    keyed by signed literal: bit ``i`` of every mask is clause ``i`` of
    ``formula.ordered``, the clauses in plain tuple order (the empty
    clause comes first), a function of the formula alone.  Indexing the
    literal occurrences is thus paid once per formula, where it is parsed
    or derived, not once per call.  The mentioned variables are read off
    the mask keys, in id order.  Unit resolution reaches the same fixpoint
    in every order, and finds a conflict if there is one, so any clause
    order gives the same decisions and models; the order changes only the
    propagations counted at levels that end in a conflict.

    The state is a few clause masks, Python ints.  ``occ[lit]`` holds
    the clauses that contain a literal (one that occurs nowhere has no
    key and reads as 0) and ``unsat`` the clauses no true literal
    satisfies yet.  ``planes`` is a bit-sliced counter: bit ``i``
    of ``planes[j]`` is bit ``j`` of how many literals of clause ``i``
    are not false, over ``max_len.bit_length()`` planes.  Set-up adds
    every ``occ[lit]`` to it with a carry chain, so a literal repeated in
    a clause counts once.  Setting literal ``l`` clears ``occ[l]`` from
    ``unsat`` and subtracts ``occ[-l]`` from the counter with a borrow
    chain; satisfied clauses count down too, so every count stays exact.

    Each step reads ``few``, the unsatisfied clauses whose count is 0 or
    1, off the counter.  A count of 0 is a conflict: only the newest
    assignment can empty a clause, so each conflict shows at the step
    that causes it.  Otherwise ``few`` holds exactly the unit clauses,
    since every count is exact, and its lowest bit is the unit that comes
    first in sorted order; its literal is the one unassigned literal in
    that clause.  A decision saves the trail length, the rank of its
    variable, ``unsat`` and the planes; a conflict restores them, cuts
    the trail and drops the undone literals from ``value``.  A decision
    is taken with no unit pending and no conflict, so this is exactly the
    state in which it was taken.  Branching scans the variables upward
    from the newest decision's variable and tests each one's two literal
    masks against ``unsat``: every variable below it stays assigned or in
    satisfied clauses only until that decision is undone.

    Every mask operation costs ``O(clauses / 64)`` machine words, a
    handful per step, and the literal masks hold up to ``2 * variables *
    clauses`` bits, so cost grows quadratically on large sparse formulas.
    Each open decision holds at most ``len(planes) + 1`` saved clause
    masks, and at most one decision per mentioned variable is open.
    A formula whose mentioned variables times clauses exceeds
    ``cnf.DPLL_BUDGET`` carries no masks, ``formula.occ is None``, and
    raises ``BudgetExceededError``: the construction decides, and the
    variables are counted here only for the message.
    Once ``work`` passes ``DPLL_SEARCH_BUDGET`` the call raises
    ``SearchBudgetError``, the conflict budget of MiniSat's
    ``setConfBudget`` counted in steps.
    """
    occ = formula.occ
    if occ is None:
        mentioned = len({abs(lit) for lit in set().union(*formula.clauses)})
        raise BudgetExceededError(
            f"{mentioned} variables times {len(formula.clauses)} clauses"
            f" exceed the DPLL budget of {cnf.DPLL_BUDGET}"
        )
    cap = DPLL_SEARCH_BUDGET
    clauses = formula.ordered  # the empty clause sorts first
    if clauses and not clauses[0]:
        return None, 0
    planes = [0] * max(map(len, clauses), default=1).bit_length()  # planes[0] always exists
    for carry in occ.values():  # count each clause's distinct literals
        for j, plane in enumerate(planes):
            planes[j] = plane ^ carry
            carry &= plane
            if not carry:
                break
    variables = sorted({abs(lit) for lit in occ})
    unsat = (1 << len(clauses)) - 1

    value: dict[int, bool] = {}  # keyed by literal; holds both literals of each assigned variable
    trail: list[int] = []
    open_decisions: list[tuple[int, ...]] = []
    work = 0
    start = 0  # every variable of lower rank is assigned or in satisfied clauses only
    while True:
        few = unsat  # unsatisfied clauses with at most one literal not false
        for plane in planes[1:]:
            few &= ~plane
        if few & ~planes[0]:  # a clause down to 0: conflict
            if not open_decisions:
                return None, work
            mark, start, unsat, *planes = open_decisions.pop()
            for undone in trail[mark:]:
                del value[undone], value[-undone]
            del trail[mark:]
            lit = -variables[start]
        elif few:
            for lit in clauses[(few & -few).bit_length() - 1]:
                if lit not in value:
                    break
        else:
            for rank in range(start, len(variables)):
                lit = variables[rank]
                if lit not in value and (occ.get(lit, 0) | occ.get(-lit, 0)) & unsat:
                    break
            else:  # every clause is satisfied
                return frozenset(lit for lit in trail if lit > 0), work
            open_decisions.append((len(trail), rank, unsat, *planes))
            start = rank
        value[lit], value[-lit] = True, False
        trail.append(lit)
        work += 1
        if work > cap:
            raise SearchBudgetError(f"more than {cap} DPLL decisions and propagations made")
        unsat &= ~occ.get(lit, 0)
        borrow = occ.get(-lit, 0)
        for j, plane in enumerate(planes):
            planes[j] = plane ^ borrow
            borrow &= ~plane
            if not borrow:
                break
