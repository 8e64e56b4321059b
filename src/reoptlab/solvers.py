"""Satisfiability solvers: an exhaustive oracle and a deterministic DPLL.

Both solvers exist to cross-check constructions at desk scale, not to
compete: no clause learning, no preprocessing beyond clause
canonicalization.  DPLL keeps an explicit stack of open decisions, each
with the clause masks saved when it was taken, and backtracks by
restoring them, so its depth is bounded by memory, not by the
interpreter's recursion limit.  Internally literals are codes, as in
MiniSat: the variable of rank ``i`` (by id) has the codes ``2i``
(positive) and ``2i + 1`` (negative), so a code indexes per-literal
lists directly and negation is ``code ^ 1``.  Each code has an integer
mask of the clauses that contain it, and a bit-sliced counter holds how
many literals of each clause are not false, so propagation, conflict
detection and the choice of unit are a few whole-formula integer
operations, not visits to single clauses.  Bit ``i`` is clause ``i`` in
``clause_sort_key`` order, so DPLL still makes the same decisions as one
that rescans the clauses in that order.  The masks grow with variables
times clauses, which ``DPLL_BUDGET`` caps.
"""

from __future__ import annotations

from .cnf import Assignment, CnfFormula, evaluate

ORACLE_LIMIT = 20
# Mentioned variables times clauses above which DPLL refuses a formula,
# so that its clause masks stay within 16 MiB.
DPLL_BUDGET = 1 << 26


class OracleLimitError(RuntimeError):
    """Alphabet too large for exhaustive enumeration."""


class DpllBudgetError(RuntimeError):
    """Formula too large for DPLL's clause masks."""


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
        raise OracleLimitError(
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
    that comes first in ``clause_sort_key`` order; else decide true the
    lowest unassigned variable that occurs in a clause not yet satisfied,
    so branching is lowest id first, positive first.  ``work`` counts
    decisions plus unit propagations, the solver-step currency of the hint
    reuse measurements.

    Set-up codes the literals (see the module docstring): a decision on
    the variable of rank ``i`` sets the code ``2i``, its false branch
    ``2i + 1``, and the model is read off the even codes on the trail.
    Coding is monotone in ``clause_sort_key`` (rank follows id, and the
    positive literal comes first in both), so sorting the coded clauses
    as plain lists gives the ``clause_sort_key`` order without a key
    function.  Bit ``i`` of every mask is clause ``i`` of that order.

    The state is a few clause masks, Python ints.  ``occ[code]`` holds
    the clauses that contain a literal and ``unsat`` the clauses no true
    literal satisfies yet.  ``planes`` is a bit-sliced counter: bit ``i``
    of ``planes[j]`` is bit ``j`` of how many literal codes of clause
    ``i`` are not false, over ``max_len.bit_length()`` planes.  Set-up
    adds every ``occ[code]`` to it with a carry chain, so a literal
    repeated in a clause counts once.  Setting code ``l`` clears
    ``occ[l]`` from ``unsat`` and subtracts ``occ[l ^ 1]`` from the
    counter with a borrow chain; satisfied clauses count down too, so
    every count stays exact.

    Each step reads ``few``, the unsatisfied clauses whose count is 0 or
    1, off the counter.  A count of 0 is a conflict: only the newest
    assignment can empty a clause, so each conflict shows at the step
    that causes it.  Otherwise ``few`` holds exactly the unit clauses,
    since every count is exact, and its lowest bit is the unit that comes
    first in ``clause_sort_key`` order; its literal is the one unassigned
    code in that clause.  A decision saves the trail length,
    its variable, ``unsat`` and the planes; a conflict restores them,
    cuts the trail and resets ``value`` for the undone codes.  A decision
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
    ``DPLL_BUDGET`` raises ``DpllBudgetError`` before any mask is built.
    """
    variables = sorted({abs(lit) for lit in set().union(*formula.clauses)})
    if len(variables) * len(formula.clauses) > DPLL_BUDGET:
        raise DpllBudgetError(
            f"{len(variables)} variables times {len(formula.clauses)} clauses"
            f" exceed the DPLL budget of {DPLL_BUDGET}"
        )
    code: dict[int, int] = {}
    for rank, var in enumerate(variables):
        code[var], code[-var] = 2 * rank, 2 * rank + 1
    # Plain list order is ``clause_sort_key`` order; the empty clause sorts first.
    clauses = sorted([list(map(code.__getitem__, cl)) for cl in formula.clauses])
    if clauses and not clauses[0]:
        return None, 0
    occ = [0] * len(code)
    for index, lits in enumerate(clauses):
        bit = 1 << index
        for lit in lits:
            occ[lit] |= bit
    planes = [0] * max(map(len, clauses), default=1).bit_length()  # planes[0] always exists
    for carry in occ:  # count each clause's distinct literal codes
        for j, plane in enumerate(planes):
            planes[j] = plane ^ carry
            carry &= plane
            if not carry:
                break
    unsat = (1 << len(clauses)) - 1

    value: list[bool | None] = [None] * len(code)
    trail: list[int] = []
    open_decisions: list[tuple[int, ...]] = []
    work = 0
    start = 0  # every variable below it is assigned or in satisfied clauses only
    while True:
        few = unsat  # unsatisfied clauses with at most one literal not false
        for plane in planes[1:]:
            few &= ~plane
        if few & ~planes[0]:  # a clause down to 0: conflict
            if not open_decisions:
                return None, work
            mark, var, unsat, *planes = open_decisions.pop()
            for undone in trail[mark:]:
                value[undone] = value[undone ^ 1] = None
            del trail[mark:]
            start = var
            lit = 2 * var + 1
        elif few:
            for lit in clauses[(few & -few).bit_length() - 1]:
                if value[lit] is None:
                    break
        else:
            for var in range(start, len(variables)):
                if value[2 * var] is None and (occ[2 * var] | occ[2 * var + 1]) & unsat:
                    break
            else:  # every clause is satisfied
                return frozenset(variables[lit >> 1] for lit in trail if not lit & 1), work
            open_decisions.append((len(trail), var, unsat, *planes))
            start = var
            lit = 2 * var
        value[lit], value[lit ^ 1] = True, False
        trail.append(lit)
        work += 1
        unsat &= ~occ[lit]
        borrow = occ[lit ^ 1]
        for j, plane in enumerate(planes):
            planes[j] = plane ^ borrow
            borrow &= ~plane
            if not borrow:
                break
