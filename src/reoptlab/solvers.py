"""Satisfiability solvers: an exhaustive oracle and a deterministic DPLL.

Both solvers exist to cross-check constructions at desk scale, not to
compete: no clause learning, no preprocessing beyond clause
canonicalization.  DPLL backtracks over an undo trail with an explicit
stack of open decisions, so its depth is bounded by memory, not by the
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

from functools import reduce
from operator import or_

from .cnf import Assignment, CnfFormula, evaluate

DEFAULT_ORACLE_LIMIT = 20
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


def _check_limit(formula: CnfFormula, limit: int) -> None:
    if len(formula.alphabet) > limit:
        raise OracleLimitError(
            f"{len(formula.alphabet)} variables exceed the oracle limit of {limit}"
        )


def solve_brute(formula: CnfFormula, limit: int = DEFAULT_ORACLE_LIMIT) -> Assignment | None:
    """First satisfying assignment in enumeration order, or None if unsatisfiable."""
    _check_limit(formula, limit)
    for assignment in iter_assignments(formula.alphabet):
        if evaluate(formula, assignment):
            return assignment
    return None


def count_models(formula: CnfFormula, limit: int = DEFAULT_ORACLE_LIMIT) -> int:
    """Number of satisfying assignments over the declared alphabet."""
    _check_limit(formula, limit)
    return sum(1 for a in iter_assignments(formula.alphabet) if evaluate(formula, a))


def solve_dpll(formula: CnfFormula) -> Assignment | None:
    return solve_dpll_stats(formula)[0]


def solve_dpll_stats(formula: CnfFormula) -> tuple[Assignment | None, int]:
    """DPLL with unit propagation; returns (model, work).

    One loop over the assignment, a trail of assigned literals and a
    stack of ``(trail length, variable rank)`` for decisions whose false branch
    is untried.  Each step, in this order: on a conflict, pop the newest
    decision, undo the trail to its mark and set the variable false; else
    propagate the unit clause that comes first in ``clause_sort_key``
    order; else decide true the lowest unassigned variable that occurs in
    a clause not yet satisfied, so branching is lowest id first, positive
    first.  ``work`` counts decisions plus unit propagations, the
    solver-step currency of the hint reuse measurements.

    Set-up codes the literals (see the module docstring): a decision on
    the variable of rank ``i`` sets the code ``2i``, its false branch
    ``2i + 1``, and the model is read off the even codes on the trail.
    Coding is monotone in ``clause_sort_key`` (rank follows id, and the
    positive literal comes first in both), so sorting the coded clauses
    as plain lists gives the ``clause_sort_key`` order without a key
    function.  Bit ``i`` of every mask is clause ``i`` of that order.

    The state is a few clause masks, Python ints.  ``occ[code]`` holds
    the clauses that contain a literal, ``unsat`` the clauses no true
    literal satisfies yet, and ``units`` clauses seen down to one literal
    that is not false.  ``planes`` is a bit-sliced counter: bit ``i`` of
    ``planes[j]`` is bit ``j`` of how many literal codes of clause ``i``
    are not false, over ``max_len.bit_length()`` planes.  Set-up adds
    every ``occ[code]`` to it with a carry chain, so a literal repeated in
    a clause counts once.  Setting code ``l``
    clears ``occ[l]`` from ``unsat`` and subtracts ``occ[l ^ 1]`` from the
    counter with a borrow chain; satisfied clauses count down too, so
    every count stays exact.  Of the clauses just hit that are still
    unsatisfied, a count of 0 is a conflict and a count of 1 joins
    ``units``.  Only the newest assignment can empty a clause, so this
    finds every conflict a full pass would.

    The next unit is the lowest bit of ``units & unsat``.  Counts only
    fall until the next backtrack, so these are exactly the unsatisfied
    clauses left with one literal, and bit order is clause order, so the
    lowest bit is the unit that comes first in ``clause_sort_key`` order.
    Its literal is the one unassigned code in that clause.  A decision is
    taken only with no unit pending, so backtracking to its mark adds
    ``occ[u ^ 1]`` back with a carry chain for each undone code ``u``,
    rebuilds ``unsat`` from the kept trail and clears ``units``.
    Branching scans the variables upward from the newest decision's
    variable and tests each one's two literal masks against ``unsat``:
    every variable below it stays assigned or in satisfied clauses only,
    until backtracking restores the state in which that decision was
    taken.

    Every mask operation costs ``O(clauses / 64)`` machine words, a
    handful per step, and the literal masks hold up to ``2 * variables *
    clauses`` bits, so cost grows quadratically on large sparse formulas.
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
    planes = [0] * max(map(len, clauses), default=0).bit_length()
    for carry in occ:  # count each clause's distinct literal codes
        for j, plane in enumerate(planes):
            planes[j] = plane ^ carry
            carry &= plane
            if not carry:
                break
    units = planes[0] if planes else 0
    for plane in planes[1:]:
        units &= ~plane
    everything = unsat = (1 << len(clauses)) - 1

    value: list[bool | None] = [None] * len(code)
    trail: list[int] = []
    open_decisions: list[tuple[int, int]] = []
    work = 0
    start = 0  # every variable below it is assigned or in satisfied clauses only
    while True:
        pending = units & unsat
        if pending:
            for lit in clauses[(pending & -pending).bit_length() - 1]:
                if value[lit] is None:
                    break
        else:
            for var in range(start, len(variables)):
                if value[2 * var] is None and (occ[2 * var] | occ[2 * var + 1]) & unsat:
                    break
            else:  # every clause is satisfied
                return frozenset(variables[lit >> 1] for lit in trail if not lit & 1), work
            open_decisions.append((len(trail), var))
            start = var
            lit = 2 * var
        while True:
            value[lit], value[lit ^ 1] = True, False
            trail.append(lit)
            work += 1
            unsat &= ~occ[lit]
            borrow = falsified = occ[lit ^ 1]
            for j, plane in enumerate(planes):
                planes[j] = plane ^ borrow
                borrow &= ~plane
                if not borrow:
                    break
            hit = falsified & unsat
            for plane in planes[1:]:
                hit &= ~plane  # keeps the hit clauses down to 0 or 1 literals
            if not hit & ~planes[0]:  # none down to 0: no conflict
                units |= hit
                break
            if not open_decisions:
                return None, work
            mark, var = open_decisions.pop()
            for undone in trail[mark:]:
                value[undone] = value[undone ^ 1] = None
                carry = occ[undone ^ 1]
                for j, plane in enumerate(planes):
                    planes[j] = plane ^ carry
                    carry &= plane
                    if not carry:
                        break
            del trail[mark:]
            unsat = everything ^ reduce(or_, map(occ.__getitem__, trail), 0)
            units = 0
            start = var
            lit = 2 * var + 1
