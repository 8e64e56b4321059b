"""Satisfiability solvers: an exhaustive oracle and a deterministic DPLL.

Both solvers exist to cross-check constructions at desk scale, not to
compete: no clause learning, no preprocessing beyond clause
canonicalization.  DPLL backtracks over an undo trail with an explicit
stack of open decisions, so its depth is bounded by memory, not by the
interpreter's recursion limit.
"""

from __future__ import annotations

from .cnf import Assignment, CnfFormula, clause_sort_key, evaluate

DEFAULT_ORACLE_LIMIT = 20


class OracleLimitError(RuntimeError):
    """Alphabet too large for exhaustive enumeration."""


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

    One loop over the assignment, a trail of assigned variables and a
    stack of ``(trail length, variable)`` for decisions whose false branch
    is untried.  Each pass over the clauses finds a conflict (pop the
    newest decision, undo the trail to its mark, set the variable false),
    else propagates the first unit literal, else decides the lowest
    unassigned variable true, so branching is lowest id first, positive
    first.  ``work`` counts decisions plus unit propagations, the
    solver-step currency of the hint reuse measurements.
    """
    ordered = sorted(formula.clauses, key=clause_sort_key)
    assign: dict[int, bool] = {}
    trail: list[int] = []
    open_decisions: list[tuple[int, int]] = []
    work = 0
    while True:
        unit = branch = None
        conflict = False
        for cl in ordered:
            unassigned = []
            for lit in cl:
                val = assign.get(abs(lit))
                if val is None:
                    unassigned.append(lit)
                elif val == (lit > 0):
                    break
            else:  # no literal of the clause is true
                if not unassigned:
                    conflict = True
                    break
                if unit is None and len(unassigned) == 1:
                    unit = unassigned[0]
                low = min(abs(lit) for lit in unassigned)
                if branch is None or low < branch:
                    branch = low
        if conflict:
            if not open_decisions:
                return None, work
            mark, var = open_decisions.pop()
            for undone in trail[mark:]:
                del assign[undone]
            del trail[mark:]
            value = False
        elif branch is None:  # every clause is satisfied
            return frozenset(v for v, b in assign.items() if b), work
        elif unit is not None:
            var, value = abs(unit), unit > 0
        else:
            open_decisions.append((len(trail), branch))
            var, value = branch, True
        assign[var] = value
        trail.append(var)
        work += 1
