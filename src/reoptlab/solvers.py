"""Satisfiability solvers: an exhaustive oracle and a deterministic DPLL.

Both solvers exist to cross-check constructions at desk scale, not to
compete: no clause learning, no preprocessing beyond clause
canonicalization.  DPLL backtracks over an undo trail with an explicit
stack of open decisions, so its depth is bounded by memory, not by the
interpreter's recursion limit.  It finds conflicts and unit clauses
through two watched literals per clause (Chaff, MiniSat), takes units
from a min-heap in ``clause_sort_key`` order and branches through
per-variable occurrence lists, so a step never rescans every clause, yet
it makes the same decisions as a DPLL that does.
"""

from __future__ import annotations

from heapq import heappop, heappush

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

    One loop over the assignment, a trail of assigned literals and a
    stack of ``(trail length, variable)`` for decisions whose false branch
    is untried.  Each step, in this order: on a conflict, pop the newest
    decision, undo the trail to its mark and set the variable false; else
    propagate the unit clause that comes first in ``clause_sort_key``
    order; else decide true the lowest unassigned variable that occurs in
    a clause not yet satisfied, so branching is lowest id first, positive
    first.  ``work`` counts decisions plus unit propagations, the
    solver-step currency of the hint reuse measurements.

    No step rescans the clauses.  Each clause watches two of its literals
    (a unit clause its one literal), and an assignment visits only the
    clauses that watch the literal it makes false: each moves that watch
    to a literal that is not false, or else is satisfied by its other
    watch, unit on it, or in conflict.  Only the newest assignment can
    empty a clause, so this finds every conflict a full pass would.  Unit
    clauses wait in a min-heap of clause indices and are dropped when
    popped satisfied.  A decision is taken only with no unit pending, so
    undoing the trail to a decision's mark leaves none, and backtracking
    empties the heap.  Branching scans the variables upward through
    per-variable occurrence lists, from the newest decision's variable:
    every variable below it stays assigned or in satisfied clauses only,
    until backtracking restores the state in which that decision was
    taken.
    """
    ordered = sorted(formula.clauses, key=clause_sort_key)
    variables = sorted({abs(lit) for cl in ordered for lit in cl})
    dense = {v: i for i, v in enumerate(variables, start=1)}
    size = 2 * len(variables) + 1
    # Literals are renumbered 1..n by variable order and index per-literal
    # lists directly: a negative literal counts from the end of the list.
    value: list[bool | None] = [None] * size
    watches: list[list[int]] = [[] for _ in range(size)]
    occurs: list[list[int]] = [[] for _ in range(len(variables) + 1)]
    clauses: list[list[int]] = []
    units: list[int] = []
    for index, cl in enumerate(ordered):
        if not cl:
            return None, 0
        lits = [dense[lit] if lit > 0 else -dense[-lit] for lit in cl]
        for lit in lits:
            occurs[abs(lit)].append(index)
        if len(lits) == 1:
            # Stored as [l, l]: once l is false, no literal can take the
            # watch and the other watch is false too, which is a conflict.
            lits.append(lits[0])
            units.append(index)  # ascending, so already a heap
        else:
            watches[lits[1]].append(index)
        watches[lits[0]].append(index)
        clauses.append(lits)

    trail: list[int] = []
    open_decisions: list[tuple[int, int]] = []
    work = 0
    start = 1  # every variable below it is assigned or in satisfied clauses only
    while True:
        while units and value[clauses[units[0]][0]]:
            heappop(units)  # satisfied since it became unit
        if units:
            lit = clauses[heappop(units)][0]
        else:
            for var in range(start, len(variables) + 1):
                if value[var] is None and not all(
                    any(value[other] for other in clauses[index]) for index in occurs[var]
                ):
                    break
            else:  # every clause is satisfied
                return frozenset(variables[lit - 1] for lit in trail if lit > 0), work
            open_decisions.append((len(trail), var))
            lit = start = var
        while True:
            value[lit], value[-lit] = True, False
            trail.append(lit)
            work += 1
            if _watch_false(-lit, clauses, watches, value, units):
                break
            if not open_decisions:
                return None, work
            mark, var = open_decisions.pop()
            for undone in trail[mark:]:
                value[undone] = value[-undone] = None
            del trail[mark:]
            units.clear()
            start = var
            lit = -var


def _watch_false(false_lit: int, clauses, watches, value, units) -> bool:
    """Visit the clauses watching a literal just made false; False on a conflict.

    A clause keeps its watches in positions 0 and 1, and the false one is
    first swapped into position 1.  If the watch in position 0 is true,
    the clause is satisfied and keeps both watches.  Otherwise the false
    watch moves to a later literal that is not false; failing that, the
    clause is unit on position 0 (its index joins the heap) or, with
    position 0 false too, in conflict.
    """
    watching = watches[false_lit]
    kept: list[int] = []
    for position, index in enumerate(watching):
        cl = clauses[index]
        if cl[0] == false_lit:
            cl[0], cl[1] = cl[1], false_lit
        other = cl[0]
        if value[other]:
            kept.append(index)
            continue
        for k in range(2, len(cl)):
            candidate = cl[k]
            if value[candidate] is not False:
                cl[1], cl[k] = candidate, false_lit
                watches[candidate].append(index)
                break
        else:
            kept.append(index)
            if value[other] is None:
                heappush(units, index)
            else:
                kept.extend(watching[position + 1:])
                watches[false_lit] = kept
                return False
    watches[false_lit] = kept
    return True
