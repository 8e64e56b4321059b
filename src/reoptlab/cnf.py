"""Propositional CNF model: clauses, formulas, assignments and change sets.

Variables are positive integers and a literal is a nonzero integer whose
sign carries the polarity (DIMACS convention).  A clause is a canonical
tuple of literals, sorted by variable id with the positive literal first
and duplicates removed.  A formula is a frozen set of clauses over an
explicit, finite alphabet; clause collections have set semantics.  Each
formula also carries its clauses as a tuple in plain ``sorted()`` order,
built when the formula is built; DPLL indexes its clause masks by it, and
``apply_changes`` derives a child's tuple from its parent's by bisection.
An assignment is the set of variables that are true; every other variable
in the alphabet is false.
"""

from __future__ import annotations

import warnings
from bisect import bisect_left, insort
from dataclasses import dataclass, field

Clause = tuple[int, ...]
Assignment = frozenset[int]


def _literal_key(lit: int) -> int:
    # Variable id first, the positive literal before the negative one.
    return 2 * abs(lit) + (lit < 0)


def clause(*literals: int) -> Clause:
    """Canonical clause from literals: sorted and deduplicated; 0 is rejected."""
    if 0 in literals:
        raise ValueError("0 is not a literal")
    return tuple(sorted(set(literals), key=_literal_key))


def clause_sort_key(cl: Clause) -> tuple[int, ...]:
    """Total order on canonical clauses, used wherever clauses get indexed."""
    return tuple(map(_literal_key, cl))


def is_tautology(cl: Clause) -> bool:
    lits = set(cl)
    return any(-lit in lits for lit in lits)


@dataclass(frozen=True)
class CnfFormula:
    """A set of clauses over a declared alphabet of variable ids.

    The alphabet may be larger than the set of mentioned variables; it may
    not be smaller.  ``ordered`` is ``tuple(sorted(clauses))``, a function
    of the clauses, so it takes no part in ``==``, ``hash`` or ``repr``.
    It is built eagerly, never cached lazily on first use: a lazy cache
    would charge the sort to whichever caller came first and make every
    later solve of the same object look free, where the cost belongs to
    building the formula.
    """

    alphabet: frozenset[int]
    clauses: frozenset[Clause]
    ordered: tuple[Clause, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if any(v < 1 for v in self.alphabet):
            raise ValueError("variable ids must be >= 1")
        mentioned = {abs(lit) for cl in self.clauses for lit in cl}
        extra = mentioned - set(self.alphabet)
        if extra:
            raise ValueError(f"clause variables outside the alphabet: {sorted(extra)}")
        object.__setattr__(self, "ordered", tuple(sorted(self.clauses)))


def _trusted_formula(alphabet: frozenset[int], clauses: frozenset[Clause],
                     ordered: tuple[Clause, ...]) -> CnfFormula:
    """A formula built without ``__post_init__``'s alphabet walk and sort.

    Only for callers whose construction already guarantees every
    invariant: ids ``>= 1``, every clause variable in the alphabet, and
    ``ordered == tuple(sorted(clauses))``.  ``apply_changes`` qualifies
    because its parent was valid and every added variable widens the
    alphabet; ``dimacs.parse_dimacs`` because its alphabet is ``1..nvars``
    and it refuses every literal beyond ``nvars``.
    """
    formula = object.__new__(CnfFormula)
    object.__setattr__(formula, "alphabet", alphabet)
    object.__setattr__(formula, "clauses", clauses)
    object.__setattr__(formula, "ordered", ordered)
    return formula


def cnf(clauses_in=(), alphabet=None) -> CnfFormula:
    """Build a formula; the alphabet defaults to the mentioned variables."""
    cls = frozenset(clause(*c) for c in clauses_in)
    if alphabet is None:
        alphabet = {abs(lit) for cl in cls for lit in cl}
    return CnfFormula(frozenset(alphabet), cls)


def evaluate(formula: CnfFormula, assignment) -> bool:
    """True iff every clause contains a literal made true by the assignment.

    The empty formula is true and a formula containing the empty clause is
    false under every assignment.
    """
    return clauses_true(formula.alphabet, formula.clauses, assignment)


def clauses_true(alphabet, clauses, assignment) -> bool:
    """True iff every clause, all of whose variables are in the alphabet,
    contains a literal made true by the assignment.

    Each variable of the alphabet contributes the one literal of it that
    the assignment makes true.  Every clause variable is in the alphabet,
    so a clause is true iff it meets that set, which one C-level
    ``isdisjoint`` per clause decides, stopping at the first false clause.
    The cost is linear in the alphabet plus the clauses checked.
    """
    true_vars = frozenset(assignment)
    true_lits = {v if v in true_vars else -v for v in alphabet}
    return not any(map(true_lits.isdisjoint, clauses))


@dataclass(frozen=True)
class ChangeSet:
    """Ordered clause additions and deletions.

    A clause may not appear on both sides.  Applying a change set removes
    the deletions first and then inserts the additions, set-semantically.
    """

    additions: tuple[Clause, ...] = ()
    deletions: tuple[Clause, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "additions", tuple(clause(*c) for c in self.additions))
        object.__setattr__(self, "deletions", tuple(clause(*c) for c in self.deletions))
        both = set(self.additions) & set(self.deletions)
        if both:
            raise ValueError(f"clauses both added and deleted: {sorted(both)}")


def apply_changes(formula: CnfFormula, changes: ChangeSet) -> CnfFormula:
    """Apply a change set: deletions first, then additions.

    Deleting a clause that is not present succeeds with a warning.  Added
    clauses may extend the alphabet; deletions never shrink it.  The
    child's ``ordered`` is the parent's with each deletion cut out and each
    new addition inserted by bisection, so nothing is sorted again.
    """
    cls = set(formula.clauses)
    ordered = list(formula.ordered)
    for cl in changes.deletions:
        if cl in cls:
            cls.discard(cl)
            del ordered[bisect_left(ordered, cl)]
        else:
            warnings.warn(f"deleted clause not present: {cl}", stacklevel=2)
    for cl in changes.additions:
        if cl not in cls:
            cls.add(cl)
            insort(ordered, cl)
    alphabet = formula.alphabet.union(abs(lit) for cl in changes.additions for lit in cl)
    return _trusted_formula(alphabet, frozenset(cls), tuple(ordered))

