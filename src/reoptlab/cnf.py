"""Propositional CNF model: clauses, formulas, assignments and change sets.

Variables are positive integers and a literal is a nonzero integer whose
sign carries the polarity (DIMACS convention).  A clause is a canonical
tuple of literals, sorted by variable id with the positive literal first
and duplicates removed.  A formula is a frozen set of clauses over an
explicit, finite alphabet; clause collections have set semantics.  An
assignment is the set of variables that are true; every other variable in
the alphabet is false.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

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
    not be smaller.
    """

    alphabet: frozenset[int]
    clauses: frozenset[Clause]

    def __post_init__(self):
        if any(v < 1 for v in self.alphabet):
            raise ValueError("variable ids must be >= 1")
        mentioned = {abs(lit) for cl in self.clauses for lit in cl}
        extra = mentioned - set(self.alphabet)
        if extra:
            raise ValueError(f"clause variables outside the alphabet: {sorted(extra)}")


def cnf(clauses_in=(), alphabet=None) -> CnfFormula:
    """Build a formula; the alphabet defaults to the mentioned variables."""
    cls = frozenset(clause(*c) for c in clauses_in)
    if alphabet is None:
        alphabet = {abs(lit) for cl in cls for lit in cl}
    return CnfFormula(frozenset(alphabet), cls)


def evaluate(formula: CnfFormula, assignment) -> bool:
    """True iff every clause contains a literal made true by the assignment.

    Each variable of the alphabet contributes the one literal of it that
    the assignment makes true.  Every clause variable is in the alphabet,
    so a clause is true iff it meets that set, which one C-level
    ``isdisjoint`` per clause decides, stopping at the first false clause.
    The cost is linear in the alphabet plus the clauses checked.  The
    empty formula is true and a formula containing the empty clause is
    false under every assignment.
    """
    true_vars = frozenset(assignment)
    true_lits = {v if v in true_vars else -v for v in formula.alphabet}
    return not any(map(true_lits.isdisjoint, formula.clauses))


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
    clauses may extend the alphabet; deletions never shrink it.
    """
    cls = set(formula.clauses)
    for cl in changes.deletions:
        if cl in cls:
            cls.discard(cl)
        else:
            warnings.warn(f"deleted clause not present: {cl}", stacklevel=2)
    cls.update(changes.additions)
    alphabet = set(formula.alphabet)
    for cl in changes.additions:
        alphabet.update(abs(lit) for lit in cl)
    return CnfFormula(frozenset(alphabet), frozenset(cls))


def disjoin_literal(formula: CnfFormula, lit: int) -> CnfFormula:
    """Disjoin one literal onto every clause of the formula."""
    if lit == 0:
        raise ValueError("0 is not a literal")
    cls = frozenset(clause(*cl, lit) for cl in formula.clauses)
    return CnfFormula(formula.alphabet | {abs(lit)}, cls)


def cross_disjoin(left: CnfFormula, right: CnfFormula) -> CnfFormula:
    """Pairwise disjunction of two clause sets."""
    cls = frozenset(clause(*a, *b) for a in left.clauses for b in right.clauses)
    return CnfFormula(left.alphabet | right.alphabet, cls)
