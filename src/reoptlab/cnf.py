"""Propositional CNF model: clauses, formulas, assignments and change sets.

Variables are positive integers and a literal is a nonzero integer whose
sign carries the polarity (DIMACS convention).  A clause is a canonical
tuple of literals, sorted by variable id with the positive literal first
and duplicates removed.  A formula is a frozen set of clauses over an
explicit, finite alphabet; clause collections have set semantics.  Each
formula also carries DPLL's clause index, built when the formula is
built: its clauses as a tuple in plain ``sorted()`` order, and for each
literal the integer mask of the clauses of that tuple that contain it.
Every loader and construction builds its formula through ``CnfFormula``,
which checks each literal's variable against the alphabet as the literal
first becomes a mask key, so the check costs no walk of its own.
``apply_changes`` alone builds a formula without ``CnfFormula``'s checks:
it derives the child's tuple from its parent's by bisection and, for a
few changes, splices the parent's masks to match.  A solve builds
nothing, and a model check reads the masks too: the cost of the index
sits in construction, which every command that only parses a formula
pays too.  An assignment is the set of variables that are true; every
other variable in the alphabet is false.
"""

from __future__ import annotations

import warnings
from bisect import bisect_left
from dataclasses import dataclass, field

from .errors import DPLL_BUDGET

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
    """Total order on canonical clauses: of written files and of the gadget
    and replanning numbering.  ``CnfFormula.ordered`` and DPLL use plain
    ``sorted()`` order instead."""
    return tuple(map(_literal_key, cl))


def is_tautology(cl: Clause) -> bool:
    lits = set(cl)
    return any(-lit in lits for lit in lits)


@dataclass(frozen=True)
class CnfFormula:
    """A set of clauses over a declared alphabet of variable ids.

    The alphabet may be larger than the set of mentioned variables; it may
    not be smaller: construction raises ``ValueError`` on an id below 1
    and on clause variables outside the alphabet, naming every one.  The
    second check rides on building ``occ``, one literal key at a time, so
    a malformed formula is refused before its masks grow.

    Two fields are functions of the clauses and take no part in ``==``,
    ``hash`` or ``repr``: ``ordered`` is ``tuple(sorted(clauses))``, and
    ``occ`` maps each literal that occurs to the integer mask whose bit
    ``i`` is set iff clause ``i`` of ``ordered`` contains it (no key maps
    to 0).  ``occ`` is ``None`` exactly when the mentioned variables times
    the clauses exceed ``DPLL_BUDGET``, the size past which DPLL refuses
    the formula; that name alone decides the refusal.  Neither is mutated
    once built.  Both are built eagerly, never cached lazily on first use:
    a lazy cache would charge the sort and the masks to whichever caller
    came first and make every later solve of the same object look free,
    where the cost belongs to building the formula.
    """

    alphabet: frozenset[int]
    clauses: frozenset[Clause]
    ordered: tuple[Clause, ...] = field(init=False, compare=False, repr=False)
    occ: dict[int, int] | None = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if min(self.alphabet, default=1) < 1:
            raise ValueError("variable ids must be >= 1")
        ordered = tuple(sorted(self.clauses))
        object.__setattr__(self, "ordered", ordered)
        object.__setattr__(self, "occ", _literal_masks(self.alphabet, ordered))


def _literal_masks(alphabet: frozenset[int], ordered: tuple[Clause, ...]) -> dict[int, int] | None:
    """``CnfFormula.occ`` from one pass over the literal occurrences; ``None`` past the budget.

    Raises ``ValueError`` naming every clause variable outside the
    alphabet.  A literal's variable is checked when the literal first
    becomes a key, so a stray variable stops the pass before the masks
    grow any further.  Past the budget, where no masks are built, the
    walk that counts the mentioned variables checks them instead.
    """
    if (len(alphabet) * len(ordered) > DPLL_BUDGET
            and len(_mentioned(alphabet, ordered)) * len(ordered) > DPLL_BUDGET):
        return None
    occ: dict[int, int] = {}
    for index, cl in enumerate(ordered):
        bit = 1 << index
        for lit in cl:
            try:
                occ[lit] |= bit
            except KeyError:
                if abs(lit) not in alphabet:
                    _mentioned(alphabet, ordered)  # raises, naming every stray variable
                occ[lit] = bit
    return occ


def _mentioned(alphabet: frozenset[int], clauses) -> set[int]:
    """The variables the clauses mention; ``ValueError`` if any is outside the alphabet."""
    mentioned = {abs(lit) for lit in set().union(*clauses)}
    extra = mentioned.difference(alphabet)
    if extra:
        raise ValueError(f"clause variables outside the alphabet: {sorted(extra)}")
    return mentioned


def cnf(clauses_in=(), alphabet=None) -> CnfFormula:
    """Build a formula; the alphabet defaults to the mentioned variables."""
    cls = frozenset(clause(*c) for c in clauses_in)
    if alphabet is None:
        alphabet = {abs(lit) for cl in cls for lit in cl}
    return CnfFormula(frozenset(alphabet), cls)


def evaluate(formula: CnfFormula, assignment) -> bool:
    """True iff every clause contains a literal made true by the assignment.

    The empty formula is true and a formula containing the empty clause is
    false under every assignment.  Variables outside the alphabet are
    ignored.  Each alphabet variable contributes the mask in ``occ`` of
    its one true literal; the formula is true iff the OR of those masks
    is every clause of ``ordered``.  That is one big-integer OR per
    variable, linear in the alphabet.  The empty clause has no bit in any
    mask, so it stays false.  A formula past the budget (``occ`` is
    ``None``) is checked by ``clauses_true``.
    """
    occ = formula.occ
    if occ is None:
        return clauses_true(formula.alphabet, formula.clauses, assignment)
    true_vars = frozenset(assignment)
    get = occ.get
    met = 0
    for v in formula.alphabet:
        met |= get(v if v in true_vars else -v, 0)
    return met == (1 << len(formula.ordered)) - 1


def clauses_true(alphabet, clauses, assignment) -> bool:
    """True iff every clause, all of whose variables are in the alphabet,
    contains a literal made true by the assignment.

    ``evaluate``'s check of a formula past the budget, which carries no
    masks, and the tests' reference.  Each variable of the alphabet
    contributes the one literal of it that the assignment makes true.
    Every clause variable is in the alphabet, so a clause is true iff it
    meets that set, which one C-level ``isdisjoint`` per clause decides,
    stopping at the first false clause.  The cost is linear in the alphabet plus the
    clauses checked.
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


def resolve_changes(formula: CnfFormula, changes: ChangeSet) -> tuple[set[Clause], set[Clause]]:
    """The deletions present in the formula and the additions new to it.

    Warns of each deletion of an absent clause, a second deletion of the
    same clause included.  No clause is both added and deleted, so an
    added clause is new iff it is absent from the formula.
    """
    present = formula.clauses
    deleted: set[Clause] = set()
    for cl in changes.deletions:
        if cl in present and cl not in deleted:
            deleted.add(cl)
        else:
            warnings.warn(f"deleted clause not present: {cl}", stacklevel=3)
    return deleted, set(changes.additions) - present


def apply_changes(formula: CnfFormula, changes: ChangeSet) -> CnfFormula:
    """Apply a change set: deletions first, then additions.

    Deleting a clause that is not present succeeds with a warning (see
    ``resolve_changes``).  Added clauses may extend the alphabet;
    deletions never shrink it.  The child's ``ordered`` is the parent's
    with each deletion cut out and each new addition inserted by
    bisection, so nothing is sorted again.  Its ``occ`` is the parent's,
    spliced at each such index: cutting clause ``i`` shifts every mask's
    bits above ``i`` down by one and drops the masks that reach 0;
    inserting at ``i`` shifts them up by one and sets bit ``i`` for the
    new clause's literals.  Masks are spliced only when the changes times
    the parent's mask keys are at most its clauses (beyond that a fresh
    build is cheaper) and the child's alphabet times its clauses stays
    within ``DPLL_BUDGET``; otherwise the child builds its own masks, or
    none past the budget.
    """
    deleted, added = resolve_changes(formula, changes)
    clauses = formula.clauses.difference(deleted).union(added)
    ordered = list(formula.ordered)
    alphabet = formula.alphabet.union(abs(lit) for cl in added for lit in cl)
    occ = formula.occ
    # A splice passes over every mask once per change, a fresh build once
    # over the literal occurrences, so only a few changes are spliced.
    if occ is not None and ((len(deleted) + len(added)) * len(occ) > len(formula.clauses)
                            or len(alphabet) * len(clauses) > DPLL_BUDGET):
        occ = None  # built afresh below, or not at all past the budget
    for cl in deleted:
        i = bisect_left(ordered, cl)
        del ordered[i]
        if occ is not None:
            low = (1 << i) - 1
            occ = {lit: spliced for lit, m in occ.items()
                   if (spliced := (m & low) | (m >> (i + 1) << i))}
    for cl in added:
        i = bisect_left(ordered, cl)
        ordered.insert(i, cl)
        if occ is not None:
            low = (1 << i) - 1
            occ = {lit: (m & low) | (m >> i << (i + 1)) for lit, m in occ.items()}
            for lit in cl:
                occ[lit] = occ.get(lit, 0) | 1 << i
    ordered = tuple(ordered)
    # The parent was checked and every added variable widens the alphabet,
    # so the child skips ``__post_init__``: no new check, no new sort.
    child = object.__new__(CnfFormula)
    object.__setattr__(child, "alphabet", alphabet)
    object.__setattr__(child, "clauses", clauses)
    object.__setattr__(child, "ordered", ordered)
    object.__setattr__(child, "occ", _literal_masks(alphabet, ordered) if occ is None else occ)
    return child
