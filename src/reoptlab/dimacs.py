"""DIMACS CNF text format plus the companion change-list format.

Change lists hold one change per line: ``+ <literals> 0`` adds a clause,
``- <literals> 0`` deletes one.  Deletions are serialized before
additions, mirroring the order in which change sets apply.
"""

from __future__ import annotations

from .cnf import ChangeSet, CnfFormula, clause, clause_sort_key

# The alphabet is materialized from the header's variable count, so a
# larger count is rejected before anything is allocated for it.
MAX_DIMACS_VARIABLES = 1 << 20


def serialize_dimacs(formula: CnfFormula) -> str:
    """Canonical DIMACS text: clauses sorted, literals in canonical order.

    The header variable count is the largest alphabet id, so alphabets are
    only round-trippable when they are contiguous from 1.
    """
    nvars = max(formula.alphabet, default=0)
    lines = [f"p cnf {nvars} {len(formula.clauses)}"]
    for cl in sorted(formula.clauses, key=clause_sort_key):
        lines.append(" ".join([*map(str, cl), "0"]))
    return "\n".join(lines) + "\n"


def parse_dimacs(text: str) -> CnfFormula:
    nvars = nclauses = None
    literals: list[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("%"):
            break
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if nvars is not None:
                raise ValueError(f"second problem line: {line!r}")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"malformed problem line: {line!r}")
            nvars, nclauses = int(parts[2]), int(parts[3])
            if nvars < 0 or nclauses < 0:
                raise ValueError(f"negative count in problem line: {line!r}")
            if nvars > MAX_DIMACS_VARIABLES:
                raise ValueError(f"variable count in problem line exceeds "
                                 f"{MAX_DIMACS_VARIABLES}: {line!r}")
            continue
        literals.extend(int(tok) for tok in line.split())
    if nvars is None:
        raise ValueError("missing 'p cnf' header")
    clauses = []
    current: list[int] = []
    for lit in literals:
        if lit == 0:
            clauses.append(clause(*current))
            current = []
            continue
        if abs(lit) > nvars:
            raise ValueError(f"literal {lit} outside the declared {nvars} variables")
        current.append(lit)
    if current:
        raise ValueError("unterminated clause (missing trailing 0)")
    if nclauses != len(clauses):
        raise ValueError(f"header declares {nclauses} clauses, found {len(clauses)}")
    return CnfFormula(frozenset(range(1, nvars + 1)), frozenset(clauses))


def serialize_changes(changes: ChangeSet) -> str:
    lines = [" ".join(["-", *map(str, cl), "0"]) for cl in changes.deletions]
    lines += [" ".join(["+", *map(str, cl), "0"]) for cl in changes.additions]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_changes(text: str) -> ChangeSet:
    additions: list[tuple[int, ...]] = []
    deletions: list[tuple[int, ...]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] not in {"+", "-"} or parts[-1] != "0":
            raise ValueError(f"malformed change line: {line!r}")
        lits = tuple(int(tok) for tok in parts[1:-1])
        if 0 in lits:
            raise ValueError(f"stray 0 inside change line: {line!r}")
        (additions if parts[0] == "+" else deletions).append(lits)
    return ChangeSet(additions=tuple(additions), deletions=tuple(deletions))
