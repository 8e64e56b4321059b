"""Hint reuse across problems, plus bounded-change compiled lookup tables.

A hint never constrains the problem; it may only speed the search up.
``reuse_model`` tries a remembered model against a changed formula before
falling back to the solver; ``reuse_plan`` scans the remembered plan's
suffixes against a changed planning instance before replanning from
scratch.  A ``HintTable`` is a base formula, a declared candidate-change
universe and a size bound; its entries, the solution of the changed
formula for every candidate subset up to the bound, are derived from the
three when the table is built (``compile_table`` builds one), so no table
can contradict its base and later lookups answer without any search at
all.  Each route decides its hit with one check over what it is given:
the added clauses against the model, the suffixes against the changed
instance, and the change set's ``(op, clause)`` pairs against the
table's keys.  Every reuse path reports whether the hint was used and how
much solver work was done, so cold and hinted runs can be compared
honestly.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from itertools import combinations
from types import MappingProxyType
from typing import Any, Mapping, NamedTuple

from .cnf import (Assignment, ChangeSet, Clause, CnfFormula, apply_changes, clause, evaluate,
                  resolve_changes)
from .dimacs import parse_dimacs, serialize_dimacs
from .errors import BudgetExceededError, InvalidHintError, fields_of, from_json, to_json
from .solvers import solve_dpll, solve_dpll_stats
from .strips import StripsInstance, plan_exists_stats, validate_plan_stats

DEFAULT_TABLE_BUDGET = 1 << 16


@dataclass(frozen=True)
class ElementaryChange:
    """A single clause addition ("add") or deletion ("del")."""

    op: str
    clause: Clause

    def __post_init__(self):
        if self.op not in {"add", "del"}:
            raise ValueError(f"change op must be 'add' or 'del', got {self.op!r}")
        object.__setattr__(self, "clause", clause(*self.clause))


def add_change(*literals: int) -> ElementaryChange:
    return ElementaryChange("add", literals)


def del_change(*literals: int) -> ElementaryChange:
    return ElementaryChange("del", literals)


class _Miss:
    """Sentinel for table lookups outside the compiled change universe."""

    def __repr__(self):
        return "MISS"


MISS = _Miss()


@dataclass(frozen=True)
class HintTable:
    """A base formula, candidate changes and a bound; the solved entries follow.

    ``entries`` holds the solution of the changed formula for every
    candidate subset of size at most ``bound``.  It is a function of the
    three, built eagerly in ``__post_init__``, read-only, and takes no part
    in ``==``, ``hash`` or ``repr``, so no table can contradict its base.
    Entries are keyed by the ``(op, clause)`` pairs of a candidate subset,
    which is exactly what a change set names (a hex mask is only how a
    file spells that key), and made by size, then in ``combinations``
    order, with one ``solve_dpll`` each; a ``None`` value is an explicit
    marker that the changed formula is unsatisfiable.  ``candidates`` is
    kept as a tuple.  A negative bound, duplicate candidates, a clause
    both added and deleted, and a table of more than
    ``DEFAULT_TABLE_BUDGET`` entries are refused before any solve.
    """

    base: CnfFormula
    candidates: tuple[ElementaryChange, ...]
    bound: int
    entries: Mapping[frozenset[tuple[str, Clause]], Assignment | None] = field(
        init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.bound < 0:
            raise ValueError(f"bound {self.bound} is negative")
        candidates = tuple(self.candidates)
        object.__setattr__(self, "candidates", candidates)
        if len(set(candidates)) != len(candidates):
            raise ValueError("duplicate candidate changes")
        subset_changes(candidates, range(len(candidates)))  # refuses a clause on both sides
        effective = min(self.bound, len(candidates))
        total = sum(math.comb(len(candidates), size) for size in range(effective + 1))
        if total > DEFAULT_TABLE_BUDGET:
            raise BudgetExceededError(
                f"{total} entries exceed the table budget of {DEFAULT_TABLE_BUDGET}")
        pairs = [(c.op, c.clause) for c in candidates]
        entries: dict[frozenset[tuple[str, Clause]], Assignment | None] = {}
        for size in range(effective + 1):
            for combo in combinations(range(len(candidates)), size):
                changed = apply_changes(self.base, subset_changes(candidates, combo))
                entries[frozenset(pairs[i] for i in combo)] = solve_dpll(changed)
        object.__setattr__(self, "entries", MappingProxyType(entries))


def subset_changes(candidates, indices) -> ChangeSet:
    """The change set selecting the given candidate indices."""
    adds = tuple(candidates[i].clause for i in indices if candidates[i].op == "add")
    dels = tuple(candidates[i].clause for i in indices if candidates[i].op == "del")
    return ChangeSet(additions=adds, deletions=dels)


def compile_table(base: CnfFormula, candidates, bound: int) -> HintTable:
    """The table of ``base``, ``candidates`` and ``bound``: ``HintTable(base, candidates, bound)``.

    Building the table solves every entry, so this costs one solve per
    entry; the refusals are ``HintTable``'s.
    """
    return HintTable(base, candidates, bound)


def lookup(table: HintTable, changes: ChangeSet):
    """Stored solution for a change set, or MISS if it is not in the table.

    A hit is either an assignment or None (recorded unsatisfiable); the
    caller must solve cold on MISS.  The change set's clauses are
    canonical already, so its ``(op, clause)`` pairs are the entry key as
    they are.  A set wider than the bound, or naming a change outside the
    candidates, was never compiled, so it has no entry and misses.
    """
    return table.entries.get(frozenset([*(("add", cl) for cl in changes.additions),
                                        *(("del", cl) for cl in changes.deletions)]), MISS)


class ReuseOutcome(NamedTuple):
    """What a reuse attempt produced and what it cost.

    ``reuse_model``, ``reuse_plan`` and ``graphs.warm_start_cover_stats``
    all return one.  ``hint_used`` is True only when the returned solution
    is the hint itself (or a suffix of it, for plans).  ``work_units``
    counts solver decisions plus propagations, expanded states or cover
    search nodes, and on the fast paths a size-linear pass (for covers,
    the number of added edges).
    """

    solution: Any
    hint_used: bool
    work_units: int


def reuse_model(f: CnfFormula, changes: ChangeSet, hint) -> ReuseOutcome:
    """Try a remembered model of ``f`` against the changed formula.

    The hint must satisfy ``f``.  If it also satisfies the changed formula
    it is returned, and ``work_units`` counts one linear pass over the
    changed formula's clauses; otherwise the changed formula is solved
    cold.  Deleting a clause cannot falsify a model, so once the hint is
    checked against ``f`` only the added clauses are checked, literal by
    literal: a literal is true iff its sign says whether its variable is
    in the hint.  The changed formula is built only on a miss; a hit
    counts its clauses from ``resolve_changes``, which warns of an absent
    deletion for both.
    """
    hint = frozenset(hint)
    if not evaluate(f, hint):
        raise InvalidHintError("hint does not satisfy the base formula")
    if all(any((lit > 0) == (abs(lit) in hint) for lit in cl) for cl in changes.additions):
        deleted, added = resolve_changes(f, changes)
        return ReuseOutcome(hint, True, len(f.clauses) - len(deleted) + len(added))
    model, work = solve_dpll_stats(apply_changes(f, changes))
    return ReuseOutcome(model, False, work)


def reuse_plan(changed: StripsInstance, old_plan) -> ReuseOutcome:
    """Try the old plan's suffixes against a changed instance, longest first.

    The first suffix that validates is returned; if none does, a fresh
    plan search runs and its result (possibly None) is reported with
    ``hint_used`` false.
    """
    old_plan = tuple(old_plan)
    checked = 0
    for start in range(len(old_plan) + 1):
        suffix = old_plan[start:]
        ok, work = validate_plan_stats(changed, suffix)
        checked += work
        if ok:
            return ReuseOutcome(suffix, True, checked)
    plan, expanded = plan_exists_stats(changed)
    return ReuseOutcome(plan, False, expanded)


def _keyed_entries(table: HintTable) -> dict[str, Assignment | None]:
    """The table's entries keyed as files spell them: lowercase hex masks.

    Candidate ``i`` is bit ``i`` of its subset's mask.  The mask is a sum,
    so no set's iteration order reaches the file.
    """
    bit = {(c.op, c.clause): 1 << i for i, c in enumerate(table.candidates)}
    return {f"0x{sum(bit[pair] for pair in subset):x}": model
            for subset, model in table.entries.items()}


def table_to_json(table: HintTable) -> str:
    """Canonical JSON with the base formula embedded as DIMACS text."""
    obj = {
        "base": serialize_dimacs(table.base),
        "bound": table.bound,
        "candidates": [[c.op, list(c.clause)] for c in table.candidates],
        "entries": {key: None if model is None else sorted(model)
                    for key, model in _keyed_entries(table).items()},
    }
    return to_json(obj)


def table_from_json(text: str) -> HintTable:
    """Load a table only if its entries equal those derived from its source.

    A file stores entries, but a table derives them: the file's base,
    candidates and bound go through ``compile_table``, and the file's
    entries, keys kept as written, must equal the built table's entries
    keyed as ``table_to_json`` writes them.  That one comparison checks
    every stored model and unsatisfiable marker, and refuses a missing
    entry, a stray one and any other spelling of a key (``"0x03"``,
    ``"3"``, ``"0X3"``).  Candidates ``compile_table`` refuses are refused
    here too.  Loading thus costs one solve per entry, as compiling does.
    A repeated key and a missing or malformed field are ``ValueError``s.
    """
    obj = from_json(text)
    with fields_of("table"):
        base = parse_dimacs(obj["base"])
        candidates = tuple(ElementaryChange(op, tuple(lits)) for op, lits in obj["candidates"])
        entries = {key: None if model is None else frozenset(model)
                   for key, model in obj["entries"].items()}
        bound = operator.index(obj["bound"])
    table = compile_table(base, candidates, bound)
    expected = _keyed_entries(table)
    if entries != expected:
        differing = sorted({key for key, _ in entries.items() ^ expected.items()})
        raise ValueError(f"entries {differing} contradict the table "
                         f"compiled from its base, candidates and bound")
    return table
