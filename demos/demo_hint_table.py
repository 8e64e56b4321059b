"""
Compiling a bounded-change lookup table
=======================================

A single remembered model can be made useless by two changes, but a
polynomial data structure cannot: when the possible edits come from a
declared candidate list and at most k of them apply at once, a table with
one entry per candidate subset answers every changed instance by lookup.
This script compiles such a table, exercises hits, recorded-unsatisfiable
entries and misses, and cross-checks every entry against the solver.
"""

from itertools import combinations

from reoptlab.cnf import ChangeSet, apply_changes, cnf
from reoptlab.hints import MISS, add_change, compile_table, del_change, lookup, subset_changes
from reoptlab.solvers import solve_dpll

base = cnf([(1, 2), (-1, 3)])
candidates = (
    add_change(-3),        # forbid x3
    add_change(-2, -3),    # at most one of x2, x3
    del_change(-1, 3),     # retract the implication
    add_change(-1),        # forbid x1
)
bound = 2

table = compile_table(base, candidates, bound)
print(f"compiled {len(table.entries)} entries "
      f"for {len(candidates)} candidates, bound {bound}")

# Entries are keyed by the (op, clause) pairs of candidate subsets and
# kept in compile order.
for subset, model in table.entries.items():
    names = [f"{c.op} {c.clause}" for c in candidates if (c.op, c.clause) in subset]
    label = ", ".join(names) or "(no change)"
    print(f"  {label:38s} -> {'UNSAT' if model is None else sorted(model)}")

# Lookups registered in the table come back instantly.
hit = lookup(table, ChangeSet(additions=((-3,),)))
print("\nlookup [add (-3,)]:", sorted(hit))

# Changes outside the candidate universe, or wider than the bound, miss.
print("lookup [add (2,)]:", lookup(table, ChangeSet(additions=((2,),))))
wide = ChangeSet(additions=((-3,), (-2, -3), (-1,)))
print("lookup with three changes:", lookup(table, wide))
assert lookup(table, wide) is MISS

# Every stored verdict equals what the solver says about the changed
# formula; the caller never has to search after a hit.
for size in range(bound + 1):
    for combo in combinations(range(len(candidates)), size):
        changes = subset_changes(candidates, combo)
        stored = lookup(table, changes)
        cold = solve_dpll(apply_changes(base, changes))
        assert (stored is None) == (cold is None)
print("\nevery table entry matches the cold solver")
