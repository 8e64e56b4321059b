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

from reoptlab import (
    ChangeSet,
    MISS,
    add_change,
    apply_changes,
    cnf,
    compile_table,
    del_change,
    lookup,
    solve_dpll,
)
from reoptlab.hints import subset_changes

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

for mask, model in sorted(table.entries.items()):
    names = [candidates[i] for i in range(len(candidates)) if mask >> i & 1]
    label = ", ".join(f"{c.op} {c.clause}" for c in names) or "(no change)"
    print(f"  {mask:#04x} {label:38s} -> "
          f"{'UNSAT' if model is None else sorted(model)}")

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
