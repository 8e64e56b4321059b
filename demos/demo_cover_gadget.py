"""
Vertex-cover gadgets that absorb unit-clause edits
==================================================

A formula with n variables, m literal occurrences and r clauses becomes a
graph with a cover of n + m - r nodes exactly when the formula is
satisfiable.  The construction reserves two extra nodes per literal so
that adding or removing a unit clause is a single edge addition, and the
graph of *all* three-literal clauses turns every formula over the
alphabet into a pure edge-deletion pattern with one fixed budget.
"""

from reoptlab.cnf import cnf
from reoptlab.dot import gadget_to_dot
from reoptlab.gadgets import (
    build_full_gadget,
    build_gadget,
    gadget_add_unit,
    gadget_remove_unit,
    project_formula,
)
from reoptlab.graphs import decide_cover, min_cover_brute
from reoptlab.solvers import solve_dpll

# The two-clause formula (x1 or x2) and (not x1).
f = cnf([(1, 2), (-1,)])
gadget = build_gadget(f)
print("nodes:", len(gadget.graph.nodes), " budget:", gadget.budget)
best = min_cover_brute(gadget.graph)
print("minimum cover:", best.size, sorted(best.cover))
print("formula satisfiable:", solve_dpll(f) is not None)

# Adding the unit clause (not x2) is one new edge; the budget stays put.
# The mutated formula is unsatisfiable, and the cover threshold agrees.
after_add = gadget_add_unit(gadget, -2)
print("\nafter adding unit -x2:")
print("  budget:", after_add.budget,
      " minimum cover:", min_cover_brute(after_add.graph).size)

# Removing the unit clause (not x1) is also one new edge, plus one unit of
# budget: the prime node neutralizes the old forcing edge.
after_remove = gadget_remove_unit(after_add, -1)
print("after also removing unit -x1:")
print("  budget:", after_remove.budget,
      " minimum cover:", min_cover_brute(after_remove.graph).size)
print("  source now:", sorted(after_remove.source.clauses))

# DOT output, for eyeballing the construction.
print("\nDOT preview (first five lines):")
for line in gadget_to_dot(gadget).splitlines()[:5]:
    print(" ", line)

# The full gadget over three variables: every formula over {x1,x2,x3}
# is a subgraph of this one 42-node graph, selected by edge deletions,
# against the same budget of 19.
full = build_full_gadget({1, 2, 3})
print("\nfull gadget:", len(full.graph.nodes), "nodes,",
      len(full.graph.edges), "edges, budget", full.budget)
for formula in (cnf([(1, 2, 3)], alphabet={1, 2, 3}),
                cnf([(1, 2, 3), (-1, -2, -3)], alphabet={1, 2, 3}),
                full.source):
    projected = project_formula(full, formula)
    sat = solve_dpll(formula) is not None
    covered = decide_cover(projected, full.budget) is not None
    print(f"  {len(formula.clauses)} clause(s): satisfiable={sat} "
          f"cover within budget={covered}")
