"""
Reusing a SAT model after the formula changes
=============================================

A remembered model is a hint: it may solve the changed formula instantly,
or it may be useless.  This script walks through both outcomes, then shows
the two constructions that make uselessness provable: the guarded formula
with one unhelpful model, and the single-model formula where no choice of
model can ever help once one clause is swapped for another.
"""

from reoptlab import (
    ChangeSet,
    apply_changes,
    cnf,
    count_models,
    evaluate,
    reduce_fixed_model,
    reduce_unique_model,
    reuse_model,
    solve_dpll,
)
from reoptlab.reductions import unique_model

# A small satisfiable formula and one of its models.
base = cnf([(1, 2), (-1, 3), (-2, -3)])
model = solve_dpll(base)
print("base model:", sorted(model))

# Lucky case: the added clause is already satisfied by the model.
lucky = reuse_model(base, ChangeSet(additions=((3, 1),)), model)
print("added (x3 or x1)  -> hint used:", lucky.hint_used,
      "solution:", sorted(lucky.solution), "work:", lucky.work_units)

# Unlucky case: the added clause kills the model, so the solver runs cold.
unlucky = reuse_model(base, ChangeSet(additions=((-1, -3),)), model)
print("added (-x1 or -x3) -> hint used:", unlucky.hint_used,
      "solution:", unlucky.solution and sorted(unlucky.solution),
      "work:", unlucky.work_units)

# The guarded construction produces a model that is *always* unlucky.
# Every clause of g gains a guard literal a; {a} satisfies everything,
# but adding the unit clause (not a) throws the hint away entirely.
g = cnf([(1, 2), (-1,), (-2, 1)])
inst = reduce_fixed_model(g)
print("\nguarded formula:", sorted(inst.formula.clauses))
print("hint model:", sorted(inst.hint_model))
outcome = reuse_model(inst.formula, ChangeSet(additions=(inst.change_clause,)),
                      inst.hint_model)
print("after adding", inst.change_clause, "-> hint used:", outcome.hint_used,
      "satisfiable:", outcome.solution is not None)

# One could object: some *other* model of the guarded formula might help.
# The single-model construction removes that freedom: the formula below
# has exactly one model, so "choose a better model" is not an option, yet
# swapping {a} for {not a} again reduces to solving g from scratch.
uniq = reduce_unique_model(g)
assert count_models(uniq.formula) == 1
only = unique_model(uniq)
print("\nsingle-model formula has", len(uniq.formula.clauses), "clauses")
print("its only model:", sorted(only))
swap = ChangeSet(additions=(uniq.add_clause,), deletions=(uniq.del_clause,))
outcome = reuse_model(uniq.formula, swap, only)
print("after the swap -> hint used:", outcome.hint_used,
      "satisfiable:", outcome.solution is not None)

changed = apply_changes(uniq.formula, swap)
assert (outcome.solution is not None) == (solve_dpll(changed) is not None)
if outcome.solution is not None:
    assert evaluate(changed, outcome.solution)
print("\nverdicts agree with cold solving on every path")
