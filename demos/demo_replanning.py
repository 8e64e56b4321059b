"""
When an old plan survives a changed initial state, and when it cannot
=====================================================================

Replanning checks the remembered plan's suffixes against the changed
instance in linear time before searching from scratch.  The embedded-SAT
construction shows the worst case: its instance has exactly one
irredundant plan, and deleting a single guard condition makes that plan
worthless, leaving a search that is as hard as the embedded formula.
"""

from reoptlab.cnf import cnf
from reoptlab.hints import reuse_plan
from reoptlab.replanning import apply_initial_change, count_irredundant_plans, sat_to_replanning
from reoptlab.strips import make_instance, make_operator, plan_exists, validate_plan

# A friendly case first: a three-step pipeline where the first step's
# work is already reflected in the changed initial state.
pipeline = make_instance(
    ["fetched", "built", "shipped"],
    {
        "fetch": make_operator(neg_pre=["fetched"], pos_post=["fetched"]),
        "build": make_operator(pos_pre=["fetched"], pos_post=["built"]),
        "ship": make_operator(pos_pre=["built"], pos_post=["shipped"]),
    },
    initial=["fetched"],
    goal_true=["shipped"],
)
outcome = reuse_plan(pipeline, ("fetch", "build", "ship"))
print("pipeline suffix reused:", outcome.hint_used, "->", outcome.solution)

# Now the adversarial construction.  Clause targets c1..ck must all be
# reached; operator e grants them in one step but needs the guard a.
f = cnf([(1, 2), (-1,)])
case = sat_to_replanning(f)
print("\nconditions:", sorted(case.instance.conditions))
print("original plan:", case.original_plan,
      "valid:", validate_plan(case.instance, case.original_plan))
print("irredundant plans:", count_irredundant_plans(case.instance))

# Delete the guard.  No suffix of the old plan survives: e is no longer
# applicable and the empty plan misses the goal.  The fallback search has
# to re-derive the clause targets through the truth-token operators,
# which is possible exactly when the formula is satisfiable.
changed = apply_initial_change(case)
outcome = reuse_plan(changed, case.original_plan)
print("\nafter deleting the guard:")
print("  hint used:", outcome.hint_used)
print("  replanned:", outcome.solution)
print("  formula satisfiable matches:", (outcome.solution is not None))

unsat_case = sat_to_replanning(cnf([(1,), (-1,)]))
print("\nunsatisfiable embedding:")
print("  plan after change:", plan_exists(apply_initial_change(unsat_case)))
