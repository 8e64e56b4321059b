"""Planning-side constructions: SAT embedded in replanning, and goal folding.

``sat_to_replanning`` builds an add-only planning instance whose one-step
plan works only because a guard condition holds initially; deleting the
guard from the initial state leaves an instance that has a plan exactly
when the source formula is satisfiable.  The instance has exactly one
irredundant plan, so the hardness of replanning does not depend on which
plan was remembered; ``count_irredundant_plans`` checks that claim by
enumeration over the instance's ``plan_index`` masks, the same STRIPS
semantics plan search and validation use.  ``goal_compilation`` folds an
instance's goal into a fresh operator and condition so that the goal part
of every instance becomes the constant "reach g".
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .cnf import CnfFormula, clause_sort_key
from .errors import CONSTRUCTION_BUDGET, BudgetExceededError, SearchBudgetError
from .strips import (
    Goal,
    Plan,
    StripsInstance,
    StripsOperator,
    make_instance,
    make_operator,
    require_add_only,
    validate_plan,
)

_MAX_PLAN_PREFIXES = 100_000


@dataclass(frozen=True)
class ReplanningCase:
    """An instance, a plan for it, and conditions pending removal from its initial state."""

    instance: StripsInstance
    original_plan: Plan
    remove_from_initial: frozenset[str] = frozenset()

    def __post_init__(self):
        stray = self.remove_from_initial - self.instance.conditions
        if stray:
            raise ValueError(f"change mentions unknown conditions: {sorted(stray)}")
        if not validate_plan(self.instance, self.original_plan):
            raise ValueError("original plan does not solve the instance")


def sat_to_replanning(f: CnfFormula) -> ReplanningCase:
    """Embed satisfiability of ``f`` into replanning after one deletion.

    Conditions: a guard ``a``, truth tokens ``t<v>``/``f<v>`` per variable
    and one target ``c<j>`` per clause.  The goal asks for every target.
    Operator ``e`` grants all targets at once but needs the guard;
    assignment operators need the guard *absent*, and per-literal
    operators derive a clause target from the matching truth token.  The
    original plan is just ``(e,)``; the pending change deletes ``a``.
    A case of more than ``errors.CONSTRUCTION_BUDGET`` conditions plus
    operators raises ``BudgetExceededError`` before any is made.
    """
    # Per variable two tokens and two assignment operators; per clause a
    # target; per literal occurrence an operator; and ``a`` and ``e``.
    size = 4 * len(f.alphabet) + len(f.clauses) + sum(map(len, f.clauses)) + 2
    if size > CONSTRUCTION_BUDGET:
        raise BudgetExceededError(f"the case's {size} conditions and operators exceed "
                                  f"the construction budget of {CONSTRUCTION_BUDGET}")
    variables = sorted(f.alphabet)
    clauses = sorted(f.clauses, key=clause_sort_key)
    targets = [f"c{j}" for j in range(1, len(clauses) + 1)]

    conditions = {"a", *targets}
    operators: dict[str, StripsOperator] = {}
    for v in variables:
        conditions.add(f"t{v}")
        conditions.add(f"f{v}")
        operators[f"pl{v}"] = make_operator(neg_pre=(f"f{v}", "a"), pos_post=(f"t{v}",))
        operators[f"nl{v}"] = make_operator(neg_pre=(f"t{v}", "a"), pos_post=(f"f{v}",))
    for j, cl in enumerate(clauses, start=1):
        for lit in cl:
            token = f"t{lit}" if lit > 0 else f"f{-lit}"
            prefix = "pc" if lit > 0 else "nc"
            operators[f"{prefix}{j}_{abs(lit)}"] = make_operator(pos_pre=(token,), pos_post=(f"c{j}",))
    operators["e"] = make_operator(pos_pre=("a",), pos_post=targets)

    instance = make_instance(conditions, operators, initial=("a",), goal_true=targets)
    return ReplanningCase(instance, ("e",), remove_from_initial=frozenset({"a"}))


def apply_initial_change(case: ReplanningCase) -> StripsInstance:
    """The modified instance: the initial state minus the removals."""
    initial = case.instance.initial - case.remove_from_initial
    return StripsInstance(case.instance.conditions, case.instance.operators, initial, case.instance.goal)


def count_irredundant_plans(instance: StripsInstance) -> int:
    """Count valid plans with no removable single step.

    Only add-only instances are supported: there every prefix of a valid
    plan stays executable and every irredundant plan grows the state each
    step (a step that adds nothing could be removed), so enumerating the
    applicability-respecting sequences that grow the state each step is
    exhaustive, and no sequence is longer than |conditions|.  The
    enumeration runs depth-first on an explicit stack, operators in name
    order, over the instance's ``plan_index``: states are masks, and the
    goal holds when a state has every ``need`` bit and no ``forbid`` bit.
    """
    require_add_only(instance)
    index = instance.plan_index
    ops = [(name, *index.masks[name][:3]) for name in sorted(index.masks)]
    need, forbid = index.need, index.forbid
    nodes = 0
    count = 0

    def is_irredundant(plan: Plan) -> bool:
        return not any(
            validate_plan(instance, plan[:i] + plan[i + 1:]) for i in range(len(plan))
        )

    stack: list[tuple[int, Plan]] = [(index.initial, ())]
    while stack:
        state, plan = stack.pop()
        nodes += 1
        if nodes > _MAX_PLAN_PREFIXES:
            raise SearchBudgetError(f"more than {_MAX_PLAN_PREFIXES} plan prefixes explored")
        if state & need == need and not state & forbid and is_irredundant(plan):
            count += 1
        children = [
            (state | post, plan + (name,))
            for name, pre, neg, post in ops
            if state & pre == pre and not state & neg and post & ~state
        ]
        stack.extend(reversed(children))
    return count


def goal_compilation(instance: StripsInstance) -> StripsInstance:
    """Fold the goal into one new operator and a constant single-condition goal.

    The new operator is applicable exactly in goal states of the original
    instance and produces the new goal condition, so plan existence is
    preserved.  Name collisions get a numeric suffix and a warning.
    """
    g = _fresh_name("g", instance.conditions)
    o = _fresh_name("o", instance.operators.keys())
    operators = dict(instance.operators)
    operators[o] = StripsOperator(
        instance.goal.must_true, instance.goal.must_false, frozenset({g}), frozenset()
    )
    return StripsInstance(
        instance.conditions | {g}, operators, instance.initial, Goal(frozenset({g}), frozenset())
    )


def _fresh_name(base: str, taken) -> str:
    taken = set(taken)
    if base not in taken:
        return base
    n = 1
    while f"{base}{n}" in taken:
        n += 1
    warnings.warn(f"name {base!r} already in use, using {base}{n!s} instead", stacklevel=3)
    return f"{base}{n}"
