"""Propositional STRIPS model and plan-existence search for add-only operators.

An operator carries positive/negative preconditions and positive/negative
postconditions over a fixed condition set.  Plans are sequences of
operator names.  ``plan_exists`` handles only instances whose operators
have no negative postconditions: states then only grow along a plan.  It
keeps only the operators that add a condition the goal can use and
searches them depth-first, in name order, with memoization.  One closure
routine serves twice: over the kept operators that add no condition
named by a negative precondition or by the goal's ``must_false`` it
saturates each state, and over all kept operators it is the state's
delete relaxation, below which nothing is searched when it misses the
goal (conditions never become false, so an operator whose negative
precondition a state hits stays unusable below it).  The plan it
returns is the first one found, valid but not necessarily the shortest,
and the cut does not change it.  ``validate_plan`` executes any plan,
negative postconditions included.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping

DEFAULT_SEARCH_BUDGET = 500_000

Plan = tuple[str, ...]


class UnknownOperatorError(KeyError):
    """A plan step names an operator the instance does not define."""


class NegativePostconditionError(ValueError):
    """The instance is outside the add-only fragment the search supports."""


class SearchBudgetError(RuntimeError):
    """The configured search cap was exceeded."""


@dataclass(frozen=True)
class StripsOperator:
    pos_pre: frozenset[str] = frozenset()
    neg_pre: frozenset[str] = frozenset()
    pos_post: frozenset[str] = frozenset()
    neg_post: frozenset[str] = frozenset()

    def __post_init__(self):
        both = self.pos_pre & self.neg_pre
        if both:
            raise ValueError(f"conditions both required true and false: {sorted(both)}")


def make_operator(pos_pre=(), neg_pre=(), pos_post=(), neg_post=()) -> StripsOperator:
    return StripsOperator(frozenset(pos_pre), frozenset(neg_pre), frozenset(pos_post), frozenset(neg_post))


@dataclass(frozen=True)
class Goal:
    must_true: frozenset[str] = frozenset()
    must_false: frozenset[str] = frozenset()

    def __post_init__(self):
        both = self.must_true & self.must_false
        if both:
            raise ValueError(f"goal conditions both required true and false: {sorted(both)}")


@dataclass(frozen=True)
class StripsInstance:
    conditions: frozenset[str]
    operators: Mapping[str, StripsOperator]
    initial: frozenset[str]
    goal: Goal

    def __post_init__(self):
        object.__setattr__(self, "operators", dict(self.operators))
        if not self.initial <= self.conditions:
            raise ValueError(f"initial state outside conditions: {sorted(self.initial - self.conditions)}")
        for part in (self.goal.must_true, self.goal.must_false):
            if not part <= self.conditions:
                raise ValueError(f"goal outside conditions: {sorted(part - self.conditions)}")
        for name, op in self.operators.items():
            used = op.pos_pre | op.neg_pre | op.pos_post | op.neg_post
            if not used <= self.conditions:
                raise ValueError(f"operator {name!r} uses unknown conditions: {sorted(used - self.conditions)}")


def make_instance(conditions, operators, initial=(), goal_true=(), goal_false=()) -> StripsInstance:
    return StripsInstance(
        frozenset(conditions),
        dict(operators),
        frozenset(initial),
        Goal(frozenset(goal_true), frozenset(goal_false)),
    )


def is_applicable(state: frozenset[str], op: StripsOperator) -> bool:
    return op.pos_pre <= state and not op.neg_pre & state


def satisfies_goal(state: frozenset[str], goal: Goal) -> bool:
    return goal.must_true <= state and not goal.must_false & state


def _resolve(instance: StripsInstance, name: str) -> StripsOperator:
    try:
        return instance.operators[name]
    except KeyError:
        raise UnknownOperatorError(name) from None


def validate_plan(instance: StripsInstance, plan) -> bool:
    return validate_plan_stats(instance, plan)[0]


def validate_plan_stats(instance: StripsInstance, plan) -> tuple[bool, int]:
    """Check a plan; returns (valid, work) with work linear in |plan| * |conditions|."""
    state = instance.initial
    work = 0
    for name in plan:
        op = _resolve(instance, name)
        work += len(op.pos_pre) + len(op.neg_pre) + len(op.pos_post) + len(op.neg_post) + 1
        if not is_applicable(state, op):
            return False, work
        state = (state | op.pos_post) - op.neg_post
    work += len(instance.goal.must_true) + len(instance.goal.must_false) + 1
    return satisfies_goal(state, instance.goal), work


def check_positive_postconditions(instance: StripsInstance) -> bool:
    """True iff no operator has negative postconditions."""
    return all(not op.neg_post for op in instance.operators.values())


def plan_exists(instance: StripsInstance, max_states: int = DEFAULT_SEARCH_BUDGET) -> Plan | None:
    return plan_exists_stats(instance, max_states)[0]


def plan_exists_stats(instance: StripsInstance, max_states: int = DEFAULT_SEARCH_BUDGET) -> tuple[Plan | None, int]:
    """Depth-first plan search for add-only instances; returns (plan, states expanded).

    States are bitmasks over the sorted conditions.  The *relevant*
    conditions are the least set that holds the goal's ``must_true`` and
    the positive preconditions of every operator that adds one of them.
    Operators that add no relevant condition are dropped.  A condition is
    *watched* when some operator's negative precondition (over all
    operators, dropped ones included) or the goal's ``must_false`` names
    it, and an operator is *safe* when it adds no watched condition.  An
    operator is *live* in a state that none of its negative preconditions
    hits.  The *closure* of a state S under a list of operators starts
    from S and applies, pass after pass in list order, every operator live
    in S whose positive preconditions hold and that adds a condition not
    yet true, until a pass adds nothing or ``must_true`` holds.  Each state
    is *saturated*, replaced by its closure under the safe operators,
    whose applications are recorded as plan steps.  The search then
    branches only on unsafe operators that add a relevant condition the
    state lacks.  It generates a state's successors in operator-name
    order, tests each for the goal as it is made, and expands the
    first-named one next.  The witness is the first plan found,
    deterministic but not necessarily the shortest.

    Relevance is sound and complete.  Any plan can be thinned to the steps
    that add a relevant condition not yet true.  The thinned plan has the
    same relevant conditions as the original after every kept step, and
    each of its states is a subset of the original one.  Its positive
    preconditions and ``must_true`` are relevant, so they still hold, and
    no negative precondition or ``must_false`` is newly hit.

    Saturation is sound and complete.  A safe step adds no watched
    condition, so every state saturation passes through agrees with S on
    the watched conditions: an operator live in S stays live, and testing
    liveness in S is exact, so every recorded step is applicable where it
    is taken.  Let T be the saturation of S.  Then T contains S and agrees
    with it on every watched condition, and that relation survives
    applying one operator to both and saturating again.  So every
    operator applicable in S is applicable in T, a goal that holds in S
    holds in T, and a safe step applicable in S has already been applied
    in T.  Thinning a plan from a searched state therefore leaves a first
    step that the search branches on, and each branch adds a relevant
    condition, so every plan has a counterpart among the searched paths,
    and every such path is itself a plan.

    Dead ends are cut by delete-relaxed reachability (the test behind
    ``h_max`` and FF): the closure of S under all kept operators.
    Conditions never become false, so the live operators only shrink along
    a path: an operator dead in S is dead in every state below S.  Every
    state the search reaches below S lies inside the closure, since each
    step there is a kept operator live in S whose positive preconditions
    held before it.  So the closure over-approximates: if it misses part
    of ``must_true``, no goal state lies below S, and S is *dead*.  A
    state T below a dead S is dead too, because T lies in the closure of
    S and its live operators are among those of S.  The closure is taken
    only for an expanded state that produced successors.  A dead state's
    successors stay in ``parents`` but are not pushed.  Dead states never
    lead to live ones, so live states are generated, expanded and given
    parents in the same order as without the cut: the first plan found is
    the same.  Every dead state the cut search expands is also expanded
    without the cut, so it never expands more states.

    Each state keeps a pointer to its parent and the steps that led to
    it; the plan is rebuilt once, at the goal.  Raises
    ``NegativePostconditionError`` on instances outside the add-only
    fragment and ``SearchBudgetError`` past ``max_states`` expansions.
    """
    offenders = sorted(n for n, op in instance.operators.items() if op.neg_post)
    if offenders:
        raise NegativePostconditionError(f"operators with negative postconditions: {offenders}")
    goal = instance.goal
    # Conditions never become false again, so any state overlapping
    # must_false is a dead end, the initial state included.  Saturation
    # adds no watched condition, so a root holding must_true is a goal.
    if goal.must_false & instance.initial:
        return None, 0
    bit = {c: 1 << i for i, c in enumerate(sorted(instance.conditions))}.__getitem__
    ops = [(name, sum(map(bit, op.pos_pre)), sum(map(bit, op.neg_pre)), sum(map(bit, op.pos_post)))
           for name, op in sorted(instance.operators.items())]
    need, forbid = sum(map(bit, goal.must_true)), sum(map(bit, goal.must_false))
    watched = forbid
    for _, _, neg, _ in ops:
        watched |= neg
    relevant = need
    grew = True
    while grew:
        grew = False
        for _, pre, _, post in ops:
            if post & relevant and pre & ~relevant:
                relevant |= pre
                grew = True
    ops = [op for op in ops if op[3] & relevant]
    safe = [op for op in ops if not op[3] & watched]
    unsafe = [op for op in ops if op[3] & watched]

    def close(state: int, operators: list[tuple[str, int, int, int]]) -> tuple[int, Plan]:
        start = state
        steps: list[str] = []
        grew = True
        while grew and state & need != need:
            grew = False
            for name, pre, neg, post in operators:
                if post & ~state and state & pre == pre and not start & neg:
                    state |= post
                    steps.append(name)
                    grew = True
                    if state & need == need:
                        break
        return state, tuple(steps)

    def plan_to(state: int) -> Plan:
        parts = []
        while state is not None:
            state, steps = parents[state]
            parts.append(steps)
        return tuple(name for steps in reversed(parts) for name in steps)

    root, steps = close(sum(map(bit, instance.initial)), safe)
    parents: dict[int, tuple[int | None, Plan]] = {root: (None, steps)}
    if root & need == need:
        return plan_to(root), 0
    stack = [root]
    expanded = 0
    while stack:
        state = stack.pop()
        expanded += 1
        if expanded > max_states:
            raise SearchBudgetError(f"more than {max_states} states expanded")
        successors = []
        for name, pre, neg, post in unsafe:
            if not post & relevant & ~state or state & pre != pre or state & neg:
                continue
            successor = state | post
            if successor in parents or successor & forbid:
                continue
            successor, steps = close(successor, safe)
            if successor in parents:
                continue
            parents[successor] = (state, (name,) + steps)
            if successor & need == need:
                return plan_to(successor), expanded
            successors.append(successor)
        if successors and close(state, ops)[0] & need == need:
            stack.extend(reversed(successors))
    return None, expanded


def instance_to_json(instance: StripsInstance) -> str:
    """Canonical JSON: operators map to [pos_pre, neg_pre, pos_post, neg_post]."""
    obj = {
        "conditions": sorted(instance.conditions),
        "operators": {
            name: [sorted(op.pos_pre), sorted(op.neg_pre), sorted(op.pos_post), sorted(op.neg_post)]
            for name, op in instance.operators.items()
        },
        "initial": sorted(instance.initial),
        "goal": {
            "must_true": sorted(instance.goal.must_true),
            "must_false": sorted(instance.goal.must_false),
        },
    }
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _names(value) -> list[str]:
    """A JSON array of condition names, or TypeError."""
    if not isinstance(value, list) or not all(map(str.__instancecheck__, value)):
        raise TypeError(f"expected an array of condition names, got {value!r}")
    return value


def instance_from_json(text: str) -> StripsInstance:
    obj = json.loads(text)
    try:
        operators = {}
        for name, parts in obj["operators"].items():
            if len(parts) != 4:
                raise ValueError(f"operator {name!r} needs exactly four condition arrays")
            operators[name] = make_operator(*map(_names, parts))
        return make_instance(
            _names(obj["conditions"]),
            operators,
            _names(obj["initial"]),
            _names(obj["goal"]["must_true"]),
            _names(obj["goal"]["must_false"]),
        )
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"missing or malformed instance field: {exc}") from None
