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

Each instance carries the plan index, ``StripsInstance.plan_index``,
built when the instance is built: the condition bits, the masks of the
initial state, the goal and every operator, and the search's relevant
conditions and its kept, safe and unsafe operators.  The relevant
conditions come from a worklist over the operators that add each
condition, so building an instance stays linear in its size.  Neither a
search nor a validation builds anything of its own: the cost of the
index sits in construction, which every command that only parses an
instance pays too.  The index's masks are the library's one statement
of STRIPS semantics: plan search, plan validation and
``replanning.count_irredundant_plans`` all test applicability and the
goal on them, and no set-based twin is kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .errors import SearchBudgetError, fields_of, from_json, to_json

# The most states a plan search expands.  It counts expansions, not time:
# one expansion, and the closures around it, cost more as the operators and
# conditions grow, so the cap bounds the seconds only on small instances.
DEFAULT_SEARCH_BUDGET = 10_000

Plan = tuple[str, ...]


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


Step = tuple[str, int, int, int]  # an operator's name and its pos_pre, neg_pre and pos_post masks


class PlanIndex(NamedTuple):
    """The plan search's and plan validation's view of an instance, a function of it alone.

    Condition ``conditions[i]`` is bit ``i`` of every mask.  ``initial``,
    ``need`` and ``forbid`` are the masks of the initial state and of the
    goal's ``must_true`` and ``must_false``.  ``masks`` maps each operator
    name to its ``pos_pre``, ``neg_pre``, ``pos_post`` and ``neg_post``
    masks and the work ``validate_plan_stats`` counts for the step.
    ``offenders`` names, in order, the operators with negative
    postconditions.  ``relevant``, and the ``kept``, ``safe`` and ``unsafe``
    operators as name-ordered ``Step`` tuples, are those of
    ``plan_exists_stats``.  Every call on the instance shares it, so it is
    kept in tuples and a read-only mapping and never changed in place.
    """

    conditions: tuple[str, ...]
    initial: int
    need: int
    forbid: int
    masks: Mapping[str, tuple[int, int, int, int, int]]
    offenders: tuple[str, ...]
    relevant: int
    kept: tuple[Step, ...]
    safe: tuple[Step, ...]
    unsafe: tuple[Step, ...]


@dataclass(frozen=True)
class StripsInstance:
    """Conditions, named operators, an initial state and a goal over the conditions.

    ``operators`` is a read-only mapping, which has no hash, so it takes
    part in ``==`` but not in ``hash``: equal instances still hash equal.
    ``plan_index`` is a function of the four and takes no part in ``==``,
    ``hash`` or ``repr``.  It is built eagerly, never cached lazily on
    first use: a lazy cache would charge the set-up to whichever search or
    validation came first and make every later call on the same instance
    look free, where the cost belongs to building the instance.
    """

    conditions: frozenset[str]
    operators: Mapping[str, StripsOperator] = field(hash=False)
    initial: frozenset[str]
    goal: Goal
    plan_index: PlanIndex = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "operators", MappingProxyType(dict(self.operators)))
        if not self.initial <= self.conditions:
            raise ValueError(f"initial state outside conditions: {sorted(self.initial - self.conditions)}")
        for part in (self.goal.must_true, self.goal.must_false):
            if not part <= self.conditions:
                raise ValueError(f"goal outside conditions: {sorted(part - self.conditions)}")
        object.__setattr__(self, "plan_index", _plan_index(self))


def _plan_index(instance: StripsInstance) -> PlanIndex:
    """``StripsInstance.plan_index`` of an instance whose initial state and goal are checked.

    Raises ``ValueError`` on the first operator, in mapping order, that
    uses a condition outside the instance, naming every such condition.
    """
    conditions = tuple(sorted(instance.conditions))
    bit = {c: 1 << i for i, c in enumerate(conditions)}.__getitem__
    goal = instance.goal
    need, forbid = sum(map(bit, goal.must_true)), sum(map(bit, goal.must_false))
    masks = {}
    watched = forbid
    adders: dict[str, list[frozenset[str]]] = {}  # a condition's adders' non-empty pos_pre
    for name, op in instance.operators.items():
        try:
            pre, neg = sum(map(bit, op.pos_pre)), sum(map(bit, op.neg_pre))
            post, drop = sum(map(bit, op.pos_post)), sum(map(bit, op.neg_post))
        except KeyError:
            used = op.pos_pre | op.neg_pre | op.pos_post | op.neg_post
            raise ValueError(f"operator {name!r} uses unknown conditions: "
                             f"{sorted(used - instance.conditions)}") from None
        cost = len(op.pos_pre) + len(op.neg_pre) + len(op.pos_post) + len(op.neg_post) + 1
        masks[name] = (pre, neg, post, drop, cost)
        watched |= neg
        if op.pos_pre:
            for c in op.pos_post:
                adders.setdefault(c, []).append(op.pos_pre)
    # The least set holding must_true and the positive preconditions of
    # every operator that adds one of its members: each condition is
    # appended to ``order`` as it becomes relevant and, walked once, makes
    # its adders' preconditions relevant.
    found = set(goal.must_true)
    order = list(found)
    for c in order:
        for pre in adders.get(c, ()):
            for p in pre:
                if p not in found:
                    found.add(p)
                    order.append(p)
    relevant = sum(map(bit, found))
    kept = tuple((name, pre, neg, post) for name, (pre, neg, post, _, _) in sorted(masks.items())
                 if post & relevant)
    safe = tuple(op for op in kept if not op[3] & watched)
    unsafe = tuple(op for op in kept if op[3] & watched)
    offenders = tuple(sorted(name for name, (_, _, _, drop, _) in masks.items() if drop))
    return PlanIndex(conditions, sum(map(bit, instance.initial)), need, forbid, MappingProxyType(masks),
                     offenders, relevant, kept, safe, unsafe)


def make_instance(conditions, operators, initial=(), goal_true=(), goal_false=()) -> StripsInstance:
    return StripsInstance(
        frozenset(conditions),
        dict(operators),
        frozenset(initial),
        Goal(frozenset(goal_true), frozenset(goal_false)),
    )


def validate_plan(instance: StripsInstance, plan) -> bool:
    return validate_plan_stats(instance, plan)[0]


def validate_plan_stats(instance: StripsInstance, plan) -> tuple[bool, int]:
    """Check a plan; returns (valid, work) with work linear in |plan| * |conditions|.

    Each step costs its operator's four condition counts plus one, and the
    goal test the goal's two counts plus one.  States are masks, and each
    step reads its operator's masks and cost from the plan index built
    with the instance, so no set is built per step.  A step naming no
    operator of the instance raises ``KeyError``.
    """
    index = instance.plan_index
    state = index.initial
    work = 0
    for name in plan:
        pre, neg, post, drop, cost = index.masks[name]
        work += cost
        if state & pre != pre or state & neg:
            return False, work
        state = (state | post) & ~drop
    work += len(instance.goal.must_true) + len(instance.goal.must_false) + 1
    return state & index.need == index.need and not state & index.forbid, work


def require_add_only(instance: StripsInstance) -> None:
    """Raise ``ValueError`` naming the operators with negative postconditions."""
    offenders = instance.plan_index.offenders
    if offenders:
        raise ValueError(f"operators with negative postconditions: {list(offenders)}")


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

    The masks, the relevant conditions, the watched set's split into safe
    and unsafe operators and the list of operators with negative
    postconditions are the instance's ``plan_index``, built with the
    instance; the relevant conditions come from a worklist over the
    operators that add each condition, which reaches the same least set as
    passes over the operators would.  The search builds nothing before its
    root closure, and the closure itself still makes one pass over its
    operators per condition it adds.

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
    it; the plan is rebuilt once, at the goal.  Raises ``ValueError`` on
    instances outside the add-only fragment, as the index's ``offenders``
    alone decides, and ``SearchBudgetError`` past ``max_states``
    expansions.
    """
    require_add_only(instance)
    index = instance.plan_index
    need, forbid, relevant, safe = index.need, index.forbid, index.relevant, index.safe
    # Conditions never become false again, so any state overlapping
    # must_false is a dead end, the initial state included.  Saturation
    # adds no watched condition, so a root holding must_true is a goal.
    if index.initial & forbid:
        return None, 0

    def close(state: int, operators: tuple[Step, ...]) -> tuple[int, Plan]:
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

    root, steps = close(index.initial, safe)
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
        for name, pre, neg, post in index.unsafe:
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
        if successors and close(state, index.kept)[0] & need == need:
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
    return to_json(obj)


def _names(value) -> list[str]:
    """A JSON array of condition names, or TypeError."""
    if not isinstance(value, list) or not all(map(str.__instancecheck__, value)):
        raise TypeError(f"expected an array of condition names, got {value!r}")
    return value


def instance_from_json(text: str) -> StripsInstance:
    """Load an instance written as ``instance_to_json`` writes one.

    A repeated key, a missing or malformed field and an operator without
    exactly four condition arrays are ``ValueError``s.
    """
    obj = from_json(text)
    with fields_of("instance"):
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
