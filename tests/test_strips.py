import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reoptlab.cnf import cnf
from reoptlab.enumeration import random_plansat_instance
from reoptlab.replanning import apply_initial_change, sat_to_replanning
from reoptlab.solvers import solve_brute
from reoptlab.strips import (
    Goal,
    NegativePostconditionError,
    SearchBudgetError,
    UnknownOperatorError,
    check_positive_postconditions,
    instance_from_json,
    instance_to_json,
    is_applicable,
    make_instance,
    make_operator,
    plan_exists,
    plan_exists_stats,
    validate_plan,
    validate_plan_stats,
)

from oracles import plan_reachable, reference_plan_dfs, reference_plan_search


def guard_instance():
    # one guarded operator granting both targets at once
    return make_instance(
        ["a", "c1", "c2"],
        {"e": make_operator(pos_pre=["a"], pos_post=["c1", "c2"])},
        initial=["a"],
        goal_true=["c1", "c2"],
    )


def test_operator_invariant():
    with pytest.raises(ValueError):
        make_operator(pos_pre=["p"], neg_pre=["p"])


def test_goal_invariant():
    with pytest.raises(ValueError):
        Goal(frozenset({"p"}), frozenset({"p"}))


def test_instance_validation():
    with pytest.raises(ValueError):
        make_instance(["p"], {}, initial=["q"])
    with pytest.raises(ValueError):
        make_instance(["p"], {}, goal_true=["q"])
    with pytest.raises(ValueError):
        make_instance(["p"], {"op": make_operator(pos_post=["q"])})


def test_validate_plan():
    inst = guard_instance()
    assert validate_plan(inst, ("e",))
    assert not validate_plan(inst, ())
    stripped = make_instance(inst.conditions, inst.operators, initial=[],
                             goal_true=["c1", "c2"])
    assert not validate_plan(stripped, ("e",))


def test_validate_plan_runs_negative_postconditions():
    swap = make_operator(pos_pre=["p"], pos_post=["q"], neg_post=["p"])
    back = make_operator(neg_pre=["p"], pos_post=["r"])
    inst = make_instance(["p", "q", "r"], {"swap": swap, "back": back}, initial=["p"],
                         goal_true=["q"], goal_false=["p"])
    assert validate_plan(inst, ("swap",))
    assert validate_plan(inst, ("swap", "back"))
    assert not validate_plan(inst, ("back",))
    assert not validate_plan(inst, ("swap", "swap"))
    kept = make_instance(inst.conditions, inst.operators, initial=["p"], goal_true=["p", "q"])
    assert not validate_plan(kept, ("swap",))


def test_validate_plan_empty_goal():
    inst = make_instance(["p"], {}, initial=[])
    assert validate_plan(inst, ())


def test_validate_plan_unknown_operator():
    with pytest.raises(UnknownOperatorError):
        validate_plan(guard_instance(), ("ghost",))


def test_validate_plan_work_is_linear():
    inst = guard_instance()
    sizes = len(inst.conditions)
    for plan in ((), ("e",), ("e", "e"), ("e", "e", "e", "e")):
        _, work = validate_plan_stats(inst, plan)
        assert work <= 4 * len(plan) * sizes + 2 * sizes + len(plan) + 1


def test_check_positive_postconditions():
    assert check_positive_postconditions(guard_instance())
    deleter = make_instance(["p"], {"kill": make_operator(neg_post=["p"])})
    assert not check_positive_postconditions(deleter)
    assert check_positive_postconditions(make_instance([], {}))


def test_plan_exists_trivial_goal():
    inst = make_instance(["p"], {}, initial=["p"], goal_true=["p"])
    assert plan_exists(inst) == ()


def test_plan_exists_rejects_negative_postconditions():
    deleter = make_instance(["p"], {"kill": make_operator(neg_post=["p"])})
    with pytest.raises(NegativePostconditionError):
        plan_exists(deleter)


def test_plan_exists_finds_chain():
    inst = make_instance(
        ["p", "q", "r"],
        {
            "one": make_operator(pos_post=["p"]),
            "two": make_operator(pos_pre=["p"], pos_post=["q"]),
            "three": make_operator(pos_pre=["q"], pos_post=["r"]),
        },
        goal_true=["r"],
    )
    plan = plan_exists(inst)
    assert plan == ("one", "two", "three")
    assert validate_plan(inst, plan)


def test_plan_exists_dead_goal():
    inst = make_instance(["p", "q"], {"set_q": make_operator(pos_post=["q"])},
                         goal_true=["p"])
    assert plan_exists(inst) is None


def test_plan_exists_must_false_prunes():
    inst = make_instance(["p"], {"set_p": make_operator(pos_post=["p"])},
                         initial=["p"], goal_false=["p"])
    assert plan_exists(inst) is None


@pytest.mark.parametrize("inst, plan", [
    (make_instance(
        ["p", "q"],
        {
            "one": make_operator(pos_post=["p"]),
            "two": make_operator(pos_pre=["p"], pos_post=["q"]),
        },
        goal_true=["q"],
    ), ("one", "two")),
    # Once "c" has made q true, "a" adds nothing, so it is not a step,
    # though ("c", "a", "b") would validate too.
    (make_instance(
        ["p", "q", "r"],
        {
            "a": make_operator(pos_pre=["p"], pos_post=["q"]),
            "b": make_operator(pos_pre=["q"], pos_post=["r"]),
            "c": make_operator(pos_post=["p", "q"]),
        },
        goal_true=["r"],
    ), ("c", "b")),
], ids=["chain", "step-adds-nothing"])
def test_plan_exists_saturates_safe_chain_at_root(inst, plan):
    # No operator watches a condition, so every step is safe and no state is expanded.
    assert plan_exists_stats(inst) == (plan, 0)


def test_plan_exists_budget():
    # "stop" watches p and q, so "one" and "two" are unsafe and must be searched.
    inst = make_instance(
        ["p", "q"],
        {
            "one": make_operator(pos_post=["p"]),
            "two": make_operator(pos_pre=["p"], pos_post=["q"]),
            "stop": make_operator(neg_pre=["p", "q"]),
        },
        goal_true=["q"],
    )
    assert plan_exists_stats(inst) == (("one", "two"), 2)
    with pytest.raises(SearchBudgetError):
        plan_exists(inst, max_states=1)


def test_states_grow_monotonically_along_plans():
    rng = random.Random(37)
    for _ in range(40):
        inst = random_plansat_instance(rng, rng.randint(1, 6), rng.randint(1, 6))
        plan = plan_exists(inst)
        if plan is None:
            continue
        state = inst.initial
        for name in plan:
            op = inst.operators[name]
            assert is_applicable(state, op)
            following = (state | op.pos_post) - op.neg_post
            assert state <= following
            state = following


def assert_plan_search_matches_sequence_oracle(inst):
    plan = plan_exists(inst)
    simplified = {
        name: (sorted(op.pos_pre), sorted(op.neg_pre), sorted(op.pos_post))
        for name, op in inst.operators.items()
    }
    expected = plan_reachable(
        inst.conditions, simplified, inst.initial,
        inst.goal.must_true, inst.goal.must_false,
    )
    assert (plan is not None) == expected
    if plan is not None:
        assert validate_plan(inst, plan)
    return plan


def test_plan_search_matches_sequence_oracle():
    rng = random.Random(31)
    for _ in range(150):
        assert_plan_search_matches_sequence_oracle(
            random_plansat_instance(rng, rng.randint(1, 8), rng.randint(1, 8)))


@st.composite
def addonly_instances(draw):
    conditions = [f"p{i}" for i in range(draw(st.integers(1, 6)))]

    def subsets(low, high):
        return st.sets(st.sampled_from(conditions), min_size=low, max_size=high)

    # At most one negative precondition each, so that safe and unsafe
    # operators both occur often.
    operators = {}
    for i in range(draw(st.integers(0, 8))):
        pos_pre = draw(subsets(0, 2))
        operators[f"op{i}"] = make_operator(pos_pre, draw(subsets(0, 1)) - pos_pre, draw(subsets(1, 2)))
    goal_true = draw(subsets(1, 3))
    goal_false = draw(subsets(0, 2)) - goal_true
    return make_instance(conditions, operators, draw(subsets(0, 3)), goal_true, goal_false)


@settings(max_examples=300, deadline=None)
@given(addonly_instances())
def test_plan_search_matches_sequence_oracle_property(inst):
    assert_plan_search_matches_sequence_oracle(inst)


def small_instance(rng):
    # Up to two negative preconditions per operator, and a must_false part.
    conditions = [f"p{i}" for i in range(rng.randint(1, 6))]

    def some(low, high):
        return rng.sample(conditions, rng.randint(low, min(high, len(conditions))))

    operators = {}
    for i in range(rng.randint(0, 8)):
        pos_pre = some(0, 2)
        neg_pre = [c for c in some(0, 2) if c not in pos_pre]
        operators[f"op{i}"] = make_operator(pos_pre, neg_pre, some(1, 2))
    goal_true = some(1, 3)
    goal_false = [c for c in some(0, 2) if c not in goal_true]
    return make_instance(conditions, operators, some(0, 3), goal_true, goal_false)


def test_plan_search_matches_sequence_oracle_with_two_negative_preconditions():
    rng = random.Random(41)
    solvable = 0
    for _ in range(3000):
        solvable += assert_plan_search_matches_sequence_oracle(small_instance(rng)) is not None
    assert 1000 < solvable < 2000


def benchmark_shaped_instance(rng):
    # 20 conditions, 36 operators with one negative precondition each,
    # 4 initial and 6-7 goal conditions, like the random-edits bases.
    conditions = [f"p{i:02d}" for i in range(20)]
    operators = {}
    for i in range(36):
        pos_pre = rng.sample(conditions, rng.randint(0, 2))
        neg_pre = rng.sample([c for c in conditions if c not in pos_pre], 1)
        operators[f"o{i:02d}"] = make_operator(pos_pre, neg_pre, rng.sample(conditions, rng.randint(1, 2)))
    initial = rng.sample(conditions, 4)
    goal = rng.sample([c for c in conditions if c not in initial], rng.randint(6, 7))
    return make_instance(conditions, operators, initial, goal)


def test_plan_search_matches_breadth_first_reference_on_benchmark_shapes():
    rng = random.Random(43)
    solvable = 0
    for _ in range(60):
        base = benchmark_shaped_instance(rng)
        # The base, then each one-condition removal from its initial state.
        for removed in [None, *sorted(base.initial)]:
            inst = base if removed is None else make_instance(
                base.conditions, base.operators, base.initial - {removed}, base.goal.must_true)
            plan, _ = plan_exists_stats(inst)
            expected, _ = reference_plan_search(inst)
            assert (plan is not None) == (expected is not None)
            if plan is not None:
                assert validate_plan(inst, plan)
                solvable += 1
    assert solvable >= 60


@pytest.mark.parametrize("noise", [0, 1, 2, 5])
def test_plan_search_skips_operators_that_add_no_relevant_condition(noise):
    # "stop" watches every condition but u, so every other operator but
    # "d" is unsafe.  a<j> adds only the irrelevant w<j>; b<j> re-adds g1
    # beside w<j>.  Neither may be branched on, so only the chain's three
    # states are expanded, however many of them there are.  The safe "d"
    # adds only the irrelevant u, so saturation leaves it out of the plan.
    noise_conditions = [f"w{j}" for j in range(noise)]
    operators = {
        "d": make_operator(pos_post=["u"]),
        "c1": make_operator(pos_post=["g1"]),
        "c2": make_operator(pos_pre=["g1"], pos_post=["g2"]),
        "c3": make_operator(pos_pre=["g2"], pos_post=["g3"]),
        "stop": make_operator(neg_pre=["g1", "g2", "g3", *noise_conditions]),
    }
    for j, w in enumerate(noise_conditions):
        operators[f"a{j}"] = make_operator(pos_post=[w])
        operators[f"b{j}"] = make_operator(pos_pre=["g1"], pos_post=["g1", w])
    inst = make_instance(["g1", "g2", "g3", "u", *noise_conditions], operators, goal_true=["g3"])
    assert plan_exists_stats(inst) == (("c1", "c2", "c3"), 3)


def test_plan_search_expands_the_first_named_successor_first():
    # "a" and "b" both start a route to the goal; depth-first search follows
    # "a" to its end before it expands the state "b" made.
    inst = make_instance(
        ["p", "q", "r", "s"],
        {
            "a": make_operator(pos_post=["p"]),
            "a2": make_operator(pos_pre=["p"], pos_post=["r"]),
            "a3": make_operator(pos_pre=["r"], pos_post=["s"]),
            "b": make_operator(pos_post=["q"]),
            "b2": make_operator(pos_pre=["q"], pos_post=["s"]),
            "stop": make_operator(neg_pre=["p", "q", "r", "s"]),
        },
        goal_true=["s"],
    )
    assert plan_exists_stats(inst) == (("a", "a2", "a3"), 3)
    assert reference_plan_search(inst) == (("b", "b2"), 3)


@st.composite
def small_3cnfs(draw):
    variables = range(1, draw(st.integers(3, 5)) + 1)
    three = st.lists(st.sampled_from(variables), min_size=3, max_size=3, unique=True)
    clauses = []
    for _ in range(draw(st.integers(1, 16))):
        clauses.append(tuple(v if draw(st.booleans()) else -v for v in draw(three)))
    return cnf(clauses)


@settings(max_examples=100, deadline=None)
@given(small_3cnfs())
def test_guard_removal_search_stays_within_partial_assignments(f):
    # Every clause-target operator and e are safe, so only the 3^n partial
    # assignments of the truth tokens are ever expanded.
    changed = apply_initial_change(sat_to_replanning(f))
    plan, expanded = plan_exists_stats(changed)
    assert expanded <= 3 ** len(f.alphabet)
    assert (plan is not None) == (solve_brute(f) is not None)
    if plan is not None:
        assert validate_plan(changed, plan)


def assert_same_plan_as_uncut_search(inst):
    plan, expanded = plan_exists_stats(inst)
    uncut_plan, uncut_expanded = reference_plan_dfs(inst)
    assert plan == uncut_plan
    assert expanded <= uncut_expanded
    return plan


@st.composite
def two_negative_instances(draw):
    return small_instance(draw(st.randoms(use_true_random=False)))


@st.composite
def benchmark_shaped_removals(draw):
    # A drawn seed, not st.randoms(): recording the base's few hundred
    # random draws would cost about 50 ms an example.
    base = benchmark_shaped_instance(random.Random(draw(st.integers(0, 2 ** 32 - 1))))
    removed = draw(st.sampled_from([None, *sorted(base.initial)]))
    if removed is None:
        return base
    return make_instance(base.conditions, base.operators, base.initial - {removed}, base.goal.must_true)


@settings(max_examples=200, deadline=None)
@given(st.one_of(addonly_instances(), two_negative_instances(), benchmark_shaped_removals()))
def test_dead_end_cut_keeps_the_uncut_plan(inst):
    assert_same_plan_as_uncut_search(inst)


@settings(max_examples=100, deadline=None)
@given(small_3cnfs())
def test_dead_end_cut_keeps_the_uncut_plan_on_guard_removal(f):
    changed = apply_initial_change(sat_to_replanning(f))
    plan = assert_same_plan_as_uncut_search(changed)
    breadth_first, _ = reference_plan_search(changed)
    assert (plan is not None) == (breadth_first is not None) == (solve_brute(f) is not None)


def dead_branch_instance(n):
    # "a" adds x0 and d, and d blocks "win", which needs x0..xn; "stop"
    # watches every x, so each b<i> is branched on.  Below the root, the
    # first-named successor {d, x0} heads a dead subtree of 2^n states.
    xs = [f"x{i}" for i in range(n + 1)]
    operators = {
        "a": make_operator(pos_post=["d", "x0"]),
        "stop": make_operator(neg_pre=xs),
        "win": make_operator(pos_pre=xs, neg_pre=["d"], pos_post=["g"]),
    }
    for i, x in enumerate(xs):
        operators[f"b{i}"] = make_operator(pos_post=[x])
    return make_instance(["d", "g", *xs], operators, goal_true=["g"])


@pytest.mark.parametrize("n", [1, 3, 6, 9])
def test_dead_end_cut_skips_a_dead_subtree(n):
    # The root, the dead {d, x0}, and the chain {x0}, {x0, x1}, ... up to
    # x0..x<n-1>, whose successor saturates to the goal.
    inst = dead_branch_instance(n)
    plan = (*(f"b{i}" for i in range(n + 1)), "win")
    assert plan_exists_stats(inst) == (plan, n + 2)
    assert reference_plan_dfs(inst) == (plan, 2 ** n + n + 1)


def test_instance_json_round_trip():
    inst = guard_instance()
    assert instance_from_json(instance_to_json(inst)) == inst
    text = instance_to_json(inst)
    assert instance_to_json(instance_from_json(text)) == text


def test_instance_json_random_round_trips():
    rng = random.Random(13)
    for _ in range(25):
        inst = random_plansat_instance(rng, rng.randint(1, 6), rng.randint(0, 6))
        assert instance_from_json(instance_to_json(inst)) == inst


def test_instance_json_rejects_malformed():
    with pytest.raises(ValueError):
        instance_from_json('{"conditions": []}')
    with pytest.raises(ValueError):
        instance_from_json(
            '{"conditions": ["p"], "operators": {"op": [[], []]},'
            ' "initial": [], "goal": {"must_true": [], "must_false": []}}'
        )
