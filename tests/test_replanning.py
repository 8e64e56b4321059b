import pytest

from reoptlab import replanning
from reoptlab.cnf import cnf
from reoptlab.enumeration import iter_small_formulas, random_plansat_instance
from reoptlab.errors import BudgetExceededError, SearchBudgetError
from reoptlab.replanning import (
    ReplanningCase,
    apply_initial_change,
    count_irredundant_plans,
    goal_compilation,
    sat_to_replanning,
)
from reoptlab.strips import make_instance, make_operator, plan_exists, validate_plan

from oracles import (brute_irredundant_plans, brute_sat, is_applicable, satisfies_goal,
                     truth_assignments)

import random


def test_construction_shape():
    case = sat_to_replanning(cnf([(1, 2), (-1,)]))
    inst = case.instance
    assert inst.conditions == {"a", "t1", "f1", "t2", "f2", "c1", "c2"}
    # the binary clause sorts first: its targets come from positive literals
    assert set(inst.operators) == {"pl1", "nl1", "pl2", "nl2", "pc1_1", "pc1_2", "nc2_1", "e"}
    assert inst.operators["pc1_2"].pos_pre == frozenset({"t2"})
    assert inst.operators["pc1_2"].pos_post == frozenset({"c1"})
    assert inst.operators["nc2_1"].pos_pre == frozenset({"f1"})
    assert inst.operators["e"].pos_post == frozenset({"c1", "c2"})
    assert inst.initial == frozenset({"a"})
    assert inst.goal.must_true == frozenset({"c1", "c2"})
    assert inst.goal.must_false == frozenset()
    assert case.original_plan == ("e",)
    assert case.remove_from_initial == frozenset({"a"})


def test_a_case_over_the_construction_budget_is_refused(monkeypatch):
    f = cnf([(1, 2), (-1,)])  # seven conditions and eight operators
    monkeypatch.setattr(replanning, "CONSTRUCTION_BUDGET", 15)
    inst = sat_to_replanning(f).instance
    assert len(inst.conditions) + len(inst.operators) == 15
    monkeypatch.setattr(replanning, "CONSTRUCTION_BUDGET", 14)
    with pytest.raises(BudgetExceededError, match="15 conditions and operators"):
        sat_to_replanning(f)


def test_original_plan_validates_and_is_uniquely_irredundant():
    case = sat_to_replanning(cnf([(1, 2), (-1,)]))
    assert validate_plan(case.instance, case.original_plan)
    assert count_irredundant_plans(case.instance) == 1


def test_change_makes_satisfiability_decide_plan_existence():
    satisfiable = sat_to_replanning(cnf([(1, 2), (-1,)]))
    plan = plan_exists(apply_initial_change(satisfiable))
    assert plan is not None
    assert validate_plan(apply_initial_change(satisfiable), plan)

    unsatisfiable = sat_to_replanning(cnf([(1,), (-1,)]))
    assert plan_exists(apply_initial_change(unsatisfiable)) is None


def test_empty_formula_keeps_empty_plan_valid():
    case = sat_to_replanning(cnf())
    changed = apply_initial_change(case)
    assert plan_exists(changed) == ()


def test_replanning_case_validates_inputs():
    inst = make_instance(["a"], {"e": make_operator(pos_pre=["a"])}, initial=["a"])
    with pytest.raises(ValueError):
        ReplanningCase(inst, ("e",), remove_from_initial=frozenset({"zap"}))
    with pytest.raises(KeyError):
        ReplanningCase(inst, ("e", "ghost"))
    broken = make_instance(["a", "b"], {"e": make_operator(pos_pre=["b"])}, initial=["a"])
    with pytest.raises(ValueError):
        ReplanningCase(broken, ("e",))


def test_apply_initial_change_removes_conditions():
    inst = make_instance(["a", "t1"], {}, initial=["a", "t1"])
    case = ReplanningCase(inst, (), remove_from_initial=frozenset({"a"}))
    assert apply_initial_change(case).initial == frozenset({"t1"})
    untouched = ReplanningCase(inst, ())
    assert apply_initial_change(untouched) == inst


def test_count_irredundant_plans_corner_cases():
    unreachable = make_instance(["p"], {}, goal_true=["p"])
    assert count_irredundant_plans(unreachable) == 0

    # goal holds initially: only the empty plan is irredundant
    settled = make_instance(
        ["p", "q"],
        {"set_q": make_operator(pos_post=["q"]), "set_p": make_operator(pos_post=["p"])},
        initial=["p"],
        goal_true=["p"],
    )
    assert count_irredundant_plans(settled) == 1


def test_count_irredundant_plans_multiple_routes():
    inst = make_instance(
        ["p"],
        {"left": make_operator(pos_post=["p"]), "right": make_operator(pos_post=["p"])},
        goal_true=["p"],
    )
    assert count_irredundant_plans(inst) == 2


def test_count_irredundant_plans_respects_negative_preconditions():
    # "b" needs p false, so (b, a) reaches the goal and (a, b) does not,
    # though neither of its steps could be dropped if it did.
    inst = make_instance(
        ["p", "q"],
        {"a": make_operator(pos_post=["p"]), "b": make_operator(neg_pre=["p"], pos_post=["q"])},
        goal_true=["p", "q"],
    )
    assert count_irredundant_plans(inst) == 1


def test_count_irredundant_plans_matches_brute_force():
    rng = random.Random(11)
    for _ in range(150):
        inst = random_plansat_instance(rng, rng.randint(1, 5), rng.randint(1, 5))
        assert count_irredundant_plans(inst) == brute_irredundant_plans(inst), inst


def test_count_irredundant_plans_budget_and_preconditions(monkeypatch):
    inst = make_instance(["p"], {"kill": make_operator(neg_post=["p"])})
    with pytest.raises(ValueError, match=r"^operators with negative postconditions: \['kill'\]$"):
        count_irredundant_plans(inst)
    chain = make_instance(
        ["p", "q"],
        {"one": make_operator(pos_post=["p"]), "two": make_operator(pos_post=["q"])},
        goal_true=["p", "q"],
    )
    monkeypatch.setattr(replanning, "_MAX_PLAN_PREFIXES", 2)
    with pytest.raises(SearchBudgetError):
        count_irredundant_plans(chain)


def test_count_irredundant_plans_long_chain_needs_no_recursion():
    # s_i: p_i -> p_{i+1}; the goal also asks for z, which nothing adds.
    steps = 1500
    chain = make_instance(
        [f"p{i}" for i in range(steps + 1)] + ["z"],
        {f"s{i}": make_operator(pos_pre=[f"p{i}"], pos_post=[f"p{i + 1}"]) for i in range(steps)},
        initial=["p0"],
        goal_true=[f"p{steps}", "z"],
    )
    assert count_irredundant_plans(chain) == 0


def test_replanning_sweep_small():
    for f in iter_small_formulas(2, 2):
        case = sat_to_replanning(f)
        assert validate_plan(case.instance, case.original_plan)
        assert count_irredundant_plans(case.instance) == 1
        changed = apply_initial_change(case)
        assert (plan_exists(changed) is not None) == brute_sat(f.clauses, f.alphabet)


def test_goal_compilation_single_step_when_goal_holds():
    inst = make_instance(["p"], {}, initial=["p"], goal_true=["p"])
    compiled = goal_compilation(inst)
    assert plan_exists(compiled) == ("o",)
    assert compiled.goal.must_true == frozenset({"g"})
    assert compiled.goal.must_false == frozenset()


def test_goal_compilation_appends_one_step():
    inst = make_instance(["p"], {"op1": make_operator(pos_post=["p"])}, goal_true=["p"])
    assert plan_exists(goal_compilation(inst)) == ("op1", "o")


def test_goal_compilation_preserves_unreachability():
    inst = make_instance(["p"], {}, goal_true=["p"])
    assert plan_exists(goal_compilation(inst)) is None


def test_goal_compilation_new_operator_mirrors_goal():
    inst = make_instance(["p", "q"], {}, goal_true=["p"], goal_false=["q"])
    compiled = goal_compilation(inst)
    op = compiled.operators["o"]
    for state in truth_assignments(inst.conditions):
        assert is_applicable(frozenset(state), op) == satisfies_goal(frozenset(state), inst.goal)


def test_goal_compilation_name_collision_gets_nonce():
    inst = make_instance(["g"], {"o": make_operator()}, initial=["g"], goal_true=["g"])
    with pytest.warns(UserWarning):
        compiled = goal_compilation(inst)
    assert "g1" in compiled.conditions
    assert "o1" in compiled.operators
    assert plan_exists(compiled) is not None
    crowded = make_instance(["g", "g1"], {}, initial=["g1"], goal_true=["g1"])
    with pytest.warns(UserWarning, match="using g2 instead") as caught:
        compiled = goal_compilation(crowded)
    assert len(caught) == 1
    assert compiled.goal.must_true == frozenset({"g2"})
    assert compiled.conditions == frozenset({"g", "g1", "g2"})


def test_goal_compilation_equivalence_sweep():
    rng = random.Random(41)
    for _ in range(60):
        inst = random_plansat_instance(rng, rng.randint(1, 6), rng.randint(1, 6))
        before = plan_exists(inst) is not None
        after = plan_exists(goal_compilation(inst)) is not None
        assert before == after
