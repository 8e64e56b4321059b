import dataclasses
import inspect
import warnings

import pytest

from reoptlab import verification
from reoptlab.cnf import clause, cnf
from reoptlab.hints import MISS
from reoptlab.reductions import reduce_fixed_model
from reoptlab.strips import make_instance
from reoptlab.verification import (
    SUITES,
    sweep_fixed_model,
    sweep_goal_compilation,
    sweep_hint_tables,
    sweep_replanning,
    sweep_solver_agreement,
    sweep_unique_model,
    sweep_vc_gadget,
)


def test_all_sweeps_pass_at_reduced_scale():
    assert sweep_solver_agreement(2, 2, samples=50) == []
    assert sweep_fixed_model(2, 2) == []
    assert sweep_unique_model(2, 2) == []
    assert sweep_vc_gadget(2, 2, samples=20) == []
    assert sweep_replanning(2, 2) == []
    assert sweep_goal_compilation(samples=30) == []
    assert sweep_hint_tables(samples=10) == []


def test_sweeps_delete_only_present_clauses():
    # apply_changes warns when a deleted clause is absent; the sweeps never
    # delete one, so they raise no warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sweep_fixed_model(2, 2) == []
        assert sweep_unique_model(2, 2) == []
        assert sweep_hint_tables(samples=10) == []


@pytest.mark.parametrize("offset", [1, -1])
def test_corrupted_gadget_budget_is_caught(monkeypatch, offset):
    real = verification.decide_cover
    monkeypatch.setattr(verification, "decide_cover",
                        lambda g, b: real(g, max(b + offset, 0)))
    failures = sweep_vc_gadget(2, 2, samples=0)
    assert failures
    assert "gadget verdict wrong" in failures[0]


UNSATISFIABLE = cnf([(1,), (-1,)])


def _fixed_model_reusing_variable_1(g):
    return dataclasses.replace(reduce_fixed_model(g), change_clause=clause(-1))


# One corruption per counterexample path of each sweep but ``sweep_vc_gadget``:
# the sweep, the name it imports and its replacement, the text naming the
# problem, and a mark of the reproducer (a DIMACS header or instance JSON).
@pytest.mark.parametrize("sweep, name, replacement, problem, reproducer", [
    (sweep_solver_agreement, "solve_dpll", lambda f: None, "solver disagreement", "p cnf"),
    (sweep_solver_agreement, "evaluate", lambda f, a: False, "dpll returned a non-model", "p cnf"),
    (sweep_fixed_model, "evaluate", lambda f, a: False, "hint fails the base formula", "p cnf"),
    (sweep_fixed_model, "reduce_fixed_model", _fixed_model_reusing_variable_1,
     "fresh variable collides with the alphabet", "p cnf"),
    (sweep_fixed_model, "apply_changes", lambda f, c: UNSATISFIABLE,
     "equisatisfiability broken", "p cnf"),
    (sweep_unique_model, "count_models", lambda f: 2, "model count is not 1", "p cnf"),
    (sweep_unique_model, "evaluate", lambda f, a: False, "the designated model is not a model",
     "p cnf"),
    (sweep_unique_model, "apply_changes", lambda f, c: UNSATISFIABLE,
     "swap equisatisfiability broken", "p cnf"),
    (sweep_replanning, "validate_plan", lambda i, p: False, "original plan invalid", "p cnf"),
    (sweep_replanning, "count_irredundant_plans", lambda i: 2, "irredundant plan not unique",
     "p cnf"),
    (sweep_replanning, "plan_exists", lambda i: None, "replanning verdict wrong", "p cnf"),
    (sweep_goal_compilation, "goal_compilation", lambda i: make_instance(["g"], {}, [], ["g"]),
     "goal compilation changed the verdict", '"operators":'),
    (sweep_hint_tables, "lookup", lambda t, c: MISS, "unexpected miss", "p cnf"),
    (sweep_hint_tables, "lookup", lambda t, c: None, "table verdict wrong", "p cnf"),
    (sweep_hint_tables, "evaluate", lambda f, a: False, "table stores a non-model", "p cnf"),
])
def test_corrupted_sweep_keeps_its_reproducer(monkeypatch, sweep, name, replacement, problem,
                                              reproducer):
    monkeypatch.setattr(verification, name, replacement)
    scale = {"max_vars": 2, "max_clauses": 2, "samples": 10}
    declared = inspect.signature(sweep).parameters
    failures = sweep(**{k: v for k, v in scale.items() if k in declared})
    assert failures
    assert problem in failures[0]
    assert reproducer in failures[0]


def test_suite_dispatch():
    assert SUITES["hint-tables"](samples=5) == []
    assert SUITES["sat-reductions"](max_vars=2, max_clauses=2, samples=20) == []


# The suites of several sweeps, with their sweeps in the order they run.
MULTI_SWEEP_SUITES = {
    "sat-reductions": ["sweep_solver_agreement", "sweep_fixed_model", "sweep_unique_model"],
    "plan-reductions": ["sweep_replanning", "sweep_goal_compilation"],
}


@pytest.mark.parametrize("given", [{}, {"max_vars": 2, "max_clauses": 1, "samples": 4, "seed": 5}],
                         ids=["defaults", "all-given"])
@pytest.mark.parametrize("suite", sorted(MULTI_SWEEP_SUITES))
def test_a_suite_gives_each_sweep_the_options_it_declares(monkeypatch, suite, given):
    # Each sweep gets the given options it declares and its own default for the rest.
    names = MULTI_SWEEP_SUITES[suite]
    signatures = {name: inspect.signature(getattr(verification, name)) for name in names}
    calls = []
    for name in names:
        def sweep(*args, name=name, **kwargs):
            bound = signatures[name].bind(*args, **kwargs)
            bound.apply_defaults()
            calls.append((name, bound.arguments))
            return [name]
        monkeypatch.setattr(verification, name, sweep)
    assert SUITES[suite](**given) == names
    assert calls == [(name, {p: given.get(p, param.default)
                             for p, param in signatures[name].parameters.items()})
                     for name in names]


def test_suite_names():
    assert set(SUITES) == {"sat-reductions", "vc-gadget", "plan-reductions", "hint-tables"}
