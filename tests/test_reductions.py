import pytest

from reoptlab import reductions
from reoptlab.cnf import ChangeSet, apply_changes, cnf, evaluate
from reoptlab.enumeration import iter_small_formulas
from reoptlab.errors import BudgetExceededError
from reoptlab.reductions import (
    FixedModelInstance,
    NsatInstance,
    fresh_variable,
    reduce_fixed_model,
    reduce_unique_model,
    unique_model,
)
from reoptlab.solvers import count_models, solve_brute

from oracles import brute_sat, guarded_clauses, single_model_clauses


def added(instance):
    return apply_changes(instance.formula, ChangeSet(additions=(instance.change_clause,)))


def swapped(instance):
    return apply_changes(
        instance.formula,
        ChangeSet(additions=(instance.add_clause,), deletions=(instance.del_clause,)),
    )


def test_fresh_variable_is_above_alphabet():
    assert fresh_variable(cnf()) == 1
    assert fresh_variable(cnf([(2,)], alphabet={1, 2, 5})) == 6


def test_fixed_model_empty_formula():
    inst = reduce_fixed_model(cnf())
    assert inst.formula.clauses == frozenset()
    assert inst.change_clause == (-1,)
    assert inst.hint_model == frozenset({1})
    assert solve_brute(added(inst)) is not None


def test_fixed_model_unsatisfiable_source():
    inst = reduce_fixed_model(cnf([(1,), (-1,)]))
    assert inst.formula.clauses == frozenset({(1, 2), (-1, 2)})
    assert solve_brute(added(inst)) is None


def test_fixed_model_satisfiable_source():
    inst = reduce_fixed_model(cnf([(1,)]))
    assert inst.formula.clauses == frozenset({(1, 2)})
    assert solve_brute(added(inst)) == frozenset({1})


def test_fixed_model_rejects_bad_hint():
    with pytest.raises(ValueError):
        FixedModelInstance(cnf([(1,)]), (-1,), frozenset())


def test_unique_model_example():
    inst = reduce_unique_model(cnf([(1,)]))
    assert count_models(inst.formula) == 1
    assert inst.formula.clauses == frozenset({(2,), (1,), (1, -2), (1, 2), (2, -2)})
    assert inst.add_clause == (-2,)
    assert inst.del_clause == (2,)
    assert unique_model(inst) == frozenset({1, 2})
    assert solve_brute(swapped(inst)) == frozenset({1})


def test_unique_model_unsatisfiable_source():
    inst = reduce_unique_model(cnf([(1,), (-1,)]))
    assert count_models(inst.formula) == 1
    assert solve_brute(swapped(inst)) is None


def test_unique_model_degenerate_alphabet():
    inst = reduce_unique_model(cnf())
    assert count_models(inst.formula) == 1
    # the product contributes the tautology (a or not a) alongside {a}
    assert inst.formula.clauses == frozenset({(1,), (1, -1)})
    assert unique_model(inst) == frozenset({1})
    assert solve_brute(swapped(inst)) is not None


def test_unique_model_rejects_empty_clause():
    with pytest.raises(ValueError):
        reduce_unique_model(cnf([()]))


def test_unique_model_past_the_dpll_budget_is_refused(monkeypatch):
    # Two variables times the 2 x 2 pairs of the product: 8 cells.
    monkeypatch.setattr(reductions, "DPLL_BUDGET", 8)
    assert reduce_unique_model(cnf([(1,)])).formula.alphabet == {1, 2}
    monkeypatch.setattr(reductions, "DPLL_BUDGET", 7)
    with pytest.raises(BudgetExceededError, match="exceed the DPLL budget of 7"):
        reduce_unique_model(cnf([(1,)]))


def test_nsat_unary_counts_declared_alphabet():
    assert NsatInstance(cnf([(1, 2)])).unary_part == "11"
    assert NsatInstance(cnf()).unary_part == ""
    assert NsatInstance(cnf([(1, -3)], alphabet={1, 2, 3})).unary_part == "111"


def test_reduction_contracts_small_sweep():
    for g in iter_small_formulas(2, 2):
        sat_g = brute_sat(g.clauses, g.alphabet)

        fixed = reduce_fixed_model(g)
        assert abs(fixed.change_clause[0]) not in g.alphabet
        assert evaluate(fixed.formula, fixed.hint_model)
        assert brute_sat(added(fixed).clauses, added(fixed).alphabet) == sat_g

        uniq = reduce_unique_model(g)
        assert count_models(uniq.formula) == 1
        assert unique_model(uniq) == frozenset(uniq.formula.alphabet)
        after = swapped(uniq)
        assert brute_sat(after.clauses, after.alphabet) == sat_g


def test_constructions_match_their_definitions():
    # Every small formula, plus declared alphabets larger than the mentioned
    # variables, gapped and with no clause at all.
    extra = [cnf((), alphabet={2, 5}), cnf([(1, -2)], alphabet={1, 2, 7})]
    for g in [*iter_small_formulas(3, 3), *extra]:
        a = max(g.alphabet, default=0) + 1
        fixed = reduce_fixed_model(g)
        assert fixed.formula.alphabet == g.alphabet | {a}
        assert fixed.formula.clauses == guarded_clauses(g.clauses, a)
        assert fixed.change_clause == (-a,)
        assert fixed.hint_model == {a}

        uniq = reduce_unique_model(g)
        assert uniq.formula.alphabet == g.alphabet | {a}
        assert uniq.formula.clauses == single_model_clauses(g.clauses, g.alphabet, a)
        assert uniq.add_clause == (-a,)
        assert uniq.del_clause == (a,)
