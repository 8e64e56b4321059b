import random

import pytest

from reoptlab.cnf import ChangeSet, apply_changes, clause, cnf, evaluate
from reoptlab.enumeration import iter_small_formulas, random_formula
from reoptlab.reductions import reduce_unique_model
from reoptlab.solvers import (
    OracleLimitError,
    count_models,
    iter_assignments,
    solve_brute,
    solve_dpll,
    solve_dpll_stats,
)

from oracles import brute_sat, reference_dpll

# (x1 or x2)(x3 or x4)...(x2999 or x3000): 1,500 decisions deep.
CHAIN = cnf([(2 * i + 1, 2 * i + 2) for i in range(1500)])


def test_enumeration_order_is_binary_counting():
    got = list(iter_assignments({1, 2}))
    assert got == [frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2})]


def test_brute_empty_formula():
    assert solve_brute(cnf()) == frozenset()


def test_brute_contradiction():
    assert solve_brute(cnf([(1,), (-1,)])) is None


def test_brute_first_model_in_counting_order():
    # all four assignments enumerated; {x2} is the first model
    assert solve_brute(cnf([(1, 2), (-1,)])) == frozenset({2})


def test_brute_oracle_limit():
    wide = cnf((), alphabet=range(1, 22))
    with pytest.raises(OracleLimitError):
        solve_brute(wide)
    assert solve_brute(wide, limit=21) == frozenset()


def test_dpll_unit_propagation():
    assert solve_dpll(cnf([(1,)])) == frozenset({1})


def test_dpll_unsat_after_propagation():
    assert solve_dpll(cnf([(1, 2), (-1, 2), (-2,)])) is None


def test_dpll_agrees_with_brute_on_guard_formula():
    # (a or x1) and (a or not x1) and (not a): forcing a false contradicts x1
    f = cnf([(2, 1), (2, -1), (-2,)])
    assert solve_brute(f) is None
    assert solve_dpll(f) is None


def test_dpll_model_satisfies():
    f = cnf([(1, 2, 3), (-1, -2), (-3, 1)])
    model = solve_dpll(f)
    assert model is not None and evaluate(f, model)


def test_dpll_work_counts_unit_chain():
    model, work = solve_dpll_stats(cnf([(1,), (-1, 2)]))
    assert model == frozenset({1, 2})
    assert work == 2  # two propagations, no decisions


def test_count_models():
    assert count_models(cnf([(1, -1)])) == 2
    assert count_models(cnf((), alphabet={1, 2})) == 4
    assert count_models(cnf([(1,), (-1,)])) == 0


def test_solvers_agree_small_enumeration_and_random():
    # exhaustive small formulas plus a seeded sample at larger scale
    for f in iter_small_formulas(2, 2):
        assert (solve_dpll(f) is None) == (not brute_sat(f.clauses, f.alphabet))
    rng = random.Random(7)
    for _ in range(1000):
        f = random_formula(rng, rng.randint(0, 4), rng.randint(0, 6))
        fast = solve_dpll(f)
        assert (fast is None) == (not brute_sat(f.clauses, f.alphabet))
        if fast is not None:
            assert evaluate(f, fast)


def random_3cnf(rng, num_vars, num_clauses):
    clauses = set()
    while len(clauses) < num_clauses:
        variables = rng.sample(range(1, num_vars + 1), 3)
        clauses.add(clause(*(v if rng.random() < 0.5 else -v for v in variables)))
    return cnf(clauses, alphabet=range(1, num_vars + 1))


def test_dpll_matches_recursive_reference_on_small_formulas():
    for f in iter_small_formulas(3, 3):
        assert solve_dpll_stats(f) == reference_dpll(f)


def test_dpll_matches_recursive_reference_on_random_formulas():
    rng = random.Random(11)
    for _ in range(1000):
        f = random_formula(rng, rng.randint(0, 10), rng.randint(0, 30))
        assert solve_dpll_stats(f) == reference_dpll(f)
    # pure 3-CNF near the threshold ratio backtracks deeply
    for _ in range(10):
        f = random_3cnf(rng, 25, 106)
        assert solve_dpll_stats(f) == reference_dpll(f)


def test_dpll_matches_recursive_reference_on_unique_swaps():
    rng = random.Random(12)
    for _ in range(20):
        inst = reduce_unique_model(random_3cnf(rng, 12, 51))
        swap = ChangeSet(additions=(inst.add_clause,), deletions=(inst.del_clause,))
        swapped = apply_changes(inst.formula, swap)
        assert solve_dpll_stats(swapped) == reference_dpll(swapped)


def test_dpll_on_long_chain_needs_no_recursion():
    model, work = solve_dpll_stats(CHAIN)
    assert model == frozenset(range(1, 3000, 2))
    assert work == 1500  # one decision per clause, no propagation
