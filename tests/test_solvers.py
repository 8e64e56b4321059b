import random
import tracemalloc
from itertools import chain, combinations, product
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reoptlab import solvers
from reoptlab.cnf import (
    ChangeSet,
    CnfFormula,
    apply_changes,
    clause,
    clause_sort_key,
    cnf,
    evaluate,
)
from reoptlab.enumeration import iter_small_formulas, random_formula
from reoptlab.errors import DPLL_BUDGET, BudgetExceededError, SearchBudgetError
from reoptlab.reductions import reduce_unique_model
from reoptlab.solvers import (
    count_models,
    iter_assignments,
    solve_brute,
    solve_dpll,
    solve_dpll_stats,
)

from oracles import brute_sat, reference_dpll

# Gapped and large ids, so that a solver indexing by variable id is caught.
VARIABLE_IDS = (1, 2, 3, 4, 5, 6, 9, 17, 40, 10**9)
LITERALS = st.builds(lambda v, sign: sign * v,
                     st.sampled_from(VARIABLE_IDS), st.sampled_from((1, -1)))

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
    with pytest.raises(BudgetExceededError, match="21 variables exceed the oracle limit of 20"):
        solve_brute(wide)


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


def random_3clause(rng, num_vars):
    variables = rng.sample(range(1, num_vars + 1), 3)
    return clause(*(v if rng.random() < 0.5 else -v for v in variables))


def random_3cnf(rng, num_vars, num_clauses, model=None):
    """Distinct random 3-clauses; with ``model``, only clauses it satisfies."""
    clauses = set()
    while len(clauses) < num_clauses:
        cl = random_3clause(rng, num_vars)
        if model is None or any((lit > 0) == (abs(lit) in model) for lit in cl):
            clauses.add(cl)
    return cnf(clauses, alphabet=range(1, num_vars + 1))


def test_dpll_matches_recursive_reference_on_small_formulas():
    for f in iter_small_formulas(3, 3):
        assert solve_dpll_stats(f) == reference_dpll(f)


def random_sweep():
    rng = random.Random(11)
    for _ in range(1000):
        yield random_formula(rng, rng.randint(0, 10), rng.randint(0, 30))
    # pure 3-CNF near the threshold ratio backtracks deeply
    for _ in range(10):
        yield random_3cnf(rng, 25, 106)


def unique_swap_sweep():
    # Pure 3-CNF sources of 12 variables and 51 clauses, the size the
    # benchmark swaps: the unique-model formula and its swapped form.
    rng = random.Random(12)
    for _ in range(40):
        inst = reduce_unique_model(random_3cnf(rng, 12, 51))
        swap = ChangeSet(additions=(inst.add_clause,), deletions=(inst.del_clause,))
        yield inst.formula
        yield apply_changes(inst.formula, swap)


def planted_sweep():
    # A planted 30-variable, 126-clause 3-CNF plus one random added clause.
    rng = random.Random(13)
    for _ in range(20):
        model = {v for v in range(1, 31) if rng.random() < 0.5}
        base = random_3cnf(rng, 30, 126, model)
        yield apply_changes(base, ChangeSet(additions=(random_3clause(rng, 30),)))


def test_dpll_matches_recursive_reference_on_random_formulas():
    for f in random_sweep():
        assert solve_dpll_stats(f) == reference_dpll(f)


def test_dpll_matches_recursive_reference_on_unique_swaps():
    for f in unique_swap_sweep():
        model, work = solve_dpll_stats(f)
        assert (model, work) == reference_dpll(f)
        assert model is None or evaluate(f, model)


def test_dpll_models_do_not_depend_on_the_clause_order():
    # Unit propagation reaches the same fixpoint in any order, so the
    # reference propagating in ``clause_sort_key`` order, the order DPLL
    # once used, makes the same decisions and finds the same models.
    for f in chain(unique_swap_sweep(), planted_sweep(), random_sweep()):
        assert solve_dpll_stats(f)[0] == reference_dpll(f, key=clause_sort_key)[0]


def test_dpll_on_long_chain_needs_no_recursion():
    assert len(CHAIN.alphabet) * len(CHAIN.clauses) <= DPLL_BUDGET  # 4.5 * 10**6
    model, work = solve_dpll_stats(CHAIN)
    assert model == frozenset(range(1, 3000, 2))
    assert work == 1500  # one decision per clause, no propagation


def test_dpll_counts_a_nine_literal_clause_down_to_its_unit():
    # Eight unit clauses falsify eight literals of one clause; its count
    # goes 9 -> 1 through every bit of a four-plane counter.
    f = cnf([(-v,) for v in range(1, 9)] + [tuple(range(1, 10))])
    assert solve_dpll_stats(f) == reference_dpll(f) == (frozenset({9}), 9)
    g = cnf([(-v,) for v in range(1, 10)] + [tuple(range(1, 10))])
    assert solve_dpll_stats(g) == reference_dpll(g) == (None, 9)


def test_dpll_counts_a_literal_repeated_in_a_raw_clause_once():
    # CnfFormula itself does not canonicalize, so a clause may repeat a literal.
    raw = CnfFormula(frozenset({1, 2}), frozenset({(1, 1, 2), (-1,), (-2,)}))
    assert solve_dpll(raw) is None
    raw = CnfFormula(frozenset({1, 2}), frozenset({(1, 1, 2), (-1,)}))
    assert solve_dpll(raw) == frozenset({2})


# Every sign pattern of four variables: unsatisfiable, refuted in 22 steps.
EVERY_SIGN = cnf([tuple(s * v for s, v in zip(signs, (1, 2, 3, 4)))
                  for signs in product((1, -1), repeat=4)])


def test_dpll_runs_up_to_its_step_cap(monkeypatch):
    work = solve_dpll_stats(EVERY_SIGN)[1]
    assert work == 22
    monkeypatch.setattr(solvers, "DPLL_SEARCH_BUDGET", work)
    assert solve_dpll_stats(EVERY_SIGN) == (None, work)


def test_dpll_raises_past_its_step_cap(monkeypatch):
    work = solve_dpll_stats(EVERY_SIGN)[1]
    monkeypatch.setattr(solvers, "DPLL_SEARCH_BUDGET", work - 1)
    with pytest.raises(SearchBudgetError,
                       match=f"^more than {work - 1} DPLL decisions and propagations made$"):
        solve_dpll_stats(EVERY_SIGN)


def test_dpll_refuses_a_formula_past_its_budget_before_building_masks():
    # 8,193 implications over 8,194 variables: 67,133,442 > 2^26.
    f = cnf([(-i, i + 1) for i in range(1, 8194)])
    assert len(f.alphabet) * len(f.clauses) > DPLL_BUDGET
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="8194 variables times 8193 clauses"
                           " exceed the DPLL budget of 67108864"):
            solve_dpll_stats(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20  # building the masks would peak near 17 MiB


def test_dpll_budget_is_mentioned_variables_times_clauses(monkeypatch):
    # Two mentioned variables and three clauses; x9 is declared but unmentioned.
    raw = [(1,), (1, 2), (-2,)]
    monkeypatch.setattr("reoptlab.cnf.DPLL_BUDGET", 6)
    assert solve_dpll_stats(cnf(raw, alphabet={1, 2, 9})) == (frozenset({1}), 2)
    monkeypatch.setattr("reoptlab.cnf.DPLL_BUDGET", 5)
    with pytest.raises(BudgetExceededError,
                       match="2 variables times 3 clauses exceed the DPLL budget of 5"):
        solve_dpll_stats(cnf(raw, alphabet={1, 2, 9}))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(LITERALS, max_size=4), max_size=8),
       st.sets(st.sampled_from(VARIABLE_IDS), max_size=4), st.data())
def test_dpll_refuses_exactly_past_mentioned_variables_times_clauses(raw, unmentioned, data):
    # The alphabet may hold unmentioned variables, so the budget is drawn
    # around the span from mentioned to alphabet variables times clauses:
    # there the alphabet product can exceed it while the mentioned one does not.
    alphabet = {abs(lit) for cl in raw for lit in cl} | unmentioned
    f = cnf(raw, alphabet=alphabet)
    product = len({abs(lit) for cl in f.clauses for lit in cl}) * len(f.clauses)
    budget = data.draw(st.integers(max(0, product - 3), len(f.alphabet) * len(f.clauses) + 3))
    with patch("reoptlab.cnf.DPLL_BUDGET", budget):
        f = cnf(raw, alphabet=alphabet)
        if product > budget:
            with pytest.raises(BudgetExceededError, match=f"variables times {len(f.clauses)} clauses"
                                                          f" exceed the DPLL budget of {budget}"):
                solve_dpll_stats(f)
        else:
            assert solve_dpll_stats(f) == reference_dpll(f)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.lists(LITERALS, max_size=9), max_size=40),
       st.sets(st.sampled_from(VARIABLE_IDS), max_size=3))
def test_dpll_matches_recursive_reference_on_generated_formulas(raw, unmentioned):
    # Raw clauses may be empty, tautological or unit, and the alphabet may
    # hold variables no clause mentions.
    f = cnf(raw, alphabet={abs(lit) for cl in raw for lit in cl} | unmentioned)
    assert solve_dpll_stats(f) == reference_dpll(f)


def test_dpll_matches_recursive_reference_on_planted_additions():
    for f in planted_sweep():
        assert solve_dpll_stats(f) == reference_dpll(f)


def test_dpll_matches_recursive_reference_under_candidate_edits():
    # A 10-variable, 40-clause base under every subset of at most two of
    # six candidate edits: three deletions and three fresh additions.
    rng = random.Random(14)
    for _ in range(6):
        base = random_3cnf(rng, 10, 40)
        deletions = rng.sample(sorted(base.clauses), 3)
        additions = []
        while len(additions) < 3:
            cl = random_3clause(rng, 10)
            if cl not in base.clauses and cl not in additions:
                additions.append(cl)
        candidates = [ChangeSet(deletions=(cl,)) for cl in deletions]
        candidates += [ChangeSet(additions=(cl,)) for cl in additions]
        for size in range(3):
            for combo in combinations(candidates, size):
                changes = ChangeSet(additions=tuple(a for c in combo for a in c.additions),
                                    deletions=tuple(d for c in combo for d in c.deletions))
                f = apply_changes(base, changes)
                assert solve_dpll_stats(f) == reference_dpll(f)
