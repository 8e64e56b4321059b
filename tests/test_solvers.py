import random
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reoptlab import solvers
from reoptlab.cnf import ChangeSet, CnfFormula, apply_changes, clause, cnf, evaluate
from reoptlab.enumeration import iter_small_formulas, random_formula
from reoptlab.reductions import reduce_unique_model
from reoptlab.solvers import (
    DPLL_BUDGET,
    DpllBudgetError,
    OracleLimitError,
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
    # Pure 3-CNF sources of 12 variables and 51 clauses, the size the
    # benchmark swaps: the unique-model formula and its swapped form.
    rng = random.Random(12)
    for _ in range(40):
        inst = reduce_unique_model(random_3cnf(rng, 12, 51))
        swap = ChangeSet(additions=(inst.add_clause,), deletions=(inst.del_clause,))
        swapped = apply_changes(inst.formula, swap)
        for f in (inst.formula, swapped):
            model, work = solve_dpll_stats(f)
            assert (model, work) == reference_dpll(f)
            assert model is None or evaluate(f, model)


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


def test_dpll_refuses_a_formula_past_its_budget_before_building_masks():
    # 8,193 implications over 8,194 variables: 67,133,442 > 2^26.
    f = cnf([(-i, i + 1) for i in range(1, 8194)])
    assert len(f.alphabet) * len(f.clauses) > DPLL_BUDGET
    tracemalloc.start()
    try:
        with pytest.raises(DpllBudgetError):
            solve_dpll_stats(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20  # building the masks would peak near 17 MiB


def test_dpll_budget_is_mentioned_variables_times_clauses(monkeypatch):
    # Two mentioned variables and three clauses; x9 is declared but unmentioned.
    f = cnf([(1,), (1, 2), (-2,)], alphabet={1, 2, 9})
    monkeypatch.setattr(solvers, "DPLL_BUDGET", 6)
    assert solve_dpll_stats(f) == (frozenset({1}), 2)
    monkeypatch.setattr(solvers, "DPLL_BUDGET", 5)
    with pytest.raises(DpllBudgetError):
        solve_dpll_stats(f)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.lists(LITERALS, max_size=9), max_size=40),
       st.sets(st.sampled_from(VARIABLE_IDS), max_size=3))
def test_dpll_matches_recursive_reference_on_generated_formulas(raw, unmentioned):
    # Raw clauses may be empty, tautological or unit, and the alphabet may
    # hold variables no clause mentions.
    f = cnf(raw, alphabet={abs(lit) for cl in raw for lit in cl} | unmentioned)
    assert solve_dpll_stats(f) == reference_dpll(f)


def test_dpll_matches_recursive_reference_on_planted_additions():
    # A planted 30-variable, 126-clause 3-CNF plus one random added clause.
    rng = random.Random(13)
    for _ in range(20):
        model = {v for v in range(1, 31) if rng.random() < 0.5}
        base = random_3cnf(rng, 30, 126, model)
        f = apply_changes(base, ChangeSet(additions=(random_3clause(rng, 30),)))
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
