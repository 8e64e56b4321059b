import random
import tracemalloc
from itertools import combinations

import pytest

from reoptlab import enumeration
from reoptlab.cnf import is_tautology
from reoptlab.errors import BudgetExceededError
from reoptlab.enumeration import (
    SATISFIABLE_ATTEMPTS,
    all_clauses,
    iter_small_formulas,
    random_formula,
    random_graph,
    random_hint_setup,
    random_plansat_instance,
    random_satisfiable_formula,
)
from reoptlab.graphs import graph


def test_clause_pool_size():
    pool = all_clauses(range(1, 4))
    # 6 unit + 12 binary + 8 ternary clauses over three variables
    assert len(pool) == 26
    assert len(set(pool)) == 26
    assert not any(is_tautology(cl) for cl in pool)


def test_small_formula_enumeration_count():
    formulas = list(iter_small_formulas(3, 3))
    # choose up to 3 clauses out of 26: 1 + 26 + 325 + 2600
    assert len(formulas) == 2952
    assert all({abs(lit) for cl in f.clauses for lit in cl} == f.alphabet for f in formulas)


def test_random_formula_is_seed_deterministic():
    a = random_formula(random.Random(1), 4, 5)
    b = random_formula(random.Random(1), 4, 5)
    c = random_formula(random.Random(2), 4, 5)
    assert a == b
    assert a != c
    assert a.alphabet == frozenset({1, 2, 3, 4})


def test_random_satisfiable_formula_gives_up_after_its_attempts(monkeypatch):
    solved = []
    real = enumeration.solve_dpll
    monkeypatch.setattr(enumeration, "solve_dpll", lambda f: solved.append(f) or real(f))
    # One variable and two unit clauses: only {1, -1}, which is unsatisfiable.
    with pytest.raises(ValueError, match=f"in {SATISFIABLE_ATTEMPTS} attempts"):
        random_satisfiable_formula(random.Random(0), 1, 2, 1)
    assert len(solved) == SATISFIABLE_ATTEMPTS


def test_random_satisfiable_formula_shares_the_construction_budget(monkeypatch):
    solved = []
    real = enumeration.solve_dpll
    monkeypatch.setattr(enumeration, "solve_dpll", lambda f: solved.append(f) or real(f))
    # Two unit clauses over one variable fill 2 literal slots per attempt.
    monkeypatch.setattr(enumeration, "CONSTRUCTION_BUDGET", 7)
    with pytest.raises(ValueError, match="in 3 attempts$"):
        random_satisfiable_formula(random.Random(0), 1, 2, 1)
    assert len(solved) == 3
    monkeypatch.setattr(enumeration, "CONSTRUCTION_BUDGET", 3)
    with pytest.raises(ValueError, match="in 1 attempt$"):
        random_satisfiable_formula(random.Random(0), 1, 2, 1)
    assert len(solved) == 4
    # No clauses fill no slots, and the first attempt finds the empty formula.
    f, _ = random_satisfiable_formula(random.Random(0), 2, 0)
    assert not f.clauses and len(solved) == 5


def test_random_graph_is_seed_deterministic():
    a = random_graph(random.Random(1), 8, 10)
    b = random_graph(random.Random(1), 8, 10)
    assert a == b
    assert len(a.edges) == 10


def _random_graph_from_listed_pairs(rng, num_nodes, num_edges):
    labels = [f"v{i:02d}" for i in range(1, num_nodes + 1)]
    pairs = list(combinations(labels, 2))
    return graph(labels, rng.sample(pairs, min(num_edges, len(pairs))))


def test_random_graph_draws_the_pairs_a_listed_draw_would():
    for seed in range(200):
        rng = random.Random(seed)
        num_nodes = rng.randint(0, 30)
        num_edges = rng.randint(0, num_nodes * (num_nodes - 1) // 2 + 2)
        expected = _random_graph_from_listed_pairs(random.Random(seed), num_nodes, num_edges)
        assert random_graph(random.Random(seed), num_nodes, num_edges) == expected


def test_random_graph_does_not_list_every_node_pair():
    tracemalloc.start()
    try:
        g = random_graph(random.Random(0), 2000, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(g.nodes) == 2000 and len(g.edges) == 1
    assert peak < 5 * 2**20


def test_random_graph_checks_the_construction_budget(monkeypatch):
    monkeypatch.setattr(enumeration, "CONSTRUCTION_BUDGET", 18)
    assert len(random_graph(random.Random(0), 8, 10).edges) == 10
    monkeypatch.setattr(enumeration, "CONSTRUCTION_BUDGET", 17)
    with pytest.raises(BudgetExceededError,
                       match="8 nodes and 10 edges exceed the construction budget of 17"):
        random_graph(random.Random(0), 8, 10)


def test_random_formula_checks_the_construction_budget(monkeypatch):
    # Five clauses of up to min(3, 4) = 3 literals are 15 literal slots.
    monkeypatch.setattr(enumeration, "CONSTRUCTION_BUDGET", 15)
    assert len(random_formula(random.Random(0), 4, 5).clauses) == 5
    monkeypatch.setattr(enumeration, "CONSTRUCTION_BUDGET", 14)
    with pytest.raises(BudgetExceededError,
                       match="5 clauses of up to 3 literals exceed the construction budget of 14"):
        random_formula(random.Random(0), 4, 5)
    # The clause size is capped by the variables: two of them leave 10 slots.
    assert len(random_formula(random.Random(0), 2, 5).clauses) == 5


def test_random_plansat_instance_is_add_only():
    rng = random.Random(9)
    for _ in range(20):
        inst = random_plansat_instance(rng, 6, 6)
        assert all(not op.neg_post for op in inst.operators.values())
        assert inst.initial <= inst.conditions


def _list_based_plansat_draw(rng, num_conditions, num_operators):
    # Reference: the generator's draw, written over lists of condition names.
    conditions = [f"p{i}" for i in range(1, num_conditions + 1)]

    def subset(pool, max_size):
        return rng.sample(pool, rng.randint(0, min(max_size, len(pool))))

    drawn = []
    for _ in range(num_operators):
        pos_pre = subset(conditions, 2)
        neg_pre = subset([c for c in conditions if c not in pos_pre], 1)
        pos_post = rng.sample(conditions, rng.randint(1, min(2, num_conditions)))
        drawn.append((frozenset(pos_pre), frozenset(neg_pre), frozenset(pos_post)))
    initial = subset(conditions, max(1, num_conditions // 2))
    goal_true = subset(conditions, 2)
    goal_false = subset([c for c in conditions if c not in goal_true], 1)
    return drawn, frozenset(initial), frozenset(goal_true), frozenset(goal_false)


@pytest.mark.parametrize("num_conditions, num_operators",
                         [(0, 0), (1, 0), (1, 3), (2, 5), (3, 3), (6, 6), (22, 40), (50, 200)])
def test_random_plansat_instance_draws_as_over_condition_lists(num_conditions, num_operators):
    for seed in range(5):
        inst = random_plansat_instance(random.Random(seed), num_conditions, num_operators)
        drawn, initial, goal_true, goal_false = _list_based_plansat_draw(
            random.Random(seed), num_conditions, num_operators)
        assert [(op.pos_pre, op.neg_pre, op.pos_post)
                for op in inst.operators.values()] == drawn
        goal = inst.goal
        assert (inst.initial, goal.must_true, goal.must_false) == (initial, goal_true, goal_false)


def test_random_plansat_instance_checks_the_construction_budget(monkeypatch):
    monkeypatch.setattr(enumeration, "CONSTRUCTION_BUDGET", 9)
    assert len(random_plansat_instance(random.Random(0), 4, 5).operators) == 5
    monkeypatch.setattr(enumeration, "CONSTRUCTION_BUDGET", 8)
    with pytest.raises(BudgetExceededError,
                       match="4 conditions and 5 operators exceed the construction budget of 8"):
        random_plansat_instance(random.Random(0), 4, 5)


def test_random_hint_setup_candidates_are_compatible():
    rng = random.Random(4)
    for _ in range(20):
        base, candidates = random_hint_setup(rng, 3, 3, 4)
        assert len(set(candidates)) == len(candidates)
        adds = {c.clause for c in candidates if c.op == "add"}
        dels = {c.clause for c in candidates if c.op == "del"}
        assert not adds & dels
        assert dels <= base.clauses
