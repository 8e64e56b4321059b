import random

from reoptlab.cnf import is_tautology
from reoptlab.enumeration import (
    all_clauses,
    iter_small_formulas,
    random_formula,
    random_graph,
    random_hint_setup,
    random_plansat_instance,
)


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


def test_random_graph_is_seed_deterministic():
    a = random_graph(random.Random(1), 8, 10)
    b = random_graph(random.Random(1), 8, 10)
    assert a == b
    assert len(a.edges) == 10


def test_random_plansat_instance_is_add_only():
    rng = random.Random(9)
    for _ in range(20):
        inst = random_plansat_instance(rng, 6, 6)
        assert all(not op.neg_post for op in inst.operators.values())
        assert inst.initial <= inst.conditions


def test_random_hint_setup_candidates_are_compatible():
    rng = random.Random(4)
    for _ in range(20):
        base, candidates, bound = random_hint_setup(rng, 3, 3, 4, 2)
        assert len(set(candidates)) == len(candidates)
        adds = {c.clause for c in candidates if c.op == "add"}
        dels = {c.clause for c in candidates if c.op == "del"}
        assert not adds & dels
        assert dels <= base.clauses
        assert bound == 2
