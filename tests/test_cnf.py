import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reoptlab.cnf import (
    ChangeSet,
    CnfFormula,
    apply_changes,
    clause,
    clause_sort_key,
    cnf,
    cross_disjoin,
    disjoin_literal,
    evaluate,
    is_tautology,
)
from reoptlab.enumeration import all_clauses

from oracles import brute_models, clause_true, truth_assignments

# Gapped and large ids; the assignment may also hold ids outside the alphabet.
VARIABLE_IDS = (1, 2, 3, 5, 8, 40, 10**9)
OUTSIDE_IDS = (4, 7, 10**9 - 1, 10**9 + 1)
LITERALS = st.builds(lambda v, sign: sign * v,
                     st.sampled_from(VARIABLE_IDS), st.sampled_from((1, -1)))


def test_clause_canonical_form():
    assert clause(2, -1, 2) == (-1, 2)
    assert clause(1, -1) == (1, -1)  # positive polarity sorts first
    assert clause() == ()
    assert clause(3, 1, -2) == (1, -2, 3)


def _pair_key(cl):
    # The clause order spelled as (variable, 0 if positive else 1) pairs.
    return tuple((abs(lit), 0 if lit > 0 else 1) for lit in cl)


def test_clause_sort_key_orders_like_literal_pairs():
    rng = random.Random(5)
    clauses = all_clauses(range(1, 5), 1, 3)
    for _ in range(3000):
        size = rng.randrange(6)
        variables = [rng.choice((1, 2, 3, rng.randrange(1, 10**12))) for _ in range(size)]
        clauses.append(clause(*(v * rng.choice((1, -1)) for v in variables)))
    rng.shuffle(clauses)
    assert sorted(clauses, key=clause_sort_key) == sorted(clauses, key=_pair_key)
    for cl in clauses:
        assert list(cl) == sorted(set(cl), key=lambda lit: _pair_key((lit,)))


def test_clause_rejects_zero():
    with pytest.raises(ValueError):
        clause(1, 0)


def test_tautology_detection():
    assert is_tautology(clause(1, -1, 2))
    assert not is_tautology(clause(1, 2))


def test_cnf_alphabet_defaults_to_mentioned():
    f = cnf([(1, 2), (-1,)])
    assert f.alphabet == frozenset({1, 2})
    assert {abs(lit) for cl in f.clauses for lit in cl} == {1, 2}


def test_cnf_declared_alphabet_may_be_larger():
    f = cnf([(1,)], alphabet={1, 2, 3})
    assert f.alphabet == frozenset({1, 2, 3})
    assert {abs(lit) for cl in f.clauses for lit in cl} == {1}


def test_cnf_rejects_clause_outside_alphabet():
    with pytest.raises(ValueError):
        cnf([(1, 4)], alphabet={1, 2})


def test_cnf_rejects_nonpositive_variable_ids():
    with pytest.raises(ValueError):
        CnfFormula(frozenset({0}), frozenset())


def test_evaluate_empty_formula_is_true():
    assert evaluate(cnf(), frozenset())


def test_evaluate_contradiction_pair():
    assert not evaluate(cnf([(1,), (-1,)]), frozenset({1}))


def test_evaluate_disjoined_guard():
    # a model setting only the guard satisfies the guarded formula
    f = cnf([(2, 1), (2, -1)])
    assert evaluate(f, frozenset({2}))


def test_evaluate_empty_clause_is_false():
    assert not evaluate(cnf([()]), frozenset())


def test_evaluate_matches_truth_table_oracle():
    f = cnf([(1, -2), (2, 3), (-1, -3)])
    for assignment in truth_assignments(f.alphabet):
        expected = all(
            any((lit > 0) == (abs(lit) in assignment) for lit in cl) for cl in f.clauses
        )
        assert evaluate(f, assignment) == expected


@settings(max_examples=400, deadline=None)
@given(st.lists(st.lists(LITERALS, max_size=4), max_size=12),
       st.sets(st.sampled_from(VARIABLE_IDS), max_size=3),
       st.sets(st.sampled_from(VARIABLE_IDS + OUTSIDE_IDS)))
@example([], [], [])
@example([[]], [], [1])
@example([[1, -1]], [], [])
@example([[1, -1], []], [2], [1, 10**9 + 1])
def test_evaluate_matches_clause_oracle(raw, unmentioned, assignment):
    # Raw clauses may be empty, tautological or unit; the alphabet may hold
    # variables no clause mentions, and the assignment variables outside it.
    f = cnf(raw, alphabet={abs(lit) for cl in raw for lit in cl} | set(unmentioned))
    expected = all(clause_true(cl, assignment) for cl in f.clauses)
    assert evaluate(f, assignment) == expected
    assert evaluate(f, frozenset(assignment)) == expected


def test_apply_changes_swap():
    f = cnf([(1,)])
    out = apply_changes(f, ChangeSet(additions=((-1,),), deletions=((1,),)))
    assert out.clauses == frozenset({(-1,)})


def test_apply_changes_identity():
    f = cnf([(1, 2)])
    assert apply_changes(f, ChangeSet()) == f


def test_apply_changes_addition_is_idempotent():
    out = apply_changes(cnf(), ChangeSet(additions=((1,), (1,))))
    assert out.clauses == frozenset({(1,)})


def test_apply_changes_missing_deletion_warns_but_succeeds():
    f = cnf([(1,)])
    with pytest.warns(UserWarning):
        out = apply_changes(f, ChangeSet(deletions=((2,),)))
    assert out.clauses == f.clauses


def test_apply_changes_extends_alphabet_with_added_variables():
    out = apply_changes(cnf([(1,)]), ChangeSet(additions=((2,),)))
    assert out.alphabet == frozenset({1, 2})


def test_changeset_rejects_clause_on_both_sides():
    with pytest.raises(ValueError):
        ChangeSet(additions=((1, 2),), deletions=((2, 1),))


def test_add_then_delete_round_trip():
    f = cnf([(1, 2)], alphabet={1, 2})
    added = apply_changes(f, ChangeSet(additions=((-1,),)))
    back = apply_changes(added, ChangeSet(deletions=((-1,),)))
    assert back == f  # the added clause stayed inside the alphabet


def test_disjoin_literal():
    assert disjoin_literal(cnf([(1,)]), 2).clauses == frozenset({(1, 2)})
    assert disjoin_literal(cnf(), 2).clauses == frozenset()
    out = disjoin_literal(cnf([(1,), (-1,)]), 2)
    assert out.clauses == frozenset({(1, 2), (-1, 2)})


def test_disjoin_literal_extends_alphabet_even_without_clauses():
    assert disjoin_literal(cnf(), 5).alphabet == frozenset({5})


def test_disjoin_literal_satisfied_whenever_literal_true():
    f = cnf([(1, -2), (2, 3), (-1,)])
    guarded = disjoin_literal(f, 4)
    for assignment in truth_assignments(guarded.alphabet):
        if 4 in assignment:
            assert evaluate(guarded, assignment)


def test_cross_disjoin():
    assert cross_disjoin(cnf([(1,)]), cnf([(-2,)])).clauses == frozenset({(1, -2)})
    out = cross_disjoin(cnf([(1,), (2,)]), cnf([(1,), (-2,)]))
    assert out.clauses == frozenset({(1,), (1, -2), (1, 2), (2, -2)})
    assert cross_disjoin(cnf(), cnf([(1,)])).clauses == frozenset()


def test_cross_disjoin_preserves_left_models():
    left = cnf([(1, 2), (-1, 3)])
    right = cnf([(-2, -3), (1,)])
    crossed = cross_disjoin(left, right)
    for model in brute_models(left.clauses, left.alphabet | right.alphabet):
        assert evaluate(crossed, model)
