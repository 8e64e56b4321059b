import copy
import dataclasses
import inspect
import pickle
import random
import tracemalloc
import warnings
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reoptlab.cnf import (
    ChangeSet,
    CnfFormula,
    apply_changes,
    clause,
    clause_sort_key,
    clauses_true,
    cnf,
    evaluate,
    is_tautology,
    resolve_changes,
)
from reoptlab.dimacs import parse_dimacs, serialize_dimacs
from reoptlab.enumeration import all_clauses, random_hint_setup
from reoptlab.errors import DPLL_BUDGET, BudgetExceededError
from reoptlab.gadgets import (
    build_gadget,
    gadget_add_unit,
    gadget_from_json,
    gadget_remove_unit,
    gadget_to_json,
)
from reoptlab.hints import compile_table, table_from_json, table_to_json
from reoptlab.reductions import reduce_unique_model
from reoptlab.solvers import solve_dpll, solve_dpll_stats
from reoptlab.verification import gadget_cases

from oracles import clause_true, reference_dpll, truth_assignments

# Gapped and large ids; the assignment may also hold ids outside the alphabet.
VARIABLE_IDS = (1, 2, 3, 5, 8, 40, 10**9)
OUTSIDE_IDS = (4, 7, 10**9 - 1, 10**9 + 1)
LITERALS = st.builds(lambda v, sign: sign * v,
                     st.sampled_from(VARIABLE_IDS), st.sampled_from((1, -1)))
# Literals over the ids above plus some new to a formula, for added clauses.
LITERAL_POOL = [sign * v for v in VARIABLE_IDS + (4, 7) for sign in (1, -1)]


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


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(LITERALS, max_size=4), max_size=10),
       st.sets(st.sampled_from(VARIABLE_IDS), max_size=3),
       st.lists(st.integers(0, 20), max_size=3),
       st.lists(st.lists(st.sampled_from(LITERAL_POOL), max_size=3), max_size=12),
       st.sets(st.sampled_from(VARIABLE_IDS + OUTSIDE_IDS)),
       st.sampled_from((0, 12, DPLL_BUDGET)))
@example([], [], [], [], [], DPLL_BUDGET)
@example([[]], [], [], [], [1], 0)  # no mentioned variable, so masks even at budget 0
@example([[1], [2, -3]], [], [0], [[4], [-5], [1, 5], [], [8], [3]], [2, 4], DPLL_BUDGET)
@example([[1, 2], [-40]], [5], [], [[-1, 2]], [10**9 + 1], 0)
def test_mask_evaluate_equals_clauses_true(raw, unmentioned, deleted_picks, added, assignment, budget):
    # Built directly, with unmentioned variables, and changed by
    # ``apply_changes``: one addition is spliced into the parent's masks,
    # many rebuild them.  Under a small budget most formulas carry no
    # masks, and exactly those must take the ``clauses_true`` fallback.
    with patch("reoptlab.cnf.DPLL_BUDGET", budget):
        f = cnf(raw, alphabet={abs(lit) for cl in raw for lit in cl} | set(unmentioned))
        present = sorted(f.clauses)
        deletions = tuple({present[i % len(present)] for i in deleted_picks if present})
        additions = tuple(cl for cl in (clause(*c) for c in added) if cl not in deletions)
        paths = [f, apply_changes(f, ChangeSet(additions=additions[:1])),
                 apply_changes(f, ChangeSet(additions=additions, deletions=deletions))]
    for g in paths:
        expected = all(clause_true(cl, assignment) for cl in g.clauses)
        with patch("reoptlab.cnf.clauses_true", wraps=clauses_true) as fallback:
            assert evaluate(g, assignment) == expected
            assert evaluate(g, frozenset(assignment)) == expected
        assert fallback.call_count == (2 if g.occ is None else 0)
        assert clauses_true(g.alphabet, g.clauses, assignment) == expected


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


def test_resolve_changes_keeps_present_deletions_and_new_additions():
    f = cnf([(1,), (1, 2), (-3,)])
    changes = ChangeSet(additions=((2,), (1, 2), (2,)), deletions=((1,), (5,), (1,), (-3,)))
    with pytest.warns(UserWarning) as caught:
        assert resolve_changes(f, changes) == ({(1,), (-3,)}, {(2,)})
    assert [str(w.message) for w in caught] == ["deleted clause not present: (5,)",
                                                "deleted clause not present: (1,)"]


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



def _masks(ordered):
    # Each literal's clause mask over ``ordered``, built from scratch.
    return {lit: sum(1 << i for i, cl in enumerate(ordered) if lit in cl)
            for lit in {lit for cl in ordered for lit in cl}}


def _carries_its_order(f):
    # The order and, built from it, the literal masks.
    assert f.ordered == tuple(sorted(f.clauses))
    assert f.occ == _masks(f.ordered)
    return f


def test_clause_order_takes_no_part_in_equality_hash_or_repr():
    assert list(inspect.signature(CnfFormula).parameters) == ["alphabet", "clauses"]
    f = cnf([(1, 2), (-1,)])
    g = cnf([(-1,), (2, 1)])
    object.__setattr__(g, "ordered", ())
    object.__setattr__(g, "occ", None)
    assert f == g and hash(f) == hash(g) and repr(f) == repr(g)
    assert "ordered" not in repr(f) and "occ" not in repr(f)


RAW_CLAUSES = st.lists(st.lists(LITERALS, max_size=4), max_size=10)


@settings(max_examples=300, deadline=None)
@given(RAW_CLAUSES, st.lists(st.integers(0, 20), max_size=4), RAW_CLAUSES,
       st.lists(st.integers(0, 20), max_size=3), RAW_CLAUSES)
@example([[1, 1, 2], [-1]], [1, 1], [[3]], [0, 0], [[2, 1], [2, 1]])
@example([], [], [[1]], [], [[1, 5], []])
def test_formulas_and_their_changes_carry_their_clause_order(
        raw, deleted_picks, deleted_extra, added_picks, added_extra):
    # Deletions pick present clauses, possibly twice, plus arbitrary ones,
    # which may be absent; additions repeat, pick present clauses and may
    # bring in variables the base does not know.  A change set holds
    # canonical clauses, so a raw clause such as (1, 1, 2) is absent.
    built = _carries_its_order(cnf(raw))
    direct = _carries_its_order(CnfFormula(built.alphabet, frozenset(map(tuple, raw))))
    for f in (built, direct):
        present = sorted(f.clauses)
        deletions = [clause(*c) for c in deleted_extra]
        deletions += [clause(*present[i % len(present)]) for i in deleted_picks if present]
        additions = [clause(*c) for c in added_extra]
        additions += [clause(*present[i % len(present)]) for i in added_picks if present]
        additions = [cl for cl in additions if cl not in deletions]
        changes = ChangeSet(additions=tuple(additions), deletions=tuple(deletions))
        remaining, absent = set(f.clauses), 0
        for cl in deletions:
            if cl in remaining:
                remaining.remove(cl)
            else:
                absent += 1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            changed = _carries_its_order(apply_changes(f, changes))
        assert [w.category for w in caught] == [UserWarning] * absent
        assert changed.clauses == remaining | set(additions)
        assert changed.alphabet == f.alphabet | {abs(lit) for cl in additions for lit in cl}
        assert changed == CnfFormula(changed.alphabet, changed.clauses)
        _carries_its_order(apply_changes(changed, ChangeSet(additions=tuple(deletions))))


SMALL_LITERALS = st.builds(lambda v, sign: sign * v, st.integers(1, 4), st.sampled_from((1, -1)))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(SMALL_LITERALS, min_size=1, max_size=3), max_size=8),
       st.integers(0, 2**32))
@example([[2, 1, 2], [1, 2], [-3]], 0)
def test_loaders_and_constructions_carry_their_clause_order(raw, seed):
    # DIMACS text as written: literals out of order, repeated, and
    # repeated clauses.
    text = f"p cnf 4 {len(raw)}\n" + "".join(f"{' '.join(map(str, c))} 0\n" for c in raw)
    parsed = _carries_its_order(parse_dimacs(text))
    assert parsed == cnf(raw, alphabet=range(1, 5))
    _carries_its_order(reduce_unique_model(parsed).formula)
    source = cnf([c for c in parsed.clauses if not is_tautology(c)])
    loaded = gadget_from_json(gadget_to_json(build_gadget(source)))
    _carries_its_order(loaded.source)
    base, candidates = random_hint_setup(random.Random(seed))
    table = table_from_json(table_to_json(compile_table(base, candidates, 2)))
    _carries_its_order(table.base)


def test_every_construction_path_carries_the_masks_a_fresh_build_makes():
    # A raw clause repeating a literal, and the empty clause, which holds no bit.
    direct = CnfFormula(frozenset({1, 2, 3}), frozenset({(1, 1, 2), (-1,), (2, -3), ()}))
    assert direct.occ == {1: 0b100, 2: 0b1100, -1: 0b10, -3: 0b1000}
    paths = [
        direct,
        cnf([(2, 1), (-1,), (-3, 2)]),
        parse_dimacs("p cnf 4 3\n2 -1 2 0\n3 0\n-4 1 0\n"),
        apply_changes(direct, ChangeSet(additions=((3,), (1, 4)), deletions=((-1,),))),
        reduce_unique_model(cnf([(1, 2), (-1,)])).formula,
        dataclasses.replace(direct, clauses=direct.clauses | {(3,)}),
        copy.deepcopy(direct),
        pickle.loads(pickle.dumps(direct)),
        gadget_add_unit(build_gadget(cnf([(1, 2), (-1,)])), 2).source,
        gadget_remove_unit(build_gadget(cnf([(1, 2), (-1,)])), -1).source,
    ]
    # Every gadget unit edit's source, and the target it encodes.
    for _, tag, gadget, target in gadget_cases(2, 2, 20):
        if tag is not None:
            paths += [gadget.source, target]
    for f in paths:
        _carries_its_order(f)
    assert dataclasses.replace(direct).occ == copy.deepcopy(direct).occ == direct.occ


def test_a_formula_past_the_dpll_budget_carries_no_masks():
    units = cnf([(v,) for v in range(1, 8194)])  # 8,193 variables x 8,193 clauses > 2^26
    assert units.occ is None
    with pytest.raises(BudgetExceededError,
                       match="^8193 variables times 8193 clauses exceed the DPLL budget of 67108864$"):
        solve_dpll(units)
    # 8,192 mentioned variables x 8,192 clauses is the budget itself, though
    # the alphabet keeps all 8,193: the child builds the masks its parent lacks.
    child = apply_changes(units, ChangeSet(deletions=((8193,),)))
    assert child.occ == {v: 1 << (v - 1) for v in range(1, 8193)}
    assert solve_dpll(child) == frozenset(range(1, 8193))


def test_a_stray_variable_is_refused_before_the_masks_grow():
    # (1, v) for v in 2..20001 over the alphabet {1}: the masks of the
    # 20,000 stray literals, built first, would hold about 200 million bits.
    clauses = frozenset((1, v) for v in range(2, 20002))
    expected = f"clause variables outside the alphabet: {list(range(2, 20002))}"
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as refused:
            CnfFormula(frozenset({1}), clauses)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(refused.value) == expected
    assert peak < 8 << 20


def test_every_stray_variable_is_named_on_each_side_of_the_budget():
    clauses = frozenset({(1, -7), (2,), (-5, 9)})
    message = r"^clause variables outside the alphabet: \[5, 7, 9\]$"
    for budget in (0, 5, 9, 10**6):  # mask-free past the alphabet budget, or not
        with patch("reoptlab.cnf.DPLL_BUDGET", budget), pytest.raises(ValueError, match=message):
            CnfFormula(frozenset({1, 2}), clauses)
    with pytest.raises(ValueError, match="^variable ids must be >= 1$"):
        CnfFormula(frozenset({0, 1}), frozenset({(3,)}))


GADGET_CLAUSES = st.lists(st.lists(SMALL_LITERALS, min_size=1, max_size=3), max_size=6)


@settings(max_examples=150, deadline=None)
@given(GADGET_CLAUSES, GADGET_CLAUSES, st.integers(0, 40))
@example([[1], [2]], [[3, 4], [-1, 2]], 4)  # 2 x 2 within, 4 x 4 past, and back
@example([[1, 2], [-2, 3], [4]], [[1, -3]], 12)  # 4 x 3 within, 4 x 4 past
def test_masks_are_absent_exactly_when_dpll_refuses(raw, added, budget):
    # Each construction path, built under a drawn budget: a formula carries
    # no masks iff its mentioned variables times clauses exceed the budget,
    # and exactly then DPLL refuses it.  The changed formulas cross the
    # budget both ways: additions can carry a child past it, and deleting
    # them again brings the grandchild back within it.
    with patch("reoptlab.cnf.DPLL_BUDGET", budget):
        f = cnf(raw)
        grown = apply_changes(f, ChangeSet(additions=tuple(map(tuple, added))))
        new = tuple(grown.clauses - f.clauses)
        paths = [
            f,
            CnfFormula(frozenset(range(1, 6)), f.clauses),
            parse_dimacs(serialize_dimacs(f)),
            grown,
            apply_changes(grown, ChangeSet(deletions=new)),
            dataclasses.replace(f),
            pickle.loads(pickle.dumps(grown)),
            reduce_unique_model(f).formula,
        ]
        source = cnf([cl for cl in f.clauses if not is_tautology(cl)], alphabet=range(1, 5))
        gadget = build_gadget(source)
        for lit in (1, -2):
            edit = gadget_remove_unit if (lit,) in source.clauses else gadget_add_unit
            paths.append(edit(gadget, lit).source)
        for g in paths:
            mentioned = len({abs(lit) for cl in g.clauses for lit in cl})
            assert (g.occ is None) == (mentioned * len(g.clauses) > budget)
            if g.occ is None:
                with pytest.raises(BudgetExceededError, match=f"^{mentioned} variables times "
                                   f"{len(g.clauses)} clauses exceed the DPLL budget of {budget}$"):
                    solve_dpll_stats(g)
            else:
                _carries_its_order(g)
                assert solve_dpll_stats(g) == reference_dpll(g)


# Every clause over 1..3 (at most six literal keys, so most single changes
# are spliced), and added clauses that bring in new variables or are empty.
DENSE_POOL = all_clauses(range(1, 4), 1, 3)
ADDED_POOL = DENSE_POOL + [(), (4,), clause(1, -4), clause(-7, 2), (10**9,)]
CHANGE_STEPS = st.lists(st.tuples(
    st.lists(st.integers(0, 40), max_size=2),  # present clauses to delete
    st.lists(st.sampled_from(ADDED_POOL), max_size=1),  # deletions, maybe absent
    st.lists(st.integers(0, 40), max_size=1),  # earlier deletions added again
    st.lists(st.sampled_from(ADDED_POOL), max_size=2),  # additions
), max_size=6)


@settings(max_examples=200, deadline=None)
@given(st.sets(st.sampled_from(DENSE_POOL), min_size=12), CHANGE_STEPS)
@example({(1,), (1, 2), (-2, 3)}, [([0], [(4,)], [], [()]), ([], [], [0], [(10**9,)]),
                                   ([0, 0], [], [], [(1, 2)])])
# Spliced both ways: the literal 4 gains a mask, then its mask falls to 0 and goes.
@example(set(DENSE_POOL[:12]), [([], [], [], [(4,)]), ([], [(4,)], [], [])])
def test_changed_formulas_carry_the_masks_a_fresh_build_makes(base, steps):
    f = _carries_its_order(cnf(base, alphabet=range(1, 4)))
    deleted = []
    for picks, maybe_absent, again, added in steps:
        present = f.ordered
        deletions = [present[i % len(present)] for i in picks if present] + maybe_absent
        additions = [deleted[i % len(deleted)] for i in again if deleted] + added
        changes = ChangeSet(additions=tuple(cl for cl in additions if cl not in deletions),
                            deletions=tuple(deletions))
        remaining, absent = set(f.clauses), 0
        for cl in deletions:
            if cl in remaining:
                remaining.remove(cl)
            else:
                absent += 1
        if absent:
            with pytest.warns(UserWarning, match="^deleted clause not present"):
                f = apply_changes(f, changes)
        else:
            f = apply_changes(f, changes)
        deleted += deletions
        _carries_its_order(f)
        assert solve_dpll_stats(f) == reference_dpll(f)
