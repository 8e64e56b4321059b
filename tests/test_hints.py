import dataclasses
import json
import random
import re
import warnings
from contextlib import nullcontext
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reoptlab import hints
from reoptlab.cnf import ChangeSet, apply_changes, clause, cnf, evaluate
from reoptlab.enumeration import iter_small_formulas, random_hint_setup
from reoptlab.errors import BudgetExceededError, InvalidHintError
from reoptlab.hints import (
    MISS,
    ElementaryChange,
    HintTable,
    add_change,
    compile_table,
    del_change,
    lookup,
    reuse_model,
    reuse_plan,
    subset_changes,
    table_from_json,
    table_to_json,
)
from reoptlab.reductions import reduce_fixed_model, reduce_unique_model, unique_model
from reoptlab.replanning import apply_initial_change, sat_to_replanning
from reoptlab.solvers import solve_dpll, solve_dpll_stats
from reoptlab.strips import make_instance, make_operator, validate_plan

from oracles import brute_sat


def test_elementary_change_validation():
    assert add_change(2, -1).clause == (-1, 2)
    with pytest.raises(ValueError):
        ElementaryChange("swap", (1,))


def test_a_hint_table_is_its_base_candidates_and_bound():
    assert [f.name for f in dataclasses.fields(HintTable) if f.init] == ["base", "candidates", "bound"]
    base, candidates = cnf([(1,), (1, -2)]), [add_change(2), del_change(1)]
    with pytest.raises(TypeError):
        HintTable(base, candidates, 2, {})
    table = compile_table(base, candidates, 2)
    same = HintTable(base, iter(candidates), 2)
    assert same.candidates == tuple(candidates)
    assert table == same and hash(table) == hash(same) and len({table, same}) == 1
    assert dict(table.entries) == dict(same.entries)
    assert repr(table) == f"HintTable(base={base!r}, candidates={tuple(candidates)!r}, bound=2)"
    # The entries are derived, so they take no part in equality or hash.
    object.__setattr__(same, "entries", {})
    assert table == same and hash(table) == hash(same)


def test_compile_table_single_candidate():
    table = compile_table(cnf([(1,)]), [add_change(-1)], 1)
    assert table.entries[frozenset()] == frozenset({1})
    assert table.entries[frozenset({("add", (-1,))})] is None  # recorded unsatisfiable


def test_compile_table_bound_zero():
    table = compile_table(cnf([(1,)]), [add_change(-1)], 0)
    assert set(table.entries) == {frozenset()}


def test_compile_table_conflicting_full_subset():
    base = cnf((), alphabet={1})
    table = compile_table(base, [add_change(1), add_change(-1)], 2)
    assert len(table.entries) == 4
    assert table.entries[frozenset({("add", (1,)), ("add", (-1,))})] is None
    assert table.entries[frozenset({("add", (1,))})] == frozenset({1})


def test_compile_table_rejects_bad_candidates():
    with pytest.raises(ValueError):
        compile_table(cnf(), [add_change(1), add_change(1)], 1)
    with pytest.raises(ValueError):
        compile_table(cnf([(1,)]), [add_change(1), del_change(1)], 1)


def test_compile_table_budget(monkeypatch):
    def no_solve(formula):
        raise AssertionError("the budget check must come before any solve")

    monkeypatch.setattr(hints, "solve_dpll", no_solve)
    candidates = [add_change(v) for v in range(1, 18)]  # 2**17 = 131,072 entries
    with pytest.raises(BudgetExceededError,
                       match="131072 entries exceed the table budget of 65536"):
        compile_table(cnf(), candidates, 17)


def test_miss_prints_as_its_name():
    assert repr(MISS) == "MISS"


def test_lookup_hit_miss_and_bound():
    base = cnf([(1,)])
    candidates = (add_change(-1), add_change(2))
    table = compile_table(base, candidates, 1)
    assert lookup(table, ChangeSet(additions=((2,),))) == frozenset({1, 2})
    assert lookup(table, ChangeSet(additions=((-1,),))) is None
    assert lookup(table, ChangeSet(additions=((3,),))) is MISS  # unregistered clause
    assert lookup(table, ChangeSet(additions=((-1,), (2,)))) is MISS  # above the bound
    assert lookup(table, ChangeSet(deletions=((1,),))) is MISS  # wrong change kind


def test_lookup_builds_no_changes(monkeypatch):
    # The change set's canonical pairs are the entry key as they are.
    table = compile_table(cnf([(1,), (2,)]), (add_change(-1), add_change(3, 2), del_change(1)), 2)
    stored = table.entries[frozenset({("add", (2, 3)), ("del", (1,))})]
    monkeypatch.setattr(ElementaryChange, "__post_init__",
                        lambda self: pytest.fail("lookup built an ElementaryChange"))
    assert lookup(table, ChangeSet(additions=((2, 3), (3, 2)), deletions=((1,),))) is stored
    assert lookup(table, ChangeSet(additions=((-1,),))) is None
    assert lookup(table, ChangeSet(deletions=((-1,),))) is MISS  # a candidate clause, the other op
    assert lookup(table, ChangeSet(additions=((4,),))) is MISS  # not a candidate
    assert lookup(table, ChangeSet(additions=((-1,), (2, 3)), deletions=((1,),))) is MISS  # past the bound


def test_table_completeness_sweep():
    rng = random.Random(19)
    for _ in range(20):
        sizes = rng.randint(1, 4), rng.randint(0, 4), rng.randint(0, 4)
        bound = rng.randint(0, 2)
        base, candidates = random_hint_setup(rng, *sizes)
        table = compile_table(base, candidates, bound)
        for size in range(len(candidates) + 1):
            for combo in combinations(range(len(candidates)), size):
                changes = subset_changes(candidates, combo)
                stored = lookup(table, changes)
                if size > bound:
                    assert stored is MISS
                    continue
                assert stored is table.entries[frozenset((candidates[i].op, candidates[i].clause)
                                                         for i in combo)]
                changed = apply_changes(base, changes)
                assert (stored is not None) == brute_sat(changed.clauses, changed.alphabet)
                if stored is not None:
                    assert evaluate(changed, stored)


def test_reuse_model_fast_path():
    f = cnf([(1,)])
    outcome = reuse_model(f, ChangeSet(additions=((1, 2),)), frozenset({1}))
    assert outcome.hint_used
    assert outcome.solution == frozenset({1})
    assert outcome.work_units == 2  # one pass over the two clauses


def test_reuse_model_decides_a_hit_before_building_the_changed_formula(monkeypatch):
    f = cnf([(1,), (1, 2)])
    monkeypatch.setattr(hints, "apply_changes", lambda *args: pytest.fail("built on a hit"))
    changes = ChangeSet(additions=((1, 4), (1,), (1, 4)), deletions=((1, 2), (3,), (1, 2)))
    with pytest.warns(UserWarning, match="^deleted clause not present") as caught:
        outcome = reuse_model(f, changes, {1})
    assert [str(w.message) for w in caught] == ["deleted clause not present: (3,)",
                                                "deleted clause not present: (1, 2)"]
    assert tuple(outcome) == (frozenset({1}), True, 2)  # (1,) and (1, 4)


def test_reuse_model_requires_valid_hint():
    with pytest.raises(InvalidHintError):
        reuse_model(cnf([(1,)]), ChangeSet(), frozenset())


def test_reuse_model_fixed_model_scenario():
    # the guarded construction: the remembered model dies with the change
    for g in (cnf([(1,)]), cnf([(1,), (-1,)])):
        inst = reduce_fixed_model(g)
        changes = ChangeSet(additions=(inst.change_clause,))
        outcome = reuse_model(inst.formula, changes, inst.hint_model)
        assert not outcome.hint_used
        assert (outcome.solution is not None) == brute_sat(g.clauses, g.alphabet)


def test_reuse_model_unique_model_scenario_never_reuses():
    for g in iter_small_formulas(2, 2):
        inst = reduce_unique_model(g)
        changes = ChangeSet(additions=(inst.add_clause,), deletions=(inst.del_clause,))
        outcome = reuse_model(inst.formula, changes, unique_model(inst))
        assert not outcome.hint_used
        assert (outcome.solution is not None) == brute_sat(g.clauses, g.alphabet)


def test_reuse_model_verdicts_match_cold_solver():
    rng = random.Random(29)
    from reoptlab.enumeration import random_clause, random_satisfiable_formula

    for _ in range(100):
        f, model = random_satisfiable_formula(rng, 4, 4)
        changes = ChangeSet(additions=(random_clause(rng, 4),))
        outcome = reuse_model(f, changes, model)
        cold = solve_dpll(apply_changes(f, changes))
        assert (outcome.solution is not None) == (cold is not None)
        if outcome.hint_used:
            assert evaluate(apply_changes(f, changes), outcome.solution)


LITERALS = st.builds(lambda v, sign: sign * v, st.integers(1, 6), st.sampled_from((1, -1)))


@settings(max_examples=300, deadline=None)
@given(model=st.sets(st.integers(1, 4)), raw=st.lists(st.lists(LITERALS, max_size=3), max_size=8),
       deleted=st.lists(st.integers(0, 10), max_size=3),
       added=st.lists(st.lists(LITERALS, max_size=3), max_size=3),
       stray=st.sets(st.sampled_from((5, 6, 99))))
@example(model={1}, raw=[[1, 2]], deleted=[], added=[[5]], stray={5})
@example(model={1}, raw=[[1, 2], [-2]], deleted=[0], added=[[-6], []], stray=set())
def test_reuse_model_checks_only_the_added_clauses(model, raw, deleted, added, stray):
    # Against the whole-formula check it replaces.  The base over 1..4
    # keeps the clauses its model satisfies; additions may bring in
    # variables 5 and 6, and the hint may name those or 99, which no
    # alphabet holds.
    base = [cl for cl in (clause(*c) for c in raw)
            if all(abs(lit) <= 4 for lit in cl) and any((lit > 0) == (abs(lit) in model) for lit in cl)]
    f = cnf(base, alphabet=range(1, 5))
    present = sorted(f.clauses)
    deletions = {present[i % len(present)] for i in deleted if present}
    additions = [cl for cl in (clause(*c) for c in added) if cl not in deletions]
    changes = ChangeSet(additions=tuple(additions), deletions=tuple(sorted(deletions)))
    hint = frozenset(model | stray)
    changed = apply_changes(f, changes)
    if evaluate(changed, hint):
        expected = (hint, True, len(changed.clauses))
    else:
        cold, work = solve_dpll_stats(changed)
        expected = (cold, False, work)
    assert tuple(reuse_model(f, changes, hint)) == expected


@settings(max_examples=200, deadline=None)
@given(model=st.sets(st.integers(1, 4)), raw=st.lists(st.lists(LITERALS, max_size=3), max_size=8),
       deleted=st.lists(st.lists(LITERALS, max_size=3), max_size=3),
       added=st.lists(st.lists(LITERALS, max_size=3), max_size=3), data=st.data())
def test_reuse_model_warns_and_counts_as_apply_changes_does(model, raw, deleted, added, data):
    # Deletions may be absent or repeated and additions repeated or present;
    # on a hit or a miss, the warnings and the outcome are those of the
    # whole-formula route.
    base = [cl for cl in (clause(*c) for c in raw)
            if all(abs(lit) <= 4 for lit in cl) and any((lit > 0) == (abs(lit) in model) for lit in cl)]
    f = cnf(base, alphabet=range(1, 5))
    deletions = [clause(*c) for c in deleted]
    if f.clauses:
        deletions += data.draw(st.lists(st.sampled_from(sorted(f.clauses)), max_size=3))
    additions = [clause(*c) for c in added] * 2
    if f.clauses:
        additions += data.draw(st.lists(st.sampled_from(sorted(f.clauses)), max_size=2))
    changes = ChangeSet(additions=tuple(cl for cl in additions if cl not in deletions),
                        deletions=tuple(deletions))
    hint = frozenset(model)
    with warnings.catch_warnings(record=True) as expected_warnings:
        warnings.simplefilter("always")
        changed = apply_changes(f, changes)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        outcome = reuse_model(f, changes, hint)
    assert [str(w.message) for w in caught] == [str(w.message) for w in expected_warnings]
    if evaluate(changed, hint):
        assert tuple(outcome) == (hint, True, len(changed.clauses))
    else:
        cold, work = solve_dpll_stats(changed)
        assert tuple(outcome) == (cold, False, work)


@settings(max_examples=300, deadline=None)
@given(model=st.sets(st.integers(1, 4)), raw=st.lists(st.lists(LITERALS, max_size=3), max_size=8),
       added=st.lists(st.lists(LITERALS, max_size=3), max_size=3),
       present=st.lists(st.integers(0, 10), max_size=2),
       absent=st.lists(st.lists(LITERALS, min_size=1, max_size=3), max_size=2),
       repeat=st.integers(1, 2))
@example(model={1}, raw=[[1]], added=[[]], present=[], absent=[], repeat=1)
@example(model={1}, raw=[[1]], added=[[5, -6]], present=[0], absent=[[-5]], repeat=2)
def test_reuse_model_hits_iff_the_hint_satisfies_the_changed_formula(model, raw, added, present,
                                                                     absent, repeat):
    # Additions may bring in variables 5 and 6, be the empty clause, be
    # repeated or be present already; each deletion names a clause the
    # formula lacks, so it warns.
    base = [cl for cl in (clause(*c) for c in raw)
            if all(abs(lit) <= 4 for lit in cl) and any((lit > 0) == (abs(lit) in model) for lit in cl)]
    f = cnf(base, alphabet=range(1, 5))
    ordered = sorted(f.clauses)
    additions = [clause(*c) for c in added] + [ordered[i % len(ordered)] for i in present if ordered]
    deletions = [cl for cl in (clause(*c) for c in absent)
                 if cl not in f.clauses and cl not in additions]
    changes = ChangeSet(additions=tuple(additions * repeat), deletions=tuple(deletions))
    hint = frozenset(model)
    with pytest.warns(UserWarning, match="deleted clause not present") if deletions else nullcontext():
        expected = evaluate(apply_changes(f, changes), hint)
        assert reuse_model(f, changes, hint).hint_used == expected


def test_reuse_plan_unchanged_instance_returns_full_plan():
    inst = make_instance(
        ["p", "q"],
        {"one": make_operator(pos_post=["p"]), "two": make_operator(pos_pre=["p"], pos_post=["q"])},
        goal_true=["q"],
    )
    outcome = reuse_plan(inst, ("one", "two"))
    assert outcome.hint_used
    assert outcome.solution == ("one", "two")


def test_reuse_plan_picks_longest_valid_suffix():
    changed = make_instance(
        ["p", "q"],
        {
            "seed": make_operator(neg_pre=["p"], pos_post=["p"]),
            "grow": make_operator(pos_pre=["p"], pos_post=["q"]),
        },
        initial=["p"],  # "seed" no longer applicable, its work already done
        goal_true=["q"],
    )
    outcome = reuse_plan(changed, ("seed", "grow"))
    assert outcome.hint_used
    assert outcome.solution == ("grow",)
    assert validate_plan(changed, outcome.solution)


def test_reuse_plan_goal_already_reached_keeps_empty_suffix():
    # the old step can no longer run, but nothing remains to be done
    inst = make_instance(["p"], {"set_p": make_operator(neg_pre=["p"], pos_post=["p"])},
                         initial=["p"], goal_true=["p"])
    outcome = reuse_plan(inst, ("set_p",))
    assert outcome.hint_used
    assert outcome.solution == ()


def test_reuse_plan_guard_removal_forces_fallback():
    case = sat_to_replanning(cnf([(1, 2), (-1,)]))
    changed = apply_initial_change(case)
    outcome = reuse_plan(changed, case.original_plan)
    assert not outcome.hint_used
    assert outcome.solution is not None
    assert validate_plan(changed, outcome.solution)

    dead = sat_to_replanning(cnf([(1,), (-1,)]))
    outcome = reuse_plan(apply_initial_change(dead), dead.original_plan)
    assert not outcome.hint_used
    assert outcome.solution is None


def test_table_json_round_trip():
    base = cnf([(1,), (1, -2)])
    table = compile_table(base, [add_change(2), del_change(1)], 2)
    text = table_to_json(table)
    assert table_from_json(text) == table
    assert '"0x3"' in text  # hex-keyed entries


def test_table_json_refuses_a_repeated_entry_key():
    table = compile_table(cnf([(1,), (1, -2)]), [add_change(2), del_change(1)], 2)
    obj = json.loads(table_to_json(table))
    entries = json.dumps(obj["entries"])
    obj["entries"] = "ENTRIES"
    text = json.dumps(obj).replace('"ENTRIES"', entries.replace("{", '{"0x3": null, ', 1))
    with pytest.raises(ValueError, match="JSON object repeats the key '0x3'"):
        table_from_json(text)


def test_table_entries_are_read_only():
    table = compile_table(cnf([(1,), (1, -2)]), [add_change(2), del_change(1)], 2)
    with pytest.raises(TypeError):
        table.entries[frozenset()] = None
    assert table_from_json(table_to_json(table)) == table
    assert lookup(table, ChangeSet(additions=((2,),))) == table.entries[frozenset({("add", (2,))})]


@pytest.mark.parametrize("missing, stray", [("0x3", None), (None, "0x10"), ("0x3", "0x10")])
def test_table_json_rejects_missing_or_stray_entries(missing, stray):
    base = cnf([(1,), (1, -2)])
    obj = json.loads(table_to_json(compile_table(base, [add_change(2), del_change(1)], 2)))
    if missing:
        del obj["entries"][missing]
    if stray:
        obj["entries"][stray] = None
    with pytest.raises(ValueError):
        table_from_json(json.dumps(obj))


def test_table_json_rejects_a_second_spelling_of_a_mask():
    # Mask 3 (both clauses added) is unsatisfiable; a stale model under
    # "0x03" ahead of the canonical "0x3" must not load.
    table = compile_table(cnf([(1, 2)]), [add_change(-1), add_change(-2)], 2)
    obj = json.loads(table_to_json(table))
    assert obj["entries"]["0x3"] is None
    obj["entries"] = {"0x03": [1], **obj["entries"]}
    with pytest.raises(ValueError, match=r"^entries \['0x03'\] contradict"):
        table_from_json(json.dumps(obj))


@pytest.mark.parametrize("key", ["0x03", "3", " 0x3", "0x0_3", "0X3", "-0x3", "0x", "zz"])
def test_table_json_reads_only_the_canonical_key_spelling(key):
    table = compile_table(cnf([(1, 2)]), [add_change(-1), add_change(-2)], 2)
    obj = json.loads(table_to_json(table))
    obj["entries"][key] = obj["entries"].pop("0x3")
    with pytest.raises(ValueError, match=f"^entries .*{re.escape(repr(key))}.* contradict"):
        table_from_json(json.dumps(obj))


def test_table_json_rejects_a_model_that_misses_its_changed_formula():
    base = cnf([(1,), (1, -2)])
    candidates = [add_change(2), del_change(1)]
    obj = json.loads(table_to_json(compile_table(base, candidates, 2)))
    assert obj["entries"]["0x1"] == [1, 2]
    obj["entries"]["0x1"] = [1]  # flips variable 2; base plus (2) needs it true
    with pytest.raises(ValueError, match="0x1"):
        table_from_json(json.dumps(obj))


def test_table_json_checks_every_flipped_model():
    # A flipped model is refused even when it still satisfies its changed
    # formula: the entries must equal the recompiled ones.
    rng = random.Random(23)
    for _ in range(10):
        base, candidates = random_hint_setup(rng, num_vars=3, num_clauses=3, num_candidates=3)
        text = table_to_json(compile_table(base, candidates, 2))
        for key, model in json.loads(text)["entries"].items():
            if model is None:
                continue
            for var in sorted(base.alphabet):
                tampered = json.loads(text)
                tampered["entries"][key] = sorted(set(model) ^ {var})
                with pytest.raises(ValueError, match=f"{key}'.* contradict"):
                    table_from_json(json.dumps(tampered))


def test_every_compiled_table_of_these_tests_loads():
    setups = [
        (cnf([(1,)]), [add_change(-1)], 1),
        (cnf([(1,)]), [add_change(-1)], 0),
        (cnf((), alphabet={1}), [add_change(1), add_change(-1)], 2),
        (cnf([(1,)]), [add_change(-1), add_change(2)], 1),
        (cnf([(1,), (1, -2)]), [add_change(2), del_change(1)], 2),
        (cnf([(1,)]), [add_change(2), add_change(-2)], 2),
    ]
    rng = random.Random(19)
    for _ in range(20):
        sizes = rng.randint(1, 4), rng.randint(0, 4), rng.randint(0, 4)
        bound = rng.randint(0, 2)
        setups.append((*random_hint_setup(rng, *sizes), bound))
    for base, candidates, bound in setups:
        table = compile_table(base, candidates, bound)
        assert table_from_json(table_to_json(table)) == table


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32), num_vars=st.integers(1, 3), num_clauses=st.integers(0, 3),
       num_candidates=st.integers(0, 3), bound=st.integers(0, 3),
       edit=st.sampled_from(["swap-null", "drop", "stray", "respell"]), data=st.data())
def test_table_json_loads_compiled_tables_and_nothing_one_edit_away(
        seed, num_vars, num_clauses, num_candidates, bound, edit, data):
    base, candidates = random_hint_setup(random.Random(seed), num_vars, num_clauses, num_candidates)
    table = compile_table(base, candidates, bound)
    assert table_from_json(table_to_json(table)) == table
    obj = json.loads(table_to_json(table))
    entries = obj["entries"]
    if edit == "swap-null":
        key = data.draw(st.sampled_from(sorted(entries)))
        entries[key] = sorted(base.alphabet) if entries[key] is None else None
    elif edit == "drop":
        del entries[data.draw(st.sampled_from(sorted(entries)))]
    elif edit == "respell":
        key = data.draw(st.sampled_from(sorted(entries)))
        mask = int(key, 16)
        spelling = data.draw(st.sampled_from([f"0x0{mask:x}", f"0X{mask:x}", str(mask)]))
        entries[spelling] = entries.pop(key)
    else:
        masks = sorted(set(range(1 << len(candidates) + 1)) - {int(key, 16) for key in entries})
        entries[f"0x{data.draw(st.sampled_from(masks)):x}"] = data.draw(
            st.sampled_from([None, sorted(base.alphabet)]))
    with pytest.raises(ValueError):
        table_from_json(json.dumps(obj))


@pytest.mark.parametrize("field, value", [
    ("base", None), ("bound", "2"), ("candidates", 5), ("entries", []),
])
def test_table_json_rejects_a_malformed_field(field, value):
    obj = json.loads(table_to_json(compile_table(cnf([(1,)]), [add_change(2)], 1)))
    if value is None:
        del obj[field]
    else:
        obj[field] = value
    with pytest.raises(ValueError, match="missing or malformed table field"):
        table_from_json(json.dumps(obj))


def test_table_json_rejects_a_negative_bound():
    with pytest.raises(ValueError, match="bound -5 is negative"):
        compile_table(cnf([(1,)]), [add_change(2)], -5)
    obj = json.loads(table_to_json(compile_table(cnf([(1,)]), [add_change(2)], 1)))
    obj.update(bound=-1, entries={})
    with pytest.raises(ValueError, match="bound -1 is negative"):
        table_from_json(json.dumps(obj))


def test_table_json_rejects_oversized_entry():
    base = cnf([(1,)])
    table = compile_table(base, [add_change(2), add_change(-2)], 2)
    text = table_to_json(table).replace('"bound": 2', '"bound": 1')
    with pytest.raises(ValueError):
        table_from_json(text)
