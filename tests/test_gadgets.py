import json
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reoptlab import gadgets
from reoptlab.cli import main
from reoptlab.cnf import ChangeSet, clause, cnf
from reoptlab.enumeration import all_clauses, iter_small_formulas, random_formula
from reoptlab.errors import BudgetExceededError
from reoptlab.gadgets import (
    ROLE_CLAUSE,
    Gadget,
    apply_unit_changes,
    build_full_gadget,
    build_gadget,
    double_prime_node,
    gadget_add_unit,
    gadget_from_json,
    gadget_remove_unit,
    gadget_to_json,
    node_role,
    prime_node,
    project_formula,
)
from reoptlab.graphs import add_edges, decide_cover, edge, min_cover_brute
from reoptlab.verification import gadget_cases

from oracles import brute_min_cover_size, brute_sat

PAPER_FORMULA = cnf([(1, 2), (-1,)])


def test_worked_example_shape():
    g = build_gadget(PAPER_FORMULA)
    assert len(g.graph.nodes) == 14
    assert g.budget == 3  # 2 variables + 3 occurrences - 2 clauses
    # the binary clause sorts first, so its clique is c1_*
    assert {"c1_1", "c1_2"} <= g.graph.nodes
    assert ("c1_1", "x1") in g.graph.edges
    assert ("c1_2", "x2") in g.graph.edges
    # the unit clause -x1 is the forcing edge, not a clique
    assert ("-x1", "-x1'") in g.graph.edges
    assert node_role("x1") == "literal"
    assert node_role("x1'") == "prime"
    assert node_role("-x2''") == "double_prime"
    assert node_role("c1_1") == "clause_member"


@pytest.mark.parametrize("label, role", [
    ("x3", "literal"), ("-x3", "literal"), ("x12", "literal"),
    ("x3'", "prime"), ("-x3'", "prime"),
    ("x3''", "double_prime"), ("-x3''", "double_prime"),
    ("c1_2", "clause_member"), ("c10_3", "clause_member"),
    ("x3'''", None), ("x0", None), ("x", None), ("c1", None), ("c1_", None), ("a", None),
])
def test_node_role_reads_the_label(label, role):
    assert node_role(label) == role


def test_worked_example_minimum_cover():
    g = build_gadget(PAPER_FORMULA)
    assert min_cover_brute(g.graph).size == 3


def test_empty_formula_over_one_variable():
    g = build_gadget(cnf((), alphabet={1}))
    assert len(g.graph.nodes) == 6
    assert g.budget == 1
    assert min_cover_brute(g.graph).size == 1


def test_a_gadget_over_the_construction_budget_is_refused(monkeypatch):
    # Six nodes per variable and one per literal of the clique: 6 * 2 + 2.
    monkeypatch.setattr(gadgets, "CONSTRUCTION_BUDGET", 14)
    assert len(build_gadget(PAPER_FORMULA).graph.nodes) == 14
    monkeypatch.setattr(gadgets, "CONSTRUCTION_BUDGET", 13)
    with pytest.raises(BudgetExceededError, match="14 nodes"):
        build_gadget(PAPER_FORMULA)


def test_unsatisfiable_unit_pair_exceeds_budget():
    g = build_gadget(cnf([(1,), (-1,)]))
    assert g.budget == 1  # n=1, m=2, r=2
    assert min_cover_brute(g.graph).size == 2


def test_build_rejects_bad_clauses():
    with pytest.raises(ValueError, match=r"clause \(1, 2, 3, 4\) has 4 literals, need 1\.\.3"):
        build_gadget(cnf([(1, 2, 3, 4)]))
    with pytest.raises(ValueError, match=r"clause \(1, -1\) is tautological"):
        build_gadget(cnf([(1, -1)]))
    with pytest.raises(ValueError, match=r"clause \(\) has 0 literals, need 1\.\.3"):
        build_gadget(cnf([()]))


def test_add_unit_keeps_budget_and_breaks_satisfiability():
    g = build_gadget(PAPER_FORMULA)
    g2 = gadget_add_unit(g, -2)
    assert g2.budget == 3
    assert g2.graph.edges - g.graph.edges == {("-x2", "-x2'")}
    assert clause(-2) in g2.source.clauses
    assert min_cover_brute(g2.graph).size == 4  # now unsatisfiable


def test_add_unit_twice_is_an_error():
    g = gadget_add_unit(build_gadget(PAPER_FORMULA), -2)
    with pytest.raises(ValueError, match=r"unit clause \(-2,\) already present"):
        gadget_add_unit(g, -2)
    with pytest.raises(ValueError, match=r"unit clause \(-1,\) already present"):
        gadget_add_unit(g, -1)  # present since the build


def test_add_unit_outside_alphabet():
    with pytest.raises(ValueError, match="variable 9 is not in the gadget alphabet"):
        gadget_add_unit(build_gadget(PAPER_FORMULA), 9)


def test_add_unit_on_vacuous_gadget():
    g = build_gadget(cnf((), alphabet={1}))
    g2 = gadget_add_unit(g, 1)
    assert g2.budget == g.budget
    assert min_cover_brute(g2.graph).size <= g2.budget


def test_remove_unit_raises_budget():
    g = gadget_add_unit(build_gadget(PAPER_FORMULA), -2)
    g2 = gadget_remove_unit(g, -1)
    assert g2.budget == 4
    assert g2.graph.edges - g.graph.edges == {("-x1'", "-x1''")}
    assert clause(-1) not in g2.source.clauses
    # F minus the removed unit is {x1 v x2, -x2}: satisfiable again
    assert min_cover_brute(g2.graph).size == 4


def test_remove_unit_from_singleton_formula():
    g = build_gadget(cnf([(1,)]))
    g2 = gadget_remove_unit(g, 1)
    assert g2.budget == g.budget + 1
    assert min_cover_brute(g2.graph).size <= g2.budget


def test_remove_absent_unit_is_an_error():
    with pytest.raises(ValueError, match=r"unit clause \(2,\) not present"):
        gadget_remove_unit(build_gadget(PAPER_FORMULA), 2)


def test_unit_edits_refuse_a_graph_that_contradicts_its_source():
    unit = build_gadget(cnf([(1,)]))
    # The forcing edge (x1, x1') of a unit the source does not hold.
    with pytest.raises(AssertionError, match="forcing edge without its unit"):
        gadget_add_unit(Gadget(unit.graph, cnf((), alphabet={1})), 1)
    # The relaxing edge (x1', x1'') of a unit the source still holds.
    relaxed = add_edges(unit.graph, [edge(prime_node(1), double_prime_node(1))])
    with pytest.raises(AssertionError, match="unit present with its removal edge"):
        gadget_remove_unit(Gadget(relaxed, unit.source), 1)


def test_remove_then_readd_restores_graph_and_budget():
    base = build_gadget(cnf([(1,), (-1,)]))
    removed = gadget_remove_unit(base, 1)
    restored = gadget_add_unit(removed, 1)
    assert restored.graph == base.graph
    assert restored.budget == base.budget
    assert restored.source == base.source
    # soundness of the cancellation: the unit pair stays unsatisfiable
    assert min_cover_brute(restored.graph).size > restored.budget


def test_mutation_sequences_match_fresh_builds():
    rng = random.Random(17)
    for _ in range(120):
        f = random_formula(rng, 3, rng.randint(0, 3))
        gadget = build_gadget(f)
        for _ in range(rng.randint(1, 4)):
            literals = [v * s for v in sorted(f.alphabet) for s in (1, -1)]
            if not literals:
                break
            lit = rng.choice(literals)
            unit = clause(lit)
            if unit in gadget.source.clauses:
                gadget = gadget_remove_unit(gadget, lit)
            else:
                gadget = gadget_add_unit(gadget, lit)
        mutated = gadget.source
        verdict = decide_cover(gadget.graph, gadget.budget) is not None
        fresh = build_gadget(mutated)
        fresh_verdict = decide_cover(fresh.graph, fresh.budget) is not None
        assert verdict == fresh_verdict == brute_sat(mutated.clauses, mutated.alphabet)


def test_gadget_equisatisfiability_sweep():
    for f in iter_small_formulas(2, 2):
        g = build_gadget(f)
        sat = brute_sat(f.clauses, f.alphabet)
        assert (brute_min_cover_size(g.graph.nodes, g.graph.edges) <= g.budget) == sat


def test_clause_universe_counts():
    assert len(all_clauses({1, 2, 3}, 3, 3)) == 8
    assert all_clauses({1, 2}, 3, 3) == []
    assert all_clauses(set(), 3, 3) == []


def test_full_gadget_shape():
    full = build_full_gadget({1, 2, 3})
    assert len(full.source.clauses) == 8
    assert len(full.graph.nodes) == 42  # 6*3 literal-side + 8*3 clause nodes
    assert full.budget == 19  # 3 + 24 - 8
    assert build_full_gadget(set()).graph.nodes == frozenset()


def test_full_gadget_universe_is_unsatisfiable():
    full = build_full_gadget({1, 2, 3})
    assert decide_cover(full.graph, full.budget) is None
    assert decide_cover(full.graph, full.budget + 1) is not None


def test_projection_identity_and_empty():
    full = build_full_gadget({1, 2, 3})
    assert project_formula(full, full.source) == full.graph
    bare = project_formula(full, cnf((), alphabet={1, 2, 3}))
    # only clause-to-literal edges disappear: 8 clauses * 3 each
    assert len(full.graph.edges) - len(bare.edges) == 24
    assert bare.nodes == full.graph.nodes
    assert decide_cover(bare, full.budget) is not None  # empty formula is satisfiable


def test_projection_tracks_satisfiability():
    full = build_full_gadget({1, 2, 3})
    sat_f = cnf([(1, 2, 3)], alphabet={1, 2, 3})
    assert decide_cover(project_formula(full, sat_f), full.budget) is not None
    for f in (cnf([(1, 2, 3), (-1, -2, -3)], alphabet={1, 2, 3}), full.source):
        projected = project_formula(full, f)
        expected = brute_sat(f.clauses, f.alphabet)
        assert (decide_cover(projected, full.budget) is not None) == expected


def test_projection_never_adds_edges():
    full = build_full_gadget({1, 2, 3})
    rng = random.Random(2)
    universe = all_clauses({1, 2, 3}, 3, 3)
    for _ in range(20):
        subset = rng.sample(universe, rng.randint(0, len(universe)))
        projected = project_formula(full, cnf(subset, alphabet={1, 2, 3}))
        assert projected.edges <= full.graph.edges
        assert projected.nodes == full.graph.nodes


def test_projection_rejects_foreign_clause():
    full = build_full_gadget({1, 2, 3})
    with pytest.raises(ValueError, match=r"clauses outside the universe: \[\(1, 2\)\]"):
        project_formula(full, cnf([(1, 2)], alphabet={1, 2, 3}))


def test_projection_requires_clique_only_universe():
    with pytest.raises(ValueError):
        project_formula(build_gadget(PAPER_FORMULA), cnf([(1, 2)]))


def test_gadget_json_round_trip():
    g = gadget_add_unit(build_gadget(PAPER_FORMULA), -2)
    assert gadget_from_json(gadget_to_json(g)) == g


def test_gadget_json_refuses_a_repeated_key():
    text = gadget_to_json(build_gadget(PAPER_FORMULA))
    assert text.startswith('{\n  "budget": ')
    with pytest.raises(ValueError, match="JSON object repeats the key 'budget'"):
        gadget_from_json(text.replace("{", '{"budget": 99, ', 1))


def test_gadget_json_round_trips_every_case():
    for f, tag, gadget, _ in gadget_cases(2, 2, 20):
        assert gadget_from_json(gadget_to_json(gadget)) == gadget, (f, tag)


def test_unit_edits_never_relabel_a_node():
    for f, tag, gadget, _ in gadget_cases(3, 3, 200):
        assert gadget.graph.nodes == build_gadget(gadget.source).graph.nodes, (f, tag)


def test_gapped_alphabet_survives_the_round_trip(tmp_path, capsys):
    g = build_gadget(cnf([(2,)]))
    loaded = gadget_from_json(gadget_to_json(g))
    assert loaded.source.alphabet == frozenset({2})
    for gadget in (g, loaded):
        with pytest.raises(ValueError, match="variable 1 is not in the gadget alphabet"):
            gadget_add_unit(gadget, -1)
    gadget_file = tmp_path / "gadget.json"
    gadget_file.write_text(gadget_to_json(g))
    changes = tmp_path / "d.changes"
    changes.write_text("+ -1 0\n")
    capsys.readouterr()
    assert main(["mutate", "--input", str(gadget_file), "--changes", str(changes)]) == 1
    assert capsys.readouterr().err == "error: variable 1 is not in the gadget alphabet\n"


def test_gadget_file_without_roles_loads():
    g = build_gadget(PAPER_FORMULA)
    obj = json.loads(gadget_to_json(g))
    assert "roles" not in obj
    assert gadget_from_json(json.dumps(obj)) == g
    legacy = dict(obj, roles={node: node_role(node) for node in obj["nodes"]})
    assert gadget_from_json(json.dumps(legacy)) == g


def test_gadget_json_rejects_a_clause_without_literal_nodes():
    obj = json.loads(gadget_to_json(build_gadget(PAPER_FORMULA)))
    gone = {"x2", "-x2"}
    obj["nodes"] = [n for n in obj["nodes"] if n not in gone]
    obj["edges"] = [e for e in obj["edges"] if not gone & set(e)]
    with pytest.raises(ValueError, match="outside the alphabet"):
        gadget_from_json(json.dumps(obj))


def _unsat_units_without_forcing_edge() -> str:
    # (x1) and (not x1) with the forcing edge (-x1, -x1') deleted: the
    # budget still reads 1, and {x1} would cover the graph.
    obj = json.loads(gadget_to_json(build_gadget(cnf([(1,), (-1,)]))))
    obj["edges"] = [e for e in obj["edges"] if sorted(e) != ["-x1", "-x1'"]]
    return json.dumps(obj)


def test_gadget_json_rejects_edges_that_contradict_the_source(tmp_path, capsys):
    text = _unsat_units_without_forcing_edge()
    with pytest.raises(ValueError, match="edges contradict"):
        gadget_from_json(text)
    gadget_file = tmp_path / "gadget.json"
    gadget_file.write_text(text)
    assert main(["export-dot", "--input", str(gadget_file)]) == 1
    changes = tmp_path / "d.changes"
    changes.write_text("- 1 0\n")
    capsys.readouterr()
    assert main(["mutate", "--input", str(gadget_file), "--changes", str(changes)]) == 1
    assert capsys.readouterr().err == "error: gadget edges contradict its source\n"


def test_gadget_json_rejects_any_single_edge_deleted_or_added():
    g = gadget_remove_unit(build_gadget(cnf([(1, 2), (-1, 3), (1, -2, -3), (-2,)])), -2)
    text = gadget_to_json(g)
    assert gadget_from_json(text) == g
    obj = json.loads(text)
    nodes = obj["nodes"]
    for dropped in range(len(obj["edges"])):
        edges = obj["edges"][:dropped] + obj["edges"][dropped + 1:]
        with pytest.raises(ValueError, match="contradict"):
            gadget_from_json(json.dumps(dict(obj, edges=edges)))
    present = {tuple(sorted(e)) for e in obj["edges"]}
    for i, u in enumerate(nodes):
        for v in nodes[i + 1:]:
            if (u, v) not in present:
                with pytest.raises(ValueError, match="contradict"):
                    gadget_from_json(json.dumps(dict(obj, edges=obj["edges"] + [[u, v]])))


def test_gadget_json_matches_cliques_whatever_their_index(tmp_path, capsys):
    # A unit takes no clique index, so adding one leaves the labels a fresh
    # build of the new source gives; swapping the two cliques breaks them.
    g = gadget_add_unit(build_gadget(cnf([(2, 3), (-2, -3)], alphabet={1, 2, 3})), 1)
    assert "c1_1" in g.graph.nodes and "c2_1" in g.graph.nodes
    assert build_gadget(g.source).graph.nodes == g.graph.nodes
    assert gadget_from_json(gadget_to_json(g)) == g
    swapped = gadget_to_json(g).replace("c1_", "cX_").replace("c2_", "c1_").replace("cX_", "c2_")
    with pytest.raises(ValueError, match="contradict"):
        gadget_from_json(swapped)
    gadget_file = tmp_path / "swapped.json"
    gadget_file.write_text(swapped)
    assert main(["export-dot", "--input", str(gadget_file)]) == 1
    assert capsys.readouterr().err == "error: gadget edges contradict its source\n"


@st.composite
def edited_gadgets(draw):
    """A gadget of a small formula over a possibly gapped alphabet, then
    a few change sets of unit additions and removals."""
    variables = sorted(draw(st.sets(st.integers(1, 5), min_size=1, max_size=3)))
    literal = st.sampled_from([v * sign for v in variables for sign in (1, -1)])
    some_clause = st.lists(st.sampled_from(variables), min_size=1, max_size=3, unique=True).flatmap(
        lambda vs: st.tuples(*(st.sampled_from((v, -v)) for v in vs)))
    g = build_gadget(cnf(draw(st.lists(some_clause, max_size=5)), alphabet=variables))
    for step in draw(st.lists(st.lists(literal, min_size=1, max_size=3, unique=True), max_size=4)):
        units = [clause(lit) for lit in step]
        g = apply_unit_changes(g, ChangeSet(
            additions=[u for u in units if u not in g.source.clauses],
            deletions=[u for u in units if u in g.source.clauses]))
    return g


@settings(max_examples=150, deadline=None)
@given(g=edited_gadgets(), data=st.data())
def test_gadget_json_loads_edit_histories_and_nothing_one_change_away(g, data):
    text = gadget_to_json(g)
    assert gadget_from_json(text) == g
    obj = json.loads(text)
    corrupted = []
    cliques = sorted({n.partition("_")[0] for n in obj["nodes"] if node_role(n) == ROLE_CLAUSE})
    if len(cliques) >= 2:
        a, b = data.draw(st.lists(st.sampled_from(cliques), min_size=2, max_size=2, unique=True))
        swap = {a: b, b: a}

        def rename(n):
            head, sep, tail = n.partition("_")
            return swap.get(head, head) + sep + tail
        corrupted.append(dict(obj, nodes=[rename(n) for n in obj["nodes"]],
                              edges=[[rename(u), rename(v)] for u, v in obj["edges"]]))
    if obj["edges"]:
        dropped = data.draw(st.integers(0, len(obj["edges"]) - 1))
        corrupted.append(dict(obj, edges=obj["edges"][:dropped] + obj["edges"][dropped + 1:]))
    absent = [[u, v] for u, v in combinations(obj["nodes"], 2) if edge(u, v) not in g.graph.edges]
    if absent:
        corrupted.append(dict(obj, edges=obj["edges"] + [data.draw(st.sampled_from(absent))]))
    for bad in corrupted:
        with pytest.raises(ValueError):
            gadget_from_json(json.dumps(bad))


def test_gadget_json_checks_the_budget():
    for _, _, gadget, _ in gadget_cases(2, 2, 20):
        text = gadget_to_json(gadget)
        gadget_from_json(text)
        budget = f'"budget": {gadget.budget},'
        for wrong in (gadget.budget - 1, gadget.budget + 1):
            with pytest.raises(ValueError, match="budget"):
                gadget_from_json(text.replace(budget, f'"budget": {wrong},'))


def test_apply_unit_changes_runs_removals_then_additions():
    from reoptlab.cnf import ChangeSet
    from reoptlab.gadgets import apply_unit_changes

    g = build_gadget(PAPER_FORMULA)
    out = apply_unit_changes(g, ChangeSet(additions=((-2,),), deletions=((-1,),)))
    assert out.source.clauses == frozenset({(1, 2), (-2,)})
    assert out.budget == g.budget + 1
    with pytest.raises(ValueError, match=r"only unit clauses can be edited, got \(1, 2\)"):
        apply_unit_changes(g, ChangeSet(additions=((1, 2),)))
    with pytest.raises(ValueError, match=r"only unit clauses can be edited, got \(1, 2\)"):
        apply_unit_changes(g, ChangeSet(deletions=((1, 2),)))
