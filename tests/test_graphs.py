import copy
import dataclasses
import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reoptlab.dimacs import parse_dimacs
from reoptlab.enumeration import random_graph
from reoptlab import graphs
from reoptlab.errors import BudgetExceededError, InvalidHintError, SearchBudgetError
from reoptlab.cnf import cnf, is_tautology
from reoptlab.gadgets import (build_gadget, gadget_add_unit, gadget_from_json,
                              gadget_remove_unit, gadget_to_json)
from reoptlab.graphs import (
    Graph,
    add_edges,
    decide_cover,
    decide_cover_stats,
    edge,
    graph,
    is_cover,
    min_cover_brute,
    parse_edge_list,
    remove_edges,
    serialize_edge_list,
    warm_start_cover_stats,
)
from reoptlab.hints import ReuseOutcome
from reoptlab.solvers import solve_dpll
from reoptlab.verification import gadget_cases

from oracles import brute_min_cover_size, reference_decide_cover

TRIANGLE = graph(edges=[("a", "b"), ("b", "c"), ("a", "c")])
PATH = graph(edges=[(f"p{i:04d}", f"p{i + 1:04d}") for i in range(4000)])

# A pure 3-CNF over four variables that is satisfiable until the unit
# clause -1 is added.  Its gadget is one cover node short after that edit;
# the same search without a lower bound runs for more than 25 s on it.
CLIFF = """p cnf 4 17
1 2 -3 0
-1 -3 -4 0
1 -2 -4 0
2 3 4 0
-1 2 -4 0
1 -2 -3 0
1 2 4 0
-2 -3 -4 0
1 2 -4 0
2 -3 -4 0
-1 -2 3 0
1 -2 3 0
-1 -2 -4 0
-1 -2 4 0
1 2 3 0
-1 3 -4 0
-2 3 4 0
"""


def test_edge_canonical_and_self_loop():
    assert edge("b", "a") == ("a", "b")
    with pytest.raises(ValueError):
        edge("a", "a")
    with pytest.raises(ValueError, match="canonical order"):
        Graph(frozenset({"a", "b"}), frozenset({("b", "a")}))


def test_graph_factory_absorbs_endpoints():
    g = graph(["x"], [("b", "a")])
    assert g.nodes == frozenset({"x", "a", "b"})
    assert g.edges == frozenset({("a", "b")})


def test_graph_rejects_unknown_endpoint():
    with pytest.raises(ValueError, match=r"edge \('a', 'b'\) has an endpoint outside the node set"):
        Graph(frozenset({"a"}), frozenset({("a", "b")}))


def test_graph_names_the_least_bad_edge_under_every_hash_salt():
    # Set order follows the string-hash salt of the process; the error must not.
    script = ("from reoptlab.graphs import Graph\n"
              "Graph(frozenset('ab'), frozenset([('a', 'z'), ('b', 'y'), ('a', 'x')]))")
    src = str(Path(__file__).resolve().parent.parent / "src")
    errors = set()
    for salt in ("0", "1", "2", "3"):
        env = {**os.environ, "PYTHONHASHSEED": salt,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                text=True, timeout=60)
        errors.add(result.stderr.splitlines()[-1])
    assert errors == {"ValueError: edge ('a', 'x') has an endpoint outside the node set"}


def test_is_cover():
    assert is_cover(graph(), set())
    assert not is_cover(TRIANGLE, {"a"})
    assert is_cover(TRIANGLE, {"a", "b"})
    with pytest.raises(ValueError, match=r"cover members outside the graph: \['z'\]"):
        is_cover(TRIANGLE, {"z"})


def test_min_cover_empty_graph():
    assert min_cover_brute(graph()) == (0, frozenset())


def test_min_cover_single_edge_prefers_lex_least():
    size, cover = min_cover_brute(graph(edges=[("u", "v")]))
    assert (size, cover) == (1, frozenset({"u"}))


def test_min_cover_limit():
    wide = graph([f"n{i}" for i in range(25)])
    with pytest.raises(BudgetExceededError, match="25 nodes exceed the exhaustive limit of 24"):
        min_cover_brute(wide)


def test_decide_cover_triangle():
    assert decide_cover(TRIANGLE, 2) is not None
    assert decide_cover(TRIANGLE, 1) is None
    cover = decide_cover(TRIANGLE, 2)
    assert is_cover(TRIANGLE, cover) and len(cover) <= 2


def test_decide_cover_rejects_negative_budget():
    with pytest.raises(ValueError):
        decide_cover(TRIANGLE, -1)


def test_decide_cover_agrees_with_brute_oracle():
    rng = random.Random(11)
    for _ in range(500):
        n = rng.randint(1, 12)
        g = random_graph(rng, n, rng.randint(0, n * (n - 1) // 2))
        best = brute_min_cover_size(g.nodes, g.edges)
        assert min_cover_brute(g).size == best
        for budget in (max(best - 1, 0), best, best + 1):
            got = decide_cover(g, budget)
            assert (got is not None) == (best <= budget)
            if got is not None:
                assert is_cover(g, got) and len(got) <= budget


def test_decide_cover_witness_matches_unbounded_search():
    rng = random.Random(29)
    for _ in range(300):
        n = rng.randint(1, 16)
        g = random_graph(rng, n, rng.randint(0, n * (n - 1) // 2))
        for budget in range(n + 1):
            assert decide_cover(g, budget) == reference_decide_cover(g.nodes, g.edges, budget)


def test_decide_cover_witness_matches_unbounded_search_on_gadget_edits():
    for _, _, gadget, _ in gadget_cases():
        g = gadget.graph
        expected = reference_decide_cover(g.nodes, g.edges, gadget.budget)
        assert decide_cover(g, gadget.budget) == expected


@st.composite
def small_graphs(draw):
    labels = [f"n{i:02d}" for i in range(draw(st.integers(1, 12)))]
    pairs = list(combinations(labels, 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return graph(labels, chosen)


@settings(max_examples=200, deadline=None)
@given(small_graphs())
def test_decide_cover_verdict_matches_brute_oracle_property(g):
    best = min_cover_brute(g).size
    for budget in range(max(best - 1, 0), best + 2):
        got = decide_cover(g, budget)
        assert (got is not None) == (best <= budget)
        if got is not None:
            assert is_cover(g, got) and len(got) <= budget


@settings(max_examples=200, deadline=None)
@given(small_graphs())
def test_decide_cover_witness_matches_unbounded_search_property(g):
    for budget in range(len(g.nodes) + 1):
        assert decide_cover(g, budget) == reference_decide_cover(g.nodes, g.edges, budget)


def test_decide_cover_refuses_an_edge_at_budget_zero():
    assert decide_cover(graph(edges=[("a", "b")]), 0) is None
    assert decide_cover(graph(["a", "b"]), 0) == frozenset()


# One below its minimum cover of 25, so the search runs to exhaustion.
REFUTED = random_graph(random.Random(7), 40, 120)


def test_decide_cover_runs_up_to_its_node_cap(monkeypatch):
    explored = decide_cover_stats(REFUTED, 24)[1]
    monkeypatch.setattr(graphs, "COVER_SEARCH_BUDGET", explored)
    assert decide_cover_stats(REFUTED, 24) == (None, explored)


def test_decide_cover_raises_past_its_node_cap(monkeypatch):
    explored = decide_cover_stats(REFUTED, 24)[1]
    monkeypatch.setattr(graphs, "COVER_SEARCH_BUDGET", explored - 1)
    with pytest.raises(SearchBudgetError, match=f"more than {explored - 1} cover search nodes"):
        decide_cover_stats(REFUTED, 24)


def test_decide_cover_refuses_a_graph_past_its_graph_node_limit(monkeypatch):
    # The limit is read when the graph is built: a graph past it carries no index.
    monkeypatch.setattr(graphs, "MAX_COVER_GRAPH_NODES", len(REFUTED.nodes))
    assert decide_cover_stats(Graph(REFUTED.nodes, REFUTED.edges), 24)[0] is None
    monkeypatch.setattr(graphs, "MAX_COVER_GRAPH_NODES", len(REFUTED.nodes) - 1)
    past = Graph(REFUTED.nodes, REFUTED.edges)
    assert past.cover_index is None and past == REFUTED
    with pytest.raises(BudgetExceededError) as err:
        decide_cover_stats(past, 24)
    assert type(err.value) is BudgetExceededError
    assert str(err.value) == "40 graph nodes exceed the cover search limit of 39"


def _fresh_index(g):
    """The cover index rebuilt from the node and edge sets alone, by scans over the edges."""
    labels = sorted(g.nodes)
    pos = {label: i for i, label in enumerate(labels)}
    adjm = [sum(1 << pos[w] for e in g.edges if n in e for w in e if w != n) for n in labels]
    degrees = [sum(n in e for e in g.edges) for n in labels]
    planes = [sum(1 << i for i, d in enumerate(degrees) if d >> j & 1)
              for j in range(max(degrees, default=0).bit_length())]
    return labels, adjm, planes


def _carries_a_fresh_index(g):
    index = g.cover_index
    assert all(type(part) is tuple for part in (index.labels, index.adjm, index.planes, index.clique))
    assert (list(index.labels), list(index.adjm), list(index.planes)) == _fresh_index(g)
    assert index == Graph(frozenset(g.nodes), frozenset(g.edges)).cover_index
    # The root packing: disjoint cliques of two or three nodes, each
    # bounding the cover by its size less one, and no edge between free nodes.
    members = 0
    packed = {index.clique[i] for i in range(len(index.labels)) if not index.free >> i & 1}
    for mask in packed:
        nodes = [i for i in range(len(index.labels)) if mask >> i & 1]
        assert len(nodes) in (2, 3) and not members & mask
        assert all(index.clique[i] == mask for i in nodes)
        assert all(index.adjm[i] >> j & 1 for i, j in combinations(nodes, 2))
        members |= mask
    assert index.free == (1 << len(index.labels)) - 1 & ~members
    assert index.bound == sum(mask.bit_count() - 1 for mask in packed)
    assert all(not index.adjm[i] & index.free for i in range(len(index.labels)) if index.free >> i & 1)
    return g


LABELS = st.sampled_from([f"n{i}" for i in range(7)])
PAIRS = st.lists(st.tuples(LABELS, LABELS).filter(lambda p: p[0] != p[1]), max_size=10)


@settings(max_examples=150, deadline=None)
@given(st.sets(LABELS), PAIRS, PAIRS, PAIRS, st.integers(0, 2**32),
       st.lists(st.lists(st.integers(-3, 3).filter(bool), min_size=1, max_size=3), max_size=4))
def test_every_graph_path_carries_the_index_a_fresh_build_makes(nodes, pairs, added, removed, seed, raw):
    g = _carries_a_fresh_index(graph(nodes, pairs))
    paths = [
        Graph(g.nodes, g.edges),
        add_edges(g, added),
        remove_edges(g, removed),
        remove_edges(add_edges(g, added), pairs),
        parse_edge_list(serialize_edge_list(g)),
        random_graph(random.Random(seed), seed % 9, seed % 13),
    ]
    source = cnf([cl for cl in cnf(raw).clauses if not is_tautology(cl)], alphabet=range(1, 4))
    gadget = build_gadget(source)
    paths += [gadget.graph, gadget_from_json(gadget_to_json(gadget)).graph]
    for lit in (1, -2, 3):
        edit = gadget_remove_unit if (lit,) in source.clauses else gadget_add_unit
        edited = edit(gadget, lit)
        paths += [edited.graph, gadget_from_json(gadget_to_json(edited)).graph]
    for path in paths:
        _carries_a_fresh_index(path)


def test_the_cover_index_takes_no_part_in_equality_hash_or_repr():
    assert [f.name for f in dataclasses.fields(Graph) if f.init] == ["nodes", "edges"]
    g = graph(edges=[("a", "b"), ("b", "c")])
    h = Graph(g.nodes, g.edges)  # the same sets, so the same repr
    object.__setattr__(h, "cover_index", None)
    assert g == h and hash(g) == hash(h) and repr(g) == repr(h)
    assert "cover_index" not in repr(g)


def test_searches_leave_the_shared_index_unchanged():
    # Calls at every budget share the graph's root state; none may change
    # it, so a second round, in the other order, answers as the first.
    gadget = gadget_add_unit(build_gadget(parse_dimacs(CLIFF)), -1)
    for g, budgets in ((REFUTED, (40, 24, 25, 0)), (gadget.graph, (gadget.budget, gadget.budget + 1)),
                       (TRIANGLE, (2, 1, 3))):
        before = copy.deepcopy(g.cover_index)
        first = [decide_cover_stats(g, budget) for budget in budgets]
        assert g.cover_index == before
        assert [decide_cover_stats(g, budget) for budget in reversed(budgets)] == first[::-1]
        assert g.cover_index == before
        _carries_a_fresh_index(g)


def test_a_graph_past_the_node_limit_carries_no_index():
    limit = graphs.MAX_COVER_GRAPH_NODES
    triangle = [("a", "b"), ("b", "c"), ("a", "c")]
    at = graph([f"x{i:04d}" for i in range(limit - 3)], triangle)
    past = add_edges(at, [("x0000", "y")])
    assert len(at.nodes) == limit and len(past.nodes) == limit + 1
    assert at.cover_index is not None and past.cover_index is None
    assert decide_cover(at, 2) == reference_decide_cover(at.nodes, triangle, 2) == {"a", "b"}
    with pytest.raises(BudgetExceededError) as err:
        decide_cover(past, 2)
    assert type(err.value) is BudgetExceededError
    assert str(err.value) == "8193 graph nodes exceed the cover search limit of 8192"
    assert remove_edges(past, [("x0000", "y")]).cover_index is None  # the node stays


def test_decide_cover_on_long_path_needs_no_recursion():
    cover = decide_cover(PATH, 2000)
    assert cover is not None and len(cover) == 2000 and is_cover(PATH, cover)
    assert decide_cover(PATH, 1999) is None


def test_decide_cover_refutes_gadget_cliff_within_100_nodes():
    gadget = gadget_add_unit(build_gadget(parse_dimacs(CLIFF)), -1)
    cover, explored = decide_cover_stats(gadget.graph, gadget.budget)
    assert cover is None and explored <= 100
    assert solve_dpll(gadget.source) is None
    assert solve_dpll(parse_dimacs(CLIFF)) is not None


def test_min_cover_monotone_under_edge_addition():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(2, 9)
        g = random_graph(rng, n, rng.randint(0, n * (n - 1) // 2 - 1))
        candidates = sorted(
            (u, v) for u in sorted(g.nodes) for v in sorted(g.nodes)
            if u < v and (u, v) not in g.edges
        )
        if not candidates:
            continue
        grown = add_edges(g, [rng.choice(candidates)])
        assert min_cover_brute(grown).size >= min_cover_brute(g).size


def test_warm_start_fast_path_returns_old_cover():
    g = graph(edges=[("a", "b"), ("b", "c")])
    grown = add_edges(g, [("a", "c")])
    old = frozenset({"a", "b"})
    outcome = warm_start_cover_stats(grown, old, [("a", "c")], 2)
    assert isinstance(outcome, ReuseOutcome) and outcome == ReuseOutcome(old, True, 1)


def test_warm_start_falls_back_when_edge_uncovered():
    g = graph(edges=[("a", "b"), ("c", "d")])
    grown = add_edges(g, [("c", "d")])  # old cover {a} misses it
    base = remove_edges(grown, [("c", "d")])
    assert is_cover(base, {"a"})
    got = warm_start_cover_stats(grown, {"a"}, [("c", "d")], 2)[0]
    assert got is not None and is_cover(grown, got) and len(got) <= 2
    assert warm_start_cover_stats(grown, {"a"}, [("c", "d")], 1)[0] is None


def test_warm_start_rejects_invalid_hint():
    g = graph(edges=[("a", "b"), ("b", "c")])
    with pytest.raises(InvalidHintError):
        warm_start_cover_stats(g, set(), [("b", "c")], 2)
    with pytest.raises(ValueError, match=r"added edges not present in the graph: \[\('a', 'c'\)\]"):
        warm_start_cover_stats(g, {"b"}, [("c", "a")], 2)
    with pytest.raises(ValueError, match=r"cover members outside the graph: \['z'\]"):
        warm_start_cover_stats(g, {"b", "z"}, [("b", "c")], 2)


@settings(max_examples=300, deadline=None)
@given(g=small_graphs(), data=st.data())
def test_warm_start_outcomes_follow_their_definitions(g, data):
    # Any node subset as the old cover, any subset of the edges as the
    # added ones (spelled either way round), any budget up to n.
    members = frozenset(data.draw(st.sets(st.sampled_from(sorted(g.nodes)))))
    added = data.draw(st.sets(st.sampled_from(sorted(g.edges)))) if g.edges else set()
    spelled = [(v, u) if data.draw(st.booleans()) else (u, v) for u, v in sorted(added)]
    budget = data.draw(st.integers(0, len(g.nodes)))
    if not is_cover(remove_edges(g, added), members):
        with pytest.raises(InvalidHintError, match="^old cover does not cover the pre-change graph$"):
            warm_start_cover_stats(g, members, spelled, budget)
        return
    outcome = warm_start_cover_stats(g, members, spelled, budget)
    assert outcome.hint_used == (is_cover(g, members) and len(members) <= budget)
    if outcome.hint_used:
        assert tuple(outcome) == (members, True, len(added))
    else:
        cover, explored = decide_cover_stats(g, budget)
        assert tuple(outcome) == (cover, False, explored)


def test_a_warm_start_hit_runs_no_search(monkeypatch):
    monkeypatch.setattr(graphs, "decide_cover_stats",
                        lambda g, budget: pytest.fail("a warm-start hit searched"))
    grown = graph(edges=[("a", "b"), ("b", "c"), ("a", "c")])
    old = frozenset({"a", "b"})
    assert warm_start_cover_stats(grown, old, [("c", "a")], 2) == ReuseOutcome(old, True, 1)


def test_warm_start_agrees_with_fresh_decision():
    rng = random.Random(23)
    for _ in range(200):
        n = rng.randint(2, 10)
        g = random_graph(rng, n, rng.randint(0, n * (n - 1) // 2 - 1))
        candidates = sorted(
            (u, v) for u in sorted(g.nodes) for v in sorted(g.nodes)
            if u < v and (u, v) not in g.edges
        )
        if not candidates:
            continue
        new_edge = rng.choice(candidates)
        old = min_cover_brute(g).cover
        grown = add_edges(g, [new_edge])
        for budget in (len(old), len(old) + 1):
            hinted = warm_start_cover_stats(grown, old, [new_edge], budget)[0]
            fresh = decide_cover(grown, budget)
            assert (hinted is None) == (fresh is None)
            if hinted is not None:
                assert is_cover(grown, hinted) and len(hinted) <= budget


def test_decide_cover_stats_counts_nodes():
    _, explored = decide_cover_stats(TRIANGLE, 2)
    assert explored >= 1


def test_edge_list_round_trip_with_isolated_nodes():
    g = graph(["lonely", "a", "b", "c"], [("a", "b"), ("b", "c")])
    text = serialize_edge_list(g)
    assert text == "lonely\na b\nb c\n"
    assert parse_edge_list(text) == g


def test_edge_list_empty_graph():
    assert serialize_edge_list(graph()) == ""
    assert parse_edge_list("") == graph()


@pytest.mark.parametrize("g", [graph(["#x"]), graph([], [("#a", "b")]), graph([""]),
                               graph(["a b"]), graph([1])])
def test_edge_list_refuses_labels_that_read_back_as_another_graph(g):
    with pytest.raises(ValueError, match="cannot be written"):
        serialize_edge_list(g)


def unwritable(label):
    return not label or label.startswith("#") or any(c.isspace() for c in label)


# Comment markers, spaces, tabs and newlines among ordinary characters.
EDGE_LABELS = st.text(alphabet="ab#_ \t\n", max_size=3)


@settings(max_examples=300, deadline=None)
@given(st.sets(EDGE_LABELS, max_size=5), st.lists(st.tuples(EDGE_LABELS, EDGE_LABELS), max_size=5))
def test_edge_list_round_trips_or_refuses(nodes, pairs):
    g = graph(nodes, [(u, v) for u, v in pairs if u != v])
    try:
        text = serialize_edge_list(g)
    except ValueError:
        assert any(map(unwritable, g.nodes))
    else:
        assert parse_edge_list(text) == g


def test_edge_list_rejects_malformed():
    with pytest.raises(ValueError):
        parse_edge_list("a b c\n")
    with pytest.raises(ValueError):
        parse_edge_list("a a\n")
