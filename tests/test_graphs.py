import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reoptlab.dimacs import parse_dimacs
from reoptlab.enumeration import random_graph
from reoptlab.errors import InvalidHintError
from reoptlab.gadgets import build_gadget, gadget_add_unit
from reoptlab.graphs import (
    Graph,
    GraphTooLargeError,
    UnknownNodeError,
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


def test_graph_factory_absorbs_endpoints():
    g = graph(["x"], [("b", "a")])
    assert g.nodes == frozenset({"x", "a", "b"})
    assert g.edges == frozenset({("a", "b")})


def test_graph_rejects_unknown_endpoint():
    with pytest.raises(UnknownNodeError):
        Graph(frozenset({"a"}), frozenset({("a", "b")}))


def test_is_cover():
    assert is_cover(graph(), set())
    assert not is_cover(TRIANGLE, {"a"})
    assert is_cover(TRIANGLE, {"a", "b"})
    with pytest.raises(UnknownNodeError):
        is_cover(TRIANGLE, {"z"})


def test_min_cover_empty_graph():
    assert min_cover_brute(graph()) == (0, frozenset())


def test_min_cover_single_edge_prefers_lex_least():
    size, cover = min_cover_brute(graph(edges=[("u", "v")]))
    assert (size, cover) == (1, frozenset({"u"}))


def test_min_cover_limit():
    wide = graph([f"n{i}" for i in range(25)])
    with pytest.raises(GraphTooLargeError):
        min_cover_brute(wide)
    assert min_cover_brute(wide, limit=25).size == 0


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
    cover, hint_used, work = warm_start_cover_stats(grown, old, [("a", "c")], 2)
    assert cover == old and hint_used and work == 1


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


def test_edge_list_rejects_malformed():
    with pytest.raises(ValueError):
        parse_edge_list("a b c\n")
    with pytest.raises(ValueError):
        parse_edge_list("a a\n")
