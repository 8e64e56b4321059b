"""Undirected graphs, vertex-cover checking and two exact cover solvers.

Node ids are opaque, whitespace-free string labels so that construction
roles stay directly addressable in tests and DOT output.  The exhaustive
minimum-cover search is the oracle; the budgeted branch-and-bound answers
the at-most-k decision on graphs too large for subset enumeration.  It
cuts a search node when a packing of disjoint triangles and edges already
needs more cover nodes than the budget left, which refutes a CNF gadget
one node short (a union of such cliques) in a few dozen nodes.  It keeps
its own stack, so long paths do not hit the recursion limit, and it
returns the same cover as the search without the bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

from .errors import BudgetExceededError, InvalidHintError
from .hints import ReuseOutcome

COVER_ORACLE_LIMIT = 24

Edge = tuple[str, str]


class UnknownNodeError(ValueError):
    """A referenced node is not part of the graph."""


def edge(u: str, v: str) -> Edge:
    """Canonical unordered edge; self-loops are rejected."""
    if u == v:
        raise ValueError(f"self-loop at {u!r}")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    nodes: frozenset[str]
    edges: frozenset[Edge]

    def __post_init__(self):
        for u, v in self.edges:
            if u >= v:
                raise ValueError(f"edge ({u!r}, {v!r}) is not in canonical order")
            if u not in self.nodes or v not in self.nodes:
                raise UnknownNodeError(f"edge ({u!r}, {v!r}) has an endpoint outside the node set")


def graph(nodes=(), edges=()) -> Graph:
    """Build a graph; endpoints are added to the node set automatically."""
    canonical = frozenset(edge(u, v) for u, v in edges)
    all_nodes = frozenset(nodes) | {n for e in canonical for n in e}
    return Graph(all_nodes, canonical)


def add_edges(g: Graph, pairs) -> Graph:
    canonical = frozenset(edge(u, v) for u, v in pairs)
    return Graph(g.nodes | {n for e in canonical for n in e}, g.edges | canonical)


def remove_edges(g: Graph, pairs) -> Graph:
    canonical = frozenset(edge(u, v) for u, v in pairs)
    return Graph(g.nodes, g.edges - canonical)


def is_cover(g: Graph, candidate) -> bool:
    """True iff every edge has at least one endpoint in the candidate set."""
    members = frozenset(candidate)
    unknown = members - g.nodes
    if unknown:
        raise UnknownNodeError(f"cover members outside the graph: {sorted(unknown)}")
    return all(u in members or v in members for u, v in g.edges)


class MinCover(NamedTuple):
    size: int
    cover: frozenset[str]


def min_cover_brute(g: Graph) -> MinCover:
    """Exhaustive minimum vertex cover, by subsets of increasing size.

    Among covers of minimum size the lexicographically least node set is
    returned, which makes oracle outputs reproducible golden values.
    """
    if len(g.nodes) > COVER_ORACLE_LIMIT:
        raise BudgetExceededError(
            f"{len(g.nodes)} nodes exceed the exhaustive limit of {COVER_ORACLE_LIMIT}")
    order = sorted(g.nodes)
    edge_list = list(g.edges)
    for size in range(len(order) + 1):
        for combo in combinations(order, size):
            members = set(combo)
            if all(u in members or v in members for u, v in edge_list):
                return MinCover(size, frozenset(members))
    raise AssertionError("the full node set always covers")  # pragma: no cover


def decide_cover(g: Graph, budget: int) -> frozenset[str] | None:
    """A vertex cover of size at most ``budget``, or None if none exists."""
    return decide_cover_stats(g, budget)[0]


def decide_cover_stats(g: Graph, budget: int) -> tuple[frozenset[str] | None, int]:
    """Branch-and-bound at-most-k cover decision; returns (cover, nodes explored).

    Branching picks the highest-degree node u of the live graph (ties
    broken by smallest label) and tries "u in the cover" before "u
    excluded, so all of u's neighbours are in the cover", the second only
    when u has at most k neighbours.  The search runs on an explicit stack
    with an undo trail, so its depth is not limited by recursion.

    A search node is cut when a packing of vertex-disjoint cliques in its
    live graph needs more than k cover nodes (a clique of s nodes needs
    s - 1).  The packing is greedy, triangles before edges: one is built
    once at the root, its live part is kept up to date in O(1) per removed
    node, and each search node extends it greedily over the live nodes it
    no longer covers.  A cut subtree holds no cover within budget, so the
    depth-first search reaches the same first cover as without the bound,
    and the witness does not change.  ``explored`` counts the search nodes
    entered, cut ones included.
    """
    if budget < 0:
        raise ValueError("budget must be non-negative")
    labels = sorted(g.nodes)
    index = {label: i for i, label in enumerate(labels)}
    adj: list[set[int]] = [set() for _ in labels]
    # In label order: the order of each set, and with it the search, must
    # not depend on the per-process salt of string hashes.
    for u, v in sorted(g.edges):
        adj[index[u]].add(index[v])
        adj[index[v]].add(index[u])
    # Live nodes with at least one live edge; isolated ones never matter.
    active = {i for i, nbrs in enumerate(adj) if nbrs}
    # Root packing: every node starts as its own singleton clique.  Its
    # bound counts live members minus one over cliques with a live member.
    clique_of = list(range(len(labels)))
    live_in = [1] * len(labels)
    root_bound = 0
    by_degree = sorted(active, key=lambda i: (len(adj[i]), i))
    for members in _greedy_cliques(adj, by_degree):
        for i in members:
            clique_of[i] = len(live_in)
        live_in.append(len(members))
        root_bound += len(members) - 1
    trail: list[int] = []  # removed nodes, all in the cover, in removal order
    stack: list[tuple[int, tuple[int, ...], int]] = [(0, (), budget)]
    explored = 0
    while stack:
        mark, take, k = stack.pop()
        while len(trail) > mark:
            node = trail.pop()
            c = clique_of[node]
            live_in[c] += 1
            if live_in[c] > 1:
                root_bound += 1
            if adj[node]:
                active.add(node)
            for other in adj[node]:
                if not adj[other]:
                    active.add(other)
                adj[other].add(node)
        for node in take:
            trail.append(node)
            c = clique_of[node]
            live_in[c] -= 1
            if live_in[c] > 0:
                root_bound -= 1
            active.discard(node)
            for other in adj[node]:
                adj[other].discard(node)
                if not adj[other]:
                    active.discard(other)
        explored += 1
        if not active:
            return frozenset(labels[i] for i in trail), explored
        if root_bound > k:
            continue
        pick, degree = -1, 0
        uncovered = []  # live nodes whose root clique has no other live member
        for node in active:
            d = len(adj[node])
            if d > degree or (d == degree and node < pick):
                pick, degree = node, d
            if live_in[clique_of[node]] == 1:
                uncovered.append(node)
        if _packing_exceeds(adj, uncovered, k - root_bound):
            continue
        mark = len(trail)
        if degree <= k:
            stack.append((mark, tuple(adj[pick]), k - degree))
        stack.append((mark, (pick,), k - 1))
    return None, explored


def _greedy_cliques(adj: list[set[int]], order: list[int]):
    """Disjoint triangles, then edges, among ``order``'s nodes, taken greedily in that order."""
    free = set(order)
    for u in order:
        if u not in free:
            continue
        near = adj[u] & free
        for v in near:
            common = adj[v] & near
            if common:
                w = min(common)
                free -= {u, v, w}
                yield (u, v, w)
                break
    for u in order:
        if u not in free:
            continue
        for v in adj[u]:
            if v in free:
                free -= {u, v}
                yield (u, v)
                break


def _packing_exceeds(adj: list[set[int]], order: list[int], k: int) -> bool:
    """True when the greedy clique packing of ``order``'s nodes needs more than k cover nodes."""
    total = 0
    for clique in _greedy_cliques(adj, order):
        total += len(clique) - 1
        if total > k:
            return True
    return False


def warm_start_cover_stats(g, old_cover, added_edges, budget: int) -> ReuseOutcome:
    """Reuse a cover of the pre-change graph, falling back to a fresh decision.

    ``old_cover`` must cover the graph minus ``added_edges``.  When it also
    covers the added edges and fits the budget it is returned unchanged,
    and ``work_units`` is the number of added edges; otherwise the full
    graph is re-decided, and ``work_units`` is the search nodes explored.
    """
    members = frozenset(old_cover)
    added = frozenset(edge(u, v) for u, v in added_edges)
    stray = added - g.edges
    if stray:
        raise ValueError(f"added edges not present in the graph: {sorted(stray)}")
    unknown = members - g.nodes
    if unknown:
        raise UnknownNodeError(f"cover members outside the graph: {sorted(unknown)}")
    base = g.edges - added
    if not all(u in members or v in members for u, v in base):
        raise InvalidHintError("old cover does not cover the pre-change graph")
    if len(members) <= budget and all(u in members or v in members for u, v in added):
        return ReuseOutcome(members, True, len(added))
    cover, explored = decide_cover_stats(g, budget)
    return ReuseOutcome(cover, False, explored)


def serialize_edge_list(g: Graph) -> str:
    """Edge-list text: isolated nodes one per line, then "u v" pairs.

    Raises ``ValueError`` on a label that would read back as another
    graph: one that is not a string, an empty one, one holding whitespace
    (the parser splits on it) or one starting with ``#`` (a comment line).
    """
    for label in sorted(g.nodes, key=repr):
        if not isinstance(label, str) or label.split() != [label] or label.startswith("#"):
            raise ValueError(f"node label {label!r} cannot be written to an edge list")
    touched = {n for e in g.edges for n in e}
    lines = sorted(g.nodes - touched)
    lines += [f"{u} {v}" for u, v in sorted(g.edges)]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_edge_list(text: str) -> Graph:
    nodes = set()
    edges = set()
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) == 1:
            nodes.add(parts[0])
        elif len(parts) == 2:
            edges.add(edge(parts[0], parts[1]))
        else:
            raise ValueError(f"malformed edge line: {line!r}")
    return graph(nodes, edges)
