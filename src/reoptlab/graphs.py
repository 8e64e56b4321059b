"""Undirected graphs, vertex-cover checking and two exact cover solvers.

Node ids are opaque, whitespace-free string labels so that construction
roles stay directly addressable in tests and DOT output.  The exhaustive
minimum-cover search is the oracle; the budgeted branch-and-bound answers
the at-most-k decision on graphs too large for subset enumeration.  It
runs on integer node masks: each node's neighbours are one mask, live
degrees are a bit-sliced counter over them, and every stack entry holds
its whole state, so long paths do not hit the recursion limit.  It cuts
a search node when a packing of disjoint triangles and edges, built with
the graph and inherited down the search path, already needs more cover
nodes than the budget left, which refutes a CNF gadget one node short (a
union of such cliques) in a few dozen nodes.  The cut removes only
subtrees without a cover, so the search returns the same cover as
without it.  Past ``COVER_SEARCH_BUDGET`` search nodes it gives up.

Each graph carries the search's root state, ``Graph.cover_index``, built
when the graph is built: the sorted labels, the neighbour masks, the
degree counter and the root packing.  A search builds nothing before its
stack: the cost of the index sits in construction, which every command
that only parses a graph pays too.  A graph of more than
``MAX_COVER_GRAPH_NODES`` nodes carries no index, and the search
refuses it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import NamedTuple, Sequence

from .errors import BudgetExceededError, InvalidHintError, SearchBudgetError
from .hints import ReuseOutcome

COVER_ORACLE_LIMIT = 24
# The most search nodes one at-most-k cover decision may enter.
COVER_SEARCH_BUDGET = 1_000_000
# The most graph nodes a cover search takes: each level of its stack holds
# masks of one bit per node and may copy a list of one entry per node.
MAX_COVER_GRAPH_NODES = 1 << 13

Edge = tuple[str, str]


def edge(u: str, v: str) -> Edge:
    """Canonical unordered edge; self-loops are rejected."""
    if u == v:
        raise ValueError(f"self-loop at {u!r}")
    return (u, v) if u < v else (v, u)


class CoverIndex(NamedTuple):
    """The cover search's root state, a function of the graph alone.

    Node ``i`` is ``labels[i]`` and bit ``i`` of every mask.  ``adjm[i]``
    is node i's neighbour mask; bit i of ``planes[j]`` is bit j of node
    i's degree.  ``free``, ``bound`` and ``clique`` are the root clique
    packing (see ``decide_cover_stats``).  Every call on the graph shares
    it, so it is kept in tuples and never changed in place.
    """

    labels: tuple[str, ...]
    adjm: tuple[int, ...]
    planes: tuple[int, ...]
    free: int
    bound: int
    clique: tuple[int, ...]


@dataclass(frozen=True)
class Graph:
    """Nodes and canonical edges, each endpoint in the node set.

    ``cover_index`` is a function of the two and takes no part in ``==``,
    ``hash`` or ``repr``.  It is ``None`` exactly when the graph has more
    than ``MAX_COVER_GRAPH_NODES`` nodes, which alone decides the cover
    search's refusal.  It is built eagerly, never cached lazily on first
    use: a lazy cache would charge the set-up to whichever search came
    first and make every later search of the same graph look free, where
    the cost belongs to building the graph.
    """

    nodes: frozenset[str]
    edges: frozenset[Edge]
    cover_index: CoverIndex | None = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        for u, v in self.edges:
            if u >= v or u not in self.nodes or v not in self.nodes:
                break
        else:
            object.__setattr__(self, "cover_index", _cover_index(self.nodes, self.edges))
            return
        # Set order follows the hash salt, so the error names the least bad edge.
        for u, v in sorted(self.edges):
            if u >= v:
                raise ValueError(f"edge ({u!r}, {v!r}) is not in canonical order")
            if u not in self.nodes or v not in self.nodes:
                raise ValueError(f"edge ({u!r}, {v!r}) has an endpoint outside the node set")


def _cover_index(nodes: frozenset[str], edges: frozenset[Edge]) -> CoverIndex | None:
    """``Graph.cover_index`` of checked nodes and edges; ``None`` past ``MAX_COVER_GRAPH_NODES``."""
    if len(nodes) > MAX_COVER_GRAPH_NODES:
        return None
    labels = sorted(nodes)
    index = {label: i for i, label in enumerate(labels)}
    adjm = [0] * len(labels)
    for u, v in edges:
        i, j = index[u], index[v]
        adjm[i] |= 1 << j
        adjm[j] |= 1 << i
    by_degree = [0] * (len(labels) + 1)  # by_degree[d]: the mask of nodes of degree d
    for i, nbrs in enumerate(adjm):
        by_degree[nbrs.bit_count()] |= 1 << i
    planes = []
    for d, group in enumerate(by_degree):
        if group:
            planes += [0] * (d.bit_length() - len(planes))
            for j in range(d.bit_length()):
                if d >> j & 1:
                    planes[j] |= group
    live = (1 << len(labels)) - 1
    # The free nodes are those outside a clique with another live member;
    # clique[i] is the mask of i's packed clique, stale once i is free.
    free, bound, clique = _pack(adjm, live, live, by_degree[1:], (0,) * len(labels), 0)
    return CoverIndex(tuple(labels), tuple(adjm), tuple(planes), free, bound, tuple(clique))


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
        raise ValueError(f"cover members outside the graph: {sorted(unknown)}")
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

    Node ``i`` is the ``i``-th label in sorted order and bit ``i`` of
    every mask.  Branching picks the highest-degree node u of the live
    graph (ties broken by smallest label) and tries "u in the cover"
    before "u excluded, so all of u's neighbours are in the cover", the
    second only when u has at most k neighbours.  Live degrees are kept
    bit-sliced: bit i of ``planes[j]`` is bit j of node i's live degree,
    so removing a node subtracts its live neighbour mask from the planes
    with a borrow, and the pick is one top-down pass over them.  Every
    stack entry carries its whole search state: masks, counts, and
    sequences that are copied before they change, never changed in place.
    A backtrack is therefore a pop, and the search depth is not limited
    by recursion.  The root state is the graph's ``cover_index``, built
    with the graph, so the search builds nothing before its stack.

    A search node is cut when a packing of vertex-disjoint cliques in its
    live graph needs more than k cover nodes (a clique whose live part
    has s nodes needs s - 1).  The packing is greedy, triangles before
    edges, built with the graph from the lowest-degree nodes up and
    inherited down the search path: a removed node lowers the bound only
    when its clique still had another live member, and only the mates it
    leaves alone are offered to new cliques.  After each extension the live nodes outside a clique of two
    or more live members are independent, so every live edge counts
    toward the bound.  A cut subtree therefore holds no cover within
    budget, the depth-first search reaches the same first cover as
    without the bound, and the witness does not change.  ``explored``
    counts the search nodes entered, cut ones included; past
    ``COVER_SEARCH_BUDGET`` of them it raises ``SearchBudgetError``.  A
    graph without an index (more than ``MAX_COVER_GRAPH_NODES`` nodes)
    raises ``BudgetExceededError``.
    """
    if budget < 0:
        raise ValueError("budget must be non-negative")
    if g.cover_index is None:
        raise BudgetExceededError(f"{len(g.nodes)} graph nodes exceed the cover search limit "
                                  f"of {MAX_COVER_GRAPH_NODES}")
    cap = COVER_SEARCH_BUDGET
    labels, adjm, planes, free, bound, clique = g.cover_index
    live = (1 << len(labels)) - 1
    stack = [(live, planes, budget, bound, free, clique, 0)]
    explored = 0
    while stack:
        live, planes, k, bound, free, clique, take = stack.pop()
        explored += 1
        if explored > cap:
            raise SearchBudgetError(f"more than {cap} cover search nodes explored")
        if take:
            alone = 0  # live nodes whose clique loses its last other live member
            rest = take
            while rest:
                low = rest & -rest
                rest ^= low
                live ^= low
                mates = clique[low.bit_length() - 1] & live
                if mates:
                    bound -= 1
                    if not mates & (mates - 1):
                        alone |= mates
            if bound > k:
                continue
            planes = list(planes)  # the root's planes are a shared tuple
            while take:
                low = take & -take
                take ^= low
                borrow = adjm[low.bit_length() - 1] & live
                for j, plane in enumerate(planes):
                    if not borrow:
                        break
                    planes[j] = plane ^ borrow
                    borrow &= ~plane
            if alone:
                free, bound, clique = _pack(adjm, live, free | alone, (alone,), clique, bound)
                if bound > k:
                    continue
        elif bound > k:
            continue
        active = 0
        for plane in planes:
            active |= plane
        active &= live
        if not active:
            return frozenset(labels[i] for i in range(len(labels)) if not live >> i & 1), explored
        degree = 0
        for j in range(len(planes) - 1, -1, -1):
            top = active & planes[j]
            if top:
                active = top
                degree |= 1 << j
        pick = active & -active
        if degree <= k:
            stack.append((live, planes, k - degree, bound, free, clique, adjm[pick.bit_length() - 1] & live))
        stack.append((live, planes, k - 1, bound, free, clique, pick))
    return None, explored


def _pack(adjm: Sequence[int], live: int, free: int, seeds: Sequence[int],
          clique: Sequence[int], bound: int):
    """Extend a clique packing greedily with triangles, then edges, each through a node of ``seeds``.

    ``seeds`` is a sequence of masks, taken in order and each from its
    lowest bit up; only live nodes of ``free`` join a new clique.  Returns
    the free mask, the bound raised by s - 1 per new clique of s nodes,
    and ``clique``, copied to a list before its first change (it may be
    the graph's shared tuple, whose ``[:]`` is itself).
    """
    copied = False
    unpaired = []  # seeds with a free neighbour but no triangle, for the edge pass
    for group in seeds:
        rest = group & free & live
        while rest:
            low = rest & -rest
            rest ^= low
            if not free & low:
                continue
            near = adjm[low.bit_length() - 1] & free & live
            scan = near if near & (near - 1) else 0
            while scan:
                other = scan & -scan
                scan ^= other
                common = adjm[other.bit_length() - 1] & near
                if common:
                    break
            else:
                if near:
                    unpaired.append(low)
                continue
            third = common & -common
            members = low | other | third
            if not copied:
                clique, copied = list(clique), True
            free &= ~members
            bound += 2
            for bit in (low, other, third):
                clique[bit.bit_length() - 1] = members
    for low in unpaired:
        if free & low:
            near = adjm[low.bit_length() - 1] & free & live
            if near:
                other = near & -near
                members = low | other
                if not copied:
                    clique, copied = list(clique), True
                free &= ~members
                bound += 1
                clique[low.bit_length() - 1] = clique[other.bit_length() - 1] = members
    return free, bound, clique


def warm_start_cover_stats(g, old_cover, added_edges, budget: int) -> ReuseOutcome:
    """Reuse a cover of the pre-change graph, falling back to a fresh decision.

    ``old_cover`` must cover the graph minus ``added_edges``.  One pass over
    the graph's edges collects those the old cover misses: any of them
    not added breaks that precondition.  When none is missed and the
    cover fits the budget it is returned unchanged, and ``work_units`` is
    the number of added edges; otherwise the full graph is re-decided,
    and ``work_units`` is the search nodes explored.
    """
    members = frozenset(old_cover)
    added = frozenset(edge(u, v) for u, v in added_edges)
    stray = added - g.edges
    if stray:
        raise ValueError(f"added edges not present in the graph: {sorted(stray)}")
    unknown = members - g.nodes
    if unknown:
        raise ValueError(f"cover members outside the graph: {sorted(unknown)}")
    missed = {e for e in g.edges if e[0] not in members and e[1] not in members}
    if not missed <= added:
        raise InvalidHintError("old cover does not cover the pre-change graph")
    if not missed and len(members) <= budget:
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
