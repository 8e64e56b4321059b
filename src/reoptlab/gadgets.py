"""Reduction from small-clause CNF to vertex cover, built for cheap edits.

Each variable x contributes six nodes: the literal nodes x and -x joined
by an edge, plus reserve nodes x', x'', -x', -x'' that make unit-clause
edits expressible as single edge additions.  A clause of two or three
literals becomes a clique whose members attach to their literal nodes; a
unit clause is just the edge between its literal node and the literal's
first reserve node.  With n variables, m literal occurrences and r
clauses, the graph has a vertex cover of n + m - r nodes exactly when the
formula is satisfiable.  A gadget holds only its graph and source: the
budget is derived from both, and a node's role is read off its label.
Clique ``c<i>`` is the i-th clause of two or three literals in
``clause_sort_key`` order; unit clauses take no index, so unit edits never
relabel a node and a loaded gadget must equal its rebuild exactly.

Edits keep that correspondence:

* adding the unit clause l adds the edge (l, l') and leaves the budget
  alone (the clause contributes one occurrence and one clause, a wash);
* removing the unit clause l adds the relaxing edge (l', l''), which the
  budget counts as one more node, freeing l' to neutralize (l, l');
* re-adding a previously removed unit deletes its (l', l'') edge again,
  restoring the original graph and budget, since the forcing edge is
  still in place and merely needs to bite.

An edit these rules cannot express (adding a unit already present or
over a variable outside the alphabet, removing an absent unit, editing a
clause that is not a unit) raises ``ValueError`` naming it.

``build_full_gadget`` instantiates the graph of *all* three-literal
clauses over an alphabet; ``project_formula`` then selects any concrete
formula by deleting clause-to-literal edges only, so every formula over
the alphabet is a subgraph of one fixed graph with one fixed budget.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import combinations

from .cnf import (ChangeSet, Clause, CnfFormula, apply_changes, clause, clause_sort_key, cnf,
                  is_tautology)
from .dimacs import parse_dimacs, serialize_dimacs
from .enumeration import all_clauses
from .errors import CONSTRUCTION_BUDGET, BudgetExceededError, unique_keys
from .graphs import Graph, add_edges, edge, graph, remove_edges

ROLE_LITERAL = "literal"
ROLE_PRIME = "prime"
ROLE_DOUBLE_PRIME = "double_prime"
ROLE_CLAUSE = "clause_member"
_LABEL = re.compile(r"-?x[1-9][0-9]*('{0,2})|c[1-9][0-9]*_[1-9][0-9]*")


def literal_node(lit: int) -> str:
    return f"x{lit}" if lit > 0 else f"-x{-lit}"


def prime_node(lit: int) -> str:
    return literal_node(lit) + "'"


def double_prime_node(lit: int) -> str:
    return literal_node(lit) + "''"


def clause_node(index: int, position: int) -> str:
    return f"c{index}_{position}"


def node_role(label: str) -> str | None:
    """The role a node label names, or None for a label outside the grammar."""
    match = _LABEL.fullmatch(label)
    if match is None:
        return None
    if match.group(1) is None:
        return ROLE_CLAUSE
    return (ROLE_LITERAL, ROLE_PRIME, ROLE_DOUBLE_PRIME)[len(match.group(1))]


@dataclass(frozen=True)
class Gadget:
    """A cover graph and the formula it encodes; the budget follows from both."""

    graph: Graph
    source: CnfFormula

    @property
    def budget(self) -> int:
        """|alphabet| + literal occurrences - |clauses| + relaxing edges present."""
        clauses = self.source.clauses
        relaxing = sum(edge(prime_node(lit), double_prime_node(lit)) in self.graph.edges
                       for v in self.source.alphabet for lit in (v, -v))
        return len(self.source.alphabet) + sum(map(len, clauses)) - len(clauses) + relaxing


def ordered_clauses(formula: CnfFormula) -> list[Clause]:
    """The clauses of more than one literal, the cliques, in ``clause_sort_key`` order."""
    return sorted((cl for cl in formula.clauses if len(cl) > 1), key=clause_sort_key)


def build_gadget(f: CnfFormula) -> Gadget:
    """Translate a formula; a clause outside 1..3 literals or a tautology raises ``ValueError``.

    A gadget of more than ``errors.CONSTRUCTION_BUDGET`` nodes raises
    ``BudgetExceededError`` before any node is made.
    """
    for cl in f.clauses:
        if not 1 <= len(cl) <= 3:
            raise ValueError(f"clause {cl} has {len(cl)} literals, need 1..3")
        if is_tautology(cl):
            raise ValueError(f"clause {cl} is tautological")
    size = 6 * len(f.alphabet) + sum(len(cl) for cl in f.clauses if len(cl) > 1)
    if size > CONSTRUCTION_BUDGET:
        raise BudgetExceededError(
            f"the gadget's {size} nodes exceed the construction budget of {CONSTRUCTION_BUDGET}")

    nodes: list[str] = []
    edges: list[tuple[str, str]] = []
    for v in sorted(f.alphabet):
        for lit in (v, -v):
            nodes.extend((literal_node(lit), prime_node(lit), double_prime_node(lit)))
        edges.append(edge(literal_node(v), literal_node(-v)))

    edges.extend(edge(literal_node(cl[0]), prime_node(cl[0])) for cl in f.clauses if len(cl) == 1)
    for index, cl in enumerate(ordered_clauses(f), start=1):
        members = [clause_node(index, pos) for pos in range(1, len(cl) + 1)]
        nodes.extend(members)
        edges.extend(edge(a, b) for a, b in combinations(members, 2))
        edges.extend(edge(member, literal_node(lit)) for member, lit in zip(members, cl))
    return Gadget(graph(nodes, edges), f)


def gadget_add_unit(g: Gadget, lit: int) -> Gadget:
    """Add the unit clause ``lit``: one new forcing edge (l, l').

    Re-adding a unit that was removed earlier instead deletes its relaxing
    edge (l', l''), which gives the budget increment back.
    """
    if abs(lit) not in g.source.alphabet:
        raise ValueError(f"variable {abs(lit)} is not in the gadget alphabet")
    unit = clause(lit)
    if unit in g.source.clauses:
        raise ValueError(f"unit clause {unit} already present")
    forcing = edge(literal_node(lit), prime_node(lit))
    relaxing = edge(prime_node(lit), double_prime_node(lit))
    if forcing not in g.graph.edges:
        new_graph = add_edges(g.graph, [forcing])
    elif relaxing not in g.graph.edges:
        raise AssertionError("inconsistent gadget: forcing edge without its unit or removal")
    else:
        new_graph = remove_edges(g.graph, [relaxing])
    return Gadget(new_graph, apply_changes(g.source, ChangeSet(additions=(unit,))))


def gadget_remove_unit(g: Gadget, lit: int) -> Gadget:
    """Remove the unit clause ``lit``: one new relaxing edge (l', l'')."""
    unit = clause(lit)
    if unit not in g.source.clauses:
        raise ValueError(f"unit clause {unit} not present")
    relaxing = edge(prime_node(lit), double_prime_node(lit))
    if relaxing in g.graph.edges:
        raise AssertionError("inconsistent gadget: unit present with its removal edge")
    return Gadget(add_edges(g.graph, [relaxing]),
                  apply_changes(g.source, ChangeSet(deletions=(unit,))))


def build_full_gadget(alphabet) -> Gadget:
    """Gadget of every three-literal clause over the alphabet.

    The node count depends only on the alphabet size, so any formula over
    the alphabet can be carved out of this one graph by edge deletions.
    """
    return build_gadget(cnf(all_clauses(alphabet, 3, 3), alphabet=alphabet))


def project_formula(full: Gadget, f: CnfFormula) -> Graph:
    """Select a formula inside a full gadget by deleting clause-literal edges.

    Edges between clause nodes and literal nodes are removed for every
    universe clause not in ``f``; cliques and variable edges stay, so the
    result is a subgraph of the full graph on the same nodes.  The cover
    threshold for the result is the full gadget's own budget: the graph
    has a cover of that size exactly when ``f`` is satisfiable.  A
    universe with unit clauses, or a clause of ``f`` outside it, raises
    ``ValueError``.
    """
    if any(len(cl) < 2 for cl in full.source.clauses):
        raise ValueError("projection requires a clique-only clause universe")
    missing = f.clauses - full.source.clauses
    if missing:
        raise ValueError(f"clauses outside the universe: {sorted(missing)}")
    doomed = []
    for index, cl in enumerate(ordered_clauses(full.source), start=1):
        if cl in f.clauses:
            continue
        members = [clause_node(index, pos) for pos in range(1, len(cl) + 1)]
        doomed.extend(edge(member, literal_node(lit)) for member, lit in zip(members, cl))
    return remove_edges(full.graph, doomed)


def apply_unit_changes(g: Gadget, changes: ChangeSet) -> Gadget:
    """Apply a change set of unit clauses as a sequence of gadget edits."""
    out = g
    for cl in changes.deletions:
        if len(cl) != 1:
            raise ValueError(f"only unit clauses can be edited, got {cl}")
        out = gadget_remove_unit(out, cl[0])
    for cl in changes.additions:
        if len(cl) != 1:
            raise ValueError(f"only unit clauses can be edited, got {cl}")
        out = gadget_add_unit(out, cl[0])
    return out


def gadget_to_json(g: Gadget) -> str:
    """Canonical JSON with the source formula embedded as DIMACS text."""
    obj = {
        "source": serialize_dimacs(g.source),
        "budget": g.budget,
        "nodes": sorted(g.graph.nodes),
        "edges": [list(e) for e in sorted(g.graph.edges)],
    }
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def gadget_from_json(text: str) -> Gadget:
    """Load a gadget, rejecting a ``"budget"`` other than the derived one
    and a graph that the library's own build and unit edits do not produce.

    A removed unit is a literal l whose unit clause the source lacks but
    whose relaxing edge (l', l'') is present.  The graph must equal that
    of ``build_gadget`` over the source plus the removed units, after
    ``apply_unit_changes`` deletes those units again.

    The alphabet is the DIMACS variables that have literal nodes, since the
    header keeps only the largest variable id.  Any other key, such as the
    role map of older files, is ignored.
    """
    obj = json.loads(text, object_pairs_hook=unique_keys)
    try:
        g = Graph(frozenset(obj["nodes"]), frozenset(edge(u, v) for u, v in obj["edges"]))
        parsed = parse_dimacs(obj["source"])
        budget = obj["budget"]
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"missing or malformed gadget field: {exc}") from None
    alphabet = frozenset(v for v in parsed.alphabet if literal_node(v) in g.nodes)
    gadget = Gadget(g, CnfFormula(alphabet, parsed.clauses))
    if budget != gadget.budget:
        raise ValueError(f"gadget budget {budget!r} contradicts its source and graph "
                         f"(expected {gadget.budget})")
    removed = [clause(lit) for v in sorted(alphabet) for lit in (v, -v)
               if clause(lit) not in parsed.clauses
               and edge(prime_node(lit), double_prime_node(lit)) in g.edges]
    history = CnfFormula(alphabet, parsed.clauses.union(removed))
    rebuilt = apply_unit_changes(build_gadget(history), ChangeSet(deletions=tuple(removed)))
    if g != rebuilt.graph:
        raise ValueError("gadget edges contradict its source")
    return gadget
