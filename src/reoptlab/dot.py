"""DOT rendering for cover gadgets, with node styling keyed by label role."""

from __future__ import annotations

from .gadgets import ROLE_CLAUSE, ROLE_DOUBLE_PRIME, ROLE_LITERAL, ROLE_PRIME, Gadget, node_role

_ROLE_STYLE = {
    ROLE_LITERAL: 'shape=ellipse, style=filled, fillcolor="#aaccff"',
    ROLE_PRIME: 'shape=ellipse, style=filled, fillcolor="#dddddd"',
    ROLE_DOUBLE_PRIME: 'shape=ellipse, style=filled, fillcolor="#ffffff"',
    ROLE_CLAUSE: 'shape=box, style=filled, fillcolor="#ffcc88"',
}


def gadget_to_dot(g: Gadget) -> str:
    """Undirected DOT graph, nodes and edges in sorted order."""
    lines = ["graph gadget {"]
    lines.append(f'  label="cover budget {g.budget}";')
    for node in sorted(g.graph.nodes):
        style = _ROLE_STYLE.get(node_role(node), "")
        attrs = f" [{style}]" if style else ""
        lines.append(f'  "{node}"{attrs};')
    for u, v in sorted(g.graph.edges):
        lines.append(f'  "{u}" -- "{v}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
