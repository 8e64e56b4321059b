"""DOT rendering for cover gadgets, with node styling keyed by label role."""

from __future__ import annotations

from .gadgets import Gadget, node_role

_ROLE_STYLE = {
    "literal": 'shape=ellipse, style=filled, fillcolor="#aaccff"',
    "prime": 'shape=ellipse, style=filled, fillcolor="#dddddd"',
    "double_prime": 'shape=ellipse, style=filled, fillcolor="#ffffff"',
    "clause_member": 'shape=box, style=filled, fillcolor="#ffcc88"',
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
