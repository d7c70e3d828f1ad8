"""Moment graphs of good toric varieties.

Vertices are the top-dimensional cones (torus fixed points); every wall
contributes an edge labelled, up to sign, by the primitive covector cutting
out its span.  Compact edges join two vertices; an edge over a boundary
wall keeps its single honest endpoint rather than a phantom vertex.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotGood
from .fan import Cone, Fan, walls
from .lattice import SublatticeClass


@dataclass(frozen=True)
class GraphEdge:
    endpoints: tuple[int, ...]        # one or two vertex ids
    label: tuple[int, ...]            # primitive covector, sign-normalized
    isotropy: SublatticeClass         # kernel sublattice of the label
    compact: bool


@dataclass(frozen=True)
class MomentGraph:
    ambient_rank: int
    vertices: tuple[Cone, ...]        # top cones, in canonical order
    edges: tuple[GraphEdge, ...]


def moment_graph(fan: Fan) -> MomentGraph:
    if not fan.is_good():
        raise NotGood("moment graphs are built for good fans")
    tops = fan.top_cones()
    index = {cone: i for i, cone in enumerate(tops)}
    edges = []
    for wall in walls(fan):
        edges.append(GraphEdge(
            # A wall's top cones come in sorted order, so their ids ascend.
            endpoints=tuple(index[c] for c in wall.upper),
            label=wall.normal,
            isotropy=wall.span,
            compact=wall.interior,
        ))
    return MomentGraph(ambient_rank=fan.ambient_rank, vertices=tops, edges=tuple(edges))


def to_dot(graph: MomentGraph) -> str:
    """Render the moment graph as DOT text; boundary edges dangle to a
    point-shaped phantom node so they stay visible."""
    lines = ["graph moment_graph {"]
    for i, cone in enumerate(graph.vertices):
        name = ",".join(str(r) for r in cone)
        lines.append(f'  v{i} [label="σ({name})"];')
    phantom = 0
    for e in graph.edges:
        label = "(" + ",".join(str(x) for x in e.label) + ")"
        if e.compact:
            a, b = e.endpoints
            lines.append(f'  v{a} -- v{b} [label="{label}"];')
        else:
            lines.append(f'  o{phantom} [shape=point, label=""];')
            lines.append(f'  v{e.endpoints[0]} -- o{phantom} [label="{label}", style=dashed];')
            phantom += 1
    lines.append("}")
    return "\n".join(lines) + "\n"
