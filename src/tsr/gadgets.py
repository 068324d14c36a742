"""Gadget constructors with seed-projection maps.

Each constructor grafts a fixed subgraph onto a host graph, assigns the new
vertices the next available ids, and records the labeling in a GadgetMap so
seed sets can be projected back and forth.
"""

from __future__ import annotations

import dataclasses

from .errors import NotA33Vertex, SameVertex, UnknownVertex
from .graph import PlainGraph, ThresholdGraph

ONEWAY = "oneway"
UPSILON = "upsilon"
THETA = "theta"
XI = "xi"
SIGMA = "sigma"
SUBDIVISION = "subdivision"


@dataclasses.dataclass(frozen=True)
class GadgetMap:
    """Labeling of one gadget application.

    ``anchors`` names the pre-existing vertices the gadget touches;
    ``named_internals`` maps the construction's vertex labels to fresh ids;
    ``m_set`` is the gadget's frozen seed block where one exists (the
    canonical minimum of a theta or sigma gadget).
    """

    kind: str
    anchors: dict[str, int]
    named_internals: dict[str, int]
    m_set: frozenset[int] | None = None

    @property
    def internal_vertices(self) -> frozenset[int]:
        return frozenset(self.named_internals.values())


def _extend(g: ThresholdGraph, new_tau: list[int], new_edges, tau_overrides=None) -> ThresholdGraph:
    tau = [g.tau[v] for v in g.vertices] + new_tau
    if tau_overrides:
        for v, t in tau_overrides.items():
            tau[v - 1] = t
    return ThresholdGraph.build(g.n + len(new_tau), list(g.edges) + list(new_edges), tau)


def attach_oneway(g: ThresholdGraph, v: int, w: int) -> tuple[ThresholdGraph, GadgetMap]:
    """One-way gadget connecting from v to w: v activates it, w does not.

    Internals t, h, b1, b2 with tau(h)=2 and the others 1; edges (t,b1),
    (t,b2), (h,b1), (h,b2) plus the hookups (v,t) and (w,h).
    """
    g.check_vertex(v)
    g.check_vertex(w)
    if v == w:
        raise UnknownVertex(f"one-way gadget needs distinct endpoints, got {v} twice")
    t, h, b1, b2 = g.n + 1, g.n + 2, g.n + 3, g.n + 4
    edges = [(t, b1), (t, b2), (h, b1), (h, b2), (v, t), (w, h)]
    out = _extend(g, [1, 2, 1, 1], edges)
    gmap = GadgetMap(
        kind=ONEWAY,
        anchors={"v": v, "w": w},
        named_internals={"t": t, "h": h, "b1": b1, "b2": b2},
    )
    return out, gmap


def oneway_gadget() -> tuple[ThresholdGraph, GadgetMap]:
    """The bare four-vertex one-way gadget (t=1, h=2, b1=3, b2=4)."""
    g = ThresholdGraph.build(4, [(1, 3), (1, 4), (2, 3), (2, 4)], [1, 2, 1, 1])
    gmap = GadgetMap(
        kind=ONEWAY, anchors={}, named_internals={"t": 1, "h": 2, "b1": 3, "b2": 4}
    )
    return g, gmap


_UPSILON_LABELS = (
    "v_x", "v_y", "v_xy", "v_z", "wbar", "v_w",
    "t_x", "h_x", "b_x1", "b_x2", "t_y", "h_y", "b_y1", "b_y2",
)
_UPSILON_TAU = (1, 1, 2, 1, 2, 1, 1, 2, 1, 1, 1, 2, 1, 1)


def replace_upsilon(g: ThresholdGraph, w: int) -> tuple[ThresholdGraph, GadgetMap]:
    """Replace a (3,3)-vertex and its edges by the planarity-preserving gadget.

    The roles x < y < z are the sorted neighbors of w.  Afterwards w is a
    (3,2)-vertex and the key residual identity holds: activating {w} leaves
    the same residual as in the original graph.
    """
    g.check_vertex(w)
    nbrs = g.adj[w]
    if len(nbrs) != 3 or g.tau[w] != 3:
        raise NotA33Vertex(
            f"vertex {w} is a ({len(nbrs)},{g.tau[w]})-vertex, needs (3,3)"
        )
    x, y, z = nbrs
    ids = {lbl: g.n + i + 1 for i, lbl in enumerate(_UPSILON_LABELS)}
    v_x, v_y, v_xy = ids["v_x"], ids["v_y"], ids["v_xy"]
    v_z, wbar, v_w = ids["v_z"], ids["wbar"], ids["v_w"]
    t_x, h_x, b_x1, b_x2 = ids["t_x"], ids["h_x"], ids["b_x1"], ids["b_x2"]
    t_y, h_y, b_y1, b_y2 = ids["t_y"], ids["h_y"], ids["b_y1"], ids["b_y2"]
    edges = [e for e in g.edges if w not in e]
    edges += [(x, v_x), (y, v_y), (v_x, v_xy), (v_y, v_xy)]
    edges += [(v_w, w), (v_w, wbar), (w, v_z), (wbar, v_z), (v_w, v_xy), (v_z, z)]
    edges += [(t_x, b_x1), (t_x, b_x2), (h_x, b_x1), (h_x, b_x2), (b_x1, b_x2),
              (w, t_x), (v_x, h_x)]
    edges += [(t_y, b_y1), (t_y, b_y2), (h_y, b_y1), (h_y, b_y2), (b_y1, b_y2),
              (wbar, t_y), (v_y, h_y)]
    tau = [g.tau[u] for u in g.vertices] + list(_UPSILON_TAU)
    tau[w - 1] = 2
    out = ThresholdGraph.build(g.n + 14, edges, tau)
    gmap = GadgetMap(
        kind=UPSILON,
        anchors={"w": w, "x": x, "y": y, "z": z},
        named_internals=ids,
    )
    return out, gmap


_THETA_LABELS = tuple(f"t_{i}_{j}" for i in (1, 2) for j in range(1, 7)) + ("r",)


def _theta_edges(ids: dict[str, int]) -> list[tuple[int, int]]:
    edges = []
    for i in (1, 2):
        for j in range(1, 7):
            edges.append((ids[f"t_{i}_{j}"], ids[f"t_{i}_{j % 6 + 1}"]))
    for j in range(1, 7):
        edges.append((ids[f"t_1_{j}"], ids[f"t_2_{j}"]))
    edges.append((ids["t_2_3"], ids["t_2_6"]))
    edges.append((ids["r"], ids["t_1_1"]))
    edges.append((ids["r"], ids["t_1_5"]))
    return edges


def attach_theta(g: ThresholdGraph, v: int) -> tuple[ThresholdGraph, GadgetMap]:
    """Connect a theta gadget (hexagonal prism + chord + apex) to vertex v.

    All 13 new vertices have threshold 2; v's threshold rises by 1.  The
    returned map carries the gadget's frozen minimum M = {r, t_{1,2}, t_{2,3}}.
    """
    g.check_vertex(v)
    ids = {lbl: g.n + i + 1 for i, lbl in enumerate(_THETA_LABELS)}
    edges = _theta_edges(ids) + [(ids["r"], v)]
    out = _extend(g, [2] * 13, edges, tau_overrides={v: g.tau[v] + 1})
    gmap = GadgetMap(
        kind=THETA,
        anchors={"v": v},
        named_internals=ids,
        m_set=frozenset({ids["r"], ids["t_1_2"], ids["t_2_3"]}),
    )
    return out, gmap


def theta_gadget(r_tau: int = 2) -> tuple[ThresholdGraph, GadgetMap]:
    """Standalone theta gadget; ``r_tau=1`` gives the reduced-apex variant."""
    ids = {lbl: i + 1 for i, lbl in enumerate(_THETA_LABELS)}
    tau = [2] * 12 + [r_tau]
    g = ThresholdGraph.build(13, _theta_edges(ids), tau)
    gmap = GadgetMap(
        kind=THETA,
        anchors={},
        named_internals=ids,
        m_set=frozenset({ids["r"], ids["t_1_2"], ids["t_2_3"]}),
    )
    return g, gmap


_XI_LABELS = ("a1", "b1", "c1", "d1", "a2", "b2", "c2", "d2")


def _xi_edges(ids: dict[str, int]) -> list[tuple[int, int]]:
    e = []
    for s in ("1", "2"):
        a, b, c, d = ids["a" + s], ids["b" + s], ids["c" + s], ids["d" + s]
        e += [(a, b), (b, c), (c, d), (d, a)]
    e += [(ids["b1"], ids["b2"]), (ids["c1"], ids["c2"]), (ids["d1"], ids["d2"])]
    return e


def connect_xi(g: ThresholdGraph, v1: int, v2: int) -> tuple[ThresholdGraph, GadgetMap]:
    """Connect a xi gadget (two rung-linked 4-cycles) between v1 and v2.

    tau(a_i)=2, the other internals 1; both endpoint thresholds rise by 1.
    Activating any single internal vertex soaks up the whole gadget and
    nothing else, so minimum target sets carry exactly one internal token.
    """
    g.check_vertex(v1)
    g.check_vertex(v2)
    if v1 == v2:
        raise SameVertex(f"xi gadget needs two distinct vertices, got {v1}")
    ids = {lbl: g.n + i + 1 for i, lbl in enumerate(_XI_LABELS)}
    edges = _xi_edges(ids) + [(v1, ids["a1"]), (v2, ids["a2"])]
    out = _extend(
        g,
        [2, 1, 1, 1, 2, 1, 1, 1],
        edges,
        tau_overrides={v1: g.tau[v1] + 1, v2: g.tau[v2] + 1},
    )
    gmap = GadgetMap(
        kind=XI,
        anchors={"v1": v1, "v2": v2},
        named_internals=ids,
    )
    return out, gmap


def xi_gadget() -> tuple[ThresholdGraph, GadgetMap]:
    """Standalone xi gadget on ids a1..d1 = 1..4, a2..d2 = 5..8."""
    ids = {lbl: i + 1 for i, lbl in enumerate(_XI_LABELS)}
    g = ThresholdGraph.build(8, _xi_edges(ids), [2, 1, 1, 1, 2, 1, 1, 1])
    return g, GadgetMap(kind=XI, anchors={}, named_internals=ids)


_SIGMA_LABELS = ("r", "t1", "t2", "t3", "t4")


def _sigma_edges(ids: dict[str, int]) -> list[tuple[int, int]]:
    r, t1, t2, t3, t4 = (ids[l] for l in _SIGMA_LABELS)
    return [(r, t1), (r, t3), (t1, t2), (t1, t4), (t2, t3), (t2, t4), (t3, t4)]


def attach_sigma(g: PlainGraph, v: int) -> tuple[PlainGraph, GadgetMap]:
    """Connect a sigma gadget to v in a vertex-cover instance (no thresholds).

    The gadget has exactly three minimum vertex covers; M = {r, t2, t4} is
    frozen under single jumps among them.  v's degree rises by 1.
    """
    if not 1 <= v <= g.n:
        raise UnknownVertex(f"vertex {v} not in 1..{g.n}")
    ids = {lbl: g.n + i + 1 for i, lbl in enumerate(_SIGMA_LABELS)}
    edges = list(g.edges) + _sigma_edges(ids) + [(ids["r"], v)]
    out = PlainGraph.build(g.n + 5, edges)
    gmap = GadgetMap(
        kind=SIGMA,
        anchors={"v": v},
        named_internals=ids,
        m_set=frozenset({ids["r"], ids["t2"], ids["t4"]}),
    )
    return out, gmap


def sigma_gadget() -> tuple[PlainGraph, GadgetMap]:
    """Standalone sigma gadget on ids r=1, t1..t4 = 2..5."""
    ids = {lbl: i + 1 for i, lbl in enumerate(_SIGMA_LABELS)}
    g = PlainGraph.build(5, _sigma_edges(ids))
    gmap = GadgetMap(
        kind=SIGMA,
        anchors={},
        named_internals=ids,
        m_set=frozenset({ids["r"], ids["t2"], ids["t4"]}),
    )
    return g, gmap


def subdivision_map(u: int, v: int, w: int) -> GadgetMap:
    """Record one edge subdivision (u,v) -> (u,w),(w,v) for seed projection."""
    a, b = (u, v) if u < v else (v, u)
    return GadgetMap(
        kind=SUBDIVISION,
        anchors={"u": a, "v": b},
        named_internals={"w": w},
    )


# -- seed projections -------------------------------------------------------


def phi_sd(s: frozenset[int], gmap: GadgetMap) -> frozenset[int]:
    """Project a seed of the subdivided graph back: the new vertex maps to u."""
    if gmap.kind != SUBDIVISION:
        raise ValueError(f"phi_sd needs a subdivision map, got {gmap.kind}")
    w = gmap.named_internals["w"]
    if w not in s:
        return s
    return (s - {w}) | {gmap.anchors["u"]}


def phi_upsilon(s: frozenset[int], gmap: GadgetMap) -> frozenset[int]:
    """Project a seed of the gadget-replaced graph back to the original.

    Seeds avoiding w and the internals map to themselves; otherwise the
    internal tokens collapse onto w.
    """
    if gmap.kind != UPSILON:
        raise ValueError(f"phi_upsilon needs an upsilon map, got {gmap.kind}")
    w = gmap.anchors["w"]
    internals = gmap.internal_vertices
    if w not in s and not (s & internals):
        return s
    return (s - internals) | {w}
