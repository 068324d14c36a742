"""Gadget constructors with seed-projection maps.

Each gadget is defined once, as data: a ``_Spec`` lists its labels with their
thresholds (in id order), its internal edges and its frozen seed block.
``_Build.graft`` adds one to a mutable graph: fresh ids, hookups to anchors,
threshold bumps, and a GadgetMap that projects seed sets back and forth.
``attach_*`` grafts onto a copy of its host, ``*_gadget`` onto an empty graph,
and each reduction grafts all its gadgets onto one builder; each validates its
result once, with ``ThresholdGraph.build`` (``PlainGraph.build`` for sigma).
"""

from __future__ import annotations

import dataclasses

from .errors import InvalidInput, NotA33Vertex, SameVertex, UnknownVertex
from .graph import Edge, PlainGraph, ThresholdGraph

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


def _pairs(text: str) -> tuple[tuple[str, str], ...]:
    return tuple(tuple(e.split("-")) for e in text.split())


@dataclasses.dataclass(frozen=True)
class _Spec:
    """One gadget: ``tau`` maps its labels, in id order, to thresholds."""

    kind: str
    tau: dict[str, int]
    edges: tuple[tuple[str, str], ...]
    m_set: tuple[str, ...] = ()


_ONEWAY = _Spec(ONEWAY, {"t": 1, "h": 2, "b1": 1, "b2": 1}, _pairs("t-b1 t-b2 h-b1 h-b2"))
_UPSILON = _Spec(
    UPSILON,
    {"v_x": 1, "v_y": 1, "v_xy": 2, "v_z": 1, "wbar": 2, "v_w": 1,
     "t_x": 1, "h_x": 2, "b_x1": 1, "b_x2": 1, "t_y": 1, "h_y": 2, "b_y1": 1, "b_y2": 1},
    _pairs("v_x-v_xy v_y-v_xy v_w-wbar wbar-v_z v_w-v_xy"
           " t_x-b_x1 t_x-b_x2 h_x-b_x1 h_x-b_x2 b_x1-b_x2 v_x-h_x"
           " t_y-b_y1 t_y-b_y2 h_y-b_y1 h_y-b_y2 b_y1-b_y2 wbar-t_y v_y-h_y"),
)
# hexagonal prism t_{i,j} (rings i = 1, 2, rungs j), the chord t_{2,3}t_{2,6}
# and the apex r on t_{1,1} and t_{1,5}
_THETA = _Spec(
    THETA,
    dict.fromkeys([f"t_{i}_{j}" for i in (1, 2) for j in range(1, 7)] + ["r"], 2),
    tuple((f"t_{i}_{j}", f"t_{i}_{j % 6 + 1}") for i in (1, 2) for j in range(1, 7))
    + tuple((f"t_1_{j}", f"t_2_{j}") for j in range(1, 7))
    + _pairs("t_2_3-t_2_6 r-t_1_1 r-t_1_5"),
    ("r", "t_1_2", "t_2_3"),
)
_XI = _Spec(
    XI,
    {"a1": 2, "b1": 1, "c1": 1, "d1": 1, "a2": 2, "b2": 1, "c2": 1, "d2": 1},
    _pairs("a1-b1 b1-c1 c1-d1 d1-a1 a2-b2 b2-c2 c2-d2 d2-a2 b1-b2 c1-c2 d1-d2"),
)
# a vertex-cover gadget: plain graphs carry no thresholds
_SIGMA = _Spec(
    SIGMA,
    dict.fromkeys(("r", "t1", "t2", "t3", "t4"), 0),
    _pairs("r-t1 r-t3 t1-t2 t1-t4 t2-t3 t2-t4 t3-t4"),
    ("r", "t2", "t4"),
)
_SUBDIVISION = _Spec(SUBDIVISION, {"w": 1}, ())


class _Build:
    """A graph under construction: ``tau`` and ``adj`` (neighbour sets), index 0 unused.

    Starts empty or as a copy of a graph (a plain one with thresholds 0),
    changes in place, and is validated once by ``graph()`` or ``plain()``.
    """

    def __init__(self, g: ThresholdGraph | PlainGraph | None = None):
        n = 0 if g is None else g.n
        self.tau = list(g.tau) if isinstance(g, ThresholdGraph) else [0] * (n + 1)
        self.adj: list[set[int]] = [set() for _ in range(n + 1)]
        for u, v in () if g is None else g.edges:
            self.link(u, v)

    @property
    def n(self) -> int:
        return len(self.tau) - 1

    def vertex(self, tau: int) -> int:
        self.tau.append(tau)
        self.adj.append(set())
        return self.n

    def link(self, u: int, v: int) -> None:
        self.adj[u].add(v)
        self.adj[v].add(u)

    def unlink(self, u: int, v: int) -> None:
        self.adj[u].remove(v)
        self.adj[v].remove(u)

    def edges(self) -> list[Edge]:
        """The edges (u, v), u < v, in ascending order."""
        return [(u, v) for u in range(1, self.n + 1) for v in sorted(self.adj[u]) if u < v]

    def graft(self, spec: _Spec, anchors: dict[str, int], hookups=(), bumps=()) -> GadgetMap:
        """Add spec's vertices and edges, link each ``(vertex, label)`` hookup,
        and raise each bumped vertex's threshold by 1."""
        ids = {lbl: self.vertex(t) for lbl, t in spec.tau.items()}
        for a, b in spec.edges:
            self.link(ids[a], ids[b])
        for v, lbl in hookups:
            self.link(v, ids[lbl])
        for v in bumps:
            self.tau[v] += 1
        m_set = frozenset(ids[lbl] for lbl in spec.m_set) if spec.m_set else None
        return GadgetMap(spec.kind, anchors, ids, m_set)

    def graph(self) -> ThresholdGraph:
        return ThresholdGraph.build(self.n, self.edges(), self.tau[1:])

    def plain(self) -> PlainGraph:
        return PlainGraph.build(self.n, self.edges())


def _grafted(host, spec: _Spec, anchors: dict[str, int], hookups=(), bumps=()):
    """Graft spec onto a copy of host (onto an empty graph if host is None)
    and build the result once: a PlainGraph for sigma, the vertex-cover gadget."""
    b = _Build(host)
    gmap = b.graft(spec, anchors, hookups, bumps)
    return b.plain() if spec is _SIGMA else b.graph(), gmap


def attach_oneway(g: ThresholdGraph, v: int, w: int) -> tuple[ThresholdGraph, GadgetMap]:
    """One-way gadget connecting from v to w: v activates it, w does not.

    Internals t, h, b1, b2 with tau(h)=2 and the others 1; edges (t,b1),
    (t,b2), (h,b1), (h,b2) plus the hookups (v,t) and (w,h).
    """
    g.check_vertex(v)
    g.check_vertex(w)
    if v == w:
        raise SameVertex(f"one-way gadget needs distinct endpoints, got {v} twice")
    return _grafted(g, _ONEWAY, {"v": v, "w": w}, [(v, "t"), (w, "h")])


def oneway_gadget() -> tuple[ThresholdGraph, GadgetMap]:
    """The bare four-vertex one-way gadget (t=1, h=2, b1=3, b2=4)."""
    return _grafted(None, _ONEWAY, {})


def _upsilon(b: _Build, w: int) -> GadgetMap:
    """Graft an upsilon gadget in place of the (3,3)-vertex w's edges."""
    x, y, z = sorted(b.adj[w])
    for u in (x, y, z):
        b.unlink(w, u)
    b.tau[w] = 2
    hookups = [(x, "v_x"), (y, "v_y"), (w, "v_w"), (w, "v_z"), (z, "v_z"), (w, "t_x")]
    return b.graft(_UPSILON, {"w": w, "x": x, "y": y, "z": z}, hookups)


def replace_upsilon(g: ThresholdGraph, w: int) -> tuple[ThresholdGraph, GadgetMap]:
    """Replace a (3,3)-vertex and its edges by the planarity-preserving gadget.

    The roles x < y < z are the sorted neighbors of w.  Afterwards w is a
    (3,2)-vertex and the key residual identity holds: activating {w} leaves
    the same residual as in the original graph.
    """
    g.check_vertex(w)
    if len(g.adj[w]) != 3 or g.tau[w] != 3:
        raise NotA33Vertex(
            f"vertex {w} is a ({len(g.adj[w])},{g.tau[w]})-vertex, needs (3,3)"
        )
    b = _Build(g)
    gmap = _upsilon(b, w)
    return b.graph(), gmap


def attach_theta(g: ThresholdGraph, v: int) -> tuple[ThresholdGraph, GadgetMap]:
    """Connect a theta gadget (hexagonal prism + chord + apex) to vertex v.

    All 13 new vertices have threshold 2; v's threshold rises by 1.  The
    returned map carries the gadget's frozen minimum M = {r, t_{1,2}, t_{2,3}}.
    """
    g.check_vertex(v)
    return _grafted(g, _THETA, {"v": v}, [(v, "r")], [v])


def theta_gadget(r_tau: int = 2) -> tuple[ThresholdGraph, GadgetMap]:
    """Standalone theta gadget; ``r_tau=1`` gives the reduced-apex variant."""
    return _grafted(None, dataclasses.replace(_THETA, tau=_THETA.tau | {"r": r_tau}), {})


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
    return _grafted(g, _XI, {"v1": v1, "v2": v2}, [(v1, "a1"), (v2, "a2")], [v1, v2])


def xi_gadget() -> tuple[ThresholdGraph, GadgetMap]:
    """Standalone xi gadget on ids a1..d1 = 1..4, a2..d2 = 5..8."""
    return _grafted(None, _XI, {})


def attach_sigma(g: PlainGraph, v: int) -> tuple[PlainGraph, GadgetMap]:
    """Connect a sigma gadget to v in a vertex-cover instance (no thresholds).

    The gadget has exactly three minimum vertex covers; M = {r, t2, t4} is
    frozen under single jumps among them.  v's degree rises by 1.
    """
    if not 1 <= v <= g.n:
        raise UnknownVertex(f"vertex {v} not in 1..{g.n}")
    return _grafted(g, _SIGMA, {"v": v}, [(v, "r")])


def sigma_gadget() -> tuple[PlainGraph, GadgetMap]:
    """Standalone sigma gadget on ids r=1, t1..t4 = 2..5."""
    return _grafted(None, _SIGMA, {})


# -- seed projections -------------------------------------------------------


def phi_sd(s: frozenset[int], gmap: GadgetMap) -> frozenset[int]:
    """Project a seed of the subdivided graph back: the new vertex maps to u."""
    if gmap.kind != SUBDIVISION:
        raise InvalidInput(f"phi_sd needs a subdivision map, got {gmap.kind}")
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
        raise InvalidInput(f"phi_upsilon needs an upsilon map, got {gmap.kind}")
    w = gmap.anchors["w"]
    internals = gmap.internal_vertices
    if w not in s and not (s & internals):
        return s
    return (s - internals) | {w}
