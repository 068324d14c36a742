"""The paper's gadgets, each defined once as data, with one graft, one attach and one projection.

A ``_Spec`` holds everything about one gadget: its labels with their
thresholds (in id order), its internal edges, its frozen seed block, and how
it meets a host.  ``hooks`` link anchor roles to labels (the roles are the
anchors, in order of first appearance), ``bumps`` shift anchor thresholds,
``cuts`` are the host edges it removes, and ``collapse`` is the anchor that
internal tokens project onto.  ``_Build.graft(spec, anchors)`` adds one gadget
to a mutable graph and returns its GadgetMap, and ``_Build.upsilon(w)`` checks
a (3,3)-vertex and grafts an upsilon there.  ``attach`` checks the anchors
and grafts onto a copy of a host (onto an empty graph for the bare gadget);
each reduction grafts all its gadgets onto one builder.  Either validates its
result once, with ``ThresholdGraph.build`` (``PlainGraph.build`` for sigma).
``project`` maps a seed back through an upsilon or subdivision map.
"""

from __future__ import annotations

import dataclasses

from .errors import EdgeNotFound, InvalidInput, NotA33Vertex, SameVertex, UnknownVertex
from .graph import PlainGraph, ThresholdGraph, edge_list


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
    """One gadget: ``tau`` maps its labels, in id order, to thresholds.

    ``hooks`` are (role, label) edges to the host, ``bumps`` (role, delta)
    threshold shifts, ``cuts`` (role, role) host edges removed, and
    ``collapse`` the role that internal tokens project onto (None: no projection).
    """

    kind: str
    tau: dict[str, int]
    edges: tuple[tuple[str, str], ...]
    m_set: tuple[str, ...] = ()
    hooks: tuple[tuple[str, str], ...] = ()
    bumps: tuple[tuple[str, int], ...] = ()
    cuts: tuple[tuple[str, str], ...] = ()
    collapse: str | None = None

    @property
    def roles(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(role for role, _ in self.hooks))


# one-way: v activates the gadget, w does not
_ONEWAY = _Spec(
    "oneway", {"t": 1, "h": 2, "b1": 1, "b2": 1}, _pairs("t-b1 t-b2 h-b1 h-b2"), hooks=_pairs("v-t w-h")
)
# replaces the (3,3)-vertex w's edges to its neighbours x < y < z; w becomes a (3,2)-vertex
_UPSILON = _Spec(
    "upsilon",
    {"v_x": 1, "v_y": 1, "v_xy": 2, "v_z": 1, "wbar": 2, "v_w": 1,
     "t_x": 1, "h_x": 2, "b_x1": 1, "b_x2": 1, "t_y": 1, "h_y": 2, "b_y1": 1, "b_y2": 1},
    _pairs("v_x-v_xy v_y-v_xy v_w-wbar wbar-v_z v_w-v_xy"
           " t_x-b_x1 t_x-b_x2 h_x-b_x1 h_x-b_x2 b_x1-b_x2 v_x-h_x"
           " t_y-b_y1 t_y-b_y2 h_y-b_y1 h_y-b_y2 b_y1-b_y2 wbar-t_y v_y-h_y"),
    hooks=_pairs("w-v_w x-v_x y-v_y z-v_z w-v_z w-t_x"),
    bumps=(("w", -1),),
    cuts=_pairs("w-x w-y w-z"),
    collapse="w",
)
# hexagonal prism t_{i,j} (rings i = 1, 2, rungs j), the chord t_{2,3}t_{2,6}
# and the apex r on t_{1,1} and t_{1,5}; M = {r, t_{1,2}, t_{2,3}} is frozen
_THETA = _Spec(
    "theta",
    dict.fromkeys([f"t_{i}_{j}" for i in (1, 2) for j in range(1, 7)] + ["r"], 2),
    tuple((f"t_{i}_{j}", f"t_{i}_{j % 6 + 1}") for i in (1, 2) for j in range(1, 7))
    + tuple((f"t_1_{j}", f"t_2_{j}") for j in range(1, 7))
    + _pairs("t_2_3-t_2_6 r-t_1_1 r-t_1_5"),
    ("r", "t_1_2", "t_2_3"),
    hooks=_pairs("v-r"),
    bumps=(("v", 1),),
)
# two rung-linked 4-cycles between v1 and v2; any one internal token soaks up the gadget
_XI = _Spec(
    "xi",
    {"a1": 2, "b1": 1, "c1": 1, "d1": 1, "a2": 2, "b2": 1, "c2": 1, "d2": 1},
    _pairs("a1-b1 b1-c1 c1-d1 d1-a1 a2-b2 b2-c2 c2-d2 d2-a2 b1-b2 c1-c2 d1-d2"),
    hooks=_pairs("v1-a1 v2-a2"),
    bumps=(("v1", 1), ("v2", 1)),
)
# a vertex-cover gadget (plain graphs carry no thresholds) with exactly three
# minimum covers; M = {r, t2, t4} is frozen under single jumps among them
_SIGMA = _Spec(
    "sigma",
    dict.fromkeys(("r", "t1", "t2", "t3", "t4"), 0),
    _pairs("r-t1 r-t3 t1-t2 t1-t4 t2-t3 t2-t4 t3-t4"),
    ("r", "t2", "t4"),
    hooks=_pairs("v-r"),
)
# the edge u-v subdivided by a threshold-1 vertex w
_SUBDIVISION = _Spec("subdivision", {"w": 1}, (), hooks=_pairs("u-w v-w"), cuts=_pairs("u-v"), collapse="u")

# every gadget by name; "theta1" is the theta gadget with its apex at threshold 1
_SPECS = {s.kind: s for s in (_ONEWAY, _UPSILON, _THETA, _XI, _SIGMA, _SUBDIVISION)}
_SPECS["theta1"] = dataclasses.replace(_THETA, tau=_THETA.tau | {"r": 1})


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

    def graft(self, spec: _Spec, anchors: tuple[int, ...]) -> GadgetMap:
        """Add spec's vertices and edges; given its anchors (ids in role order),
        also cut its host edges, link its hooks and shift its bumped thresholds."""
        ids = {lbl: self.vertex(t) for lbl, t in spec.tau.items()}
        for a, b in spec.edges:
            self.link(ids[a], ids[b])
        at = dict(zip(spec.roles, anchors))
        if at:
            for a, b in spec.cuts:
                self.adj[at[a]].remove(at[b])
                self.adj[at[b]].remove(at[a])
            for role, lbl in spec.hooks:
                self.link(at[role], ids[lbl])
            for role, delta in spec.bumps:
                self.tau[at[role]] += delta
        m_set = frozenset(ids[lbl] for lbl in spec.m_set) if spec.m_set else None
        return GadgetMap(spec.kind, at, ids, m_set)

    def upsilon(self, w: int) -> GadgetMap:
        """Graft an upsilon gadget onto the (3,3)-vertex w, whose neighbours
        x < y < z are its other roles; raises ``NotA33Vertex`` otherwise."""
        if (len(self.adj[w]), self.tau[w]) != (3, 3):
            raise NotA33Vertex(f"vertex {w} is a ({len(self.adj[w])},{self.tau[w]})-vertex, needs (3,3)")
        return self.graft(_UPSILON, (w, *sorted(self.adj[w])))

    def graph(self) -> ThresholdGraph:
        return ThresholdGraph.build(self.n, edge_list(self.adj), self.tau[1:])

    def plain(self) -> PlainGraph:
        return PlainGraph.build(self.n, edge_list(self.adj))


def attach(host: ThresholdGraph | PlainGraph | None, kind: str, *anchors: int):
    """Graft the gadget ``kind`` onto a copy of host at ``anchors``; returns (graph, GadgetMap).

    The anchors come in role order: v, w for ``oneway`` (v activates the
    gadget, w does not); v for ``theta``, ``theta1`` and ``sigma``; v1, v2 for
    ``xi``; u, v for ``subdivision``; and the (3,3)-vertex w for ``upsilon``,
    whose roles x < y < z are w's neighbours.  With ``host=None`` and no
    anchors it builds the bare gadget.  Sigma, a vertex-cover gadget, comes
    back as a PlainGraph.
    """
    spec = _SPECS.get(kind)
    if spec is None:
        raise InvalidInput(f"unknown gadget {kind!r}, expected one of {', '.join(_SPECS)}")
    roles = spec.roles[:1] if spec is _UPSILON else spec.roles
    if len(anchors) != (0 if host is None else len(roles)):
        want = "none on no host" if host is None else " ".join(roles)
        raise InvalidInput(f"{kind} gadget takes anchors ({want}), got {len(anchors)}")
    b = _Build(host)
    # a subdivision's (u, v) must be an edge, whatever its ids
    if spec is _SUBDIVISION and anchors and tuple(sorted(anchors)) not in edge_list(b.adj):
        raise EdgeNotFound(f"edge ({min(anchors)},{max(anchors)}) not present")
    for v in anchors:
        if not 1 <= v <= b.n:
            raise UnknownVertex(f"vertex {v} not in 1..{b.n}")
    if len(set(anchors)) < len(anchors):
        raise SameVertex(f"{kind} gadget needs distinct anchors, got {list(anchors)}")
    gmap = b.upsilon(anchors[0]) if spec is _UPSILON and anchors else b.graft(spec, anchors)
    return b.plain() if spec is _SIGMA else b.graph(), gmap


def project(s: frozenset[int], gmap: GadgetMap) -> frozenset[int]:
    """Project a seed of the grafted graph back to the host.

    A seed without internal tokens maps to itself; otherwise the internal
    tokens collapse onto the spec's ``collapse`` anchor (w for upsilon, u for
    a subdivision).  Other kinds, and bare gadgets, have no projection.
    """
    anchor = gmap.anchors.get(_SPECS[gmap.kind].collapse)
    if anchor is None:
        raise InvalidInput(f"a {gmap.kind} map has no anchor to project onto")
    internals = gmap.internal_vertices
    return (s - internals) | {anchor} if s & internals else s
