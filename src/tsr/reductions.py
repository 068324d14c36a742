"""End-to-end instance transformations with seed maps and equivalence checks.

Implements the degree-2/3 vertex-cover to cubic reduction (sigma gadgets),
the (3,3)-graph to bipartite planar ({3,4},2) reduction (upsilon, subdivision,
theta), the (3,3)-graph to bipartite 3-regular {1,2}-threshold reduction
(upsilon, subdivision, duplication, xi), and the hitting-set to split-graph
reduction.  A gadget reduction grafts each gadget spec onto one builder and
validates its output once, with a single ``ThresholdGraph.build``.  Every
output carries per-vertex provenance tags and its seed maps as data: the seed
block and copies that ``forward`` adds, and the vertices that ``backward``
keeps before projecting through the gadget maps.
"""

from __future__ import annotations

import dataclasses
import functools
from itertools import combinations

from .errors import (
    BadDegree,
    EmptyFamilySet,
    MalformedLine,
    NotA33Graph,
    NotATargetSet,
    PreconditionViolated,
    SizeMismatch,
    UnknownVertex,
)
from .gadgets import _SIGMA, _SPECS, _SUBDIVISION, _THETA, _UPSILON, _XI, GadgetMap, _Build, project
from .graph import PlainGraph, ThresholdGraph, edge_list, ints, records, seed_ids
from .oracle import DEFAULT_GUARD, bfs, tj_decide


@dataclasses.dataclass
class ReductionOutput:
    """A transformed instance with its seed maps as data.

    ``forward`` maps a seed of source ids 1..``source_n`` to itself, its
    ``shift`` copies and the block ``extra``.  ``backward`` keeps a seed's
    vertices in ``keep``, then projects them through the maps among
    ``gadgets`` that have a collapse anchor (upsilon and subdivision), last
    first; ``keep`` already drops the other gadgets' vertices.
    """

    graph: ThresholdGraph
    source_n: int
    extra: frozenset[int]
    keep: frozenset[int]
    provenance: dict[int, str]
    gadgets: tuple[GadgetMap, ...]
    shift: dict[int, int] = dataclasses.field(default_factory=dict)

    def forward(self, s) -> frozenset[int]:
        s = _source_seed(s, self.source_n)
        return s | {self.shift.get(v, v) for v in s} | self.extra

    def backward(self, s) -> frozenset[int]:
        s = _source_seed(s, self.graph.n) & self.keep
        for gm in reversed(self.gadgets):
            if _SPECS[gm.kind].collapse:
                s = project(s, gm)
        return s

    def format_provenance(self) -> str:
        lines = [f"origin {v} {tag}" for v, tag in sorted(self.provenance.items())]
        return "\n".join(lines) + "\n"


def _source_seed(s, n: int) -> frozenset[int]:
    """``s`` as ids 1..n: the one check of both seed maps."""
    s = frozenset(s)
    if bad := sorted(v for v in s if not 1 <= v <= n):
        raise UnknownVertex(f"seed vertex {bad[0]} not in 1..{n}")
    return s


def _tags(prov: dict[int, str], maps) -> dict[int, str]:
    """Tag each gadget's internals ``kind:anchor:label`` after its first anchor."""
    for gm in maps:
        anchor = next(iter(gm.anchors.values()))
        for lbl, nid in gm.named_internals.items():
            prov[nid] = f"{gm.kind}:{anchor}:{lbl}"
    return prov


# -- sigma: degree-{2,3} vertex cover to cubic -------------------------------


def reduce_vc23_to_cubic(g: PlainGraph) -> ReductionOutput:
    """Attach a sigma gadget to every degree-2 vertex; the result is 3-regular.

    Thresholds are then set to degrees, so target sets of the output are its
    vertex covers.  Minimum covers map as S -> S u (union of gadget minima).
    """
    degs = g.degrees
    for v in range(1, g.n + 1):
        if degs[v] not in (2, 3):
            raise BadDegree(f"vertex {v} has degree {degs[v]}, needs 2 or 3")
    b = _Build(g)
    maps = [b.graft(_SIGMA, (v,)) for v in range(1, g.n + 1) if degs[v] == 2]
    b.tau = [len(nbrs) for nbrs in b.adj]  # tau = d: target sets are vertex covers
    return ReductionOutput(
        graph=b.graph(),
        source_n=g.n,
        extra=frozenset().union(*(gm.m_set for gm in maps)),
        keep=frozenset(range(1, g.n + 1)),
        provenance=_tags({v: f"orig:{v}" for v in range(1, g.n + 1)}, maps),
        gadgets=tuple(maps),
    )


# -- upsilon + subdivision steps shared by the two (3,3) reductions ----------


def _split_33(g: ThresholdGraph):
    """Check that g is a (3,3)-graph, then, on one builder, replace every vertex
    by an upsilon gadget and subdivide every edge: (builder, provenance, maps)."""
    for v in g.vertices:
        if len(g.adj[v]) != 3 or g.tau[v] != 3:
            raise NotA33Graph(
                f"vertex {v} is a ({len(g.adj[v])},{g.tau[v]})-vertex, needs (3,3)"
            )
    b = _Build(g)
    # each upsilon's roles x < y < z are w's neighbours when it is grafted
    maps = [b.graft(_UPSILON, (w, *sorted(b.adj[w]))) for w in g.vertices]
    prov = _tags({v: f"orig:{v}" for v in g.vertices}, maps)
    for u, v in edge_list(b.adj):
        maps.append(b.graft(_SUBDIVISION, (u, v)))
        prov[b.n] = f"sd:{u}-{v}"
    return b, prov, maps


def reduce_33_to_pb342(g: ThresholdGraph) -> ReductionOutput:
    """(3,3)-graph to a bipartite ({3,4},2)-graph via upsilon, subdivision, theta.

    Every vertex is gadget-replaced, every edge subdivided, and a theta gadget
    hangs off each (2,1)- and (3,1)-vertex, raising its threshold to 2.  A
    minimum seed X maps forward to X plus the union of the theta minima.
    """
    b, prov, maps = _split_33(g)
    keep = frozenset(range(1, b.n + 1))  # every vertex but the theta internals
    candidates = [v for v in range(1, b.n + 1) if (len(b.adj[v]), b.tau[v]) in ((2, 1), (3, 1))]
    theta_maps = [b.graft(_THETA, (v,)) for v in candidates]
    return ReductionOutput(
        graph=b.graph(),
        source_n=g.n,
        extra=frozenset().union(*(gm.m_set for gm in theta_maps)),
        keep=keep,
        provenance=_tags(prov, theta_maps),
        gadgets=tuple(maps + theta_maps),
    )


def reduce_33_to_b312(g: ThresholdGraph) -> ReductionOutput:
    """(3,3)-graph to a bipartite (3,{1,2})-graph via duplication and xi gadgets.

    After gadget replacement and subdivision, the graph is doubled and each
    subdivision vertex's two copies are tied together by a xi gadget.  A seed
    X maps forward to both copies of X plus one a1 token per gadget.
    """
    b, prov, maps = _split_33(g)
    n_i = b.n
    two_one = [v for v in range(1, n_i + 1) if (len(b.adj[v]), b.tau[v]) == (2, 1)]
    shift = {v: b.vertex(b.tau[v]) for v in range(1, n_i + 1)}  # the second copy
    for u, v in edge_list(b.adj):
        b.link(shift[u], shift[v])
    prov.update((shift[v], prov[v] + ":copy2") for v in shift)
    xi_maps = [b.graft(_XI, (v, shift[v])) for v in two_one]
    return ReductionOutput(
        graph=b.graph(),
        source_n=g.n,
        extra=frozenset(gm.named_internals["a1"] for gm in xi_maps),
        keep=frozenset(range(1, n_i + 1)),  # the first copy
        provenance=_tags(prov, xi_maps),
        gadgets=tuple(maps + xi_maps),
        shift=shift,
    )


# -- hitting set to split graph ----------------------------------------------


@dataclasses.dataclass(frozen=True)
class HittingSystem:
    """A set family over universe 1..n with a requested hitting-set size k."""

    n: int
    family: tuple[frozenset[int], ...]
    k: int

    @staticmethod
    def build(n: int, family, k: int) -> "HittingSystem":
        fam = tuple(frozenset(f) for f in family)
        if not fam:
            raise EmptyFamilySet("the family must contain at least one set")
        for i, f in enumerate(fam, start=1):
            if not f:
                raise EmptyFamilySet(f"family set {i} is empty")
            for u in f:
                if not 1 <= u <= n:
                    raise MalformedLine(f"element {u} outside universe 1..{n}")
        if not 1 <= k <= n:
            raise MalformedLine(f"k={k} not in 1..{n}")
        return HittingSystem(n=n, family=fam, k=k)

    def is_hitting_set(self, s) -> bool:
        """True iff s is a subset of 1..n that meets every family set."""
        ss = frozenset(s)
        return all(1 <= u <= self.n for u in ss) and all(ss & f for f in self.family)

    def hitting_sets(self) -> list[frozenset[int]]:
        return [
            frozenset(c)
            for c in combinations(range(1, self.n + 1), self.k)
            if self.is_hitting_set(c)
        ]


def parse_hitting_system(text: str) -> HittingSystem:
    """Parse the ``p hs <n> <m> <k>`` format with one ``f <elems...>`` line per set."""
    header = None
    family = []
    for lineno, parts in records(text):
        if parts[0] == "p":
            if header is not None or len(parts) != 5 or parts[1] != "hs":
                raise MalformedLine(f"line {lineno}: expected 'p hs <n> <m> <k>'")
            header = ints(lineno, parts[2:])
        elif parts[0] == "f":
            if header is None:
                raise MalformedLine(f"line {lineno}: 'f' before header")
            family.append(seed_ids(lineno, parts))
        else:
            raise MalformedLine(f"line {lineno}: unknown line kind {parts[0]!r}")
    if header is None:
        raise MalformedLine("missing 'p hs' header")
    n, m, k = header
    if len(family) != m:
        raise MalformedLine(f"expected {m} family lines, got {len(family)}")
    return HittingSystem.build(n, family, k)


def serialize_hitting_system(hs: HittingSystem) -> str:
    lines = [f"p hs {hs.n} {len(hs.family)} {hs.k}"]
    for f in hs.family:
        lines.append("f " + " ".join(str(u) for u in sorted(f)))
    return "\n".join(lines) + "\n"


def reduce_hitting_to_split(hs: HittingSystem) -> ReductionOutput:
    """Hitting-set instance to a split graph whose size-k target sets are
    exactly the images of size-k hitting sets.

    Universe vertices plus an apex x form a clique, family vertices an
    independent set; tau(v_u) = (#sets containing u) + k + 1, tau(w_F) = 1,
    tau(x) = m + k.
    """
    n, m, k = hs.n, len(hs.family), hs.k
    if k >= n:
        raise PreconditionViolated(
            f"k={k} with |U|={n} leaves tau(v_u) above the degree bound; needs k < n"
        )
    # v_u = u for u in 1..n, w_Fj = n + j, x = n + m + 1
    x = n + m + 1
    edges = []
    occ = [0] * (n + 1)
    for j, f in enumerate(hs.family, start=1):
        w = n + j
        for u in sorted(f):
            edges.append((u, w))
            occ[u] += 1
        edges.append((w, x))
    clique = list(range(1, n + 1)) + [x]
    for a, b in combinations(clique, 2):
        edges.append((a, b))
    tau = [occ[u] + k + 1 for u in range(1, n + 1)] + [1] * m + [m + k]
    prov = {u: f"universe:{u}" for u in range(1, n + 1)}
    prov.update({n + j: f"family:{j}" for j in range(1, m + 1)})
    prov[x] = "apex"
    return ReductionOutput(
        graph=ThresholdGraph.build(n + m + 1, edges, tau),
        source_n=n,
        extra=frozenset(),
        keep=frozenset(range(1, n + 1)),  # v_u shares u's id
        provenance=prov,
        gadgets=(),
    )


def hs_tj_decide(hs: HittingSystem, x, y, *, guard: int = DEFAULT_GUARD) -> bool:
    """Hitting-set reconfiguration under token jumping, decided by ``bfs``;
    the guard bounds the states it stores."""
    xs, ys = frozenset(x), frozenset(y)
    if len(xs) != len(ys):
        raise SizeMismatch(f"|x|={len(xs)} != |y|={len(ys)}")
    for s in (xs, ys):
        if not hs.is_hitting_set(s):
            raise NotATargetSet(f"{sorted(s)} is not a hitting set")
    family = [sum(1 << u for u in f) for f in hs.family]
    start, goal = (sum(1 << u for u in s) for s in (xs, ys))
    return bfs((start,), goal, hs.n, functools.partial(_hs_repairs, family), guard)[1]


def _hs_repairs(family: list[int], hub: int, out: int, stored) -> list[tuple[int, int]] | None:
    """``bfs``'s callback for hitting sets, which are closed under supersets
    too: None when ``hub`` hits every set, else the ascending (element, bit)
    pairs that lie in every set it misses."""
    common = -1
    for f in family:
        if not hub & f:
            common &= f
    if common == -1:
        return None
    return [(u, 1 << u) for u in range(1, common.bit_length()) if common >> u & 1]


# -- instance-level equivalence checking --------------------------------------


@dataclasses.dataclass(frozen=True)
class EquivalenceVerdict:
    source: bool
    target: bool

    @property
    def equivalent(self) -> bool:
        return self.source == self.target


def verify_reduction(
    source_verdict: bool,
    out: ReductionOutput,
    x,
    y,
    *,
    guard: int = DEFAULT_GUARD,
) -> EquivalenceVerdict:
    """Compare a source instance's reconfigurability verdict with the oracle
    verdict on the transformed instance between the mapped seeds.

    Raises InstanceTooLarge when the transformed search exceeds the guard;
    callers treat that as a skip, not a failure.
    """
    fx, fy = out.forward(frozenset(x)), out.forward(frozenset(y))
    target = tj_decide(out.graph, fx, fy, guard=guard).reconfigurable
    return EquivalenceVerdict(source=bool(source_verdict), target=bool(target))
