"""Threshold graphs: representation, validation, parsing, and structural predicates.

Vertices are dense 1-based integer ids.  A threshold graph is simple and
undirected, and every vertex v satisfies 1 <= tau(v) <= d(v), which in
particular forbids isolated vertices.
"""

from __future__ import annotations

import dataclasses
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import (
    DegreeTooSmall,
    DuplicateEdge,
    EdgeNotFound,
    IdGap,
    MalformedLine,
    SelfLoop,
    ThresholdOutOfRange,
    UnknownVertex,
)

Edge = tuple[int, int]


def _norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclasses.dataclass(frozen=True)
class ThresholdGraph:
    """Simple undirected graph with per-vertex integer thresholds.

    ``adj[v]`` is the sorted neighbor tuple of vertex v (index 0 unused);
    ``tau[v]`` is the threshold of v.  Instances are immutable and safe to
    share between threads; derived views and solver plans are cached in the
    instance's ``__dict__`` and are pure functions of the three fields.
    """

    n: int
    adj: tuple[tuple[int, ...], ...]
    tau: tuple[int, ...]

    @staticmethod
    def build(n: int, edges: Iterable[Edge], tau: Sequence[int]) -> "ThresholdGraph":
        """Validate and construct a graph from an edge list and thresholds.

        ``tau`` is indexed 0..n-1 (vertex v has threshold tau[v-1]).
        """
        if n < 0:
            raise MalformedLine(f"negative vertex count {n}")
        if len(tau) != n:
            raise MalformedLine(f"expected {n} thresholds, got {len(tau)}")
        nbrs: list[set[int]] = [set() for _ in range(n + 1)]
        seen: set[Edge] = set()
        for u, v in edges:
            if u == v:
                raise SelfLoop(f"self-loop at vertex {u}")
            if not (1 <= u <= n and 1 <= v <= n):
                raise IdGap(f"edge ({u},{v}) out of range 1..{n}")
            e = _norm_edge(u, v)
            if e in seen:
                raise DuplicateEdge(f"duplicate edge {e}")
            seen.add(e)
            nbrs[u].add(v)
            nbrs[v].add(u)
        adj = tuple(tuple(sorted(nbrs[v])) for v in range(n + 1))
        full_tau = (0,) + tuple(tau)
        for v in range(1, n + 1):
            d = len(adj[v])
            t = full_tau[v]
            if not (1 <= t <= d):
                raise ThresholdOutOfRange(
                    f"vertex {v}: tau={t} not in [1, d={d}]"
                )
        return ThresholdGraph(n=n, adj=adj, tau=full_tau)

    # -- derived views ------------------------------------------------

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        out = []
        for u in range(1, self.n + 1):
            for v in self.adj[u]:
                if u < v:
                    out.append((u, v))
        return tuple(out)

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def vertices(self) -> tuple[int, ...]:
        return tuple(range(1, self.n + 1))

    @cached_property
    def adj_masks(self) -> tuple[int, ...]:
        """Neighbor bitmasks (bit v set for neighbor v); index 0 unused."""
        masks = [0] * (self.n + 1)
        for v in range(1, self.n + 1):
            m = 0
            for u in self.adj[v]:
                m |= 1 << u
            masks[v] = m
        return tuple(masks)

    @cached_property
    def full_mask(self) -> int:
        return ((1 << self.n) - 1) << 1

    def degree(self, v: int) -> int:
        self.check_vertex(v)
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u] if 1 <= u <= self.n else False

    def check_vertex(self, v: int) -> None:
        if not (1 <= v <= self.n):
            raise UnknownVertex(f"vertex {v} not in 1..{self.n}")

    def check_seed(self, seed: Iterable[int]) -> frozenset[int]:
        s = frozenset(seed)
        for v in s:
            self.check_vertex(v)
        return s

    def components(self) -> list[tuple[int, ...]]:
        """Connected components as sorted vertex tuples, ordered by min id."""
        seen = [False] * (self.n + 1)
        comps = []
        for s in range(1, self.n + 1):
            if seen[s]:
                continue
            stack, comp = [s], []
            seen[s] = True
            while stack:
                v = stack.pop()
                comp.append(v)
                for u in self.adj[v]:
                    if not seen[u]:
                        seen[u] = True
                        stack.append(u)
            comps.append(tuple(sorted(comp)))
        return comps


@dataclasses.dataclass(frozen=True)
class PlainGraph:
    """Simple graph without thresholds (vertex-cover style instances)."""

    n: int
    edges: tuple[Edge, ...]

    @staticmethod
    def build(n: int, edges: Iterable[Edge]) -> "PlainGraph":
        seen: set[Edge] = set()
        for u, v in edges:
            if u == v:
                raise SelfLoop(f"self-loop at vertex {u}")
            if not (1 <= u <= n and 1 <= v <= n):
                raise IdGap(f"edge ({u},{v}) out of range 1..{n}")
            e = _norm_edge(u, v)
            if e in seen:
                raise DuplicateEdge(f"duplicate edge {e}")
            seen.add(e)
        return PlainGraph(n=n, edges=tuple(sorted(seen)))

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        d = [0] * (self.n + 1)
        for u, v in self.edges:
            d[u] += 1
            d[v] += 1
        return tuple(d)


@dataclasses.dataclass(frozen=True)
class GraphClassReport:
    is_tree: bool
    is_bipartite: bool
    is_connected: bool
    max_degree: int
    degree_set: frozenset[int]
    threshold_set: frozenset[int]

    def is_dt_graph(self, degrees: Iterable[int], thresholds: Iterable[int]) -> bool:
        """True iff every vertex has degree in ``degrees`` and threshold in ``thresholds``."""
        return self.degree_set <= frozenset(degrees) and self.threshold_set <= frozenset(thresholds)


def classify(g: ThresholdGraph) -> GraphClassReport:
    """Structural predicates: BFS bipartiteness, connectivity, degree/threshold sets."""
    comps = g.components()
    connected = len(comps) == 1
    color = [0] * (g.n + 1)
    bipartite = True
    for comp in comps:
        root = comp[0]
        color[root] = 1
        stack = [root]
        while stack:
            v = stack.pop()
            for u in g.adj[v]:
                if color[u] == 0:
                    color[u] = -color[v]
                    stack.append(u)
                elif color[u] == color[v]:
                    bipartite = False
        if not bipartite:
            break
    degs = [len(g.adj[v]) for v in g.vertices]
    return GraphClassReport(
        is_tree=connected and g.m == g.n - 1,
        is_bipartite=bipartite,
        is_connected=connected,
        max_degree=max(degs) if degs else 0,
        degree_set=frozenset(degs),
        threshold_set=frozenset(g.tau[v] for v in g.vertices),
    )


def disjoint_union(g1: ThresholdGraph, g2: ThresholdGraph) -> tuple[ThresholdGraph, dict[int, int]]:
    """Disjoint union; g2's ids are shifted by g1.n.  Returns (graph, shift map)."""
    shift = {v: v + g1.n for v in g2.vertices}
    edges = list(g1.edges) + [(u + g1.n, v + g1.n) for u, v in g2.edges]
    tau = [g1.tau[v] for v in g1.vertices] + [g2.tau[v] for v in g2.vertices]
    return ThresholdGraph.build(g1.n + g2.n, edges, tau), shift


def subdivide_edge(g: ThresholdGraph, e: Edge) -> tuple[ThresholdGraph, int]:
    """Subdivide edge e by a fresh threshold-1 vertex.  Returns (graph, new id)."""
    u, v = _norm_edge(*e)
    if not g.has_edge(u, v):
        raise EdgeNotFound(f"edge ({u},{v}) not present")
    w = g.n + 1
    edges = [f for f in g.edges if f != (u, v)] + [(u, w), (v, w)]
    tau = [g.tau[x] for x in g.vertices] + [1]
    return ThresholdGraph.build(g.n + 1, edges, tau), w


def vc_to_tss(g: PlainGraph) -> ThresholdGraph:
    """Set tau(v) = d(v): target sets of the result are exactly vertex covers of g."""
    degs = g.degrees
    for v in range(1, g.n + 1):
        if degs[v] < 1:
            raise DegreeTooSmall(f"vertex {v} has degree {degs[v]} < 1")
    return ThresholdGraph.build(g.n, g.edges, [degs[v] for v in range(1, g.n + 1)])


def fvs_to_tss(g: PlainGraph) -> ThresholdGraph:
    """Set tau(v) = d(v)-1: target sets are exactly feedback vertex sets of g."""
    degs = g.degrees
    for v in range(1, g.n + 1):
        if degs[v] < 2:
            raise DegreeTooSmall(f"vertex {v} has degree {degs[v]} < 2")
    return ThresholdGraph.build(g.n, g.edges, [degs[v] - 1 for v in range(1, g.n + 1)])


# -- TSR instance format -------------------------------------------------
#
#   p tsr <n> <m>
#   v <id> <tau>        (n lines)
#   e <u> <v>           (m lines, u < v)
#   # comment lines and blank lines are ignored


def records(text: str) -> Iterator[tuple[int, list[str]]]:
    """``(lineno, fields)`` for every line that is neither blank nor a ``#`` comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if parts and not parts[0].startswith("#"):
            yield lineno, parts


def parse_graph(text: str) -> ThresholdGraph:
    header: tuple[int, int] | None = None
    tau: dict[int, int] = {}
    edges: list[Edge] = []
    for lineno, parts in records(text):
        kind = parts[0]
        try:
            if kind == "p":
                if header is not None:
                    raise MalformedLine(f"line {lineno}: duplicate header")
                if len(parts) != 4 or parts[1] != "tsr":
                    raise MalformedLine(f"line {lineno}: expected 'p tsr <n> <m>'")
                header = (int(parts[2]), int(parts[3]))
            elif kind == "v":
                if header is None:
                    raise MalformedLine(f"line {lineno}: 'v' before header")
                if len(parts) != 3:
                    raise MalformedLine(f"line {lineno}: expected 'v <id> <tau>'")
                vid, t = int(parts[1]), int(parts[2])
                if vid in tau:
                    raise MalformedLine(f"line {lineno}: duplicate vertex {vid}")
                tau[vid] = t
            elif kind == "e":
                if header is None:
                    raise MalformedLine(f"line {lineno}: 'e' before header")
                if len(parts) != 3:
                    raise MalformedLine(f"line {lineno}: expected 'e <u> <v>'")
                edges.append((int(parts[1]), int(parts[2])))
            else:
                raise MalformedLine(f"line {lineno}: unknown line kind {kind!r}")
        except ValueError as exc:
            raise MalformedLine(f"line {lineno}: {exc}") from exc
    if header is None:
        raise MalformedLine("missing 'p tsr <n> <m>' header")
    n, m = header
    if n < 1:
        raise MalformedLine(f"vertex count must be positive, got {n}")
    if len(tau) != n:
        raise MalformedLine(f"expected {n} vertex lines, got {len(tau)}")
    if sorted(tau) != list(range(1, n + 1)):
        raise IdGap(f"vertex ids are not dense 1..{n}: {sorted(tau)}")
    if len(edges) != m:
        raise MalformedLine(f"expected {m} edge lines, got {len(edges)}")
    return ThresholdGraph.build(n, edges, [tau[v] for v in range(1, n + 1)])


def serialize_graph(g: ThresholdGraph) -> str:
    lines = [f"p tsr {g.n} {g.m}"]
    lines += [f"v {v} {g.tau[v]}" for v in g.vertices]
    lines += [f"e {u} {v}" for u, v in g.edges]
    return "\n".join(lines) + "\n"


def parse_seed_set(text: str, g: ThresholdGraph | None = None) -> frozenset[int]:
    """Parse a one-line seed file ``s <id> <id> ...``."""
    ids: list[int] = []
    seen_s = False
    for lineno, parts in records(text):
        if parts[0] != "s" or seen_s:
            raise MalformedLine(f"line {lineno}: expected a single 's <ids...>' line")
        seen_s = True
        try:
            ids = [int(p) for p in parts[1:]]
        except ValueError as exc:
            raise MalformedLine(f"line {lineno}: {exc}") from exc
    if not seen_s:
        raise MalformedLine("missing 's' line")
    seed = frozenset(ids)
    if g is not None:
        g.check_seed(seed)
    return seed


def serialize_seed_set(seed: Iterable[int]) -> str:
    return "s " + " ".join(str(v) for v in sorted(seed)) + "\n"
