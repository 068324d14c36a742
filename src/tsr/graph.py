"""Threshold graphs: representation, validation, parsing, and structural predicates.

Vertices are dense 1-based integer ids.  A threshold graph is simple and
undirected, and every vertex v satisfies 1 <= tau(v) <= d(v), which in
particular forbids isolated vertices.
"""

from __future__ import annotations

import dataclasses
import re
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import (
    DegreeTooSmall,
    DuplicateEdge,
    IdGap,
    MalformedLine,
    SelfLoop,
    ThresholdOutOfRange,
    UnknownVertex,
)

Edge = tuple[int, int]


def _neighbours(n: int, edges: Iterable[Edge]) -> list[set[int]]:
    """Each vertex's neighbour set (index 0 unused): the one edge check of
    both graph builds, which rejects self-loops, ids outside 1..n and
    duplicate edges."""
    nbrs: list[set[int]] = [set() for _ in range(n + 1)]
    for u, v in edges:
        if u == v:
            raise SelfLoop(f"self-loop at vertex {u}")
        if not (1 <= u <= n and 1 <= v <= n):
            raise IdGap(f"edge ({u},{v}) out of range 1..{n}")
        nu = nbrs[u]
        if v in nu:
            raise DuplicateEdge(f"duplicate edge {(min(u, v), max(u, v))}")
        nu.add(v)
        nbrs[v].add(u)
    return nbrs


def edge_list(nbrs: Sequence[Iterable[int]]) -> tuple[Edge, ...]:
    """The edges (u, v), u < v, in ascending order, of a neighbour list (index 0 unused)."""
    return tuple(sorted([(u, v) for u in range(1, len(nbrs)) for v in nbrs[u] if u < v]))


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
        adj = tuple([tuple(sorted(s)) for s in _neighbours(n, edges)])
        for v, t in enumerate(tau, start=1):
            if not 1 <= t <= len(adj[v]):
                raise ThresholdOutOfRange(f"vertex {v}: tau={t} not in [1, d={len(adj[v])}]")
        return ThresholdGraph(n=n, adj=adj, tau=(0, *tau))

    # -- derived views ------------------------------------------------

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        return edge_list(self.adj)

    @property
    def m(self) -> int:
        """The edge count, half the degree sum: no edge list is built."""
        return sum(map(len, self.adj)) // 2

    @cached_property
    def vertices(self) -> tuple[int, ...]:
        return tuple(range(1, self.n + 1))

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u] if 1 <= u <= self.n else False

    def check_vertex(self, v: int) -> None:
        if not (1 <= v <= self.n):
            raise UnknownVertex(f"vertex {v} not in 1..{self.n}")

    def check_seed(self, seed: Iterable[int]) -> frozenset[int]:
        """seed as a frozenset; ``UnknownVertex`` names an id outside 1..n."""
        s = frozenset(seed)
        if s and (min(s) < 1 or max(s) > self.n):
            for v in s:
                self.check_vertex(v)
        return s

    def components(self) -> list[tuple[int, ...]]:
        """Connected components as sorted vertex tuples, ordered by min id.

        O(n + m): each vertex is labeled with its component's index, the
        components numbered in order of their least vertex, and the vertices
        are then bucketed in id order, so each tuple comes out sorted.
        """
        adj = self.adj
        label = [0] * (self.n + 1)
        count = 0
        for s in range(1, self.n + 1):
            if label[s]:
                continue
            count += 1
            label[s] = count
            stack = [s]
            while stack:
                for u in adj[stack.pop()]:
                    if not label[u]:
                        label[u] = count
                        stack.append(u)
        comps: list[list[int]] = [[] for _ in range(count)]
        for v in range(1, self.n + 1):
            comps[label[v] - 1].append(v)
        return [tuple(c) for c in comps]


@dataclasses.dataclass(frozen=True)
class PlainGraph:
    """Simple graph without thresholds (vertex-cover style instances)."""

    n: int
    edges: tuple[Edge, ...]

    @staticmethod
    def build(n: int, edges: Iterable[Edge]) -> "PlainGraph":
        return PlainGraph(n=n, edges=edge_list(_neighbours(n, edges)))

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


def _degree_minus(g: PlainGraph, c: int) -> ThresholdGraph:
    """g with tau(v) = d(v) - c; a vertex of degree at most c is ``DegreeTooSmall``."""
    degs = g.degrees
    for v in range(1, g.n + 1):
        if degs[v] <= c:
            raise DegreeTooSmall(f"vertex {v} has degree {degs[v]} < {c + 1}")
    return ThresholdGraph.build(g.n, g.edges, [d - c for d in degs[1:]])


def vc_to_tss(g: PlainGraph) -> ThresholdGraph:
    """Set tau(v) = d(v): target sets of the result are exactly vertex covers of g."""
    return _degree_minus(g, 0)


def fvs_to_tss(g: PlainGraph) -> ThresholdGraph:
    """Set tau(v) = d(v)-1: target sets are exactly feedback vertex sets of g."""
    return _degree_minus(g, 1)


# -- TSR instance format -------------------------------------------------
#
#   p tsr <n> <m>
#   v <id> <tau>        (n lines)
#   e <u> <v>           (m lines, u < v)
#   # comment lines and blank lines are ignored


def records(text: str) -> Iterator[tuple[int, list[str]]]:
    """``(lineno, fields)`` for every line that is neither blank nor a ``#`` comment."""
    for lineno, parts in enumerate(map(str.split, text.splitlines()), start=1):
        if parts and parts[0][0] != "#":
            yield lineno, parts


def ints(lineno: int, fields: list[str]) -> list[int]:
    """A record's fields as ints; one that is not an int is a ``MalformedLine`` naming the line."""
    try:
        return [*map(int, fields)]
    except ValueError as exc:
        raise MalformedLine(f"line {lineno}: {exc}") from exc


# the form ``serialize_graph`` writes: the header, the vertex lines, the edge lines
_CANONICAL = re.compile(r"p tsr [0-9]+ [0-9]+\n(?:v [0-9]+ [0-9]+\n)*(?:e [0-9]+ [0-9]+\n)*")


def _bulk(text: str) -> tuple[int, list[Edge], list[int]] | None:
    """``ThresholdGraph.build``'s arguments from a ``_CANONICAL`` text with
    n >= 1, n vertex lines, ids 1..n in order and m edge lines; else None."""
    if not _CANONICAL.fullmatch(text):
        return None
    tok = text.split()
    try:
        n, m = int(tok[2]), int(tok[3])
        # the counts before anything of size n: a header alone may claim any n
        if n < 1 or len(tok) != 4 + 3 * (n + m) or tok.count("v") != n:
            return None
        cut = 4 + 3 * n
        if [*map(int, tok[5:cut:3])] != [*range(1, n + 1)]:
            return None
        return n, [*zip(map(int, tok[cut + 1 :: 3]), map(int, tok[cut + 2 :: 3]))], [*map(int, tok[6:cut:3])]
    except ValueError:  # a number past int()'s digit limit: the line loop names its line
        return None


def parse_graph(text: str) -> ThresholdGraph:
    """Read a ``.tsr`` graph: a ``p tsr <n> <m>`` header, then ``v <id> <tau>``
    for each of the n vertices and ``e <u> <v>`` for each of the m edges.

    Lines may come in any order after the header, with ``#`` comments and
    blank lines.  A text in the form ``serialize_graph`` writes (single
    spaces, newline endings, ids 1..n in order, vertex lines before edge
    lines) is read in one bulk scan.  Any other text goes through the line
    loop, the one source of line-numbered errors, which reads the same graph.
    Both hand the same edges in the same order, and the same thresholds, to
    ``ThresholdGraph.build``, so a graph fault raises the same error either way.
    """
    args = _bulk(text)
    if args is not None:
        return ThresholdGraph.build(*args)
    header: list[int] | None = None
    tau: dict[int, int] = {}
    edges: list[Edge] = []
    for lineno, parts in records(text):
        kind = parts[0]
        # the m edge and n vertex lines first; the one header line last
        if kind == "e":
            if header is None:
                raise MalformedLine(f"line {lineno}: 'e' before header")
            if len(parts) != 3:
                raise MalformedLine(f"line {lineno}: expected 'e <u> <v>'")
            u, v = ints(lineno, parts[1:])
            edges.append((u, v))
        elif kind == "v":
            if header is None:
                raise MalformedLine(f"line {lineno}: 'v' before header")
            if len(parts) != 3:
                raise MalformedLine(f"line {lineno}: expected 'v <id> <tau>'")
            vid, t = ints(lineno, parts[1:])
            if vid in tau:
                raise MalformedLine(f"line {lineno}: duplicate vertex {vid}")
            tau[vid] = t
        elif kind == "p":
            if header is not None:
                raise MalformedLine(f"line {lineno}: duplicate header")
            if len(parts) != 4 or parts[1] != "tsr":
                raise MalformedLine(f"line {lineno}: expected 'p tsr <n> <m>'")
            header = ints(lineno, parts[2:])
        else:
            raise MalformedLine(f"line {lineno}: unknown line kind {kind!r}")
    if header is None:
        raise MalformedLine("missing 'p tsr <n> <m>' header")
    n, m = header
    if n < 1:
        raise MalformedLine(f"vertex count must be positive, got {n}")
    if m < 0:
        raise MalformedLine(f"edge count must not be negative, got {m}")
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


def seed_ids(lineno: int, parts: list[str]) -> frozenset[int]:
    """The ids of an ``s <id> ...`` (or ``f``) record, each at most once."""
    ids: set[int] = set()
    for v in ints(lineno, parts[1:]):
        if v in ids:
            raise MalformedLine(f"line {lineno}: repeated id {v}")
        ids.add(v)
    return frozenset(ids)


def parse_seed_set(text: str, g: ThresholdGraph | None = None) -> frozenset[int]:
    """Parse a one-line seed file ``s <id> <id> ...``."""
    seed: frozenset[int] = frozenset()
    seen_s = False
    for lineno, parts in records(text):
        if parts[0] != "s" or seen_s:
            raise MalformedLine(f"line {lineno}: expected a single 's <ids...>' line")
        seen_s = True
        seed = seed_ids(lineno, parts)
    if not seen_s:
        raise MalformedLine("missing 's' line")
    if g is not None:
        g.check_seed(seed)
    return seed


def serialize_seed_set(seed: Iterable[int]) -> str:
    return "s " + " ".join(str(v) for v in sorted(seed)) + "\n"
