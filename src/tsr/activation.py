"""The threshold activation process and its certificates.

Activation is synchronous: at each step, every inactive vertex with at least
tau(v) active neighbors becomes active, all simultaneously.  The process is
irreversible and reaches a fixpoint after at most n rounds.
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
from typing import Iterable, Iterator

from .errors import (
    InvariantViolated,
    MalformedLine,
    NotAnOrientation,
    NotATargetSet,
    PreconditionViolated,
)
from .graph import Edge, ThresholdGraph, ints, records

SeedSet = frozenset[int]

# layers up to this size are inserted into a round's sorted ids one by one, a
# larger one merged in: inserting 64 ids into 100 costs what a merge does, and
# into 10,000 a third of it
_INSERT_MAX = 64


def still_target(g: ThresholdGraph, active: set[int], v: int) -> bool:
    """True iff activating the vertex set ``active`` eventually activates ``v``.

    The removal test: if ``active`` plus v contains a target set, ``active``
    is one exactly when this holds.  Decided by one breadth-first scan of R,
    the component of v among the vertices outside ``active``: every edge
    leaving R ends in ``active``, so the activation inside R is exact.  A
    scanned vertex's ``need`` is its threshold less its neighbours in
    ``active`` and those already scanned and active; once it reaches 0 the
    vertex activates, and that spreads at once, but only to scanned vertices,
    so the scan never floods ahead of itself.  True as soon as v activates,
    else False after O(|R| + its edges).  First, v's own neighbours in
    ``active`` may suffice.  Only the membership in ``active`` of R and its
    neighbours is read, so the work does not depend on n until R does.
    """
    if v in active:
        return True
    adj, tau = g.adj, g.tau
    if len(active.intersection(adj[v])) >= tau[v]:
        return True
    need: dict[int, int] = {}
    seen, queue = {v}, [v]
    for u in queue:
        c = tau[u]
        for w in adj[u]:
            if w in need:
                c -= need[w] <= 0
            elif w in active:
                c -= 1
            elif w not in seen:
                seen.add(w)
                queue.append(w)
        need[u] = c
        if c <= 0:
            stack = [u]
            while stack:
                w = stack.pop()
                if w == v:
                    return True
                for x in adj[w]:
                    c = need.get(x, 0)
                    if c > 0:
                        need[x] = c - 1
                        if c == 1:
                            stack.append(x)
    return False


@dataclasses.dataclass(frozen=True)
class ActivationTrace:
    """Synchronous activation rounds A(0) <= A(1) <= ... up to the fixpoint.

    Stored are ``layers[t]``, the sorted vertices that turned active in round
    t (the seed at t = 0), and ``activation_time[v]``, the round at which v
    became active, or None if it never does.  ``rounds[t]``, the full active
    set after t rounds, is derived on demand: it costs O(n * rounds).
    ``lines()`` yields the printed trace one round at a time and ``format()``
    joins it; both cost O(output), the O(n * rounds) bytes printed.
    ``tsr activate`` writes the lines as they are made, so it never holds the
    whole trace as one string.
    """

    layers: tuple[tuple[int, ...], ...]
    activation_time: dict[int, int | None]

    @functools.cached_property
    def rounds(self) -> tuple[frozenset[int], ...]:
        out = []
        active: frozenset[int] = frozenset()
        for layer in self.layers:
            active = active.union(layer)
            out.append(active)
        return tuple(out)

    @property
    def final(self) -> frozenset[int]:
        return frozenset(v for v, t in self.activation_time.items() if t is not None)

    def newly_active(self, t: int) -> frozenset[int]:
        return frozenset(self.layers[t])

    def lines(self) -> Iterator[str]:
        """``round t: <sorted active ids>`` and a newline, for each round t in turn.

        The sorted active ids and their strings are kept side by side: a layer
        of at most ``_INSERT_MAX`` vertices is inserted with ``bisect``, a
        larger one merged in once, so each round's line costs C-level work
        linear in its own length.
        """
        ids: list[int] = []
        strs: list[str] = []
        for t, layer in enumerate(self.layers):
            if len(layer) <= _INSERT_MAX:
                for v in layer:
                    i = bisect.bisect(ids, v)
                    ids.insert(i, v)
                    strs.insert(i, str(v))
            else:
                ids += layer
                ids.sort()  # merges two sorted runs in linear time
                strs = list(map(str, ids))
            yield f"round {t}: {' '.join(strs)}\n"

    def format(self) -> str:
        return "".join(self.lines())


def activation_times(g: ThresholdGraph, s: frozenset[int]) -> list[int]:
    """Each vertex's activation round from the checked seed ``s``, or -1 if it
    never activates (index 0 unused): the one full closure.

    Frontier-based, O(n + m): ``need[u]`` counts down the active neighbors u
    still lacks, and round t + 1 only visits the neighbors of the vertices
    that turned active in round t.
    """
    adj = g.adj
    time = [-1] * (g.n + 1)
    for v in s:
        time[v] = 0
    need = list(g.tau)
    frontier = list(s)
    t = 0
    while frontier:
        t += 1
        hits = []
        for v in frontier:
            for u in adj[v]:
                if time[u] < 0:
                    need[u] -= 1
                    if need[u] == 0:
                        time[u] = t
                        hits.append(u)
        frontier = hits
    return time


def activate(g: ThresholdGraph, seed: Iterable[int]) -> ActivationTrace:
    """Run the synchronous activation process from ``seed`` to its fixpoint:
    ``activation_times`` bucketed by round, each layer ascending."""
    time = activation_times(g, g.check_seed(seed))
    layers: list[list[int]] = [[] for _ in range(max(max(time), 0) + 1)]
    for v in g.vertices:
        if time[v] >= 0:
            layers[time[v]].append(v)
    return ActivationTrace(
        layers=tuple(map(tuple, layers)),
        activation_time={v: None if time[v] < 0 else time[v] for v in g.vertices},
    )


def is_target_set(g: ThresholdGraph, seed: Iterable[int]) -> bool:
    """True iff activating ``seed`` eventually activates every vertex."""
    return -1 not in activation_times(g, g.check_seed(seed))[1:]


@dataclasses.dataclass(frozen=True)
class Residual:
    """Graph induced on the vertices a seed fails to activate.

    Residual ids are dense 1-based; ``vertex_map[i]`` is the original id of
    residual vertex i (index 0 unused).  Thresholds are reduced by the number
    of already-active neighbors.
    """

    graph: ThresholdGraph
    vertex_map: tuple[int, ...]

    def as_original(self) -> tuple[frozenset[int], frozenset[Edge], dict[int, int]]:
        """(vertices, edges, thresholds) relabeled back to original ids."""
        vm = self.vertex_map
        verts = frozenset(vm[1:])
        edges = frozenset(
            (min(vm[u], vm[v]), max(vm[u], vm[v])) for u, v in self.graph.edges
        )
        tau = {vm[v]: self.graph.tau[v] for v in self.graph.vertices}
        return verts, edges, tau


def residual(g: ThresholdGraph, seed: Iterable[int]) -> Residual:
    """Residual graph G_S: vertices not activated by S, thresholds reduced."""
    time = activation_times(g, g.check_seed(seed))
    survivors = [v for v in g.vertices if time[v] < 0]
    index = {v: i + 1 for i, v in enumerate(survivors)}
    edges = [
        (index[u], index[v])
        for u, v in g.edges
        if u in index and v in index
    ]
    tau = [g.tau[v] - sum(time[u] >= 0 for u in g.adj[v]) for v in survivors]
    sub = ThresholdGraph.build(len(survivors), edges, tau)
    return Residual(graph=sub, vertex_map=(0,) + tuple(survivors))


@dataclasses.dataclass(frozen=True)
class Orientation:
    """An assignment of a direction u -> v to every edge of a graph."""

    arcs: tuple[Edge, ...]

    def in_degrees(self, g: ThresholdGraph) -> list[int]:
        indeg = [0] * (g.n + 1)
        for _, v in self.arcs:
            indeg[v] += 1
        return indeg

    def format(self) -> str:
        return "\n".join(f"a {u} {v}" for u, v in self.arcs) + "\n"


def parse_orientation(text: str) -> Orientation:
    """Parse an orientation file: one ``a <u> <v>`` line per directed edge."""
    arcs = []
    for lineno, parts in records(text):
        if parts[0] != "a" or len(parts) != 3:
            raise MalformedLine(f"line {lineno}: expected 'a <u> <v>'")
        arcs.append(tuple(ints(lineno, parts[1:])))
    return Orientation(arcs=tuple(arcs))


def _is_acyclic(n: int, arcs: Iterable[Edge]) -> bool:
    out: list[list[int]] = [[] for _ in range(n + 1)]
    indeg = [0] * (n + 1)
    for u, v in arcs:
        out[u].append(v)
        indeg[v] += 1
    queue = [v for v in range(1, n + 1) if indeg[v] == 0]
    seen = 0
    while queue:
        v = queue.pop()
        seen += 1
        for u in out[v]:
            indeg[u] -= 1
            if indeg[u] == 0:
                queue.append(u)
    return seen == n


def certify_orientation(g: ThresholdGraph, seed: Iterable[int], d: Orientation) -> bool:
    """Check the acyclic-orientation certificate for ``seed`` being a target set.

    Accepts iff d orients every edge of g exactly once, is acyclic, and every
    vertex outside the seed has in-degree at least its threshold.
    """
    s = g.check_seed(seed)
    covered = set()
    for u, v in d.arcs:
        g.check_vertex(u)
        g.check_vertex(v)
        if not g.has_edge(u, v):
            raise NotAnOrientation(f"arc ({u},{v}) is not an edge of the graph")
        e = (min(u, v), max(u, v))
        if e in covered:
            raise NotAnOrientation(f"edge {e} oriented twice")
        covered.add(e)
    if len(covered) != g.m:
        raise NotAnOrientation(f"{g.m - len(covered)} edges left unoriented")
    if not _is_acyclic(g.n, d.arcs):
        return False
    indeg = d.in_degrees(g)
    return all(indeg[v] >= g.tau[v] for v in g.vertices if v not in s)


def orientation_from_trace(g: ThresholdGraph, seed: Iterable[int]) -> Orientation:
    """Build a passing certificate from activation times of a target set.

    Edges point from earlier-activated to later-activated endpoints; ties are
    broken toward the larger id, so arcs increase in (time, id) and the result
    is acyclic.
    """
    s = g.check_seed(seed)
    trace = activate(g, s)
    if trace.final != frozenset(g.vertices):
        raise NotATargetSet(f"{sorted(s)} is not a target set")
    t = trace.activation_time
    arcs = []
    for u, v in g.edges:
        if (t[u], u) < (t[v], v):
            arcs.append((u, v))
        else:
            arcs.append((v, u))
    return Orientation(arcs=tuple(arcs))


def shrink_threshold1_seed(
    g: ThresholdGraph, seed: Iterable[int], v: int, w: int
) -> frozenset[int]:
    """Replace a threshold-1 seed vertex v by any neighbor w.

    The result S \\ {v} u {w} is again a target set whenever S was one.
    """
    s = g.check_seed(seed)
    g.check_vertex(v)
    g.check_vertex(w)
    if v not in s:
        raise PreconditionViolated(f"vertex {v} is not in the seed set")
    if g.tau[v] != 1:
        raise PreconditionViolated(f"vertex {v} has threshold {g.tau[v]} != 1")
    if w not in g.adj[v]:
        raise PreconditionViolated(f"vertex {w} is not a neighbor of {v}")
    if not is_target_set(g, s):
        raise PreconditionViolated(f"{sorted(s)} is not a target set")
    out = (s - {v}) | {w}
    if not is_target_set(g, out):
        raise InvariantViolated(f"{sorted(out)} is not a target set")
    return out
