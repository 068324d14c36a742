"""Random instance generators for tests and fixtures.

All generators take an explicit ``random.Random`` so runs are reproducible.
Thresholds are always drawn within [1, d(v)], so every output parses.
"""

from __future__ import annotations

import random

from .errors import InvalidInput
from .graph import ThresholdGraph
from .reductions import HittingSystem


def random_tree(rng: random.Random, n: int) -> ThresholdGraph:
    """Uniform attachment tree on n >= 2 vertices with random thresholds."""
    if n < 2:
        raise InvalidInput("a tree needs at least 2 vertices")
    edges = [(rng.randint(1, v - 1), v) for v in range(2, n + 1)]
    deg = [0] * (n + 1)
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    tau = [rng.randint(1, deg[v]) for v in range(1, n + 1)]
    return ThresholdGraph.build(n, edges, tau)


def path_with_spacing(m: int, gaps: list[int]) -> ThresholdGraph:
    """Path with m threshold-2 vertices separated by given threshold-1 runs.

    ``gaps`` has m+1 entries: the run lengths before w_1, between consecutive
    w's, and after w_m.  End runs must be nonempty (endpoints have degree 1).
    """
    if len(gaps) != m + 1:
        raise InvalidInput(f"need {m + 1} gaps for m={m}")
    if m > 0 and (gaps[0] < 1 or gaps[-1] < 1):
        raise InvalidInput("end runs must be nonempty when m > 0")
    tau: list[int] = []
    for i in range(m):
        tau.extend([1] * gaps[i])
        tau.append(2)
    tau.extend([1] * gaps[m])
    n = len(tau)
    if n < 2:
        raise InvalidInput("path needs at least 2 vertices")
    edges = [(i, i + 1) for i in range(1, n)]
    return ThresholdGraph.build(n, edges, tau)


def cycle_with_spacing(m: int, gaps: list[int]) -> ThresholdGraph:
    """Cycle with m threshold-2 vertices; ``gaps[i]`` threshold-1 vertices follow w_i."""
    if len(gaps) != max(m, 1):
        raise InvalidInput(f"need {max(m, 1)} gaps for m={m}")
    tau: list[int] = []
    for i in range(max(m, 1)):
        if m > 0:
            tau.append(2)
        tau.extend([1] * gaps[i])
    n = len(tau)
    if n < 3:
        raise InvalidInput("cycle needs at least 3 vertices")
    edges = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    return ThresholdGraph.build(n, edges, tau)


def random_path(rng: random.Random, m: int, max_gap: int = 3) -> ThresholdGraph:
    if m < 0:
        raise InvalidInput(f"negative threshold-2 count m={m}")
    if max_gap < 1:
        raise InvalidInput(f"max_gap={max_gap} must be at least 1")
    gaps = [rng.randint(1, max_gap)] + [rng.randint(0, max_gap) for _ in range(max(m - 1, 0))] + [rng.randint(1, max_gap)]
    if m == 0:
        gaps = [rng.randint(2, max(2, 2 * max_gap))]
    return path_with_spacing(m, gaps)


def random_cycle(rng: random.Random, m: int, max_gap: int = 3) -> ThresholdGraph:
    if m < 0:
        raise InvalidInput(f"negative threshold-2 count m={m}")
    if max_gap < 0:
        raise InvalidInput(f"max_gap={max_gap} must be at least 0")
    if 0 < m and m * (1 + max_gap) < 3:
        raise InvalidInput(f"m={m} with gaps of at most {max_gap} cannot reach 3 vertices")
    while True:
        gaps = [rng.randint(0, max_gap) for _ in range(max(m, 1))]
        if m == 0:
            gaps = [rng.randint(3, max(3, 3 * max_gap))]
        if m + sum(gaps) >= 3:
            return cycle_with_spacing(m, gaps)


def random_maxdeg2(rng: random.Random, n: int) -> ThresholdGraph:
    """Disjoint paths and cycles totalling about n >= 2 vertices, random thresholds."""
    if n < 2:
        raise InvalidInput(f"need at least 2 vertices, got n={n}")
    edges: list[tuple[int, int]] = []
    tau: list[int] = []
    base = 0
    left = n
    while left > 0:
        if left >= 3 and rng.random() < 0.5:
            size = rng.randint(3, left)
            kind = "cycle"
        elif left >= 2:
            size = rng.randint(2, left)
            kind = "path"
        else:
            break
        ids = list(range(base + 1, base + size + 1))
        edges += list(zip(ids, ids[1:]))
        if kind == "cycle":
            edges.append((ids[0], ids[-1]))
        for i in range(size):
            d = 2 if kind == "cycle" or 0 < i < size - 1 else 1
            tau.append(rng.randint(1, d))
        base += size
        left -= size
    return ThresholdGraph.build(base, edges, tau)


def random_connected(rng: random.Random, n: int, extra_edge_prob: float = 0.3) -> ThresholdGraph:
    """Random connected graph: a random tree plus extra edges, random thresholds."""
    if n < 2:
        raise InvalidInput("need at least 2 vertices")
    edges = {(rng.randint(1, v - 1), v) for v in range(2, n + 1)}
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if (u, v) not in edges and rng.random() < extra_edge_prob:
                edges.add((u, v))
    deg = [0] * (n + 1)
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    tau = [rng.randint(1, deg[v]) for v in range(1, n + 1)]
    return ThresholdGraph.build(n, sorted(edges), tau)


def random_hitting_system(
    rng: random.Random, n: int, m: int, k: int
) -> HittingSystem:
    """Random set family over 1..n with m nonempty sets and target size 1 <= k < n."""
    if n < 1:
        raise InvalidInput(f"universe size n={n} must be positive")
    if not 1 <= k < n:
        raise InvalidInput(f"target size k={k} must satisfy 1 <= k < n={n}")
    family = []
    for _ in range(m):
        size = rng.randint(1, n)
        family.append(rng.sample(range(1, n + 1), size))
    return HittingSystem.build(n, family, k)


def random_with_33_vertex(rng: random.Random, n: int) -> tuple[ThresholdGraph, int]:
    """Random connected graph containing at least one (3,3)-vertex; returns it."""
    for _ in range(200):
        g = random_connected(rng, n, extra_edge_prob=0.4)
        cands = [v for v in g.vertices if len(g.adj[v]) == 3]
        if not cands:
            continue
        w = rng.choice(cands)
        tau = [g.tau[v] for v in g.vertices]
        tau[w - 1] = 3
        return ThresholdGraph.build(g.n, g.edges, tau), w
    raise InvalidInput(f"could not place a (3,3)-vertex in a graph of size {n}")
