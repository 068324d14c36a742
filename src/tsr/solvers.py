"""Polynomial-time deciders and sequence builders for tractable classes.

Covers threshold-1 graphs, graphs of maximum degree 2 (paths and cycles,
including the "terrible cycle" obstruction), and trees via Chen's bottom-up
selection algorithm.  Every class routes a target set to a canonical minimum
by one packing sweep (``_sweep``): for each region, add its canonical seed,
then clear the rest of the region.  Paths are swept directly along their
vertex order.

Plans are built once per graph object, in its own ``__dict__`` as a
``cached_property`` is, and live as long as it does; a ``dataclasses.replace``
copy starts empty.  They are the maximum-degree-2 decomposition
(``decompose_deg2``), whose route memo grows with the distinct component
restrictions queried, and Chen's tree plan per root (``chen_tree``).
"""

from __future__ import annotations

import dataclasses
from functools import cached_property
from typing import Callable

from .activation import closure_mask, is_target_set, seed_mask
from .errors import (
    DegreeTooLarge,
    InvariantViolated,
    NotACycle,
    NotAPath,
    NotATargetSet,
    NotATree,
    PreconditionViolated,
)
from .graph import ThresholdGraph, classify
from .reconfig import TAR, TJ, ReconfigSequence, Step, reverse_steps, tar_to_tj


# -- the packing sweep -------------------------------------------------------


def _sweep(s, regions, final: frozenset[int]) -> list[Step]:
    """TAR steps from s to ``final`` by the packing argument.

    For each ``(target, region)`` in order: add ``target`` if absent, then
    remove the rest of the region from the set; finish by removing whatever
    lies outside ``final``.  Callers pick regions that every target set meets
    and whose sweep leaves a target set, so every intermediate set is a
    target set and the peak stays within |s|+1.
    """
    cur = set(s)
    steps: list[Step] = []
    for target, region in regions:
        if target not in cur:
            steps.append(Step.add(target))
            cur.add(target)
        for v in sorted(cur.intersection(region) - {target}):
            steps.append(Step.remove(v))
            cur.remove(v)
    for v in sorted(cur - final):
        steps.append(Step.remove(v))
        cur.remove(v)
    if cur != final:
        raise InvariantViolated(f"sweep ended at {sorted(cur)}, not {sorted(final)}")
    return steps


# -- degree-2 decomposition ------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Deg2Component:
    """One path or cycle component of a maximum-degree-2 graph.

    ``order`` lists the vertices along the component (for cycles, starting at
    the smallest id and heading toward its smaller neighbor); ``w`` is the
    subsequence of threshold-2 vertices.  A cycle is terrible when it has an
    even number m >= 4 of threshold-2 vertices.
    """

    kind: str  # "path" | "cycle"
    order: tuple[int, ...]
    w: tuple[int, ...]
    terrible: bool

    @property
    def m(self) -> int:
        return len(self.w)

    @cached_property
    def vertices(self) -> frozenset[int]:
        return frozenset(self.order)

    @cached_property
    def min_size(self) -> int:
        if self.kind == "path":
            return self.m // 2 + 1
        if self.m == 0:
            return 1
        return self.m // 2 if self.m % 2 == 0 else (self.m + 1) // 2


@dataclasses.dataclass(frozen=True)
class Deg2Decomposition:
    """The components of a maximum-degree-2 graph: the plan ``decompose_deg2`` caches.

    Its memos are keyed by (component index, restriction of a set to it): the
    component route with its reversed steps, and whether the restriction's
    closure covers the component.
    """

    components: tuple[Deg2Component, ...]
    _routes: dict = dataclasses.field(default_factory=dict, init=False, repr=False, compare=False)
    _covers: dict = dataclasses.field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def min_size(self) -> int:
        return sum(c.min_size for c in self.components)

    def route(self, i: int, r: frozenset[int]) -> tuple[tuple[Step, ...], frozenset[int], int | None, tuple[Step, ...]]:
        """``_component_route`` of component i from r, the steps as a tuple, and the steps that undo them."""
        hit = self._routes.get((i, r))
        if hit is None:
            steps, final, anchor = _component_route(self.components[i], r)
            hit = self._routes[i, r] = (tuple(steps), final, anchor, reverse_steps(steps))
        return hit

    def is_target_set(self, g: ThresholdGraph, s: frozenset[int], rs) -> bool:
        """``is_target_set(g, s)``: the components are independent, so each restriction must cover its own."""
        if any((i, r) not in self._covers for i, r in enumerate(rs)):
            active = closure_mask(g, seed_mask(g, s))
            for i, r in enumerate(rs):
                self._covers[i, r] = all(active >> v & 1 for v in self.components[i].order)
        return all(self._covers[i, r] for i, r in enumerate(rs))


def decompose_deg2(g: ThresholdGraph) -> Deg2Decomposition:
    """Partition a maximum-degree-2 graph into its path and cycle components (cached on g)."""
    if "_deg2_plan" in g.__dict__:
        return g.__dict__["_deg2_plan"]
    for v in g.vertices:
        if len(g.adj[v]) > 2:
            raise DegreeTooLarge(f"vertex {v} has degree {len(g.adj[v])} > 2")
    comps = []
    for comp in g.components():
        degs = {v: len(g.adj[v]) for v in comp}
        ends = sorted(v for v in comp if degs[v] == 1)
        if ends:
            start = ends[0]
            kind = "path"
        else:
            start = comp[0]
            kind = "cycle"
        order = [start]
        prev = None
        cur = start
        while True:
            nxts = [u for u in g.adj[cur] if u != prev]
            if kind == "cycle" and cur == start:
                nxts = [min(nxts)]
            if not nxts:
                break
            prev, cur = cur, nxts[0]
            if kind == "cycle" and cur == start:
                break
            order.append(cur)
        w = tuple(v for v in order if g.tau[v] == 2)
        m = len(w)
        comps.append(
            Deg2Component(
                kind=kind,
                order=tuple(order),
                w=w,
                terrible=(kind == "cycle" and m >= 4 and m % 2 == 0),
            )
        )
    return g.__dict__.setdefault("_deg2_plan", Deg2Decomposition(components=tuple(comps)))


# -- trees ------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class TreePlan:
    """Output of Chen's algorithm plus the canonical-seed packing.

    ``s_list`` orders the canonical minimum target set S* by postorder;
    ``packing[i]`` is the region P_i that every target set must hit, with
    S* & P_i == {s_list[i]}.
    """

    root: int
    parent: tuple[int, ...]
    tau_prime: tuple[int, ...]
    s_star: frozenset[int]
    s_list: tuple[int, ...]
    packing: tuple[frozenset[int], ...]

    def format_packing(self) -> str:
        lines = []
        for i, p in enumerate(self.packing, start=1):
            lines.append(f"packing {i}: " + " ".join(str(v) for v in sorted(p)))
        return "\n".join(lines) + "\n"


def chen_tree(g: ThresholdGraph, root: int | None = None) -> TreePlan:
    """Bottom-up minimum target set of a tree.

    Scans vertices in postorder (children in ascending id); tau'(v) subtracts
    the children that the current selection would have activated.  A non-root
    joins S* when tau'(v) >= 2, the root when tau'(root) >= 1.  The plan is
    cached on g per root.
    """
    root = 1 if root is None else root
    plans = g.__dict__.setdefault("_tree_plans", {})
    if root in plans:
        return plans[root]
    if not classify(g).is_tree:
        raise NotATree("graph is not a tree")
    g.check_vertex(root)
    parent = [0] * (g.n + 1)
    order = []  # preorder
    parent[root] = 0
    stack = [root]
    seen = {root}
    while stack:
        v = stack.pop()
        order.append(v)
        for u in reversed(g.adj[v]):
            if u not in seen:
                seen.add(u)
                parent[u] = v
                stack.append(u)
    children: list[list[int]] = [[] for _ in range(g.n + 1)]
    for v in order:
        if v != root:
            children[parent[v]].append(v)
    for c in children:
        c.sort()
    post: list[int] = []
    stack2: list[tuple[int, bool]] = [(root, False)]
    while stack2:
        v, done = stack2.pop()
        if done:
            post.append(v)
            continue
        stack2.append((v, True))
        for u in reversed(children[v]):
            stack2.append((u, False))
    tau_prime = [0] * (g.n + 1)
    s_star: set[int] = set()
    for v in post:
        activated = sum(
            1 for w in children[v] if tau_prime[w] == 0 or w in s_star
        )
        # floored at 0: tau' counts the remaining requirement, and a vertex
        # with more activated children than its threshold is itself activated
        tau_prime[v] = max(0, g.tau[v] - activated)
        if v != root and tau_prime[v] >= 2:
            s_star.add(v)
        if v == root and tau_prime[v] >= 1:
            s_star.add(v)
    s_list = tuple(v for v in post if v in s_star)
    # nearest S*-ancestor-or-self, computed root-down (preorder; the root's
    # parent 0 has none)
    nearest = [0] * (g.n + 1)
    for v in order:
        nearest[v] = v if v in s_star else nearest[parent[v]]
    regions: dict[int, list[int]] = {s: [] for s in s_list}
    for v in g.vertices:
        if nearest[v]:
            regions[nearest[v]].append(v)
    packing = tuple(frozenset(regions[s]) for s in s_list)
    plans[root] = TreePlan(
        root=root,
        parent=tuple(parent),
        tau_prime=tuple(tau_prime),
        s_star=frozenset(s_star),
        s_list=s_list,
        packing=packing,
    )
    return plans[root]


def tree_tar_to_canonical(
    g: ThresholdGraph, plan: TreePlan, s
) -> ReconfigSequence:
    """|S|-TAR route from any target set S of a tree to the canonical S*.

    For each canonical seed in postorder: add it if absent, then clear the
    rest of its packing region; finish by removing leftovers outside the
    packing.  Every intermediate set is a superset of a target set.
    """
    ss = g.check_seed(s)
    if not is_target_set(g, ss):
        raise NotATargetSet(f"{sorted(ss)} is not a target set")
    steps = _sweep(ss, zip(plan.s_list, plan.packing), plan.s_star)
    return ReconfigSequence(ss, tuple(steps), TAR, k=len(ss))


def solve_tree(
    g: ThresholdGraph, x, y, *, model: str = TJ
) -> tuple[bool, ReconfigSequence]:
    """Trees: any two same-size target sets are reconfigurable.

    Routes x down to the canonical S* and back up to y; the TAR peak stays
    within max(|x|,|y|)+1.
    """
    xs, ys = g.check_seed(x), g.check_seed(y)
    if len(xs) != len(ys):
        raise PreconditionViolated(f"|x|={len(xs)} != |y|={len(ys)}")
    plan = chen_tree(g)
    down = tree_tar_to_canonical(g, plan, xs)
    up = tree_tar_to_canonical(g, plan, ys)
    seq = ReconfigSequence(xs, down.steps + reverse_steps(up.steps), TAR, k=len(xs))
    return True, (tar_to_tj(seq) if model == TJ else seq)


# -- threshold-1 graphs ------------------------------------------------------


def solve_threshold1(
    g: ThresholdGraph, x, y, *, model: str = TJ
) -> tuple[bool, ReconfigSequence]:
    """Threshold-1 graphs: always reconfigurable via one canonical seed per component."""
    if any(g.tau[v] != 1 for v in g.vertices):
        raise PreconditionViolated("graph has a vertex of threshold != 1")
    xs, ys = g.check_seed(x), g.check_seed(y)
    if len(xs) != len(ys):
        raise PreconditionViolated(f"|x|={len(xs)} != |y|={len(ys)}")
    if not is_target_set(g, xs) or not is_target_set(g, ys):
        raise PreconditionViolated("endpoints must be target sets")
    # one canonical seed per component: its smallest vertex
    regions = [(comp[0], comp) for comp in g.components()]
    canon = frozenset(target for target, _ in regions)
    down, up = _sweep(xs, regions, canon), _sweep(ys, regions, canon)
    seq = ReconfigSequence(xs, tuple(down) + reverse_steps(up), TAR, k=len(xs))
    return True, (tar_to_tj(seq) if model == TJ else seq)


# -- paths and cycles --------------------------------------------------------


def _path_canonical_set(comp: Deg2Component) -> frozenset[int]:
    m = comp.m
    if m == 0:
        return frozenset({comp.order[0]})
    if m % 2 == 1:
        idx = range(0, m, 2)
    else:
        idx = list(range(0, m - 1, 2)) + [m - 1]
    return frozenset(comp.w[i] for i in idx)


def _path_regions(comp: Deg2Component) -> list[tuple[int, tuple[int, ...]]]:
    """Sweep regions of a path with m >= 1 threshold-2 vertices.

    With w_1..w_m the threshold-2 vertices and P_j the threshold-1 run between
    w_j and w_{j+1} (P_0 and P_m at the ends), the sweep clears P_0+w_1 toward
    w_1, each w_{2i}+P_{2i}+w_{2i+1} toward w_{2i+1}, and for even m, w_m+P_m
    toward w_m.  Every target set meets each region: were none of its vertices
    seeded, the first to activate would need an active neighbor inside it.
    Once a region is swept, everything up to its target is active, so every
    intermediate set is a target set.
    """
    order, w, m = comp.order, comp.w, comp.m
    wset = set(w)
    pos = [i for i, v in enumerate(order) if v in wset]
    regions = [(w[0], order[: pos[0] + 1])]
    regions += [(w[j + 1], order[pos[j] : pos[j + 1] + 1]) for j in range(1, m - 1, 2)]
    if m % 2 == 0:
        regions.append((w[m - 1], order[pos[m - 1] :]))
    return regions


def _cycle_arc(order: tuple[int, ...], a: int, b: int) -> tuple[int, ...]:
    """Cycle vertices from position a through position b, wrapping around."""
    n = len(order)
    return tuple(order[(a + i) % n] for i in range((b - a) % n + 1))


def _even_cycle_regions(comp: Deg2Component, s: frozenset[int]):
    """Sweep regions toward a minimum of an even cycle; none when s contains one."""
    w, m = comp.w, comp.m
    for final in (frozenset(w[0::2]), frozenset(w[1::2])):
        if s >= final:
            return (), final
    # anchor the relabeling at the smallest-id threshold-2 vertex missing from s
    shift = w.index(min(v for v in w if v not in s))
    lab = w[shift:] + w[:shift]
    pos = {v: i for i, v in enumerate(comp.order)}
    regions = [
        (lab[2 * i + 1], _cycle_arc(comp.order, pos[lab[2 * i]], pos[lab[2 * i + 1]]))
        for i in range(m // 2)
    ]
    return regions, frozenset(lab[1::2])


def _odd_cycle_regions(comp: Deg2Component, s: frozenset[int]):
    """Sweep regions toward the all-threshold-2 minimum anchored where s first meets an interval."""
    order, w, m = comp.order, comp.w, comp.m
    pos = {v: i for i, v in enumerate(order)}
    # interval j (0-based): from w_j up to, not including, w_{j+1}; for m=1
    # the single interval wraps the whole cycle
    intervals = [_cycle_arc(order, pos[w[j]], pos[w[(j + 1) % m]] - 1) for j in range(m)]
    p = next(j for j in range(m) if s & set(intervals[j]))
    regions = [(w[p], intervals[p])]
    regions += [
        (w[(p + 2 * j) % m], intervals[(p + 2 * j - 1) % m] + intervals[(p + 2 * j) % m])
        for j in range(1, (m - 1) // 2 + 1)
    ]
    final = frozenset(w[(p + 2 * t) % m] for t in range((m - 1) // 2 + 1))
    return regions, final, p


def even_cycle_flip_steps(comp: Deg2Component, current: frozenset[int]) -> tuple[list[Step], frozenset[int]]:
    """(m/2+1)-TAR flip between the two minima of an even cycle.

    Relabels so the current set sits on odd positions, then: add the last w,
    jump along even positions, drop the second-to-last w.
    """
    w = comp.w
    m = comp.m
    s1 = frozenset(w[i] for i in range(0, m, 2))
    shift = 0 if current == s1 else 1
    if current != frozenset(w[(shift + i) % m] for i in range(0, m, 2)):
        raise PreconditionViolated("flip must start at a minimum target set of the cycle")
    lab = [w[(shift + i) % m] for i in range(m)]
    steps = [Step.add(lab[m - 1])]
    for i in range(1, m // 2):
        steps.append(Step.add(lab[2 * i - 1]))
        steps.append(Step.remove(lab[2 * i - 2]))
    steps.append(Step.remove(lab[m - 2]))
    final = frozenset(lab[i] for i in range(1, m, 2))
    return steps, final


def odd_cycle_rotation_steps(comp: Deg2Component, p: int, q: int) -> list[Step]:
    """TJ rotation S*_p -> S*_q of an odd cycle, emitted as add/remove pairs."""
    m = comp.m
    steps: list[Step] = []
    while p != q:
        steps.append(Step.add(comp.w[(p + 1) % m]))
        steps.append(Step.remove(comp.w[p]))
        p = (p + 2) % m
    return steps


def _component_route(
    comp: Deg2Component, s: frozenset[int]
) -> tuple[list[Step], frozenset[int], int | None]:
    """TAR steps from s to a canonical minimum of comp, that minimum, and the odd-cycle anchor."""
    anchor = None
    if comp.m == 0:
        regions, final = [(comp.order[0], comp.order)], frozenset({comp.order[0]})
    elif comp.kind == "path":
        regions, final = _path_regions(comp), _path_canonical_set(comp)
    elif comp.m % 2 == 0:
        regions, final = _even_cycle_regions(comp, s)
    else:
        regions, final, anchor = _odd_cycle_regions(comp, s)
    return _sweep(s, regions, final), final, anchor


@dataclasses.dataclass(frozen=True)
class CycleAnalysis:
    """Case record and canonical routing for one cycle graph."""

    component: Deg2Component
    min_size: int
    case: str  # "zero" | "even" | "odd"
    minimum_sets: tuple[frozenset[int], ...]
    to_canonical: ReconfigSequence
    canonical: frozenset[int]
    anchor: int | None


def cycle_analyze(g: ThresholdGraph, s) -> CycleAnalysis:
    """Analyze a cycle graph and build the TAR route from s to a special minimum."""
    dec = decompose_deg2(g)
    if len(dec.components) != 1 or dec.components[0].kind != "cycle":
        raise NotACycle("graph is not a single cycle")
    comp = dec.components[0]
    ss = g.check_seed(s)
    if not dec.is_target_set(g, ss, [ss]):
        raise NotATargetSet(f"{sorted(ss)} is not a target set")
    steps, final, anchor, _ = dec.route(0, ss)
    m = comp.m
    if m == 0:
        case = "zero"
        minima = tuple(frozenset({v}) for v in comp.order)
    elif m % 2 == 0:
        case = "even"
        minima = (
            frozenset(comp.w[i] for i in range(0, m, 2)),
            frozenset(comp.w[i] for i in range(1, m, 2)),
        )
    else:
        case = "odd"
        minima = tuple(
            frozenset(comp.w[(p + 2 * t) % m] for t in range((m - 1) // 2 + 1))
            for p in range(m)
        )
    return CycleAnalysis(
        component=comp,
        min_size=comp.min_size,
        case=case,
        minimum_sets=minima,
        to_canonical=ReconfigSequence(ss, steps, TAR, k=len(ss)),
        canonical=final,
        anchor=anchor,
    )


def path_canonical(
    g: ThresholdGraph,
) -> tuple[int, frozenset[int], Callable[[frozenset[int]], ReconfigSequence]]:
    """Minimum size, canonical minimum set, and TAR builder for a path graph."""
    dec = decompose_deg2(g)
    if len(dec.components) != 1 or dec.components[0].kind != "path":
        raise NotAPath("graph is not a single path")
    comp = dec.components[0]
    canonical = _path_canonical_set(comp)

    def builder(s) -> ReconfigSequence:
        ss = g.check_seed(s)
        if not dec.is_target_set(g, ss, [ss]):
            raise NotATargetSet(f"{sorted(ss)} is not a target set")
        return ReconfigSequence(ss, dec.route(0, ss)[0], TAR, k=len(ss))

    return comp.min_size, canonical, builder


# -- the full maximum-degree-2 solver ---------------------------------------


def solve_maxdeg2(
    g: ThresholdGraph, x, y, *, model: str = TJ
) -> tuple[bool, ReconfigSequence | None]:
    """Decide TJ-reconfigurability on a maximum-degree-2 graph, with a sequence.

    The answer is no exactly when both endpoints are minimum and some terrible
    cycle carries different restrictions.  Otherwise the route runs in three
    phases: take every component of x down to a canonical minimum, resolve the
    per-cycle mismatches (flips, jumps, rotations) at the global minimum where
    a spare token is guaranteed, then replay y's descent backwards.
    """
    xs, ys = g.check_seed(x), g.check_seed(y)
    if len(xs) != len(ys):
        raise PreconditionViolated(f"|x|={len(xs)} != |y|={len(ys)}")
    dec = decompose_deg2(g)
    rx = [xs & c.vertices for c in dec.components]
    ry = [ys & c.vertices for c in dec.components]
    if not dec.is_target_set(g, xs, rx) or not dec.is_target_set(g, ys, ry):
        raise PreconditionViolated("endpoints must be target sets")
    k = len(xs)
    if k == dec.min_size and any(
        c.terrible and a != b for c, a, b in zip(dec.components, rx, ry)
    ):
        return False, None
    if xs == ys:
        return True, ReconfigSequence(xs, (), TJ if model == TJ else TAR, k=k)

    routes_x = [dec.route(i, r) for i, r in enumerate(rx)]
    routes_y = [dec.route(i, r) for i, r in enumerate(ry)]
    steps = [st for route, *_ in routes_x for st in route]
    for comp, (_, fx, ax, _), (_, fy, ay, _) in zip(dec.components, routes_x, routes_y):
        if fx == fy:
            continue
        if comp.kind != "cycle":
            raise InvariantViolated("path canonicals are unique")
        if comp.m % 2 == 1:
            steps += odd_cycle_rotation_steps(comp, ax, ay)
        elif comp.m == 2:
            add_v = next(iter(fy - fx))
            rem_v = next(iter(fx - fy))
            steps.append(Step.add(add_v))
            steps.append(Step.remove(rem_v))
        else:
            flip, final = even_cycle_flip_steps(comp, fx)
            if final != fy:
                raise InvariantViolated(f"even-cycle flip ended at {sorted(final)}, not {sorted(fy)}")
            steps += flip

    for *_, back in reversed(routes_y):
        steps += back

    seq = ReconfigSequence(xs, tuple(steps), TAR, k=k)
    if seq.end != ys:
        raise InvariantViolated(f"route ended at {sorted(seq.end)}, not {sorted(ys)}")
    return True, (tar_to_tj(seq) if model == TJ else seq)


def maxdeg2_min_size(g: ThresholdGraph) -> int:
    """Minimum target set size of a maximum-degree-2 graph."""
    return decompose_deg2(g).min_size
