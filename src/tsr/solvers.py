"""Polynomial-time deciders and sequence builders for tractable classes.

Activation never crosses a component, so one solver (``solve``) decides every
graph whose components are each threshold-1, a tree (Chen's bottom-up
selection), a path or a cycle; the only obstruction is the "terrible cycle".
``solve_threshold1``, ``solve_tree`` and ``solve_maxdeg2`` check their class
and call it.  Every component is routed to a canonical minimum by one packing
sweep (``_sweep``): for each region, add its target, then clear the rest of
the region; the canonical minimum is the set of region targets.  ``solve``
ends in one checked join (``_joined``): x's route down, then y's reversed.

Plans are built once per graph object, in its own ``__dict__`` as a
``cached_property`` is, and live as long as it does; a ``dataclasses.replace``
copy starts empty.  They are the component plan (``component_plan``), whose
route memo grows with the distinct component restrictions queried, and Chen's
tree plan per root (``chen_tree``).
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
from .graph import ThresholdGraph
from .reconfig import TAR, TJ, ReconfigSequence, Step, reverse_steps, tar_to_tj


# -- the packing sweep -------------------------------------------------------


def _sweep(s, regions) -> tuple[list[Step], frozenset[int]]:
    """TAR steps from s to the set of region targets, and that set.

    For each ``(target, region)`` in order: add ``target`` if absent, then
    remove the rest of the region from the set; finish by removing whatever
    is not a target.  Callers pick regions that every target set meets and
    whose sweep leaves a target set, so every intermediate set is a target
    set and the peak stays within |s|+1.  The targets are then a minimum
    target set: the canonical one of the class.
    """
    cur = set(s)
    steps: list[Step] = []
    targets: set[int] = set()
    for target, region in regions:
        targets.add(target)
        if target not in cur:
            steps.append(Step.add(target))
            cur.add(target)
        for v in sorted(cur.intersection(region) - {target}):
            steps.append(Step.remove(v))
            cur.remove(v)
    for v in sorted(cur - targets):
        steps.append(Step.remove(v))
        cur.remove(v)
    # a later region that overlaps an earlier one could clear its target
    if cur != targets:
        raise InvariantViolated(f"sweep ended at {sorted(cur)}, not {sorted(targets)}")
    return steps, frozenset(targets)


def _joined(xs: frozenset[int], ys: frozenset[int], steps, model: str) -> ReconfigSequence:
    """The TAR route xs -> ys along ``steps``, checked to end at ys, in ``model``.

    x == y is the empty sequence.  A TJ answer is the route's ``tar_to_tj``.
    """
    seq = ReconfigSequence(xs, () if xs == ys else tuple(steps), TAR, k=len(xs))
    if seq.end != ys:
        raise InvariantViolated(f"route ended at {sorted(seq.end)}, not {sorted(ys)}")
    return tar_to_tj(seq) if model == TJ else seq


# -- the component plan ------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Component:
    """One connected component and the sweep regions that route it.

    ``order`` lists a path from its smaller end and a cycle from its smallest
    id toward its smaller neighbor; a threshold-1 or tree component ascends.
    ``w`` is the subsequence of threshold-2 vertices of a path or cycle.
    ``regions`` lead to the component's one canonical minimum; a cycle with
    m >= 1 has none, since its regions depend on the set routed.  A cycle is
    terrible when it has an even number m >= 4 of threshold-2 vertices.
    """

    kind: str  # "path" | "cycle" | "threshold1" | "tree"
    order: tuple[int, ...]
    regions: tuple | None
    w: tuple[int, ...] = ()
    terrible: bool = False

    @property
    def m(self) -> int:
        return len(self.w)

    @cached_property
    def vertices(self) -> frozenset[int]:
        return frozenset(self.order)

    @cached_property
    def mask(self) -> int:
        return sum(1 << v for v in self.order)

    @cached_property
    def min_size(self) -> int:
        # one vertex per region; ceil(m/2) threshold-2 vertices on a cycle
        return (self.m + 1) // 2 if self.regions is None else len(self.regions)


@dataclasses.dataclass(frozen=True)
class Plan:
    """Every component of a graph with its route: the plan ``component_plan`` caches.

    ``deg2`` and ``tau1`` say whether every degree is at most 2 and every
    threshold is 1.  Its memos are keyed by (component index, restriction of
    a set to it): the component route, the steps that undo it, and whether
    the restriction's closure covers the component.
    """

    components: tuple[Component, ...]
    deg2: bool
    tau1: bool
    _routes: dict = dataclasses.field(default_factory=dict, init=False, repr=False, compare=False)
    _backs: dict = dataclasses.field(default_factory=dict, init=False, repr=False, compare=False)
    _covers: dict = dataclasses.field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def min_size(self) -> int:
        return sum(c.min_size for c in self.components)

    def route(self, i: int, r: frozenset[int]) -> tuple[tuple[Step, ...], frozenset[int], int | None]:
        """``_component_route`` of component i from r, with the steps as a tuple."""
        hit = self._routes.get((i, r))
        if hit is None:
            steps, final, anchor = _component_route(self.components[i], r)
            hit = self._routes[i, r] = (tuple(steps), final, anchor)
        return hit

    def back(self, i: int, r: frozenset[int]) -> tuple[Step, ...]:
        """The steps that undo ``route(i, r)``."""
        hit = self._backs.get((i, r))
        if hit is None:
            hit = self._backs[i, r] = reverse_steps(self.route(i, r)[0])
        return hit

    def is_target_set(self, g: ThresholdGraph, s: frozenset[int], rs) -> bool:
        """``is_target_set(g, s)``: the components are independent, so each restriction must cover its own."""
        if any((i, r) not in self._covers for i, r in enumerate(rs)):
            active = closure_mask(g, seed_mask(g, s))
            for i, r in enumerate(rs):
                mask = self.components[i].mask
                self._covers[i, r] = active & mask == mask
        return all(self._covers[i, r] for i, r in enumerate(rs))


def _component(g: ThresholdGraph, comp: tuple[int, ...], deg2: bool) -> Component | None:
    """The plan's entry for one component, given sorted; None if no solver covers it.

    On a graph of maximum degree 2 every component is walked as a path or a
    cycle; elsewhere a threshold-1 component sweeps from its least vertex.
    """
    if not deg2 and all(g.tau[v] == 1 for v in comp):
        return Component("threshold1", comp, ((comp[0], comp),))
    if all(len(g.adj[v]) <= 2 for v in comp):
        ends = [v for v in comp if len(g.adj[v]) == 1]
        start = (ends or comp)[0]
        order = [start]
        prev, cur = start, min(g.adj[start])
        while cur != start:
            order.append(cur)
            nxt = [u for u in g.adj[cur] if u != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
        walk = tuple(order)
        w = tuple(v for v in walk if g.tau[v] == 2)
        if not w:
            return Component("path" if ends else "cycle", walk, ((start, walk),))
        if ends:
            return Component("path", walk, _path_regions(walk, w), w)
        return Component("cycle", walk, None, w, len(w) >= 4 and len(w) % 2 == 0)
    if sum(len(g.adj[v]) for v in comp) != 2 * len(comp) - 2:
        return None
    if len(comp) < g.n:
        return Component("tree", comp, tuple(zip(*_chen(g, comp[0])[:2])))
    tree = chen_tree(g)  # the graph is one tree: Chen runs once for it and the plan
    return Component("tree", comp, tuple(zip(tree.s_list, tree.packing)))


def component_plan(g: ThresholdGraph) -> Plan | None:
    """The components of g with their routes (cached on g); None if one is not
    threshold-1, a tree, a path or a cycle."""
    if "_plan" in g.__dict__:
        return g.__dict__["_plan"]
    deg2 = all(len(g.adj[v]) <= 2 for v in g.vertices)
    parts = [_component(g, comp, deg2) for comp in g.components()]
    plan = None if None in parts else Plan(tuple(parts), deg2, all(g.tau[v] == 1 for v in g.vertices))
    return g.__dict__.setdefault("_plan", plan)


def decompose_deg2(g: ThresholdGraph) -> Plan:
    """The plan of a maximum-degree-2 graph: its path and cycle components."""
    plan = component_plan(g)
    if plan is None or not plan.deg2:
        v = next(v for v in g.vertices if len(g.adj[v]) > 2)
        raise DegreeTooLarge(f"vertex {v} has degree {len(g.adj[v])} > 2")
    return plan


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
        return "".join(
            f"packing {i}: " + " ".join(map(str, sorted(p))) + "\n" for i, p in enumerate(self.packing, start=1)
        )


def chen_tree(g: ThresholdGraph, root: int | None = None) -> TreePlan:
    """Bottom-up minimum target set of a tree (``_chen``), cached on g per root."""
    root = 1 if root is None else root
    plans = g.__dict__.setdefault("_tree_plans", {})
    if root not in plans:
        if len(g.components()) != 1 or g.m != g.n - 1:
            raise NotATree("graph is not a tree")
        g.check_vertex(root)
        s_list, packing, parent, tau_prime = _chen(g, root)
        ids = range(g.n + 1)  # index 0 unused
        by_vertex = tuple(map(parent.get, ids)), tuple(map(tau_prime.get, ids))
        plans[root] = TreePlan(root, *by_vertex, frozenset(s_list), s_list, packing)
    return plans[root]


def _chen(g: ThresholdGraph, root: int):
    """Chen's algorithm on root's component, which must be a tree.

    Scans vertices in postorder (children in ascending id); tau'(v) subtracts
    the children that the current selection would have activated.  A non-root
    joins S* when tau'(v) >= 2, the root when tau'(root) >= 1.  Returns S* in
    postorder, its packing, and parent and tau' as dicts over the component
    and 0, so that each tree of a forest costs its own size.
    """
    parent = {0: 0, root: 0}
    # neighbors pushed in ascending id pop in descending id, so this preorder
    # visits children in descending id and its reverse is the postorder with
    # children in ascending id
    order = []
    stack = [root]
    while stack:
        v = stack.pop()
        order.append(v)
        for u in g.adj[v]:
            if u != parent[v]:
                parent[u] = v
                stack.append(u)
    post = order[::-1]
    tau_prime = {0: 0}
    s_star: set[int] = set()
    for v in post:
        activated = sum(1 for w in g.adj[v] if w != parent[v] and (tau_prime[w] == 0 or w in s_star))
        # floored at 0: tau' counts the remaining requirement, and a vertex
        # with more activated children than its threshold is itself activated
        tau_prime[v] = max(0, g.tau[v] - activated)
        if tau_prime[v] >= (1 if v == root else 2):
            s_star.add(v)
    s_list = tuple(v for v in post if v in s_star)
    # each vertex joins the region of its nearest S*-ancestor-or-self,
    # computed root-down (preorder; the root's parent 0 has none)
    nearest = {0: 0}
    regions: dict[int, list[int]] = {s: [] for s in s_list}
    for v in order:
        nearest[v] = v if v in s_star else nearest[parent[v]]
        if nearest[v]:
            regions[nearest[v]].append(v)
    return s_list, tuple(frozenset(regions[s]) for s in s_list), parent, tau_prime


def tree_tar_to_canonical(g: ThresholdGraph, plan: TreePlan, s) -> ReconfigSequence:
    """|S|-TAR route from any target set S of a tree to the canonical S*.

    For each canonical seed in postorder: add it if absent, then clear the
    rest of its packing region; finish by removing leftovers outside the
    packing.  Every intermediate set is a superset of a target set.
    """
    ss = g.check_seed(s)
    if not is_target_set(g, ss):
        raise NotATargetSet(f"{sorted(ss)} is not a target set")
    steps, _ = _sweep(ss, zip(plan.s_list, plan.packing))
    return ReconfigSequence(ss, tuple(steps), TAR, k=len(ss))


# -- paths and cycles --------------------------------------------------------


def _path_regions(order: tuple[int, ...], w: tuple[int, ...]) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Sweep regions of a path with m >= 1 threshold-2 vertices.

    With w_1..w_m the threshold-2 vertices and P_j the threshold-1 run between
    w_j and w_{j+1} (P_0 and P_m at the ends), the sweep clears P_0+w_1 toward
    w_1, each w_{2i}+P_{2i}+w_{2i+1} toward w_{2i+1}, and for even m, w_m+P_m
    toward w_m.  Every target set meets each region: were none of its vertices
    seeded, the first to activate would need an active neighbor inside it.
    Once a region is swept, everything up to its target is active, so every
    intermediate set is a target set.
    """
    m = len(w)
    wset = set(w)
    pos = [i for i, v in enumerate(order) if v in wset]
    regions = [(w[0], order[: pos[0] + 1])]
    regions += [(w[j + 1], order[pos[j] : pos[j + 1] + 1]) for j in range(1, m - 1, 2)]
    if m % 2 == 0:
        regions.append((w[m - 1], order[pos[m - 1] :]))
    return tuple(regions)


def _cycle_arc(order: tuple[int, ...], a: int, b: int) -> tuple[int, ...]:
    """Cycle vertices from position a through position b, wrapping around."""
    n = len(order)
    return tuple(order[(a + i) % n] for i in range((b - a) % n + 1))


def _even_cycle_regions(comp: Component, s: frozenset[int]):
    """Sweep regions toward a minimum of an even cycle; when s contains one,
    an empty region for each of its vertices."""
    w, m = comp.w, comp.m
    for minimum in (w[0::2], w[1::2]):
        if s.issuperset(minimum):
            return [(v, ()) for v in minimum]
    # anchor the relabeling at the smallest-id threshold-2 vertex missing from s
    shift = w.index(min(v for v in w if v not in s))
    lab = w[shift:] + w[:shift]
    pos = {v: i for i, v in enumerate(comp.order)}
    return [
        (lab[2 * i + 1], _cycle_arc(comp.order, pos[lab[2 * i]], pos[lab[2 * i + 1]]))
        for i in range(m // 2)
    ]


def _odd_cycle_regions(comp: Component, s: frozenset[int]):
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
    return regions, p


def even_cycle_flip_steps(comp: Component, current: frozenset[int]) -> tuple[list[Step], frozenset[int]]:
    """(m/2+1)-TAR flip between the two minima of an even cycle.

    Relabels so the current set sits on odd positions, then: add the last w,
    jump along even positions, drop the second-to-last w.
    """
    w, m = comp.w, comp.m
    shift = 0 if current == frozenset(w[0::2]) else 1
    if current != frozenset(w[(shift + i) % m] for i in range(0, m, 2)):
        raise PreconditionViolated("flip must start at a minimum target set of the cycle")
    lab = [w[(shift + i) % m] for i in range(m)]
    steps = [Step.add(lab[m - 1])]
    for i in range(1, m // 2):
        steps.append(Step.add(lab[2 * i - 1]))
        steps.append(Step.remove(lab[2 * i - 2]))
    steps.append(Step.remove(lab[m - 2]))
    return steps, frozenset(lab[1::2])


def odd_cycle_rotation_steps(comp: Component, p: int, q: int) -> list[Step]:
    """TJ rotation S*_p -> S*_q of an odd cycle, emitted as add/remove pairs."""
    m = comp.m
    steps: list[Step] = []
    while p != q:
        steps.append(Step.add(comp.w[(p + 1) % m]))
        steps.append(Step.remove(comp.w[p]))
        p = (p + 2) % m
    return steps


def _component_route(comp: Component, s: frozenset[int]) -> tuple[list[Step], frozenset[int], int | None]:
    """TAR steps from s to a canonical minimum of comp, that minimum, and the odd-cycle anchor."""
    anchor = None
    if comp.regions is not None:
        regions = comp.regions
    elif comp.m % 2 == 0:
        regions = _even_cycle_regions(comp, s)
    else:
        regions, anchor = _odd_cycle_regions(comp, s)
    return (*_sweep(s, regions), anchor)


@dataclasses.dataclass(frozen=True)
class CycleAnalysis:
    """Case record and canonical routing for one cycle graph."""

    component: Component
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
    steps, final, anchor = dec.route(0, ss)
    m = comp.m
    if m == 0:
        case = "zero"
        minima = tuple(frozenset({v}) for v in comp.order)
    elif m % 2 == 0:
        case = "even"
        minima = (frozenset(comp.w[0::2]), frozenset(comp.w[1::2]))
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


def path_canonical(g: ThresholdGraph) -> tuple[int, frozenset[int], Callable[[frozenset[int]], ReconfigSequence]]:
    """Minimum size, canonical minimum set, and TAR builder for a path graph."""
    dec = decompose_deg2(g)
    if len(dec.components) != 1 or dec.components[0].kind != "path":
        raise NotAPath("graph is not a single path")
    comp = dec.components[0]
    # every route ends at the canonical minimum; the whole vertex set is a target set
    canonical = dec.route(0, comp.vertices)[1]

    def builder(s) -> ReconfigSequence:
        ss = g.check_seed(s)
        if not dec.is_target_set(g, ss, [ss]):
            raise NotATargetSet(f"{sorted(ss)} is not a target set")
        return ReconfigSequence(ss, dec.route(0, ss)[0], TAR, k=len(ss))

    return comp.min_size, canonical, builder


def maxdeg2_min_size(g: ThresholdGraph) -> int:
    """Minimum target set size of a maximum-degree-2 graph."""
    return decompose_deg2(g).min_size


# -- the one solver and its entry points -------------------------------------


def solve(g: ThresholdGraph, x, y, *, model: str = TJ) -> tuple[bool, ReconfigSequence | None]:
    """Decide reconfigurability on a graph ``component_plan`` covers, with a sequence.

    The answer is no exactly when both endpoints are minimum and some terrible
    cycle carries different restrictions.  Otherwise the route runs in three
    phases: take every component of x down to a canonical minimum, resolve the
    per-cycle mismatches (even flips, odd rotations) at the global minimum where
    a spare token is guaranteed, then replay y's descent backwards.
    """
    xs, ys = g.check_seed(x), g.check_seed(y)
    if len(xs) != len(ys):
        raise PreconditionViolated(f"|x|={len(xs)} != |y|={len(ys)}")
    plan = component_plan(g)
    if plan is None:
        raise PreconditionViolated("a component is not threshold-1, a tree, a path or a cycle")
    rx = [xs & c.vertices for c in plan.components]
    ry = [ys & c.vertices for c in plan.components]
    for s, rs in ((xs, rx), (ys, ry)):
        if not plan.is_target_set(g, s, rs):
            raise NotATargetSet(f"{sorted(s)} is not a target set")
    if len(xs) == plan.min_size and any(c.terrible and a != b for c, a, b in zip(plan.components, rx, ry)):
        return False, None

    routes_x = [plan.route(i, r) for i, r in enumerate(rx)]
    routes_y = [plan.route(i, r) for i, r in enumerate(ry)]
    steps = [st for route, *_ in routes_x for st in route]
    for comp, (_, fx, ax), (_, fy, ay) in zip(plan.components, routes_x, routes_y):
        if fx == fy:
            continue
        if comp.regions is not None:
            raise InvariantViolated(f"{comp.kind} canonicals are unique")
        if comp.m % 2 == 1:
            steps += odd_cycle_rotation_steps(comp, ax, ay)
        else:
            flip, final = even_cycle_flip_steps(comp, fx)
            if final != fy:
                raise InvariantViolated(f"even-cycle flip ended at {sorted(final)}, not {sorted(fy)}")
            steps += flip

    for i in reversed(range(len(ry))):
        steps += plan.back(i, ry[i])
    return True, _joined(xs, ys, steps, model)


def solve_tree(g: ThresholdGraph, x, y, *, model: str = TJ) -> tuple[bool, ReconfigSequence]:
    """Trees: any two same-size target sets are reconfigurable (``solve``)."""
    plan = component_plan(g)
    if plan is None or len(plan.components) != 1 or g.m != g.n - 1:
        raise NotATree("graph is not a tree")
    return solve(g, x, y, model=model)


def solve_threshold1(g: ThresholdGraph, x, y, *, model: str = TJ) -> tuple[bool, ReconfigSequence]:
    """Threshold-1 graphs: always reconfigurable via one canonical seed per component (``solve``)."""
    plan = component_plan(g)
    if plan is None or not plan.tau1:
        raise PreconditionViolated("graph has a vertex of threshold != 1")
    return solve(g, x, y, model=model)


def solve_maxdeg2(g: ThresholdGraph, x, y, *, model: str = TJ) -> tuple[bool, ReconfigSequence | None]:
    """Maximum degree 2: paths and cycles, where terrible cycles can say no (``solve``)."""
    decompose_deg2(g)
    return solve(g, x, y, model=model)
