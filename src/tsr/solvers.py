"""Polynomial-time deciders and sequence builders for tractable classes.

Activation never crosses a component, so one solver (``solve``) decides every
graph whose components are each threshold-1, a tree (Chen's bottom-up
selection), a path or a cycle; the only obstruction is the "terrible cycle".
``solve_threshold1``, ``solve_tree`` and ``solve_maxdeg2`` check their class
and call it.  Every component is routed to a canonical minimum by one packing
sweep (``_sweep``): for each region, add its target, then clear the rest of
the region; the canonical minimum is the set of region targets.  A path or
cycle is cut once into its runs, each from a threshold-2 vertex up to the
next, and its regions are read from them.  ``solve`` looks up each endpoint
once (``Plan.endpoint``) and ends in one checked join (``_joined``): x's
descent, the cycle moves, then y's ascent.

One plan, the component plan (``component_plan``), is built per graph object,
in its own ``__dict__`` as a ``cached_property`` is, and lives as long as it
does; a ``dataclasses.replace`` copy starts empty.  Its route memo grows with
the distinct component restrictions queried and its endpoint memo with the
distinct endpoint sets, each entry a pure function of its key; a tree's one
component entry is ``chen_tree``.
"""

from __future__ import annotations

import dataclasses
from functools import cached_property

from .activation import activation_times
from .errors import (
    DegreeTooLarge,
    InvariantViolated,
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
        rest = cur.intersection(region)
        rest.discard(target)
        if rest:
            rest = sorted(rest)
            steps += map(Step.remove, rest)
            cur.difference_update(rest)
    rest = sorted(cur - targets)
    steps += map(Step.remove, rest)
    cur.difference_update(rest)
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
    m >= 1 has none, since its regions depend on the set routed, and keeps
    its ``runs`` instead: run j goes from w_j up to, not including, w_{j+1},
    the last one wrapping round to w_0.  A cycle is terrible when it has an
    even number m >= 4 of threshold-2 vertices.
    """

    kind: str  # "path" | "cycle" | "threshold1" | "tree"
    order: tuple[int, ...]
    regions: tuple | None
    w: tuple[int, ...] = ()
    terrible: bool = False
    runs: tuple[tuple[int, ...], ...] = ()

    @property
    def m(self) -> int:
        return len(self.w)

    @cached_property
    def vertices(self) -> frozenset[int]:
        return frozenset(self.order)

    @cached_property
    def s_star(self) -> frozenset[int] | None:
        """The canonical minimum, the set of region targets; None without regions."""
        return None if self.regions is None else frozenset(t for t, _ in self.regions)

    @cached_property
    def min_size(self) -> int:
        # one vertex per region; ceil(m/2) threshold-2 vertices on a cycle
        return (self.m + 1) // 2 if self.regions is None else len(self.regions)


@dataclasses.dataclass(frozen=True)
class Plan:
    """Every component of a graph with its route: the plan ``component_plan`` caches.

    ``deg2`` and ``tau1`` say whether every degree is at most 2 and every
    threshold is 1.  Two memos: component routes, keyed by (component index,
    restriction of a set to it), which endpoints that agree on a component
    share; and one entry per checked endpoint set, a pure function of the set.
    """

    components: tuple[Component, ...]
    deg2: bool
    tau1: bool
    _routes: dict = dataclasses.field(default_factory=dict, init=False, repr=False, compare=False)
    _ends: dict = dataclasses.field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def min_size(self) -> int:
        return sum(c.min_size for c in self.components)

    def route(self, i: int, r: frozenset[int]) -> tuple[tuple[Step, ...], frozenset[int]]:
        """(steps, canonical): the TAR steps from r down to component i's
        canonical minimum, and that minimum; a cycle with m >= 1 takes its
        regions from r.  r must be the restriction of a target set to the
        component; ``solve`` checks that (``endpoint``), this does not."""
        hit = self._routes.get((i, r))
        if hit is None:
            comp = self.components[i]
            steps, final = _sweep(r, comp.regions or _cycle_regions(comp, r))
            hit = self._routes[i, r] = (tuple(steps), final)
        return hit

    def endpoint(self, g: ThresholdGraph, s: frozenset[int], ascent: bool = False):
        """[restrictions, canonicals, descent, ascent] of the checked seed s of g:
        its restriction to each component, each component's canonical, the
        TAR steps that take s down to the canonicals (every component's
        ``route`` in turn) and the steps that undo them, None until first
        asked for with ``ascent``, since a set asked only as x never needs
        them.  Raises ``NotATargetSet`` unless s activates all of g, and
        memoizes nothing then."""
        hit = self._ends.get(s)
        if hit is None:
            if -1 in activation_times(g, s)[1:]:
                raise NotATargetSet(f"{sorted(s)} is not a target set")
            rs = tuple(s & c.vertices for c in self.components)
            routes = [self.route(i, r) for i, r in enumerate(rs)]
            down = tuple(st for steps, _ in routes for st in steps)
            hit = self._ends[s] = [rs, tuple(final for _, final in routes), down, None]
        if ascent and hit[3] is None:
            hit[3] = reverse_steps(hit[2])
        return hit


def _component(g: ThresholdGraph, comp: tuple[int, ...], deg2: bool, scratch) -> Component | None:
    """The plan's entry for one component, given sorted; None if no solver covers it.

    On a graph of maximum degree 2 every component is walked as a path or a
    cycle; elsewhere a threshold-1 component sweeps from its least vertex.
    ``scratch`` is ``_chen``'s per-graph lists.
    """
    if not deg2 and all(g.tau[v] == 1 for v in comp):
        return Component("threshold1", comp, ((comp[0], comp),))
    if deg2 or all(len(g.adj[v]) <= 2 for v in comp):
        ends = [v for v in comp if len(g.adj[v]) == 1]
        start = (ends or comp)[0]
        order = [start]
        prev, cur = start, g.adj[start][0]
        while cur != start:
            order.append(cur)
            nb = g.adj[cur]
            if len(nb) == 1:
                break
            # a simple graph: cur's two neighbours are prev and the next vertex
            prev, cur = cur, nb[nb[0] == prev]
        walk = tuple(order)
        cuts = [i for i, v in enumerate(walk) if g.tau[v] == 2]
        if not cuts:
            return Component("path" if ends else "cycle", walk, ((start, walk),))
        # a run starts at each threshold-2 vertex; a path's first run is the
        # piece before w_0, a cycle's joins its last run
        runs = [walk[a:b] for a, b in zip([0, *cuts], [*cuts, len(walk)])]
        w = tuple(walk[i] for i in cuts)
        if ends:
            return Component("path", walk, _path_regions(w, runs), w)
        return Component("cycle", walk, None, w, len(w) >= 4 and len(w) % 2 == 0, (*runs[1:-1], runs[-1] + runs[0]))
    if sum(map(len, map(g.adj.__getitem__, comp))) != 2 * len(comp) - 2:
        return None
    return Component("tree", comp, tuple(zip(*_chen(g, comp[0], scratch))))


def component_plan(g: ThresholdGraph) -> Plan | None:
    """The components of g with their routes (cached on g); None if one is not
    threshold-1, a tree, a path or a cycle."""
    if "_plan" in g.__dict__:
        return g.__dict__["_plan"]
    deg2 = max(map(len, g.adj)) <= 2
    # a tree component has a vertex of degree 3 or more, so only then does
    # _chen run; its lists are shared by every tree of a forest
    scratch = None if deg2 else tuple([0] * (g.n + 1) for _ in range(3))
    parts = [_component(g, comp, deg2, scratch) for comp in g.components()]
    plan = None if None in parts else Plan(tuple(parts), deg2, g.tau.count(1) == g.n)
    return g.__dict__.setdefault("_plan", plan)


def decompose_deg2(g: ThresholdGraph) -> Plan:
    """The plan of a maximum-degree-2 graph: its path and cycle components."""
    plan = component_plan(g)
    if plan is None or not plan.deg2:
        v = next(v for v in g.vertices if len(g.adj[v]) > 2)
        raise DegreeTooLarge(f"vertex {v} has degree {len(g.adj[v])} > 2")
    return plan


# -- trees ------------------------------------------------------------------


def chen_tree(g: ThresholdGraph) -> Component:
    """The component plan's one entry for a tree g; raises ``NotATree`` otherwise.

    Its ``s_star`` is the canonical minimum that ``solve_tree`` routes through:
    a tree with a degree-3 vertex gets Chen's regions from vertex 1 (``_chen``),
    a threshold-1 tree the single region (1, V), which is what Chen gives from
    vertex 1, and a path its own path regions, so its ``s_star`` can differ
    from Chen's but has the same size.
    """
    plan = component_plan(g)
    if plan is None or len(plan.components) != 1 or g.m != g.n - 1:
        raise NotATree("graph is not a tree")
    return plan.components[0]


def _chen(g: ThresholdGraph, root: int, scratch):
    """Chen's algorithm on root's component, which must be a tree.

    Scans vertices in postorder (children in ascending id); tau'(v) subtracts
    the children that the current selection would have activated.  A non-root
    joins S* when tau'(v) >= 2, the root when tau'(root) >= 1.  Returns S* in
    postorder and its packing.

    ``scratch`` is three lists indexed by vertex id (parent, remaining need,
    S*-ancestor-or-self), each of length n+1 with 0 at index 0; a call
    writes the entries of root's component before it reads them, and no
    others.  ``component_plan`` allocates them once per graph and passes
    them to every tree of a forest, so each tree costs its own size: lists
    allocated per component would make a forest of many small trees
    quadratic.
    """
    parent, need, nearest = scratch
    adj, tau = g.adj, g.tau
    parent[root] = 0
    # neighbors pushed in ascending id pop in descending id, so this preorder
    # visits children in descending id and its reverse is the postorder with
    # children in ascending id
    order = []
    stack = [root]
    while stack:
        v = stack.pop()
        order.append(v)
        need[v] = tau[v]
        p = parent[v]
        for u in adj[v]:
            if u != p:
                parent[u] = v
                stack.append(u)
    # need[v] is tau(v) minus the activated children seen so far, so at v's
    # turn tau'(v) = max(0, need[v]); a non-root joins S* when need >= 2 and
    # is activated unless need is exactly 1
    s_list = []
    for v in order[:0:-1]:  # the postorder without the root, which comes last
        t = need[v]
        if t >= 2:
            s_list.append(v)
        if t != 1:
            need[parent[v]] -= 1
    if need[root] >= 1:
        s_list.append(root)
    # each vertex joins the region of its nearest S*-ancestor-or-self,
    # computed root-down (preorder; the root's parent 0 has none)
    s_star = set(s_list)
    regions: dict[int, list[int]] = {s: [] for s in s_list}
    for v in order:
        near = nearest[v] = v if v in s_star else nearest[parent[v]]
        if near:
            regions[near].append(v)
    return tuple(s_list), tuple(frozenset(regions[s]) for s in s_list)


# -- paths and cycles --------------------------------------------------------


def _path_regions(w: tuple[int, ...], runs) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Sweep regions of a path with m >= 1 threshold-2 vertices w_0..w_{m-1}.

    ``runs`` cuts the walk before each w_t, so runs[t] ends just before w_t
    and runs[m] starts at w_{m-1}.  The sweep clears runs[t]+w_t toward w_t
    for t = 0, 2, 4, ..., and for even m the last run toward w_{m-1}.  Every
    target set meets each region: were none of its vertices seeded, the first
    to activate would need an active neighbor inside it.  Once a region is
    swept, everything up to its target is active, so every intermediate set
    is a target set.
    """
    regions = [(w[t], runs[t] + (w[t],)) for t in range(0, len(w), 2)]
    if len(w) % 2 == 0:
        regions.append((w[-1], runs[-1]))
    return tuple(regions)


def _cycle_regions(comp: Component, s: frozenset[int]):
    """Sweep regions toward a minimum of a cycle with m >= 1, read from its runs.

    An odd cycle anchors at the first run p that s meets: runs[p] toward w_p,
    then each pair of runs ending at w_{p+2j} toward it.  An even cycle
    containing a minimum gets an empty region per vertex of it; otherwise,
    with a the index of the smallest-id w missing from s, runs[t-1]+w_t
    toward w_t for t = a+1, a+3, ... (indices mod m).
    """
    w, m, runs = comp.w, comp.m, comp.runs
    if m % 2:
        p = next(j for j in range(m) if not s.isdisjoint(runs[j]))
        return [(w[p], runs[p])] + [(w[t % m], runs[t % m - 1] + runs[t % m]) for t in range(p + 2, p + m, 2)]
    for minimum in (w[0::2], w[1::2]):
        if s.issuperset(minimum):
            return [(v, ()) for v in minimum]
    a = w.index(min(v for v in w if v not in s))
    return [(w[t % m], runs[t % m - 1] + (w[t % m],)) for t in range(a + 1, a + m, 2)]


def cycle_moves(comp: Component, current: frozenset[int], target: frozenset[int]) -> list[Step]:
    """TAR steps between two minima of a cycle with m >= 1 threshold-2 vertices
    w_0..w_{m-1}, each minimum {w_p, w_{p+2}, ...} (ceil(m/2) of them, mod m).

    A move adds w_{p+1}, removes w_p and sets p to p+2.  An odd cycle repeats
    it until p is the target's: an |current|-TAR route.  An even cycle makes
    all m/2 moves with the last addition hoisted to the front, so it peaks two
    tokens above its start: an (|current|+1)-TAR route.  Raises
    ``PreconditionViolated`` unless both sets are minima of such a cycle (O(m)).
    """
    w, m = comp.w, comp.m
    if comp.kind != "cycle" or not m:
        raise PreconditionViolated(f"a {comp.kind} with m={m} threshold-2 vertices has no cycle minima")
    ps = []
    for s in (current, target):
        # an odd minimum's one consecutive pair w_{p-1}, w_p names p; an even one's p is 0 or 1
        p = next((i for i in range(m) if w[i - 1] in s and w[i] in s), 0) if m % 2 else int(w[0] not in s)
        if s != frozenset(w[(p + 2 * j) % m] for j in range((m + 1) // 2)):
            raise PreconditionViolated(f"{sorted(s)} is not a minimum of the cycle")
        ps.append(p)
    (p, q), steps = ps, []
    while p != q:
        steps += Step.add(w[(p + 1) % m]), Step.remove(w[p])
        p = (p + 2) % m
        if p == ps[0]:  # an even cycle's p keeps its parity: all m/2 moves are made
            steps.insert(0, steps.pop(-2))
            break
    return steps


def maxdeg2_min_size(g: ThresholdGraph) -> int:
    """Minimum target set size of a maximum-degree-2 graph."""
    return decompose_deg2(g).min_size


# -- the one solver and its entry points -------------------------------------


def solve(g: ThresholdGraph, x, y, *, model: str = TJ) -> tuple[bool, ReconfigSequence | None]:
    """Decide reconfigurability on a graph ``component_plan`` covers, with a sequence.

    The answer is no exactly when both endpoints are minimum and some terrible
    cycle carries different restrictions.  Otherwise the route runs in three
    phases: take every component of x down to a canonical minimum, move each
    cycle whose canonicals differ between them (``cycle_moves``) at the global
    minimum where a spare token is guaranteed, then replay y's descent
    backwards.
    """
    xs, ys = g.check_seed(x), g.check_seed(y)
    if len(xs) != len(ys):
        raise PreconditionViolated(f"|x|={len(xs)} != |y|={len(ys)}")
    plan = component_plan(g)
    if plan is None:
        raise PreconditionViolated("a component is not threshold-1, a tree, a path or a cycle")
    rx, fx, down, _ = plan.endpoint(g, xs)
    ry, fy, _, up = plan.endpoint(g, ys, ascent=True)
    if len(xs) == plan.min_size and any(c.terrible and a != b for c, a, b in zip(plan.components, rx, ry)):
        return False, None

    moves = []
    for comp, a, b in zip(plan.components, fx, fy):
        if a != b:
            if comp.regions is not None:
                raise InvariantViolated(f"{comp.kind} canonicals are unique")
            moves += cycle_moves(comp, a, b)
    return True, _joined(xs, ys, down + tuple(moves) + up, model)


def solve_tree(g: ThresholdGraph, x, y, *, model: str = TJ) -> tuple[bool, ReconfigSequence]:
    """Trees: any two same-size target sets are reconfigurable (``solve``)."""
    chen_tree(g)
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
