"""The tree and maximum-degree-2 plans against their two-pass references.

``reference_chen_tree`` is Chen's bottom-up selection as the solvers ran it
with a second traversal: a DFS for parents and preorder, sorted ``children``
lists, then an explicit-stack postorder.  The library's ``_chen`` takes
the postorder as the reverse of one DFS preorder.  ``reference_components``
is the max-degree-2 walk with separate path and cycle cases.  Both are kept
verbatim except that they cache nothing on the graph, so the library's
per-graph caches never serve them, and that the Chen reference returns only
S* in postorder and its packing, the two things ``_chen`` returns.  Those, and
each component's ``order``, ``kind``, ``w`` and ``terrible``, must not change.

``reference_even_flip`` and ``reference_odd_rotation`` are the two cycle
helpers that ``cycle_moves`` replaced, kept verbatim: the even flip from a
minimum to the other one, and the odd rotation between anchors p and q.
Neither checks its input.
"""

import collections
import dataclasses
import hashlib
import random
import time

import pytest

from tsr.activation import is_target_set
from tsr.errors import NotATree, PreconditionViolated
from tsr.generators import cycle_with_spacing, path_with_spacing, random_maxdeg2, random_tree
from tsr.graph import ThresholdGraph, classify, disjoint_union
from tsr.oracle import target_sets_by_size
from tsr.reconfig import TAR, TJ, ReconfigSequence, Step, validate_sequence
from tsr.solvers import (
    _chen,
    component_plan,
    cycle_moves,
    decompose_deg2,
    solve,
    solve_maxdeg2,
    solve_tree,
)


def reference_chen_tree(g: ThresholdGraph, root: int | None = None):
    """(S* in postorder, its packing) from root, 1 by default."""
    root = 1 if root is None else root
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
    return s_list, tuple(frozenset(regions[s]) for s in s_list)


def reference_components(g: ThresholdGraph) -> list[tuple[str, tuple[int, ...], tuple[int, ...], bool]]:
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
        comps.append((kind, tuple(order), w, kind == "cycle" and m >= 4 and m % 2 == 0))
    return comps


def relabeled(g: ThresholdGraph, rng: random.Random) -> ThresholdGraph:
    """g with its vertex ids shuffled, so walks and DFS orders meet ids in any order."""
    ids = list(g.vertices)
    rng.shuffle(ids)
    new = dict(zip(g.vertices, ids))
    tau = [0] * g.n
    for v in g.vertices:
        tau[new[v] - 1] = g.tau[v]
    return ThresholdGraph.build(g.n, [(new[u], new[v]) for u, v in g.edges], tau)


def test_chen_tree_matches_reference():
    rng = random.Random(2009)
    for i in range(2000):
        g = random_tree(rng, rng.randint(2, 40))
        if i % 2:
            g = relabeled(g, rng)
        r = rng.randint(1, g.n)
        assert _chen(g, 1, tuple([0] * (g.n + 1) for _ in range(3))) == reference_chen_tree(g)
        assert _chen(g, r, tuple([0] * (g.n + 1) for _ in range(3))) == reference_chen_tree(g, r)


def test_chen_on_forests_matches_reference_per_tree():
    """On a relabeled disjoint union of seeded random trees, ``_chen`` run from
    each tree's least vertex through one set of per-graph lists (as
    ``component_plan`` runs it, here filled with junk but at index 0) equals the reference on that tree alone,
    whose ids keep their order, so children meet in the same order; the
    plan's tree entries are those regions."""
    rng = random.Random(2010)
    trees = 0
    for _ in range(60):
        g = random_tree(rng, rng.randint(2, 30))
        for _ in range(rng.randint(1, 5)):
            g, _ = disjoint_union(g, random_tree(rng, rng.randint(2, 30)))
        g = relabeled(g, rng)
        assert g.m == len(g.edges)
        comps = g.components()
        seen = sorted(v for comp in comps for v in comp)
        assert seen == list(g.vertices) and all(list(c) == sorted(c) for c in comps)
        assert [c[0] for c in comps] == sorted(c[0] for c in comps)
        # stale entries must not matter: only index 0 has to hold 0
        scratch = tuple([0] + [rng.randint(-3, g.n) for _ in g.vertices] for _ in range(3))
        for comp, entry in zip(comps, component_plan(g).components):
            rank = {v: i for i, v in enumerate(comp, start=1)}
            sub = ThresholdGraph.build(
                len(comp),
                [(rank[u], rank[v]) for u in comp for v in g.adj[u] if u < v],
                [g.tau[v] for v in comp],
            )
            s_list, regions = reference_chen_tree(sub)
            want = (tuple(comp[s - 1] for s in s_list), tuple(frozenset(comp[v - 1] for v in r) for r in regions))
            assert _chen(g, comp[0], scratch) == want
            if entry.kind == "tree":
                assert entry.regions == tuple(zip(*want))
                trees += 1
    assert trees > 100


def test_forest_plan_is_linear():
    """``component_plan`` on a forest of many small trees costs O(n): from
    5,000 to 20,000 four-vertex stars (centre threshold 2), best of 3
    interleaved, the time grows at most 8x (4x is linear; lists allocated
    per tree made it about 18x)."""
    def stars(count):
        edges = [(4 * i + 1, 4 * i + j) for i in range(count) for j in (2, 3, 4)]
        return ThresholdGraph.build(4 * count, edges, [2, 1, 1, 1] * count)

    graphs = {count: stars(count) for count in (5000, 20000)}
    best = dict.fromkeys(graphs, float("inf"))
    for _ in range(3):
        for count, g in graphs.items():
            fresh = dataclasses.replace(g)
            start = time.perf_counter()
            plan = component_plan(fresh)
            best[count] = min(best[count], time.perf_counter() - start)
            assert len(plan.components) == count and plan.min_size == count
    assert best[20000] <= 8 * best[5000], best


def test_decompose_deg2_matches_reference():
    rng = random.Random(2021)
    for i in range(400):
        g = random_maxdeg2(rng, rng.randint(2, 30))
        if i % 2:
            g = relabeled(g, rng)
        got = [(c.kind, c.order, c.w, c.terrible) for c in decompose_deg2(g).components]
        assert got == reference_components(g)


def reference_even_flip(comp, current: frozenset[int]) -> tuple[list[Step], frozenset[int]]:
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


def reference_odd_rotation(comp, p: int, q: int) -> list[Step]:
    """TJ rotation S*_p -> S*_q of an odd cycle, emitted as add/remove pairs."""
    m = comp.m
    steps: list[Step] = []
    while p != q:
        steps.append(Step.add(comp.w[(p + 1) % m]))
        steps.append(Step.remove(comp.w[p]))
        p = (p + 2) % m
    return steps


def _minima(comp) -> list[frozenset[int]]:
    """The cycle's minima {w_p, w_p+2, ...}, by p: 0..m-1 for odd m, 0 and 1 for even."""
    w, m = comp.w, comp.m
    return [frozenset(w[(p + 2 * j) % m] for j in range((m + 1) // 2)) for p in range(m if m % 2 else 2)]


def test_cycle_moves_match_references():
    """For every cycle with m = 1..9 threshold-2 vertices (seeded gaps, two
    per m) and every ordered pair of its minima, ``cycle_moves`` emits the
    references' steps, a valid TAR route within |minimum| (plus 1 for an even
    flip) that ends at the target."""
    rng = random.Random(30)
    pairs = 0
    for m in range(1, 10):
        for _ in range(2):
            while True:
                gaps = [rng.randint(0, 2) for _ in range(m)]
                if m + sum(gaps) >= 3:
                    break
            g = cycle_with_spacing(m, gaps)
            comp = component_plan(g).components[0]
            assert (comp.kind, comp.m) == ("cycle", m)
            minima = _minima(comp)
            for (p, a), (q, b) in ((pa, qb) for pa in enumerate(minima) for qb in enumerate(minima)):
                steps = cycle_moves(comp, a, b)
                if a == b:
                    assert steps == []
                    continue
                if m % 2:
                    want, k = reference_odd_rotation(comp, p, q), len(a)
                else:
                    want, end = reference_even_flip(comp, a)
                    assert end == b
                    k = len(a) + 1
                assert steps == want
                seq = ReconfigSequence(a, tuple(steps), TAR, k=k)
                assert validate_sequence(g, seq).ok and seq.end == b
                pairs += 1
    assert pairs > 100


def test_cycle_moves_reject_what_the_references_mishandled():
    """Each input on which a reference hung or returned a wrong route is
    refused, except the even cycle's two minima, between which the flip is
    the answer."""
    odd = component_plan(cycle_with_spacing(5, [1, 0, 1, 0, 1])).components[0]
    s0 = _minima(odd)[0]
    # the odd rotation never returned for an anchor q outside 0..m-1: no
    # minimum names it, and a non-minimum target is refused
    for target in (frozenset(odd.w), s0 - {odd.w[0]}, frozenset(), frozenset({odd.w[1], odd.w[3], 2})):
        with pytest.raises(PreconditionViolated):
            cycle_moves(odd, s0, target)
        with pytest.raises(PreconditionViolated):
            cycle_moves(odd, target, s0)
    # the odd rotation from p=0 to p=1 never returned on an even cycle, whose p
    # keeps its parity; the move between those minima is the flip
    g = cycle_with_spacing(4, [1, 0, 1, 0])
    even = component_plan(g).components[0]
    a, b = _minima(even)
    seq = ReconfigSequence(a, tuple(cycle_moves(even, a, b)), TAR, k=len(a) + 1)
    assert len(seq) == 4 and validate_sequence(g, seq).ok and seq.end == b
    # the even flip ran on an odd cycle from {1, 4} and claimed to end at {3}
    tri = component_plan(cycle_with_spacing(3, [1, 0, 1])).components[0]
    assert tri.w == (1, 3, 4)
    with pytest.raises(PreconditionViolated):
        cycle_moves(tri, frozenset({1, 4}), frozenset({3}))
    assert cycle_moves(tri, frozenset({1, 4}), frozenset({3, 4})) == [Step.add(3), Step.remove(1)]
    # the even flip accepted {2} on a path, which is not a target set there
    path = component_plan(path_with_spacing(2, [1, 0, 1])).components[0]
    assert (path.kind, path.w) == ("path", (2, 3))
    with pytest.raises(PreconditionViolated):
        cycle_moves(path, frozenset({2}), frozenset({3}))
    # a cycle of threshold-1 vertices alone has no threshold-2 minima
    ring = component_plan(cycle_with_spacing(0, [4])).components[0]
    assert (ring.kind, ring.m) == ("cycle", 0)
    with pytest.raises(PreconditionViolated):
        cycle_moves(ring, frozenset({1}), frozenset({2}))


def _target_sets(g: ThresholdGraph, rng: random.Random, count: int) -> list[frozenset[int]]:
    """``count`` seeded minimal target sets of g, each pruned from V in a
    shuffled order (a vertex leaves when the rest is still a target set)."""
    out = []
    for _ in range(count):
        s = set(g.vertices)
        for v in rng.sample(list(g.vertices), g.n):
            s.discard(v)
            if not is_target_set(g, s):
                s.add(v)
        out.append(frozenset(s))
    return out


def _solve_pairs(g: ThresholdGraph, rng: random.Random) -> list[tuple[frozenset[int], frozenset[int]]]:
    """Seeded same-size endpoint pairs of g.  A graph with n <= 12 draws them
    from the oracle's table at its two smallest sizes, so terrible cycles meet
    minimum endpoints; a larger one pads pruned sets to a common size.  Each
    graph also gets one pair whose first or second endpoint is not a target
    set, when a draw finds one."""
    if g.n <= 12:
        by = target_sets_by_size(g)
        pairs = []
        for k in sorted(by)[:2]:
            sets = [frozenset(v for v in g.vertices if m >> v & 1) for m in by[k]]
            pairs += [tuple(rng.sample(sets, 2)) for _ in range(4) if len(sets) > 1]
    else:
        sets = _target_sets(g, rng, 6)
        pairs = []
        for a, b in zip(sets[::2], sets[1::2]):
            k = min(g.n, max(len(a), len(b)) + rng.randint(0, 2))
            a, b = ({*s, *rng.sample(sorted(set(g.vertices) - s), k - len(s))} for s in (a, b))
            pairs.append((frozenset(a), frozenset(b)))
    x, y = pairs[0]
    bad = frozenset(rng.sample(list(g.vertices), len(x)))
    if not is_target_set(g, bad):
        pairs.append((bad, y) if rng.random() < 0.5 else (x, bad))
    return pairs


def _solve_lines():
    """TJ and TAR ``solve`` answers on seeded random trees, ``random_maxdeg2``
    graphs and tree + max-degree-2 unions: a YES sequence's ``format()``,
    "NO", or an error's type and message.  Each pair is asked as (x, y),
    (y, x), (x, y) on one graph object, so the plan's memos answer repeats."""
    rng = random.Random(31)
    for i in range(240):
        n = rng.randint(3, 12) if i % 2 else rng.randint(13, 40)
        if i % 3 == 0:
            g, solver = random_tree(rng, n), solve_tree
        elif i % 3 == 1:
            g, solver = random_maxdeg2(rng, n), solve_maxdeg2
        else:
            g, solver = disjoint_union(random_tree(rng, max(2, n // 2)), random_maxdeg2(rng, max(2, n - n // 2)))[0], solve
        for x, y in _solve_pairs(g, rng):
            for a, b in ((x, y), (y, x), (x, y)):
                for model in (TJ, TAR):
                    try:
                        verdict, seq = solver(g, a, b, model=model)
                    except PreconditionViolated as exc:
                        yield f"{type(exc).__name__}: {exc}"
                        continue
                    yield seq.format() if verdict else "NO"


# sha256 of ``_solve_lines``, one line each, pinned from the solvers that
# memoized component routes, their reversed steps and per-component endpoint
# tests on the plan
SOLVE_DIGEST = "d71735d5b50ed7753be25291a94293b39937cca14afffe43d6c55594c7fd18ed"


def test_solve_answers_match_pinned_digest():
    h, answers = hashlib.sha256(), collections.Counter()
    for line in _solve_lines():
        h.update(line.encode() + b"\n")
        answers["YES" if line.startswith("q ") else line.split(":")[0]] += 1
    assert answers.keys() == {"YES", "NO", "NotATargetSet"} and answers["NO"] > 100, answers
    assert h.hexdigest() == SOLVE_DIGEST
