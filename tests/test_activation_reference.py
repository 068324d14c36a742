"""The one full closure, ``activation_times``, and every caller of it against
the round-scan reference, and the local ``still_target`` against the same.

``reference_activate`` is the round scan ``activate`` used to be: every round
each inactive vertex counts its active neighbors (an AND of bitmasks) against
its threshold, and every round is kept as a full active set.  It is
O(n * rounds) and obviously faithful to the synchronous process; ``activate``,
``is_target_set``, ``residual`` and the component plan's endpoint check
(``Plan.endpoint``) must agree with it on every input.
``still_target(g, active, v)`` must agree with whether the reference's last
round holds v on every input.
"""

import random
import time

import pytest

from tsr.activation import (
    _INSERT_MAX,
    activate,
    certify_orientation,
    is_target_set,
    orientation_from_trace,
    residual,
    still_target,
)
from tsr.errors import NotATargetSet
from tsr.generators import (
    cycle_with_spacing,
    path_with_spacing,
    random_connected,
    random_cycle,
    random_maxdeg2,
    random_path,
    random_tree,
)
from tsr.graph import ThresholdGraph, disjoint_union
from tsr.solvers import component_plan


def reference_activate(g, seed):
    """(rounds, activation_time) of the synchronous process, one full scan a round."""
    adj = [sum(1 << u for u in g.adj[v]) for v in range(g.n + 1)]
    active = 0
    for v in g.check_seed(seed):
        active |= 1 << v
    rounds = [active]
    times = {v: (0 if active >> v & 1 else None) for v in g.vertices}
    t = 0
    while True:
        new = 0
        for v in range(1, g.n + 1):
            if not active >> v & 1 and (adj[v] & active).bit_count() >= g.tau[v]:
                new |= 1 << v
        if not new:
            break
        t += 1
        active |= new
        rounds.append(active)
        for v in g.vertices:
            if new >> v & 1:
                times[v] = t
    return tuple(frozenset(v for v in g.vertices if r >> v & 1) for r in rounds), times


def reference_format(rounds):
    return "".join(
        f"round {t}: " + " ".join(str(v) for v in sorted(r)) + "\n" for t, r in enumerate(rounds)
    )


def _instances():
    rng = random.Random(20100)
    for _ in range(120):
        yield random_connected(rng, rng.randint(2, 12))
        yield random_tree(rng, rng.randint(2, 40))
        yield random_maxdeg2(rng, rng.randint(2, 40))
    for n in (2, 3, 7, 30):
        yield path_with_spacing(0, [n])
    for n in (3, 4, 9, 31):
        yield cycle_with_spacing(0, [n])


def _seeds(rng, g):
    yield frozenset()
    yield frozenset(g.vertices)
    yield frozenset({rng.randint(1, g.n)})
    for _ in range(3):
        yield frozenset(rng.sample(g.vertices, rng.randint(1, g.n)))


def test_matches_reference():
    """``activate`` round for round, and ``is_target_set``, ``residual`` and,
    where ``component_plan`` covers g, ``Plan.endpoint`` against the
    reference's last round: it raises ``NotATargetSet``, and memoizes
    nothing, exactly when that round is not all of V."""
    rng = random.Random(555)
    checked = targets = planned = 0
    for g in _instances():
        plan = component_plan(g)
        for seed in _seeds(rng, g):
            rounds, times = reference_activate(g, seed)
            trace = activate(g, seed)
            assert trace.format() == reference_format(rounds)
            assert trace.activation_time == times
            assert trace.final == rounds[-1]
            assert trace.rounds == rounds
            assert [trace.newly_active(t) for t in range(len(rounds))] == [
                rounds[0],
                *(b - a for a, b in zip(rounds, rounds[1:])),
            ]
            assert trace.layers == tuple(tuple(sorted(trace.newly_active(t))) for t in range(len(rounds)))
            final = rounds[-1]
            assert is_target_set(g, seed) == (len(final) == g.n)
            res = residual(g, seed)
            survivors = [v for v in g.vertices if v not in final]
            assert len(survivors) != 1  # a lone inactive vertex has d(v) >= tau(v) active neighbours
            assert res.vertex_map == (0, *survivors)
            assert res.graph.tau[1:] == tuple(g.tau[v] - len(final.intersection(g.adj[v])) for v in survivors)
            if plan is not None:
                try:
                    covered = plan.endpoint(g, seed)[0] == tuple(seed & c.vertices for c in plan.components)
                except NotATargetSet:
                    covered = False
                assert covered == (len(final) == g.n) == (seed in plan._ends)
                planned += 1
            checked += 1
            targets += len(final) == g.n
    assert checked == 6 * 368
    assert planned > 1500
    assert 0 < targets < checked  # both target sets and non-target sets were seeded


def _star(leaves):
    return ThresholdGraph.build(leaves + 1, [(1, v) for v in range(2, leaves + 2)], [1] * (leaves + 1))


@pytest.mark.parametrize(
    "g,seed,merges",
    [
        (_star(200), {1}, True),  # one layer of 200 leaves, merged in at once
        (cycle_with_spacing(0, [301]), {1}, False),  # ids 1 + t and 302 - t inserted
        (cycle_with_spacing(0, [300]), {1}, False),  # the last round adds one id
        (path_with_spacing(0, [257]), {129}, False),  # ids inserted at the front and the end
        (disjoint_union(_star(80), path_with_spacing(0, [9]))[0], {1, 82}, True),  # both branches
    ],
    ids=["star200-hub", "t1cycle301", "t1cycle300", "path257-middle", "star-beside-path"],
)
def test_format_branches_match_reference(g, seed, merges):
    """Each branch of ``ActivationTrace.lines``, bisect insertion and merge, byte for byte."""
    rounds, _ = reference_activate(g, seed)
    trace = activate(g, seed)
    assert any(len(layer) > _INSERT_MAX for layer in trace.layers) == merges
    assert trace.format() == reference_format(rounds)
    assert "".join(trace.lines()) == trace.format()
    assert len(rounds) > 1 and rounds[-1] == frozenset(g.vertices)


@pytest.fixture(scope="module")
def long_path():
    return path_with_spacing(0, [20_000])


def test_long_cascade_is_linear(long_path):
    """One round per vertex: the round-scan reference would take minutes here."""
    g = long_path
    start = time.perf_counter()
    trace = activate(g, {1})
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    assert all(trace.activation_time[v] == v - 1 for v in g.vertices)
    assert trace.final == frozenset(g.vertices)


def test_long_cascade_orientation(long_path):
    g = long_path
    d = orientation_from_trace(g, {1})
    assert d.arcs == tuple((v, v + 1) for v in range(1, g.n))
    assert certify_orientation(g, {1}, d)


def _target_set(rng, g):
    """A target set from a random acyclic orientation: the vertices with fewer
    earlier neighbors than their threshold."""
    order = list(g.vertices)
    rng.shuffle(order)
    pos = {v: i for i, v in enumerate(order)}
    return [v for v in g.vertices if sum(pos[u] < pos[v] for u in g.adj[v]) < g.tau[v]]


def _still_target_graphs(rng):
    for _ in range(60):
        n = rng.randint(2, 60)
        yield random_tree(rng, n)
        yield random_connected(rng, max(n, 3), rng.choice([0.05, 0.2, 0.5, 0.8]))
        yield random_maxdeg2(rng, n)
        yield disjoint_union(random_tree(rng, rng.randint(2, 30)), random_maxdeg2(rng, rng.randint(2, 30)))[0]
        yield path_with_spacing(0, [n])
    for n in (500, 2_000):  # long range: few active vertices, far from v
        yield path_with_spacing(0, [n])
        yield cycle_with_spacing(0, [n])
        yield random_path(rng, n // 3)
        yield random_cycle(rng, n // 3)


def test_still_target_matches_closure():
    """Random sets, target sets minus one vertex and such sets plus another
    vertex, and on paths and cycles of 500 to 2,000 vertices sparse sets;
    both the neighbour fast path (v's neighbours in the set reach tau(v)) and
    the scan of v's component outside the set run on at least 100 queries
    each."""
    rng = random.Random(31337)
    checked = yes = 0
    branches = {"neighbours": 0, "scan": 0}
    for g in _still_target_graphs(rng):
        if g.n > 60:  # one sparse set, asked about vertices mostly far from it
            sparse = sum(1 << u for u in rng.sample(range(1, g.n + 1), rng.randint(2, 6)))
            queries = [(sparse, rng.randint(1, g.n)) for _ in range(8)]
        else:
            queries = []
            for _ in range(8):
                p = rng.random()
                queries.append((sum(1 << u for u in g.vertices if rng.random() < p), rng.randint(1, g.n)))
        for _ in range(8):
            ts = _target_set(rng, g)
            v = rng.choice(ts)
            mask = sum(1 << u for u in ts if u != v)
            queries.append((mask, v))
            u = rng.randint(1, g.n)
            if u not in ts:
                queries.append((mask | 1 << u, v))
        finals = {}
        for mask, v in queries:
            active = {u for u in g.vertices if mask >> u & 1}
            if mask not in finals:
                finals[mask] = reference_activate(g, active)[0][-1]
            want = v in finals[mask]
            assert still_target(g, active, v) == want, (g, mask, v)
            checked += 1
            yes += want
            if v not in active:
                branches["neighbours" if len(active.intersection(g.adj[v])) >= g.tau[v] else "scan"] += 1
    assert checked > 4000 and min(branches.values()) >= 100, (checked, branches)
    assert 0.2 < yes / checked < 0.8


class _CountingSet(set):
    """A set that counts the membership tests made of it and the elements
    read by iterating over it."""

    asked = 0

    def __contains__(self, v):
        self.asked += 1
        return super().__contains__(v)

    def __iter__(self):
        self.asked += len(self)
        return super().__iter__()


def test_still_target_work_does_not_depend_on_n():
    """One local configuration around v, decided by the neighbour fast path
    or by a scan that v's activation stops at distance 2 or 4, costs the same
    membership tests on threshold-1 paths and binary trees of n = 1,000 and
    n = 100,000, although the active vertices far from v grow with n."""

    def path(n):
        return path_with_spacing(0, [n])

    def heap_tree(n):  # vertex i's parent is i // 2
        return ThresholdGraph.build(n, [(i // 2, i) for i in range(2, n + 1)], [1] * n)

    cases = [
        (path, 500, {501}),
        (path, 500, {503}),
        (path, 500, {505}),
        (heap_tree, 5, {11}),
        (heap_tree, 5, {41}),
        (heap_tree, 5, {160}),
    ]
    for build, v, near in cases:
        asked = []
        for n in (1_000, 100_000):
            g = build(n)
            active = _CountingSet(near | set(range(700, n + 1, 97)))
            assert still_target(g, active, v)
            asked.append(active.asked)
        assert asked[0] == asked[1], (build.__name__, v, near, asked)


def test_still_target_long_range_costs_the_degree_sum():
    """An answer decided far from v reads ``active`` at most once per edge end
    plus once for v: threshold-1 P2000 and P8000 with only the far end active
    (yes) or nothing (no, after scanning the whole path), and C2000 with
    vertex 1,000 active."""
    cases = []
    for n in (2_000, 8_000):
        g = path_with_spacing(0, [n])
        cases += [(g, {n}, True), (g, set(), False)]
    cases.append((cycle_with_spacing(0, [2_000]), {1_000}, True))
    for g, far, want in cases:
        active = _CountingSet(far)
        assert still_target(g, active, 1) == want
        assert active.asked <= 2 * g.m + 1, (g.n, sorted(far), active.asked)
