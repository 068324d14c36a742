"""The oracle's BFS with its removal-only test against the full-closure reference.

``reference_bfs`` is the search the oracle used to run: every candidate
state, additions included, goes through a memoized full closure.  The
library ``bfs`` skips additions and asks ``activation.still_target`` only
whether the closure of a state reached by a jump or removal of v still
reaches v, memoized per component of v on disconnected graphs, or reads
the exact target-set table when that is cheap.  Verdicts, explored counts,
shortest sequences and guard trips must not change.

``reference_components`` (a ``closure_mask`` per combination, then a BFS
flood per TJ class) and ``reference_table`` (int16 matmul rounds over all
2^n seeds) keep the closure engines the exhaustive paths ran before the one
batch core ``oracle._full_rows``, and the flood that ``tj_components`` ran
before its union-find over shared (k-1)-subsets.
"""

import functools
import inspect
import itertools
import math
import random
from collections import deque

import numpy as np
import pytest

from tsr import errors, oracle
from tsr.activation import closure_mask, seed_mask
from tsr.gadgets import theta_gadget
from tsr.generators import (
    cycle_with_spacing,
    path_with_spacing,
    random_connected,
    random_hitting_system,
    random_maxdeg2,
    random_tree,
)
from tsr.oracle import (
    DEFAULT_GUARD,
    _check_pair,
    all_target_set_masks,
    bfs,
    enumerate_target_sets,
    ktar_decide,
    ktar_moves,
    min_target_set_size,
    target_sets_by_size,
    tj_components,
    tj_decide,
    tj_moves,
)
from tsr.graph import ThresholdGraph, disjoint_union
from tsr.reconfig import TAR, TJ, ReconfigSequence, Step
from tsr.reductions import hs_tj_decide

GUARDS = (5, 5_000_000)


def reference_bfs(start, goal, moves, ok, guard):
    """BFS testing every new state with the one-argument ``ok``."""
    parents = {start: None}
    if start == goal:
        return parents, True
    queue = deque([start])
    explored = 0
    while queue:
        cur = queue.popleft()
        explored += 1
        if explored > guard:
            raise errors.InstanceTooLarge(f"BFS exceeded guard of {guard} states")
        for nxt, out, into in moves(cur):
            if nxt in parents or not ok(nxt):
                continue
            parents[nxt] = (cur, out, into)
            if nxt == goal:
                return parents, True
            queue.append(nxt)
    return parents, False


def reference_steps(parents, goal):
    steps = []
    node = goal
    while parents[node] is not None:
        node, out, into = parents[node]
        steps.append(
            Step.jump(out, into) if out and into else Step.add(into) if into else Step.remove(out)
        )
    return tuple(reversed(steps))


def reference_pair(g, x, y, moves, model, k, guard):
    """(verdict, explored, shortest.format()) under the memoized closure test."""
    is_ts = functools.cache(lambda m: closure_mask(g, m) == g.full_mask)
    start, goal = seed_mask(g, x), seed_mask(g, y)
    parents, found = reference_bfs(start, goal, moves, is_ts, guard)
    seq = ReconfigSequence(frozenset(x), reference_steps(parents, goal), model, k=k) if found else None
    return found, len(parents), seq.format() if seq else None


def reference_table(g):
    """Every target-set mask, ascending, by int16 matmul rounds over all 2^n seeds."""
    n = g.n
    if n == 0:
        return [0]
    masks = np.arange(1 << n, dtype=np.uint32)
    active = ((masks[:, None] >> np.arange(n, dtype=np.uint32)) & 1).astype(bool)
    adj = np.zeros((n, n), dtype=np.int16)
    for u, v in g.edges:
        adj[u - 1, v - 1] = adj[v - 1, u - 1] = 1
    tau = np.array([g.tau[v] for v in g.vertices], dtype=np.int16)
    while True:
        counts = active.astype(np.int16) @ adj
        new = (counts >= tau) & ~active
        if not new.any():
            break
        active |= new
    return [int(m) << 1 for m in np.flatnonzero(active.all(axis=1))]


def reference_components(g, k):
    """(number of size-k target sets, TJ components) in ``tj_components``' order."""
    sets = [
        frozenset(c)
        for c in itertools.combinations(g.vertices, k)
        if closure_mask(g, sum(1 << v for v in c)) == g.full_mask
    ]
    index = {seed_mask(g, s): s for s in sets}
    groups = []
    while index:
        parents, _ = reference_bfs(next(iter(index)), None, tj_moves(g.vertices), index.__contains__, 10**9)
        groups.append([index.pop(m) for m in parents])
    comps = tuple(
        tuple(sorted(grp, key=sorted))
        for grp in sorted(groups, key=lambda grp: sorted(min(grp, key=sorted)))
    )
    return len(sets), comps


def outcome(fn):
    """The result of ``fn()``, or "guard" if it trips its guard."""
    try:
        return fn()
    except errors.InstanceTooLarge:
        return "guard"


def graphs(seed, count):
    """Small seeded graphs: connected, trees, max-degree-2 and spaced 4-cycles in turn."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = rng.randint(3, 8)
        kind = i % 4
        if kind == 0:
            g = random_connected(rng, n, rng.choice([0.2, 0.5, 0.8]))
        elif kind == 1:
            g = random_tree(rng, n)
        elif kind == 2:
            g = random_maxdeg2(rng, n)
        else:
            g = cycle_with_spacing(4, [rng.randint(0, 2) for _ in range(4)])
        out.append(g)
    return out


def _summary(report):
    """``reference_pair``'s shape for a report, or "guard"."""
    if report == "guard":
        return report
    seq = report.shortest
    return report.reconfigurable, report.explored, seq.format() if seq else None


def test_pair_queries_match_reference():
    """``tj_decide`` and ``ktar_decide`` at k = |x| and |x| + 1 on 320 graphs."""
    rng = random.Random(8128)
    queries = 0
    for g in graphs(555, 320):
        by_size = target_sets_by_size(g)
        sizes = [k for k, masks in by_size.items() if len(masks) >= 2]
        if not sizes:
            continue
        masks = by_size[rng.choice(sizes)]
        for _ in range(2):
            xm, ym = rng.sample(masks, 2)
            x, y = (frozenset(v for v in g.vertices if m >> v & 1) for m in (xm, ym))
            for guard in GUARDS:
                got = outcome(lambda: tj_decide(g, x, y, guard=guard))
                want = outcome(lambda: reference_pair(g, x, y, tj_moves(g.vertices), TJ, 0, guard))
                assert _summary(got) == want, (g, sorted(x), sorted(y), guard)
                for k in (len(x), len(x) + 1):
                    got = outcome(lambda: ktar_decide(g, x, y, k, guard=guard))
                    want = outcome(
                        lambda: reference_pair(g, x, y, ktar_moves(g.vertices, k), TAR, k, guard)
                    )
                    assert _summary(got) == want, (g, sorted(x), sorted(y), k, guard)
                queries += 3
    assert queries >= 1500


def test_components_match_reference():
    """``tj_components`` at the minimum target-set size and at n // 2, on 320 graphs."""
    for g in graphs(90210, 320):
        for k in {min(target_sets_by_size(g)), g.n // 2}:
            report = tj_components(g, k)
            count, comps = reference_components(g, k)
            assert (report.num_target_sets, report.components, report.explored) == (count, comps, count)


@pytest.mark.parametrize("guard", GUARDS)
def test_hitting_set_queries_match_reference(guard):
    """``hs_tj_decide`` on 300 random hitting systems against the closure-free reference."""
    rng = random.Random(4242)
    decided = 0
    for _ in range(300):
        n = rng.randint(3, 7)
        hs = random_hitting_system(rng, n, rng.randint(1, 5), rng.randint(1, n - 1))
        family = [sum(1 << u for u in f) for f in hs.family]
        sets = hs.hitting_sets()
        if len(sets) < 2:
            continue
        x, y = rng.sample(sets, 2)
        start, goal = (sum(1 << u for u in s) for s in (x, y))
        want = outcome(
            lambda: reference_bfs(
                start, goal, tj_moves(range(1, n + 1)), lambda m: all(m & f for f in family), guard
            )[1]
        )
        assert outcome(lambda: hs_tj_decide(hs, x, y, guard=guard)) == want, (hs, x, y)
        decided += 1
    assert decided >= 100


def _part(rng):
    """One component: a spaced terrible 4-cycle, a threshold-1 path, or a small
    random connected graph or tree."""
    kind = rng.randrange(4)
    if kind == 0:
        return cycle_with_spacing(4, [rng.randint(0, 2) for _ in range(4)])
    if kind == 1:
        return path_with_spacing(0, [rng.randint(2, 5)])
    if kind == 2:
        return random_connected(rng, rng.randint(3, 4), rng.choice([0.2, 0.5]))
    return random_tree(rng, rng.randint(2, 5))


def _union_pair(rng):
    """A disjoint union of 2-4 parts with n <= 24, and two target sets of one size.

    Each part gets its own size, its minimum (nine times in ten) or one
    more, and x and y each pick a target set of that size in every part, so
    terrible cycles at their minimum give NO instances beside YES parts.
    """
    g, x, y = None, set(), set()
    for _ in range(rng.randint(2, 4)):
        p = _part(rng)
        if g is not None and g.n + p.n > 24:
            continue
        by_size = target_sets_by_size(p)
        masks = by_size[sorted(by_size)[rng.random() < 0.1]]
        base = g.n if g is not None else 0
        for s in (x, y):
            m = rng.choice(masks)
            s.update(base + v for v in p.vertices if m >> v & 1)
        g = p if g is None else disjoint_union(g, p)[0]
    return g, frozenset(x), frozenset(y)


def test_multi_component_pair_queries_match_reference():
    """``tj_decide`` and ``ktar_decide`` at k = |x| and |x| + 1 on 60 disjoint
    unions, where the removal test is memoized per component; 9 TJ pairs are NO."""
    rng = random.Random(2718)
    no = 0
    for _ in range(60):
        g, x, y = _union_pair(rng)
        for guard in GUARDS:
            got = outcome(lambda: tj_decide(g, x, y, guard=guard))
            want = outcome(lambda: reference_pair(g, x, y, tj_moves(g.vertices), TJ, 0, guard))
            assert _summary(got) == want, (g, sorted(x), sorted(y), guard)
            no += guard == GUARDS[-1] and not want[0]
            for k in (len(x), len(x) + 1):
                got = outcome(lambda: ktar_decide(g, x, y, k, guard=guard))
                want = outcome(lambda: reference_pair(g, x, y, ktar_moves(g.vertices, k), TAR, k, guard))
                assert _summary(got) == want, (g, sorted(x), sorted(y), k, guard)
    assert no >= 8


def _terrible_beside_paths(paths):
    """C8 with four threshold-2 vertices beside ``paths`` copies of P5; x and y
    differ on the cycle at its minimum, so both searches flood their component."""
    rng = random.Random(1)
    g = cycle_with_spacing(4, [0, 1, 1, 2])
    w = [v for v in g.vertices if g.tau[v] == 2]
    x, y = {w[0], w[2]}, {w[1], w[3]}
    for _ in range(paths):
        base = g.n
        g, _ = disjoint_union(g, path_with_spacing(0, [5]))
        x.add(base + rng.randint(1, 5))
        y.add(base + rng.randint(1, 5))
    return g, frozenset(x), frozenset(y)


def test_removal_tests_are_memoized_per_component(monkeypatch):
    """On C8 + 3 x P5 (n = 23, k = 5) each search makes at most 60 removal tests
    (29 measured; 3,874 and 4,199 without the memo), and a connected graph
    stores no memo entry."""
    calls = []
    real = oracle.still_target
    monkeypatch.setattr(oracle, "still_target", lambda *a: calls.append(a) or real(*a))
    g, x, y = _terrible_beside_paths(3)
    for decide in (tj_decide, lambda *a: ktar_decide(*a, len(x))):
        calls.clear()
        assert decide(g, x, y).reconfigurable is False
        assert 0 < len(calls) <= 60

    for g, x, y in (_terrible_beside_paths(0), _terrible_beside_paths(1)):
        _, _, start, goal, ok = _check_pair(g, x, y)
        calls.clear()
        bfs(start, goal, tj_moves(g.vertices), ok, DEFAULT_GUARD)
        memo = inspect.getclosurevars(ok).nonlocals["memo"]
        assert calls and (len(memo) == 0) == (len(g.components()) == 1)


def _table_allowed(g, x, k, model, guard):
    """The table rule: 2^n within the guard and within ``_ROWS_PER_TEST`` times
    the most states the search can test, capped per component by the memo."""
    sizes = [len(x)] if model == TJ else range(min(k, g.n) + 1)
    tests = sum(math.comb(g.n, i) for i in sizes)
    tests = min(tests, sum(len(c) << len(c) for c in g.components()))
    return (1 << g.n) <= min(guard, oracle._ROWS_PER_TEST * tests)


def test_pair_queries_switch_between_table_and_removal_test(monkeypatch):
    """On 160 small graphs and 20 disjoint unions, at guards around 2^n, a
    query either reads one exact table (built at most once, never when
    2^n exceeds the guard or x == y) or calls ``still_target``, never both;
    both sides run often and match the reference."""
    builds, calls = [], []
    real_table, real_test = oracle._table, oracle.still_target
    monkeypatch.setattr(oracle, "_table", lambda g: builds.append(g.n) or real_table(g))
    monkeypatch.setattr(oracle, "still_target", lambda *a: calls.append(a) or real_test(*a))
    rng = random.Random(6174)
    cases = []
    for g in graphs(1618, 160):
        by_size = target_sets_by_size(g)
        masks = by_size[rng.choice(list(by_size))]
        xm, ym = rng.choice(masks), rng.choice(masks)
        cases.append((g, *(frozenset(v for v in g.vertices if m >> v & 1) for m in (xm, ym))))
    cases += [_union_pair(rng) for _ in range(20)]
    sides = {"table": 0, "still_target": 0}
    for g, x, y in cases:
        for guard in (5, (1 << g.n) - 1, 1 << g.n, DEFAULT_GUARD):
            for model, k in ((TJ, 0), (TAR, len(x)), (TAR, len(x) + 1)):
                builds.clear()
                calls.clear()
                if model == TJ:
                    got = outcome(lambda: tj_decide(g, x, y, guard=guard))
                    moves = tj_moves(g.vertices)
                else:
                    got = outcome(lambda: ktar_decide(g, x, y, k, guard=guard))
                    moves = ktar_moves(g.vertices, k)
                want = outcome(lambda: reference_pair(g, x, y, moves, model, k, guard))
                assert _summary(got) == want, (g, x, y, model, k, guard)
                if _table_allowed(g, x, k, model, guard) and x != y:
                    assert builds in ([], [g.n]) and not calls, (g, x, y, model, k, guard)
                else:
                    assert not builds, (g, x, y, model, k, guard)
                sides["table"] += bool(builds)
                sides["still_target"] += bool(calls)
    assert min(sides.values()) >= 300, sides

    # endpoint checks come before any table, and the table is built lazily
    g, x, y = cases[0]
    builds.clear()
    with pytest.raises(errors.NotATargetSet):
        tj_decide(g, frozenset(), x)
    with pytest.raises(errors.SizeMismatch):
        tj_decide(g, x, frozenset(g.vertices))
    with pytest.raises(errors.SizeMismatch):
        ktar_decide(g, x, y, len(x) - 1)
    assert tj_decide(g, x, x).reconfigurable and ktar_decide(g, x, x, len(x)).reconfigurable
    assert not builds

    # with no test count, as three arguments give, the removal test runs
    _, _, start, goal, ok = _check_pair(g, x, y)
    calls.clear()
    bfs(start, goal, tj_moves(g.vertices), ok, DEFAULT_GUARD)
    assert calls and not builds


def _enumeration_graphs():
    """The empty graph, the theta gadget (both apex thresholds), threshold-1
    paths and cycles, and seeded random connected graphs, trees and
    max-degree-2 graphs on 2..14 vertices.  No graph has n = 1: a lone vertex
    has degree 0, below every allowed threshold."""
    rng = random.Random(1729)
    out = [ThresholdGraph.build(0, [], []), theta_gadget()[0], theta_gadget(r_tau=1)[0]]
    out += [path_with_spacing(0, [n]) for n in (2, 3, 8, 13)]
    out += [cycle_with_spacing(0, [n]) for n in (3, 4, 9, 14)]
    for n in range(2, 15):
        out.append(random_connected(rng, n, rng.choice([0.2, 0.5, 0.8])))
        out.append(random_tree(rng, n))
        out.append(random_maxdeg2(rng, n))
    return out


def test_enumeration_matches_reference():
    """The batch closure's callers against the per-combination and int16
    references, at every k from 0 to n: values and order of
    ``enumerate_target_sets``, ``all_target_set_masks``,
    ``target_sets_by_size``, ``min_target_set_size`` and ``tj_components``."""
    for g in _enumeration_graphs():
        table = reference_table(g)
        assert all_target_set_masks(g) == table, g
        by_size: dict[int, list[int]] = {}
        for m in table:
            by_size.setdefault(m.bit_count(), []).append(m)
        assert list(target_sets_by_size(g).items()) == list(by_size.items()), g
        assert min_target_set_size(g) == min(by_size), g
        for k in range(g.n + 1):
            count, comps = reference_components(g, k)
            report = tj_components(g, k)
            assert (report.num_target_sets, report.components, report.explored) == (count, comps, count), (g, k)
            # combination order is the lexicographic order of the sorted id lists
            sets = sorted(itertools.chain.from_iterable(comps), key=sorted)
            assert enumerate_target_sets(g, k) == sets, (g, k)
            assert len(sets) == len(by_size.get(k, [])), (g, k)
