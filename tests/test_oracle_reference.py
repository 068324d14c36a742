"""The oracle's searches against the full-closure references.

``reference_bfs`` is the one-sided breadth-first search the oracle used to
run: FIFO order, every candidate state through a memoized full closure.  The
library ``bfs`` is a best-first (A*) search on depth plus the goal vertices
a state misses; it expands each hub through the list of jumps that repair
it.  The list reads the exact target-set table when that is cheap, else asks
``activation.still_target`` only whether the closure of a set reached by a
jump of v still reaches v, at most once a search per restriction to v's
component and never for a stored state.  The search order differs, so the
references pin verdicts, shortest lengths and, on NO, the explored
component with every depth; each YES route must validate from x to y, and a
query trips its guard exactly when the same query at the default guard
stores more states than the guard.

``ktar_decide`` runs TJ searches between padded endpoints.  ``reference_ktar``
is that definition, naively; it and the BFS over additions and removals that
``ktar_decide`` replaced, ``reference_pair`` with ``reference_ktar_moves``,
are the references for its verdicts and shortest lengths.

``reference_components`` (an ``is_target_set`` per combination, then a BFS
flood per TJ class) and ``reference_table`` (int16 matmul rounds over all
2^n seeds) keep the closure engines the exhaustive paths ran before the one
batch core ``oracle._full_rows``, and the flood that ``tj_components`` ran
before its union-find over shared (k-1)-subsets.  ``reference_full_rows``
and ``reference_byte_table`` keep that core as it was, in float32 numpy
matmul rounds, before it was bit-sliced over Python ints, and
``reference_tj_moves`` the jump generator from before each search expanded
a hub once and tested it once.  numpy is a test dependency only.
"""

import functools
import hashlib
import inspect
import itertools
import math
import random
from collections import deque

import numpy as np
import pytest

from tsr import errors, oracle
from tsr.activation import is_target_set
from tsr.gadgets import attach
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
    min_target_set_size,
    seed_mask,
    target_sets_by_size,
    tj_components,
    tj_decide,
)
from tsr.graph import PlainGraph, ThresholdGraph, disjoint_union, vc_to_tss
from tsr.reconfig import TAR, TJ, ReconfigSequence, Step, tj_to_tar, validate_sequence
from tsr.reductions import _hs_repairs, hs_tj_decide

GUARDS = (5, 5_000_000)


def reference_bfs(starts, done, moves, ok, guard, popped=0):
    """BFS from ``starts`` until a state is ``done``, testing every new state
    with the one-argument ``ok``: the parent map, whether a state was done,
    and the pops so far (``popped`` of them in earlier searches).  Each
    start counts as a pop when it is stored."""
    parents = {}
    for s in starts:
        parents[s] = None
        if done(s):
            return parents, True, popped
        if popped + len(parents) > guard:
            raise errors.InstanceTooLarge(f"BFS exceeded guard of {guard} states")
    queue = deque(parents)
    while queue:
        cur = queue.popleft()
        popped += 1
        if popped > guard:
            raise errors.InstanceTooLarge(f"BFS exceeded guard of {guard} states")
        for nxt, out, into in moves(cur):
            if nxt in parents or not ok(nxt):
                continue
            parents[nxt] = (cur, out, into)
            if done(nxt):
                return parents, True, popped
            queue.append(nxt)
    return parents, False, popped


def never(_):
    return False


def reference_tj_moves(universe):
    """The jump generator before each hub was expanded once per search."""
    bits = [(v, 1 << v) for v in universe]

    def moves(cur: int):
        absent = [(v, b) for v, b in bits if not cur & b]
        for out, b in bits:
            if cur & b:
                base = cur ^ b
                for into, c in absent:
                    yield base | c, out, into

    return moves


def reference_ktar_moves(universe, k):
    """The k-TAR generator the oracle searched before ``ktar_decide`` ran TJ
    searches: single additions (while the set has at most k elements), then
    removals."""
    bits = [(v, 1 << v) for v in universe]

    def moves(cur: int):
        if cur.bit_count() <= k:
            for into, b in bits:
                if not cur & b:
                    yield cur | b, 0, into
        for out, b in bits:
            if cur & b:
                yield cur ^ b, out, 0

    return moves


def reference_steps(parents, goal):
    steps = []
    node = goal
    while parents[node] is not None:
        node, out, into = parents[node]
        steps.append(
            Step.jump(out, into) if out and into else Step.add(into) if into else Step.remove(out)
        )
    return tuple(reversed(steps))


def mask_is_target_set(g, m):
    """``is_target_set`` of the set whose bit v is set for each vertex v in it."""
    return is_target_set(g, [v for v in g.vertices if m >> v & 1])


def reference_pair(g, x, y, moves, model, k, guard):
    """(verdict, explored, shortest.format()) under the memoized closure test."""
    is_ts = functools.cache(lambda m: mask_is_target_set(g, m))
    start, goal = seed_mask(g, x), seed_mask(g, y)
    parents, found, _ = reference_bfs([start], goal.__eq__, moves, is_ts, guard)
    seq = ReconfigSequence(frozenset(x), reference_steps(parents, goal), model, k=k) if found else None
    return found, len(parents), seq.format() if seq else None


def reference_ktar(g, x, y, k, guard):
    """``ktar_decide``'s summary by its definition, naively: for each size j
    from max(|x|, |y|) while 2j - |x| - |y| is below the best length, a BFS
    under the jump generator that expands every hub and the memoized full
    closure, from the size-j supersets of x (pads in lexicographic order) to
    the first superset of y; the route adds the pads, turns each jump into
    an addition and a removal, and removes down to y.  Pops add up over the
    searches for the guard, each start charged as it is stored, and so do
    the stored states."""
    is_ts = functools.cache(lambda m: mask_is_target_set(g, m))
    goal = seed_mask(g, y)
    best, explored, popped = None, 0, 0
    for j in range(max(len(x), len(y)), min(k, g.n) + 1):
        if best is not None and 2 * j - len(x) - len(y) >= len(best):
            break
        pads = itertools.combinations(sorted(set(g.vertices) - x), j - len(x))
        starts = [seed_mask(g, x | set(pad)) for pad in pads]
        parents, found, popped = reference_bfs(
            starts, lambda m: m & goal == goal, reference_tj_moves(g.vertices), is_ts, guard, popped
        )
        explored += len(parents)
        if not found:
            continue
        end = first = list(parents)[-1]
        while parents[first] is not None:
            first = parents[first][0]
        route = [Step.add(v) for v in g.vertices if (first ^ seed_mask(g, x)) >> v & 1]
        for st in reference_steps(parents, end):
            route += [Step.add(st.into), Step.remove(st.out)]
        route += [Step.remove(v) for v in g.vertices if (end ^ goal) >> v & 1]
        if best is None or len(route) < len(best):
            best = route
    seq = ReconfigSequence(frozenset(x), tuple(best), TAR, k=k) if best is not None else None
    return best is not None, explored, seq.format() if seq else None


def _verdict_length(summary):
    """(verdict, shortest length) of a summary: a sequence's text has two
    header lines and one line a step."""
    return summary[0], summary[2].count("\n") - 2 if summary[2] else None


def decide(g, x, y, k=None, guard=DEFAULT_GUARD):
    """``tj_decide``'s report (k None) or ``ktar_decide``'s, or "guard"."""
    if k is None:
        return outcome(lambda: tj_decide(g, x, y, guard=guard))
    return outcome(lambda: ktar_decide(g, x, y, k, guard=guard))


def check(g, x, y, k=None, guards=()):
    """A TJ (k None) or k-TAR query against the one-sided references.

    At the default guard the verdict and shortest length are those of the
    BFS under the jump generator, or under the addition/removal generator
    and ``reference_ktar`` for k-TAR, and a YES route validates from x to y
    (through sets of at most k + 1 for k-TAR).  At each of ``guards`` the
    query trips exactly when the default one stored more states than the
    guard, and otherwise returns the default report, which it returns."""
    full = decide(g, x, y, k)
    moves = reference_tj_moves(g.vertices) if k is None else reference_ktar_moves(g.vertices, k)
    want = reference_pair(g, x, y, moves, TJ if k is None else TAR, k or 0, DEFAULT_GUARD)
    assert _verdict_length(_summary(full)) == _verdict_length(want), (g, sorted(x), sorted(y), k)
    if k is not None:
        assert _verdict_length(reference_ktar(g, x, y, k, DEFAULT_GUARD)) == _verdict_length(want)
    if full.reconfigurable:
        seq = full.shortest
        assert (seq.start, seq.end, seq.k) == (x, y, k or 0) and validate_sequence(g, seq).ok, (g, sorted(x), sorted(y), k)
        assert k is None or max(map(len, seq.sets())) <= k + 1
    for guard in guards:
        got = decide(g, x, y, k, guard)
        assert got == ("guard" if full.explored > guard else full), (g, sorted(x), sorted(y), k, guard)
    return full


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
        if is_target_set(g, c)
    ]
    index = {seed_mask(g, s): s for s in sets}
    groups = []
    while index:
        parents, _, _ = reference_bfs([next(iter(index))], never, reference_tj_moves(g.vertices), index.__contains__, 10**9)
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
            for k in (None, len(x), len(x) + 1):
                check(g, x, y, k, GUARDS)
            queries += 3 * len(GUARDS)
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
    """``hs_tj_decide`` on 300 random hitting systems against the closure-free
    reference's verdict, tripping exactly when its search at the default
    guard stores more states than ``guard``."""
    rng = random.Random(4242)
    decided = trips = 0
    for _ in range(300):
        n = rng.randint(3, 7)
        hs = random_hitting_system(rng, n, rng.randint(1, 5), rng.randint(1, n - 1))
        family = [sum(1 << u for u in f) for f in hs.family]
        sets = hs.hitting_sets()
        if len(sets) < 2:
            continue
        x, y = rng.sample(sets, 2)
        start, goal = (sum(1 << u for u in s) for s in (x, y))
        want = reference_bfs(
            [start], goal.__eq__, reference_tj_moves(range(1, n + 1)), lambda m: all(m & f for f in family), DEFAULT_GUARD
        )[1]
        stored = len(bfs((start,), goal, n, functools.partial(_hs_repairs, family), DEFAULT_GUARD)[0])
        got = outcome(lambda: hs_tj_decide(hs, x, y, guard=guard))
        assert got == ("guard" if stored > guard else want), (hs, x, y)
        decided += 1
        trips += got == "guard"
    assert decided >= 100 and (trips >= 50 or guard == DEFAULT_GUARD), (decided, trips)


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
        no += not check(g, x, y, None, GUARDS).reconfigurable
        for k in (len(x), len(x) + 1):
            check(g, x, y, k, GUARDS)
    assert no >= 8


def _gate_pairs(seed, count):
    """Seeded (graph, x, y): random connected graphs, trees, max-degree-2
    graphs, terrible 4-cycles and disjoint unions of two small parts (n <= 10)
    in turn.  Odd pairs draw x and y of independent sizes; even pairs one
    size, the minimum on the terrible cycles and the unions, so those give
    NO instances."""
    rng = random.Random(seed)
    for i in range(count):
        n, kind = rng.randint(3, 8), i % 5
        if kind == 0:
            g = random_connected(rng, n, rng.choice([0.2, 0.5, 0.8]))
        elif kind == 1:
            g = random_tree(rng, n)
        elif kind == 2:
            g = random_maxdeg2(rng, n)
        elif kind == 3:
            g = cycle_with_spacing(4, [rng.randint(0, 2) for _ in range(4)])
        else:
            parts = [_part(rng), _part(rng)]
            while parts[0].n + parts[1].n > 10:
                parts = [_part(rng), _part(rng)]
            g = disjoint_union(*parts)[0]
        by_size = target_sets_by_size(g)
        if i % 2:
            xm, ym = (rng.choice(by_size[rng.choice(list(by_size))]) for _ in range(2))
        else:
            xm, ym = rng.choices(by_size[min(by_size) if kind >= 3 else rng.choice(list(by_size))], k=2)
        yield g, *(frozenset(v for v in g.vertices if m >> v & 1) for m in (xm, ym))


def test_ktar_lengths_match_the_addition_removal_search():
    """The length gate: on 900 seeded pairs, ``ktar_decide`` at every k from
    max(|x|, |y|) to that plus 2 and at k = n gives the verdict and shortest
    length of the BFS over additions and removals it replaced, and every YES
    is a valid k-TAR route from x to y through sets of at most k + 1 (3,046
    queries, 72 NO, 1,137 with |x| != |y|)."""
    queries = no = uneven = 0
    for g, x, y in _gate_pairs(65537, 900):
        lo = max(len(x), len(y))
        for k in sorted({lo, lo + 1, lo + 2, g.n}):
            got = ktar_decide(g, x, y, k)
            old = reference_pair(g, x, y, reference_ktar_moves(g.vertices, k), TAR, k, DEFAULT_GUARD)
            assert _verdict_length(_summary(got)) == _verdict_length(old), (g, sorted(x), sorted(y), k)
            seq = got.shortest
            if got.reconfigurable:
                assert (seq.model, seq.k, seq.start, seq.end) == (TAR, k, x, y), (g, sorted(x), sorted(y), k)
                assert validate_sequence(g, seq).ok and max(map(len, seq.sets())) <= k + 1
            queries += 1
            no += not got.reconfigurable
            uneven += len(x) != len(y)
    assert queries >= 1500 and no >= 50 and uneven >= 300, (queries, no, uneven)


def test_guard_trips_exactly_above_the_stored_states():
    """A pair query trips at guard G exactly when the same query at the
    default guard reports ``explored`` > G: at G = explored it returns the
    default report, at explored - 1 it trips.  Starts, padded ones included,
    and the state containing the goal are charged as they are stored.  TJ
    and k-TAR at k = max(|x|, |y|) and that plus 1, on 300 of the length
    gate's pairs (half of different sizes, so k-TAR starts from many padded
    supersets, and summed over several sizes j) and on x = y, which stores
    one state (1,683 queries, 706 with padded starts)."""
    queries = multi = 0
    for g, x, y in _gate_pairs(31337, 300):
        lo = max(len(x), len(y))
        for a, b in ((x, y), (x, x)):
            for k in ([None] if len(a) == len(b) else []) + [lo, lo + 1]:
                full = decide(g, a, b, k)
                assert decide(g, a, b, k, full.explored) == full, (g, sorted(a), sorted(b), k)
                assert decide(g, a, b, k, full.explored - 1) == "guard", (g, sorted(a), sorted(b), k)
                assert a != b or k is not None or full.explored == 1
                queries += 1
                multi += k is not None and k > len(a)
    assert queries >= 1200 and multi >= 500, (queries, multi)


def test_ktar_at_k_is_the_tj_search(monkeypatch):
    """At k = |x| = |y|, ``ktar_decide`` is ``tj_decide``'s one search: the
    route is ``tj_to_tar`` of the TJ route, with the same stored states, the
    same ``still_target`` calls and the same guard trips at guards 3, 40 and
    the default, on the seeded searches of the hub test and 60 more (157
    trips and 247 searches that called ``still_target`` measured; on the
    hub test's 240, 202 such searches now that the guard counts stored
    states, 268 when it counted pops)."""
    calls = []
    real = oracle.still_target
    monkeypatch.setattr(oracle, "still_target", lambda *a: calls.append(a) or real(*a))
    trips = tested = 0
    for g, x, y in _searches(4096, 300):
        for guard in (3, 40, DEFAULT_GUARD):
            calls.clear()
            tj = outcome(lambda: tj_decide(g, x, y, guard=guard))
            tj_calls = len(calls)
            calls.clear()
            tar = outcome(lambda: ktar_decide(g, x, y, len(x), guard=guard))
            assert len(calls) == tj_calls, (g, sorted(x), sorted(y), guard)
            assert (tar == "guard") == (tj == "guard"), (g, sorted(x), sorted(y), guard)
            if tj == "guard":
                trips += 1
                continue
            assert (tar.reconfigurable, tar.explored) == (tj.reconfigurable, tj.explored), (g, sorted(x), sorted(y))
            assert tar.shortest == (tj_to_tar(tj.shortest) if tj.reconfigurable else None)
            tested += tj_calls > 0
    assert trips >= 40 and tested >= 200, (trips, tested)


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
    (27 measured, 29 when the memo was keyed by restriction and removed
    vertex; 3,874 and 4,199 without the memo), and both memos, the hub lists
    and the restrictions' answers, fill on connected and disconnected graphs
    alike."""
    calls = []
    real = oracle.still_target
    monkeypatch.setattr(oracle, "still_target", lambda *a: calls.append(a) or real(*a))
    g, x, y = _terrible_beside_paths(3)
    for decide in (tj_decide, lambda *a: ktar_decide(*a, len(x))):
        calls.clear()
        assert decide(g, x, y).reconfigurable is False
        assert 0 < len(calls) <= 60

    for g, x, y in (_terrible_beside_paths(0), _terrible_beside_paths(1)):
        _, _, start, goal, repairs = _check_pair(g, x, y)
        calls.clear()
        bfs((start,), goal, g.n, repairs, DEFAULT_GUARD)
        memo = inspect.getclosurevars(repairs).nonlocals
        covers = inspect.getclosurevars(memo["covered"]).nonlocals["covers"]
        assert calls and memo["lists"] and covers, (g, memo["lists"], covers)


def _table_allowed(g, x, y, k, model, guard):
    """The table rule: 2^n within the guard and within ``_ROWS_PER_TEST`` times
    the most states the searches can test, one size each, capped per
    component by the memo."""
    sizes = [len(x)] if model == TJ else range(max(len(x), len(y)), min(k, g.n) + 1)
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
                decide(g, x, y, k if model == TAR else None, guard)
                if _table_allowed(g, x, y, k, model, guard) and x != y:
                    assert builds in ([], [g.n]) and not calls, (g, x, y, model, k, guard)
                else:
                    assert not builds, (g, x, y, model, k, guard)
                sides["table"] += bool(builds)
                sides["still_target"] += bool(calls)
                check(g, x, y, k if model == TAR else None, [guard])
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
    _, _, start, goal, repairs = _check_pair(g, x, y)
    calls.clear()
    bfs((start,), goal, g.n, repairs, DEFAULT_GUARD)
    assert calls and not builds


def _enumeration_graphs():
    """The empty graph, the theta gadget (both apex thresholds), threshold-1
    paths and cycles, and seeded random connected graphs, trees and
    max-degree-2 graphs on 2..14 vertices.  No graph has n = 1: a lone vertex
    has degree 0, below every allowed threshold."""
    rng = random.Random(1729)
    out = [ThresholdGraph.build(0, [], []), attach(None, "theta")[0], attach(None, "theta1")[0]]
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


# -- the numpy batch closure that the bit-sliced ``_full_rows`` replaced ------
#
# ``reference_full_rows`` and ``reference_byte_table`` are the float32 matmul
# core and its 2^n-byte table as the package ran them, unchanged but for the
# table's cache on the graph object, which would shadow the library's.
# ``reference_enumerate`` is the block-wise enumeration that fed the core.

_BLOCK = 4096  # seed rows per batch-closure block: 16 KB of float32 per vertex


def reference_full_rows(g, blocks):
    """For each (rows x n) bool seed block, which of its rows activate every vertex.

    The one batch closure; column j is vertex j + 1.  Each round counts the
    active neighbours of every row with one float32 matmul against the dense
    adjacency, in BLAS.  The counts are integers of at most the maximum
    degree, far below 2^24, so float32 holds them exactly.  Callers pass
    blocks of at most ``_BLOCK`` rows, which bounds the working copy.
    """
    adj = np.zeros((g.n, g.n), dtype=np.float32)
    for u, v in g.edges:
        adj[u - 1, v - 1] = adj[v - 1, u - 1] = 1
    tau = np.array(g.tau[1:], dtype=np.float32)
    for seeds in blocks:
        active = seeds.astype(np.float32)
        while True:
            new = (active @ adj >= tau) & (active == 0)
            if not new.any():
                break
            active[new] = 1
        yield active.all(axis=1)


def reference_byte_table(g):
    """2^n bytes: byte i is 1 when the set with dense mask i (bit j is vertex
    j + 1) is a target set, else 0.

    Seed row i is the binary expansion of i, unpacked from its little-endian
    bytes one ``_BLOCK`` at a time, so beside the table only one block of
    seed rows exists.
    """
    size = 1 << g.n
    starts = range(0, size, _BLOCK)
    rows = (np.arange(lo, min(lo + _BLOCK, size), dtype="<u8") for lo in starts)
    blocks = (
        np.unpackbits(r.view(np.uint8).reshape(-1, 8), axis=1, count=g.n, bitorder="little").view(bool)
        for r in rows
    )
    table = bytearray(size)
    view = np.frombuffer(table, dtype=bool)
    for lo, full in zip(starts, reference_full_rows(g, blocks)):
        view[lo : lo + _BLOCK] = full
    return table


def reference_enumerate(g, k):
    """``enumerate_target_sets`` as it fed ``reference_full_rows``, one block of
    combinations at a time."""
    rows = math.comb(g.n, k)
    flat = itertools.chain.from_iterable(itertools.combinations(g.vertices, k))

    def blocks():
        for lo in range(0, rows, _BLOCK):
            r = min(_BLOCK, rows - lo)
            combos = np.fromiter(flat, dtype=np.intp, count=r * k).reshape(r, k)
            seeds = np.zeros((r, g.n), dtype=bool)
            np.put_along_axis(seeds, combos - 1, True, axis=1)
            yield seeds

    full = itertools.chain.from_iterable(map(np.ndarray.tolist, reference_full_rows(g, blocks())))
    return list(map(frozenset, itertools.compress(itertools.combinations(g.vertices, k), full)))


def _exact_graphs():
    """The enumeration graphs, vertex-cover graphs (tau = degree, so every
    vertex needs all its neighbours) on 2..12 vertices, and the empty graph."""
    rng = random.Random(3141)
    out = _enumeration_graphs()
    for n in range(2, 13):
        g = random_connected(rng, n, rng.choice([0.2, 0.5]))
        out.append(vc_to_tss(PlainGraph.build(g.n, g.edges)))
    return out + [ThresholdGraph.build(0, [], [])]


def _flood_components(sets):
    """TJ classes of ``sets`` by BFS floods under the jump generator the oracle
    ran before it expanded each hub once, in ``tj_components``' order."""
    index = {sum(1 << v for v in s): s for s in sets}
    universe = sorted(set().union(*sets)) if sets else []
    groups = []
    while index:
        parents, _, _ = reference_bfs(
            [next(iter(index))], never, reference_tj_moves(universe), index.__contains__, 10**9
        )
        groups.append([index.pop(m) for m in parents])
    return tuple(
        tuple(sorted(grp, key=sorted))
        for grp in sorted(groups, key=lambda grp: sorted(min(grp, key=sorted)))
    )


def test_bit_sliced_closure_matches_numpy_reference():
    """The bit-sliced table, enumeration (values and order), size table and TJ
    components against the numpy core, at every k, and on a threshold-1 C60
    at k = 2 and 3 under cap 60."""
    for g in _exact_graphs():
        table = [i << 1 for i, b in enumerate(reference_byte_table(g)) if b]
        assert all_target_set_masks(g) == table, g
        by_size: dict[int, list[int]] = {}
        for m in table:
            by_size.setdefault(m.bit_count(), []).append(m)
        assert list(target_sets_by_size(g).items()) == list(by_size.items()), g
        for k in range(g.n + 1):
            sets = reference_enumerate(g, k)
            assert enumerate_target_sets(g, k) == sets, (g, k)
            report = tj_components(g, k)
            assert (report.num_target_sets, report.components) == (len(sets), _flood_components(sets)), (g, k)
    c60 = cycle_with_spacing(0, [60])
    for k in (2, 3):
        sets = reference_enumerate(c60, k)
        assert len(sets) == math.comb(60, k)
        assert enumerate_target_sets(c60, k, cap=60) == sets
        assert tj_components(c60, k, cap=60).components == (tuple(sets),)


def _pinned_lines():
    """The outputs the digests below pin, each tagged with its digest: every
    table, enumeration, size table and component partition of
    ``_exact_graphs`` and of the C60, then TJ ("exact") and k-TAR ("ktar")
    reports (verdict, explored, shortest) on seeded pairs, at a guard of 40
    and the default, with guard trips as "guard"; each pair query first
    passes ``check``."""
    rng = random.Random(1009)
    c60 = cycle_with_spacing(0, [60])
    for g in _exact_graphs():
        yield "exact", repr(all_target_set_masks(g))
        yield "exact", repr(sorted(target_sets_by_size(g).items()))
        for k in range(g.n + 1):
            yield "exact", repr([sorted(s) for s in enumerate_target_sets(g, k)])
            yield "exact", repr([[sorted(s) for s in c] for c in tj_components(g, k).components])
        by_size = target_sets_by_size(g)
        for k, masks in by_size.items():
            if len(masks) < 2:
                continue
            xm, ym = rng.sample(masks, 2)
            x, y = (frozenset(v for v in g.vertices if m >> v & 1) for m in (xm, ym))
            for budget in (None, k, k + 1):
                check(g, x, y, budget, [40])
            for guard in (40, DEFAULT_GUARD):
                for name, budget in (("exact", None), ("ktar", k), ("ktar", k + 1)):
                    yield name, repr(_summary(decide(g, x, y, budget, guard)))
    for k in (2, 3):
        yield "exact", repr([sorted(s) for s in enumerate_target_sets(c60, k, cap=60)])
        yield "exact", repr([[sorted(s) for s in c] for c in tj_components(c60, k, cap=60).components])


# sha256 of the "exact" lines of ``_pinned_lines``, whose tables,
# enumerations and partitions were computed with the numpy core and the jump
# generator that expanded every hub, and of the "ktar" lines.  The pair
# reports in both were re-pinned when the search became best-first, which
# moved explored counts, tie-broken routes and guard trips (the guard now
# counts stored states, not pops); every table, enumeration and partition
# line kept its hash, and ``check`` anchors each pair query on the
# references
EXACT_DIGEST = "e5e6186fe8c497f6743738960532aaa5b513cb718b1b23d017721058f6408443"
KTAR_DIGEST = "cf11e9d4928182e4c5b398e77272a07c8c0f249a7a7d8cfd6eb49e52caa2121b"


def test_exact_outputs_match_pinned_digest():
    h = {"exact": hashlib.sha256(), "ktar": hashlib.sha256()}
    for name, line in _pinned_lines():
        h[name].update(line.encode() + b"\n")
    assert (h["exact"].hexdigest(), h["ktar"].hexdigest()) == (EXACT_DIGEST, KTAR_DIGEST)


def _searches(seed, count):
    """Seeded TJ searches: (graph, start, goal) on random connected, max-degree-2
    and tree graphs and on disjoint unions, between two target sets of one size."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        if i % 4 == 3:
            g, x, y = _union_pair(rng)
        else:
            n = rng.randint(4, 10)
            g = (random_connected(rng, n, rng.choice([0.2, 0.5])), random_maxdeg2(rng, n), random_tree(rng, n))[i % 4]
            by_size = target_sets_by_size(g)
            masks = by_size[rng.choice(list(by_size))]
            x, y = (frozenset(v for v in g.vertices if m >> v & 1) for m in (rng.choice(masks), rng.choice(masks)))
        out.append((g, x, y))
    return out


def _near(g):
    """Each vertex's component, as a mask."""
    return {v: seed_mask(g, c) for c in g.components() for v in c}


def _depths(parents):
    """Each state's depth in a parent map of ``reference_bfs`` (BFS order, so
    the depth is the distance from the starts) or of ``bfs``."""
    depth = {}
    for m, p in parents.items():
        depth[m] = 0 if p is None else p[3] if len(p) == 4 else depth[p[0]] + 1
    return depth


def check_search(parents, found, want, goal):
    """``bfs``'s (parents, found) against ``reference_bfs``'s (parents, found)
    from the same starts: each entry is a jump from a stored state no deeper
    than it, the verdict agrees, and the goal's route (YES) or, on NO, the
    explored component and every depth in it are the reference's."""
    depth, exact = _depths(parents), _depths(want[0])
    for m, p in parents.items():
        if p is not None:
            prev, out, into, d = p
            assert prev in parents and prev ^ m == 1 << out | 1 << into and prev >> out & 1, (m, p)
            assert d >= depth[prev] + 1
    assert found == want[1]
    if found:
        end = next(reversed(parents))
        assert end & goal == goal and depth[end] == len(oracle._steps_to(parents, end)[1]) == exact[next(reversed(want[0]))]
    else:
        assert depth == exact


def test_hub_expansion_keeps_shortest_depths():
    """``bfs``, which expands each hub through its repair list, against the
    generator that expanded every hub and the closure test of every state
    (``check_search``), under the table and under the removal test, and at
    guards 3 and 40 a trip exactly when the unguarded search stored more
    states, else the same parent map in the same order.  Under both tests
    ``repairs`` returns None exactly for a hub that is a target set, and
    otherwise exactly the ascending (vertex, bit) pairs of the removed
    vertex's component, outside the hub, whose addition makes it one."""
    trips = 0
    failing = {"table": 0, "still_target": 0}
    for g, x, y in _searches(4096, 240):
        is_ts = functools.cache(lambda m: mask_is_target_set(g, m))
        near = _near(g)
        for tests in (0, DEFAULT_GUARD):  # removal test, then the table where it fits
            _, _, start, goal, repairs = _check_pair(g, x, y, tests)
            side = "still_target" if "covered" in inspect.getclosurevars(repairs).nonlocals else "table"

            def checked(hub, out, stored):
                fixes = repairs(hub, out, stored)
                assert (fixes is None) == is_ts(hub), (g, hub, out)
                if fixes is not None:
                    near_out = near[out] & ~hub
                    want = [(v, 1 << v) for v in g.vertices if near_out >> v & 1 and is_ts(hub | 1 << v)]
                    assert fixes == want, (g, hub, out)
                    failing[side] += 1
                return fixes

            want = reference_bfs([start], lambda m: m & goal == goal, reference_tj_moves(g.vertices), is_ts, 10**9)
            full = bfs((start,), goal, g.n, checked, 10**9)
            check_search(*full, want, goal)
            for guard in (3, 40):
                got = outcome(lambda: bfs((start,), goal, g.n, checked, guard))
                if len(full[0]) > guard:
                    trips += 1
                    assert got == "guard", (g, x, y, guard)
                else:
                    assert list(got[0].items()) == list(full[0].items()) and got[1] == full[1], (g, x, y, guard)
    assert trips >= 100 and min(failing.values()) >= 100, (trips, failing)


def test_hub_is_expanded_again_from_a_shallower_state():
    """A hub first expanded from a state at depth d is expanded again from one
    at a smaller depth, and a state reached at a smaller depth is queued
    again; both keep the route shortest, on families closed under supersets
    too.  Three cases, each a search that leaves out either step returns one
    jump more:

    * a family of 3-subsets of 1..6 that is not closed under supersets,
      searched through a ``repairs`` that lists the members above each hub:
      from {2, 4, 5} to {1, 2, 6} the shortest route has 4 jumps (through
      {3, 4, 5}, {3, 4, 6} and {2, 3, 6}), re-expanding the hub {3, 4};
    * the hitting sets of {1,2}, {1,6}, {1,7}, {2,8}, {6,8}, {7,8} on 1..10,
      the sets that contain {1, 8} or {2, 6, 7}, through ``_hs_repairs``:
      from {1, 3, 8, 9} to {2, 6, 7, 10} in 4 jumps, re-expanding the hub
      {1, 7, 8}, a hitting set;
    * a k-TAR-style search among the sets on 1..7 that contain {1, 3, 4} or
      {2, 7}, the hitting sets of {1,2}, {2,3}, {2,4}, {1,7}, {3,7}, {4,7}:
      from the four 4-sets above {2, 6, 7} to {1, 3, 4, 5} in 3 jumps,
      re-expanding the hub {2, 4, 7}, a hitting set.

    ``bfs`` keeps no answer, so in each case ``repairs`` is asked about the
    re-expanded hub twice, whether or not the hub is in the family.  Then
    the same on 200 seeded families of k-subsets that are not closed under
    supersets."""
    asked = []

    def members(hub, out, stored, family, n):
        return [(v, 1 << v) for v in range(1, n + 1) if not hub >> v & 1 and hub | 1 << v in family]

    def recorded(lists):
        def call(hub, out, stored):
            asked.append(hub)
            return lists(hub, out, stored)

        return call

    def mask(vs):
        return sum(1 << v for v in vs)

    def hitting(sets):
        family = [mask(f) for f in sets]
        return (lambda m: all(m & f for f in family)), functools.partial(_hs_repairs, family)

    subsets = {26, 42, 50, 52, 56, 70, 76, 88}
    cases = [
        (6, (subsets.__contains__, functools.partial(members, family=subsets, n=6)), [{2, 4, 5}], {1, 2, 6}, 4, {3, 4}),
        (10, hitting([(1, 2), (1, 6), (1, 7), (2, 8), (6, 8), (7, 8)]), [{1, 3, 8, 9}], {2, 6, 7, 10}, 4, {1, 7, 8}),
        (7, hitting([(1, 2), (2, 3), (2, 4), (1, 7), (3, 7), (4, 7)]), [{2, 6, 7, v} for v in (1, 3, 4, 5)], {1, 3, 4, 5}, 3, {2, 4, 7}),
    ]
    for n, (ok, lists), starts, goal, jumps, hub in cases:
        asked.clear()
        starts, goal = [mask(s) for s in starts], mask(goal)
        parents, found = bfs(starts, goal, n, recorded(lists), DEFAULT_GUARD)
        want = reference_bfs(starts, goal.__eq__, reference_tj_moves(range(1, n + 1)), ok, DEFAULT_GUARD)
        check_search(parents, found, want, goal)
        assert parents[goal][3] == jumps, (n, goal)
        assert asked.count(mask(hub)) == 2, (n, sorted(hub))

    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(5, 7)
        k = rng.randint(2, n - 2)
        sets = [sum(1 << v for v in c) for c in itertools.combinations(range(1, n + 1), k)]
        family = set(rng.sample(sets, rng.randint(2, len(sets))))
        start, goal = rng.sample(sorted(family), 2)
        lists = functools.partial(members, family=family, n=n)
        want = reference_bfs([start], goal.__eq__, reference_tj_moves(range(1, n + 1)), family.__contains__, DEFAULT_GUARD)
        check_search(*bfs((start,), goal, n, lists, DEFAULT_GUARD), want, goal)


def _minimal_target_set(g, rng):
    """A target set of g that drops no vertex, found by dropping vertices in
    random order while the rest stays a target set."""
    m = seed_mask(g, g.vertices)
    for v in rng.sample(g.vertices, g.n):
        if mask_is_target_set(g, m ^ 1 << v):
            m ^= 1 << v
    return m


def test_removal_test_asks_each_restriction_once(monkeypatch):
    """Within one removal-test search (``tests`` = 0), ``still_target`` sees
    each restriction ``m & near[out]`` at most once and never a state already
    in the parent map: on seeded connected graphs with n = 18-20, between two
    minimal target sets padded to one size, and on the same graphs beside a
    threshold-1 P2 with one token on it."""
    real = oracle.still_target
    seen, parents, hubs = set(), [{}], [0]
    near = {}

    def counted(g, active, out):
        # a tested state differs from the hub only inside out's component
        key = seed_mask(g, active)
        m = hubs[0] & ~near[out] | key
        assert key == m & near[out] and key not in seen and m not in parents[0], (g, m, out)
        seen.add(key)
        return real(g, active, out)

    monkeypatch.setattr(oracle, "still_target", counted)
    rng = random.Random(1913)
    tested = 0
    for _ in range(4):
        g = random_connected(rng, rng.randint(18, 20), 0.25)
        xm, ym = _minimal_target_set(g, rng), _minimal_target_set(g, rng)
        while xm.bit_count() != ym.bit_count():
            small = min(xm, ym, key=int.bit_count)
            pad = rng.choice([v for v in g.vertices if not small >> v & 1])
            xm, ym = (m | 1 << pad if m is small else m for m in (xm, ym))
        x, y = (frozenset(v for v in g.vertices if m >> v & 1) for m in (xm, ym))
        for h, hx, hy in ((g, x, y), (disjoint_union(g, path_with_spacing(0, [2]))[0], x | {g.n + 1}, y | {g.n + 2})):
            near.clear()
            near.update(_near(h))
            seen.clear()
            _, _, start, goal, repairs = _check_pair(h, hx, hy, 0)

            def tracked(hub, out, stored):
                parents[0], hubs[0] = stored, hub
                return repairs(hub, out, stored)

            outcome(lambda: bfs((start,), goal, h.n, tracked, 400))
            tested += len(seen)
    assert tested >= 200, tested
