"""Exhaustive ground truth for small instances.

Two cores.  ``_full_rows`` is the one batch closure, bit-sliced over Python
ints (a bit per seed row, so one bitwise operation advances every row) and
exact.  ``enumerate_target_sets`` seeds it with the C(n, k) combinations,
and ``_table`` with all 2^n sets, packed one bit per set for
``all_target_set_masks``, ``target_sets_by_size`` and the pair queries.
``tj_components`` unions the size-k target sets that share a (k-1)-subset.
``bfs`` is the one search over int masks under single jumps, best-first on
depth plus the goal vertices a state misses, from a set of starts to the
first state that contains the goal: it serves ``tj_decide``,
``reductions.hs_tj_decide`` and ``ktar_decide``, which pads the endpoints up
to each size j it searches, since target sets are closed under supersets;
shortest sequences are rebuilt from its parent map.  The searches expand
each hub through the list of jumps that repair it: none for a hub that is a
target set, whose every jump passes untested, and else the vertices of the
removed vertex's component whose addition makes it one.  The lists read the
table when it is cheap next to the searches (see ``_check_pair``), else run
the local removal test ``activation.still_target`` at most once a query
per restriction to a component, and never on a stored state, and keep
each hub's list by its restriction, on every graph alike.  States are
int masks, bit v for vertex v, that no other module reads: the removal
test gets a state's vertices in the removed vertex's component as a set.
Everything here is desk-scale: enumeration checks its cap and guard before
it allocates anything, and a pair query aborts once the states it stored,
summed over sizes j for k-TAR and starts included, exceed a configurable
guard, so the guard bounds its memory.
"""

from __future__ import annotations

import dataclasses
import itertools
from math import comb
from typing import Callable, Iterable, Iterator

from .activation import is_target_set, still_target
from .errors import InstanceTooLarge, InvariantViolated, NotATargetSet, SizeMismatch
from .graph import ThresholdGraph
from .reconfig import TAR, TJ, ReconfigSequence, Step, tj_to_tar

DEFAULT_GUARD = 5_000_000
DEFAULT_CAP = 20


def seed_mask(g: ThresholdGraph, seed: Iterable[int]) -> int:
    """The search's state for the checked vertex set ``seed``: bit v for vertex v."""
    return sum(1 << v for v in g.check_seed(seed))


@dataclasses.dataclass(frozen=True)
class OracleReport:
    """Result of an exhaustive query.

    ``num_target_sets`` and ``components`` are filled only by full-enumeration
    queries; pair queries explore lazily and leave them None.  ``explored``
    counts the target sets enumerated, or the states a pair query's
    searches stored, summed over sizes j for k-TAR, starts included; a pair
    query trips its guard exactly when it would report more than the guard.
    """

    k: int
    num_target_sets: int | None = None
    components: tuple[tuple[frozenset[int], ...], ...] | None = None
    reconfigurable: bool | None = None
    shortest: ReconfigSequence | None = None
    explored: int = 0


def enumerate_target_sets(
    g: ThresholdGraph, k: int, *, guard: int = DEFAULT_GUARD, cap: int = DEFAULT_CAP
) -> list[frozenset[int]]:
    """All size-k target sets in lexicographic order of their sorted id lists.

    Seed row r is the r-th combination.  Those of vertices i.. are the ones
    with i (i plus m - 1 of i+1..), then the ones without (m of i+1..), so
    ``cols[m]``, the columns of vertices i.. over their m-combinations, grows
    from the last vertex to the first by one shift and or per column.
    """
    if not 0 <= k <= g.n:
        raise SizeMismatch(f"k={k} not in 0..{g.n}")
    if g.n > cap:
        raise InstanceTooLarge(f"n={g.n} exceeds the enumeration cap of {cap}")
    rows = comb(g.n, k)
    if rows > guard:
        raise InstanceTooLarge(f"C({g.n},{k}) exceeds the enumeration guard")
    cols: list[list[int]] = [[] for _ in range(k + 1)]
    for i in range(g.n - 1, -1, -1):
        with_i = [comb(g.n - i - 1, m - 1) for m in range(1, k + 1)]
        cols = [[0] * (g.n - i)] + [
            [(1 << lo) - 1] + [a | b << lo for a, b in zip(cols[m], cols[m + 1])]
            for m, lo in enumerate(with_i)
        ]
    full = _full_rows(g, [(1 << rows) - 1] + cols[k])
    keep = _bits(full.to_bytes((rows + 7) // 8, "little"))
    return list(map(frozenset, itertools.compress(itertools.combinations(g.vertices, k), keep)))


def min_target_set_size(
    g: ThresholdGraph, *, guard: int = DEFAULT_GUARD, cap: int = DEFAULT_CAP
) -> int:
    """Smallest k for which a size-k target set exists."""
    for k in range(0, g.n + 1):
        if enumerate_target_sets(g, k, guard=guard, cap=cap):
            return k
    raise InvariantViolated("V itself is always a target set")


def _full_rows(g: ThresholdGraph, cols: list[int]) -> int:
    """Bit r is set when seed row r activates every vertex.

    Bit-sliced: ``cols[v]`` has bit r set when row r seeds v, and ``cols[0]``
    is every row.  Each sweep recounts the vertices with a changed neighbour:
    after j of v's neighbours, ``c[j]`` holds the rows with at least j of them
    active, and ``c[tau(v)]`` joins v's column.  Activation is monotone, so
    sweeping in place until nothing changes reaches the fixpoint of the
    activation process, exactly.
    """
    cols = list(cols)
    every = cols[0]
    dirty = [False] + [True] * g.n
    while any(dirty):
        for v in g.vertices:
            if not dirty[v]:
                continue
            dirty[v] = False
            t = g.tau[v]
            c = [every] + [0] * t
            for i, u in enumerate(g.adj[v], 1):
                a = cols[u]
                for j in range(min(i, t), 0, -1):
                    c[j] |= c[j - 1] & a
            new = cols[v] | c[t]
            if new != cols[v]:
                cols[v] = new
                for u in g.adj[v]:
                    dirty[u] = True
    for a in cols:
        every &= a
    return every


def _table(g: ThresholdGraph) -> bytes:
    """2^n bits, little-endian: bit i is set when the set with dense mask i
    (bit j is vertex j + 1) is a target set.  Built once per graph object and
    kept in its ``__dict__``, so a ``dataclasses.replace`` copy starts without
    one.  Seed row i is i in binary: vertex j + 1's column repeats 2^j zeros
    then 2^j ones, built by doubling.
    """
    if "_table" in g.__dict__:
        return g.__dict__["_table"]
    size = 1 << g.n
    cols = [(1 << size) - 1]
    for j in range(g.n):
        col, period = ((1 << (1 << j)) - 1) << (1 << j), 2 << j
        while period < size:
            col |= col << period
            period <<= 1
        cols.append(col)
    table = _full_rows(g, cols).to_bytes((size + 7) // 8, "little")
    return g.__dict__.setdefault("_table", table)


_BYTE_BITS = tuple(tuple(b >> p & 1 for p in range(8)) for b in range(256))


def _bits(data: bytes) -> Iterator[int]:
    """The bits of ``data``, little-endian: one per seed row."""
    return itertools.chain.from_iterable(map(_BYTE_BITS.__getitem__, data))


def all_target_set_masks(g: ThresholdGraph, *, guard: int = DEFAULT_GUARD) -> list[int]:
    """Bitmasks of every target set of g, ascending: the set bits of ``_table``."""
    if (1 << g.n) > guard:
        raise InstanceTooLarge(f"2^{g.n} exceeds the enumeration guard")
    # package masks use bit v for vertex v, so dense mask i is i << 1
    return list(itertools.compress(range(0, 2 << g.n, 2), _bits(_table(g))))


def target_sets_by_size(
    g: ThresholdGraph, *, guard: int = DEFAULT_GUARD
) -> dict[int, list[int]]:
    """Target-set masks grouped by size, each list sorted by mask value.

    Sizes come in the order of their least mask.
    """
    by_size: dict[int, list[int]] = {}
    for m in all_target_set_masks(g, guard=guard):
        by_size.setdefault(m.bit_count(), []).append(m)
    return by_size


# A removal test costs about 64 table rows: on the oracle-search benchmark's
# graphs whose pair queries run it (seeds 555 and 90210, n = 12-13, k = 3-6;
# 2-core VM, Python 3.11) ``still_target`` took a mean 0.3-5.6 us a call and
# ``_table`` 0.010-0.10 us a row, ratios of 16 to 117 with medians of 51 and
# 61.  So the table costs at most about what the search's worst case would
# spend on tests.  At 32, every query of that benchmark takes the same path.
_ROWS_PER_TEST = 64


def _check_pair(g: ThresholdGraph, x, y, tests: int = 0, guard: int = DEFAULT_GUARD):
    """Validated endpoints as sets and masks, plus ``repairs(hub, out,
    stored)`` for ``bfs``.

    ``hub`` plus ``out`` is a target set, so ``hub`` is one exactly when its
    closure reaches ``out``, that is, as activation never crosses a
    component, when its restriction to out's component C is a target set of
    C.  ``repairs`` returns None if it is, else the ascending (into, bit)
    pairs of the vertices of C outside ``hub`` whose addition makes it one.
    ``tests`` is the most states the searches can test at their sizes
    (a search tests each at most once; the hubs, a size below, are not
    counted), capped at |C| 2^|C| per component C, a bound on the memo
    below.  When 2^n is at most ``guard`` and at most ``_ROWS_PER_TEST``
    times that cap, ``repairs`` reads ``_table(g)``, built (once per graph
    object) at the first call.  Otherwise it runs the removal test
    ``still_target`` on m's vertices in C, memoized in ``covers`` under ``m
    & near[out]``: the restriction names C unless it is empty, and an empty
    one is never a target set, as every threshold is at least 1.  A state in
    ``stored``, the search's parent map, passes untested.  An answer depends
    on the restriction alone, so on every graph ``covers`` keeps each test's
    and ``lists`` each hub's, under its restriction and C.
    """
    xs, ys = frozenset(x), frozenset(y)
    start, goal = seed_mask(g, xs), seed_mask(g, ys)
    for s in (xs, ys):
        if not is_target_set(g, s):
            raise NotATargetSet(f"{sorted(s)} is not a target set")
    comps = g.components()
    near = [0] * (g.n + 1)
    members: list[list[tuple[int, int]]] = [[]] * (g.n + 1)
    for vs in comps:
        mask, pairs = seed_mask(g, vs), [(v, 1 << v) for v in vs]
        for v in vs:
            near[v], members[v] = mask, pairs
    tests = min(tests, sum(len(vs) << len(vs) for vs in comps))
    if (1 << g.n) <= min(guard, _ROWS_PER_TEST * tests):
        table = b""

        def lookup(hub: int, out: int, stored) -> list[tuple[int, int]] | None:
            nonlocal table
            table = table or _table(g)
            i = hub >> 1
            if table[i >> 3] >> (i & 7) & 1:
                return None
            return [p for p in members[out] if table[(j := i | p[1] >> 1) >> 3] >> (j & 7) & 1]

        return xs, ys, start, goal, lookup
    covers: dict[int, bool] = {}
    lists: dict[tuple[int, int], list[tuple[int, int]] | None] = {}

    def covered(m: int, out: int) -> bool:
        if (hit := covers.get(key := m & near[out])) is None:
            hit = covers[key] = still_target(g, {v for v, c in members[out] if m & c}, out)
        return hit

    def repairs(hub: int, out: int, stored) -> list[tuple[int, int]] | None:
        if (key := (hub & near[out], near[out])) not in lists:
            lists[key] = None if covered(hub, out) else [
                (v, c) for v, c in members[out] if not hub & c and ((m := hub | c) in stored or covered(m, out))
            ]
        return lists[key]

    return xs, ys, start, goal, repairs


def bfs(
    starts: Iterable[int],
    goal: int,
    n: int,
    repairs: Callable[[int, int, dict], list[tuple[int, int]] | None],
    guard: int,
    stored: int = 0,
):
    """Parent map of the states reached from ``starts`` by single jumps among
    the ids 1..``n``, and whether one contains ``goal`` (the search ends
    there; at the goal's size it is the goal).  A start maps to None, any
    other state to (parent, out, into, depth).

    Best-first (A*): a state s waits in the bucket of f = depth + |goal - s|,
    the goal vertices it misses, and the most recently queued state of the
    lowest bucket pops first.  A jump changes the missing count by at most
    one, so the estimate is consistent: no bucket below the current one
    fills again, and a route to the first state containing the goal is
    shortest, as it is stored from a state popped with f at most the optimum
    and missing at least one goal vertex.  A state reached at a smaller depth
    takes the new parent and is queued again.

    Jumps from ``cur`` go by ascending removed element ``out``, then ascending
    added element.  Each goes through a hub, ``cur`` minus ``out``, to a set
    above it, the same from every state that contains the hub, so a search
    expands a hub from the first state popped that contains it, and again
    only from one of strictly smaller depth; ``hubs`` keeps that depth only,
    and each expansion asks ``repairs(hub, out, parents)`` which jumps pass
    (see ``_check_pair``, which memoizes the answer).  None means the hub is
    a target set: target sets are closed under supersets, so every set above
    it passes untested, and the absent vertices of ``cur`` are listed then,
    once a pop.  Otherwise only the listed (into, bit) pairs pass, each a
    vertex of out's component, the only ones that can repair the hub.  Both
    re-expansion and re-queueing are needed on families closed under supersets
    too: among the hitting sets of {1,2}, {1,6}, {1,7}, {2,8}, {6,8}, {7,8},
    {1,3,8,9} is 4 jumps from {2,6,7,10}, and 5 without either step.

    Raises InstanceTooLarge once ``stored``, the states of earlier searches,
    plus the states this search stored exceed ``guard``.  Starts and the
    state that contains the goal are charged as they are stored, so a search
    trips exactly when it would end with more than ``guard`` - ``stored``
    states, and keeps at most that many plus one.  The hubs, at most k a
    state, are the rest of what it holds.
    """
    limit = guard - stored
    parents: dict[int, tuple[int, int, int, int] | None] = {}
    buckets: list[list[int]] = [[], [], []]
    for s in starts:
        parents[s] = None
        if len(parents) > limit:
            raise InstanceTooLarge(f"search exceeded guard of {guard} states")
        if s & goal == goal:
            return parents, True
        f = (goal & ~s).bit_count()
        buckets += [[] for _ in range(f + 3 - len(buckets))]
        buckets[f].append(s)
    bits = [(v, 1 << v) for v in range(1, n + 1)]
    hubs: dict[int, int] = {}  # the depth each hub was last expanded from
    f = 0
    while f < len(buckets):
        if stack := buckets[f]:
            buckets += [[] for _ in range(f + 3 - len(buckets))]
        while stack:
            cur = stack.pop()
            p = parents[cur]
            depth = p[3] if p else 0
            if depth + (goal & ~cur).bit_count() != f:
                continue  # queued again at a smaller depth, and expanded there
            next_depth, absent, rest = depth + 1, None, cur
            while rest:
                b = rest & -rest
                rest ^= b
                if hubs.get(hub := cur ^ b, next_depth) <= depth:
                    continue
                hubs[hub] = depth
                out = b.bit_length() - 1
                if (fixes := repairs(hub, out, parents)) is None:
                    fixes = absent = absent or [(v, c) for v, c in bits if not cur & c]
                f_hub = f + 1 + (goal & b > 0)  # f of a state above the hub adding no goal vertex
                for into, c in fixes:
                    if (nxt := hub | c) in parents:
                        old = parents[nxt]
                        if old is None or old[3] <= next_depth:
                            continue
                        parents[nxt] = (cur, out, into, next_depth)
                    else:
                        parents[nxt] = (cur, out, into, next_depth)
                        if len(parents) > limit:
                            raise InstanceTooLarge(f"search exceeded guard of {guard} states")
                        if nxt & goal == goal:
                            return parents, True
                    buckets[f_hub - (goal & c > 0)].append(nxt)
        f += 1
    return parents, False


def _steps_to(parents: dict[int, tuple[int, int, int, int] | None], node: int) -> tuple[int, tuple[Step, ...]]:
    """The start ``node`` was reached from, and the jumps from there."""
    steps = []
    while parents[node] is not None:
        node, out, into, _ = parents[node]
        steps.append(Step.jump(out, into))
    return node, tuple(reversed(steps))


def tj_decide(g: ThresholdGraph, x, y, *, guard: int = DEFAULT_GUARD) -> OracleReport:
    """Best-first search over size-k target sets under single jumps; a
    shortest sequence if connected.

    Explores only the component of x, toward y, so the guard bounds the
    states stored, not the full C(n,k) space.  The order is fixed (see
    ``bfs``), so the shortest sequence is reproducible, though not the
    lexicographically least.
    """
    xs = frozenset(x)
    xs, ys, start, goal, repairs = _check_pair(g, xs, y, comb(g.n, len(xs)), guard)
    if len(xs) != len(ys):
        raise SizeMismatch(f"|x|={len(xs)} != |y|={len(ys)}")
    parents, found = bfs((start,), goal, g.n, repairs, guard)
    seq = ReconfigSequence(xs, _steps_to(parents, goal)[1], TJ) if found else None
    return OracleReport(k=len(xs), reconfigurable=found, shortest=seq, explored=len(parents))


def ktar_decide(g: ThresholdGraph, x, y, k: int, *, guard: int = DEFAULT_GUARD) -> OracleReport:
    """Shortest route through target sets of size at most k+1 under single
    additions/removals, found by TJ searches.

    Target sets are closed under supersets, so a route can add pads to x up
    to a size j <= k, jump at size j (an addition, then a removal) to a
    superset of y and remove down to y: 2j - |x| - |y| steps plus two a
    jump.  A shortest route has this form: follow any route keeping a
    superset C of its set, adding what C lacks and, once |C| = k+1,
    removing an element the route dropped (its next step is a removal if
    none is yet), then remove C minus y.  Each C is a target set, its
    additions are the route's and its removals match distinct earlier ones
    of the route, so C's route is no longer, with j = k if |C| reaches k+1,
    else the largest |C|.  For each j from max(|x|, |y|) while 2j - |x| -
    |y| is below the best length so far, one ``bfs`` starts from every
    size-j superset of x (pads in lexicographic order) and ends at the
    first state containing y.  ``explored`` is the states stored summed over
    sizes j, each start as it is stored, and the guard bounds that sum; at
    |x| = |y| = k this is ``tj_decide``'s one search.
    """
    xs, ys = frozenset(x), frozenset(y)
    sizes = range(max(len(xs), len(ys)), min(k, g.n) + 1)
    xs, ys, start, goal, repairs = _check_pair(g, xs, ys, sum(comb(g.n, j) for j in sizes), guard)
    if len(xs) > k or len(ys) > k:
        raise SizeMismatch(f"endpoint sizes {len(xs)}, {len(ys)} exceed k={k}")
    free = [1 << v for v in g.vertices if v not in xs]
    best, explored = None, 0
    for j in sizes:
        base = 2 * j - len(xs) - len(ys)
        if best is not None and base >= len(best):
            break
        starts = (start + sum(pad) for pad in itertools.combinations(free, j - len(xs)))
        parents, found = bfs(starts, goal, g.n, repairs, guard, explored)
        explored += len(parents)
        if found:
            first, jumps = _steps_to(parents, end := next(reversed(parents)))
            if best is None or base + 2 * len(jumps) < len(best):
                pads = [v for v in g.vertices if (first ^ start) >> v & 1]
                best = [Step.add(v) for v in pads]
                best += tj_to_tar(ReconfigSequence(xs.union(pads), jumps, TJ)).steps
                best += [Step.remove(v) for v in g.vertices if (end ^ goal) >> v & 1]
    seq = None if best is None else ReconfigSequence(xs, tuple(best), TAR, k=k)
    return OracleReport(k=k, reconfigurable=seq is not None, shortest=seq, explored=explored)


def tj_components(
    g: ThresholdGraph, k: int, *, guard: int = DEFAULT_GUARD, cap: int = DEFAULT_CAP
) -> OracleReport:
    """Full partition of the size-k target sets into TJ-connected classes."""
    sets = enumerate_target_sets(g, k, guard=guard, cap=cap)
    # two size-k sets are one jump apart exactly when they share a hub, a
    # (k-1)-subset, so one union-find pass joins each set to its k hubs
    root = list(range(len(sets)))

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = i = root[root[i]]
        return i

    hubs: dict[int, int] = {}
    for i, s in enumerate(sets):
        m = sum(1 << v for v in s)
        for v in s:
            a, b = find(i), find(hubs.setdefault(m ^ 1 << v, i))
            root[max(a, b)] = min(a, b)
    # enumeration order is the sorted order, so the groups and their sets
    # come out sorted
    groups: dict[int, list[frozenset[int]]] = {}
    for i, s in enumerate(sets):
        groups.setdefault(find(i), []).append(s)
    comps = tuple(map(tuple, groups.values()))
    return OracleReport(k=k, num_target_sets=len(sets), components=comps, explored=len(sets))
