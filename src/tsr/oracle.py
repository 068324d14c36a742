"""Exhaustive ground truth for small instances.

Two cores.  ``_full_rows`` is the one batch closure, in float32 matmul
rounds that run in BLAS and are exact (every count is a small integer).  It
takes seed rows one ``_BLOCK`` at a time, so no caller holds a whole seed
matrix: ``enumerate_target_sets`` feeds it the C(n, k) combinations, and
``_table`` all 2^n sets into one byte per set, which
``all_target_set_masks`` and ``target_sets_by_size`` read.
``tj_components`` unions the size-k target sets that share a (k-1)-subset.
``bfs`` is the one breadth-first search over int masks: TJ moves
(``tj_decide`` and ``reductions.hs_tj_decide``) or k-TAR moves
(``ktar_decide``), from which shortest sequences are rebuilt.  Pair queries
test only jumps and removals, each state at most once.  When 2^n is within
the guard and at most ``_ROWS_PER_TEST`` (16, the measured cost of a
removal test in table rows) times the states the search could test, the
test reads the exact table, built at the first test and kept on the graph
object.  Otherwise it is the local removal test ``activation.still_target``,
memoized per component: activation never crosses one, so the answer is exact
under the set's restriction to the removed vertex's component (connected
graphs bypass the memo).  Everything here is desk-scale: enumeration checks
its cap and guard before it allocates anything, and state exploration aborts
once it exceeds a configurable guard.

numpy, the package's one dependency, is imported here alone, and only
inside the functions that run the batch closure or read its table, so
``import tsr``, the solvers, ``activate`` and the pair queries that never
build the table run without it.  Its import costs about 80 ms and 13 MB
(numpy 2.4, Python 3.11, 2-core VM), which a cold ``tsr solve-min`` would
otherwise spend mostly on loading a module it never calls.  The first
exhaustive call in a process pays it.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections import deque
from math import comb
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from .activation import closure_mask, seed_mask, still_target
from .errors import InstanceTooLarge, InvariantViolated, NotATargetSet, SizeMismatch
from .graph import ThresholdGraph
from .reconfig import TAR, TJ, ReconfigSequence, Step

if TYPE_CHECKING:
    import numpy as np

DEFAULT_GUARD = 5_000_000
DEFAULT_CAP = 20
_BLOCK = 4096  # seed rows per batch-closure block: 16 KB of float32 per vertex

Moves = Callable[[int], Iterable[tuple[int, int, int]]]


@dataclasses.dataclass(frozen=True)
class OracleReport:
    """Result of an exhaustive query.

    ``num_target_sets`` and ``components`` are filled only by full-enumeration
    queries; pair queries explore lazily and leave them None.
    """

    k: int
    num_target_sets: int | None = None
    components: tuple[tuple[frozenset[int], ...], ...] | None = None
    reconfigurable: bool | None = None
    shortest: ReconfigSequence | None = None
    explored: int = 0


def enumerate_target_sets(
    g: ThresholdGraph,
    k: int,
    *,
    guard: int = DEFAULT_GUARD,
    cap: int = DEFAULT_CAP,
) -> list[frozenset[int]]:
    """All size-k target sets in lexicographic order of their sorted id lists.

    The combinations reach ``_full_rows`` one ``_BLOCK`` at a time, so beside
    the result only one block of seed rows exists.
    """
    if not 0 <= k <= g.n:
        raise SizeMismatch(f"k={k} not in 0..{g.n}")
    if g.n > cap:
        raise InstanceTooLarge(f"n={g.n} exceeds the enumeration cap of {cap}")
    rows = comb(g.n, k)
    if rows > guard:
        raise InstanceTooLarge(f"C({g.n},{k}) exceeds the enumeration guard")
    import numpy as np

    flat = itertools.chain.from_iterable(itertools.combinations(g.vertices, k))

    def blocks():
        for lo in range(0, rows, _BLOCK):
            r = min(_BLOCK, rows - lo)
            combos = np.fromiter(flat, dtype=np.intp, count=r * k).reshape(r, k)
            seeds = np.zeros((r, g.n), dtype=bool)
            np.put_along_axis(seeds, combos - 1, True, axis=1)
            yield seeds

    full = itertools.chain.from_iterable(map(np.ndarray.tolist, _full_rows(g, blocks())))
    return list(map(frozenset, itertools.compress(itertools.combinations(g.vertices, k), full)))


def min_target_set_size(
    g: ThresholdGraph, *, guard: int = DEFAULT_GUARD, cap: int = DEFAULT_CAP
) -> int:
    """Smallest k for which a size-k target set exists."""
    if g.n == 0:
        return 0
    for k in range(0, g.n + 1):
        if enumerate_target_sets(g, k, guard=guard, cap=cap):
            return k
    raise InvariantViolated("V itself is always a target set")


def _full_rows(g: ThresholdGraph, blocks: Iterable[np.ndarray]) -> Iterator[np.ndarray]:
    """For each (rows x n) bool seed block, which of its rows activate every vertex.

    The one batch closure; column j is vertex j + 1.  Each round counts the
    active neighbours of every row with one float32 matmul against the dense
    adjacency, in BLAS.  The counts are integers of at most the maximum
    degree, far below 2^24, so float32 holds them exactly.  Callers pass
    blocks of at most ``_BLOCK`` rows, which bounds the working copy.
    """
    import numpy as np

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


def _table(g: ThresholdGraph) -> bytearray:
    """2^n bytes: byte i is 1 when the set with dense mask i (bit j is vertex
    j + 1) is a target set, else 0.  Built once per graph object and kept in
    its ``__dict__``, as the solver plans are, so a ``dataclasses.replace``
    copy starts without one.

    Seed row i is the binary expansion of i, unpacked from its little-endian
    bytes one ``_BLOCK`` at a time, so beside the table only one block of
    seed rows exists.
    """
    if "_table" in g.__dict__:
        return g.__dict__["_table"]
    import numpy as np

    size = 1 << g.n
    starts = range(0, size, _BLOCK)
    rows = (np.arange(lo, min(lo + _BLOCK, size), dtype="<u8") for lo in starts)
    blocks = (
        np.unpackbits(r.view(np.uint8).reshape(-1, 8), axis=1, count=g.n, bitorder="little").view(bool)
        for r in rows
    )
    table = bytearray(size)
    view = np.frombuffer(table, dtype=bool)
    for lo, full in zip(starts, _full_rows(g, blocks)):
        view[lo : lo + _BLOCK] = full
    return g.__dict__.setdefault("_table", table)


def _dense_target_sets(g: ThresholdGraph, guard: int) -> np.ndarray:
    """Dense masks (bit j is vertex j + 1) of every target set, ascending."""
    if (1 << g.n) > guard:
        raise InstanceTooLarge(f"2^{g.n} exceeds the enumeration guard")
    import numpy as np

    return np.flatnonzero(_table(g))


def all_target_set_masks(g: ThresholdGraph, *, guard: int = DEFAULT_GUARD) -> list[int]:
    """Bitmasks of every target set of g, ascending: the nonzero bytes of ``_table``."""
    # package masks use bit v for vertex v, so shift the dense mask up by one
    return (_dense_target_sets(g, guard) << 1).tolist()


def target_sets_by_size(
    g: ThresholdGraph, *, guard: int = DEFAULT_GUARD
) -> dict[int, list[int]]:
    """Target-set masks grouped by size, each list sorted by mask value.

    Sizes come in the order of their least mask.
    """
    import numpy as np

    dense = _dense_target_sets(g, guard)
    sizes = np.bitwise_count(dense)
    return {k: (dense[sizes == k] << 1).tolist() for k in dict.fromkeys(sizes.tolist())}


# A removal test costs at least sixteen table rows.  On the oracle-search
# benchmark's pair queries (seed 555, n = 12-13, k = 4-6; 2-core VM, Python
# 3.11, numpy 2.4) ``still_target`` took 3.9-12.2 us a call and ``_table``
# 0.26-0.47 us a row, ratios of 14 to 38.  So building the table costs at
# most about what the search's worst case would spend on tests.
_ROWS_PER_TEST = 16


def _check_pair(g: ThresholdGraph, x, y, tests: int = 0, guard: int = DEFAULT_GUARD):
    """Validated endpoints as sets and masks, plus the removal test for ``bfs``.

    ``tests`` is the most states the search can test (``bfs`` tests each at
    most once); on a disconnected graph the memo below also caps the tests at
    |C| 2^|C| per component C.  When 2^n is at most ``guard`` and at most
    ``_ROWS_PER_TEST`` times that cap, ``ok(nxt, out)`` reads ``_table(g)``,
    built (once per graph object) at the first test.  That is exact: ``nxt``
    plus ``out`` contains the target set it was reached from, so the closure
    of ``nxt`` reaches ``out`` exactly when ``nxt`` is a target set.
    Otherwise ``ok(nxt, out)`` is ``still_target(g, nxt, out)`` memoized under
    ``(nxt & comp[out], out)``, ``comp[out]`` being the mask of out's
    component: the closure inside it depends only on that restriction.  On a
    connected graph the key would be ``nxt``, which ``bfs`` never tests twice,
    so the memo is bypassed and stores nothing.
    """
    xs, ys = frozenset(x), frozenset(y)
    start, goal = seed_mask(g, xs), seed_mask(g, ys)
    for s, m in ((xs, start), (ys, goal)):
        if closure_mask(g, m) != g.full_mask:
            raise NotATargetSet(f"{sorted(s)} is not a target set")
    comps = g.components()
    # the memo below tests each (restriction, out) pair at most once
    tests = min(tests, sum(len(vs) << len(vs) for vs in comps))
    if (1 << g.n) <= min(guard, _ROWS_PER_TEST * tests):
        table = None

        def lookup(nxt: int, out: int) -> bool:
            nonlocal table
            if table is None:
                table = _table(g)
            return table[nxt >> 1]

        return xs, ys, start, goal, lookup
    comp: dict[int, int] = {}
    for vs in comps:
        comp.update(dict.fromkeys(vs, seed_mask(g, vs)))
    memo: dict[tuple[int, int], bool] = {}

    def ok(nxt: int, out: int) -> bool:
        if comp[out] == g.full_mask:
            return still_target(g, nxt, out)
        key = (nxt & comp[out], out)
        if key not in memo:
            memo[key] = still_target(g, nxt, out)
        return memo[key]

    return xs, ys, start, goal, ok


def tj_moves(universe: Sequence[int]) -> Moves:
    """Single jumps: ascending removed element, then ascending added element."""
    bits = [(v, 1 << v) for v in universe]

    def moves(cur: int):
        absent = [(v, b) for v, b in bits if not cur & b]
        for out, b in bits:
            if cur & b:
                base = cur ^ b
                for into, c in absent:
                    yield base | c, out, into

    return moves


def ktar_moves(universe: Sequence[int], k: int) -> Moves:
    """Single additions (while the set has at most k elements), then removals."""
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


def bfs(
    start: int,
    goal: int,
    moves: Moves,
    ok: Callable[[int, int], bool],
    guard: int,
) -> tuple[dict[int, tuple[int, int, int] | None], bool]:
    """Parent map of the states reached from ``start``, and whether ``goal`` was.

    ``moves(cur)`` yields ``(next, out, into)``, 0 meaning none: a jump, an
    addition ``(0, into)`` or a removal ``(out, 0)``.  Additions are never
    tested: a superset of a target set is one.  A jump or removal is tested
    by ``ok(next, out)``, which for target sets need only ask whether the
    closure of ``next`` reaches ``out``; a rejected state is not tested
    again, so every state is tested at most once.  Pair queries answer from
    the exact target-set table when it is cheap next to the search, else by
    ``activation.still_target`` memoized per component of ``out`` (see
    ``_check_pair``).  Raises InstanceTooLarge after ``guard`` popped states.
    """
    parents: dict[int, tuple[int, int, int] | None] = {start: None}
    if start == goal:
        return parents, True
    rejected: set[int] = set()
    queue = deque([start])
    explored = 0
    while queue:
        cur = queue.popleft()
        explored += 1
        if explored > guard:
            raise InstanceTooLarge(f"BFS exceeded guard of {guard} states")
        for nxt, out, into in moves(cur):
            if nxt in parents or nxt in rejected:
                continue
            if out and not ok(nxt, out):
                rejected.add(nxt)
                continue
            parents[nxt] = (cur, out, into)
            if nxt == goal:
                return parents, True
            queue.append(nxt)
    return parents, False


def _steps_to(parents: dict[int, tuple[int, int, int] | None], goal: int) -> tuple[Step, ...]:
    steps = []
    node = goal
    while parents[node] is not None:
        node, out, into = parents[node]
        steps.append(
            Step.jump(out, into) if out and into else Step.add(into) if into else Step.remove(out)
        )
    return tuple(reversed(steps))


def tj_decide(
    g: ThresholdGraph,
    x,
    y,
    *,
    guard: int = DEFAULT_GUARD,
) -> OracleReport:
    """BFS over size-k target sets under single jumps; shortest sequence if connected.

    Explores only the component of x, so the guard bounds visited states, not
    the full C(n,k) space.  Neighbor order is lexicographic (ascending removed
    vertex, then ascending added vertex) for reproducible shortest sequences.
    """
    xs = frozenset(x)
    xs, ys, start, goal, ok = _check_pair(g, xs, y, comb(g.n, len(xs)), guard)
    if len(xs) != len(ys):
        raise SizeMismatch(f"|x|={len(xs)} != |y|={len(ys)}")
    parents, found = bfs(start, goal, tj_moves(g.vertices), ok, guard)
    seq = ReconfigSequence(xs, _steps_to(parents, goal), TJ) if found else None
    return OracleReport(k=len(xs), reconfigurable=found, shortest=seq, explored=len(parents))


def ktar_decide(
    g: ThresholdGraph,
    x,
    y,
    k: int,
    *,
    guard: int = DEFAULT_GUARD,
) -> OracleReport:
    """BFS over target sets of size at most k+1 under single additions/removals."""
    tests = sum(comb(g.n, i) for i in range(min(k, g.n) + 1))  # removals leave at most k
    xs, ys, start, goal, ok = _check_pair(g, x, y, tests, guard)
    if len(xs) > k or len(ys) > k:
        raise SizeMismatch(f"endpoint sizes {len(xs)}, {len(ys)} exceed k={k}")
    parents, found = bfs(start, goal, ktar_moves(g.vertices, k), ok, guard)
    seq = ReconfigSequence(xs, _steps_to(parents, goal), TAR, k=k) if found else None
    return OracleReport(k=k, reconfigurable=found, shortest=seq, explored=len(parents))


def tj_components(
    g: ThresholdGraph,
    k: int,
    *,
    guard: int = DEFAULT_GUARD,
    cap: int = DEFAULT_CAP,
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
    return OracleReport(
        k=k,
        num_target_sets=len(sets),
        components=comps,
        explored=len(sets),
    )
