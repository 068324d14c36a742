"""Exhaustive ground truth for small instances.

Two cores.  ``_full_rows`` is the one batch closure, in float32 matmul
rounds that run in BLAS and are exact (every count is a small integer):
``enumerate_target_sets`` feeds it the C(n, k) combinations and
``all_target_set_masks`` all 2^n sets.  ``bfs`` is the one
breadth-first search over int masks: TJ moves (``tj_decide``,
``tj_components`` and ``reductions.hs_tj_decide``) or k-TAR moves
(``ktar_decide``), from which shortest sequences are rebuilt.  Pair queries
test only jumps and removals, by the local removal test
``activation.still_target``, memoized per component: activation never
crosses one, so the answer is exact under the set's restriction to the
removed vertex's component (connected graphs bypass the memo).  Everything
here is desk-scale: enumeration checks its cap and guard before it allocates
anything, and state exploration aborts once it exceeds a configurable guard.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections import deque
from math import comb
from typing import Callable, Iterable, Sequence

import numpy as np

from .activation import closure_mask, seed_mask, still_target
from .errors import InstanceTooLarge, InvariantViolated, NotATargetSet, SizeMismatch
from .graph import ThresholdGraph
from .reconfig import TAR, TJ, ReconfigSequence, Step

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
    """All size-k target sets in lexicographic order of their sorted id lists."""
    if not 0 <= k <= g.n:
        raise SizeMismatch(f"k={k} not in 0..{g.n}")
    if g.n > cap:
        raise InstanceTooLarge(f"n={g.n} exceeds the enumeration cap of {cap}")
    rows = comb(g.n, k)
    if rows > guard:
        raise InstanceTooLarge(f"C({g.n},{k}) exceeds the enumeration guard")
    flat = itertools.chain.from_iterable(itertools.combinations(g.vertices, k))
    combos = np.fromiter(flat, dtype=np.intp, count=rows * k).reshape(rows, k)
    seeds = np.zeros((rows, g.n), dtype=bool)
    np.put_along_axis(seeds, combos - 1, True, axis=1)
    full = _full_rows(g, seeds)
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


def _full_rows(g: ThresholdGraph, seeds: np.ndarray) -> np.ndarray:
    """Which rows of the (rows x n) bool matrix ``seeds`` activate every vertex.

    The one batch closure; column j is vertex j + 1.  Each round counts the
    active neighbours of every row with one float32 matmul against the dense
    adjacency, in BLAS.  The counts are integers of at most the maximum
    degree, far below 2^24, so float32 holds them exactly.  Rows go in blocks
    of ``_BLOCK``, which bounds the working copy.
    """
    adj = np.zeros((g.n, g.n), dtype=np.float32)
    for u, v in g.edges:
        adj[u - 1, v - 1] = adj[v - 1, u - 1] = 1
    tau = np.array(g.tau[1:], dtype=np.float32)
    full = np.empty(len(seeds), dtype=bool)
    for lo in range(0, len(seeds), _BLOCK):
        active = seeds[lo : lo + _BLOCK].astype(np.float32)
        while True:
            new = (active @ adj >= tau) & (active == 0)
            if not new.any():
                break
            active[new] = 1
        full[lo : lo + _BLOCK] = active.all(axis=1)
    return full


def all_target_set_masks(g: ThresholdGraph, *, guard: int = DEFAULT_GUARD) -> list[int]:
    """Bitmasks of every target set of g, ascending, from ``_full_rows`` over all 2^n seeds.

    Row i of the seed matrix is the binary expansion of i, built in place by
    doubling (rows 2^j..2^(j+1)-1 are rows 0..2^j-1 plus vertex j + 1), so
    beside its 2^n x n bytes only one ``_BLOCK`` of rows is ever copied.
    """
    n = g.n
    if n == 0:
        return [0]
    if (1 << n) > guard:
        raise InstanceTooLarge(f"2^{n} exceeds the enumeration guard")
    seeds = np.zeros((1 << n, n), dtype=bool)
    for j in range(n):
        seeds[1 << j : 2 << j] = seeds[: 1 << j]
        seeds[1 << j : 2 << j, j] = True
    # package masks use bit v for vertex v, so shift the dense mask up by one
    return (np.flatnonzero(_full_rows(g, seeds)) << 1).tolist()


def target_sets_by_size(
    g: ThresholdGraph, *, guard: int = DEFAULT_GUARD
) -> dict[int, list[int]]:
    """Target-set masks grouped by size, each list sorted by mask value."""
    by_size: dict[int, list[int]] = {}
    for m in all_target_set_masks(g, guard=guard):
        by_size.setdefault(m.bit_count(), []).append(m)
    for masks in by_size.values():
        masks.sort()
    return by_size


def _check_pair(g: ThresholdGraph, x, y):
    """Validated endpoints as sets and masks, plus the removal test for ``bfs``.

    ``ok(nxt, out)`` is ``still_target(g, nxt, out)`` memoized under
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
    comp: dict[int, int] = {}
    for vs in g.components():
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
    goal: int | None,
    moves: Moves,
    ok: Callable[[int, int], bool],
    guard: int,
) -> tuple[dict[int, tuple[int, int, int] | None], bool]:
    """Parent map of the states reached from ``start``, and whether ``goal`` was.

    ``moves(cur)`` yields ``(next, out, into)``, 0 meaning none: a jump, an
    addition ``(0, into)`` or a removal ``(out, 0)``.  Additions are never
    tested: a superset of a target set is one.  A jump or removal is tested
    by ``ok(next, out)``, which for target sets need only ask whether the
    closure of ``next`` reaches ``out`` (``activation.still_target``); a
    rejected state is not tested again, and pair queries memoize the answer
    per component of ``out`` (exact, as activation never crosses one; see
    ``_check_pair``).  ``goal=None`` floods the component.  Raises
    InstanceTooLarge after ``guard`` popped states.
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
    xs, ys, start, goal, ok = _check_pair(g, x, y)
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
    xs, ys, start, goal, ok = _check_pair(g, x, y)
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
    index = {sum(1 << v for v in s): s for s in sets}
    moves = tj_moves(g.vertices)
    groups = []
    while index:
        # flood from the least unvisited set; visited classes leave the index
        parents, _ = bfs(next(iter(index)), None, moves, lambda m, _: m in index, guard)
        groups.append([index.pop(m) for m in parents])
    comps = tuple(
        tuple(sorted(grp, key=sorted)) for grp in
        sorted(groups, key=lambda grp: sorted(min(grp, key=sorted)))
    )
    return OracleReport(
        k=k,
        num_target_sets=len(sets),
        components=comps,
        explored=len(sets),
    )
