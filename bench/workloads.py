"""The four benchmark workloads: inputs, ops and output checks.

Every workload makes its inputs from a seed with the benchmark's own code
(drawing on ``tsr.generators``), so ``tsr`` receives only generated graphs,
seed sets and files.  A workload's op set is fixed at set-up; a run passes
over it again and again.  An op returns ``None`` when its outputs check out
and a one-line reason when they do not; the runner counts reasons and
exceptions into ``fail_ratio``.

Each op takes a tracer argument.  With ``None`` it makes the public calls a
user would make (``solve_*(model=tj)``, ``tsr.cli.main``).  With a ``Tracer``
it replays the same work one public layer call at a time (a TJ route is
``solve_*(model=tar)`` then ``tar_to_tj``; a CLI session is also replayed as
parse, classify, solve, format, parse, validate and activate), so each call
gets a span.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import itertools
import math
import random
from pathlib import Path

from tsr import activation, cli, generators, graph, oracle, reconfig, solvers
from tsr.errors import InstanceTooLarge
from tsr.reconfig import TAR, TJ

from tracer import Tracer


def call(tr: Tracer | None, name: str, fn, *args, **kwargs):
    return fn(*args, **kwargs) if tr is None else tr.call(name, fn, *args, **kwargs)


def fresh(g):
    """A copy of graph ``g`` without the values its cached properties hold.

    Each pass works on fresh copies, so nothing cached on a graph object
    carries over from one pass to the next.
    """
    return dataclasses.replace(g)


def mask_of(s) -> int:
    m = 0
    for v in s:
        m |= 1 << v
    return m


def sets_of(masks) -> list[frozenset[int]]:
    return [frozenset(v for v in range(m.bit_length()) if m >> v & 1) for m in masks]


# -- layer calls shared by the workloads --------------------------------------


def route(tr: Tracer | None, solver: str, g, x, y):
    """TJ verdict and sequence from ``solvers.<solver>``."""
    fn = getattr(solvers, solver)
    if tr is None:
        return fn(g, x, y, model=TJ)
    verdict, seq = tr.call("solvers.route", fn, g, x, y, model=TAR)
    if seq is None:
        return verdict, None
    tr.count("solvers.tar_steps", len(seq))
    seq = tr.call("reconfig.tar_to_tj", reconfig.tar_to_tj, seq)
    tr.count("reconfig.tj_steps", len(seq))
    return verdict, seq


def route_tar(tr: Tracer | None, solver: str, g, x, y):
    verdict, seq = call(tr, "solvers.route", getattr(solvers, solver), g, x, y, model=TAR)
    if tr is not None and seq is not None:
        tr.count("solvers.tar_steps", len(seq))
    return verdict, seq


def validate(tr: Tracer | None, g, seq, is_ts=None):
    """``validate_sequence``; without ``is_ts`` it uses the real closure."""
    if tr is None:
        return reconfig.validate_sequence(g, seq, is_ts)
    if is_ts is None:
        def is_ts(s):
            tr.count("activation.is_target_set_calls")
            return tr.call("activation.is_target_set", activation.is_target_set, g, s)
    tr.count("reconfig.validate_steps", len(seq))
    return tr.call("reconfig.validate", reconfig.validate_sequence, g, seq, is_ts)


def check_yes(report, seq, x, y) -> str | None:
    """A YES sequence must validate and run from x to y."""
    if not report.ok:
        return f"sequence invalid at step {report.first_violation}: {report.reason}"
    if seq.start != x or seq.end != y:
        return "sequence does not run from x to y"
    return None


def orientation_set(g, order) -> set[int]:
    """Target set read off an acyclic orientation (Ackerman, Ben-Zwi, Wolfovitz).

    Orient every edge from the earlier to the later vertex of ``order``; the
    vertices with fewer in-arcs than their threshold form a target set.
    """
    pos = [0] * (g.n + 1)
    for i, v in enumerate(order):
        pos[v] = i
    return {v for v in g.vertices if sum(pos[u] < pos[v] for u in g.adj[v]) < g.tau[v]}


def far_pair(rng: random.Random, g) -> tuple[frozenset[int], frozenset[int]]:
    """Two same-size target sets from opposite orientations, padded at random."""
    order = list(g.vertices)
    rng.shuffle(order)
    x, y = orientation_set(g, order), orientation_set(g, order[::-1])
    k = max(len(x), len(y))
    for s in (x, y):
        rest = [v for v in g.vertices if v not in s]
        s.update(rng.sample(rest, k - len(s)))
    return frozenset(x), frozenset(y)


def sync_rounds(g, seed) -> tuple[int, bool]:
    """Rounds of synchronous activation until nothing changes, and whether all activate."""
    need = list(g.tau)
    active = [False] * (g.n + 1)
    frontier = list(seed)
    for v in frontier:
        active[v] = True
    done, rounds = len(frontier), 0
    while True:
        hits = []
        for v in frontier:
            for u in g.adj[v]:
                if not active[u]:
                    need[u] -= 1
                    if need[u] == 0:
                        hits.append(u)
        if not hits:
            return rounds, done == g.n
        for u in hits:
            active[u] = True
        frontier, done, rounds = hits, done + len(hits), rounds + 1


def deg2_min(g) -> int:
    """Minimum target set size of a max-degree-2 graph, by the paper's formulas."""
    total = 0
    for comp in g.components():
        m = sum(g.tau[v] == 2 for v in comp)
        if any(len(g.adj[v]) == 1 for v in comp):
            total += m // 2 + 1
        else:
            total += max(1, (m + 1) // 2)
    return total


def cli_solver(g) -> str:
    """The solver ``tsr reconfigure`` dispatches to, by its own rule order."""
    if all(g.tau[v] == 1 for v in g.vertices):
        return "solve_threshold1"
    if len(g.components()) == 1 and g.m == g.n - 1:
        return "solve_tree"
    return "solve_maxdeg2"


def unrank_pair(t: int, m: int) -> tuple[int, int]:
    """The t-th pair (i, j) of ``itertools.combinations(range(m), 2)``."""
    i = m - 2 - (math.isqrt(4 * m * (m - 1) - 8 * t - 7) - 1) // 2
    j = t + i + 1 - m * (m - 1) // 2 + (m - i) * (m - i - 1) // 2
    return i, j


def interleaved_sizes(count: int, lo: int, hi: int) -> list[int]:
    """``count`` sizes over [lo, hi], interleaved so every prefix mixes small and large."""
    return [lo + (i * 37) % (hi - lo + 1) for i in range(count)]


# -- workloads ----------------------------------------------------------------


class Workload:
    name = ""
    PASS_OPS = 0  # the op set's size: 40 or more, so op_tail_ms has ten ops beyond p75

    def __init__(self, seed: int, workdir: Path, scale: float = 1.0) -> None:
        self.seed = seed
        self.workdir = workdir
        self.scale = scale  # op-set size multiplier; the smoke tests use a small one
        self.rng = random.Random(seed)

    def setup(self, tr: Tracer | None) -> None:
        raise NotImplementedError

    def ops(self, tr: Tracer | None):
        """Yield one pass over the op set as ``(is_op, fn)`` items, on fresh graphs.

        ``fn()`` returns ``None`` or a failure reason.  An item that is not an
        op is timed work that the ops after it use (``deg2-certify``'s oracle
        reference).
        """
        raise NotImplementedError


class Deg2Certify(Workload):
    """Acceptance criterion 5: ``solve_maxdeg2`` against the oracle, pair by pair.

    The graph sequence is the criterion's (``random_maxdeg2`` with n in
    3..12, drawn from ``random.Random(seed)``).  Set-up takes graphs from it
    until their same-size pairs, at most ``PAIR_CAP`` a graph, number
    ``PASS_OPS``.  The cap spreads the op set over about a hundred graphs, so
    no graph with thousands of pairs decides the figure and seeds give alike
    figures (a cap of 400 spread them by 0.16 of the median).  In every pass
    each graph's oracle reference (target-set table and TJ components at
    k = min, min+1) is built again, as a timed item before its pairs.
    """

    name = "deg2-certify"
    PASS_OPS = 12000
    PAIR_CAP = 100

    def setup(self, tr):
        rng = self.rng
        want = max(20, int(self.PASS_OPS * self.scale))
        self.graphs = []
        while want > 0:
            g = call(tr, "generators.gen", generators.random_maxdeg2, rng, rng.randint(3, 12))
            _, _, blocks = self.reference(g, None)
            pairs = list(itertools.islice(self.pairs(blocks, random.Random(self.seed * 7919 + len(self.graphs))), want))
            if pairs:
                self.graphs.append((g, pairs))
                want -= len(pairs)

    @staticmethod
    def reference(g, tr):
        """Table membership test, TJ component id per set, and per size k = min, min+1 the sets."""
        by_size = call(tr, "oracle.table", oracle.target_sets_by_size, g)
        ts_all = set(itertools.chain.from_iterable(by_size.values()))
        low = min(by_size)
        comp_of, blocks = {}, []
        for k in (low, low + 1):
            masks = by_size.get(k, [])
            if len(masks) < 2:
                continue
            rep = call(tr, "oracle.components", oracle.tj_components, g, k)
            if rep.num_target_sets != len(masks):
                raise RuntimeError(f"oracle found {rep.num_target_sets} size-{k} sets, table {len(masks)}")
            comp_of.update((s, (k, c)) for c, comp in enumerate(rep.components) for s in comp)
            blocks.append(sets_of(masks))
        return (lambda s: mask_of(s) in ts_all), comp_of, blocks

    def pairs(self, blocks, rng):
        """All same-size pairs in ``itertools.combinations`` order, or ``PAIR_CAP`` of them at random."""
        sizes = [len(sets) * (len(sets) - 1) // 2 for sets in blocks]
        total = sum(sizes)
        picks = range(total) if total <= self.PAIR_CAP else sorted(rng.sample(range(total), self.PAIR_CAP))
        for t in picks:
            b = 0
            while t >= sizes[b]:
                t -= sizes[b]
                b += 1
            i, j = unrank_pair(t, len(blocks[b]))
            yield blocks[b][i], blocks[b][j]

    def ops(self, tr):
        for g, pairs in self.graphs:
            g, ref = fresh(g), {}
            yield False, lambda g=g, ref=ref: self.build(tr, g, ref)
            for x, y in pairs:
                yield True, lambda g=g, ref=ref, x=x, y=y: self.op(tr, g, ref, x, y)

    def build(self, tr, g, ref):
        """The graph's oracle reference; a broken one fails each of the graph's ops."""
        try:
            ref["is_ts"], ref["comp"], _ = self.reference(g, tr)
        except Exception as exc:
            ref["error"] = f"oracle reference failed: {type(exc).__name__}: {exc}"
        if tr is not None:
            tr.count("solvers.graphs")
            tr.call("solvers.plan", solvers.decompose_deg2, g)

    @staticmethod
    def op(tr, g, ref, x, y):
        if "error" in ref:
            return ref["error"]
        same = ref["comp"][x] == ref["comp"][y]
        verdict, seq = route(tr, "solve_maxdeg2", g, x, y)
        if verdict != same:
            return f"solver says {verdict}, oracle says {same}"
        if not verdict:
            return None
        return check_yes(validate(tr, g, seq, ref["is_ts"]), seq, x, y)


class TreeRoute(Workload):
    """One far-apart pair per random tree, routed by ``solve_tree`` in TJ and in TAR.

    The pair comes from two opposite orientations, so both sets hold about
    half the tree and the routes are long.  No two ops share a tree and each
    pass works on fresh copies, so a per-graph cache is bypassed.  Both
    sequences are validated with the real closure.
    """

    name = "tree-route"
    PASS_OPS = 64

    def setup(self, tr):
        rng = self.rng
        self.instances = []
        for n in interleaved_sizes(max(4, int(self.PASS_OPS * self.scale)), 110, 250):
            g = call(tr, "generators.gen", generators.random_tree, rng, n)
            self.instances.append((g, *far_pair(rng, g)))

    def ops(self, tr):
        for g, x, y in self.instances:
            yield True, lambda g=fresh(g), x=x, y=y: self.op(tr, g, x, y)

    @staticmethod
    def op(tr, g, x, y):
        if tr is not None:
            tr.count("solvers.graphs")
            tr.call("solvers.plan", solvers.chen_tree, g)
        for model in (TJ, TAR):
            verdict, seq = route(tr, "solve_tree", g, x, y) if model == TJ else route_tar(tr, "solve_tree", g, x, y)
            if not verdict:
                return f"solve_tree ({model}) says NO on a tree"
            reason = check_yes(validate(tr, g, seq), seq, x, y)
            if reason:
                return f"{model}: {reason}"
        return None


class OracleSearch(Workload):
    """Exhaustive BFS on pairs no solver takes: early-exit YES beside full-component NO.

    The ten kinds of ``MIX`` repeat: far-apart pairs on threshold-1
    cycles (YES), random connected graphs at k = min+2 (answer unknown; TJ and
    k-TAR must agree), a terrible cycle beside threshold-1 paths at k = min
    (NO, so the whole TJ component is explored), and one query under a small
    guard that must raise ``InstanceTooLarge``.
    """

    name = "oracle-search"
    PASS_OPS = 40
    GUARD = 64
    CANDIDATES = 5
    MIX = ("cycle", "connected", "terrible") * 3 + ("guard",)
    def setup(self, tr):
        rng = self.rng
        self.instances = []
        for i in range(max(5, int(self.PASS_OPS * self.scale))):
            kind = self.MIX[i % len(self.MIX)]
            self.instances.append(getattr(self, "_" + kind)(rng, tr))

    def _cycle(self, rng, tr):
        n = 13
        g = call(tr, "generators.gen", generators.cycle_with_spacing, 0, [n])
        r = rng.randrange(n)
        x = frozenset((r + i) % n + 1 for i in range(4))
        y = frozenset((r + n // 2 + i) % n + 1 for i in range(4))
        return "cycle", g, x, y, True

    def _guard(self, rng, tr):
        _, g, x, y, _ = self._cycle(rng, tr)
        return "guard", g, x, y, None

    def _connected(self, rng, tr):
        """Of ``CANDIDATES`` random graphs, the one whose size-k target sets number closest to 250.

        That keeps query costs alike; a fixed number of candidates keeps
        set-up time alike across seeds.
        """
        best = []
        for _ in range(self.CANDIDATES):
            g = call(tr, "generators.gen", generators.random_connected, rng, 12, 0.25)
            by_size: dict[int, list[int]] = {}
            for m in oracle.all_target_set_masks(g):
                by_size.setdefault(m.bit_count(), []).append(m)
            masks = sorted(by_size.get(min(by_size) + 2, []))
            if not best or abs(len(masks) - 250) < abs(len(best[1]) - 250):
                best = g, masks
        g, masks = best
        x = rng.choice(masks)
        far = max((x ^ m).bit_count() for m in masks)
        y = rng.choice([m for m in masks if (x ^ m).bit_count() == far])
        x, y = sets_of([x, y])
        return "connected", g, x, y, None

    def _terrible(self, rng, tr):
        r = rng.randrange(4)
        gaps = [0, 1, 1, 2][r:] + [0, 1, 1, 2][:r]  # one arrangement, rotated: equal search costs
        g = call(tr, "generators.gen", generators.cycle_with_spacing, 4, gaps)
        w = [v for v in g.vertices if g.tau[v] == 2]
        x, y = {w[0], w[2]}, {w[1], w[3]}
        for _ in range(3):
            p = call(tr, "generators.gen", generators.path_with_spacing, 0, [5])
            base = g.n
            g, _ = graph.disjoint_union(g, p)
            x.add(base + rng.randint(1, p.n))
            y.add(base + rng.randint(1, p.n))
        return "terrible", g, frozenset(x), frozenset(y), False

    def ops(self, tr):
        for kind, g, x, y, expected in self.instances:
            yield True, lambda kind=kind, g=fresh(g), x=x, y=y, expected=expected: self.op(tr, kind, g, x, y, expected)

    def op(self, tr, kind, g, x, y, expected):
        k = len(x)
        if kind == "guard":
            for name, fn, extra in (("oracle.tj_bfs", oracle.tj_decide, ()), ("oracle.ktar_bfs", oracle.ktar_decide, (k,))):
                try:
                    call(tr, name, fn, g, x, y, *extra, guard=self.GUARD)
                except InstanceTooLarge:
                    if tr is not None:
                        tr.count("oracle.guard_trips")
                    continue
                return f"{name} finished under guard {self.GUARD}"
            return None
        tj = call(tr, "oracle.tj_bfs", oracle.tj_decide, g, x, y)
        tar = call(tr, "oracle.ktar_bfs", oracle.ktar_decide, g, x, y, k)
        if tr is not None:
            tr.count("oracle.explored", tj.explored + tar.explored)
            tr.count("oracle.decided", 2)
            tr.count("oracle.yes", tj.reconfigurable + tar.reconfigurable)
        if tj.reconfigurable != tar.reconfigurable:
            return f"TJ says {tj.reconfigurable}, {k}-TAR says {tar.reconfigurable}"
        if expected is not None and tj.reconfigurable != expected:
            return f"{kind} pair decided {tj.reconfigurable}, expected {expected}"
        if tj.reconfigurable:
            for rep in (tj, tar):
                reason = check_yes(validate(tr, g, rep.shortest), rep.shortest, x, y)
                if reason:
                    return f"{rep.shortest.model}: {reason}"
        return None


def run_main(argv: list[str]) -> tuple[int, str]:
    """``tsr.cli.main`` in-process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


class CliRoundtrip(Workload):
    """Sessions of ``tsr`` commands through ``cli.main`` on files written at set-up.

    A session is ``reconfigure --emit-sequence``, ``check --sequence`` on the
    emitted file, ``activate`` and ``solve-min``.  Instances cycle through a
    tree, a max-degree-2 graph and long-cascade threshold-1 paths and cycles
    (seeded at one vertex), where ``activate`` runs one round per vertex.
    """

    name = "cli-roundtrip"
    PASS_OPS = 60
    KINDS = ("tree", "deg2", "t1path", "tree", "deg2", "t1cycle")

    def setup(self, tr):
        rng = self.rng
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.instances = []
        for i in range(max(len(self.KINDS), int(self.PASS_OPS * self.scale))):
            kind = self.KINDS[i % len(self.KINDS)]
            if kind == "tree":
                g = call(tr, "generators.gen", generators.random_tree, rng, 100)
                low = len(solvers.chen_tree(g).s_star)
            elif kind == "deg2":
                g = call(tr, "generators.gen", generators.random_maxdeg2, rng, 100)
                low = deg2_min(g)
            else:
                shape, n = (generators.cycle_with_spacing, 600) if kind == "t1cycle" else (generators.path_with_spacing, 400)
                g = call(tr, "generators.gen", shape, 0, [n])
                low = 1
            if kind.startswith("t1"):
                x, y = frozenset({1}), frozenset({rng.randint(2, g.n)})
            else:
                x, y = far_pair(rng, g)
            if kind == "deg2" and len(x) <= low:
                raise RuntimeError("max-degree-2 pair has minimum size, so its answer is not known")
            solver = cli_solver(g)
            rounds, full = sync_rounds(g, x)
            if not full:
                raise RuntimeError(f"{kind} instance seed is not a target set")
            stem = self.workdir / f"i{i}"
            files = {}
            for suffix, text in (("tsr", graph.serialize_graph(g)), ("x.seed", graph.serialize_seed_set(x)), ("y.seed", graph.serialize_seed_set(y))):
                files[suffix] = str(stem.with_suffix("." + suffix))
                Path(files[suffix]).write_text(text, encoding="utf-8")
            files["seq"] = str(stem.with_suffix(".seq"))
            self.instances.append((kind, solver, low, rounds, x, y, files))

    def ops(self, tr):
        for inst in self.instances:
            yield True, lambda inst=inst: self.op(tr, *inst)

    @staticmethod
    def argvs(files) -> list[list[str]]:
        return [
            ["reconfigure", files["tsr"], "--from", files["x.seed"], "--to", files["y.seed"], "--emit-sequence", files["seq"]],
            ["check", files["tsr"], "--sequence", files["seq"]],
            ["activate", files["tsr"], "--seed", files["x.seed"]],
            ["solve-min", files["tsr"]],
        ]

    def op(self, tr, kind, solver, low, rounds, x, y, files):
        outs = []
        for argv in self.argvs(files):
            code, out = call(tr, "cli.main", run_main, argv)
            if tr is not None:
                tr.count("cli.bytes_out", len(out.encode()))
            if code != 0:
                return f"tsr {argv[0]} exited {code}"
            outs.append(out)
        if tr is not None:
            self.replay(tr, solver, files)
        reconf, check, act, smin = outs
        if reconf != "YES\n":
            return f"reconfigure printed {reconf!r}, expected YES"
        if "sequence OK: model=tj" not in check:
            return f"check rejected the emitted sequence: {check.strip()!r}"
        seq = reconfig.parse_sequence(Path(files["seq"]).read_text(encoding="utf-8"))
        if seq.start != x or seq.end != y:
            return "emitted sequence does not run from x to y"
        lines = act.splitlines()
        if lines[-1] != "target set" or len(lines) != rounds + 2:
            return f"activate printed {len(lines) - 1} rounds ending {lines[-1]!r}, expected {rounds + 1} and 'target set'"
        if smin.strip() != str(low):
            return f"solve-min printed {smin.strip()!r}, expected {low}"
        return None

    @staticmethod
    def replay(tr, solver, files):
        """The layer calls the four commands make, each under its own span."""
        text = {k: Path(p).read_text(encoding="utf-8") for k, p in files.items()}
        g = tr.call("graph.parse", graph.parse_graph, text["tsr"])
        x = tr.call("graph.parse", graph.parse_seed_set, text["x.seed"], g)
        y = tr.call("graph.parse", graph.parse_seed_set, text["y.seed"], g)
        tr.call("graph.classify", graph.classify, g)
        _, seq = route(tr, solver, g, x, y)
        seq = tr.call("reconfig.seqfile", lambda: reconfig.parse_sequence(seq.format()))
        g = tr.call("graph.parse", graph.parse_graph, text["tsr"])
        validate(tr, g, seq)
        g = tr.call("graph.parse", graph.parse_graph, text["tsr"])
        x = tr.call("graph.parse", graph.parse_seed_set, text["x.seed"], g)
        trace = tr.call("activation.activate", activation.activate, g, x)
        tr.count("activation.rounds", len(trace.rounds) - 1)
        tr.call("activation.format", trace.format)
        g = tr.call("graph.parse", graph.parse_graph, text["tsr"])
        tr.call("graph.classify", graph.classify, g)
        tr.count("solvers.graphs")
        if solver == "solve_tree":
            tr.call("solvers.plan", solvers.chen_tree, g)
        elif solver == "solve_maxdeg2":
            tr.call("solvers.plan", solvers.maxdeg2_min_size, g)
        else:
            tr.call("graph.components", g.components)


WORKLOADS = {w.name: w for w in (Deg2Certify, TreeRoute, OracleSearch, CliRoundtrip)}
