"""Benchmark for ``tsr``: one closed-loop client, one workload per process.

    python3 bench/run.py --workload deg2-certify --seed 555 --seconds 25 --trace 0
    python3 bench/run.py --workload all           # the four workloads, one process each

Run from the repository root; the program is imported from ``src/``.  Each op
starts when the previous one returns, with no threads.  A run passes over the
workload's fixed op set again and again for ``--seconds``.  Every op's time is
scaled to a reference speed of the machine by a probe loop timed around it,
and each op keeps its median over the passes.  With ``--trace 0`` it reports the end-to-end
metrics; with ``--trace 1`` it alternates untraced passes with traced ones,
which replay the ops one layer call at a time, and reports per-layer busy
time, self time, counts and the tracing overhead.  Human-readable lines come
first; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import time
from collections import deque

REF_PROBE_S = 0.003  # the probe's time at the reference speed that scaled times are given at
PROBE_GRAPH = tuple(tuple((v * k + 1) % 3000 for k in (3, 7, 11)) for v in range(3000))


def probe() -> float:
    """Time of a fixed pure-Python workload that calls nothing from ``tsr``.

    The machine the benchmark was tuned on (a shared 2-core VM) changes speed
    by itself, up to twice within seconds, in wall and CPU time alike.  An
    op's time divided by the probe timings around it stays steady, so the
    runner reports times scaled to the speed at which the probe takes
    ``REF_PROBE_S``.  A change to ``tsr`` moves the op times, not the probe.
    The probe mixes integer arithmetic with a BFS over a fixed graph: against
    arithmetic alone, ops slowed 1.1 to 1.3 times as much (in log terms), and
    against this mix 0.9 to 1.0 times.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i % 7
    seen, queue = {0}, deque([0])
    while queue:
        for u in PROBE_GRAPH[queue.popleft()]:
            if u not in seen:
                seen.add(u)
                queue.append(u)
    return time.perf_counter() - t0


PROBE_AT_START = probe()
T_START = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from array import array  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

DEFAULT_SEED = 555  # acceptance criterion 5's seed
HOLDOUT_SEED = 90210  # for confirming a claim on inputs it was not tuned on
SETUP_CHILDREN = 4  # fresh interpreters that time set-up, half before the passes, half after
PROBE_EVERY_S = 0.05  # ops between two probes take about this long
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
WORKLOAD_NAMES = ("deg2-certify", "tree-route", "oracle-search", "cli-roundtrip")

E2E = (
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# per-layer metric -> unit; a name ending in _s is busy seconds summed over spans
PER_LAYER = {
    "graph.parse_s": "s",
    "graph.classify_s": "s",
    "activation.activate_s": "s",
    "activation.format_s": "s",
    "activation.rounds": "count",
    "activation.us_per_round": "us",
    "activation.is_target_set_s": "s",
    "activation.is_target_set_calls": "count",
    "solvers.route_s": "s",
    "solvers.tar_steps": "count",
    "solvers.plan_s": "s",
    "solvers.pairs_per_graph": "ratio",
    "reconfig.tar_to_tj_s": "s",
    "reconfig.tj_steps": "count",
    "reconfig.tj_per_tar_step": "ratio",
    "reconfig.validate_s": "s",
    "reconfig.validate_steps": "count",
    "reconfig.validate_us_per_step": "us",
    "reconfig.seqfile_s": "s",
    "oracle.table_s": "s",
    "oracle.components_s": "s",
    "oracle.tj_bfs_s": "s",
    "oracle.ktar_bfs_s": "s",
    "oracle.explored": "count",
    "oracle.states_per_s": "1/s",
    "oracle.yes_ratio": "ratio",
    "oracle.guard_trips": "count",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "cli.bytes_out": "count",
    "generators.gen_s": "s",
    "graph.self_s": "s",
    "activation.self_s": "s",
    "reconfig.self_s": "s",
    "solvers.self_s": "s",
    "oracle.self_s": "s",
    "generators.self_s": "s",
    "trace.ops": "count",
    "trace.spans": "count",
    "trace.untraced_s": "s",
    "trace.traced_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help="time one set-up of the workload, print it and exit")
    return p.parse_args(argv)


def read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError:
        return ""


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    head = read_text(git / "HEAD").strip()
    if not head.startswith("ref: "):
        return head or "unknown"
    ref = head[5:]
    commit = read_text(git / ref).strip()
    if commit:
        return commit
    for line in read_text(git / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def metadata(args) -> dict:
    import numpy

    cpu = next((line.split(":", 1)[1].strip() for line in read_text("/proc/cpuinfo").splitlines() if line.startswith("model name")), platform.processor())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg_start": read_text("/proc/loadavg").strip(),
        "probe_ms_start": probe() * 1e3,
        "commit": git_commit(),
        "client": "closed loop, 1 client, no threads",
    }


def make_workload(args, tag: str):
    from workloads import WORKLOADS

    return WORKLOADS[args.workload](args.seed, OUT / f"work-{os.getpid()}-{tag}")


def scale(elapsed: float, before: float, after: float) -> float:
    """``elapsed`` seconds at the reference speed, from the probe timings around it."""
    return elapsed * REF_PROBE_S * 2 / (before + after)


@dataclasses.dataclass
class Passes:
    """What ``drive`` saw: per pass, each item's time, scaled and as measured."""

    scaled: list[array]  # a pass cut short by the deadline is shorter than the others
    raw: list[array]
    is_op: list[bool]
    attempted: int
    failures: list[str]
    walls: list[float]  # wall time of each complete pass, probes included

    def medians(self, passes: list[array]) -> list[float]:
        """Each item's median over the passes that reached it."""
        return [statistics.median(p[i] for p in passes if len(p) > i) for i in range(len(self.is_op))]


def drive(workload, tr, *, until=None, passes=None) -> Passes:
    """Pass over the workload's op set in a closed loop until a deadline or a pass count.

    The first pass always completes; a later one stops at the deadline.  A
    probe runs before a pass, after every ``PROBE_EVERY_S`` of ops and at the
    end of the pass; the ops between two probes are scaled by their mean.
    """
    seen = Passes([], [], [], 0, [], [])

    def run_pass():
        raw, scaled = array("d"), array("d")
        seen.raw.append(raw)
        seen.scaled.append(scaled)
        before, mark = probe(), time.perf_counter()

        def close_segment():
            nonlocal before, mark
            after = probe()
            scaled.extend(scale(t, before, after) for t in raw[len(scaled):])
            before, mark = after, time.perf_counter()

        for i, (op, fn) in enumerate(workload.ops(tr)):
            if seen.walls and until is not None and time.perf_counter() >= until:
                close_segment()
                return False
            if tr is not None:
                tr.op = i
            t0 = time.perf_counter()
            try:
                reason = fn()
            except Exception as exc:  # counted as a failed op, never raised
                reason = f"unexpected {type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            raw.append(t1 - t0)
            if not seen.walls:
                seen.is_op.append(op)
            seen.attempted += op
            if reason:
                seen.failures.append(reason)
            if t1 - mark >= PROBE_EVERY_S:
                close_segment()
        close_segment()
        return True

    while passes is None or len(seen.walls) < passes:
        start = time.perf_counter()
        if not run_pass():
            break
        seen.walls.append(time.perf_counter() - start)
        if until is not None and time.perf_counter() >= until:
            break
    return seen


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest ladder percentile (nearest rank) with at least ten samples beyond it.

    Returns (latency, percentile, samples beyond); below 20 samples it falls back to the median.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in TAIL_LADDER:
        idx = max(0, math.ceil(n * pct / 100.0) - 1)
        if n - idx - 1 >= 10:
            break
    return ordered[idx], pct, n - idx - 1


def setup_time() -> tuple[float, float]:
    """Seconds since the process started its set-up: scaled, and as measured."""
    elapsed = time.perf_counter() - T_START
    return scale(elapsed, PROBE_AT_START, probe()), elapsed


def setup_children(args, count: int) -> list[tuple[float, float]]:
    """Set-up time of the workload in fresh interpreters, one after another."""
    times = []
    for i in range(count):
        cmd = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", args.workload,
               "--seed", str(args.seed)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
        times.append(tuple(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]))
    return times


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics})


def show(name: str, value, unit: str, note: str = "") -> None:
    print(f"  {name:<32} {value:>14.6g} {unit:<6} {note}".rstrip())


def finish_metadata(meta: dict) -> None:
    meta["loadavg_end"] = read_text("/proc/loadavg").strip()
    meta["probe_ms_end"] = probe() * 1e3


def timing_metrics(seen: Passes, passes: list[array]) -> tuple[dict, str]:
    """ops_per_s, op_p50_ms and op_tail_ms from each item's median time, and the tail's note."""
    items = seen.medians(passes)
    ops = [t for t, op in zip(items, seen.is_op) if op]
    tail_s, pct, beyond = tail(ops)
    metrics = {
        "ops_per_s": len(ops) / sum(items),
        "op_p50_ms": statistics.median(ops) * 1e3,
        "op_tail_ms": tail_s * 1e3,
    }
    return metrics, f"(p{pct:g} of the ops' medians, {beyond} ops beyond, of {len(ops)})"


def run_e2e(args) -> tuple[str, int]:
    wl = make_workload(args, "main")
    try:
        wl.setup(None)
        setups = [setup_time()]
        meta = metadata(args)
        # the children sample set-up at both ends of the run, so one slow
        # phase of the machine does not set the median
        setups += setup_children(args, SETUP_CHILDREN // 2)
        seen = drive(wl, None, until=time.perf_counter() + args.seconds)
        setups += setup_children(args, SETUP_CHILDREN - SETUP_CHILDREN // 2)
    finally:
        shutil.rmtree(wl.workdir, ignore_errors=True)
    attempted, failed = seen.attempted, len(seen.failures)
    metrics, tail_note = timing_metrics(seen, seen.scaled)
    metrics["setup_s"] = statistics.median(t for t, _ in setups)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    unscaled, _ = timing_metrics(seen, seen.raw)
    unscaled["setup_s"] = statistics.median(t for _, t in setups)
    meta["unscaled"] = unscaled
    meta["setup_runs_s"] = setups  # (scaled, as measured); the run's own set-up first
    meta["pass_walls_s"] = seen.walls
    finish_metadata(meta)
    print(f"workload {args.workload}  seed {args.seed}  {sum(seen.is_op)} ops a pass, {len(seen.walls)} complete passes "
          f"(median {statistics.median(seen.walls):.3f} s), {attempted} ops run; times at the reference speed")
    print("meta " + json.dumps(meta))
    notes = {
        "ops_per_s": "(ops a pass / sum of every item's median)",
        "op_tail_ms": tail_note,
        "setup_s": "(median of " + ", ".join(f"{t:.4f}" for t, _ in setups) + ")",
    }
    for name, unit in E2E:
        show(name, metrics[name], unit, notes.get(name, ""))
    show("fail_ratio", failed / attempted, "ratio", f"({failed} of {attempted})")
    print("  as measured, unscaled: " + "  ".join(f"{k}={v:.6g}" for k, v in unscaled.items()))
    for reason in seen.failures[:5]:
        print(f"  FAILED: {reason}", file=sys.stderr)
    out = {name: {"value": metrics[name], "unit": unit} for name, unit in E2E}
    return result_line(failed == 0, attempted, failed, out), 0


def layer_metrics(tr, untraced_s: float, traced_s: float, n_ops: int) -> dict[str, float]:
    busy = tr.busy()
    c = tr.counts

    def ratio(a, b):
        return a / b if b else 0.0

    m = {name: busy.get(name[:-2], 0.0) for name in PER_LAYER if name.endswith("_s")}
    own = tr.self_times()
    for layer in ("graph", "activation", "reconfig", "solvers", "oracle", "generators"):
        m[f"{layer}.self_s"] = own[layer]
    replayed = sum(end - start for name, start, end, parent, op in tr.spans
                   if parent < 0 and op >= 0 and not name.startswith("cli."))
    m["cli.self_s"] = busy.get("cli.main", 0.0) - replayed if "cli.main" in busy else 0.0
    oracle_s = busy.get("oracle.tj_bfs", 0.0) + busy.get("oracle.ktar_bfs", 0.0)
    m.update({
        "activation.rounds": c["activation.rounds"],
        "activation.us_per_round": ratio(busy.get("activation.activate", 0.0) * 1e6, c["activation.rounds"]),
        "activation.is_target_set_calls": c["activation.is_target_set_calls"],
        "solvers.tar_steps": c["solvers.tar_steps"],
        "solvers.pairs_per_graph": ratio(n_ops, c["solvers.graphs"]),
        "reconfig.tj_steps": c["reconfig.tj_steps"],
        "reconfig.tj_per_tar_step": ratio(c["reconfig.tj_steps"], c["solvers.tar_steps"]),
        "reconfig.validate_steps": c["reconfig.validate_steps"],
        "reconfig.validate_us_per_step": ratio(busy.get("reconfig.validate", 0.0) * 1e6, c["reconfig.validate_steps"]),
        "oracle.explored": c["oracle.explored"],
        "oracle.states_per_s": ratio(c["oracle.explored"], oracle_s),
        "oracle.yes_ratio": ratio(c["oracle.yes"], c["oracle.decided"]),
        "oracle.guard_trips": c["oracle.guard_trips"],
        "cli.bytes_out": c["cli.bytes_out"],
        "trace.ops": n_ops,
        "trace.spans": len(tr.spans),
        "trace.untraced_s": untraced_s,
        "trace.traced_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.overhead_ratio": ratio(traced_s - untraced_s, untraced_s),
    })
    return m


def run_traced(args) -> tuple[str, int]:
    """Untraced passes (the ops as a user makes them) alternate with traced replays.

    The overhead is the median traced pass minus the median untraced pass,
    each the sum of its scaled op times, so it includes the replay's extra
    work as well as the spans' cost.  The layer metrics come from the last
    traced pass and are not scaled.
    """
    from tracer import Tracer

    wl = make_workload(args, "main")
    tr = Tracer(record=True)
    try:
        wl.setup(tr)
        meta = metadata(args)
        setup_spans = len(tr.spans)
        drive(wl, None, passes=1)  # warm-up
        until = time.perf_counter() + args.seconds
        plain, traced, failures, attempted = [], [], [], 0
        while not traced or time.perf_counter() < until:
            del tr.spans[setup_spans:]
            tr.counts.clear()
            for t, walls in ((None, plain), (tr, traced)):
                seen = drive(wl, t, passes=1)
                walls.append(sum(seen.scaled[0]))
                failures += seen.failures
                attempted += seen.attempted
    finally:
        shutil.rmtree(wl.workdir, ignore_errors=True)
    n = sum(seen.is_op)
    m = layer_metrics(tr, statistics.median(plain), statistics.median(traced), n)
    finish_metadata(meta)
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
    tr.write(trace_file, meta)
    print(f"workload {args.workload}  seed {args.seed}  {n} ops a pass, {len(traced)} untraced and traced passes "
          f"(median {m['trace.untraced_s']:.3f} s and {m['trace.traced_s']:.3f} s); spans in {trace_file.relative_to(ROOT)}")
    print("meta " + json.dumps(meta))
    for name, unit in PER_LAYER.items():
        show(name, m[name], unit)
    show("fail_ratio", len(failures) / attempted, "ratio", f"({len(failures)} of {attempted})")
    for reason in failures[:5]:
        print(f"  FAILED: {reason}", file=sys.stderr)
    out = {name: {"value": m[name], "unit": unit} for name, unit in PER_LAYER.items()}
    return result_line(not failures, attempted, len(failures), out), 0


def run_all(args) -> tuple[str, int]:
    """Each workload in its own process, so peak RSS is that workload's alone."""
    attempted = failed = 0
    correct = True
    merged = {}
    table = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
        sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return "", proc.returncode
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        attempted += res["attempted"]
        failed += res["failed"]
        correct &= res["correct"]
        for metric, v in res["metrics"].items():
            merged[f"{name}.{metric}"] = v
        table.append((name, res))
    print("summary (fail_ratio = failed / attempted)")
    for name, res in table:
        cells = "" if args.trace else "  ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in res["metrics"].items())
        print(f"  {name:<14} {cells}  fail_ratio={res['failed'] / res['attempted']:.6g} ratio")
    return result_line(correct, attempted, failed, merged), 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tsr" / "__init__.py").is_file():
        print(f"error: no tsr package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        line, code = run_all(args)
    elif args.setup_only:
        wl = make_workload(args, "setup")
        try:
            wl.setup(None)
            print(json.dumps({"setup_s": setup_time()}))
        finally:
            shutil.rmtree(wl.workdir, ignore_errors=True)
        return 0
    else:
        import tsr

        if Path(tsr.__file__).resolve().parent != SRC / "tsr":
            print(f"error: imported tsr from {tsr.__file__}, not {SRC}", file=sys.stderr)
            return 2
        line, code = (run_traced if args.trace else run_e2e)(args)
    if line:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
