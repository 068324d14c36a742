"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/stability.py --workloads tree-route --seeds 1 2 3 4 5
    python3 bench/stability.py --seeds 555 555 555 555 555   # one seed, repeated
    python3 bench/stability.py --runs 10 --traced --json bench/baseline.json

Runs one process at a time, taking the workloads in turn (round i runs every
workload once), so a slow phase of the machine is shared among them.  For
every workload and end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance between
the quartiles as a share of the median, beside a third of the metric's bound
from ``BENCHMARK.json``.  For ``setup_s`` it also prints the spread of each
run's own set-up time, beside that of the reported median of five.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import DEFAULT_SEED, HOLDOUT_SEED  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> tuple[dict, dict]:
    """One benchmark process; returns its result line and its run metadata."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    meta = next(json.loads(line[5:]) for line in lines if line.startswith("meta "))
    return json.loads(lines[-1]), meta


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", nargs="+", type=int)
    p.add_argument("--runs", type=int, default=10, help="seeds 1..runs when --seeds is not given")
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--traced", action="store_true", help="also make one traced run per workload at the default seed")
    p.add_argument("--json", type=Path, help="write every value and summary here, keeping its 'should_move' table")
    args = p.parse_args()
    seeds = args.seeds or list(range(1, args.runs + 1))
    report = {"default_seed": DEFAULT_SEED, "holdout_seed": HOLDOUT_SEED, "seeds": seeds,
              "seconds": args.seconds, "workloads": {}}
    runs = {w: [] for w in args.workloads}
    metas = {w: [] for w in args.workloads}
    for seed in seeds:
        for workload in args.workloads:
            res, meta = run_once(workload, seed, args.seconds)
            print(f"{workload} seed {seed}: probe {meta['probe_ms_start']:.1f}/{meta['probe_ms_end']:.1f} ms "
                  f"passes {len(meta['pass_walls_s'])} attempted {res['attempted']} failed {res['failed']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()), flush=True)
            runs[workload].append(res)
            metas[workload].append(meta)
    report["machine"] = {k: meta[k] for k in ("commit", "python", "numpy", "nproc", "cpu")}
    for workload in args.workloads:
        rows = {}
        for name in bounds:
            rows[name] = summarize([r["metrics"][name]["value"] for r in runs[workload]])
            row = rows[name]
            flag = "ok" if row["spread"] < bounds[name] / 3 else "WIDE"
            print(f"  {workload:<14} {name:<12} median {row['median']:<12.6g} q1 {row['q1']:<12.6g} "
                  f"q3 {row['q3']:<12.6g} spread {row['spread']:.4f} (bound/3 {bounds[name] / 3:.4f}) {flag}", flush=True)
        own = summarize([m["setup_runs_s"][0][0] for m in metas[workload]])
        print(f"  {workload:<14} setup_s of the run's own set-up alone: median {own['median']:.6g} spread {own['spread']:.4f}")
        entry = {
            "attempted": sum(r["attempted"] for r in runs[workload]),
            "failed": sum(r["failed"] for r in runs[workload]),
            "end_to_end": rows,
            "own_setup_s": own,
            "run_meta": [{k: m[k] for k in ("loadavg_start", "loadavg_end", "probe_ms_start", "probe_ms_end", "pass_walls_s", "unscaled")}
                         for m in metas[workload]],
        }
        if args.traced:
            res, meta = run_once(workload, DEFAULT_SEED, args.seconds, trace=1)
            entry["per_layer"] = {"seed": DEFAULT_SEED, "attempted": res["attempted"], "failed": res["failed"],
                                  "metrics": {k: v["value"] for k, v in res["metrics"].items()}}
            print(f"  {workload:<14} traced: " + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items() if v["value"]), flush=True)
        report["workloads"][workload] = entry
    if args.json:
        if args.json.exists():
            report["should_move"] = json.loads(args.json.read_text(encoding="utf-8")).get("should_move", {})
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
