"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q bench/test_smoke.py

They run every workload's ops and checks end to end, traced and untraced,
and prove that a corrupted sequence, a flipped verdict and a rejected CLI
sequence are each counted as failed ops rather than raised.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from tsr import cli  # noqa: E402
from tsr.reconfig import ReconfigSequence, Step  # noqa: E402

SCALE = 0.02


def make(name, tmp_path, seed=3):
    wl = workloads.WORKLOADS[name](seed, tmp_path / "work", SCALE)
    wl.setup(None)
    return wl


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_ops_pass_untraced_and_traced(name, tmp_path):
    wl = make(name, tmp_path)
    seen = run.drive(wl, None, passes=2)
    assert seen.attempted == 2 * sum(seen.is_op) > 0 and seen.failures == []
    assert len(seen.walls) == len(seen.scaled) == 2
    assert all(len(p) == len(seen.is_op) and min(p) > 0 for p in seen.scaled + seen.raw)
    tr = Tracer()
    seen = run.drive(wl, tr, passes=1)
    assert seen.attempted > 0 and seen.failures == []
    assert tr.spans and all(name.split(".")[0] in LAYERS for name, *_ in tr.spans)


def test_passes_work_on_fresh_graphs(tmp_path, monkeypatch):
    wl = make("tree-route", tmp_path)
    graphs = []
    monkeypatch.setattr(workloads.TreeRoute, "op", staticmethod(lambda tr, g, x, y: graphs.append(g)))
    run.drive(wl, None, passes=2)
    n = len(wl.instances)
    assert len(graphs) == 2 * n
    assert all(a == b and a is not b for a, b in zip(graphs[:n], graphs[n:]))


def test_flipped_verdict_counts_as_failure(tmp_path, monkeypatch):
    real = workloads.solvers.solve_maxdeg2

    def flipped(g, x, y, *, model):
        verdict, seq = real(g, x, y, model=model)
        return not verdict, seq

    monkeypatch.setattr(workloads.solvers, "solve_maxdeg2", flipped)
    seen = run.drive(make("deg2-certify", tmp_path), None, passes=1)
    assert len(seen.failures) == seen.attempted > 0
    assert all("oracle says" in f for f in seen.failures)


def test_corrupted_sequence_counts_as_failure(tmp_path, monkeypatch):
    real = workloads.solvers.solve_tree

    def truncated(g, x, y, *, model):
        verdict, seq = real(g, x, y, model=model)
        return verdict, ReconfigSequence(seq.start, seq.steps[:-1], seq.model, seq.k)

    monkeypatch.setattr(workloads.solvers, "solve_tree", truncated)
    seen = run.drive(make("tree-route", tmp_path), None, passes=1)
    assert len(seen.failures) == seen.attempted > 0
    assert all("does not run from x to y" in f or "invalid" in f for f in seen.failures)


def test_rejected_cli_sequence_counts_as_failure(tmp_path, monkeypatch):
    def corrupt(real):
        def solver(g, x, y, *, model):
            verdict, seq = real(g, x, y, model=model)
            outside = next(v for v in g.vertices if v not in seq.start)
            bad = Step.jump(outside, next(v for v in g.vertices if v != outside))
            return verdict, ReconfigSequence(seq.start, (bad,) + seq.steps, seq.model, seq.k)
        return solver

    for name in ("solve_tree", "solve_maxdeg2", "solve_threshold1"):
        monkeypatch.setattr(cli, name, corrupt(getattr(cli, name)))
    seen = run.drive(make("cli-roundtrip", tmp_path), None, passes=1)
    assert len(seen.failures) == seen.attempted > 0
    assert all(f == "tsr check exited 2" for f in seen.failures)


def test_exception_counts_as_failure(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise ValueError("broken")

    monkeypatch.setattr(workloads.oracle, "tj_decide", boom)
    seen = run.drive(make("oracle-search", tmp_path), None, passes=1)
    assert len(seen.failures) == seen.attempted > 0
    assert all("ValueError" in f for f in seen.failures)


def test_tail_needs_ten_samples_beyond():
    assert run.tail([float(i) for i in range(1, 101)]) == (90.0, 90.0, 10)
    assert run.tail([float(i) for i in range(1, 1001)]) == (990.0, 99.0, 10)
    assert run.tail([float(i) for i in range(1, 12)]) == (6.0, 50.0, 5)


def spec():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_metric_lists_match_benchmark_json():
    s = spec()
    assert [m["name"] for m in s["end_to_end"]] == [name for name, _ in run.E2E]
    assert {m["name"]: m["unit"] for m in s["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in s["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_result_line(trace):
    s = spec()
    cmd = s["command"] + ["--workload", "oracle-search", "--seed", "4", "--seconds", "1",
                          "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=HERE.parent)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    wanted = s["per_layer"] if trace else s["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in res["metrics"].items()}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = spec()["command"] + ["--workload", "tree-route", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_unrank_pair_matches_combinations():
    for m in range(2, 30):
        pairs = [workloads.unrank_pair(t, m) for t in range(m * (m - 1) // 2)]
        assert pairs == list(itertools.combinations(range(m), 2))
