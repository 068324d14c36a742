import json
import os
import pathlib
import subprocess
import sys

import pytest

from tsr.cli import main
from tsr.graph import parse_graph, parse_seed_set
from tsr.reconfig import parse_sequence, validate_sequence

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

FIG1 = str(FIXTURES / "fig1.tsr")
THETA = str(FIXTURES / "theta.tsr")
THETA1 = str(FIXTURES / "theta_r1.tsr")
TREE = str(FIXTURES / "fig5_tree.tsr")
HS = str(FIXTURES / "hs_small.hs")
K4 = str(FIXTURES / "k4.tsr")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_graph_and_seed(capsys):
    code, out, _ = run(capsys, "check", FIG1, "--seed", str(FIXTURES / "fig1_x1.seed"))
    assert code == 0
    assert "graph OK: n=10 m=9" in out
    assert "target set" in out


def test_check_rejects_malformed(tmp_path, capsys):
    bad = tmp_path / "bad.tsr"
    bad.write_text("p tsr 2 1\nv 1 1\nv 2 9\ne 1 2\n")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2
    assert "error" in err


def test_check_sequence_rejects_negative_k(tmp_path, capsys):
    seq = tmp_path / "neg.seq"
    seq.write_text("q tar -3\ns 1 6 9 10\n")
    code, out, err = run(capsys, "check", FIG1, "--sequence", str(seq))
    assert code == 2
    assert "negative k" in err and "Traceback" not in err + out


def test_activate_trace(capsys, tmp_path):
    seed = tmp_path / "m.seed"
    seed.write_text("s 2 9 13\n")
    code, out, _ = run(capsys, "activate", THETA, "--seed", str(seed))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "round 0: 2 9 13"
    assert len([l for l in lines if l.startswith("round")]) == 8
    assert lines[-1] == "target set"


def test_solve_min_tree(capsys):
    code, out, _ = run(capsys, "solve-min", TREE)
    assert code == 0 and out.strip() == "4"


def test_solve_min_maxdeg2(capsys):
    code, out, _ = run(capsys, "solve-min", FIG1)
    assert code == 0 and out.strip() == "3"


def test_solve_min_needs_oracle(capsys):
    code, out, err = run(capsys, "solve-min", K4)
    assert code == 3 and "oracle" in err
    code, out, _ = run(capsys, "solve-min", K4, "--oracle")
    assert code == 0 and out.strip() == "3"


def test_reconfigure_fig1_no(capsys):
    code, out, _ = run(
        capsys, "reconfigure", FIG1,
        "--from", str(FIXTURES / "fig1_x1.seed"),
        "--to", str(FIXTURES / "fig1_y1.seed"),
    )
    assert code == 0 and out.strip() == "NO"


def test_reconfigure_fig1_yes_with_sequence(capsys, tmp_path):
    seqfile = tmp_path / "route.seq"
    code, out, _ = run(
        capsys, "reconfigure", FIG1,
        "--from", str(FIXTURES / "fig1_x2.seed"),
        "--to", str(FIXTURES / "fig1_y2.seed"),
        "--emit-sequence", str(seqfile),
    )
    assert code == 0 and out.strip() == "YES"
    g = parse_graph(open(FIG1).read())
    seq = parse_sequence(seqfile.read_text())
    assert validate_sequence(g, seq).ok
    assert seq.end == parse_seed_set(open(FIXTURES / "fig1_y2.seed").read())
    # emitted sequences re-validate through the CLI itself
    code, out, _ = run(capsys, "check", FIG1, "--sequence", str(seqfile))
    assert code == 0 and "sequence OK" in out


@pytest.mark.parametrize("model", ["tj", "tar"])
def test_reconfigure_same_endpoints_writes_no_steps(capsys, tmp_path, model):
    seed = tmp_path / "s.seed"
    seed.write_text("s 1 3 6 8 9\n")
    seqfile = tmp_path / "route.seq"
    code, out, _ = run(
        capsys, "reconfigure", TREE, "--from", str(seed), "--to", str(seed),
        "--model", model, "--emit-sequence", str(seqfile),
    )
    assert code == 0 and out.strip() == "YES"
    assert seqfile.read_text() == f"q {model} 5\ns 1 3 6 8 9\n"


def test_reconfigure_non_target_endpoint_is_input_error(capsys, tmp_path):
    x, y = tmp_path / "x.seed", tmp_path / "y.seed"
    x.write_text("s 1 3 6 8 9\n")
    y.write_text("s 10 11 12 13 14\n")
    code, out, err = run(capsys, "reconfigure", TREE, "--from", str(x), "--to", str(y))
    assert (code, out) == (2, "")
    assert err == "error: [10, 11, 12, 13, 14] is not a target set\n"


def test_reconfigure_oracle_fallback(capsys, tmp_path):
    x = tmp_path / "x.seed"
    y = tmp_path / "y.seed"
    x.write_text("s 1 2 3\n")
    y.write_text("s 1 2 4\n")
    code, _, err = run(capsys, "reconfigure", K4, "--from", str(x), "--to", str(y))
    assert code == 3
    code, out, _ = run(
        capsys, "reconfigure", K4, "--from", str(x), "--to", str(y), "--oracle"
    )
    assert code == 0 and out.strip() == "YES"


def test_oracle_theta_size2(capsys):
    code, out, _ = run(capsys, "oracle", THETA1, "--size", "2")
    assert code == 0
    assert out.splitlines()[0] == "0 target sets"


def test_oracle_pair_json(capsys, tmp_path):
    x = tmp_path / "x.seed"
    y = tmp_path / "y.seed"
    x.write_text("s 1 6 9 10\n")
    y.write_text("s 3 7 9 10\n")
    code, out, _ = run(
        capsys, "oracle", FIG1, "--from", str(x), "--to", str(y), "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["reconfigurable"] is True
    assert payload["shortest_length"] == 3


def test_oracle_components(capsys):
    code, out, _ = run(capsys, "oracle", FIG1, "--size", "3")
    assert code == 0
    assert "target sets" in out.splitlines()[0]
    assert any(line.startswith("component") for line in out.splitlines())


@pytest.mark.parametrize("option", ["--guard", "--cap"])
@pytest.mark.parametrize(
    "argv",
    [
        ["solve-min", THETA, "--oracle"],
        ["oracle", FIG1, "--size", "3"],
        ["reconfigure", FIG1, "--from", str(FIXTURES / "fig1_x1.seed"),
         "--to", str(FIXTURES / "fig1_y1.seed"), "--oracle"],
    ],
    ids=lambda argv: argv[0],
)
def test_negative_guard_or_cap_is_usage_error(capsys, argv, option):
    with pytest.raises(SystemExit) as exc:
        main([*argv, option, "-5"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert f"argument {option}: must not be negative, got -5" in err


def test_reduce_split_stdout(capsys):
    code, out, _ = run(capsys, "reduce", "split", HS)
    assert code == 0
    g = parse_graph(out)
    assert g.n == 6  # 3 universe + 2 family + apex


def test_reduce_writes_files(capsys, tmp_path):
    prefix = tmp_path / "out"
    code, out, _ = run(capsys, "reduce", "split", HS, "-o", str(prefix))
    assert code == 0
    assert (tmp_path / "out.tsr").exists()
    origin = (tmp_path / "out.origin").read_text()
    assert "origin 6 apex" in origin


def test_reduce_pb342(capsys, tmp_path):
    prefix = tmp_path / "j"
    code, _, _ = run(capsys, "reduce", "pb342", K4, "-o", str(prefix))
    assert code == 0
    g = parse_graph((tmp_path / "j.tsr").read_text())
    assert set(g.tau[1:]) == {2}


def test_gadget_emission(capsys):
    for kind, n in [("oneway", 4), ("theta", 13), ("theta1", 13), ("xi", 8), ("sigma", 5)]:
        code, out, _ = run(capsys, "gadget", kind)
        assert code == 0
        assert parse_graph(out).n == n


def test_gen_deterministic(capsys):
    code, out1, _ = run(capsys, "gen", "tree", "--n", "9", "--seed", "5")
    code, out2, _ = run(capsys, "gen", "tree", "--n", "9", "--seed", "5")
    assert out1 == out2
    assert parse_graph(out1).n == 9


def test_gen_kinds(capsys):
    for argv, check in [
        (["gen", "path", "--m", "3", "--seed", "1"], lambda o: parse_graph(o)),
        (["gen", "cycle", "--m", "4", "--seed", "1"], lambda o: parse_graph(o)),
        (["gen", "random-deg2", "--n", "8", "--seed", "1"], lambda o: parse_graph(o)),
    ]:
        code, out, _ = run(capsys, *argv)
        assert code == 0
        check(out)
    code, out, _ = run(capsys, "gen", "hs", "--n", "4", "--m", "3", "--k", "2", "--seed", "2")
    assert code == 0 and out.startswith("p hs 4 3 2")


def python(*args):
    """Run the interpreter on src/ in a subprocess with a timeout, so that a
    generator that loops fails the test instead of hanging it."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=30
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["cycle", "--m", "-1"],
        ["hs", "--n", "0"],
        ["hs", "--n", "3", "--k", "3"],
        ["hs", "--n", "3", "--k", "0"],
        ["random-deg2", "--n", "-3"],
        ["random-deg2", "--n", "1"],
        ["path", "--m", "-2"],
    ],
    ids=" ".join,
)
def test_gen_rejects_bad_sizes(argv):
    proc = python("-m", "tsr.cli", "gen", *argv)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


def test_random_cycle_rejects_unreachable_size():
    # one threshold-2 vertex plus at most one spacer can never make a cycle
    proc = python("-c", "import random; from tsr.generators import random_cycle; "
                  "random_cycle(random.Random(0), 1, max_gap=1)")
    assert "InvalidInput: m=1 with gaps of at most 1" in proc.stderr


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "check", "no_such_file.tsr")
    assert code == 2 and "error" in err


def test_reconfigure_solver_and_oracle_agree_on_tractable(capsys):
    for xs, ys in [("fig1_x1.seed", "fig1_y1.seed"), ("fig1_x2.seed", "fig1_y2.seed")]:
        args = ["reconfigure", FIG1, "--from", str(FIXTURES / xs), "--to", str(FIXTURES / ys)]
        _, solver_out, _ = run(capsys, *args)
        _, oracle_out, _ = run(capsys, *args, "--oracle")
        assert solver_out.strip() == oracle_out.strip()


def test_solve_min_oracle_agrees(capsys):
    _, fast, _ = run(capsys, "solve-min", FIG1)
    _, slow, _ = run(capsys, "solve-min", FIG1, "--oracle")
    assert fast == slow


def test_reconfigure_tree_beside_terrible_cycle_needs_no_oracle(capsys, tmp_path):
    """A star with a threshold-2 center beside a threshold-2 C4 is neither a tree
    nor of maximum degree 2; the component-wise solver decides it."""
    g = tmp_path / "mixed.tsr"
    g.write_text(
        "p tsr 8 7\n" + "".join(f"v {v} {t}\n" for v, t in zip(range(1, 9), [2, 1, 1, 1, 2, 2, 2, 2]))
        + "e 1 2\ne 1 3\ne 1 4\ne 5 6\ne 6 7\ne 7 8\ne 5 8\n"
    )
    seeds = {}
    for name, ids in (("x", "1 5 7"), ("y", "1 6 8"), ("x1", "1 2 5 7"), ("y1", "1 2 6 8"), ("k4", "1 2 3")):
        seeds[name] = tmp_path / f"{name}.seed"
        seeds[name].write_text(f"s {ids}\n")
    code, out, _ = run(capsys, "solve-min", str(g))
    assert (code, out) == (0, "3\n")
    code, out, _ = run(capsys, "reconfigure", str(g), "--from", str(seeds["x"]), "--to", str(seeds["y"]))
    assert (code, out) == (0, "NO\n")
    seqfile = tmp_path / "route.seq"
    for model in ("tj", "tar"):
        code, out, _ = run(
            capsys, "reconfigure", str(g), "--from", str(seeds["x1"]), "--to", str(seeds["y1"]),
            "--model", model, "--emit-sequence", str(seqfile),
        )
        assert (code, out) == (0, "YES\n")
        code, out, _ = run(capsys, "check", str(g), "--sequence", str(seqfile))
        assert code == 0 and f"sequence OK: model={model}" in out
        seq = parse_sequence(seqfile.read_text())
        assert (seq.start, seq.end) == ({1, 2, 5, 7}, {1, 2, 6, 8})
    code, _, err = run(capsys, "reconfigure", K4, "--from", str(seeds["k4"]), "--to", str(seeds["k4"]))
    assert code == 3 and "--oracle" in err


@pytest.mark.parametrize("kind,source", [("split", HS), ("pb342", K4)])
def test_reduce_rejects_seed_ids_outside_the_input(capsys, tmp_path, kind, source):
    """A seed id outside the input graph (or hitting-system universe) exits 2 before any file is written."""
    good, bad = tmp_path / "good.seed", tmp_path / "bad.seed"
    good.write_text("s 1 2\n")
    bad.write_text("s 99\n")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    for src, dst in ((bad, good), (good, bad)):
        code, out, err = run(capsys, "reduce", kind, source, "-o", str(out_dir / "r"), "--from", str(src), "--to", str(dst))
        assert (code, out) == (2, "") and "99" in err
        assert list(out_dir.iterdir()) == []
    code, _, _ = run(capsys, "reduce", kind, source, "-o", str(out_dir / "r"), "--from", str(good), "--to", str(good))
    assert code == 0 and (out_dir / "r.from.seed").exists()
