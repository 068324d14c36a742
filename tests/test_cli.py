import hashlib
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

from tsr import cli
from tsr.cli import main
from tsr.errors import InvalidInput
from tsr.generators import (
    cycle_with_spacing,
    path_with_spacing,
    random_connected,
    random_cycle,
    random_hitting_system,
    random_maxdeg2,
    random_path,
    random_tree,
    random_with_33_vertex,
)
from tsr.graph import ThresholdGraph, parse_graph, parse_seed_set, serialize_graph
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


def test_check_rejects_repeated_seed_ids(tmp_path, capsys):
    seed = tmp_path / "twice.seed"
    seed.write_text("s 1 1\n")
    code, out, err = run(capsys, "check", FIG1, "--seed", str(seed))
    assert code == 2
    assert err == "error: line 1: repeated id 1\n"
    assert "seed OK" not in out


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


class _Digest:
    """A stdout that keeps only the sha256 of what is written to it."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def write(self, text):
        self.sha.update(text.encode())
        return len(text)

    def writelines(self, lines):
        for line in lines:
            self.write(line)

    def flush(self):
        pass


def test_activate_streams_a_long_cascade(tmp_path, monkeypatch):
    """A threshold-1 P4000 from vertex 1 prints 36 MB, one line a round, and
    the process never holds it whole: it peaks under 60 MB."""
    n = 4000
    graph_file, seed = tmp_path / "p4000.tsr", tmp_path / "one.seed"
    graph_file.write_text(serialize_graph(path_with_spacing(0, [n])))
    seed.write_text("s 1\n")
    argv = ["activate", str(graph_file), "--seed", str(seed)]
    script = (
        "import resource, sys\n"
        "from tsr.cli import main\n"
        f"code = main({argv!r})\n"
        "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
    )
    # a process's ru_maxrss counts the memory of the process it was forked
    # from, so the measured one is started by a small launcher, not by pytest
    launcher = (
        "import subprocess, sys\n"
        "subprocess.run([sys.executable, '-c', sys.argv[1]], stdout=subprocess.DEVNULL, timeout=60)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", launcher, script], env=env, capture_output=True, text=True, timeout=90
    )
    code, max_rss_kb = map(int, proc.stderr.split())  # ru_maxrss is in KB on Linux
    assert code == 0
    assert max_rss_kb < 60 * 1024

    out = _Digest()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(argv) == 0
    want, ids = hashlib.sha256(), []
    for t in range(n):
        ids.append(str(t + 1))
        want.update(f"round {t}: {' '.join(ids)}\n".encode())
    want.update(b"target set\n")
    assert out.sha.hexdigest() == want.hexdigest()


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
    g = parse_graph(pathlib.Path(FIG1).read_text())
    seq = parse_sequence(seqfile.read_text())
    assert validate_sequence(g, seq).ok
    assert seq.end == parse_seed_set((FIXTURES / "fig1_y2.seed").read_text())
    # emitted sequences re-validate through the CLI itself
    code, out, _ = run(capsys, "check", FIG1, "--sequence", str(seqfile))
    assert code == 0 and "sequence OK" in out


@pytest.mark.parametrize("command", ["reconfigure", "oracle"])
def test_unwritable_sequence_path_prints_no_verdict(capsys, tmp_path, command):
    """The sequence file is written before the verdict, so a path that cannot
    be written is an input error (exit 2) with nothing on stdout."""
    seqfile = tmp_path / "missing" / "route.seq"
    code, out, err = run(
        capsys, command, FIG1,
        "--from", str(FIXTURES / "fig1_x2.seed"),
        "--to", str(FIXTURES / "fig1_y2.seed"),
        "--emit-sequence", str(seqfile),
    )
    assert (code, out) == (2, "") and err.startswith("error: "), err
    assert not seqfile.exists()


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
    code, out, _ = run(capsys, "oracle", FIG1, "--size", "3", "--json")
    assert code == 0
    assert out == ('{"components": [[[1, 6, 9], [1, 6, 10]], [[3, 7, 9], [3, 7, 10]]], '
                   '"k": 3, "num_target_sets": 4}\n')


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
    with pytest.raises(SystemExit) as exc:
        main([*argv, option, "x"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert f"argument {option}: invalid int value: 'x'" in err


def test_check_reports_the_first_invalid_step(capsys, tmp_path):
    """A well-formed sequence that breaks a rule prints the graph line, then the
    step at fault, and exits 2."""
    _, text, _ = run(capsys, "gen", "tree", "--n", "6", "--seed", "1")
    graph, seq = tmp_path / "g.tsr", tmp_path / "bad.seq"
    graph.write_text(text)
    seq.write_text("q tj 3\ns 1 2 3\nj 9 4\n")
    assert run(capsys, "check", str(graph), "--sequence", str(seq)) == (2, (
        "graph OK: n=6 m=5\n"
        "sequence INVALID at step 0: jump removes 9 which is not in the set\n"), "")


def test_check_rejects_a_header_size_its_start_set_contradicts(capsys, tmp_path):
    """``tsr check --sequence`` on a TJ file whose 'q' line disagrees with its
    's' line is an input error naming the line, not "sequence OK"."""
    seq = tmp_path / "bad.seq"
    seq.write_text("q tj 9\ns 1 6 9\n")
    code, out, err = run(capsys, "check", FIG1, "--sequence", str(seq))
    assert (code, out) == (2, "graph OK: n=10 m=9\n")
    assert err == "error: line 2: 3 start ids where the 'q' line says 9\n"
    seq.write_text("q tj 3\ns 1 6 9\n")
    code, out, _ = run(capsys, "check", FIG1, "--sequence", str(seq))
    assert code == 0 and out.splitlines()[-1] == "sequence OK: model=tj length=0"


@pytest.mark.parametrize("cap", ["0", "20"])
@pytest.mark.parametrize("command", ["reconfigure", "oracle"])
def test_pair_query_rejects_cap(capsys, tmp_path, command, cap):
    """A pair search is bounded by ``--guard``; ``--cap`` bounds enumeration
    only, so with ``--from``/``--to`` it is an input error (exit 2, nothing on
    stdout, no sequence file) rather than an option silently ignored."""
    seqfile = tmp_path / "route.seq"
    pair = [command, FIG1, "--from", str(FIXTURES / "fig1_x1.seed"), "--to", str(FIXTURES / "fig1_y1.seed")]
    oracle = ["--oracle"] if command == "reconfigure" else []
    code, out, err = run(capsys, *pair, *oracle, "--cap", cap, "--emit-sequence", str(seqfile))
    assert (code, out) == (2, "") and err.startswith("error: --cap applies only to enumeration"), err
    assert not seqfile.exists()
    assert run(capsys, *pair, *oracle)[:2] == (0, "NO\n")


@pytest.mark.parametrize("option", ["--guard", "--cap"])
@pytest.mark.parametrize("command", ["solve-min", "reconfigure"])
def test_solvers_reject_oracle_bounds(capsys, command, option):
    """Without ``--oracle`` nothing searches or enumerates, so ``--guard`` and
    ``--cap`` are input errors (exit 2, one error line, nothing on stdout)
    rather than options silently ignored; ``--cap`` with a pair keeps the
    message ``test_pair_query_rejects_cap`` pins."""
    pair = [] if command == "solve-min" else ["--from", str(FIXTURES / "fig1_x1.seed"), "--to", str(FIXTURES / "fig1_y1.seed")]
    code, out, err = run(capsys, command, FIG1, *pair, option, "3")
    message = (
        "--cap applies only to enumeration (--size, solve-min --oracle); --guard bounds a pair search"
        if pair and option == "--cap" else "--guard and --cap apply only with --oracle"
    )
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert run(capsys, command, FIG1, *pair)[:2] == (0, "NO\n" if pair else "3\n")


def test_enumeration_reads_the_default_cap(capsys):
    """``oracle --size`` and ``solve-min --oracle`` enumerate under ``--cap``,
    ``oracle.DEFAULT_CAP`` when it is not given."""
    from tsr.oracle import DEFAULT_CAP

    assert DEFAULT_CAP >= 10
    for argv in (["oracle", FIG1, "--size", "3"], ["solve-min", FIG1, "--oracle"]):
        assert run(capsys, *argv)[0] == 0
        assert run(capsys, *argv, "--cap", "10")[0] == 0
        code, out, err = run(capsys, *argv, "--cap", "9")
        assert (code, out, err) == (3, "", "error: n=10 exceeds the enumeration cap of 9\n")


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
    digest = hashlib.sha256()
    for kind, n in [("oneway", 4), ("theta", 13), ("theta1", 13), ("xi", 8), ("sigma", 5)]:
        code, out, _ = run(capsys, "gadget", kind)
        assert code == 0
        assert parse_graph(out).n == n
        digest.update(out.encode())
    # the five files, byte for byte
    assert digest.hexdigest() == "e84bfd6154419c3c21a6d56a18f8884ef279980b6d7b80f2108e888d00f3054a"


def test_gen_deterministic(capsys):
    code, out1, _ = run(capsys, "gen", "tree", "--n", "9", "--seed", "5")
    code, out2, _ = run(capsys, "gen", "tree", "--n", "9", "--seed", "5")
    assert out1 == out2
    assert parse_graph(out1).n == 9


def test_gen_emission(capsys):
    """``tsr gen`` of each kind at seeds 1-5, byte for byte: benchmark set-up
    and the seeded tests draw their instances from these generators."""
    digest = hashlib.sha256()
    for argv in (["tree", "--n", "9"], ["path", "--m", "3"], ["cycle", "--m", "4"],
                 ["random-deg2", "--n", "8"], ["hs", "--n", "4", "--m", "3", "--k", "2"]):
        for seed in range(1, 6):
            code, out, _ = run(capsys, "gen", *argv, "--seed", str(seed))
            assert code == 0
            digest.update(out.encode())
    assert digest.hexdigest() == "1c565ea8c65e29e15a06d4b1c462a602df35b8119943429f2aaf39a6ea258f53"


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
        ["hs", "--n", "3", "--m", "2", "--k", "-1"],
        ["random-deg2", "--n", "-3"],
        ["random-deg2", "--n", "1"],
        ["path", "--m", "-2"],
        # a size option the kind does not read
        ["tree", "--n", "6", "--m", "3"],
        ["path", "--m", "0", "--n", "5", "--k", "4", "--seed", "1"],
        ["cycle", "--n", "5"],
        ["random-deg2", "--k", "2"],
    ],
    ids=" ".join,
)
def test_gen_rejects_bad_sizes(argv):
    proc = python("-m", "tsr.cli", "gen", *argv)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    assert proc.stdout == "" and proc.stderr.count("\n") == 1


def test_gen_resolves_its_own_defaults(capsys):
    """Each kind reads only its own size options, each with its own default."""
    for kind, sizes in [("tree", ["--n", "8"]), ("path", ["--m", "3"]), ("cycle", ["--m", "3"]),
                        ("random-deg2", ["--n", "8"]), ("hs", ["--n", "8", "--m", "3", "--k", "1"])]:
        assert run(capsys, "gen", kind, "--seed", "4") == run(capsys, "gen", kind, *sizes, "--seed", "4")
    assert run(capsys, "gen", "path", "--m", "0", "--n", "5", "--k", "4", "--seed", "1") == (
        2, "", "error: gen path takes no --n, --k\n")


def test_random_cycle_rejects_unreachable_size():
    # one threshold-2 vertex plus at most one spacer can never make a cycle
    proc = python("-c", "import random; from tsr.generators import random_cycle; "
                  "random_cycle(random.Random(0), 1, max_gap=1)")
    assert "InvalidInput: m=1 with gaps of at most 1" in proc.stderr


def test_random_tree_and_connected_reject_one_vertex():
    with pytest.raises(InvalidInput) as info:
        random_tree(random.Random(0), 1)
    assert str(info.value) == "a tree needs at least 2 vertices"
    with pytest.raises(InvalidInput) as info:
        random_connected(random.Random(0), 1)
    assert str(info.value) == "need at least 2 vertices"


@pytest.mark.parametrize(
    "make, args, message",
    [
        (path_with_spacing, (2, [1, 1]), "need 3 gaps for m=2"),
        (path_with_spacing, (1, [0, 1]), "end runs must be nonempty when m > 0"),
        (path_with_spacing, (0, [1]), "path needs at least 2 vertices"),
        (cycle_with_spacing, (2, [1]), "need 2 gaps for m=2"),
        (cycle_with_spacing, (0, [2]), "cycle needs at least 3 vertices"),
        (random_path, (-1,), "negative threshold-2 count m=-1"),
        (random_cycle, (-1,), "negative threshold-2 count m=-1"),
        (random_maxdeg2, (1,), "need at least 2 vertices, got n=1"),
        (random_hitting_system, (0, 1, 1), "universe size n=0 must be positive"),
        (random_hitting_system, (3, 1, 3), "target size k=3 must satisfy 1 <= k < n=3"),
        (random_with_33_vertex, (2,), "could not place a (3,3)-vertex in a graph of size 2"),
    ],
    ids=lambda v: getattr(v, "__name__", None),
)
def test_generators_name_their_faults(make, args, message):
    # the random generators take a seeded rng first
    if make not in (path_with_spacing, cycle_with_spacing):
        args = (random.Random(0), *args)
    with pytest.raises(InvalidInput) as info:
        make(*args)
    assert str(info.value) == message


@pytest.mark.parametrize("m", [0, 1])
def test_random_path_rejects_gapless_ends(m):
    # checked before the first draw, so valid arguments keep their seeded streams
    with pytest.raises(InvalidInput, match="max_gap=0 must be at least 1"):
        random_path(random.Random(0), m, max_gap=0)


@pytest.mark.parametrize("m", [0, 1])
def test_random_cycle_rejects_negative_gaps(m):
    # checked before the first draw, so valid arguments keep their seeded streams
    with pytest.raises(InvalidInput, match="max_gap=-1 must be at least 0"):
        random_cycle(random.Random(0), m, max_gap=-1)


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "check", "no_such_file.tsr")
    assert code == 2 and "error" in err


@pytest.mark.parametrize("role", ["graph", "seed", "sequence", "hs"])
def test_non_utf8_file_is_input_error(capsys, tmp_path, role):
    """A file holding a byte that is not UTF-8 exits 2 with one ``error:`` line
    naming it, and prints nothing on stdout."""
    bad = tmp_path / f"bad.{role}"
    bad.write_bytes(b"s 1 6 9\n\xff\n")
    argv = {
        "graph": ["check", str(bad)],
        "seed": ["activate", FIG1, "--seed", str(bad)],
        "sequence": ["check", FIG1, "--sequence", str(bad)],
        "hs": ["reduce", "split", str(bad)],
    }[role]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {bad}: not UTF-8 text (byte 8: invalid start byte)\n"


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


def test_reconfigure_dispatches_to_the_named_solvers(capsys, tmp_path, monkeypatch):
    """``tsr reconfigure`` hands an all-threshold-1 graph to ``solve_threshold1``,
    a tree (here a path with a threshold-2 vertex) to ``solve_tree``, a graph of
    maximum degree 2 to ``solve_maxdeg2`` and any other covered graph (a tree
    beside a cycle) to ``solve``, each looked up on ``tsr.cli`` per call."""
    calls = []

    def recorder(name, real):
        def solver(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return solver

    for name in ("solve_threshold1", "solve_tree", "solve_maxdeg2", "solve"):
        monkeypatch.setattr(cli, name, recorder(name, getattr(cli, name)))

    def graph(name, taus, edges):
        path = tmp_path / f"{name}.tsr"
        path.write_text(serialize_graph(ThresholdGraph.build(len(taus), edges, taus)))
        return str(path)

    def seed(ids):
        path = tmp_path / f"s{'-'.join(map(str, ids))}.seed"
        path.write_text(f"s {' '.join(map(str, ids))}\n")
        return str(path)

    star_c4 = graph("star-c4", [2, 1, 1, 1, 2, 2, 2, 2], [(1, 2), (1, 3), (1, 4), (5, 6), (6, 7), (7, 8), (5, 8)])
    cases = [
        (graph("triangle", [1, 1, 1], [(1, 2), (2, 3), (1, 3)]), seed([1]), seed([2]), "solve_threshold1"),
        (graph("p3", [1, 2, 1], [(1, 2), (2, 3)]), seed([1, 3]), seed([1, 2]), "solve_tree"),
        (FIG1, str(FIXTURES / "fig1_x2.seed"), str(FIXTURES / "fig1_y2.seed"), "solve_maxdeg2"),
        (star_c4, seed([1, 2, 5, 7]), seed([1, 2, 6, 8]), "solve"),
    ]
    for g, x, y, name in cases:
        calls.clear()
        code, out, _ = run(capsys, "reconfigure", g, "--from", x, "--to", y)
        assert (code, out, calls) == (0, "YES\n", [name])


@pytest.mark.parametrize("kind,source", [("split", HS), ("pb342", K4)])
def test_reduce_rejects_seed_ids_outside_the_input(capsys, tmp_path, kind, source):
    """A seed id outside the input graph (or hitting-system universe) exits 2 before
    any output: no file with ``-o``, nothing on stdout without it."""
    good, bad = tmp_path / "good.seed", tmp_path / "bad.seed"
    good.write_text("s 1 2\n")
    bad.write_text("s 99\n")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    for src, dst in ((bad, good), (good, bad)):
        code, out, err = run(capsys, "reduce", kind, source, "-o", str(out_dir / "r"), "--from", str(src), "--to", str(dst))
        assert (code, out) == (2, "") and "99" in err
        assert list(out_dir.iterdir()) == []
        code, out, err = run(capsys, "reduce", kind, source, "--from", str(src), "--to", str(dst))
        assert (code, out) == (2, "") and "99" in err
    code, _, _ = run(capsys, "reduce", kind, source, "-o", str(out_dir / "r"), "--from", str(good), "--to", str(good))
    assert code == 0 and (out_dir / "r.from.seed").exists()


def test_tar_budget_without_oracle_is_usage_error(capsys, tmp_path):
    """The solvers answer the |x|-TAR question only, so ``--k`` needs ``--oracle``:
    on a threshold-2 C4, {1, 3} reaches {2, 4} within budget 3 but not within 2."""
    g = tmp_path / "c4.tsr"
    g.write_text(serialize_graph(cycle_with_spacing(4, [0, 0, 0, 0])))
    x, y, seqfile = tmp_path / "x.seed", tmp_path / "y.seed", tmp_path / "route.seq"
    x.write_text("s 1 3\n")
    y.write_text("s 2 4\n")
    pair = ["reconfigure", str(g), "--from", str(x), "--to", str(y), "--model", "tar"]
    code, out, err = run(capsys, *pair, "--k", "3", "--emit-sequence", str(seqfile))
    assert (code, out) == (2, "") and "--oracle" in err
    assert not seqfile.exists()
    assert run(capsys, *pair)[:2] == (0, "NO\n")
    assert run(capsys, *pair, "--oracle", "--k", "3")[:2] == (0, "YES\n")


@pytest.mark.parametrize("options", ["--oracle --k 7", "--oracle --model tj --k 7", "--model tar --k 7"])
def test_reconfigure_rejects_a_budget_it_would_ignore(capsys, tmp_path, options):
    """``--k`` needs ``--oracle`` and ``--model tar``, as in ``tsr oracle``:
    otherwise exit 2, nothing on stdout, no sequence file."""
    seqfile = tmp_path / "route.seq"
    pair = ["reconfigure", FIG1, "--from", str(FIXTURES / "fig1_x1.seed"), "--to", str(FIXTURES / "fig1_y1.seed")]
    code, out, err = run(capsys, *pair, *options.split(), "--emit-sequence", str(seqfile))
    assert (code, out) == (2, "") and err.startswith("error: --k applies only with "), err
    assert not seqfile.exists()
    assert run(capsys, *pair, "--oracle", "--model", "tar", "--k", "7")[:2] == (0, "YES\n")


def test_cold_commands_leave_numpy_unloaded(capsys, tmp_path):
    """No command needs numpy: a fresh interpreter that imports ``tsr`` and runs
    commands that never enumerate does not load it, nor does ``tsr oracle
    --size``, which prints what it prints in this process."""
    x, y = tmp_path / "x.seed", tmp_path / "y.seed"
    x.write_text("s 1 2 6 8 9\n")
    y.write_text("s 1 5 6 12 14\n")
    script = """
import contextlib, io, sys
import tsr, tsr.cli
tree, x, y, tmp = sys.argv[1:]
argvs = []
for model in ("tj", "tar"):
    seq = f"{tmp}/{model}.seq"
    argvs += [
        ["reconfigure", tree, "--from", x, "--to", y, "--model", model, "--emit-sequence", seq],
        ["check", tree, "--sequence", seq],
    ]
argvs += [["activate", tree, "--seed", x], ["solve-min", tree]]
for argv in argvs:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = tsr.cli.main(argv)
    assert code == 0 and out.getvalue(), (argv, code, out.getvalue())
print("numpy" in sys.modules)
assert tsr.cli.main(["oracle", tree, "--size", "5"]) == 0
print("numpy" in sys.modules)
"""
    proc = python("-c", script, TREE, str(x), str(y), str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    before, *report, after = proc.stdout.splitlines()
    assert (before, after) == ("False", "False")
    code, out, _ = run(capsys, "oracle", TREE, "--size", "5")
    assert code == 0 and report == out.splitlines()


@pytest.mark.parametrize(
    "options",
    [
        "--from X --to Y --k 3",
        "--from X --to Y --model tj --k 3",
        "--from X",
        "--to Y --model tar",
        "--size 2 --model tar --k 3 --emit-sequence SEQ",
        "--size 2 --model tj",
        "--size 2 --k 3",
        "--size 2 --emit-sequence SEQ",
        "--size 2 --from X --to Y",
        "--json",
    ],
)
def test_oracle_rejects_options_it_would_ignore(capsys, tmp_path, options):
    """``tsr oracle`` options that the query would not use are input errors:
    exit 2, nothing on stdout, no sequence file.  On a threshold-2 C4, {1, 3}
    reaches {2, 4} within TAR budget 3 but not within 2, and the emitted
    route checks."""
    g = tmp_path / "c4.tsr"
    g.write_text(serialize_graph(cycle_with_spacing(4, [0, 0, 0, 0])))
    x, y, seqfile = tmp_path / "x.seed", tmp_path / "y.seed", tmp_path / "route.seq"
    x.write_text("s 1 3\n")
    y.write_text("s 2 4\n")
    files = {"X": str(x), "Y": str(y), "SEQ": str(seqfile)}
    argv = [files.get(a, a) for a in options.split()]
    code, out, err = run(capsys, "oracle", str(g), *argv)
    assert (code, out) == (2, "") and err.startswith("error: "), (code, out, err)
    assert not seqfile.exists()
    pair = ["oracle", str(g), "--from", str(x), "--to", str(y), "--model", "tar"]
    assert run(capsys, *pair, "--k", "2")[:2] == (0, "NO\n")
    assert run(capsys, *pair, "--k", "3", "--emit-sequence", str(seqfile))[:2] == (0, "YES\nshortest length 4\n")
    code, out, _ = run(capsys, "check", str(g), "--sequence", str(seqfile))
    assert (code, out.splitlines()[-1]) == (0, "sequence OK: model=tar length=4")
