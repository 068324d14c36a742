"""Checks over the package source and the demo scripts as a whole."""

import ast
import collections
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "tsr").glob("*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    """Invariants raise typed errors: ``python -O`` strips ``assert``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert on lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_raise_assertion_error(path):
    """Invariants raise a TsrError subclass, never a bare AssertionError."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise)
        and node.exc is not None
        and "AssertionError" in {n.id for n in ast.walk(node.exc) if isinstance(n, ast.Name)}
    ]
    assert not lines, f"{path.name}: raise AssertionError on lines {lines}"


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(path)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr



def test_cli_subprocess_matches_in_process(tmp_path, capsys, monkeypatch):
    """``python -O -m tsr.cli`` prints what ``main`` prints in-process, and the
    parser, built once per process, gives the same ``--help`` on every call."""
    from tsr.cli import main

    monkeypatch.setenv("COLUMNS", "80")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def cli(*args):
        return subprocess.run(
            [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
        )

    seed = tmp_path / "m.seed"
    seed.write_text("s 2 9 13\n")
    argv = ["activate", str(ROOT / "tests" / "fixtures" / "theta.tsr"), "--seed", str(seed)]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    assert expected.endswith("round 7: " + " ".join(map(str, range(1, 14))) + "\ntarget set\n")
    proc = cli("-O", "-m", "tsr.cli", *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected, "")

    helps = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        helps.append(capsys.readouterr().out)
    proc = cli("-m", "tsr.cli", "--help")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("usage: tsr ")
    assert helps == [proc.stdout, proc.stdout]


def test_no_dead_definitions():
    """Every function and class defined in ``src/tsr`` is named somewhere else
    in ``src/``, ``tests/``, ``demos/`` or ``bench/``."""
    files = [p for d in ("src", "tests", "demos", "bench") for p in sorted((ROOT / d).rglob("*.py"))]
    words = collections.Counter()
    for p in files:
        words.update(re.findall(r"\w+", p.read_text(encoding="utf-8")))
    dead = [
        f"{path.name}:{node.lineno} {node.name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("__")
        and words[node.name] < 2
    ]
    assert not dead, f"defined but never named elsewhere: {dead}"


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_no_unused_imports(path):
    """Every module-level import in ``src/tsr`` (``__future__`` aside) is used in its module."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [
        f"{node.lineno} {alias.asname or alias.name}"
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
        if (alias.asname or alias.name.split(".")[0]) not in used
    ]
    assert not unused, f"{path.name}: unused imports on lines {unused}"


def test_numpy_only_in_oracle():
    """numpy, the package's one dependency, is imported only by ``oracle.py``,
    whose batch closure core is its one user."""
    users = []
    for path in SOURCES:
        nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))))
        names = [alias.name for node in nodes if isinstance(node, ast.Import) for alias in node.names]
        names += [node.module or "" for node in nodes if isinstance(node, ast.ImportFrom)]
        if any(name.split(".")[0] == "numpy" for name in names):
            users.append(path.name)
    assert users == ["oracle.py"]


def test_tar_to_tj_only_in_the_join():
    """Every solver's TJ answer is ``tar_to_tj`` of its checked TAR route, so the
    one function in ``src/tsr`` that calls it is the join, ``solvers._joined``."""
    callers = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                isinstance(node, ast.Call)
                and getattr(node.func, "id", getattr(node.func, "attr", None)) == "tar_to_tj"
                for node in ast.walk(fn)
            ):
                callers.append(f"{path.stem}.{fn.name}")
    assert callers == ["solvers._joined"]


def test_one_solver_behind_the_named_solvers():
    """``solvers.solve`` is the one caller of the join ``_joined``, and each named
    solver calls it, so the three stay thin entry points."""
    calls = {}
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                calls[f"{path.stem}.{fn.name}"] = {
                    getattr(node.func, "id", getattr(node.func, "attr", None))
                    for node in ast.walk(fn)
                    if isinstance(node, ast.Call)
                }
    assert [name for name, called in calls.items() if "_joined" in called] == ["solvers.solve"]
    for name in ("solve_tree", "solve_threshold1", "solve_maxdeg2"):
        assert "solve" in calls[f"solvers.{name}"]
