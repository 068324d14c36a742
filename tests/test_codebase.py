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


def _uses(dirs, skip=()):
    """How often the Python files under ``dirs`` (less ``skip``) use each name:
    an ``ast.Name`` id or an import alias counts for ``name``, an
    ``ast.Attribute`` attr for ``.name``.  Docstrings, comments and
    definitions count for nothing."""
    uses = collections.Counter()
    for path in (p for d in dirs for p in sorted((ROOT / d).rglob("*.py")) if p not in skip):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Name):
                uses[node.id] += 1
            elif isinstance(node, ast.alias):
                uses[node.name.rsplit(".", 1)[-1]] += 1
            elif isinstance(node, ast.Attribute):
                uses["." + node.attr] += 1
    return uses


def test_no_dead_definitions():
    """Every function and class defined in ``src/tsr`` is used in ``src/``,
    ``tests/``, ``demos/`` or ``bench/``."""
    uses = _uses(("src", "tests", "demos", "bench"))
    dead = [
        f"{path.name}:{node.lineno} {node.name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("__")
        and not uses[node.name] + uses["." + node.name]
    ]
    assert not dead, f"defined but never used: {dead}"


def test_public_surface_is_documented():
    """A public function, class or method of ``src/tsr`` that nothing in ``src/``
    or ``bench/`` uses (a re-export in ``__init__`` is not use, and a method is
    used only as an attribute) is API only if README's "Public surface" lists
    it as ``module.name``; every listed name is defined."""
    uses = _uses(("src", "bench"), skip={ROOT / "src" / "tsr" / "__init__.py"})
    defined = {}
    for path in SOURCES:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined[f"{path.stem}.{node.name}"] = uses[node.name] + uses["." + node.name]
                for sub in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        defined[f"{path.stem}.{node.name}.{sub.name}"] = uses["." + sub.name]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Public surface\n", 1)[1].split("\n## ", 1)[0]
    listed = set(re.findall(r"`(\w+(?:\.\w+)+)`", section))
    unlisted = sorted(q for q, used in defined.items() if not used and q not in listed)
    assert not unlisted, f"used by nothing in src/ or bench/ and not in README's Public surface: {unlisted}"
    assert listed <= defined.keys(), f"listed but not defined: {sorted(listed - defined.keys())}"


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


def test_sources_import_only_the_standard_library():
    """The package has no runtime dependency: every absolute import in
    ``src/tsr`` names a standard-library module."""
    foreign = []
    for path in SOURCES:
        nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))))
        names = [alias.name for node in nodes if isinstance(node, ast.Import) for alias in node.names]
        names += [node.module for node in nodes if isinstance(node, ast.ImportFrom) and not node.level]
        foreign += [f"{path.name}: {name}" for name in names if name.split(".")[0] not in sys.stdlib_module_names]
    assert not foreign, foreign


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


def test_records_is_the_one_line_tokenizer():
    """Every file format is read through ``graph.records``: it is the one
    function in ``src/tsr`` that calls ``.splitlines()``, so no parser forks a
    tokenizer of its own."""
    callers = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        fns = [fn for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "splitlines":
                # ast.walk is breadth-first, so the last enclosing function is the innermost
                inner = [fn.name for fn in fns if fn.lineno <= node.lineno <= fn.end_lineno]
                callers.append(f"{path.stem}.{inner[-1] if inner else '<module>'}")
    assert callers == ["graph.records"]


def test_chen_only_in_the_component_plan():
    """Chen's regions live in one tree plan, the component plan: the one call
    of ``_chen`` in ``src/tsr`` is the tree case of ``solvers._component``."""
    callers = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        fns = [fn for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "_chen":
                # ast.walk is breadth-first, so the last enclosing function is the innermost
                inner = [fn.name for fn in fns if fn.lineno <= node.lineno <= fn.end_lineno]
                callers.append(f"{path.stem}.{inner[-1] if inner else '<module>'}")
    assert callers == ["solvers._component"]


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


def test_seed_maps_are_data():
    """A reduction's seed maps are ``ReductionOutput.forward`` and ``.backward``
    over its fields: no function in ``reductions`` defines a closure, and those
    two methods are the only callers of the id check ``_source_seed``."""
    tree = ast.parse((ROOT / "src" / "tsr" / "reductions.py").read_text(encoding="utf-8"))
    fns = [fn for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))]
    nested = [f"{fn.name}.{sub.name}" for fn in fns for sub in ast.walk(fn) if sub is not fn and sub in fns]
    assert not nested, f"nested functions in reductions: {nested}"
    callers = []
    for path in SOURCES:
        body = ast.parse(path.read_text(encoding="utf-8")).body
        scopes = [(f"{path.stem}.{cls.name}.", cls.body) for cls in body if isinstance(cls, ast.ClassDef)]
        for prefix, nodes in [(f"{path.stem}.", body)] + scopes:
            callers += [
                prefix + fn.name
                for fn in nodes
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                and any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_source_seed" for n in ast.walk(fn))
            ]
    assert sorted(callers) == ["reductions.ReductionOutput.backward", "reductions.ReductionOutput.forward"]


def test_gadgets_are_data():
    """Each gadget is one spec: ``gadgets`` defines no public function but
    ``attach`` and ``project``, and every ``.graft(`` call in ``src/tsr``
    passes exactly (spec, anchors), with no labels or hookups of its own."""
    tree = ast.parse((ROOT / "src" / "tsr" / "gadgets.py").read_text(encoding="utf-8"))
    public = [fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")]
    assert public == ["attach", "project"]
    calls = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "graft":
                labels = [n.value for n in ast.walk(node) if isinstance(n, ast.Constant) and isinstance(n.value, str)]
                calls.append((f"{path.name}:{node.lineno}", len(node.args), len(node.keywords), labels))
    assert len(calls) >= 6
    bad = [call for call in calls if call[1:] != (2, 0, [])]
    assert not bad, f"graft calls not of the form graft(spec, anchors): {bad}"
