import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "e0struct"


def _names_in(node):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _used_names(tree):
    """Names the module reads: in code, in quoted annotations, and in
    __all__ (a package re-exports what it imports)."""
    used = _names_in(tree)
    for node in ast.walk(tree):
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations = [a.annotation for a in (
                args.posonlyargs + args.args + args.kwonlyargs
                + [args.vararg, args.kwarg]) if a is not None]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= _names_in(ast.parse(ann.value, mode="eval"))
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= {c.value for c in ast.walk(node.value)
                     if isinstance(c, ast.Constant)}
    return used


def _unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = _used_names(tree)
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("module", sorted(p.stem for p in
                                          PACKAGE.glob("*.py")))
def test_no_unused_imports(module):
    # [DERIVED] every name a module imports is read somewhere in it
    assert _unused_imports(PACKAGE / f"{module}.py") == []


def test_trace_targets_resolve():
    # [DERIVED] the benchmark's trace mode (perfbench/tracer.py) patches
    # these program names; a refactor that drops one breaks
    # `perfbench/run.py --trace 1`, which no other test runs
    spec = importlib.util.spec_from_file_location(
        "_bench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    import e0struct.cli  # noqa: F401  loads every program module
    for _name, modname, attr in tracer.TIMED + tracer.COUNTED:
        owner, key = tracer._resolve(modname, attr)
        assert callable(getattr(owner, key, None)), (modname, attr)
    fg = sys.modules["e0struct.formal_group"]
    for cache in ("_GEN_F", "_GEN_MULT", "_GEN_LOG"):
        assert isinstance(getattr(fg, cache, None), dict), cache
    ff = sys.modules["e0struct.residue_field"].FiniteField
    assert callable(getattr(ff, "__iter__", None))


def test_cli_import_loads_only_click_and_numpy():
    # the oracle runs on numpy alone and the descriptor check on plain
    # Python; a fresh interpreter shows which packages outside the standard
    # library the import of the CLI pulls in
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import sys; before = set(sys.modules); import e0struct.cli; "
            "print(sorted({m.split('.')[0] for m in set(sys.modules) - before}"
            " - set(sys.stdlib_module_names)))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "['click', 'e0struct', 'numpy']"
