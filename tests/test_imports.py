import ast
import importlib.util
import json
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


def test_classifier_reads_no_mult_by_p_series():
    # [DERIVED] the ramified g-map takes t([p]P) from the ladder on one
    # point of E(K); the [p] series, its truncation degree and its
    # evaluation serve only the generic tables and verify-point
    tree = ast.parse((PACKAGE / "classifier.py").read_text())
    names = _names_in(tree) | {
        n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)} | {
        alias.asname or alias.name for n in ast.walk(tree)
        if isinstance(n, (ast.Import, ast.ImportFrom)) for alias in n.names}
    assert names.isdisjoint({"eval_at", "mult_degree",
                             "specialized_mult_by_n"})


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


def _fresh_python(code, *args):
    """stdout of `code` run in a fresh interpreter that imports e0struct
    from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True,
                          check=True).stdout.strip()


def test_cli_import_loads_only_click_and_numpy():
    # the oracle runs on numpy alone and the descriptor check on plain
    # Python; a fresh interpreter shows which packages outside the standard
    # library the import of the CLI pulls in
    code = ("import sys; before = set(sys.modules); import e0struct.cli; "
            "print(sorted({m.split('.')[0] for m in set(sys.modules) - before}"
            " - set(sys.stdlib_module_names)))")
    assert _fresh_python(code) == "['click', 'e0struct', 'numpy']"


def test_classify_executes_no_numpy():
    # [DERIVED] numpy is imported lazily for the oracle, so classify runs
    # without executing it: none of its submodules is loaded
    code = ("import sys; from click.testing import CliRunner; "
            "from e0struct.cli import main; "
            "print([CliRunner().invoke(main, ['classify', '-'], input=d)"
            ".exit_code for d in sys.argv[1:]], "
            "[m for m in sys.modules if m.startswith('numpy.')])")
    descs = [{"p": 5, "field": {"kind": "unramified", "n": 1},
              "a": [0, 20, -5, -15, 0]},
             {"p": 2, "field": {"kind": "eisenstein", "poly": [-2, 0, 1]},
              "a": [0, 0, 2, 0, -2]}]
    assert _fresh_python(code, *map(json.dumps, descs)) == "[0, 2] []"
