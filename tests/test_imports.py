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
    # [DERIVED] the ramified g-map and verify-point take t([n]P) from the
    # ladder on one point of E(K); the [p] series and its evaluation
    # serve only the generic tables and the tests
    for module in ("classifier", "cli"):
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        names = _names_in(tree) | {
            n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)} | {
            alias.asname or alias.name for n in ast.walk(tree)
            if isinstance(n, (ast.Import, ast.ImportFrom))
            for alias in n.names}
        assert names.isdisjoint({"eval_at", "mult_degree",
                                 "specialized_mult_by_n"}), module


def test_affine_group_law_lives_in_the_tests():
    # [DERIVED] src/ has one group law for points, the ladder; the affine
    # chord-tangent law is the tests' reference (conftest.py) and is not
    # exported
    import e0struct

    defined = {n.name for path in PACKAGE.glob("*.py")
               for n in ast.walk(ast.parse(path.read_text()))
               if isinstance(n, ast.FunctionDef)}
    moved = {"point_add", "point_mul", "point_neg"}
    assert defined.isdisjoint(moved)
    assert moved.isdisjoint(e0struct.__all__)


def test_test_only_methods_live_in_the_tests():
    # [DERIVED] these methods had no caller in src/.  contains, gen and
    # truncate are helpers of the same names in conftest.py; the others
    # are gone, and their test callers read E.a[i] or build the Series
    methods = {(cls.name, f.name) for path in PACKAGE.glob("*.py")
               for cls in ast.walk(ast.parse(path.read_text()))
               if isinstance(cls, ast.ClassDef)
               for f in cls.body if isinstance(f, ast.FunctionDef)}
    moved = {("WeierstrassCurve", "contains"), ("FiniteField", "gen"),
             ("Series", "truncate"), ("CurvePoint", "to_json"),
             ("CurvePoint", "infinity"), ("WeierstrassCurve", "rhs"),
             ("KElement", "reduce"), ("Series", "zero"),
             ("Series", "map_coeffs")}
    moved |= {("WeierstrassCurve", f"a{i}") for i in (1, 2, 3, 4, 6)}
    assert methods & moved == set()


def _called_names():
    """The names that some call in src/ reaches, as f(...) or x.f(...)."""
    called = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                f = node.func
                if isinstance(f, ast.Name):
                    called.add(f.id)
                elif isinstance(f, ast.Attribute):
                    called.add(f.attr)
    return called


def _tracer():
    spec = importlib.util.spec_from_file_location(
        "_bench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_trace_targets_without_a_caller_in_src():
    # [DERIVED] the benchmark times these names although nothing in src/
    # calls them, so their metrics read 0; they stay in src/ only for the
    # tracer (ROADMAP item 5, the trace spine).  Operators reach the dunder targets.  A new
    # orphan, or one that gains a caller or leaves, fails here
    called = _called_names()
    tracer = _tracer()
    orphans = {(modname, attr) for _name, modname, attr
               in tracer.TIMED + tracer.COUNTED
               if not attr.split(".")[-1].startswith("__")
               and attr.split(".")[-1] not in called}
    assert orphans == {("formal_group", "specialize"),
                       ("series", "Series.compose"),
                       ("formal_group", "eval_at")}


def test_trace_targets_resolve():
    # [DERIVED] the benchmark's trace mode (perfbench/tracer.py) patches
    # these program names; a refactor that drops one breaks
    # `perfbench/run.py --trace 1`, which no other test runs
    tracer = _tracer()
    import e0struct.cli  # noqa: F401  loads every program module
    for _name, modname, attr in tracer.TIMED + tracer.COUNTED:
        owner, key = tracer._resolve(modname, attr)
        assert callable(getattr(owner, key, None)), (modname, attr)
    fg = sys.modules["e0struct.formal_group"]
    for cache in ("_GEN_F", "_GEN_MULT", "_GEN_LOG"):
        assert isinstance(getattr(fg, cache, None), dict), cache
    ff = sys.modules["e0struct.residue_field"].FiniteField
    assert callable(getattr(ff, "__iter__", None))


def test_benchmark_contract_on_cli(capsys):
    # [DERIVED] the benchmark's operations look these names up on the cli
    # module (perfbench/workloads.py), and perfbench/cli_traced.py runs
    # main in process, relying on it to end in SystemExit as a process
    # would; a CLI refactor that breaks either breaks the benchmark,
    # which no other test runs
    import e0struct.cli as cli

    used = set()
    for script in ("workloads.py", "cli_traced.py"):
        tree = ast.parse((ROOT / "perfbench" / script).read_text())
        used |= {n.attr for n in ast.walk(tree)
                 if isinstance(n, ast.Attribute)
                 and isinstance(n.value, ast.Name) and n.value.id == "cli"}
    assert {"load_descriptor", "classify_general", "main"} <= used
    for name in sorted(used):
        assert callable(getattr(cli, name, None)), name
    with pytest.raises(SystemExit) as exc:
        cli.main(["formal-group", "--degree", "0"], prog_name="e0struct")
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("F(X, Y) = 0")


def _sys_exit_owners(tree):
    """Names of the functions whose own body (nested functions aside)
    reads sys.exit, with "<module>" for module-level code."""
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Attribute) and child.attr == "exit"
                    and isinstance(child.value, ast.Name)
                    and child.value.id == "sys"):
                found.add(owner)
            visit(child, owner)

    visit(tree, "<module>")
    return found


def test_only_cli_main_exits():
    # [DERIVED] a subcommand returns its exit code and raises on failure;
    # cli.main is the one place that catches, prints an error and exits
    exits = {(path.stem, owner) for path in PACKAGE.glob("*.py")
             for owner in _sys_exit_owners(ast.parse(path.read_text()))}
    assert exits == {("cli", "main")}
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    defs = {n.name: n for n in ast.walk(tree)
            if isinstance(n, ast.FunctionDef)}
    # _parser registers each subcommand as command(name, function)
    commands = {n.args[1].id for n in ast.walk(defs["_parser"])
                if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                and n.func.id == "command"}
    assert commands == {"classify", "normalize", "formal_group",
                        "verify_point", "oracle"}
    for name in commands:
        names = {n.attr if isinstance(n, ast.Attribute) else n.id
                 for n in ast.walk(defs[name])
                 if isinstance(n, (ast.Attribute, ast.Name))}
        assert names.isdisjoint({"exit", "SystemExit"}), name
        assert any(isinstance(n, ast.Return) and n.value is not None
                   for n in ast.walk(defs[name])), name


def test_oracle_shares_no_series_code():
    # [DERIVED] the oracle is the independent check of the engine, so it
    # imports nothing from formal_group or series
    tree = ast.parse((PACKAGE / "oracle.py").read_text())
    imported = {part for n in ast.walk(tree)
                if isinstance(n, (ast.Import, ast.ImportFrom))
                for name in [getattr(n, "module", None) or ""]
                + [alias.name for alias in n.names]
                for part in name.split(".")}
    assert imported.isdisjoint({"formal_group", "series"})


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


def test_cli_import_loads_only_numpy():
    # the oracle runs on numpy alone, and the descriptor check and the
    # argument parsing on plain Python; a fresh interpreter shows which
    # packages outside the standard library the import of the CLI pulls in
    code = ("import sys; before = set(sys.modules); import e0struct.cli; "
            "print(sorted({m.split('.')[0] for m in set(sys.modules) - before}"
            " - set(sys.stdlib_module_names)))")
    assert _fresh_python(code) == "['e0struct', 'numpy']"


def test_classify_executes_no_numpy():
    # [DERIVED] numpy is imported lazily for the oracle, so classify runs
    # without executing it: none of its submodules is loaded
    code = ("import contextlib, io, sys; from e0struct.cli import main\n"
            "def code(d):\n"
            "    sys.stdin = io.StringIO(d)\n"
            "    try:\n"
            "        with contextlib.redirect_stdout(io.StringIO()):\n"
            "            main(['classify', '-'])\n"
            "    except SystemExit as exc:\n"
            "        return exc.code\n"
            "print([code(d) for d in sys.argv[1:]], "
            "[m for m in sys.modules if m.startswith('numpy.')])")
    descs = [{"p": 5, "field": {"kind": "unramified", "n": 1},
              "a": [0, 20, -5, -15, 0]},
             {"p": 2, "field": {"kind": "eisenstein", "poly": [-2, 0, 1]},
              "a": [0, 0, 2, 0, -2]}]
    assert _fresh_python(code, *map(json.dumps, descs)) == "[0, 2] []"
