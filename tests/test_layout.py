"""The package's layering: each module imports only the ones below it.

``LAYERS`` is the order, bottom to top.  The module imports are read with
``ast``, so no module is imported to check them; the README's layout table
and the package docstring list the modules in the same order.  Generated
code is compiled in one place, read with ``ast`` too.  And the package,
imported again in a fresh process, lets its old modules go.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "scopefoil"

LAYERS = [
    "naive", "fuel", "names", "patterns", "generic", "terms", "lambda_pi",
    "bridge", "oracles", "nbe", "encoding", "syntax", "bench", "cli",
]


def _relative_imports(path: Path) -> set[str]:
    """The package modules ``path`` imports, by name."""
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                imported.add(node.module.split(".")[0])
            else:
                imported.update(alias.name for alias in node.names)
    return imported


def test_the_layers_hold_every_module():
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    assert sorted(LAYERS) == sorted(modules)


def test_each_module_imports_only_the_layers_below_it():
    for i, module in enumerate(LAYERS):
        imported = _relative_imports(PACKAGE / f"{module}.py")
        assert imported <= set(LAYERS[:i]), (module, imported - set(LAYERS[:i]))


def test_the_docs_list_the_layers_in_order():
    rows = re.findall(r"^\| `(\w+)\.py`", (ROOT / "README.md").read_text(), re.MULTILINE)
    assert rows == LAYERS
    doc = ast.get_docstring(ast.parse((PACKAGE / "__init__.py").read_text()))
    mentions = re.findall(r":mod:`scopefoil\.(\w+)`", doc)
    assert list(dict.fromkeys(mentions)) == LAYERS


def _compile_calls(path: Path) -> list[tuple[str, str]]:
    """Each call of the builtin ``compile`` in ``path``: the innermost
    function it is made in (``<module>`` at the top level), and the text of
    its file-name argument."""
    tree = ast.parse(path.read_text(), str(path))
    where: dict[ast.AST, str] = {}
    for func in ast.walk(tree):  # outer functions first, so the innermost wins
        if isinstance(func, ast.FunctionDef):
            where.update((node, func.name) for node in ast.walk(func))
    return [
        (where.get(node, "<module>"), ast.unparse(node.args[1]))
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "compile"
    ]


def test_generated_code_is_compiled_one_way():
    """Walks, parse rules and printers are compiled by
    ``naive.compile_generated``, which names each source's file; only
    ``naive.node_class``'s own methods are compiled elsewhere, under
    ``<node_class>``.  No module reads its own line numbers to place
    generated code."""
    calls = {module: _compile_calls(PACKAGE / f"{module}.py") for module in LAYERS}
    for module, found in calls.items():
        for function, file in found:
            assert module == "naive", (module, function)
            assert function == "compile_generated" or file == "'<node_class>'", function
    assert ("compile_generated", "file") in calls["naive"]
    for module in LAYERS:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        getframe = [n for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr == "_getframe"]
        assert not getframe, module


def test_a_reimported_package_lets_the_old_one_go():
    # normbench re-imports the package for each set-up; nothing outside it
    # may keep the replaced modules, such as a cache of typing's aliases
    script = """
import gc, importlib, sys, weakref

def import_package():
    for name in [m for m in sys.modules if m.partition(".")[0] == "scopefoil"]:
        del sys.modules[name]
    bench = importlib.import_module("scopefoil.bench")
    config = bench.BenchConfig(("nf", "random15"), seed=1, terms_per_random_group=2,
                               warmup_runs=0, measured_runs=1)
    bench.run_benchmarks(config)  # every engine, checked against the oracle
    importlib.import_module("scopefoil.cli")
    return importlib.import_module("scopefoil.naive")

old = weakref.ref(import_package().VarIdent)
import_package()
gc.collect()
print("collected" if old() is None else "alive")
"""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=120, env=env, check=True,
    ).stdout
    assert out.splitlines()[-1] == "collected"
