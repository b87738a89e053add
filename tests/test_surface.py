"""The package's surface: what the benchmark binds by name, and no import
that a module never uses."""

import ast
import importlib.util
from pathlib import Path

import crowdflow.experiments  # noqa: F401  (loads every module the tracer binds)

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "crowdflow"


def test_benchmark_tracer_resolves_every_binding():
    # perfbench/run.py calls tracer.bindings() in untraced runs too, so a
    # name dropped from the package fails every benchmark run
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    bound = {(getattr(owner, "__name__", None), attr)
             for owner, attr, _obj in tracer.bindings()}
    for modname, attr, _span in tracer.FUNCTIONS:
        assert (modname, attr) in bound, (modname, attr)
    for _modname, clsname, attr, _span in tracer.CLASS_MEMBERS:
        assert (clsname, attr) in bound, (clsname, attr)


def _unused_imports(source):
    """Names a module imports and never reads.  ``__future__`` imports are
    directives, not names."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_modules_use_every_name_they_import():
    # __init__.py imports to re-export
    unused = {path.name: _unused_imports(path.read_text(encoding="utf-8"))
              for path in sorted(PACKAGE.glob("*.py"))
              if path.name != "__init__.py"}
    assert {name: found for name, found in unused.items() if found} == {}


def test_unused_import_check_sees_a_dead_import():
    src = ("from __future__ import annotations\nimport math\n"
           "from dataclasses import dataclass, field\nimport numpy as np\n"
           "x: np.ndarray = field()\n")
    assert _unused_imports(src) == [(2, "math"), (3, "dataclass")]
