"""The package's surface: what the benchmark binds by name, no import that
a module never uses, one writer of files, and no config key that is read
but not registered, or registered but never read."""

import ast
import importlib.util
from pathlib import Path

import crowdflow.experiments  # noqa: F401  (loads every module the tracer binds)
from crowdflow.config import KEYS, ExperimentConfig

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


def test_one_polynomial_evaluator():
    # potentials._horner evaluates every polynomial of the package; numpy's
    # polyval, a second evaluator, once computed the potential's modulus
    # and flags
    uses = [(path.name, node.lineno) for path in sorted(PACKAGE.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if getattr(node, "attr", getattr(node, "id", None)) == "polyval"]
    assert uses == []


def _file_writes(source):
    """``(line, call)`` of every ``open`` with a writing mode and every
    ``os.replace`` in a module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if (isinstance(f, ast.Attribute) and f.attr == "replace"
                and isinstance(f.value, ast.Name) and f.value.id == "os"):
            found.append((node.lineno, "os.replace"))
        elif isinstance(f, ast.Name) and f.id == "open":
            modes = node.args[1:2] + [k.value for k in node.keywords
                                      if k.arg == "mode"]
            if any(isinstance(mode, ast.Constant)
                   and set(str(mode.value)) & set("wax+") for mode in modes):
                found.append((node.lineno, "open"))
    return found


def test_one_writer_of_run_outputs():
    # every CSV, report.json and SVG goes through experiments' one
    # atomic-replace helper, so no other module can leave a partial file
    # among a run's outputs
    writes = {path.name: _file_writes(path.read_text(encoding="utf-8"))
              for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: found for name, found in writes.items()
            if found and name != "experiments.py"} == {}
    assert sorted(call for _, call in writes["experiments.py"]) \
        == ["open", "os.replace"]


def test_file_write_scan_sees_writes():
    src = ("import os\nopen(p)\nopen(p, 'rb')\nopen(p, 'w')\n"
           "open(p, mode='a', encoding='utf-8')\nos.replace(a, b)\n"
           "s.replace('x', 'y')\n")
    assert _file_writes(src) == [(4, "open"), (5, "open"), (6, "os.replace")]


_GETTERS = {name for name, val in vars(ExperimentConfig).items()
            if callable(val)}


def _config_keys_read(source):
    """Key literals a module reads from a config: the first argument of an
    ``ExperimentConfig`` method called on ``cfg`` or ``self``, and the
    string default of a ``key`` parameter."""
    keys = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and node.args
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _GETTERS
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in ("cfg", "self")
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)):
            keys.add(node.args[0].value)
        elif isinstance(node, ast.FunctionDef):
            params = node.args.args[len(node.args.args)
                                    - len(node.args.defaults):]
            keys.update(d.value for a, d in zip(params, node.args.defaults)
                        if a.arg == "key" and isinstance(d, ast.Constant))
    return keys


def test_config_registry_holds_exactly_the_keys_read():
    # a key read but not registered fails every config that sets it; a key
    # registered but never read lets a config set it to no effect
    read = set()
    for path in sorted(PACKAGE.glob("*.py")):
        read |= _config_keys_read(path.read_text(encoding="utf-8"))
    assert sorted(read - KEYS) == []
    assert sorted(KEYS - read) == []


def test_config_key_scan_sees_reads_and_defaults():
    src = ("def f(cfg, params):\n"
           "    cfg.get_float('jko.h', 0.01)\n    params.get('q')\n"
           "    cfg.get_m_list(default=(4.0,))\n"
           "def boxes(self, key='init.boxes', other='x'):\n"
           "    return self._lookup(key, None)\n")
    assert _config_keys_read(src) == {"jko.h", "init.boxes"}
