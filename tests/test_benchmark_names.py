"""The package names the benchmark under ``perfbench/`` reaches into still exist.

The tracer wraps functions and methods by name and the worker imports a few
names directly; a rename in the package would only show up as a crash of a
traced or reference benchmark run.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracer = _load("tracer")
    for _, home, attr in tracer.FUNCTIONS:
        assert callable(getattr(importlib.import_module(home), attr)), (home, attr)
    for _, home, cls, attr in tracer.METHODS:
        assert attr in vars(getattr(importlib.import_module(home), cls)), (home, cls, attr)


def test_worker_imports_resolve():
    tree = ast.parse((PERFBENCH / "worker.py").read_text(encoding="utf-8"))
    imports = [ast.unparse(node) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("hologossip")]
    assert "from hologossip.engine import RunOptions, Schedule, run" in imports
    for statement in imports:
        exec(statement, {})  # raises ImportError on a name the package lost
