"""Every module-level function and class of the package has a caller in src.

A name used only by tests (or only re-exported by ``__init__.py``) is public
API that the library itself never exercises; it should be deleted or moved
into the tests.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hologossip"

#: (module, name) kept without a src caller, with the reason.
ALLOWED = {
    ("graph", "fundamental_cycles"): "the perfbench tracer wraps it by name",
}


def _used_names(nodes) -> set:
    """Identifiers read as plain names or as attributes anywhere under ``nodes``."""
    used = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                used.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                used.add(sub.attr)
    return used


def test_every_public_def_has_a_src_caller():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(SRC.glob("*.py")) if p.stem != "__init__"}
    unused = []
    for module, tree in trees.items():
        elsewhere = _used_names(t for m, t in trees.items() if m != module)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            here = _used_names(n for n in tree.body if n is not node)
            if node.name not in here | elsewhere and (module, node.name) not in ALLOWED:
                unused.append(f"{module}.{node.name}")
    assert unused == []
