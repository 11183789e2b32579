"""Every module-level function and class of the package, and every public
method of its classes, has a caller in src.

A name used only by tests (or only re-exported by ``__init__.py``) is public
API that the library itself never exercises; it should be deleted or moved
into the tests.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hologossip"

#: (module, name) kept without a src caller, with the reason.
ALLOWED = {
    ("graph", "fundamental_cycles"): "the perfbench tracer wraps it by name",
}


def _src_trees() -> dict:
    return {p.stem: ast.parse(p.read_text(encoding="utf-8"))
            for p in sorted(SRC.glob("*.py")) if p.stem != "__init__"}


def _used_names(nodes) -> Counter:
    """How often each identifier is read, as a plain name or as an attribute,
    anywhere under ``nodes``."""
    used = Counter()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                used[sub.id] += 1
            elif isinstance(sub, ast.Attribute):
                used[sub.attr] += 1
    return used


def test_every_public_def_has_a_src_caller():
    trees = _src_trees()
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


def test_every_public_method_has_a_src_caller():
    """A method, property or classmethod whose name starts without ``_`` is
    read somewhere in src outside its own body (matched by name alone)."""
    trees = _src_trees()
    used = _used_names(trees.values())
    unused = []
    for module, tree in trees.items():
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            for fn in cls.body:
                if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                    continue
                if used[fn.name] == _used_names([fn])[fn.name]:
                    unused.append(f"{module}.{cls.name}.{fn.name}")
    assert unused == []


#: (module, function, parameter) whose default no src call overrides, with the reason.
ALLOWED_DEFAULTS = {
    ("cli", "main", "argv"): "the entry point: the console script calls main() and "
                             "reads sys.argv, while embedding callers pass argv",
}


def _functions(tree):
    """(name to match calls by, positional offset, FunctionDef) of every function
    and method; ``__init__`` is matched by its class name, and a method's first
    parameter is bound, not passed."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, 0, node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in sub.decorator_list)
                    yield node.name if sub.name == "__init__" else sub.name, 0 if static else 1, sub


def _defaulted(fn, offset):
    """(parameter name, position in a call or None) of each parameter with a default."""
    args = fn.args.posonlyargs + fn.args.args
    for k, arg in enumerate(args[len(args) - len(fn.args.defaults):], len(args) - len(fn.args.defaults)):
        yield arg.arg, k - offset
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _passes(call, name, position) -> bool:
    if any(kw.arg in (name, None) for kw in call.keywords):  # None: **kwargs
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return position is not None and len(call.args) > position


def test_every_defaulted_parameter_is_passed_by_src():
    trees = _src_trees()
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                callee = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls.setdefault(callee, []).append(node)
    unpassed = []
    for module, tree in trees.items():
        for callee, offset, fn in _functions(tree):
            for name, position in _defaulted(fn, offset):
                if (module, fn.name, name) in ALLOWED_DEFAULTS:
                    continue
                if not any(_passes(c, name, position) for c in calls.get(callee, [])):
                    unpassed.append(f"{module}.{fn.name}({name})")
    assert unpassed == []
