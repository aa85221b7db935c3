"""Tooling guard: production modules hold no code that only tests call,
and the runtime needs numpy alone.

Every top-level function and class and every method in ``src/bosegas`` must
be referenced somewhere in the package besides its own definition, or be
exported through ``bosegas.__all__``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import bosegas

PACKAGE = Path(bosegas.__file__).parent

# Documented library API that the package itself does not call.
ALLOWED = set()


def _definitions(tree):
    """(name, node) of top-level functions and classes and their methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield item.name, item


def _references(tree):
    """Names and attributes used in a module; an import alone is no use."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def _unreferenced():
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    used = {}
    for tree in trees.values():
        for name in _references(tree):
            used[name] = used.get(name, 0) + 1
    # a definition's references to itself (recursion) do not count
    orphans = []
    for module, tree in trees.items():
        for name, node in _definitions(tree):
            if name.startswith("__") and name.endswith("__"):
                continue
            own = sum(1 for ref in _references(node) if ref == name)
            if used.get(name, 0) - own > 0:
                continue
            if name in bosegas.__all__ or name in ALLOWED:
                continue
            orphans.append(f"{module}:{node.lineno} {name}")
    return orphans


def test_no_unreferenced_definitions():
    assert _unreferenced() == []


def test_allowlist_is_needed():
    # an allowlisted name that the package does call should leave the list
    trees = [ast.parse(p.read_text()) for p in PACKAGE.glob("*.py")]
    used = {name for tree in trees for name in _references(tree)}
    assert not ALLOWED & used


def test_import_loads_no_scipy():
    # scipy is a test-only oracle; a fresh interpreter shows what the
    # package itself pulls in
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH")))))
    code = ("import sys, bosegas; print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"
