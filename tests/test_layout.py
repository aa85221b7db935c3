"""Tooling guard: production modules hold no code that only tests call,
the output path holds no code that only the checks call, and the runtime
needs numpy alone.

Every top-level function and class and every method in ``src/bosegas`` must
be referenced somewhere in the package besides its own definition, or be
exported through ``bosegas.__all__``.  The output modules, which compute
what the CLI prints, are held to more: they never import ``verification``,
and each of their definitions is referenced from an output module or from
``cli.py``, or is named in ``LIBRARY_API`` or ``BENCH_BOUND``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import bosegas

PACKAGE = Path(bosegas.__file__).parent

# The layers under the front ends ``cli`` and ``__init__`` and the checks
# in ``verification``.
OUTPUT_MODULES = ("numerics", "specfun", "groundstate", "thermal",
                  "excitation", "amplitude", "correlator")

# Documented library API that neither the output path nor the CLI calls.
LIBRARY_API = {"solve_u", "decay_rate_numeric", "bd_finite_T",
               "discrete_amplitude", "generating_asymptotics"}

# Wrappers that bench/spans.py and bench/workloads.py bind by module.
BENCH_BOUND = {"w_series", "smooth_amplitude", "amplitude_tilde",
               "harmonic_amplitude", "ell0_term_fd"}


def _trees(modules=None):
    """module name -> parsed source, for every module or the named ones."""
    return {path.stem: ast.parse(path.read_text())
            for path in sorted(PACKAGE.glob("*.py"))
            if modules is None or path.stem in modules}


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


def _unreferenced(defining, referencing, exempt):
    """Definitions in the ``defining`` modules that no ``referencing``
    module uses, other than in their own body, and that ``exempt`` lacks."""
    used = {}
    for tree in _trees(referencing).values():
        for name in _references(tree):
            used[name] = used.get(name, 0) + 1
    # a definition's references to itself (recursion) do not count
    orphans = []
    for module, tree in _trees(defining).items():
        for name, node in _definitions(tree):
            if name.startswith("__") and name.endswith("__"):
                continue
            own = sum(1 for ref in _references(node) if ref == name)
            if used.get(name, 0) - own > 0 or name in exempt:
                continue
            orphans.append(f"{module}.py:{node.lineno} {name}")
    return orphans


def test_no_unreferenced_definitions():
    assert _unreferenced(None, None, set(bosegas.__all__)) == []


def test_output_modules_do_not_import_verification():
    importers = []
    for module, tree in _trees(OUTPUT_MODULES).items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [
                    f"{node.module or ''}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            if any("verification" in n.split(".") for n in names):
                importers.append(f"{module}.py:{node.lineno}")
    assert importers == []


def test_output_definitions_serve_the_output_path():
    # a routine that only the checks or the tests call belongs in
    # verification.py or in the tests
    assert _unreferenced(OUTPUT_MODULES, OUTPUT_MODULES + ("cli",),
                         LIBRARY_API | BENCH_BOUND) == []


def test_allowlist_is_needed():
    # a listed name that the output path calls, or that no output module
    # defines any more, should leave its list
    trees = _trees(OUTPUT_MODULES + ("cli",))
    used = {name for tree in trees.values() for name in _references(tree)}
    defined = {name for module, tree in trees.items() if module != "cli"
               for name, _ in _definitions(tree)}
    assert not (LIBRARY_API | BENCH_BOUND) & used
    assert (LIBRARY_API | BENCH_BOUND) <= defined
    assert not LIBRARY_API & BENCH_BOUND


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
