"""Import hygiene of src/, tests/ and demos/.

No module imports a name it never uses (stdlib `ast` only: every name an
import statement binds must occur as a name elsewhere in the same file;
`__future__` imports are exempt, and so are the package `__init__` files,
whose imports are the public re-exports).  Every `__all__` entry of a
gausscalc module resolves, and the package re-exports only names that are in
their module's `__all__`.  The package runs on numpy and scipy.special
alone: a fresh interpreter that imports the command line and runs the odd-p
norm, the averaging inequality and the oracles experiment never loads
scipy.integrate, scipy.optimize or scipy.linalg.  The harness reaches into
besov's private names only for the Besov terms, the norm curves and the
decay report.
"""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import gausscalc

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    rel = path.relative_to(ROOT)
    return [f"{rel}:{line}: {name}" for name, line in bound.items() if name not in used]


def test_no_unused_imports():
    files = sorted(p for d in ("src", "tests", "demos") for p in (ROOT / d).rglob("*.py") if p.name != "__init__.py")
    assert files
    assert [hit for path in files for hit in unused_imports(path)] == []


def _modules():
    """Every submodule of the gausscalc package, imported."""
    return [importlib.import_module(f"gausscalc.{m.name}") for m in pkgutil.iter_modules(gausscalc.__path__)]


def test_every_all_entry_resolves():
    # a stale entry would break `from gausscalc.<module> import *`
    modules = _modules()
    assert modules
    stale = [f"{m.__name__}.{name}" for m in modules for name in getattr(m, "__all__", ()) if not hasattr(m, name)]
    assert stale == []


def test_package_reexports_only_public_names():
    tree = ast.parse((ROOT / "src" / "gausscalc" / "__init__.py").read_text())
    public = {m.__name__.rpartition(".")[2]: set(getattr(m, "__all__", ())) for m in _modules()}
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name not in public[node.module]
    ]
    assert private == []


HEAVY_SCIPY = ("scipy.integrate", "scipy.optimize", "scipy.linalg")


def test_package_imports_only_numpy_and_scipy_special():
    code = """
import sys
import numpy as np
import gausscalc.cli
from gausscalc import ExperimentConfig, HermiteExpansion, hardy_check, lp_norm, run_experiment
assert lp_norm(HermiteExpansion(1, {(1,): 1.0, (3,): -0.5}), 3.0) > 0
assert hardy_check(lambda y: y * np.exp(-y), 2.0, 1.0, "head")[0] > 0
assert run_experiment("oracles", ExperimentConfig(family_size=3, max_degree=4)).passed
print(" ".join(m for m in %r if m in sys.modules))
""" % (HEAVY_SCIPY,)
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == ""


ROUTE_INTERNALS = ("_abs_moment_exact_1d", "_quadrature_norms", "_basis_table", "_odd_exact", "default_grid")
# perfbench's route test spies on besov's bindings of these two to see a norm
# curve's route, so besov keeps them, but only as arguments of _lp_norms
ROUTE_SPIES = ("_abs_moment_exact_1d", "default_grid")


def test_besov_leaves_the_lp_route_to_hermite():
    # hermite._lp_norms alone picks an L^p route: besov neither imports the
    # route internals nor uses them, by name or as attributes, except that it
    # hands the spied two to _lp_norms
    tree = ast.parse((ROOT / "src" / "gausscalc" / "besov.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert imported & set(ROUTE_INTERNALS) <= set(ROUTE_SPIES)
    handed = {
        id(arg)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_lp_norms"
        for arg in [*node.args, *(keyword.value for keyword in node.keywords)]
    }
    uses = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id in ROUTE_INTERNALS and id(node) not in handed)
        or (isinstance(node, ast.Attribute) and node.attr in ROUTE_INTERNALS)
    ]
    assert uses == []


HARNESS_BESOV_INTERNALS = {"_besov_terms", "_norm_curves", "_decay_report"}


def test_harness_uses_only_the_besov_term_internals():
    # which Besov term to take, on which grids and at which resolutions, is
    # besov's decision: harness names no other private besov function
    tree = ast.parse((ROOT / "src" / "gausscalc" / "harness.py").read_text())
    used = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "bz"
        and node.attr.startswith("_")
    }
    assert used
    assert used <= HARNESS_BESOV_INTERNALS, sorted(used - HARNESS_BESOV_INTERNALS)
