"""The package's import structure: every imported name is used, imports
sit at module level, and each shared object has one definition."""

import ast
import json
import pathlib
import subprocess
import sys

import pytest

import rieszvox
from rieszvox import ellipsoid, functional, grid

PACKAGE = pathlib.Path(rieszvox.__file__).parent


def unused_imports(path):
    tree = ast.parse(path.read_text())
    bound = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(bound - used)


# __init__.py imports to re-export: its imports are the public API
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports(PACKAGE / module) == []


def function_level_imports(path):
    """function:module for each import inside a function; a relative
    import's module keeps its leading dots."""
    tree = ast.parse(path.read_text())
    return sorted(
        f"{fn.name}:{'.' * node.level}{node.module or ''}"
        if isinstance(node, ast.ImportFrom)
        else f"{fn.name}:{','.join(alias.name for alias in node.names)}"
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    )


def package_imports(path):
    """(module, name) for each name imported from a sibling module."""
    return sorted(
        (node.module, alias.name)
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for alias in node.names
    )


# the one deferred import: Lambda_d's quadrature, so that a process that
# never computes Lambda_d never loads scipy.integrate and what it pulls in
DEFERRED_IMPORTS = {"functional.py": ["lambda_d:scipy.integrate"]}


@pytest.mark.parametrize("module", MODULES)
def test_no_function_level_imports(module):
    # a deferred import hides a cycle between modules
    assert function_level_imports(PACKAGE / module) == DEFERRED_IMPORTS.get(module, [])


@pytest.mark.parametrize(
    "source,found",
    [
        ("def f():\n    from scipy.integrate import quad", ["f:scipy.integrate"]),
        ("def f():\n    from . import grid", ["f:."]),
        ("def f():\n    from ..grid import x", ["f:..grid"]),
        ("def f():\n    import os, sys", ["f:os,sys"]),
        ("import os\ndef f():\n    return os", []),
    ],
)
def test_function_level_imports_reads_every_form(tmp_path, source, found):
    path = tmp_path / "m.py"
    path.write_text(source)
    assert function_level_imports(path) == found


def test_ellipsoid_imports_only_grid():
    assert {m for m, _ in package_imports(PACKAGE / "ellipsoid.py")} == {"grid"}


def test_private_grid_names_stay_in_grid():
    private = {
        (module, name)
        for module in MODULES
        for source, name in package_imports(PACKAGE / module)
        if source == "grid" and name.startswith("_")
    }
    assert private == set()


def test_one_ellipsoid_and_one_ball_volume():
    assert rieszvox.Ellipsoid is grid.Ellipsoid is ellipsoid.Ellipsoid
    assert rieszvox.unit_ball_volume is functional.unit_ball_volume is grid.unit_ball_volume
    assert rieszvox.RadiusTriple is grid.RadiusTriple is functional.RadiusTriple


# the exact path, T in integer counts and the layer oracle, then the first
# two lambda_d calls at once on two threads, as the sweep pool's first
# records make them
EXACT_PATH = """
import json, os, sys, tempfile, threading
import rieszvox, rieszvox.verify, rieszvox.cli
from rieszvox import (
    SetTriple, center_compatibility, dyadic_layers, fit_homothetic_triple, generate,
    lambda_d, load, save, trilinear_corner_counts,
)
t = SetTriple([generate("blob", {"dim": 2, "spacing": 1 / 16}, seed=s) for s in (1, 2, 3)])
with tempfile.TemporaryDirectory() as tmp:
    save(t[0], os.path.join(tmp, "e.vxg"))
    assert load(os.path.join(tmp, "e.vxg")) == t[0]
assert trilinear_corner_counts(t, "fft") == trilinear_corner_counts(t, "direct")
dyadic_layers(t[0])
center_compatibility(t)
fit_homothetic_triple(t)
LAZY = ("scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.signal", "scipy.stats")
exact = [m for m in LAZY if m in sys.modules]
values, start = [], threading.Barrier(2)

def call():
    start.wait()
    values.append(lambda_d((1.0, 0.8, 0.9), 3))

threads = [threading.Thread(target=call) for _ in range(2)]
for th in threads:
    th.start()
for th in threads:
    th.join()
print(json.dumps({"exact": exact, "values": values, "integrate": "scipy.integrate" in sys.modules}))
"""


def test_exact_path_leaves_the_quadrature_unloaded():
    out = subprocess.run(
        [sys.executable, "-c", EXACT_PATH], capture_output=True, text=True, check=True,
        cwd=PACKAGE.parent,
    )
    got = json.loads(out.stdout)
    assert got["exact"] == []
    assert got["integrate"]
    assert len(got["values"]) == 2 and got["values"][0] == got["values"][1]
    assert got["values"][0] == functional.lambda_d((1.0, 0.8, 0.9), 3)


def scipy_subpackages(source):
    """The scipy subpackages a module's source imports, in any import form;
    a bare `import scipy` counts as "scipy"."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "scipy":
            modules = [f"scipy.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found |= {m.partition(".")[2] or m for m in modules if m.split(".")[0] == "scipy"}
    return found


@pytest.mark.parametrize(
    "source,found",
    [
        ("from scipy.special import betainc", {"special"}),
        ("import scipy.linalg as la", {"linalg"}),
        ("from scipy import optimize, stats", {"optimize", "stats"}),
        ("import scipy, numpy", {"scipy"}),
        ("from scipy.sparse.linalg import cg\nfrom .grid import x", {"sparse.linalg"}),
        ("import scipyx", set()),
    ],
)
def test_scipy_subpackages_reads_every_import_form(source, found):
    assert scipy_subpackages(source) == found


def test_scipy_subpackages_are_the_readme_list():
    # README names these three as the package's whole use of scipy
    used = set().union(*(scipy_subpackages(p.read_text()) for p in PACKAGE.glob("*.py")))
    assert used == {"fft", "integrate", "special"}


def unread_parameters(path):
    """module.function:parameter for each parameter its function or lambda
    never reads."""
    out = []
    for fn in ast.walk(ast.parse(path.read_text())):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = fn.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        read = {
            n.id
            for stmt in body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        name = f"{path.stem}.{getattr(fn, 'name', '<lambda>')}"
        out += [f"{name}:{p.arg}" for p in params if p.arg not in read]
    return out


# parameters a protocol fixes: every verify check takes the suite's rng
PROTOCOL_PARAMETERS = {
    "verify.check_lambda_anchors:rng",
    "verify.check_fit_epsilon_on_balls:rng",
}


def test_every_parameter_is_read():
    unread = {u for p in sorted(PACKAGE.glob("*.py")) for u in unread_parameters(p)}
    assert sorted(unread - PROTOCOL_PARAMETERS) == []


def unreferenced_top_level_names():
    """module.name for each top-level function or class of a package module
    that no package file reads and __init__.py does not export."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    used = {
        n.id if isinstance(n, ast.Name) else n.attr
        for tree in trees.values()
        for n in ast.walk(tree)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    } | {
        alias.name
        for node in trees["__init__"].body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    return sorted(
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in used
    )


def test_every_top_level_name_is_used():
    assert unreferenced_top_level_names() == []


BENCHMARKS = pathlib.Path(__file__).parents[1] / "benchmarks"


def library_patches(source):
    """line: name for each setattr call in a script's source, and for each
    attribute it stores to or deletes on a name imported from rieszvox."""
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name.split(".")[0] == "rieszvox"
    } | {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "rieszvox"
        for alias in node.names
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "setattr":
            found.append(f"{node.lineno}: setattr")
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if getattr(root, "id", None) in imported:
                found.append(f"{node.lineno}: {ast.unparse(node)}")
    return sorted(found)


@pytest.mark.parametrize(
    "source,found",
    [
        ("from rieszvox import grid\ngrid._quadratic_form = len", ["2: grid._quadratic_form"]),
        ("import rieszvox.grid as g\ndel g.SUPERSAMPLE", ["2: g.SUPERSAMPLE"]),
        ("import rieszvox\nrieszvox.grid.CELL_BOUND += 1", ["2: rieszvox.grid.CELL_BOUND"]),
        ("from rieszvox import grid\nsetattr(grid, 'x', 1)", ["2: setattr"]),
        ("import numpy as np\nnp.x = 1\nfrom rieszvox import grid\ny = grid.x", []),
    ],
)
def test_library_patches_reads_every_form(source, found):
    assert library_patches(source) == found


@pytest.mark.parametrize("script", sorted(p.name for p in BENCHMARKS.glob("*.py")))
def test_benchmarks_patch_no_library_attribute(script):
    # a benchmark reads the work the kernels report, and never rebinds a
    # library function to watch it
    assert library_patches((BENCHMARKS / script).read_text()) == []
