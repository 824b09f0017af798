"""Every name a module of the package imports is used in that module."""

import ast
import pathlib

import pytest

import rieszvox

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
