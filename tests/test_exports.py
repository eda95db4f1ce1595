"""Every public name the package declares exists."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import bb84sim

MODULES = sorted(m.name for m in pkgutil.iter_modules(bb84sim.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves_all(name):
    # raises AttributeError for a name in __all__ that the module lacks
    exec(f"from bb84sim.{name} import *", {})


def test_package_reexports_public_names():
    tree = ast.parse(Path(bb84sim.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"bb84sim.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, f"{alias.name} is not public in {node.module}"
            assert getattr(bb84sim, alias.name) is getattr(module, alias.name)
