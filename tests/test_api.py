import ast
import importlib
from pathlib import Path

import pytest

import entot

MODULES = ("measures", "orlicz", "solver", "gamma_limit")


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_resolves_and_star_imports(name):
    module = importlib.import_module(f"entot.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"entot.{name}.__all__ names {missing}"
    namespace = {}
    exec(f"from entot.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def test_the_package_reexports_public_names_only():
    tree = ast.parse(Path(entot.__file__).read_text())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            module = importlib.import_module(f"entot.{node.module}")
            for alias in node.names:
                assert alias.name in module.__all__, (node.module, alias.name)
                assert getattr(entot, alias.name) is getattr(module, alias.name)
