"""Export lists: every exported name resolves, so a deletion leaves no stale name."""

import ast
import importlib
import inspect

import pytest

import convlab

MODULES = ["numerics", "geometry", "weights", "prekopa", "bergman", "scenarios"]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    mod = importlib.import_module(f"convlab.{name}")
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert not missing, f"convlab.{name}.__all__ lists undefined names {missing}"


def test_package_reexports_resolve_and_are_exported():
    tree = ast.parse(inspect.getsource(convlab))
    for node in tree.body:
        if not isinstance(node, ast.ImportFrom) or node.level != 1:
            continue
        mod = importlib.import_module(f"convlab.{node.module}")
        for alias in node.names:
            assert hasattr(convlab, alias.name), alias.name
            if hasattr(mod, "__all__"):
                assert alias.name in mod.__all__, f"{node.module}.{alias.name}"
