"""Export lists: every exported name resolves, so a deletion leaves no stale name."""

import ast
import importlib
import inspect
from pathlib import Path

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


CSG_NODES = {"Node", "Ball", "Box", "Full", "Empty", "Union", "Intersection",
             "Complement", "_Compound"}


def test_only_geometry_names_the_csg_node_classes():
    # other modules ask a node (bounds, complement, disc_radius, ...) and
    # never test its class, so no module but geometry and the package
    # re-exports imports one
    offenders = []
    for path in sorted(Path(convlab.__file__).parent.glob("*.py")):
        if path.name in ("geometry.py", "__init__.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module in ("geometry", "convlab.geometry"):
                offenders += [f"{path.name}:{node.lineno} {a.name}"
                              for a in node.names if a.name in CSG_NODES]
            elif isinstance(node, ast.Attribute) and node.attr in CSG_NODES:
                offenders.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert not offenders
