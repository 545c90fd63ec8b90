"""The package's public surface: each module's ``__all__`` and its imports."""

import ast
import importlib
from pathlib import Path

import pytest

import schurcol

PACKAGE = Path(schurcol.__file__).parent
# __init__'s imports are the package surface, which the second check covers
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def parse(stem):
    return ast.parse((PACKAGE / f"{stem}.py").read_text())


def public_names(stem):
    """A module's ``__all__``; without one, its names that do not start with _."""
    module = importlib.import_module(f"schurcol.{stem}")
    if hasattr(module, "__all__"):
        return set(module.__all__)
    return {name for name in vars(module) if not name.startswith("_")}


def imported_names(tree):
    """The names a module's imports bind, ``__future__`` aside."""
    return {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }


def used_names(tree):
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


@pytest.mark.parametrize("stem", MODULES)
def test_every_name_in_all_resolves(stem):
    module = importlib.import_module(f"schurcol.{stem}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_imports_only_public_names():
    stray = [
        f"{node.module}.{alias.name}"
        for node in parse("__init__").body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name not in public_names(node.module)
    ]
    assert stray == []


@pytest.mark.parametrize("stem", MODULES)
def test_no_unused_imports(stem):
    tree = parse(stem)
    module = importlib.import_module(f"schurcol.{stem}")
    kept = used_names(tree) | set(getattr(module, "__all__", ()))
    assert sorted(imported_names(tree) - kept) == []
