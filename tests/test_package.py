"""The package's public surface: each module's ``__all__`` and its imports."""

import ast
import importlib
import os
import subprocess
import sys
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


def loads_numpy_random(module):
    """Whether a fresh interpreter has numpy.random loaded after importing module."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")])
    )
    probe = f"import sys, {module}; print('numpy.random' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip() == "True"


def test_import_does_not_load_numpy_random():
    # only verify draws random points, from a generator the caller seeds
    if loads_numpy_random("numpy"):
        pytest.skip("a bare import numpy loads numpy.random (numpy 1.x)")
    assert not loads_numpy_random("schurcol.cli")
