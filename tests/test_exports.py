"""Every public name a module or the package advertises exists."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oakit

PACKAGE = Path(oakit.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("module", MODULES)
def test_star_import(module):
    namespace: dict = {}
    exec(f"from oakit.{module} import *", namespace)
    exported = getattr(importlib.import_module(f"oakit.{module}"), "__all__", None)
    if exported is not None:
        assert set(exported) <= set(namespace)
        assert len(set(exported)) == len(exported), "duplicate names in __all__"


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first_in_a_fresh_interpreter(module):
    # a top-level import that closes a cycle fails when its module loads first
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run(
        [sys.executable, "-c", f"import oakit.{module}"], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_package_reexports_resolve():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    names = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert "hadamard01" in names and "catalog" in names
    assert [n for n in names if not hasattr(oakit, n)] == []


def _oakit_imports(module: str) -> set[str]:
    """The oakit modules that ``module`` imports anywhere in its source ("" is the package)."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ("oakit." if node.level else "") + (node.module or "")
            if node.module:
                names.add(base)
            else:  # from . import module
                names.update(base + alias.name for alias in node.names)
    inside = (name.split(".") for name in names)
    return {parts[1] if len(parts) > 1 else "" for parts in inside if parts[0] == "oakit"}


def test_import_direction():
    # the digit groups sit below arrays and algebra, which both build on them
    assert _oakit_imports("groups") <= {"errors"}
    assert not _oakit_imports("arrays") & {"algebra", ""}
    assert {"groups", "arrays"} <= _oakit_imports("algebra")
