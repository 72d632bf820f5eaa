"""Dead names in the package source: imports and nested functions.

Each module of ``siphkit`` is parsed with ``ast``.  A name an import binds
must be read somewhere in its module, and a function defined inside another
must be read somewhere in the function that defines it.  ``__future__``
imports and the re-exports of ``__init__.py`` are exempt.
"""

import ast
from pathlib import Path

import pytest

import siphkit

MODULES = sorted(p for p in Path(siphkit.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _loaded(node) -> set:
    """The names read anywhere under ``node``."""
    return {n.id for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def _unused_imports(tree) -> list:
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [(alias.asname or alias.name).split(".")[0]
                      for alias in node.names]
    used = _loaded(tree)
    return [name for name in bound if name not in used]


def _unreferenced_nested_functions(tree) -> list:
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    unused = []
    for outer in ast.walk(tree):
        if not isinstance(outer, functions):
            continue
        used = _loaded(outer)
        unused += [f"{outer.name}.{inner.name}" for inner in ast.walk(outer)
                   if inner is not outer and isinstance(inner, functions)
                   and inner.name not in used]
    return unused


def test_the_package_has_modules_to_check():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_and_nested_function_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _unused_imports(tree) == []
    assert _unreferenced_nested_functions(tree) == []


def test_the_checks_find_dead_names():
    tree = ast.parse("import os\nfrom typing import Callable, Optional\n"
                     "x: Optional[int] = None\n"
                     "def f():\n    def g():\n        pass\n"
                     "    def h():\n        pass\n    return h\n")
    assert _unused_imports(tree) == ["os", "Callable"]
    assert _unreferenced_nested_functions(tree) == ["f.g"]
