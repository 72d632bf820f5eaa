"""Dead names in the package source, and witness kinds README leaves out.

Each module of ``siphkit`` is parsed with ``ast``.  A name an import binds
must be read somewhere in its module, and a function defined inside another
must be read somewhere in the function that defines it.  ``__future__``
imports and the re-exports of ``__init__.py`` are exempt.

Every witness-kind literal of the modules must appear in README, in
backquotes.  The kinds ``rays.ray_witness_kinds`` composes from a ray's
outcome are not literals: README's naming rule covers them.
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


# -----------------------------------------------------------------------------
# every witness kind that reaches a report is named in README

README = Path(__file__).resolve().parent.parent / "README.md"


def _strings(node) -> set:
    return {n.value for n in ast.walk(node)
            if isinstance(n, ast.Constant) and isinstance(n.value, str)}


def _kind_parameters(trees) -> dict:
    """Each function that takes a witness kind: its name -> the position of
    its ``kind`` parameter."""
    found = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [a.arg for a in node.args.posonlyargs + node.args.args]
                if "kind" in names:
                    found[node.name] = names.index("kind")
    return found


def _witness_kinds(tree, takes_kind: dict) -> set:
    """The witness-kind literals of a module: the str value of a "kind" key
    in a dict display; the str constants of the ``kind`` argument of a call
    to a function of ``takes_kind``, or of what the function that makes the
    call assigns to the name it passes there; and the kind of a sandwich
    check, the str second item of a (rows, kind, cap, columns) tuple."""
    kinds = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            kinds |= {v.value for k, v in zip(node.keys, node.values)
                      if isinstance(k, ast.Constant) and k.value == "kind"
                      and isinstance(v, ast.Constant) and isinstance(v.value, str)}
        elif (isinstance(node, ast.Tuple) and len(node.elts) == 4
              and isinstance(node.elts[2], ast.Name)
              and node.elts[2].id in ("FEW_WITNESSES", "MAX_WITNESSES")):
            kinds |= _strings(node.elts[1])
    for outer in ast.walk(tree):
        if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(outer):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            if name not in takes_kind or len(call.args) <= takes_kind[name]:
                continue
            arg = call.args[takes_kind[name]]
            kinds |= _strings(arg)
            if isinstance(arg, ast.Name):
                kinds |= {s for a in ast.walk(outer) if isinstance(a, ast.Assign)
                          and any(isinstance(t, ast.Name) and t.id == arg.id
                                  for t in a.targets) for s in _strings(a.value)}
    return kinds


def _source_witness_kinds() -> set:
    trees = [ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
             for p in MODULES]
    takes_kind = _kind_parameters(trees)
    return set().union(*(_witness_kinds(tree, takes_kind) for tree in trees))


def test_readme_names_every_witness_kind():
    kinds = _source_witness_kinds()
    # kinds the finder must see, one of each way a kind is written
    assert {"residual_exceeded", "order_disagreement", "level_unreachable",
            "ball_inclusion", "euler_residual", "bracket_exhausted"} <= kinds
    readme = README.read_text(encoding="utf-8")
    assert sorted(k for k in kinds if f"`{k}`" not in readme) == []
