"""Every name a library module imports is used there (or re-exported
through ``__all__``), and every import sits at module level."""
import ast
import pathlib

import pytest

import svtkit

SRC = pathlib.Path(svtkit.__file__).parent
MODULES = sorted(SRC.rglob("*.py"))
IDS = [str(p.relative_to(SRC)) for p in MODULES]


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= {elt.value for elt in node.value.elts}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_detects_an_unused_import():
    src = "import math\nimport numpy as np\nfrom os import path\nnp.pi\n"
    assert unused_imports(src) == [(1, "math"), (3, "path")]


@pytest.mark.parametrize("path", MODULES, ids=IDS)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


# `svtkit poly` and `phases` do not load the apps
DEFERRED_IMPORTS = {("cli.py", "cmd_apps", ".apps")}


def nested_imports(source: str) -> list:
    """(function, module) for each import inside a function body."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, ast.ImportFrom):
                    found.append((fn.name, "." * node.level
                                  + (node.module or "")))
                elif isinstance(node, ast.Import):
                    found += [(fn.name, alias.name) for alias in node.names]
    return found


def test_detects_a_nested_import():
    src = "import math\ndef f():\n    from ..qsp import x\n    import os\n"
    assert nested_imports(src) == [("f", "..qsp"), ("f", "os")]


@pytest.mark.parametrize("path", MODULES, ids=IDS)
def test_no_nested_imports(path):
    where = str(path.relative_to(SRC))
    assert [(fn, mod) for fn, mod in nested_imports(path.read_text())
            if (where, fn, mod) not in DEFERRED_IMPORTS] == []
