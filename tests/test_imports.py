"""Every name a library module imports is used there (or re-exported
through ``__all__``), every import sits at module level, and every public
function, class and method of the library is referenced in the library,
its tests or the benchmark harness.  Importing the library loads numpy
and no scipy.  Only `blockenc._norm_at_most` compares a 2-norm with a
value.  No module names an extended-precision dtype or `cheb2poly`."""
import ast
import functools
import os
import pathlib
import subprocess
import sys

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


# every public function, class and method is referenced somewhere
ROOT = pathlib.Path(__file__).resolve().parents[1]
REFERRING = MODULES + sorted((ROOT / "tests").rglob("*.py")) + sorted(
    (ROOT / "perfbench").rglob("*.py"))


def public_definitions(source: str) -> list:
    """(line, name) of each public function and class at module level and
    of each public method of a class there."""
    found = []

    def visit(body):
        for node in body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and not node.name.startswith("_")):
                found.append((node.lineno, node.name))
            if isinstance(node, ast.ClassDef):
                visit(node.body)

    visit(ast.parse(source).body)
    return found


def references(source: str) -> set:
    """Every name, attribute and ``__all__`` string in a module, except a
    reference inside a definition of the same name.  Importing a name is
    not a use of it."""
    found = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            inside = inside | {node.name}
        names = []
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            names = [elt.value for elt in node.value.elts]
        found.update(name for name in names if name not in inside)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(source), frozenset())
    return found


@functools.cache
def references_in(path: pathlib.Path) -> set:
    return references(path.read_text())


def unreferenced(source: str, elsewhere=frozenset()) -> list:
    """The public definitions of ``source`` that neither it refers to nor
    appear among the names ``elsewhere``."""
    used = references(source) | elsewhere
    return [(line, name) for line, name in public_definitions(source)
            if name not in used]


def test_detects_an_unreferenced_definition():
    src = ("def f():\n    return f()\n"
           "class A:\n    def g(self):\n        return helper\n"
           "def helper():\n    pass\n"
           "def _private():\n    pass\n"
           "A().g\n")
    assert unreferenced(src) == [(1, "f")]
    assert unreferenced(src, references("__all__ = ['f']\n")) == []
    assert unreferenced(src, references("from m import f\n")) == [(1, "f")]
    assert unreferenced(src, references("from m import f\nf()\n")) == []


@pytest.mark.parametrize("path", MODULES, ids=IDS)
def test_every_public_definition_is_referenced(path):
    elsewhere = set().union(*(references_in(p) for p in REFERRING
                              if p != path))
    assert unreferenced(path.read_text(), elsewhere) == []


def compared_norms(source: str) -> list:
    """(line, function) of each comparison that has an `operator_norm`
    call in an operand, outside `_norm_at_most`."""
    found = []

    def is_norm_call(node):
        return isinstance(node, ast.Call) and "operator_norm" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None))

    def visit(node, fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        if (isinstance(node, ast.Compare) and fn != "_norm_at_most"
                and any(is_norm_call(sub)
                        for side in [node.left, *node.comparators]
                        for sub in ast.walk(side))):
            found.append((node.lineno, fn))
        for child in ast.iter_child_nodes(node):
            visit(child, fn)

    visit(ast.parse(source), None)
    return found


def test_detects_a_compared_norm():
    src = ("def f(m):\n    return operator_norm(m) > 1\n"
           "def _norm_at_most(m, tol):\n    return operator_norm(m) <= tol\n"
           "def g(m):\n"
           "    return 2 * blockenc.operator_norm(m) <= 1, operator_norm(m)\n"
           "x = operator_norm(y) < 1\n")
    assert compared_norms(src) == [(2, "f"), (6, "g"), (7, None)]


@pytest.mark.parametrize("path", MODULES, ids=IDS)
def test_only_norm_at_most_compares_a_two_norm(path):
    # a 2-norm that is only compared goes through `_norm_at_most`, which
    # takes the Frobenius norm first; one that is reported is measured
    assert compared_norms(path.read_text()) == []


EXTENDED_DTYPES = {"longdouble", "clongdouble", "float128", "complex256"}


def named_in_code(source: str, wanted) -> list:
    """(line, name) of each name, attribute or imported name in the code
    that is in ``wanted``; comments and strings do not count."""
    found = []
    for node in ast.walk(ast.parse(source)):
        names = []
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name.split(".")[-1] for alias in node.names]
        found += [(node.lineno, name) for name in names if name in wanted]
    return sorted(found)


def extended_dtypes(source: str) -> list:
    return named_in_code(source, EXTENDED_DTYPES)


def test_detects_an_extended_dtype():
    src = ("import numpy as np\n"
           "# np.longdouble in a comment\n"
           "x = np.clongdouble(1)\n"
           "def f():\n    \"\"\"float128 in a docstring\"\"\"\n"
           "    return longdouble\n"
           "from numpy import complex256\n")
    assert extended_dtypes(src) == [(3, "clongdouble"), (6, "longdouble"),
                                    (7, "complex256")]


@pytest.mark.parametrize("path", MODULES, ids=IDS)
def test_no_extended_precision(path):
    # a result must not depend on the platform's long double (80-bit,
    # IEEE quad or plain double), so every module computes in double
    assert extended_dtypes(path.read_text()) == []


def test_detects_cheb2poly():
    src = ("from numpy.polynomial import chebyshev as npcheb\n"
           "# npcheb.cheb2poly in a comment\n"
           "def f(c):\n    \"\"\"cheb2poly in a docstring\"\"\"\n"
           "    return npcheb.cheb2poly(c)\n"
           "from numpy.polynomial.chebyshev import cheb2poly\n")
    assert named_in_code(src, {"cheb2poly"}) == [(5, "cheb2poly"),
                                                 (6, "cheb2poly")]


@pytest.mark.parametrize("path", MODULES, ids=IDS)
def test_no_chebyshev_to_monomial(path):
    # a series re-expanded in powers is unsound by degree 59 (monomial
    # coefficients of 6.5e16), so the monomial basis stays an input format
    assert named_in_code(path.read_text(), {"cheb2poly"}) == []


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy alone would add ~0.3 s
    # to the cold start of every CLI call
    code = ("import sys, svtkit, svtkit.apps, svtkit.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC.parent), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
