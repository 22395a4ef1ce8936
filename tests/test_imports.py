"""Every module of the package (its `__init__` aside, which re-exports)
uses each name it imports: a name that is imported and never read is
left over from a refactor.  So is a private module-level function or
class that nothing outside its own definition reads.  The CLI imports no
private name of the checking modules, and only `scalars` and `linalg`
know the plain-value format of the checks.  Only the stdlib `ast`
module is used, so the checks run wherever the tests run.  And
importing the package, or running a command that scans nothing, does
not load numpy."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "antiprelie"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str):
    """The names bound by the module's imports that nothing reads, in
    the order of their import statements."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a name listed in __all__ is used by re-export
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= {e.value for e in node.value.elts}
    return [name for name in imported if name not in used]


def test_the_check_sees_an_unused_import():
    source = "import json\nfrom .linalg import Matrix, _vadd\nMatrix()\n"
    assert unused_imports(source) == ["json", "_vadd"]
    assert unused_imports("from __future__ import annotations\n") == []
    assert unused_imports("import os.path\nos.sep\n") == []
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _read_names(node):
    """The names a syntax tree reads: names, attributes and the names
    that its relative and absolute `from` imports bind."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def unreferenced_private_defs(sources: dict):
    """The `_`-prefixed functions and classes defined at module level in
    `sources` (module name -> source), dunders aside, that no top-level
    statement of any module reads outside the definition itself: a
    function that only calls itself is unreferenced.  Listed as
    "module.name" in module and definition order.  Public functions are
    exempt, as the CLI looks its `cmd_*` handlers up by name."""
    defs, reads = [], []
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) \
                    and stmt.name.startswith("_") \
                    and not stmt.name.startswith("__"):
                defs.append((module, stmt))
            reads.append((stmt, _read_names(stmt)))
    return [f"{module}.{stmt.name}" for module, stmt in defs
            if not any(stmt.name in names for other, names in reads
                       if other is not stmt)]


def test_the_check_sees_a_private_def_left_behind():
    sources = {"a": "def _read(): pass\ndef _left(): pass\n"
                    "class _Gone: pass\ndef __getattr__(n): pass\n"
                    "def public(): return _read()\n",
               "b": "from . import a\n"
                    "def _used_elsewhere(): pass\n",
               "c": "from . import b\nb._used_elsewhere()\n"}
    assert unreferenced_private_defs(sources) == ["a._left", "a._Gone"]


def test_the_check_sees_an_unreferenced_private_function():
    sources = {
        "a": "def _used():\n    pass\n\n"
             "def _dead():\n    return _dead()\n\n"
             "class _Self:\n    def f(self):\n        return _Self()\n\n"
             "def public():\n    return _used()\n",
        "b": "from .a import _imported\n",
        "c": "def _imported():\n    pass\n\n"
             "async def _by_attribute():\n    pass\n\n"
             "x = obj._by_attribute\n\n"
             "def __dunder__():\n    pass\n",
    }
    assert unreferenced_private_defs(sources) == ["a._dead", "a._Self"]


def test_every_private_def_is_referenced():
    sources = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_private_defs(sources) == []


# The plain-value helpers and the raw Scalar constructor, which only
# `scalars` and `linalg` may import, and the modules that compute on
# plain values through `linalg` alone, reading no field kind or modulus
# and testing no value for a dict.
PLAIN_HELPERS = {"_poly_add", "_poly_sub", "_poly_neg", "_poly_dot",
                 "_poly_mul", "_int_dot", "_make"}
PLAIN_OWNERS = {"scalars", "linalg"}
PLAIN_CLIENTS = {"algebra", "operators"}


def layering_violations(sources: dict):
    """(module, what) for each import of a `PLAIN_HELPERS` name outside
    `PLAIN_OWNERS`, and each `.kind` or `.p` read or isinstance test
    against dict in `PLAIN_CLIENTS`, in module and source order."""
    out = []
    for rank, (module, source) in enumerate(sources.items()):
        for node in ast.walk(ast.parse(source)):
            found = []
            if isinstance(node, ast.ImportFrom) and \
                    module not in PLAIN_OWNERS:
                found = [f"imports {a.name}" for a in node.names
                         if a.name in PLAIN_HELPERS]
            elif module not in PLAIN_CLIENTS:
                continue
            elif isinstance(node, ast.Attribute) and \
                    node.attr in ("kind", "p"):
                found = [f"reads .{node.attr}"]
            elif isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Name) and \
                    node.func.id == "isinstance" and any(
                        isinstance(n, ast.Name) and n.id == "dict"
                        for arg in node.args[1:] for n in ast.walk(arg)):
                found = ["tests for dict"]
            out += [((rank, node.lineno, node.col_offset), (module, what))
                    for what in found]
    return [v for _, v in sorted(out, key=lambda v: v[0])]


def test_the_check_sees_a_layering_violation():
    sources = {
        "cocycles": "from .scalars import (GF, _make)\n"
                    "from .linalg import _ring, _int_dot\n"
                    "if f.kind == 'GF': pass\n",
        "operators": "from .scalars import _poly_dot\n"
                     "p = f.p if isinstance(x, (int, dict)) else field.kind\n"
                     "ring, wrap = _ring(f), _way_back(f, den)\n",
        "linalg": "from .scalars import _make, _poly_mul\n"
                  "if f.kind == 'poly' and isinstance(x, dict): pass\n",
        "algebra": "from .linalg import _plain, _ring\nv = dict(x)\n",
    }
    assert layering_violations(sources) == [
        ("cocycles", "imports _make"), ("cocycles", "imports _int_dot"),
        ("operators", "imports _poly_dot"), ("operators", "reads .p"),
        ("operators", "tests for dict"), ("operators", "reads .kind")]


def test_only_linalg_and_scalars_know_the_plain_values():
    sources = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted(PACKAGE.glob("*.py"))}
    assert PLAIN_OWNERS | PLAIN_CLIENTS <= set(sources)
    assert layering_violations(sources) == []


CHECK_MODULES = ("operators", "algebra", "cocycles", "forms",
                 "representations")


def private_check_imports(source: str):
    """The `_`-prefixed names that `source` imports from the checking
    modules: the CLI reaches the checks only through their public entry
    points."""
    return [a.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level == 1
            and node.module in CHECK_MODULES
            for a in node.names if a.name.startswith("_")]


def test_the_check_sees_a_private_check_import():
    source = ("from .operators import _anti_o_residuals, check_anti_o\n"
              "from .scalars import _read_json\n"
              "from .algebra import (AlgebraPair,\n    _residuals)\n")
    assert private_check_imports(source) == ["_anti_o_residuals",
                                             "_residuals"]


def test_cli_imports_only_public_checks():
    source = (PACKAGE / "cli.py").read_text(encoding="utf-8")
    assert private_check_imports(source) == []


def test_numpy_loads_only_for_a_scan(tmp_path):
    # a fresh interpreter, since this one has numpy loaded already
    script = (
        "import sys\n"
        "import antiprelie, antiprelie.cli\n"
        "assert 'numpy' not in sys.modules, 'loaded on import'\n"
        "code = antiprelie.cli.main(['catalog', 'verify', '--scope',\n"
        "                            'A-families', '--out', sys.argv[1]])\n"
        "assert code == 0, code\n"
        "assert 'numpy' not in sys.modules, 'loaded by catalog verify'\n")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", script,
                           str(tmp_path / "verify.json")],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
