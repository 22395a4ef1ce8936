"""Every module of the package (its `__init__` aside, which re-exports)
uses each name it imports: a name that is imported and never read is
left over from a refactor.  So is a private module-level function or
class that no module of the package reads.  And the CLI imports no
private name of the checking modules.  Only the stdlib `ast` module is
used, so the checks run wherever the tests run.  And importing the
package, or running a command that scans nothing, does not load numpy."""
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


def unreferenced_private_defs(sources: dict):
    """The `_`-prefixed functions and classes defined at module level in
    `sources` (module name -> source) that no module reads, as a name or
    as an attribute, as "module.name" in definition order."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [f"{name}.{node.name}" for name, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and node.name not in used]


def test_the_check_sees_a_private_def_left_behind():
    sources = {"a": "def _read(): pass\ndef _left(): pass\n"
                    "class _Gone: pass\ndef __getattr__(n): pass\n"
                    "def public(): return _read()\n",
               "b": "from . import a\n"
                    "def _used_elsewhere(): pass\n",
               "c": "from . import b\nb._used_elsewhere()\n"}
    assert unreferenced_private_defs(sources) == ["a._left", "a._Gone"]


def test_every_private_def_is_referenced():
    sources = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_private_defs(sources) == []


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
