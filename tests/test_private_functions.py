"""Every top-level private function of the package (`_name`, not a
dunder) is referenced somewhere in the package outside its own
definition: a private function that nothing calls is left over from a
refactor.  Public functions are exempt, as the CLI looks its `cmd_*`
handlers up by name.  Only the stdlib `ast` module is used, so the check
runs wherever the tests run."""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "antiprelie"


def _referenced(node):
    """The names a syntax tree reads: names, attributes and imports."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def unreferenced_private_functions(sources):
    """(module, name) of every top-level private function of the modules
    {module: source} that no other top-level statement of any of them
    references, in module and definition order."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    defined, uses = [], []
    for module, tree in trees.items():
        for stmt in tree.body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and stmt.name.startswith("_") \
                    and not stmt.name.startswith("__"):
                own = stmt.name
                defined.append((module, own))
            uses.append((own, _referenced(stmt)))
    return [(module, name) for module, name in defined
            if not any(name in names for own, names in uses if own != name)]


def test_the_check_sees_an_unreferenced_private_function():
    sources = {
        "a": "def _used():\n    pass\n\n"
             "def _dead():\n    return _dead()\n\n"
             "def public():\n    return _used()\n",
        "b": "from .a import _imported\n",
        "c": "def _imported():\n    pass\n\n"
             "def _by_attribute():\n    pass\n\n"
             "x = obj._by_attribute\n\n"
             "def __dunder__():\n    pass\n",
    }
    assert unreferenced_private_functions(sources) == [("a", "_dead")]


def test_every_private_function_is_referenced():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_private_functions(sources) == []
