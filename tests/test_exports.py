"""Every public name is defined in the module that exports it, and something
outside the tests uses it: another module of the package, the benchmark, or
the README's Library example."""

import ast
import functools
import re
from pathlib import Path

import pytest

import nilwords

PACKAGE = Path(nilwords.__file__).parent
ROOT = PACKAGE.parent.parent
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")

# Exported names that nothing outside the tests uses, each with its reason.
ALLOWED = {
    # The group inverse belongs to the group API next to `multiply`.
    ("lie_core.py", "inverse"),
}


@functools.lru_cache(maxsize=None)
def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def _references(node):
    """The names and attribute names that the code under node reads or
    writes; import statements are not uses."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
    return found


def _library_example():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def _outside_uses(module):
    """What code outside the module and the tests names: the package's other
    modules (a re-export in `__init__.py` is not a use), the benchmark
    scripts, whose tracer also names functions in strings, and the README's
    Library example."""
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name not in (module, "__init__.py"):
            used |= _references(_tree(path))
    for path in (ROOT / "perfbench").glob("*.py"):
        tree = _tree(path)
        used |= _references(tree)
        used |= {
            sub.value for sub in ast.walk(tree)
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
        }
    return used | set(re.findall(r"\w+", _library_example()))


def _definitions(tree):
    """{top-level name: the statement that binds it}, and the other
    top-level statements, which run on import."""
    defined, loose = {}, []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[stmt.name] = stmt
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        defined[sub.id] = stmt
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            continue
        elif not (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)):
            loose.append(stmt)  # a docstring is not code
    return defined, loose


def _exports(tree):
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
        ):
            return ast.literal_eval(stmt.value)
    return []


def _live(tree, used):
    """The module's top-level names reachable from the outside uses and from
    the statements that run on import, through the definitions that use
    them."""
    defined, loose = _definitions(tree)
    used = used.union(*(_references(stmt) for stmt in loose))
    live, todo = set(), [name for name in defined if name in used]
    while todo:
        name = todo.pop()
        if name in live:
            continue
        live.add(name)
        todo += [ref for ref in _references(defined[name]) if ref in defined]
    return live


@pytest.mark.parametrize("module", MODULES)
def test_every_export_is_defined_here(module):
    tree = _tree(PACKAGE / module)
    defined, _ = _definitions(tree)
    assert [name for name in _exports(tree) if name not in defined] == []


def _dead(module):
    tree = _tree(PACKAGE / module)
    live = _live(tree, _outside_uses(module))
    return [name for name in _exports(tree) if name not in live]


@pytest.mark.parametrize("module", MODULES)
def test_every_export_is_used_outside_the_tests(module):
    assert [name for name in _dead(module) if (module, name) not in ALLOWED] == []


def test_every_allowance_is_needed():
    for module, name in ALLOWED:
        assert name in _dead(module)


def test_library_example_names_exist():
    imports = [
        stmt for stmt in ast.parse(_library_example()).body
        if isinstance(stmt, ast.ImportFrom)
    ]
    names = [alias.name for stmt in imports for alias in stmt.names]
    assert names and [name for name in names if not hasattr(nilwords, name)] == []


def test_the_scan_follows_uses_within_a_module():
    # a is used outside; b only through a; c and d only by each other; E
    # by a statement that runs on import; F by nothing.
    source = (
        "import os\n"
        "def a():\n"
        "    return b()\n"
        "def b():\n"
        "    return os.sep\n"
        "def c():\n"
        "    return d()\n"
        "def d():\n"
        "    return c()\n"
        "E = 1\n"
        "F = 2\n"
        "assert E\n"
    )
    assert _live(ast.parse(source), {"a"}) == {"a", "b", "E"}
