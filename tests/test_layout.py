"""The package's layout: each public name has one binding, its module path.

Modules reach each other only through public names, and `import spinwhiten`
binds its modules and `__version__`, not a second name for any function or
class. Every public function, class and method is used somewhere in the
package, and no module imports a name it does not use.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import subprocess_env

import spinwhiten
from spinwhiten.rng import seed_for_gamma

PACKAGE_DIR = Path(spinwhiten.__file__).parent
SOURCES = sorted(PACKAGE_DIR.glob("*.py"))
SIBLINGS = {path.stem for path in SOURCES}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_cross_module_uses(tree: ast.Module) -> list[str]:
    """`from .x import _y` and `x._y` for a sibling module x, as "line: name"."""
    module_names = set()  # local names bound to sibling modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            sibling = node.level == 1 or (node.module or "").split(".")[0] == "spinwhiten"
            if not sibling:
                continue
            for alias in node.names:
                if node.module in (None, "spinwhiten") and alias.name in SIBLINGS:
                    module_names.add(alias.asname or alias.name)
                elif _private(alias.name):
                    found.append(f"{node.lineno}: {alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in module_names and _private(node.attr)):
            found.append(f"{node.lineno}: {node.value.id}.{node.attr}")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_private_name_crosses_a_module(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _private_cross_module_uses(tree) == []


def test_the_check_sees_private_cross_module_uses():
    tree = ast.parse("from . import rng as r\nfrom .rng import _MASK\nx = r._TABLE\ny = r.words\n")
    assert _private_cross_module_uses(tree) == ["2: _MASK", "3: r._TABLE"]


# A fresh interpreter, so that no other test's import binds a module first.
BARE_IMPORT = """
import inspect, spinwhiten
print(sorted(name for name, value in vars(spinwhiten).items()
             if not inspect.ismodule(value) and not name.startswith("__")))
print(sorted(name for name, value in vars(spinwhiten).items() if inspect.ismodule(value)))
print(spinwhiten.rng.seed_for_gamma(0.5))
"""


def test_package_binds_only_modules_and_version():
    result = subprocess.run([sys.executable, "-c", BARE_IMPORT], capture_output=True,
                            text=True, env=subprocess_env(), check=True)
    non_modules, modules, seed = result.stdout.splitlines()
    assert non_modules == "[]"
    # every module but the command line is reachable from the bare import
    assert SIBLINGS - {"__init__", "__main__", "cli"} <= set(ast.literal_eval(modules))
    assert int(seed) == seed_for_gamma(0.5)


# Public names that the package itself does not call: the library API that
# the acceptance tests call. Click commands are called by click.
LIBRARY_API = ("fft_inverse", "enhancement_report", "format_program", "seed_for_gamma")


def _click_command(node: ast.AST) -> bool:
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr in ("command", "group") for d in node.decorator_list)


def _public_definitions(tree: ast.Module) -> list[str]:
    """Public top-level functions and classes and the public methods of
    top-level classes, click commands left out."""
    found = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        found.append(node)
        if isinstance(node, ast.ClassDef):
            found += [item for item in node.body if isinstance(item, ast.FunctionDef)]
    return [node.name for node in found
            if not node.name.startswith("_") and not _click_command(node)]


def _referenced_names(tree: ast.Module) -> set[str]:
    """Every name the tree loads, reads as an attribute or imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _unused_public_names(trees: list[ast.Module]) -> list[str]:
    used = set().union(*map(_referenced_names, trees))
    return sorted(name for tree in trees for name in _public_definitions(tree)
                  if name not in used and name not in LIBRARY_API)


def test_every_public_name_is_used_in_the_package():
    trees = [ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in SOURCES]
    assert _unused_public_names(trees) == []


def test_the_check_sees_unused_public_names():
    trees = [ast.parse("class A:\n    def m(self): pass\n    def n(self): pass\n"
                       "def f(): pass\ndef _g(): pass\n"
                       "@main.command('x')\ndef cmd(): pass\n"),
             ast.parse("from .a import A\nA().n()\n")]
    assert _unused_public_names(trees) == ["f", "m"]


def _dataclass_fields(tree: ast.Module) -> list[str]:
    """"Class.field" for each annotated field of the top-level dataclasses."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
                for d in node.decorator_list):
            found += [f"{node.name}.{item.target.id}" for item in node.body
                      if isinstance(item, ast.AnnAssign)]
    return found


def _unread_fields(trees: list[ast.Module]) -> list[str]:
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return sorted(name for tree in trees for name in _dataclass_fields(tree)
                  if name.split(".")[1] not in read)


def test_every_dataclass_field_is_read_in_the_package():
    trees = [ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in SOURCES]
    assert _unread_fields(trees) == []


def test_the_check_sees_unread_fields():
    trees = [ast.parse("@dataclass(frozen=True)\nclass A:\n    x: int\n    y: int\n"
                       "@dataclass\nclass B:\n    z: int = 0\n    w: int = 0\n"
                       "@functools.total_ordering\nclass C:\n    v: int\n"),
             ast.parse("def f(a, b):\n    b.w = a.x\n")]
    assert _unread_fields(trees) == ["A.y", "B.w", "B.z"]


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names an import binds that the module never loads."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, alias.asname or alias.name.split(".")[0])
                      for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, alias.asname or alias.name) for alias in node.names]
    loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}: {name}" for line, name in bound if name not in loaded]


# The package's __init__ imports for effect: numpy under one BLAS thread, and
# the modules as attributes of the package.
@pytest.mark.parametrize("path", [path for path in SOURCES if path.name != "__init__.py"],
                         ids=lambda path: path.name)
def test_no_module_imports_a_name_it_does_not_use(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _unused_imports(tree) == []


def test_the_check_sees_unused_imports():
    tree = ast.parse("import os.path\nfrom . import rng as r\nfrom .errors import A, B\n"
                     "r.words(B)\n")
    assert _unused_imports(tree) == ["1: os", "3: A"]
