"""The package's layout: each public name has one binding, its module path.

Modules reach each other only through public names, and `import spinwhiten`
binds its modules and `__version__`, not a second name for any function or
class.
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
