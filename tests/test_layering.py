"""Each `burau` module uses only the public names of the others: it imports
no underscore name from another `burau` module and reads none as an
attribute of one.  Tests may still reach in.  Beside `burau` modules, the
package imports only the standard library."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "burau"


def _burau_module(node: ast.ImportFrom) -> bool:
    return node.level > 0 or (node.module or "").split(".")[0] == "burau"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _root(node: ast.expr) -> ast.expr:
    """The `a` of an attribute chain `a.b.c`."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node


def private_reach_ins(path: Path) -> list:
    """(line, name) for each underscore name that the module at `path`
    imports from, or reads off, another `burau` module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = set()  # local names bound to burau modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _burau_module(node):
            for alias in node.names:
                if _private(alias.name):
                    found.append((node.lineno, alias.name))
                elif node.module is None or node.module == "burau":
                    modules.add(alias.asname or alias.name)  # from . import search
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "burau":
                    modules.add(alias.asname or alias.name.split(".")[0])
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and _private(node.attr)
            and isinstance(root := _root(node.value), ast.Name)
            and root.id in modules
        ):
            found.append((node.lineno, node.attr))
    return sorted(found)


def test_no_module_reaches_into_another():
    sources = sorted(SRC.glob("*.py"))
    assert len(sources) > 5
    reach_ins = {
        path.name: found for path in sources if (found := private_reach_ins(path))
    }
    assert reach_ins == {}


def test_the_check_sees_both_kinds_of_reach_in(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text(
        "from . import laurent\n"
        "from .matrices import _SlotCodec, act\n"
        "import burau.search as search\n"
        "import burau.garside\n"
        "x = laurent._canonical\n"
        "y = search._walk_bands\n"
        "v = burau.garside._NFState\n"
        "z = laurent.row_step, laurent.__name__\n"
        "w = act._private\n"
    )
    assert private_reach_ins(module) == [
        (2, "_SlotCodec"),
        (5, "_canonical"),
        (6, "_walk_bands"),
        (7, "_NFState"),
    ]


def foreign_imports(path: Path) -> list:
    """(line, module) for each import in the module at `path` that is not
    `__future__`, a `burau` module or a standard-library module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            names = [] if _burau_module(node) else [node.module]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            if top not in ("__future__", "burau") and top not in sys.stdlib_module_names:
                found.append((node.lineno, name))
    return found


def test_the_package_imports_only_the_standard_library(tmp_path):
    sources = sorted(SRC.glob("*.py"))
    assert len(sources) > 5
    assert {path.name: found for path in sources if (found := foreign_imports(path))} == {}
    # the check sees a third-party import, in either form
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from __future__ import annotations\nimport json, numpy.linalg\n"
        "from . import search\nfrom burau.laurent import ZZ\nfrom hypothesis import given\n"
    )
    assert foreign_imports(probe) == [(2, "numpy.linalg"), (5, "hypothesis")]
