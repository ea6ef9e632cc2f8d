"""Import layering of the package, read from its source with ast.

No module imports an underscore name from another opptypes module, or
reads one off a package module it imported, and duality.py, on which the
kernel builds, imports nothing from kernel.py, not even inside a function.
"""

import ast
from pathlib import Path

import opptypes

SRC = Path(opptypes.__file__).parent


def _imports(tree):
    """(module, name, local) for each name imported from the package, at
    any nesting level: module is its module within the package, name is
    None where the module itself is imported, and local is the name bound."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                module = node.module or ""
            elif (node.module or "").split(".")[0] == "opptypes":
                module = node.module.partition(".")[2]
            else:
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                if module:
                    yield module, alias.name, local
                else:                       # from . import kernel
                    yield alias.name, None, local
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("opptypes.") and alias.asname:
                    yield alias.name.partition(".")[2], None, alias.asname


def _violations(path):
    tree = ast.parse(path.read_text(), str(path))
    own, found, modules = path.stem, [], set()
    for module, name, local in _imports(tree):
        if name is None:
            modules.add(local)
        elif module != own and name.startswith("_"):
            found.append(f"{own} imports {module}.{name}")
        if own == "duality" and module == "kernel":
            found.append(f"duality imports from kernel: {name or module}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
                and node.attr.startswith("_")):
            found.append(f"{own} reads {node.value.id}.{node.attr}")
    return found


def test_no_module_imports_another_modules_privates():
    paths = sorted(SRC.glob("*.py"))
    assert {"duality.py", "kernel.py", "search.py"} <= {p.name for p in paths}
    assert [v for p in paths for v in _violations(p)] == []


def test_the_scan_finds_each_kind_of_breach(tmp_path):
    path = tmp_path / "duality.py"
    path.write_text("from .syntax import _PLANS, onf\n"
                    "def f():\n"
                    "    from opptypes.kernel import check\n"
                    "    from . import script as s\n"
                    "    return s._x\n")
    assert _violations(path) == ["duality imports syntax._PLANS",
                                 "duality imports from kernel: check",
                                 "duality reads s._x"]
