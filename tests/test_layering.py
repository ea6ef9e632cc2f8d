"""Import layering of the package, read from its source with ast, and
what importing it loads, seen in a fresh interpreter.

No module imports an underscore name from another opptypes module, or
reads one off a package module it imported, and duality.py, on which the
kernel builds, imports nothing from kernel.py, not even inside a function.
The core imports the front end only inside functions, and `import
opptypes` loads the core alone; the front end loads on first use.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import opptypes

SRC = Path(opptypes.__file__).parent
CORE = ("errors", "syntax", "duality", "kernel", "search")
FRONT_END = ("logic", "parser", "printer", "runner", "script")


def _imports(nodes):
    """(module, name, local) for each name imported from the package by
    one of nodes: module is its module within the package, name is None
    where the module itself is imported, and local is the name bound."""
    for node in nodes:
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
                if alias.name.startswith("opptypes."):
                    yield (alias.name.partition(".")[2], None,
                           alias.asname or "opptypes")


def _run_at_import(tree):
    """The nodes of tree outside every function body: what runs when
    its module is imported."""
    todo = [tree]
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            todo.extend(ast.iter_child_nodes(node))


def _violations(path):
    tree = ast.parse(path.read_text(), str(path))
    own, found, modules = path.stem, [], set()
    for module, name, local in _imports(ast.walk(tree)):
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


def _front_end_imports(path):
    tree = ast.parse(path.read_text(), str(path))
    return [f"{path.stem} imports {module}"
            for module, _, _ in _imports(_run_at_import(tree))
            if module.partition(".")[0] in FRONT_END]


def test_the_core_imports_no_front_end_at_module_level():
    assert [v for m in CORE for v in _front_end_imports(SRC / f"{m}.py")] \
        == []


def test_the_front_end_scan_skips_only_function_bodies(tmp_path):
    path = tmp_path / "syntax.py"
    path.write_text("import opptypes.logic\n"
                    "class C:\n"
                    "    from .printer import type_str\n"
                    "    def __str__(self):\n"
                    "        from .printer import term_str\n"
                    "        return term_str(self)\n")
    assert sorted(_front_end_imports(path)) == ["syntax imports logic",
                                                "syntax imports printer"]


def _fresh(code):
    """What code, run in a fresh interpreter that finds this package,
    prints as its last line, read as JSON."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def test_import_loads_exactly_the_core():
    loaded = _fresh("import json, sys, opptypes\n"
                    "print(json.dumps(sorted(m for m in sys.modules\n"
                    "                        if m.startswith('opptypes'))))")
    assert loaded == ["opptypes"] + sorted(f"opptypes.{m}" for m in CORE)


def test_every_exported_name_is_its_home_modules_object():
    # read first in a fresh interpreter, so each front-end name goes
    # through the package's __getattr__ and is then bound in it
    wrong = _fresh("""
import json, sys, types, opptypes
listed = set(dir(opptypes))
wrong = []
for name in opptypes.__all__:
    value = getattr(opptypes, name)
    if isinstance(value, types.ModuleType):
        same = sys.modules[f"opptypes.{name}"]
    else:
        same = getattr(sys.modules[value.__module__], name)
    if same is not value or name not in vars(opptypes) or name not in listed:
        wrong.append(name)
print(json.dumps(wrong))
""")
    assert wrong == []
    assert set(FRONT_END) | set(CORE) <= set(opptypes.__all__)
    assert {"parse", "run", "report_json", "type_str", "Script",
            "translate", "check", "onf", "bounded_inhabit"} \
        <= set(opptypes.__all__)


def test_a_star_import_binds_every_exported_name():
    names = {}
    exec("from opptypes import *", names)
    assert names.keys() - {"__builtins__"} == set(opptypes.__all__)
    for name in opptypes.__all__:
        assert names[name] is getattr(opptypes, name)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError,
                       match="^module 'opptypes' has no attribute 'nonesuch'$"):
        opptypes.nonesuch
    assert "nonesuch" not in vars(opptypes)
