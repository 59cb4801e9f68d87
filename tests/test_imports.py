"""Every name a module imports is used in it, and every definition is used.

An AST check over ``src/hybridloc``, ``tests`` and ``tools``: a name bound
by ``import`` or ``from ... import`` must be read somewhere in its module.
An import line marked ``# noqa: F401`` is a deliberate re-export and is
skipped, as are ``__future__`` imports.

A second AST check: every module-level ``def`` or ``class`` in
``src/hybridloc`` must be named somewhere besides its own definition, in
``src``, ``tests``, ``tools`` or ``perfbench``: read as a name or an
attribute, imported, or given as the attribute string of perfbench's
``Point(owner, "attr", ...)`` trace points.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    path
    for folder in ("src/hybridloc", "tests", "tools")
    for path in (ROOT / folder).glob("*.py")
)


def unused_imports(source: str) -> list:
    """``(line, name)`` of each imported name ``source`` never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                if "noqa: F401" not in lines[alias.lineno - 1]:
                    name = alias.asname or alias.name.split(".")[0]
                    imported.setdefault(name, alias.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_name_and_honours_noqa():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "import os.path as osp\n"
        "from json import dumps, loads  # noqa: F401\n"
        "from math import (\n"
        "    pi,\n"
        "    tau,\n"
        ")\n"
        "print(np.pi, pi)\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "osp"), (8, "tau")]


PACKAGE = sorted((ROOT / "src/hybridloc").glob("*.py"))
REFERENCING = MODULES + sorted((ROOT / "perfbench").glob("*.py"))


def named(source: str) -> set:
    """The names ``source`` reads, imports or traces through ``Point``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "Point" and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant)):
            names.add(node.args[1].value)
    return names


def dead_definitions(defining: dict, referencing: list) -> list:
    """``(module, name)`` of each module-level ``def`` or ``class`` of the
    sources ``defining`` maps by module that neither they nor the sources
    ``referencing`` name."""
    used = set().union(*map(named, [*defining.values(), *referencing]))
    return sorted(
        (module, node.name)
        for module, source in defining.items()
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in used
    )


def test_every_package_definition_is_named():
    defining = {str(p.relative_to(ROOT)): p.read_text() for p in PACKAGE}
    referencing = [p.read_text() for p in REFERENCING if p not in PACKAGE]
    assert dead_definitions(defining, referencing) == []


def test_the_dead_definition_check_sees_an_unnamed_def():
    defining = {"mod": (
        "def called():\n"
        "    pass\n"
        "def orphan():\n"
        "    return called()\n"
        "class Traced:\n"
        "    def method(self):\n"
        "        pass\n"
        "class Unused:\n"
        "    pass\n"
        "def imported():\n"
        "    pass\n"
        "def via_attribute():\n"
        "    pass\n"
        "unrelated = 'orphan'\n"
    )}
    referencing = [
        "from mod import imported\n",
        "import mod\nmod.via_attribute()\n",
        "Point(mod, 'Traced', 'mod.Traced')\n",
        "Unused = 1\n",
    ]
    assert dead_definitions(defining, referencing) == [("mod", "Unused"), ("mod", "orphan")]
