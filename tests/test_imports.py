"""Every name a module imports is used in it.

An AST check over ``src/hybridloc``, ``tests`` and ``tools``: a name bound
by ``import`` or ``from ... import`` must be read somewhere in its module.
An import line marked ``# noqa: F401`` is a deliberate re-export and is
skipped, as are ``__future__`` imports.
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
