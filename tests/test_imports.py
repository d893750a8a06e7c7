"""Every module-level import of the package is used."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qheis"


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module never reads.

    A name counts as read when it occurs anywhere as an identifier
    (annotations included) or is listed in ``__all__``.
    """
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name).split(".")[0]
                         for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(bound - used)


def test_unused_import_scan_flags_only_unread_names():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport sys\n"
              "from math import comb, inf as INF, pi\n"
              "__all__ = ['pi']\n"
              "def f(x: INF) -> None:\n    return os.path.join(x)\n")
    assert unused_imports(source) == ["comb", "sys"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == [], path.name
