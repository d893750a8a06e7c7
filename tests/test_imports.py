"""Every module-level import of the package is used, and every function,
class and method it defines is named somewhere in the package."""

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


# Definitions that only the tests reach: paper constructs the laws do not
# call, and the report property the README's library example reads.  Kept
# exact, so a name that gains a library caller or is deleted must leave
# this set.
TEST_ONLY = {
    "ok", "DerivativeField", "eproduct_n", "reflected", "extract_s_kernel",
}


def dead_names(sources: list[str]) -> set[str]:
    """Module-level functions and classes, and non-dunder methods, whose
    name no source uses.

    A method counts as used only when its name occurs as an attribute or
    in a ``from ... import`` list anywhere in the sources, so a local
    variable or a dataclass field of the same name does not hide it.  A
    module-level function or class also counts as used when its name
    occurs as an identifier.
    """
    names, attrs = set(), set()
    functions, methods = set(), set()
    for source in sources:
        tree = ast.parse(source)
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                names.add(n.id)
            elif isinstance(n, ast.Attribute):
                attrs.add(n.attr)
            elif isinstance(n, ast.ImportFrom):
                attrs.update(a.name for a in n.names)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                functions.add(node.name)
            if isinstance(node, ast.ClassDef):
                methods.update(
                    m.name for m in node.body
                    if isinstance(m, ast.FunctionDef)
                    and not (m.name.startswith("__")
                             and m.name.endswith("__")))
    return (functions - names - attrs) | (methods - attrs)


def _package_sources() -> list[str]:
    return [p.read_text() for p in sorted(SRC.glob("*.py"))]


def test_dead_name_scan_flags_uncalled_definitions():
    source = ("from .other import imported\n"
              "class A:\n"
              "    def __repr__(self):\n        return ''\n"
              "    def used(self):\n        return imported\n"
              "    def unused(self):\n        pass\n"
              "    def shadowed(self):\n        pass\n"
              "def f():\n    shadowed = 1\n    return A().used() + shadowed\n"
              "def g():\n    pass\n"
              "HANDLER = f\n")
    other = "def imported():\n    pass\n"
    assert dead_names([source, other]) == {"unused", "shadowed", "g"}
    planted = "def planted_uncalled():\n    return 0\n"
    assert dead_names(_package_sources() + [planted]) == \
        TEST_ONLY | {"planted_uncalled"}


def test_no_dead_names_beyond_the_test_only_set():
    dead = dead_names(_package_sources())
    assert dead - TEST_ONLY == set(), "defined but never named"
    assert TEST_ONLY - dead == set(), "named in the package or gone"
