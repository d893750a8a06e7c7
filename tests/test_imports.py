"""Every module-level import of the package is used, every name it
exports in ``__all__`` is bound, every parameter a function takes is read,
the value rules are written in one place each, and importing the CLI stays
light.  (That every function is reached is
``test_reach.py``'s audit.)"""

import ast
import os
import subprocess
import sys
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


def unbound_exports(source: str) -> list[str]:
    """Names listed in ``__all__`` that the module does not bind at module
    level by a definition, an assignment or an import."""
    tree = ast.parse(source)
    bound, exported = set(), []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((a.asname or a.name).split(".")[0]
                         for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for t in targets:
                if isinstance(t, ast.Name):
                    bound.add(t.id)
                    if t.id == "__all__":
                        exported = ast.literal_eval(node.value)
    return sorted(set(exported) - bound)


def test_unbound_export_scan_flags_only_missing_names():
    source = ("from math import pi\nimport os.path\n"
              "__all__ = ['pi', 'os', 'f', 'A', 'X', 'gone']\n"
              "def f():\n    pass\nclass A:\n    pass\nX: int = 1\n")
    assert unbound_exports(source) == ["gone"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_exported_name_is_bound(path):
    assert unbound_exports(path.read_text()) == [], path.name


def unread_parameters(source: str, mod: str) -> set[str]:
    """``module.qualified name(parameter)`` for each parameter of a ``def``
    that its body never reads, nested functions and lambdas included.
    ``self``, ``cls`` and names that start with ``_`` are exempt."""
    out = set()

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                params = [p.arg for p in (*a.posonlyargs, *a.args,
                                          *a.kwonlyargs, a.vararg, a.kwarg)
                          if p is not None]
                read = {n.id for stmt in child.body for n in ast.walk(stmt)
                        if isinstance(n, ast.Name)
                        and isinstance(n.ctx, ast.Load)}
                out.update(f"{mod}.{prefix}{child.name}({p})" for p in params
                           if p not in read and p not in ("self", "cls")
                           and not p.startswith("_"))
                visit(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return out


# unread parameters that stay, each with the reason; kept exact
UNREAD_ALLOWLIST = {
    "fock.apply_word(module)":
        "the CLI and bench/child.py pass it, and the benchmark is fixed",
}


def test_unread_parameter_scan_flags_a_planted_function():
    source = ("class A:\n"
              "    def f(self, used, unread, _private, *rest, **kw):\n"
              "        def inner(x):\n"
              "            return lambda: used + kw\n"
              "        unread = 1\n"
              "        return inner\n"
              "def g(a, /, b, *, scalars=None):\n"
              "    return a + b\n")
    assert unread_parameters(source, "m") == {
        "m.A.f(unread)", "m.A.f(rest)", "m.A.f.<locals>.inner(x)",
        "m.g(scalars)"}


def test_every_parameter_is_read():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= unread_parameters(path.read_text(), path.stem)
    assert found == set(UNREAD_ALLOWLIST)


def value_rule_sites(source: str, mod: str) -> tuple[set[str], set[str]]:
    """``module.Class`` for each class, nested ones included, whose body
    assigns ``immutable``, and for each class whose body defines or
    assigns ``__eq__``."""
    immutables, eqs = set(), set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if stmt.name == "__eq__":
                    eqs.add(f"{mod}.{node.name}")
            elif isinstance(stmt, ast.Assign):
                if any(isinstance(n, ast.Name) and n.id == "immutable"
                       for n in ast.walk(stmt.value)):
                    immutables.add(f"{mod}.{node.name}")
                if any(isinstance(t, ast.Name) and t.id == "__eq__"
                       for t in stmt.targets):
                    eqs.add(f"{mod}.{node.name}")
    return immutables, eqs


def test_value_rule_scan_flags_a_planted_class():
    source = ("class A(Record):\n"
              "    __setattr__ = __delattr__ = immutable\n"
              "    def __eq__(self, other):\n"
              "        return immutable(self)\n"
              "class B:\n"
              "    __eq__ = object.__eq__\n"
              "    def f(self):\n"
              "        class C:\n"
              "            __setattr__ = immutable\n"
              "        return C\n"
              "def g(x):\n"
              "    x.__setattr__ = immutable\n")
    assert value_rule_sites(source, "m") == ({"m.A", "m.C"}, {"m.A", "m.B"})


# the one place each value rule is written; kept exact
IMMUTABLE_CLASSES = {"scalar.Record", "scalar.Scalar"}
EQ_CLASSES = {"scalar.Value", "scalar.Scalar", "fock.FockVector"}


def test_value_rules_are_written_once():
    """Only ``Record`` and ``Scalar`` assign ``immutable``, and only
    ``Value``, ``Scalar`` and ``FockVector`` define ``__eq__``: every
    other data class derives its rules from ``Record`` or ``Value``."""
    immutables, eqs = set(), set()
    for path in sorted(SRC.glob("*.py")):
        found = value_rule_sites(path.read_text(), path.stem)
        immutables |= found[0]
        eqs |= found[1]
    assert immutables == IMMUTABLE_CLASSES
    assert eqs == EQ_CLASSES


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """The value classes are written out by hand, so a cold ``qheis`` call
    neither generates methods nor imports ``inspect`` (with ``ast``,
    ``dis`` and ``tokenize`` behind it)."""
    probe = ("import sys\n"
             "before = set(sys.modules)\n"
             "import qheis.cli\n"
             "print(' '.join(sorted(set(sys.modules) - before)))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    # -S: a bare interpreter, with nothing imported by site hooks
    proc = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "qheis.vertexops" in added
    assert not added & {"dataclasses", "inspect"}, sorted(added)
