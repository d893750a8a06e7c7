"""The reach audit: every function, method, lambda and class body of the
package is entered by a fixed driver corpus, or is on an exact allowlist
that names the test needing it.

The corpus (``reach_corpus.py``) runs in a fresh interpreter with a call
profiler installed before ``qheis`` is imported, so code that runs at
import counts, and no memo warmed by an earlier test hides a call.
"""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

pytestmark = pytest.mark.skipif(
    sys.version_info < (3, 11),
    reason="code objects carry their qualified name from Python 3.11")

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "qheis"

# Definitions that no law, suite or command reaches, each with the test
# that needs it.  Kept exact: a name the corpus comes to reach, or one
# that is deleted, must leave it.
ALLOWLIST = {
    "cli.main": "test_cli.py::test_console_script_runs",
    "report.CheckReport.ok": "test_cli.py::test_readme_library_example",
    "scalar.immutable":
        "test_values.py::test_immutable_classes_refuse_assignment",
    "vertexops.Multiplier.describe":
        "test_vertexops.py::test_substitution_product_multiplier_choice",
}

# code objects that run inside the body that holds them
_INLINE = {"<module>", "<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}


def definitions(sources: dict[str, str]) -> dict[tuple, str]:
    """Every function, method, lambda and class body of the given module
    sources: (module, qualified name, first line), as the corpus reports
    an entered one, mapped to ``module.qualified name``."""
    out = {}

    def walk(code: types.CodeType, mod: str) -> None:
        for c in code.co_consts:
            if isinstance(c, types.CodeType):
                if c.co_name not in _INLINE:
                    out[(mod, c.co_qualname, c.co_firstlineno)] = \
                        f"{mod}.{c.co_qualname}"
                walk(c, mod)

    for mod, text in sources.items():
        walk(compile(text, f"{mod}.py", "exec"), mod)
    return out


def never_entered(sources: dict[str, str], entered: set[tuple]) -> set[str]:
    return {name for key, name in definitions(sources).items()
            if key not in entered}


def _sources() -> dict[str, str]:
    return {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}


@pytest.fixture(scope="module")
def entered() -> set[tuple]:
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, str(TESTS / "reach_corpus.py")],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return {tuple(key) for key in json.loads(proc.stdout)}


def test_every_function_is_reached_or_allowlisted(entered):
    dead = never_entered(_sources(), entered)
    assert dead - set(ALLOWLIST) == set(), "never entered"
    assert set(ALLOWLIST) - dead == set(), "entered by the corpus, or gone"


def test_reach_audit_flags_a_planted_uncalled_function(entered):
    sources = _sources()
    sources["series"] += "\n\ndef planted_uncalled():\n    return 0\n"
    assert never_entered(sources, entered) == \
        set(ALLOWLIST) | {"series.planted_uncalled"}


def test_the_audit_sees_import_time_code(entered):
    """Class bodies and the law factories run at import: the profiler
    must already be on, or they would read as never entered."""
    names = {f"{mod}.{qualname}" for mod, qualname, _line in entered}
    assert {"series.Cert", "vertexops._law_quasi_locality",
            "vertexops._LawSpec.__init__"} <= names


def test_each_allowlisted_name_names_a_test():
    for name, test in ALLOWLIST.items():
        path, func = test.split("::")
        assert f"\ndef {func}(" in (TESTS / path).read_text(), name
