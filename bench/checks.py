"""Output checks that do not trust the code under test.

Each cold run's output is checked against golden answers recorded at the
commit that defined the benchmark (``golden.json``, written by
``record_golden.py``).  Nothing here imports qheis:

* a suite report must match the digest of the report taken under
  ``QHEIS_FIXED_CLOCK=1``, once its seed and point are checked and set
  aside, and every verdict must be ``pass``;
* a ``commutators-wide`` run must match the digest of its law reports
  and every verdict must be ``pass``;
* a library answer must equal its golden answer, as text or, when the
  text differs, as a rational function of ``q`` and ``l`` evaluated at
  two points by the small evaluator below.

An operation is one law verdict or one query.  A non-``pass`` verdict, a
wrong answer, an exception or a nonzero exit each fail it.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
from dataclasses import dataclass, field
from fractions import Fraction

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden.json")

# evaluation points for answers whose text differs from the golden text
POINTS = ((Fraction(3, 7), Fraction(-5, 11)),
          (Fraction(11, 5), Fraction(13, 3)))


@dataclass
class Outcome:
    """What one cold run did: operations, failures and wrong answers."""

    attempted: int
    failed: int = 0
    wrong: list[str] = field(default_factory=list)
    # the checked output, compared between the traced and untraced runs
    answers: str = ""


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


# -- keys of the golden tables ------------------------------------------


def query_key(query) -> str:
    kind = query[0]
    if kind == "bracket":
        return ",".join(str(x) for x in query[1:])
    if kind == "word":
        return query[1] + "|" + ",".join(f"{m}:{r}" for m, r in query[2])
    return query[1] + "|" + ",".join(query[2])


# -- an independent evaluator for printed scalars --------------------------


def _eval(node, env):
    if isinstance(node, ast.Expression):
        return _eval(node.body, env)
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return Fraction(node.value)
    if isinstance(node, ast.Name) and node.id in env:
        return env[node.id]
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return -_eval(node.operand, env)
    if isinstance(node, ast.BinOp):
        a, b = _eval(node.left, env), _eval(node.right, env)
        if isinstance(node.op, ast.Add):
            return a + b
        if isinstance(node.op, ast.Sub):
            return a - b
        if isinstance(node.op, ast.Mult):
            return a * b
        if isinstance(node.op, ast.Div):
            return a / b
        if isinstance(node.op, ast.Pow) and b.denominator == 1:
            return a ** int(b)
    raise ValueError(f"unexpected scalar syntax: {ast.dump(node)}")


def scalar_value(text: str, q: Fraction, l: Fraction) -> Fraction:
    """Value of a printed element of Q(q, l) at (q, l)."""
    tree = ast.parse(text.replace("^", "**"), mode="eval")
    return _eval(tree, {"q": q, "l": l})


def same_scalar(got: str, want: str) -> bool:
    if got == want:
        return True
    try:
        return all(scalar_value(got, q, l) == scalar_value(want, q, l)
                   for q, l in POINTS)
    except (ValueError, SyntaxError, ZeroDivisionError):
        return False


def same_table(got, want) -> bool:
    g = {tuple(e): c for e, c in got}
    w = {tuple(e): c for e, c in want}
    return g.keys() == w.keys() and all(same_scalar(g[e], w[e]) for e in g)


# -- per-workload checks ----------------------------------------------------


def normalize_report(text: str, seed: int, argv) -> dict:
    """The suite report with its seed and point checked and removed."""
    doc = json.loads(text)
    point = {"q0": None, "l0": None}
    for arg in argv:
        for key in point:
            if arg.startswith(f"--{key}="):
                point[key] = arg.split("=", 1)[1]
    if doc.pop("seed") != seed or doc.pop("params") != point:
        raise ValueError("report does not echo its seed and point")
    return doc


def check_suite(code: int, stdout: str, seed: int, argv,
                golden: dict) -> Outcome:
    laws = golden["suite_laws"]
    out = Outcome(attempted=laws)
    try:
        doc = normalize_report(stdout, seed, argv)
    except (ValueError, KeyError, TypeError) as exc:
        out.failed = laws
        out.wrong.append(f"unreadable suite report (exit {code}): {exc}")
        return out
    passed = sum(1 for e in doc.get("laws", []) if e.get("status") == "pass")
    out.failed = laws - min(passed, laws)
    if code != 0:
        out.failed = laws
    if out.failed:
        out.wrong.append(f"suite exit {code}, {passed} of {laws} laws pass")
    if digest(doc) != golden["suite_report"]:
        out.wrong.append("suite report differs from the golden report")
    out.answers = digest(doc)
    return out


def check_laws(code: int, stdout: str, laws, golden: dict) -> Outcome:
    out = Outcome(attempted=len(laws))
    try:
        entries = json.loads(stdout)["laws"]
    except (ValueError, KeyError, TypeError):
        out.failed = len(laws)
        out.wrong.append(f"unreadable law reports (exit {code})")
        return out
    passed = sum(1 for e in entries if e["status"] == "pass")
    out.failed = len(laws) - min(passed, len(laws))
    if code != 0:
        out.failed = len(laws)
    if out.failed:
        out.wrong.append(f"exit {code}, {passed} of {len(laws)} laws pass")
    ordered = sorted(entries, key=lambda e: e["law"])
    if digest(ordered) != golden["commutators_wide"]:
        out.wrong.append("law reports differ from the golden reports")
    out.answers = digest(ordered)
    return out


def check_queries(code: int, stdout: str, queries, golden: dict) -> Outcome:
    out = Outcome(attempted=len(queries))
    try:
        results = json.loads(stdout)["results"]
    except (ValueError, KeyError, TypeError):
        results = []
    if code != 0 or len(results) != len(queries):
        out.failed = len(queries)
        out.wrong.append(f"exit {code}, {len(results)} of {len(queries)} "
                         "answers")
        return out
    for query, res in zip(queries, results):
        if "ok" not in res:
            out.failed += 1
            continue
        kind = query[0]
        want = golden[kind].get(query_key(query), "0" if kind != "expand"
                                else None)
        good = want is not None and (
            same_table(res["ok"], want) if kind == "expand"
            else same_scalar(res["ok"], want))
        if not good:
            out.failed += 1
            if len(out.wrong) < 5:
                out.wrong.append(f"{query}: got {res['ok']}, want {want}")
    out.answers = digest(results)
    return out
