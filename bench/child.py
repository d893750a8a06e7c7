"""One cold benchmark process: read a request on stdin, answer on stdout.

Run as ``python3 bench/child.py [--trace] < request.json`` with ``src`` on
``PYTHONPATH``.  The request is one JSON object from
:func:`workloads.request`:

* ``{"cli": argv}`` runs ``qheis`` in this process and returns its exit
  code and standard output (only traced runs come here; untraced suite
  runs spawn ``python3 -m qheis.cli`` itself);
* ``{"laws": [...], "window": w}`` runs each law through
  ``verify_identity`` and returns its report;
* ``{"queries": [...]}`` answers each library query in one session.

The answer is one JSON line.  Every answer is printed as text so that the
parent can check it against the golden answers without importing qheis.
With ``--trace`` the tracer is installed before the work starts and its
metrics ride along under ``"trace"``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

from qheis import cli, fock, kernels, liealg, series, vertexops

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workloads import EXPAND_RADIUS, dual_word  # noqa: E402


def law_entry(rep) -> dict:
    return {"law": rep.name, "status": rep.status, "checked": rep.checked,
            "region": rep.region, "failures": list(rep.failures)}


def run_laws(laws, window: int) -> list:
    return [law_entry(vertexops.verify_identity(name, window=window))
            for name in laws]


def answer(query) -> str | list:
    """The answer to one library query, as text."""
    kind = query[0]
    if kind == "bracket":
        _kind, alg, m, n, r, s = query
        return str(liealg.bracket_modes(alg, m, n, r, s))
    if kind == "word":
        _kind, alg, word = query
        module = fock.FockModule(alg)
        vac = module.vacuum()
        ket = fock.apply_word(module, [tuple(x) for x in word], vac)
        full = fock.apply_word(module, dual_word(alg, word), ket)
        return str(fock.pair_vectors(vac, full))
    _kind, text, direction = query
    direction = tuple(direction)
    window = series.Window(direction, (-EXPAND_RADIUS,) * len(direction),
                           (EXPAND_RADIUS,) * len(direction))
    table = kernels.iota_expand(kernels.parse_kernel(text), direction, window)
    return [[list(e), str(table.coeff(e))] for e in sorted(table.support())]


def run_queries(queries) -> list:
    out = []
    for q in queries:
        try:
            out.append({"ok": answer(q)})
        except Exception as exc:  # a failed query is counted, not fatal
            out.append({"error": f"{type(exc).__name__}: {exc}"})
    return out


def run_cli(argv) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    return {"exit": code, "stdout": buf.getvalue()}


def main() -> int:
    req = json.load(sys.stdin)
    tracer = None
    if "--trace" in sys.argv[1:]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    if "cli" in req:
        out = run_cli(req["cli"])
    elif "laws" in req:
        out = {"laws": run_laws(req["laws"], req["window"])}
    else:
        out = {"results": run_queries(req["queries"])}
    if tracer is not None:
        out["trace"] = tracer.metrics()
        out["missing_hooks"] = tracer.missing
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
