"""Record the golden answers of the benchmark from the current source.

Run from the repository root as ``PYTHONPATH=src python3
bench/record_golden.py``; it rewrites ``bench/golden.json``.  The golden
answers are recorded once, at the commit that defines the benchmark, and
then checked by every later run.  Record them again only on purpose, and
say why: a changed golden file means a changed answer.

The library answers cover every query the generator in ``workloads.py``
can produce for any seed.  Only nonzero bracket and pairing values are
stored; a missing key means 0.  The parenthesized product kernel gets the
answer of its flat spelling, because the two spell the same kernel.
"""

from __future__ import annotations

import itertools
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import child  # noqa: E402
import workloads as w  # noqa: E402


def bracket_universe():
    for alg in w.ALGEBRAS:
        fams = w.FAMILIES if alg in w.SHIFTED else (0,)
        for m, n in itertools.product(range(-w.MODE_MAX, w.MODE_MAX + 1),
                                      repeat=2):
            for r, s in itertools.product(fams, repeat=2):
                yield ("bracket", alg, m, n, r, s)


def word_universe():
    for alg in w.ALGEBRAS:
        letters = w.word_letters(alg)
        for length in range(1, w.WORD_MAX + 1):
            for word in itertools.product(letters, repeat=length):
                yield ("word", alg, word)


def record() -> dict:
    golden: dict = {"bracket": {}, "word": {}, "expand": {}}
    for query in itertools.chain(bracket_universe(), word_universe()):
        value = child.answer(query)
        if value != "0":
            golden[query[0]][checks.query_key(query)] = value
    for text in w.KERNELS:
        spelled = w.PRODUCT_FLAT if text == w.PRODUCT_PAREN else text
        for d in w.expand_directions(text):
            query = ("expand", text, d)
            golden["expand"][checks.query_key(query)] = child.answer(
                ("expand", spelled, d))

    os.environ["QHEIS_FIXED_CLOCK"] = "1"
    argv = w.suite_argv("suite-fast", 0)
    run = child.run_cli(argv)
    doc = checks.normalize_report(run["stdout"], 0, argv)
    golden["suite_report"] = checks.digest(doc)
    golden["suite_laws"] = len(doc["laws"])
    laws = child.run_laws(w.COMMUTATOR_LAWS, w.COMMUTATOR_WINDOW)
    golden["commutators_wide"] = checks.digest(
        sorted(laws, key=lambda e: e["law"]))
    return golden


def main() -> int:
    golden = record()
    with open(checks.GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
