"""Run a fixed corpus of qheis commands in one fresh process and print,
as one JSON list, every function of the package that the corpus entered.

    PYTHONPATH=src python tests/reach_corpus.py

The profiler is installed before ``qheis`` is imported, so module and
class bodies, and the law factories that run at import, are seen too;
and no memo is warm, so a cached call is entered once.  Each entry is
``[module, qualified name, first line]`` of a code object under
``src/qheis``.  ``tests/test_reach.py`` compares the list with the
package's definitions.

The corpus: both suites at windows 0-2, symbolic and at (3/5, 2); every
subcommand with its README examples and bad inputs; a stream of library
queries (brackets of all five algebras, mode words paired against their
duals, kernel expansions, one with a residual denominator).
"""

import sys

entered = set()
sys.setprofile(lambda frame, event, arg: entered.add(frame.f_code))

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import tempfile  # noqa: E402

import qheis  # noqa: E402
from qheis import cli, fock, kernels, liealg, series  # noqa: E402

POINT = ["--q0", "3/5", "--l0", "2"]

CLI = [
    # usage
    [], ["--help"], ["no-such-command"],
    # expand
    ["expand", "--kernel", "1/(x1-x2)", "--direction", "x2,x1",
     "--window", "3"],
    ["expand", "--kernel", "1/(x1-q*x2)", "--direction", "x1,x2",
     "--window", "2", "--limit", "1"],
    ["expand", "--kernel", "1/(x1-(q+2)*x2)", "--direction", "x2,x1",
     "--window", "2"],
    # two residual factors: their lcm takes a gcd in Z[q]
    ["expand", "--kernel", "1/((x1-(q+2)*x2)*(x1-(q-2)*x2))",
     "--direction", "x2,x1", "--window", "2"],
    ["expand", "--kernel", "z*e^z/(e^z-q)", "--direction", "z"],
    ["expand", "--kernel", "x^2/(x*(x-q^3))^2", "--direction", "x"],
    ["expand", "--kernel", "(x1+x2)^2/(x1*x2*(x1-x2)^2*(q*x1-x2))",
     "--direction", "x1,x2", "--window", "2"],
    # a negative power of e^z, a z rest monomial and a double pole at z = 0
    ["expand", "--kernel=-e^z^-2*(z+1)/(1-e^z)^2/(e^z+q)",
     "--direction", "z", "--window", "2"],
    # a numerator free of e^z reads its e^z factors off the series
    ["expand", "--kernel", "1/(e^z-q^3)", "--direction", "z"],
    ["expand", "--kernel", "x1^5", "--direction", "x1", "--window", "1"],
    ["expand", "--kernel", "1/(x1", "--direction", "x1"],
    ["expand", "--kernel", "x1^99", "--direction", "x1"],
    ["expand", "--kernel", "1/(x1-x2)", "--direction", "x1"],
    ["expand", "--kernel", "1/(x1-x2)", "--direction", "x1,x2,z"],
    ["expand", "--kernel", "1/(x1-x2)", "--direction", "x1,x1"],
    ["expand", "--kernel", "1", "--direction", "x", "--limit", "-1"],
    ["expand", "--kernel", "1", "--direction", "x", "--window", "-1"],
    # bracket
    ["bracket", "--algebra", "bhatq", "--r", "1", "--s", "0",
     "--m", "3", "--n", "-3"],
    ["bracket", "--algebra", "hq", "--m", "2", "--n", "-2", *POINT],
    ["bracket", "--algebra", "nope", "--m", "1", "--n", "-1"],
    ["bracket", "--algebra", "hq", "--m", "1", "--n", "-1", "--r", "1"],
    ["bracket", "--algebra", "hq", "--m", "1", "--n", "-1", "--q0", "3/5"],
    ["bracket", "--algebra", "hq", "--m", "1", "--n", "-1", "--q0", "x",
     "--l0", "1"],
    ["bracket", "--algebra", "hq", "--m", "1", "--n", "-1", "--q0", "1",
     "--l0", "2"],
    # fock-apply
    ["fock-apply", "--algebra", "bhatq", "--word=-2:1,-1:0"],
    ["fock-apply", "--algebra", "nope", "--word=-1"],
    ["fock-apply", "--algebra", "bhatq", "--word=2:a"],
    ["fock-apply", "--algebra", "bhatq", "--word=1:2:3"],
    ["fock-apply", "--algebra", "bhatq", "--word=,"],
    ["fock-apply", "--algebra", "hq", "--word=-1:1"],
    # phi-product
    ["phi-product", "--algebra", "hq", "--r", "1", "--s", "0", "--n", "0"],
    ["phi-product", "--algebra", "hq", "--n", "0"],
    ["phi-product", "--algebra", "htq", "--n", "-2", "--window", "2"],
    ["phi-product", "--algebra", "bhat", "--n", "0"],
    ["phi-product", "--algebra", "hq", "--n", "0", "--window", "-1"],
    # verify
    ["verify", "--law", "htq-quasi-locality", "--window", "6"],
    ["verify", "--law", "bhat-commutator-delta", "--json"],
    ["verify", "--law", "hq-commutator-delta", "--window", "2",
     "--param", "r=2", *POINT],
    ["verify", "--law", "no-such-law"],
    ["verify", "--law", "hq-commutator-delta", "--param", "r"],
    ["verify", "--law", "hq-commutator-delta", "--param", "r=1",
     "--param", "r=2"],
    ["verify", "--law", "hq-commutator-delta", "--param", "bogus=1"],
    ["verify", "--law", "phi-weak-associativity", "--param", "alg=bhat"],
    ["verify", "--law", "phi-weak-associativity", "--param", "x0_order=-1"],
    ["verify", "--law", "hq-commutator-delta", "--q0", "3/5", "--l0", "0"],
    ["verify", "--law", "hq-quasi-locality-control", "--window", "5"],
    # suite
    ["suite", "--suite", "fast", "--window", "-1"],
]
# both suites at small windows, symbolic and at a point; fast and
# paper-all differ only in their default window
for window in range(3):
    for point in ([], POINT):
        CLI.append(["suite", "--suite", "fast" if window % 2 else "paper-all",
                    "--window", str(window), "--json", *point])

ALGEBRAS = ("hq", "htq", "bhat", "bhatq", "graded")
KERNELS = {
    "1/(x1-x2)": ("x1", "x2"),
    "1/(x1-q^2*x2)^2": ("x2", "x1"),
    "x1/(1-q*x2/x1)": ("x1", "x2"),
    # one kernel in two spellings: the memo compares equal kernels
    "1/(x1-x2)/(x1-q*x2)": ("x2", "x1"),
    "1/((x1-x2)*(x1-q*x2))": ("x2", "x1"),
    "1/(x-3)": ("x",),
    "e^z/(e^z-q)^2": ("z",),
}


def queries() -> None:
    """Library queries, one session, as a long-running caller makes them."""
    for alg in ALGEBRAS:
        shifted = liealg.get_algebra(alg).shifted
        for m in range(-3, 4):
            for n in range(-3, 4):
                for r in ((0, 1, 2) if shifted else (0,)):
                    str(liealg.bracket_modes(alg, m, n, r, 0))
        module = fock.FockModule(alg)
        vac = module.vacuum()
        letters = [(-2, 1), (-1, 0)] if shifted else [(-2, 0), (-1, 0)]
        ket = fock.apply_word(module, letters, vac)
        dual = [(-m - (1 if alg == "bhat" else 0),
                 r + (1 if alg == "bhat" else 0))
                for m, r in reversed(letters)]
        str(fock.pair_vectors(vac, fock.apply_word(module, dual, ket)))
    for text, direction in KERNELS.items():
        window = series.Window.cube(direction, 3)
        table = kernels.iota_expand(kernels.parse_kernel(text), direction,
                                    window)
        [str(table.coeff(e)) for e in table.support()]


def main() -> None:
    sink = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        out = os.path.join(tmp, "report.json")
        for argv in CLI + [
                ["verify", "--law", "locality-transfer", "--window", "1",
                 "--out", out],
                ["suite", "--suite", "fast", "--window", "0", "--out",
                 os.path.join(tmp, "missing", "report.json")]]:
            cli.run(argv)
        queries()
    sys.setprofile(None)
    root = os.path.dirname(os.path.abspath(qheis.__file__))
    found = sorted(
        [os.path.basename(c.co_filename)[:-3], c.co_qualname,
         c.co_firstlineno]
        for c in entered
        if os.path.dirname(os.path.abspath(c.co_filename)) == root)
    print(json.dumps(found))


if __name__ == "__main__":
    main()
