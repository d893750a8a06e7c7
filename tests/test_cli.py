"""Command-line interface: exit codes, printed values, report schema."""

import json
import re
import shlex
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qheis import cli
from qheis.cli import SUITES, run
from qheis.liealg import bracket_modes
from qheis.scalar import L
from qheis.vertexops import LAWS

REPORT_KEYS = {"suite", "params", "window", "status", "laws", "failures",
               "seed", "elapsed_ms"}


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("QHEIS_FIXED_CLOCK", raising=False)


def out_of(capsys):
    return capsys.readouterr().out.strip()


def test_usage_paths(capsys):
    assert run([]) == 2
    assert run(["--help"]) == 0
    assert run(["no-such-command"]) == 2
    capsys.readouterr()


def test_expand_prints_directed_table(capsys):
    code = run(["expand", "--kernel", "1/(x1-x2)",
                "--direction", "x2,x1", "--window", "3"])
    assert code == 0
    assert out_of(capsys) == \
        "(-1)*x2^-3*x1^2 + (-1)*x2^-2*x1 + (-1)*x2^-1"


def test_expand_prints_zero_for_a_zero_table(capsys):
    for argv in (["--kernel", "0", "--direction", "x1"],
                 ["--kernel", "x1^5", "--direction", "x1", "--window", "1"],
                 ["--kernel", "x1^5", "--direction", "x1", "--window", "1",
                  "--limit", "0"]):
        assert run(["expand", *argv]) == 0, argv
        assert capsys.readouterr().out == "0\n", argv


def test_expand_limit_elides_terms(capsys):
    argv = ["expand", "--kernel", "1/(x1-q*x2)", "--direction", "x1,x2",
            "--window", "2", "--limit"]
    assert run([*argv, "0"]) == 0
    assert out_of(capsys) == "... [2 more]"
    assert run([*argv, "1"]) == 0
    assert out_of(capsys) == "(q)*x1^-2*x2 + ... [1 more]"


def test_expand_rejects_bad_input(capsys):
    assert run(["expand", "--kernel", "1/(x1", "--direction", "x1"]) == 2
    assert run(["expand", "--kernel", "1/(x1-x2)",
                "--direction", "x1"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    for argv in (["1/(x1-x2)", "--direction", "x1,x1", "--window", "2"],
                 ["1/(x1-x2)", "--direction", "x1,x2", "--limit", "-1"],
                 ["1", "--direction", ","]):
        assert run(["expand", "--kernel", *argv]) == 2, argv
        out, err = capsys.readouterr()
        assert not out
        assert err.count("\n") == 1 and err.startswith("error:"), err


def test_expand_names_a_factor_off_the_series_variable(capsys):
    assert run(["expand", "--kernel", "1/(x1-x2)",
                "--direction", "x1,x2,z"]) == 2
    out, err = capsys.readouterr()
    assert not out
    assert err.count("\n") == 1 and err.startswith("error:"), err
    assert "binom factor in x1, x2 with c = 1" in err
    assert "expansion variable 'z'" in err


def test_expand_reads_a_unit_over_a_monomial(capsys):
    """A denominator unit that is an allowed shape over a monomial parses
    as the shape times the monomial; a unit that is no allowed shape over
    any monomial is refused as before, at the position of that unit."""
    printed = []
    for kernel in ("1/(1-2/x)", "x/(x-2)"):
        assert run(["expand", "--kernel", kernel, "--direction", "x"]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1] != "0\n", printed
    for text in ("1/(x1^2+x2^2)", "1/(1-q*e^z/x)"):
        assert run(["expand", "--kernel", text, "--direction", "x"]) == 2
        out, err = capsys.readouterr()
        assert not out
        assert err == (
            "error: cannot parse kernel at position 2: denominator factor "
            "is not among the allowed shapes (monomial, x_i - c*x_j, "
            f"1 - c*x_i/x_j, x_i - c, e^z - c)\n  {text}\n    ^\n"), err


def test_bracket_values(capsys):
    assert run(["bracket", "--algebra", "bhatq", "--r", "1", "--s", "0",
                "--m", "3", "--n", "-3"]) == 0
    assert out_of(capsys) == "-3"
    assert run(["bracket", "--algebra", "hq", "--m", "2", "--n", "-2",
                "--q0", "3/5", "--l0", "2"]) == 0
    assert out_of(capsys) == "34/15"
    # a bracket does not involve the level, so level 0 is a valid point
    assert run(["bracket", "--algebra", "bhat", "--r", "1", "--m", "0",
                "--n", "-1", "--q0=-2", "--l0", "0"]) == 0
    assert out_of(capsys) == "-2/3"


def _refused_at_once(argvs, capsys, message: str) -> None:
    """Each argv exits 2 with one line containing message, well inside a
    10 s alarm."""
    import signal

    def timeout(signum, frame):
        raise TimeoutError("an input past its bound was not refused")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(10)
    try:
        for argv in argvs:
            assert run(argv) == 2, argv
            out, err = capsys.readouterr()
            assert not out and err.count("\n") == 1, err
            assert err.startswith("error: ") and message in err, err
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_bracket_refuses_modes_past_the_bound(capsys):
    """bhatq at m = n = -2000 used to run for more than 30 s; past
    MAX_MODE the command exits 2 at once, and the library is unbounded."""
    _refused_at_once([["bracket", "--algebra", "bhatq", f"--m={m}",
                       f"--n={n}", "--r", "1"]
                      for m, n in ((-2000, -2000), (-257, 0), (0, 257),
                                   (10 ** 9, 1))], capsys, "[-256, 256]")
    assert cli.MAX_MODE == 256
    assert run(["bracket", "--algebra", "hq", "--m", "256",
                "--n=-256"]) == 0
    assert out_of(capsys) == str(bracket_modes("hq", 256, -256))


def test_weak_associativity_order_past_the_bound_is_refused(capsys):
    _refused_at_once([["verify", "--law", "phi-weak-associativity",
                       "--param", f"x0_order={k}"]
                      for k in (101, 120, 10 ** 9, -1)], capsys,
                     "x0_order must be in [0, 100]")
    assert cli.MAX_X0_ORDER == 100
    assert run(["verify", "--law", "phi-weak-associativity", "--window",
                "0", "--param", "x0_order=100"]) == 0
    capsys.readouterr()


def test_law_family_indices_past_the_bound_are_refused(capsys):
    """phi-image-heisenberg at r = 300 took 22.1 s at window 2; past
    MAX_LAW_FAMILY each law that takes r and s exits 2 at once."""
    bound = cli.MAX_LAW_FAMILY
    laws = [name for name, spec in sorted(LAWS.items()) if "r" in spec.params]
    assert len(laws) == 6
    _refused_at_once([["verify", "--law", law, "--window", "2",
                       "--param", f"{key}={v}"]
                      for law in laws for key in ("r", "s")
                      for v in (bound + 1, -bound - 1, 300, 10 ** 9)],
                     capsys, f"must be in [-{bound}, {bound}], got")
    assert bound == 16
    for key in ("r", "s"):
        assert run(["verify", "--law", "hq-commutator-delta", "--window",
                    "2", "--param", f"{key}=-{bound}"]) == 0
    capsys.readouterr()


def test_point_values_print_past_the_digit_limit():
    digits = "1" + "0" * 4999 + "1"
    num = 10 ** 5000 + 1
    assert cli._value_text(Fraction(num, 3)) == digits + "/3"
    assert cli._value_text(Fraction(-num)) == "-" + digits
    assert cli._value_text(Fraction(3, num)) == "3/" + digits
    # values that str() prints are printed as str() prints them
    for val in (Fraction(34, 15), Fraction(-2, 3), Fraction(0), Fraction(5)):
        assert cli._value_text(val) == str(val)


def test_bracket_usage_errors(capsys):
    assert run(["bracket", "--algebra", "nope", "--m", "1", "--n", "-1"]) == 2
    assert run(["bracket", "--algebra", "hq", "--m", "1", "--n", "-1",
                "--r", "1"]) == 2
    assert run(["bracket", "--algebra", "hq", "--m", "1", "--n", "-1",
                "--q0", "3/5"]) == 2
    assert run(["bracket", "--algebra", "hq", "--m", "1", "--n", "-1",
                "--q0", "1", "--l0", "2"]) == 2
    capsys.readouterr()


def test_fock_apply(capsys):
    assert run(["fock-apply", "--algebra", "bhatq",
                "--word=-2:1,-1:0"]) == 0
    assert out_of(capsys) == "(1) b(1)_-2 b(0)_-1 vac"
    assert run(["fock-apply", "--algebra", "bhatq", "--word=2:a"]) == 2
    assert run(["fock-apply", "--algebra", "bhatq", "--word=,"]) == 2
    capsys.readouterr()


def test_fock_apply_refuses_a_family_index_on_unshifted_algebras(capsys):
    """A letter's family index is refused on hq and htq, whose index
    scales a field's argument instead."""
    for alg, word in (("hq", "-1:1"), ("htq", "-2:3")):
        assert run(["fock-apply", "--algebra", alg, f"--word={word}"]) == 2
        out, err = capsys.readouterr()
        assert not out and err == \
            f"error: {alg} generators carry no family index\n", err


def test_fock_apply_refuses_modes_past_the_bound(monkeypatch, capsys):
    """The letters of a word are held to MAX_MODE, as the modes of
    bracket are: bhatq -400:1,-400:0 used to print 3.0 MB.  Past the
    bound the command exits 2 with one line before any module or vector
    is built."""
    def built(*_args, **_kw):
        raise AssertionError("a module or vector was built")

    monkeypatch.setattr(cli, "FockModule", built)
    monkeypatch.setattr(cli, "apply_word", built)
    for word in ("-400:1,-400:0", "-257", "-1,257:2", f"{10 ** 9}:0"):
        assert run(["fock-apply", "--algebra", "bhatq",
                    f"--word={word}"]) == 2, word
        out, err = capsys.readouterr()
        assert not out and err.count("\n") == 1, err
        assert err.startswith("error: letter ") and "[-256, 256]" in err, err
    monkeypatch.undo()
    assert run(["fock-apply", "--algebra", "hq", "--word=256,-256"]) == 0
    assert out_of(capsys) == f"({bracket_modes('hq', 256, -256) * L}) vac"


def test_phi_product_refuses_windows_past_the_bound(monkeypatch, capsys):
    """--window is held to MAX_PRODUCT_WINDOW: hq --n 0 took 7.1 s at
    window 400.  Past the bound the command exits 2 with one line before
    any product is built."""
    def built(*_args, **_kw):
        raise AssertionError("a product was built")

    monkeypatch.setattr(cli, "phi_product_n", built)
    for window in (101, 400, 10 ** 9):
        assert run(["phi-product", "--algebra", "hq", "--n", "0",
                    "--window", str(window)]) == 2, window
        out, err = capsys.readouterr()
        assert not out and err.count("\n") == 1, err
        assert err.startswith("error: --window") and "[0, 100]" in err, err
    monkeypatch.undo()
    assert cli.MAX_PRODUCT_WINDOW == 100
    assert run(["phi-product", "--algebra", "hq", "--n", "0",
                "--window", "100"]) == 0
    assert out_of(capsys) == "0"


def test_law_and_expand_windows_past_the_bound_are_refused(monkeypatch,
                                                           capsys):
    """expand takes windows up to MAX_EXPAND_WINDOW (1/(e^z-q)^16 took
    12.6 s at window 400), verify and suite up to MAX_LAW_WINDOW
    (symbolic paper-all took 12 s at window 32).  Past the bound, or
    below 0, the command exits 2 with one line before any law runs."""
    expand = ["expand", "--kernel", "1/(e^z-q)^16", "--direction", "z"]
    verify = ["verify", "--law", "phi-image-bq-commutator"]
    suite = ["suite", "--suite", "fast"]
    for argvs, bound in (([expand], 100), ([verify, suite], 24)):
        _refused_at_once([argv + ["--window", str(w)] for argv in argvs
                          for w in (bound + 1, 4 * bound, 10 ** 9, -1)],
                         capsys, "--window ")
        _refused_at_once([argv + [f"--window={bound + 1}"] for argv in argvs],
                         capsys, f"is outside [0, {bound}]")
    assert (cli.MAX_EXPAND_WINDOW, cli.MAX_LAW_WINDOW) == (100, 24)
    assert run(["expand", "--kernel", "1/(x1-x2)", "--direction", "x2,x1",
                "--window", "100", "--limit", "1"]) == 0
    assert out_of(capsys).startswith("(-1)*x2^-100*x1^99")
    assert run(["verify", "--law", "hq-commutator-delta",
                "--window", "24"]) == 0
    capsys.readouterr()
    windows = []
    monkeypatch.setattr(cli, "suite_reports", lambda window, point:
                        windows.append(window) or [])
    assert run(["suite", "--window", "24"]) == 0
    assert windows == [24]
    capsys.readouterr()


def test_fock_apply_refuses_words_past_the_bound(monkeypatch, capsys):
    """A word holds at most MAX_WORD_LETTERS letters: on bhatq, 12 letters
    with modes -1..-3 took 10-13 s.  Past the bound the command exits 2
    with one line before any module or vector is built."""
    def built(*_args, **_kw):
        raise AssertionError("a module or vector was built")

    monkeypatch.setattr(cli, "FockModule", built)
    monkeypatch.setattr(cli, "apply_word", built)
    words = [",".join(f"{-(k % 3) - 1}:{k}" for k in range(n))
             for n in (9, 12)] + [",".join(["-1"] * 10 ** 5)]
    _refused_at_once([["fock-apply", "--algebra", "bhatq", f"--word={w}"]
                      for w in words], capsys, "at most 8 letters, got ")
    monkeypatch.undo()
    assert cli.MAX_WORD_LETTERS == 8
    assert run(["fock-apply", "--algebra", "hq",
                "--word=" + ",".join(["-1"] * 8)]) == 0
    assert out_of(capsys) == "(1) " + "b_-1 " * 8 + "vac"


def test_seed_is_only_a_label(monkeypatch, capsys):
    """Nothing in qheis is random: reports under two seeds differ only in
    the seed they echo, and --help says so."""
    monkeypatch.setenv("QHEIS_FIXED_CLOCK", "1")
    for argv in (["suite", "--suite", "fast", "--window", "2"],
                 ["verify", "--law", "scale-covariance", "--window", "2",
                  "--q0", "3/5", "--l0", "2"]):
        codes, docs = [], []
        for seed in (0, 41):
            codes.append(run(argv + ["--json", f"--seed={seed}"]))
            docs.append(json.loads(out_of(capsys)))
        assert [doc.pop("seed") for doc in docs] == [0, 41]
        assert codes[0] == codes[1] and docs[0] == docs[1]
    for command in ("suite", "verify"):
        assert run([command, "--help"]) == 0
        text = " ".join(out_of(capsys).split())
        assert "nothing in qheis is random" in text, command


def test_family_indices_past_the_bound_are_refused(capsys):
    """--r, --s and each letter's family index are held to MAX_FAMILY:
    bhatq --m -3 --n -2 --r 1000 took 21 s, and fock-apply
    --word=-1:1000,-1:0 took 9 s."""
    _refused_at_once([
        ["bracket", "--algebra", "bhatq", "--m=-3", "--n=-2", "--r", "1000"],
        ["bracket", "--algebra", "bhatq", "--m=-3", "--n=-2", "--s=-257"],
        ["phi-product", "--algebra", "hq", "--n", "0", "--window", "2",
         "--r", "1000"],
        ["phi-product", "--algebra", "htq", "--n", "0", f"--s={-10 ** 9}"],
        ["fock-apply", "--algebra", "bhatq", "--word=-1:1000,-1:0"],
        ["fock-apply", "--algebra", "bhatq", "--word=-1:0,-2:-257"],
    ], capsys, "[-256, 256]")
    assert cli.MAX_FAMILY == 256
    assert run(["bracket", "--algebra", "bhatq", "--m", "3", "--n=-3",
                "--r", "256", "--s=-256"]) == 0
    assert out_of(capsys) == str(bracket_modes("bhatq", 3, -3, 256, -256))
    assert run(["fock-apply", "--algebra", "bhatq", "--word=-1:256"]) == 0
    assert out_of(capsys) == "(1) b(256)_-1 vac"


def test_phi_product_refuses_an_index_below_the_bound(monkeypatch, capsys):
    """--n is at least MIN_PRODUCT_N: at window 100, hq --n -20 took
    5.7 s.  Below the bound the command exits 2 before any product is
    built."""
    def built(*_args, **_kw):
        raise AssertionError("a product was built")

    monkeypatch.setattr(cli, "phi_product_n", built)
    _refused_at_once([["phi-product", "--algebra", "hq", f"--n={n}"]
                      for n in (-13, -20, -10 ** 9)], capsys, "--n -")
    monkeypatch.undo()
    assert cli.MIN_PRODUCT_N == -12
    assert run(["phi-product", "--algebra", "hq", "--n=-12",
                "--window", "2"]) == 0
    assert out_of(capsys) == "x^2: (1/39916800) b_-1 b_-1 vac"


def test_phi_product_outputs(capsys):
    assert run(["phi-product", "--algebra", "hq", "--r", "1", "--s", "0",
                "--n", "0"]) == 0
    assert out_of(capsys) == "(q*l/(q^2 - 1)) 1_W"
    assert run(["phi-product", "--algebra", "hq", "--n", "0"]) == 0
    assert out_of(capsys) == "0"
    assert run(["phi-product", "--algebra", "htq", "--r", "1", "--s", "-1",
                "--n", "-1", "--window", "3"]) == 0
    assert out_of(capsys).splitlines() == [
        "x^0: ((-q^3*l - q^2*l - q*l)/(q^4 - 2*q^2 + 1)) vac",
        "x^2: (1) b_-1 b_-1 vac",
        "x^3: ((q^2 + 1)/q) b_-2 b_-1 vac"]
    assert run(["phi-product", "--algebra", "bhatq", "--n", "0"]) == 2
    capsys.readouterr()


def test_verify_report_document(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = run(["verify", "--law", "hq-commutator-delta", "--window", "3",
                "--json", "--seed", "7", "--out", str(target)])
    assert code == 0
    text = capsys.readouterr().out
    doc = json.loads(text)
    assert set(doc) == REPORT_KEYS
    assert doc["suite"] == "verify"
    assert doc["status"] == "pass"
    assert doc["window"] == 3
    assert doc["seed"] == 7
    assert doc["failures"] == []
    assert len(doc["laws"]) == 1
    assert doc["laws"][0]["law"].startswith("hq-commutator-delta")
    assert doc["laws"][0]["status"] == "pass"
    assert doc["laws"][0]["checked"] > 0
    assert target.read_text() == text


def test_verify_parameters(capsys):
    code = run(["verify", "--law", "hq-commutator-delta", "--window", "3",
                "--param", "r=2", "--param", "s=1", "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["params"]["r"] == 2
    assert "r=2" in doc["laws"][0]["law"]
    assert run(["verify", "--law", "hq-commutator-delta",
                "--param", "rho"]) == 2
    assert run(["verify", "--law", "hq-commutator-delta", "--window", "3",
                "--param", "zz=1"]) == 2
    capsys.readouterr()


def test_verify_bad_input_exits_two(tmp_path, capsys, monkeypatch):
    missing = str(tmp_path / "missing" / "x.json")
    for argv in (
        ["verify", "--law", "htq-commutator-euler-form", "--window", "-1"],
        ["verify", "--law", "phi-weak-associativity", "--param", "alg=bhat"],
        ["verify", "--law", "phi-weak-associativity",
         "--param", "x0_order=-3"],
        ["verify", "--law", "phi-weak-associativity",
         "--param", "x0_order=-1"],
        ["suite", "--suite", "fast", "--window", "-1"],
        ["expand", "--kernel", "1/(x1-x2)", "--direction", "x1,x2",
         "--window", "-1"],
        ["fock-apply", "--algebra", "hq", "--word=-1:1"],
        ["verify", "--law", "hq-commutator-delta", "--q0", "3/5",
         "--l0", "0"],
        ["suite", "--suite", "fast", "--q0=3/5", "--l0=0"],
    ):
        assert run(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
    # each message names the offending key
    for law, *params in (("phi-weak-associativity", "x0_order=2.5"),
                         ("hq-commutator-delta", "r=abc"),
                         ("hq-commutator-delta", "bogus=1"),
                         ("hq-commutator-delta", "r=1", "r=2")):
        argv = ["verify", "--law", law, "--window", "2"]
        for param in params:
            argv += ["--param", param]
        assert run(argv) == 2, params
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert repr(params[-1].split("=")[0]) in err and "_law" not in err, \
            err
    # an unwritable --out is refused before any law runs
    def no_law(*args, **kwargs):
        raise AssertionError("a law ran before --out was opened")

    monkeypatch.setattr(cli, "suite_reports", no_law)
    monkeypatch.setattr(cli, "verify_identity", no_law)
    for argv in (
        ["verify", "--law", "hq-commutator-delta", "--window", "2",
         "--out", missing],
        ["verify", "--law", "hq-commutator-delta", "--window", "2",
         "--out", str(tmp_path)],
        ["suite", "--suite", "fast", "--window", "1", "--out", missing],
        ["suite", "--suite", "fast", "--window", "1", "--out",
         str(tmp_path)],
    ):
        assert run(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write --out ") \
            and err.count("\n") == 1, err
    assert not (tmp_path / "missing").exists()


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name, extra", [
    ("suite_fast.json", ["--suite", "fast"]),
    ("suite_fast_point.json", ["--suite", "fast", "--q0", "3/5", "--l0", "2"]),
    ("suite_paper_all_point.json",
     ["--suite", "paper-all", "--q0", "3/5", "--l0", "2"]),
    ("suite_paper_all.json", ["--suite", "paper-all"]),
    ("suite_paper_all_w12.json", ["--suite", "paper-all", "--window", "12"]),
    ("suite_paper_all_w12_point.json",
     ["--suite", "paper-all", "--window", "12", "--q0", "3/5", "--l0", "2"]),
])
def test_suite_report_matches_golden(monkeypatch, capsys, name, extra):
    """The suite reports are byte-identical to the recorded goldens."""
    monkeypatch.setenv("QHEIS_FIXED_CLOCK", "1")
    assert run(["suite", "--json", *extra]) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text()


def test_expand_matches_golden(capsys):
    """Each case of golden/expand_corpus.json prints its recorded stdout.
    The cases are the kernels of the benchmark's algebra-queries stream
    and of reach_corpus.KERNELS, ratio spellings in both orientations and
    eight kernels with negative powers in their numerators, along each
    order of their variables at windows 0-4; --limit 81 prints every term
    of a window of radius 4."""
    cases = json.loads((GOLDEN / "expand_corpus.json").read_text())
    assert len(cases) == 270
    for kernel, direction, window, want in cases:
        argv = ["expand", "--kernel", kernel, "--direction", direction,
                "--window", str(window), "--limit", "81"]
        assert run(argv) == 0, argv
        assert capsys.readouterr().out == want, argv


def test_verify_exit_one_on_inconclusive(capsys):
    code = run(["verify", "--law", "hq-quasi-locality", "--window", "1",
                "--json"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "inconclusive"
    assert doc["failures"]
    assert doc["failures"][0]["detail"].startswith("inconclusive:")


def test_verify_unknown_law(capsys):
    assert run(["verify", "--law", "frobnicate"]) == 2
    assert "unknown law" in capsys.readouterr().err


def test_verify_numeric_mode(capsys):
    code = run(["verify", "--law", "htq-commutator-kernel-form",
                "--window", "3", "--q0", "3/5", "--l0", "2", "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["params"]["q0"] == "3/5"
    assert doc["status"] == "pass"


def test_suite_document(capsys):
    code = run(["suite", "--suite", "fast", "--window", "4", "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == REPORT_KEYS
    assert doc["suite"] == "fast"
    assert doc["status"] == "pass"
    assert doc["window"] == 4
    names = sorted(e["law"].split("[")[0] for e in doc["laws"])
    assert names == sorted(LAWS)
    assert all(e["status"] == "pass" for e in doc["laws"])


def test_suite_rejects_unknown(capsys):
    assert run(["suite", "--suite", "nope"]) == 2
    capsys.readouterr()


def test_suite_defaults_registered():
    assert SUITES == {"paper-all": 8, "fast": 5}


def test_text_mode_summary_line(capsys):
    code = run(["verify", "--law", "bhat-commutator-delta", "--window", "3"])
    assert code == 0
    lines = out_of(capsys).splitlines()
    assert lines[0].split()[0] == "bhat-commutator-delta"
    assert lines[-1].startswith("suite=verify status=pass")


def test_fixed_clock_reports_are_identical(monkeypatch, capsys):
    monkeypatch.setenv("QHEIS_FIXED_CLOCK", "1")
    argv = ["verify", "--law", "htq-commutator-euler-form",
            "--window", "3", "--json"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert json.loads(first)["elapsed_ms"] == 0


def test_expand_refuses_a_large_exponent(capsys):
    """x1^99999999 used to run without end; it now exits 2 at once."""
    import signal

    def timeout(signum, frame):
        raise TimeoutError("a large exponent was not refused")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(10)
    try:
        assert run(["expand", "--kernel", "x1^99999999", "--direction", "x1",
                    "--window", "1"]) == 2
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    err = capsys.readouterr().err
    assert err.startswith("error: cannot parse kernel at position 3: "
                          "exponent 99999999 is outside [-16, 16]\n"), err
    assert "Traceback" not in err


def test_expand_refuses_parentheses_nested_past_the_bound(capsys):
    """200 nested parentheses, bare or each behind a sign, used to end in
    a RecursionError traceback; past MAX_NESTING the kernel exits 2 with
    one line, and at the bound it parses."""
    from qheis.kernels import MAX_NESTING

    assert MAX_NESTING == 100
    for opener in ("(", "-("):
        _refused_at_once([["expand", "--kernel=" + opener * n + "x"
                           + ")" * n, "--direction", "x"]
                          for n in (MAX_NESTING + 1, 200, 10 ** 4)],
                         capsys, f"parentheses nest more than {MAX_NESTING} "
                                 "deep")
        assert run(["expand", "--kernel=" + opener * MAX_NESTING + "x"
                    + ")" * MAX_NESTING, "--direction", "x"]) == 0
        assert out_of(capsys) == "(1)*x"


def test_expand_reads_a_run_of_signs_of_any_length(capsys):
    """A run of 1,000 signs before x used to end in a RecursionError
    traceback; the parser reads signs in a loop, and their parity sets
    the sign of the value."""
    for n, want in ((1000, "(1)*x"), (999, "(-1)*x"), (10 ** 5, "(1)*x")):
        assert run(["expand", "--kernel=" + "-" * n + "x",
                    "--direction", "x"]) == 0
        out, err = capsys.readouterr()
        assert out.strip() == want and not err
    assert run(["expand", "--kernel=1/(" + "+-" * 500 + "(x1-x2))",
                "--direction", "x2,x1", "--window", "1"]) == 0
    assert out_of(capsys) == "(-1)*x2^-1"


def test_expand_of_a_mixed_numerator_is_the_sum_of_its_terms(capsys):
    """A plain term beside an e^z term used to leave their sum with no
    support bound, so the product after it certified nothing and expand
    exited 2; each kernel now prints the sum of the expansions of its
    two terms."""
    from qheis.kernels import iota_expand, parse_kernel
    from qheis.series import Window

    for kernel, terms, direction, radius in (
            ("(1+e^z)/(e^z-q)^4", ("1/(e^z-q)^4", "e^z/(e^z-q)^4"), "z", 2),
            ("(1+e^z)/(x-2)", ("1/(x-2)", "e^z/(x-2)"), "x,z", 1)):
        assert run(["expand", "--kernel", kernel, "--direction", direction,
                    "--window", str(radius), "--limit", "1000"]) == 0, kernel
        names = tuple(direction.split(","))
        w = Window.cube(names, radius)
        one, other = (iota_expand(parse_kernel(t), names, w) for t in terms)
        assert out_of(capsys) == (one + other).format_terms(limit=1000)


# a valid value for each option a subcommand requires
_REQUIRED = {
    "expand": ["--kernel", "1", "--direction", "x"],
    "bracket": ["--algebra", "hq", "--m", "1", "--n", "1"],
    "fock-apply": ["--algebra", "hq", "--word", "-1"],
    "phi-product": ["--algebra", "hq", "--n", "0"],
    "verify": ["--law", "hq-commutator-delta"],
    "suite": [],
}


def _subcommand_options():
    import argparse

    (sub,) = [a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == set(_REQUIRED)
    return [(name, opt, action.nargs != 0)
            for name, parser in sorted(sub.choices.items())
            for action in parser._actions
            for opt in action.option_strings]


@pytest.mark.parametrize("name,opt,takes_value", _subcommand_options())
def test_an_option_written_with_double_dash_value_exits_two(
        name, opt, takes_value, capsys, monkeypatch):
    """argparse hands --opt=-- to the handler as an empty list, which
    ended in a traceback on every subcommand (and made suite --out=--
    write no file); every option of every subcommand exits 2 instead,
    before any law runs, and an option that takes a value names itself
    on one line."""
    def ran(*_args, **_kw):
        raise AssertionError("a law ran")

    monkeypatch.setattr(cli, "verify_identity", ran)
    monkeypatch.setattr(cli, "suite_reports", ran)
    assert run([name, *_REQUIRED[name], f"{opt}=--"]) == 2
    out, err = capsys.readouterr()
    assert not out and "Traceback" not in err and opt in err, err
    if takes_value:
        assert err == f"error: {opt} expects a value, got '--'\n"


def test_console_script_runs():
    script = shutil.which("qheis")
    cmd = [script] if script else [sys.executable, "-m", "qheis.cli"]
    proc = subprocess.run(
        cmd + ["bracket", "--algebra", "hq", "--m", "1", "--n", "-1"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1"


def _readme_examples():
    """(argv, stdout lines) for each command of a README example block.

    A block whose output is elided with "..." is skipped.
    """
    text = (Path(__file__).parent.parent / "README.md").read_text()
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        lines = block.splitlines()
        if not lines[0].startswith("$ qheis ") or "..." in lines:
            continue
        for line in lines:
            if line.startswith("$ "):
                examples.append((shlex.split(line[2:])[1:], []))
            else:
                examples[-1][1].append(line)
    return examples


def test_readme_examples(capsys):
    examples = _readme_examples()
    assert len(examples) == 6
    for argv, want in examples:
        assert run(argv) == 0, argv
        assert capsys.readouterr().out.splitlines() == want, argv


def test_readme_library_example():
    """The README's Python example runs and its assertions hold."""
    text = (Path(__file__).parent.parent / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
