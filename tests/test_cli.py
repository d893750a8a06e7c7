"""Command-line interface: exit codes, printed values, report schema."""

import json
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from qheis import cli
from qheis.cli import SUITES, run
from qheis.vertexops import LAWS

REPORT_KEYS = {"suite", "params", "window", "status", "laws", "failures",
               "seed", "elapsed_ms"}


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("QHEIS_WINDOW", raising=False)
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


def test_phi_product_outputs(capsys):
    assert run(["phi-product", "--algebra", "hq", "--r", "1", "--s", "0",
                "--n", "0"]) == 0
    assert out_of(capsys) == "(q*l/(q^2 - 1)) 1_W"
    assert run(["phi-product", "--algebra", "hq", "--n", "0"]) == 0
    assert out_of(capsys) == "0"
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
])
def test_suite_report_matches_golden(monkeypatch, capsys, name, extra):
    """The suite reports are byte-identical to the recorded goldens."""
    monkeypatch.setenv("QHEIS_FIXED_CLOCK", "1")
    assert run(["suite", "--json", *extra]) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text()


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


def test_window_env_override(monkeypatch, capsys):
    monkeypatch.setenv("QHEIS_WINDOW", "3")
    code = run(["verify", "--law", "hq-commutator-delta", "--json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["window"] == 3
    monkeypatch.setenv("QHEIS_WINDOW", "wide")
    assert run(["verify", "--law", "hq-commutator-delta"]) == 2
    capsys.readouterr()


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
