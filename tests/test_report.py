"""The shared verdict builder: case lines, the cut, and the empty verdict."""

from fractions import Fraction

from conftest import PolyState
from qheis.fock import FockModule
from qheis.report import FAIL, INCONCLUSIVE, MAX_REPORTED, PASS, tally
from qheis.scalar import L, ONE, Q, ZERO


def test_tally_passes_when_every_case_agrees():
    rep = tally("t", "all", [("a", ONE, ONE), ("b", Q * L, L * Q)])
    assert (rep.status, rep.checked, rep.region, rep.failures, rep.notes) \
        == (PASS, 2, "all", [], [])


def test_tally_scalar_mismatch_line():
    rep = tally("t", "", [("first", ONE, ONE), ("mode 3", Q, L),
                          ("at (0, 1)", Fraction(2, 3), 0)])
    assert rep.status == FAIL and rep.checked == 3
    assert rep.failures == ["mode 3: q != l", "at (0, 1): 2/3 != 0"]


def test_tally_vector_mismatch_names_first_differing_monomial():
    module = FockModule("hq")
    vac = module.vacuum()
    a = module.basis_vector((-1, 0))
    b = module.basis_vector((-2, 0))
    got = vac + a.scale(Q) + b
    want = vac + a.scale(L) + b.scale(L)
    rep = tally("t", "", [("state 0", got, want), ("state 1", vac,
                                                   module.zero())])
    assert rep.failures == ["state 0: ((-2, 0),): 1 != l",
                            "state 1: (): 1 != 0"]
    x = PolyState.variable(1, 0)
    rep = tally("t", "", [("on x", x.scale(Q), x + PolyState.one())])
    assert rep.failures == ["on x: (): 0 != 1"]
    rep = tally("t", "", [("on x", x.scale(Q), x)])
    assert rep.failures == ["on x: (((1, 0), 1),): q != 1"]


def test_tally_cuts_after_the_reported_mismatches():
    assert MAX_REPORTED == 6
    cases = [(f"c{i}", i % 2, 0) for i in range(20)]
    rep = tally("t", "", cases)
    # odd cases differ: the seventh mismatch is case 13, where the scan ends
    assert rep.status == FAIL
    assert rep.failures == [f"c{i}: 1 != 0" for i in range(1, 13, 2)] \
        + ["..."]
    assert rep.checked == 14
    # six mismatches are listed whole, with every case scanned
    rep = tally("t", "", cases[:12])
    assert "..." not in rep.failures and len(rep.failures) == 6
    assert rep.checked == 12


def test_tally_without_cases_is_inconclusive():
    rep = tally("t", "|e| < 0", iter(()))
    assert (rep.status, rep.checked, rep.failures) == (INCONCLUSIVE, 0, [])
    assert rep.notes
    assert tally("t", "", [("z", ZERO, 0)]).status == PASS
