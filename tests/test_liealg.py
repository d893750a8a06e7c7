"""Bracket catalog: structure constants, the exponential tail, checks."""

import random
import re

import pytest

from conftest import (
    assert_same_table,
    bhatq_oracle_table,
    check_skew_symmetry,
    f_series_oracle,
    g_series_oracle,
    graded_leading_constant,
    matrix_rank,
    verify_shift_invariance,
)
from qheis import liealg
from qheis.fock import FockModule
from qheis.liealg import (
    ALGEBRAS,
    LieAlgebraError,
    bracket_modes,
    f_coefficient,
    g_coefficient,
    get_algebra,
    standard_pairing,
)
from qheis.report import FAIL
from qheis.scalar import ONE, ZERO, Scalar, qint
from qheis.series import Window
from qheis.vertexops import field_of, pair_of

Q = Scalar.var_q()


def qp(k):
    return Scalar.q_power(k)


def test_catalog_conventions():
    assert get_algebra("hq").offset == 0
    assert get_algebra("htq").offset == 0
    for name in ("bhat", "bhatq", "graded"):
        assert get_algebra(name).offset == 1
        assert get_algebra(name).shifted
    assert not get_algebra("hq").shifted
    with pytest.raises(LieAlgebraError, match="unknown algebra"):
        get_algebra("heis")
    assert set(ALGEBRAS) == {"hq", "htq", "bhat", "bhatq", "graded"}


def test_mode_sum_is_the_grading():
    """Each bracket vanishes off its algebra's mode sum; bhatq has none."""
    for name, spec in ALGEBRAS.items():
        shifts = range(-2, 3) if spec.shifted else (0,)
        # the values of m + n at which some bracket is nonzero
        sums = set()
        for r in shifts:
            for s in shifts:
                for m in range(-12, 13):
                    for n in range(-12, 13):
                        if m + n not in sums and \
                                bracket_modes(name, m, n, r, s):
                            sums.add(m + n)
        if spec.mode_sum is None:
            # brackets at two mode sums: every mode sum has one off it
            assert len(sums) > 1, (name, sums)
        else:
            assert sums == {spec.mode_sum}, (name, sums)


def test_hq_bracket_is_symmetric_q_integer():
    assert bracket_modes("hq", 3, -3) == qp(2) + ONE + qp(-2)
    assert bracket_modes("hq", 3, -3) == qint(3)
    assert bracket_modes("hq", 3, -2) == ZERO
    assert bracket_modes("hq", 0, 0) == ZERO
    assert bracket_modes("hq", -4, 4) == -qint(4)
    with pytest.raises(LieAlgebraError, match="no family index"):
        bracket_modes("hq", 1, -1, r=1)


def test_htq_bracket_values():
    two = Scalar.from_int(2)
    assert bracket_modes("htq", 2, -2) == two * (ONE - qp(2))
    assert bracket_modes("htq", -2, 2) == -(two * (ONE - qp(2)))
    assert bracket_modes("htq", 2, 2) == ZERO
    assert bracket_modes("htq", 0, 0) == ZERO


def test_bhat_pairing_and_bracket():
    inv = ONE / (Q - qp(-1))
    assert standard_pairing(1, 0) == inv
    assert standard_pairing(0, 1) == -inv
    assert standard_pairing(0, 0) == ZERO
    assert standard_pairing(2, 0) == ZERO
    # modes must sum to -1, not 0
    assert bracket_modes("bhat", 0, -1, r=1, s=0) == inv
    assert bracket_modes("bhat", 3, -3, r=1, s=0) == ZERO
    assert bracket_modes("bhat", -2, 1, r=0, s=1) == -inv


def test_f_coefficient_pole_terms():
    assert f_coefficient(-1, -2) == ONE
    assert f_coefficient(1, -2) == -ONE
    assert f_coefficient(3, -2) == ZERO
    assert f_coefficient(-3, -2) == ZERO
    assert f_coefficient(0, 0) == ZERO
    for n in range(-3, 4):
        assert f_coefficient(n, -1) == ZERO
    with pytest.raises(LieAlgebraError, match="j must be >= -2"):
        f_coefficient(0, -3)


def test_f_coefficient_matches_series_oracle():
    for n in range(-4, 5):
        fs = f_series_oracle(n, 24)
        for j in range(-2, 25):
            assert f_coefficient(n, j) == fs.coeff((j,), ZERO), (n, j)


def test_f_coefficient_far_term_matches_series_oracle():
    # g(1, z) on both sides: the eta relation, far from the constant term
    for n in (-1, 1):
        assert f_coefficient(n, 40) == \
            f_series_oracle(n, 40).coeff((40,), ZERO), n


def test_g_coefficient_matches_series_oracle_seeded():
    rng = random.Random(6)
    for _ in range(12):
        a = Scalar.from_int(rng.choice((-3, -2, -1, 1, 2, 5))) * \
            qp(rng.randint(-3, 3))
        gs = g_series_oracle(a, 10)
        for j in range(-3, 11):
            assert g_coefficient(a, j) == gs.coeff((j,), ZERO), (a, j)


def test_f_constant_term_matches_pointwise_values():
    # away from n = +-1 the constant term is g(q^(n+1)) - g(q^(n-1)) with
    # g(a) = a/(1-a)^2 evaluated at z = 0
    def g0(k):
        return qp(k) / (ONE - qp(k)) ** 2

    for n in (0, 2, -2, 3):
        assert f_coefficient(n, 0) == g0(n + 1) - g0(n - 1)


def test_f_zero_shift_series_is_odd():
    # F_0(-z) = -F_0(z), so even coefficients vanish
    for j in (0, 2, 4):
        assert f_coefficient(0, j) == ZERO
    expected = (Scalar.from_int(2) * Q * (ONE + Q)) / (ONE - Q) ** 3
    assert f_coefficient(0, 1) == expected


def test_bhatq_nonnegative_modes_closed_form():
    assert bracket_modes("bhatq", 3, -3, r=1, s=0) == Scalar.from_int(-3)
    assert bracket_modes("bhatq", 3, -3, r=0, s=0) == Scalar.from_int(3)
    assert bracket_modes("bhatq", 3, -3, r=2, s=0) == ZERO
    assert bracket_modes("bhatq", 0, 0, r=0, s=0) == ZERO
    for n in (-5, -2, 1, 4):
        if n != -2:
            assert bracket_modes("bhatq", 2, n, r=0, s=0) == ZERO


def test_bhatq_creation_pair_value():
    # frozen by hand from the z-coefficient of the exponential tail:
    # [b(0)_-1, b(1)_-2] = -F_-1 coefficient at z^1 = q^2(q^2+1)/(q^2-1)^3
    got = bracket_modes("bhatq", -1, -2, r=0, s=1)
    assert got == -f_coefficient(-1, 1)
    assert got == (qp(2) * (qp(2) + ONE)) / (qp(2) - ONE) ** 3
    assert got  # mode sums need not vanish: a degree-violation witness


def test_bhatq_diagonal_creation_values():
    assert bracket_modes("bhatq", -3, 3, r=0, s=0) == Scalar.from_int(-3)
    assert bracket_modes("bhatq", -3, 3, r=0, s=1) == Scalar.from_int(3)
    assert bracket_modes("bhatq", -3, 3, r=1, s=0) == ZERO


def test_bhatq_matches_combinatorial_closed_form():
    # the closed form against the sum of directed binomial-power tables
    w = Window.cube(("x1", "x2"), 5)
    for diff in range(-2, 3):
        oracle = bhatq_oracle_table(diff, w)
        for s in (-1, 0):
            for m in range(-4, 5):
                for n in range(-4, 5):
                    assert bracket_modes("bhatq", m, n, diff + s, s) == \
                        oracle.coeff((-m - 1, -n - 1), ZERO), (diff, s, m, n)


def test_bhatq_table_agrees_with_bracket():
    # at level 1 the catalog's pair table is the bare bracket expansion
    bq = FockModule("bhatq", level=ONE)
    for radius in (3, 6):
        w = Window.cube(("x1", "x2"), radius)
        for diff in range(-3, 4):
            table = pair_of(field_of(bq, diff), field_of(bq, 0)).table(w)
            assert_same_table(table, bhatq_oracle_table(diff, w), w)
            for m in range(-radius - 1, radius):
                for n in range(-radius - 1, radius):
                    got = table.coeff((-m - 1, -n - 1), ZERO)
                    assert got == bracket_modes("bhatq", m, n, r=diff, s=0), \
                        (diff, m, n)


def test_bhatq_positive_part_abelian():
    for m in range(0, 5):
        for n in range(0, 5):
            for diff in range(-2, 3):
                assert bracket_modes("bhatq", m, n, r=diff, s=0) == ZERO


def test_graded_closed_form_examples():
    assert graded_leading_constant(0, 0, 3, -3) == Scalar.from_int(3)
    assert graded_leading_constant(0, 1, -2, 2) == Scalar.from_int(2)
    assert graded_leading_constant(1, 0, -2, 2) == ZERO
    for r in range(-1, 2):
        for s in range(-1, 2):
            for m in range(-4, 5):
                for n in range(-4, 5):
                    assert bracket_modes("graded", m, n, r, s) == \
                        graded_leading_constant(r, s, m, n), (r, s, m, n)


def test_bhatq_bracket_of_two_creations():
    assert bracket_modes("bhatq", -1, -2, 0, 1) == -f_coefficient(-1, 1)


def test_skew_symmetry_reports():
    rep = check_skew_symmetry("hq", m_range=(-8, 8))
    assert rep.ok and rep.checked == 17 * 17
    assert check_skew_symmetry("htq", m_range=(-6, 6)).ok
    assert check_skew_symmetry("bhat", m_range=(-4, 4), r_range=(-2, 2)).ok
    rep = check_skew_symmetry("bhatq", m_range=(-4, 4), r_range=(-1, 1))
    assert rep.ok


def test_skew_symmetry_negative_control():
    # negating the exponential tail for positive index difference only is
    # not skew-consistent (a uniform negation would be, by the parity
    # F_n(-z) = -F_{-n}(z))
    def mutated(m, n, r, s):
        base = bracket_modes("bhatq", m, n, r, s)
        if m <= -1 and m + n != 0 and r - s > 0:
            return -base
        return base

    rep = check_skew_symmetry("bhatq", m_range=(-3, 3), r_range=(-1, 1),
                              bracket=mutated)
    assert not rep.ok
    assert rep.failures


def test_shift_invariance():
    assert verify_shift_invariance("bhatq", 5, m_range=(-4, 4),
                                   r_range=(-2, 2)).ok
    assert verify_shift_invariance("bhat", -3, m_range=(-3, 3),
                                   r_range=(-2, 2)).ok
    assert verify_shift_invariance("graded", 2, m_range=(-3, 3),
                                   r_range=(-1, 1)).ok

    def r_dependent(m, n, r, s):
        return bracket_modes("bhat", m, n, r, s) * Scalar.from_int(r)

    rep = verify_shift_invariance("bhat", 1, m_range=(-2, 2),
                                  r_range=(0, 1), bracket=r_dependent)
    assert not rep.ok


def test_planted_symmetric_pairing_fails_skew_check(monkeypatch):
    """A pairing made symmetric fails the skew check of the bhat brackets
    built on it, naming the pair."""
    base = liealg.standard_pairing
    monkeypatch.setattr(liealg, "standard_pairing", lambda r, s, *rest:
                        base(min(r, s), max(r, s), *rest))
    rep = check_skew_symmetry("bhat", m_range=(-2, 2), r_range=(-3, 3))
    assert rep.status == FAIL
    assert re.match(r"\(r=-?\d+, s=-?\d+, m=-?\d+, n=-?\d+\): "
                    r"\[a,b\] \+ \[b,a\]: .+ != 0$",
                    rep.failures[0]), rep.failures


def test_bilinear_form_rank():
    def gram(lo, hi):
        rng = range(lo, hi + 1)
        return [[standard_pairing(r, s) for s in rng] for r in rng]

    rng = range(-3, 4)
    assert all(standard_pairing(r, s) + standard_pairing(s, r) == ZERO
               for r in rng for s in rng)
    # the skew band matrix has full rank exactly on even-size windows
    assert matrix_rank(gram(-2, 1)) == 4
    assert matrix_rank(gram(-3, 2)) == 6
    assert matrix_rank(gram(-2, 2)) == 4
    assert matrix_rank([[ZERO, ONE], [-ONE, ZERO]]) == 2
    assert matrix_rank([]) == 0
