import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EvaluationError, evaluate
from qheis.scalar import (
    ONE,
    ZERO,
    L,
    Q,
    RationalPoint,
    Scalar,
    qint,
)


def S(n):
    return Scalar.from_int(n)


def test_reduce_common_factor():
    # (q^2 - 1)/(q - 1) reduces to q + 1
    num = Q * Q - ONE
    den = Q - ONE
    assert num / den == Q + ONE


def test_reduce_zero_numerator():
    z = ZERO / (Q**3 + L)
    assert z == ZERO
    assert str(z) == "0"


def test_reduce_content():
    # 2q/4 reduces to q/2
    r = (S(2) * Q) / S(4)
    assert r.num == {(1, 0): 1}
    assert r.den == {(0, 0): 2}
    assert str(r) == "q/2"


def test_denominator_sign_normalized():
    # 1/(-q + 1) must carry the sign into the numerator
    a = ONE / (ONE - Q)
    b = -ONE / (Q - ONE)
    assert a == b
    assert a.den == (Q - ONE).num


def test_qint_small_values():
    assert qint(0) == ZERO
    assert qint(1) == ONE
    assert qint(2) == Q + Scalar.q_power(-1)
    expected = -(Q**2 + ONE + Scalar.q_power(-2))
    assert qint(-3) == expected


def test_qint_antisymmetry():
    for m in range(-20, 21):
        assert qint(-m) == -qint(m)


def test_qint_recurrence():
    # [m+1] = (q + 1/q) [m] - [m-1]
    t = Q + Scalar.q_power(-1)
    for m in range(1, 15):
        assert qint(m + 1) == t * qint(m) - qint(m - 1)


def test_evaluate_qint():
    p = RationalPoint(2, 1)
    assert evaluate(qint(2), p) == Fraction(5, 2)


def test_evaluate_pole_free_kernel():
    p = RationalPoint(2, 1)
    v = evaluate(ONE / (Q - Scalar.q_power(-1)), p)
    assert v == Fraction(2, 3)


def test_evaluate_names_offending_factor():
    p = RationalPoint(2, 7)
    bad = ONE / (Q - S(2))
    with pytest.raises(EvaluationError) as exc:
        evaluate(bad, p)
    assert "q - 2" in str(exc.value)
    assert "q=2" in str(exc.value)


def test_rational_point_guards():
    for q0 in (0, 1, -1):
        with pytest.raises(ValueError):
            RationalPoint(q0, 1)
    RationalPoint(Fraction(3, 5), 2)  # fine


def test_point_immutable():
    p = RationalPoint(2, 3)
    with pytest.raises(AttributeError):
        p.q0 = Fraction(5)


def test_power_and_inverse():
    x = (Q + ONE) / (Q - ONE)
    assert x**0 == ONE
    assert x**3 * x**-3 == ONE
    assert (x**-2) * (x**2) == ONE


def test_hash_consistency():
    a = (Q**2 - ONE) / (Q - ONE)
    b = Q + ONE
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_str_round_values():
    assert str(qint(2)) == "(q^2 + 1)/q"
    assert str(Q * L) == "q*l"
    assert str(S(-3) * Q**2 * L + ONE) == "-3*q^2*l + 1"


def _random_scalar(rng: random.Random, depth: int = 0) -> Scalar:
    choice = rng.randrange(8 if depth < 3 else 4)
    if choice == 0:
        return Scalar.from_int(rng.randint(-9, 9))
    if choice == 1:
        return Scalar.q_power(rng.randint(-4, 4))
    if choice == 2:
        return L ** rng.randint(0, 2)
    if choice == 3:
        return qint(rng.randint(-5, 5))
    a = _random_scalar(rng, depth + 1)
    b = _random_scalar(rng, depth + 1)
    if choice == 4:
        return a + b
    if choice == 5:
        return a - b
    if choice == 6:
        return a * b
    return a * b + Scalar.from_int(rng.randint(-3, 3))


def test_evaluation_is_a_homomorphism_seeded():
    """Evaluating a compound expression agrees with compounding evaluations."""
    rng = random.Random(20260823)
    pt = RationalPoint(Fraction(3, 5), Fraction(2))
    checked = 0
    for _ in range(200):
        a = _random_scalar(rng)
        b = _random_scalar(rng)
        try:
            va, vb = evaluate(a, pt), evaluate(b, pt)
        except EvaluationError:
            continue
        assert evaluate(a + b, pt) == va + vb
        assert evaluate(a * b, pt) == va * vb
        if vb != 0:
            assert evaluate(a / b, pt) == va / vb
        checked += 1
    assert checked >= 150


@settings(max_examples=60, deadline=None)
@given(
    st.integers(-6, 6),
    st.integers(-6, 6),
    st.integers(-3, 3),
)
def test_field_axioms(m, n, k):
    a, b, c = qint(m), qint(n) + Scalar.q_power(k), L + Scalar.from_int(k)
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert a - a == ZERO
    if b:
        assert (a / b) * b == a


@settings(max_examples=40, deadline=None)
@given(st.integers(-8, 8), st.integers(1, 5))
def test_canonical_form_invariants(k, n):
    s = (qint(n) + Scalar.q_power(k)) / (qint(n + 1) * Scalar.from_int(2))
    # canonical representation: gcd of num and den is constant, positive lead
    from qheis.scalar import _lead, _pgcd

    g = _pgcd(s.num, s.den)
    assert set(g) <= {(0, 0)}
    assert _lead(s.den)[1] > 0


# ---------------------------------------------------------------------------
# factored denominators against the general gcd
# ---------------------------------------------------------------------------


def _reduced(num, den):
    """num/den reduced by the general Z[q, l] gcd, denominator lead > 0."""
    from qheis.scalar import _lead, _pdiv_exact, _pgcd, _pneg

    g = _pgcd(num, den)
    num, den = _pdiv_exact(num, g), _pdiv_exact(den, g)
    if _lead(den)[1] < 0:
        num, den = _pneg(num), _pneg(den)
    return num, den


def _cyclotomic(d):
    """Phi_d(q) = (q^d - 1) / prod_{k | d, k < d} Phi_k(q), by long division."""
    from qheis.scalar import _pdiv_exact

    p = {(d, 0): 1, (0, 0): -1}
    for k in range(1, d):
        if d % k == 0:
            p = _pdiv_exact(p, _cyclotomic(k))
    return p


def _operand_factory(rng, residuals):
    from qheis.scalar import _pmul

    cyclo = [_cyclotomic(d) for d in range(1, 13)]
    # numerators; dividing by one that is not a product of q, Phi_d and an
    # integer leaves a residual
    tops = [{(3, 0): 2, (1, 0): -2}, {(0, 0): 5}, {(4, 0): 1, (0, 0): -1}]
    extra = []
    if residuals:
        tops += [{(2, 0): 1, (0, 0): 7}, {(0, 0): 1, (1, 1): -2},
                 {(2, 0): 3, (0, 1): 1, (0, 0): -1},
                 {(1, 0): 1, (0, 2): 1}, {(1, 1): 1}]
        extra = [{(1, 0): 1, (0, 0): -2}, {(1, 0): 1, (0, 1): 1},
                 {(0, 1): 1}]

    def factor(pool):
        kind = rng.randrange(4)
        if kind == 0:
            return {(rng.randint(1, 3), 0): 1}
        if kind == 1:
            return {(0, 0): rng.choice([2, 3, -4, 6, 9])}
        if kind == 2 or not pool:
            return rng.choice(cyclo)
        return rng.choice(pool)

    def product(count, pool):
        out = {(0, 0): 1}
        for _ in range(count):
            out = _pmul(out, factor(pool))
        return out

    def make():
        num = _pmul(rng.choice(tops), product(rng.randint(0, 2), []))
        den = product(rng.randint(0, 3), extra if rng.random() < 0.3 else [])
        return num, den

    return make


def _check_against_oracle(rng, make, pairs):
    from qheis.scalar import _padd, _pmul, _pneg

    for _ in range(pairs):
        (xn, xd), (yn, yd) = make(), make()
        x, y = Scalar(xn, xd), Scalar(yn, yd)
        assert (x.num, x.den) == _reduced(xn, xd)
        a, b = x.den, y.den
        expected = {
            "+": _reduced(_padd(_pmul(x.num, b), _pmul(y.num, a)),
                          _pmul(a, b)),
            "-": _reduced(_padd(_pmul(x.num, b), _pneg(_pmul(y.num, a))),
                          _pmul(a, b)),
            "*": _reduced(_pmul(x.num, y.num), _pmul(a, b)),
            "/": _reduced(_pmul(x.num, b), _pmul(a, y.num)),
        }
        got = {"+": x + y, "-": x - y, "*": x * y, "/": x / y}
        for op, value in got.items():
            want = expected[op]
            if not want[0]:
                want = ({}, {(0, 0): 1})
            assert (value.num, value.den) == want, (op, x, y)
            assert value == Scalar(*want)
            assert hash(value) == hash(Scalar(*want))


def test_cyclotomic_arithmetic_matches_gcd_oracle_seeded():
    """Phi_d (d <= 12), q-powers and integer contents: every result
    equals the gcd reduction, and none takes the residual path."""
    from qheis import scalar

    rng = random.Random(20261018)
    before = scalar.residual_reductions
    _check_against_oracle(rng, _operand_factory(rng, residuals=False), 120)
    assert scalar.residual_reductions == before


def test_residual_arithmetic_matches_gcd_oracle_seeded():
    """Numerators with l, and denominators with q - 2, q + l or l, take
    the residual gcd path and still match the gcd reduction."""
    from qheis import scalar

    rng = random.Random(20261019)
    before = scalar.residual_reductions
    _check_against_oracle(rng, _operand_factory(rng, residuals=True), 120)
    assert scalar.residual_reductions > before


def test_phi_image_heisenberg_stays_off_the_residual_path():
    """Machine-independent gate: every scalar of the law factors over q
    and cyclotomic polynomials, so no reduction falls back to the gcd.
    A fresh process keeps warm caches of other tests out of the count."""
    import os
    import subprocess
    import sys

    import qheis

    code = ("from qheis import scalar\n"
            "from qheis.vertexops import verify_identity\n"
            "rep = verify_identity('phi-image-heisenberg', window=2)\n"
            "print(rep.status, scalar.residual_reductions)\n")
    src_dir = os.path.dirname(os.path.dirname(qheis.__file__))
    env = dict(os.environ, PYTHONPATH=src_dir)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["pass", "0"]
