import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EvaluationError, _q_divmod, _q_list, evaluate, \
    fraction_of, gcd_oracle, norlund_rows_oracle, reduced_oracle
from qheis.scalar import (
    ONE,
    ZERO,
    L,
    Q,
    SYMBOLIC,
    RationalPoint,
    Scalar,
    ScalarError,
    SymbolicField,
    int_text,
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
    z = ZERO / (Q**3 - S(2))
    assert z == ZERO
    assert str(z) == "0"


def test_reduce_content():
    # 2q/4 reduces to q/2
    r = (S(2) * Q) / S(4)
    assert r.num == {(1, 0): 1}
    assert r.den == {(0, 0): 2}
    assert str(r) == "q/2"


def test_division_by_a_polynomial_in_l_raises():
    """Denominators lie in Z[q]: the level enters only numerators."""
    for divide in (lambda: ONE / L, lambda: Q / (Q + L), lambda: L ** -1,
                   lambda: ONE / (Q * L + ONE), lambda: ZERO / L,
                   lambda: ONE / ((Q * L + ONE) / (Q - S(2)))):
        with pytest.raises(ScalarError, match="free of l"):
            divide()
    # a numerator in l is fine, and so is dividing by a constant
    assert (L / (Q - ONE)) * (Q - ONE) == L
    assert L / S(2) * S(2) == L


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


def test_point_hash_is_kept_and_structural():
    p = RationalPoint(Fraction(3, 5), 2)
    same = RationalPoint(Fraction(6, 10), Fraction(2))
    assert p == same and hash(p) == hash(same)
    assert hash(p) == hash((Fraction(3, 5), Fraction(2)))
    assert p._hash == hash((p.q0, p.l0))


# what the rest of the package asks of a scalar field
FIELD_PROTOCOL = {"zero", "one", "level", "from_int", "q_power", "qint",
                  "pair_sum", "exp_inverse"}


def test_both_fields_supply_the_one_protocol():
    """The symbolic field and a point each supply every member of the
    scalar-field protocol, and no other public member but a point's
    coordinates, so the two fields cannot drift apart."""
    point = RationalPoint(Fraction(3, 5), 2)
    for field in (SYMBOLIC, point):
        assert all(hasattr(field, name) for name in FIELD_PROTOCOL), field

    def public(cls):
        return {name for name in dir(cls) if not name.startswith("_")}

    assert public(SymbolicField) == FIELD_PROTOCOL
    assert public(RationalPoint) == FIELD_PROTOCOL | {"q0", "l0"}


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


def test_str_prints_integers_past_the_digit_limit():
    # str(int) stops at sys.get_int_max_str_digits() (4,300 by default);
    # the printer writes the digits without changing that limit
    limit = sys.get_int_max_str_digits()
    big = 10 ** 5000
    assert str(S(big)) == "1" + "0" * 5000
    assert str(S(-big)) == "-1" + "0" * 5000
    c, digits = 7 * big + 3, "7" + "0" * 4999 + "3"
    assert str(S(c) * Q + L) == digits + "*q + l"
    assert str(ONE / S(-c) - Q**2) == f"(-{digits}*q^2 - 1)/{digits}"
    assert sys.get_int_max_str_digits() == limit


def test_int_text_matches_its_digits_seeded():
    rng = random.Random(3)
    for size in (1, 600, 603, 604, 4300, 4301, 9000):
        text = str(rng.randint(1, 9)) + "".join(
            rng.choice("0123456789") for _ in range(size - 1))
        n = 0
        for i in range(0, size, 500):  # int(str) has the same limit
            chunk = text[i:i + 500]
            n = n * 10 ** len(chunk) + int(chunk)
        assert int_text(n) == text, size
        assert int_text(-n) == "-" + text, size


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
    checked = refused = 0
    for _ in range(200):
        a = _random_scalar(rng)
        b = _random_scalar(rng)
        try:
            va, vb = evaluate(a, pt), evaluate(b, pt)
        except EvaluationError:
            continue
        assert evaluate(a + b, pt) == va + vb
        assert evaluate(a * b, pt) == va * vb
        if any(el for _eq, el in b.num):
            # a divisor in l is refused, whatever its value at the point
            with pytest.raises(ScalarError, match="free of l"):
                a / b
            refused += 1
        elif vb != 0:
            assert evaluate(a / b, pt) == va / vb
        checked += 1
    assert checked >= 150
    assert 10 <= refused <= checked - 50


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
    # canonical representation: gcd of num and den is 1, positive lead
    assert gcd_oracle(s.num, s.den) == {(0, 0): 1}
    assert s.den[max(s.den)] > 0


# ---------------------------------------------------------------------------
# factored denominators against a gcd oracle (Euclid over Q[q])
# ---------------------------------------------------------------------------


def _cyclotomic(d):
    """Phi_d(q) = (q^d - 1) / prod_{k | d, k < d} Phi_k(q), by Euclid's
    division in Q[q]."""
    p = [Fraction(-1)] + [Fraction(0)] * (d - 1) + [Fraction(1)]
    for k in range(1, d):
        if d % k == 0:
            p, rem = _q_divmod(p, _q_list(_cyclotomic(k)))
            assert not rem
    return {(i, 0): int(c) for i, c in enumerate(p) if c}


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
                 {(1, 0): 1, (0, 2): 1}, {(1, 1): 1},
                 {(1, 0): 2, (0, 0): -1}]
        # q - 2, q^2 + q + 3, 2q + 3 and 3q^2 - q + 2: denominators lie in
        # Z[q], and the last two are not monic
        extra = [{(1, 0): 1, (0, 0): -2},
                 {(2, 0): 1, (1, 0): 1, (0, 0): 3},
                 {(1, 0): 2, (0, 0): 3},
                 {(2, 0): 3, (1, 0): -1, (0, 0): 2}]

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


_PAIR_WEIGHTS = (-3, -1, 0, 1, 2)
_PAIR_DIVISORS = (1, 2, 6)
# no factor of the operand factories vanishes here
_PAIR_POINT = RationalPoint(Fraction(3, 5), 2)


def _check_pair_sum(weights, x, y):
    """pair_sum(x, wx, y, wy, j) at seeded weights and divisor equals the
    gcd reduction of (wx x + wy y) / j, and RationalPoint.pair_sum at the
    values of x and y equals Fraction arithmetic."""
    from qheis.scalar import _padd, _pmul, pair_sum

    def times(p, k):
        return {m: k * v for m, v in p.items()} if k else {}

    wx, wy = weights.choice(_PAIR_WEIGHTS), weights.choice(_PAIR_WEIGHTS)
    j = weights.choice(_PAIR_DIVISORS)
    a, b = x.den, y.den
    want = reduced_oracle(_padd(times(_pmul(x.num, b), wx),
                                times(_pmul(y.num, a), wy)),
                          times(_pmul(a, b), j))
    if not want[0]:
        want = ({}, {(0, 0): 1})
    got = pair_sum(x, wx, y, wy, j)
    assert (got.num, got.den) == want, (x, wx, y, wy, j)
    assert got == fraction_of(*want)
    ex, ey = evaluate(x, _PAIR_POINT), evaluate(y, _PAIR_POINT)
    at = _PAIR_POINT.pair_sum(ex, wx, ey, wy, j)
    assert at == (wx * ex + wy * ey) / j == evaluate(got, _PAIR_POINT)


def _check_against_oracle(rng, make, pairs):
    from qheis.scalar import _padd, _pmul, _pneg

    # weights come from their own stream, so the operand draws do not
    # depend on them
    weights = random.Random(20261020)
    for _ in range(pairs):
        (xn, xd), (yn, yd) = make(), make()
        x, y = fraction_of(xn, xd), fraction_of(yn, yd)
        assert (x.num, x.den) == reduced_oracle(xn, xd)
        # x + 1 keeps the denominator of x
        same = fraction_of(_padd(xn, xd), xd)
        assert not same or same.den == x.den
        for u, v in ((x, y), (x, same), (x, ZERO), (ZERO, y)):
            _check_pair_sum(weights, u, v)
        # adding zero returns the other operand itself
        assert x + ZERO is x and ZERO + x is x and x - ZERO is x
        a, b = x.den, y.den
        expected = {
            "+": reduced_oracle(_padd(_pmul(x.num, b), _pmul(y.num, a)),
                                _pmul(a, b)),
            "-": reduced_oracle(_padd(_pmul(x.num, b),
                                      _pneg(_pmul(y.num, a))),
                                _pmul(a, b)),
            "*": reduced_oracle(_pmul(x.num, y.num), _pmul(a, b)),
        }
        got = {"+": x + y, "-": x - y, "*": x * y}
        if any(el for _eq, el in y.num):
            with pytest.raises(ScalarError, match="free of l"):
                x / y
        else:
            expected["/"] = reduced_oracle(_pmul(x.num, b), _pmul(a, y.num))
            got["/"] = x / y
        for op, value in got.items():
            want = expected[op]
            if not want[0]:
                want = ({}, {(0, 0): 1})
            assert (value.num, value.den) == want, (op, x, y)
            assert value == fraction_of(*want)
            assert hash(value) == hash(fraction_of(*want))


def test_cyclotomic_arithmetic_matches_gcd_oracle_seeded():
    """Phi_d (d <= 12), q-powers and integer contents: every result, the
    weighted pair_sum included, equals the gcd reduction, and none takes
    the residual path."""
    from qheis import scalar

    rng = random.Random(20261018)
    before = scalar.residual_reductions
    _check_against_oracle(rng, _operand_factory(rng, residuals=False), 120)
    assert scalar.residual_reductions == before


def test_residual_arithmetic_matches_gcd_oracle_seeded():
    """Numerators with l, and denominators with q - 2, q^2 + q + 3,
    2q + 3 or 3q^2 - q + 2, take the residual gcd path and still match
    the gcd reduction, in pair_sum too; a divisor whose numerator has l
    is refused."""
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


def test_fast_suite_cancellation_counts():
    """Machine-independent gate on Henrici's rule: a symbolic fast suite
    (window 5) in a fresh process makes 903 synthetic divisions
    (``_ldiv``) and 7,340 cancellations (``_cancel``; 7,361 when each
    table kept its own reduced table and built the duplicates of the
    three shared ones).  A sum that sent the factors only one operand
    has, or has to a higher power, to ``_cancel`` would try to divide
    them out of the sum: more ``_ldiv`` calls."""
    import os
    import subprocess
    import sys

    import qheis

    code = ("from qheis import scalar\n"
            "from qheis.vertexops import suite_reports\n"
            "calls = {'ldiv': 0, 'cancel': 0}\n"
            "ldiv, cancel = scalar._ldiv, scalar._cancel\n"
            "def counted_ldiv(a, p):\n"
            "    calls['ldiv'] += 1\n"
            "    return ldiv(a, p)\n"
            "def counted_cancel(num, fd):\n"
            "    calls['cancel'] += 1\n"
            "    return cancel(num, fd)\n"
            "scalar._ldiv, scalar._cancel = counted_ldiv, counted_cancel\n"
            "reps = suite_reports(window=5)\n"
            "print(all(r.status == 'pass' for r in reps),\n"
            "      calls['ldiv'], calls['cancel'])\n")
    src_dir = os.path.dirname(os.path.dirname(qheis.__file__))
    env = dict(os.environ, PYTHONPATH=src_dir)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "903", "7340"]


# ---------------------------------------------------------------------------
# monomial fast paths of the polynomial core
# ---------------------------------------------------------------------------

_COEFF = st.integers(-9, 9).filter(bool)
_MONO = st.tuples(st.integers(0, 8), st.integers(0, 3))
_POLY = st.dictionaries(_MONO, _COEFF, max_size=6)


def _pmul_oracle(a, b):
    """The product of two polynomials by the plain double loop."""
    out = {}
    for (ea, la), ca in a.items():
        for (eb, lb), cb in b.items():
            m = (ea + eb, la + lb)
            out[m] = out.get(m, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


@settings(max_examples=150, deadline=None)
@given(_MONO, _COEFF, _POLY, st.booleans())
def test_pmul_with_a_monomial_matches_double_loop(mono, coeff, poly, left):
    from qheis.scalar import _pmul

    m = {mono: coeff}
    a, b = (m, poly) if left else (poly, m)
    assert _pmul(a, b) == _pmul_oracle(a, b)


def _pmul_dropping_monomial_coefficient(a, b):
    """scalar._pmul with a planted defect: a monomial factor's coefficient
    is dropped."""
    if not a or not b:
        return {}
    if len(b) == 1:
        a, b = b, a
    if len(a) == 1:
        ((ea, la), _ca), = a.items()
        return {(ea + eb, la + lb): cb for (eb, lb), cb in b.items()}
    return _pmul_oracle(a, b)


def test_planted_pmul_defect_fails_the_oracle_runs_without_hanging(
        monkeypatch):
    """Under the planted _pmul the seeded oracle runs must end in an error
    or a mismatch, not loop: every division is synthetic division, which
    takes a bounded number of steps.  The alarm turns a regression into a
    failure instead of a hang."""
    import signal

    from qheis import scalar

    def timeout(signum, frame):
        raise TimeoutError("arithmetic under the planted _pmul did not stop")

    monkeypatch.setattr(scalar, "_pmul", _pmul_dropping_monomial_coefficient)
    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(10)
    try:
        for seed, residuals in ((20261018, False), (20261019, True)):
            rng = random.Random(seed)
            with pytest.raises((scalar.ScalarError, AssertionError)):
                _check_against_oracle(
                    rng, _operand_factory(rng, residuals=residuals), 120)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=1, max_size=6).filter(
           lambda a: a[-1]),
       st.lists(st.integers(-9, 9), max_size=2), _COEFF, _COEFF,
       st.integers(0, 8))
def test_ldiv_divides_exactly_by_any_leading_coefficient(a, mid, low, lead,
                                                           i):
    """Synthetic division by p = low + ... + lead q^k (k >= 1, low != 0)
    returns the quotient of a p and None once one coefficient of a p is
    moved: p does not divide a power of q."""
    from qheis.scalar import _ldiv, _lmul

    p = [low, *mid, lead]
    ap = _lmul(a, p)
    assert _ldiv(ap, p) == a
    ap[i % len(ap)] += 1
    if ap[-1]:
        assert _ldiv(ap, p) is None


def _cancel_by_strip(num, fd):
    """scalar._cancel for a denominator without residual, trying every
    cyclotomic factor on the numerator."""
    from math import gcd

    from qheis.scalar import _dense, _sparse, _strip_cyclo

    c, a, cyc, r = fd
    assert r is None
    g = gcd(c, *num.values())
    num = {m: v // g for m, v in num.items()}
    k = min(min(num)[0], a)
    num = {(eq - k, el): v for (eq, el), v in num.items()}
    dense = _dense(num)
    kept = []
    for d, e in cyc:
        dense, j = _strip_cyclo(dense, d, e)
        if j < e:
            kept.append((d, e - j))
    return _sparse(dense), (c // g, a - k, tuple(kept), None)


@settings(max_examples=150, deadline=None)
@given(_MONO, _COEFF, st.integers(1, 12), st.integers(0, 4),
       st.dictionaries(st.integers(1, 12), st.integers(1, 3), min_size=1,
                       max_size=4))
def test_cancel_of_a_monomial_matches_the_strip_path(mono, coeff, c, a, cyc):
    from qheis.scalar import _cancel

    num = {mono: coeff}
    fd = (c, a, tuple(sorted(cyc.items())), None)
    assert _cancel(num, fd) == _cancel_by_strip(num, fd)


def test_norlund_rows_match_the_convolution_oracle():
    """Rows built by the Norlund recurrence equal the rows that convolve
    the Bernoulli row j - 1 times, for j <= 17 and n < 120: a kernel
    with (e^z - 1)^16 at window 100 reads row 16 to n = 116."""
    from qheis.scalar import _norlund

    for j, row in enumerate(norlund_rows_oracle(17, 119), 1):
        assert [_norlund(j, n) for n in range(120)] == row, j
