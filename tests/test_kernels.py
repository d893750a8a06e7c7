"""Kernel parsing, printing, and directed expansion."""

import random
from fractions import Fraction

import pytest

from conftest import exp_pole_kernel, inv_factor_table_oracle
from qheis.kernels import (
    Factor,
    KernelParseError,
    RationalKernel,
    _inv_factor_table,
    iota_expand,
    parse_kernel,
)
from qheis.scalar import Scalar
from qheis.series import (
    CertificationError,
    Window,
    compare_on,
    delta_family,
)

ONE = Scalar.from_int(1)
Q = Scalar.var_q()


def frac(n, d=1):
    return Scalar.from_fraction(Fraction(n, d))


def mono(**exps):
    return tuple(sorted(exps.items()))


# ---------------------------------------------------------------------------
# parsing and printing
# ---------------------------------------------------------------------------


def test_parse_binomial_product_numerator():
    k = parse_kernel("(x1-q*x2)*(q*x1-x2)")
    assert k.den == ()
    assert k.mono_den == ()
    assert k.num == {
        mono(x1=2): Q,
        mono(x1=1, x2=1): -(ONE + Q * Q),
        mono(x2=2): Q,
    }


def test_parse_ratio_power():
    k = parse_kernel("1/(1-q*x1/x2)^2")
    assert k.num == {(): ONE}
    assert k.den == ((Factor("ratio", "x1", "x2", Q), 2),)


def test_parse_rejects_irreducible_quadratic():
    with pytest.raises(KernelParseError) as exc:
        parse_kernel("1/(x1^2+x2^2)")
    assert "allowed shapes" in str(exc.value)


def test_parse_monomial_division_folds():
    k = parse_kernel("q/x1^2")
    assert k.num == {(): Q}
    assert k.mono_den == mono(x1=2)
    assert parse_kernel("x1/x1") == parse_kernel("1")


def test_parse_exponential_factors():
    k = parse_kernel("1/(e^z - 1)^2/(e^z - q)^2")
    assert k.num == {(): ONE}
    assert k.den == (
        (Factor("expconst", "z", "", ONE), 2),
        (Factor("expconst", "z", "", Q), 2),
    )


def test_parse_error_positions_and_reasons():
    with pytest.raises(KernelParseError, match="unknown symbol"):
        parse_kernel("x1 + y1")
    with pytest.raises(KernelParseError, match="nested quotients"):
        parse_kernel("1/(1/(x1-q))")
    with pytest.raises(KernelParseError, match="exponent must be an integer"):
        parse_kernel("x1^q")
    with pytest.raises(KernelParseError, match="e\\^ expects"):
        parse_kernel("e^3")
    with pytest.raises(KernelParseError, match="division by zero"):
        parse_kernel("1/(x1-x1)")
    with pytest.raises(KernelParseError, match="bad character"):
        parse_kernel("x1 ? x2")


def test_print_parse_round_trip_examples():
    for text in [
        "(x1-q*x2)*(q*x1-x2)",
        "1/(1-q*x1/x2)^2",
        "q/x1^2",
        "1/(e^z - 1)^2/(e^z - q)^2",
        "(x1 - x2)^2/(x1-q*x2)",
        "e^z^3/(e^z - q)",
        "(2*x1 - 3*x2)/(x2 - 2)",
        "x2^2/(x1*x2^3)",
    ]:
        k = parse_kernel(text)
        assert parse_kernel(k.text()) == k, k.text()


def test_print_parse_round_trip_seeded():
    rng = random.Random(20260823)
    consts = [ONE, Scalar.from_int(2), Q, ONE / Q, Q * Q, frac(1, 2),
              ONE + Q, Scalar.from_int(-1) * Q]
    for _ in range(60):
        num = {}
        for _t in range(rng.randint(1, 3)):
            m = mono(**{v: rng.randint(0, 2) for v in ("x1", "x2")})
            num[m] = rng.choice(consts)
        den = []
        for _f in range(rng.randint(0, 2)):
            c = rng.choice(consts)
            shape = rng.choice(["binom", "ratio", "affine"])
            if shape == "affine":
                f = Factor("affine", rng.choice(["x1", "x2"]), "", c)
            elif shape == "binom":
                f = Factor("binom", "x1", "x2", c)
            else:
                a, b = rng.choice([("x1", "x2"), ("x2", "x1")])
                f = Factor("ratio", a, b, c)
            den.append((f, rng.randint(1, 3)))
        k = RationalKernel(num, mono(x1=rng.randint(0, 2)), tuple(den))
        if not k.num:
            continue
        assert parse_kernel(k.text()) == k, k.text()


@pytest.mark.parametrize("paren, flat", [
    ("1/((x1-x2)*(x1-q*x2))", "1/(x1-x2)/(x1-q*x2)"),
    ("1/((x1-x2)^2)", "1/(x1-x2)^2"),
    ("1/(x2*(x1-x2))", "1/x2/(x1-x2)"),
    ("1/(-(x1-x2)*(x1-q*x2))", "-1/(x1-x2)/(x1-q*x2)"),
])
def test_parenthesized_product_of_factors(paren, flat):
    """A product of allowed factors inside one pair of parentheses is
    split into one denominator factor each, as the flat spelling is."""
    k, want = parse_kernel(paren), parse_kernel(flat)
    assert k == want
    w = Window.cube(("x1", "x2"), 4)
    for direction in (("x1", "x2"), ("x2", "x1")):
        got_t = iota_expand(k, direction, w)
        want_t = iota_expand(want, direction, w)
        assert got_t.support() == want_t.support()
        assert all(got_t.coeff(e) == want_t.coeff(e)
                   for e in w.exponents())


# ---------------------------------------------------------------------------
# directed expansion
# ---------------------------------------------------------------------------


def test_geometric_ratio_both_directions():
    k = parse_kernel("1/(1-q*x1/x2)")
    w = Window.cube(("x1", "x2"), 5)
    inner_x1 = iota_expand(k, ("x2", "x1"), w)
    for j in range(6):
        assert inner_x1.coeff((j, -j)) == Q**j
    assert inner_x1.coeff((2, -3)) == Scalar.from_int(0)
    assert inner_x1.coeff((-1, 1)) == Scalar.from_int(0)

    inner_x2 = iota_expand(k, ("x1", "x2"), w)
    for j in range(5):
        assert inner_x2.coeff((-1 - j, 1 + j)) == Scalar.from_int(-1) * Q**(-1 - j)
    assert inner_x2.coeff((0, 0)) == Scalar.from_int(0)


@pytest.mark.parametrize("shape", ["affine", "binom", "ratio", "expconst"])
def test_inverse_factor_table_matches_per_k_powers(shape):
    """The running power of each factor table against c**k per term."""
    if shape == "expconst":
        consts = [ONE, Q, frac(-1, 2)]
        a, b, vars_ = "z", "", ("x1", "z")
    else:
        consts = [Q, frac(-1, 3), ONE / (Q - frac(2)), frac(2) * Q**-2]
        a, b, vars_ = "x1", ("x2" if shape in ("binom", "ratio") else ""), \
            ("x1", "x2")
    for c in consts:
        f = Factor(shape, a, b, c)
        for inner in vars_:
            for p in (1, 2, 3):
                for hi in range(-1, 13):
                    got = _inv_factor_table(f, p, vars_, inner, hi)
                    want = inv_factor_table_oracle(f, p, vars_, inner, hi)
                    case = (c, inner, p, hi)
                    assert got.coeffs == want.coeffs, case
                    assert got.cert == want.cert, case
                    assert got.vars == want.vars, case


def test_direction_difference_is_delta():
    k = parse_kernel("1/(x1-x2)")
    w = Window.cube(("x1", "x2"), 6)
    small_x2 = iota_expand(k, ("x1", "x2"), w).with_direction(None)
    small_x1 = iota_expand(k, ("x2", "x1"), w).with_direction(None)
    diff = small_x2 - small_x1
    delta = delta_family("plain", ONE, Window.cube(("x1", "x2"), 8))
    expected = delta.shift({"x1": -1})
    report = compare_on("delta-decomposition", diff, expected, w)
    assert report.ok, report.failures


def test_quasi_locality_multiplier_inverse():
    k = parse_kernel("1/(x1-q*x2)/(x1-(1/q)*x2)")
    w = Window.cube(("x1", "x2"), 6)
    t = iota_expand(k, ("x2", "x1"), w)
    assert t.coeff((0, -2)) == ONE
    assert t.coeff((1, -3)) == Q + ONE / Q
    for e in w.exponents():
        if sum(e) != -2:
            assert t.coeff(e) == Scalar.from_int(0)


def test_expansion_times_denominator_is_numerator():
    from qheis.series import TruncatedLaurent

    k = parse_kernel("1/(1-q*x1/x2)^2")
    w = Window.cube(("x1", "x2"), 6)
    t = iota_expand(k, ("x2", "x1"), w)
    # (x2 - q*x1)^2 expanded
    back = TruncatedLaurent.polynomial(("x1", "x2"), {
        (0, 2): ONE, (1, 1): Scalar.from_int(-2) * Q, (2, 0): Q * Q,
    })
    lhs = t.with_direction(None) * back
    rhs = TruncatedLaurent.polynomial(("x1", "x2"), {(0, 2): ONE})
    report = compare_on("ratio-times-denominator", lhs, rhs,
                        Window.cube(("x1", "x2"), 3))
    assert report.ok, report.failures


def test_affine_mixed_kernel():
    from qheis.kernels import KernelError
    from qheis.series import TruncatedLaurent

    k = parse_kernel("1/(x1-2)/(x1-x2)")
    w = Window.cube(("x1", "x2"), 4)
    t = iota_expand(k, ("x2", "x1"), w)
    back = TruncatedLaurent.polynomial(("x1", "x2"), {
        (2, 0): ONE,
        (1, 1): Scalar.from_int(-1),
        (1, 0): Scalar.from_int(-2),
        (0, 1): Scalar.from_int(2),
    })
    lhs = t.with_direction(None) * back
    rhs = TruncatedLaurent.polynomial(("x1", "x2"), {(0, 0): ONE})
    report = compare_on("affine-mixed", lhs, rhs, Window.cube(("x1", "x2"), 2))
    assert report.ok, report.failures
    # with the affine variable kept outermost the exactness of the product
    # cannot be certified coefficient-wise; the expansion says so up front
    with pytest.raises(KernelError, match="direction ending in 'x1'"):
        iota_expand(k, ("x1", "x2"), w)


def test_two_affine_factors_expand():
    k = parse_kernel("1/(x1-2)/(x2-3)")
    w = Window.of(x1=(0, 3), x2=(0, 3))
    t = iota_expand(k, ("x1", "x2"), w)
    assert t.coeff((0, 0)) == frac(1, 6)
    assert t.coeff((1, 1)) == frac(1, 36)


def test_exponential_pole_series():
    t = iota_expand(exp_pole_kernel(ONE), ("z",), Window.of(z=(-2, 4)))
    assert t.coeff((-2,)) == ONE
    assert t.coeff((-1,)) == Scalar.from_int(0)
    assert t.coeff((0,)) == frac(-1, 12)
    assert t.coeff((1,)) == Scalar.from_int(0)
    assert t.coeff((2,)) == frac(1, 240)
    assert t.coeff((3,)) == Scalar.from_int(0)


def test_exponential_double_pole_inverse_leading_terms():
    k = parse_kernel("1/(e^z - 1)^2/(e^z - q)^2")
    t = iota_expand(k, ("z",), Window.of(z=(-2, 1)))
    one_minus_q = ONE - Q
    assert t.coeff((-2,)) == ONE / (one_minus_q * one_minus_q)
    expected = (Q - Scalar.from_int(3)) / (one_minus_q**3)
    assert t.coeff((-1,)) == expected


def test_exponential_numerator():
    k = parse_kernel("e^z/(e^z - q)")
    t = iota_expand(k, ("z",), Window.of(z=(0, 3)))
    assert t.coeff((0,)) == ONE / (ONE - Q)
    t.require_certified(Window.of(z=(0, 3)))


def test_coefficients_outside_window_are_guarded():
    k = parse_kernel("1/(1-q*x1/x2)")
    w = Window.cube(("x1", "x2"), 5)
    t = iota_expand(k, ("x2", "x1"), w)
    with pytest.raises(CertificationError):
        t.coeff((7, -7))


def test_window_below_support_is_certified_zero():
    k = parse_kernel("1/(1-q*x1/x2)")
    w = Window.of(x1=(-5, -1), x2=(-5, 5))
    t = iota_expand(k, ("x2", "x1"), w)
    assert t.is_zero_on(w)
    t.require_certified(w)


def test_polynomial_kernels_expand_without_direction():
    k = parse_kernel("(x1-q*x2)*x1")
    w = Window.cube(("x1", "x2"), 3)
    t = iota_expand(k, ("x2", "x1"), w)
    assert t.direction is None
    assert t.coeff((2, 0)) == ONE
    assert t.coeff((1, 1)) == Scalar.from_int(-1) * Q
