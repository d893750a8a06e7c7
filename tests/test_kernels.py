"""Kernel parsing and directed expansion."""

import random
from fractions import Fraction

import pytest

from conftest import Ratio, cert_fields, exp_numerator_oracle, \
    exp_pole_kernel, from_fraction, inv_factor_table_oracle, window_of
from qheis import kernels
from qheis.kernels import (
    MAX_EXPONENT,
    MAX_PARSE_WORK,
    Factor,
    KernelParseError,
    RationalKernel,
    _exp_factors_table,
    _inv_factor_table,
    iota_expand,
    parse_kernel,
)
from qheis.scalar import SYMBOLIC, ExpInverse, Scalar
from qheis.series import (
    CertificationError,
    Window,
    compare_on,
    delta_family,
)

ONE = Scalar.from_int(1)
Q = Scalar.var_q()


def frac(n, d=1):
    return from_fraction(SYMBOLIC, Fraction(n, d))


def mono(**exps):
    return tuple(sorted(exps.items()))


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_binomial_product_numerator():
    k = parse_kernel("(x1-q*x2)*(q*x1-x2)")
    assert k.den == ()
    assert k.num == {
        mono(x1=2): Q,
        mono(x1=1, x2=1): -(ONE + Q * Q),
        mono(x2=2): Q,
    }


def test_parse_ratio_power():
    """1 - q*x1/x2 = -q (x1 - x2/q) / x2: a binomial over the monomial
    x2, which moves into the numerator."""
    k = parse_kernel("1/(1-q*x1/x2)^2")
    assert k.num == {mono(x2=2): ONE / (Q * Q)}
    assert k.den == ((Factor("binom", "x1", "x2", ONE / Q), 2),)


@pytest.mark.parametrize("text, plain", [
    ("1/(1-2/x)", "x/(x-2)"),
    ("1/(x1/x2^2-q/x2)", "x2^2/(x1-q*x2)"),
    ("1/(1-q*x2/x1)^2", "x1^2/(x1-q*x2)^2"),
])
def test_unit_over_a_monomial_is_its_shape_times_the_monomial(text, plain):
    """A denominator unit that is an allowed shape over a monomial parses
    as that shape, with the monomial in the numerator."""
    k, want = parse_kernel(text), parse_kernel(plain)
    assert k == want
    names = sorted(k.variables())
    w = Window.cube(tuple(names), 4)
    for direction in (tuple(names), tuple(reversed(names))):
        got_t = iota_expand(k, direction, w)
        want_t = iota_expand(want, direction, w)
        assert got_t.coeffs == want_t.coeffs, direction
        assert cert_fields(got_t.cert) == cert_fields(want_t.cert), direction


def test_parse_rejects_irreducible_quadratic():
    with pytest.raises(KernelParseError) as exc:
        parse_kernel("1/(x1^2+x2^2)")
    assert "allowed shapes" in str(exc.value)


def test_parse_monomial_division_folds():
    k = parse_kernel("q/x1^2")
    assert k.num == {mono(x1=-2): Q}
    assert k.den == ()
    assert parse_kernel("x1/x1") == parse_kernel("1")


def test_parse_exponential_factors():
    k = parse_kernel("1/(e^z - 1)^2/(e^z - q)^2")
    assert k.num == {(): ONE}
    assert k.den == (
        (Factor("expconst", "z", "", ONE), 2),
        (Factor("expconst", "z", "", Q), 2),
    )


def test_exponents_past_the_bound_are_refused_at_once():
    """An exponent past MAX_EXPONENT is refused before any power is
    formed; the alarm turns a regression into a failure, not a hang."""
    import signal

    def timeout(signum, frame):
        raise TimeoutError("a large exponent was not refused")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(10)
    try:
        for text in ("x1^99999999", "x1^-99999999", "(x1+x2+q)^17",
                     "1/(e^z-q)^17", "1/(x1-x2)^-17"):
            with pytest.raises(KernelParseError, match=r"exponent -?\d+ is "
                               r"outside \[-16, 16\]") as exc:
                parse_kernel(text)
            # the position names the refused digits
            assert text[exc.value.pos:].isdigit(), exc.value.pos
        assert MAX_EXPONENT == 16
        assert parse_kernel("x1^16") == parse_kernel("*".join(["x1"] * 16))
        assert parse_kernel("(x1-q*x2)^-16").den[0][1] == 16
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_products_past_the_work_bound_are_refused():
    """Bounded exponents do not bound a parse: the square of a 1,820-term
    power had not finished after 60 s.  Past MAX_PARSE_WORK the parser
    refuses before multiplying, counting the coefficients' terms too."""
    import signal

    def timeout(signum, frame):
        raise TimeoutError("a large product was not refused")

    base = "(x+x1+x2+z+q+1)"
    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(20)
    try:
        # 1,820 by 1,820 terms; 17 by 17 terms whose coefficients have
        # up to 257 terms each
        for text in (f"{base}^12*{base}^12",
                     "(x1+(q+1)^16)^16*(x2+(q-1)^16)^16"):
            with pytest.raises(KernelParseError,
                               match="takes more than 131072 units"):
                parse_kernel(text)
        assert MAX_PARSE_WORK == 1 << 17
        # within the bound: 126 by 126 terms
        assert len(parse_kernel(f"{base}^5*{base}^5").num) == 1001
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


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


# one text per kind of parse error, with the position it is reported at:
# a refused divisor or denominator unit where it starts, a refused sum at
# its operator
_PARSE_ERRORS = [
    ("1/(x1#x2)", 5, "bad character '#'"),
    ("x1 x2", 3, "trailing input"),
    ("(x1-x2", 0, "unbalanced parenthesis"),
    ("e+1", 0, "'e' must be used as e\\^<variable>"),
    ("e^3", 0, "e\\^ expects a variable name"),
    ("x1 + y1", 5, "unknown symbol 'y1'"),
    ("x1*)", 3, "expected a value"),
    ("x1^q", 3, "exponent must be an integer"),
    ("x1^17", 3, "exponent 17 is outside"),
    ("1/(1/(x1-q))", 2, "nested quotients"),
    ("1/(x1-x1)", 2, "division by zero"),
    ("x1*(x1-x1)^-1", 3, "division by zero"),
    ("1/(x1-x2)+1", 9, "sums with quotient terms"),
    ("x1/(x1-x2)/(x1^2+x2^2)", 11, "not among the allowed shapes"),
    ("1/((x1-x2)^2*(x1^2+x2^2))", 13, "not among the allowed shapes"),
    ("-(x1^2+x2^2)^-1*x1", 1, "not among the allowed shapes"),
    ("1/(1-q*e^z/x)", 2, "not among the allowed shapes"),
]


def test_parse_error_caret_sits_under_its_position():
    """The message quotes the text two columns in and puts its caret at
    column 2 + pos, under the character at pos (past the end for an
    error at the end of the text)."""
    for text, pos, reason in _PARSE_ERRORS:
        with pytest.raises(KernelParseError, match=reason) as info:
            parse_kernel(text)
        err = info.value
        assert err.pos == pos, text
        head, quoted, caret = str(err).split("\n")
        assert head.startswith(f"cannot parse kernel at position {pos}: ")
        assert quoted == "  " + text
        assert caret == " " * (2 + pos) + "^", text
    # an error of the whole text has no position and no caret
    with pytest.raises(KernelParseError, match="nest more") as info:
        parse_kernel("(" * 101 + "x" + ")" * 101)
    assert info.value.pos is None and "\n" not in str(info.value)


# example texts with their kernels built by hand
_EXAMPLES = [
    ("(x1-q*x2)*(q*x1-x2)",
     {mono(x1=2): Q, mono(x1=1, x2=1): -(ONE + Q * Q), mono(x2=2): Q}, ()),
    ("1/(1-q*x1/x2)^2", {mono(x2=2): ONE / (Q * Q)},
     ((Factor("binom", "x1", "x2", ONE / Q), 2),)),
    ("q/x1^2", {mono(x1=-2): Q}, ()),
    ("1/(e^z - 1)^2/(e^z - q)^2", {(): ONE},
     ((Factor("expconst", "z", "", Q), 2),
      (Factor("expconst", "z", "", ONE), 2))),
    ("(x1 - x2)^2/(x1-q*x2)",
     {mono(x1=2): ONE, mono(x1=1, x2=1): frac(-2), mono(x2=2): ONE},
     ((Factor("binom", "x1", "x2", Q), 1),)),
    ("e^z^3/(e^z - q)", {(("e^z", 3),): ONE},
     ((Factor("expconst", "z", "", Q), 1),)),
    ("(2*x1 - 3*x2)/(x2 - 2)", {mono(x1=1): frac(2), mono(x2=1): frac(-3)},
     ((Factor("affine", "x2", "", frac(2)), 1),)),
    ("x2^2/(x1*x2^3)", {mono(x1=-1, x2=-1): ONE}, ()),
    ("1/(x2-x1)", {(): frac(-1)}, ((Factor("binom", "x1", "x2", ONE), 1),)),
    ("1/(2*x2-4*x1)/(3-x)",
     {(): frac(1, 4)}, ((Factor("binom", "x1", "x2", frac(1, 2)), 1),
                        (Factor("affine", "x", "", frac(3)), 1))),
]


def test_parse_examples_match_hand_built_kernels():
    for text, num, den in _EXAMPLES:
        assert parse_kernel(text) == RationalKernel(num, den), text


# constants as the parser reads them, with their values
_CONSTS = [("1", ONE), ("2", frac(2)), ("q", Q), ("(1/q)", ONE / Q),
           ("q^2", Q * Q), ("(1/2)", frac(1, 2)), ("(1+q)", ONE + Q),
           ("(-q)", -Q)]


def test_parse_seeded_kernels_match_hand_built_kernels():
    """Random sums over random shaped factors and monomial denominators,
    each spelled as text and built by hand from the same choices.  A ratio
    1 - c*a/b is built as the binomial b - c*a over the monomial b."""
    rng = random.Random(20260823)
    for _ in range(60):
        drop = rng.randint(0, 2)
        terms, num = [], {}
        lift, scale = {"x1": -drop, "x2": 0}, ONE
        for _t in range(rng.randint(1, 3)):
            (ct, c), a, b = rng.choice(_CONSTS), rng.randint(0, 2), \
                rng.randint(0, 2)
            terms.append(f"{ct}*x1^{a}*x2^{b}")
            s = num.get((a, b), Scalar.from_int(0)) + c
            if s:
                num[(a, b)] = s
            else:
                num.pop((a, b))
        text = "(" + " + ".join(terms) + ")" + (f"/x1^{drop}" if drop else "")
        den = []
        for _f in range(rng.randint(0, 2)):
            (ct, c), p = rng.choice(_CONSTS), rng.randint(1, 3)
            shape = rng.choice(["binom", "ratio", "affine"])
            if shape == "affine":
                a = rng.choice(["x1", "x2"])
                f, ft = Factor("affine", a, "", c), f"({a} - {ct})"
            elif shape == "binom":
                f, ft = Factor("binom", "x1", "x2", c), f"(x1 - {ct}*x2)"
            else:
                a, b = rng.choice([("x1", "x2"), ("x2", "x1")])
                ft = f"(1 - {ct}*{a}/{b})"
                # x1 - c*x2 over x1, or -c (x1 - x2/c) over x2
                f = Factor("binom", "x1", "x2", c if a == "x2" else ONE / c)
                lift[b] += p
                if a == "x1":
                    scale = scale / (-c) ** p
            den.append((f, p))
            text += f"/{ft}^{p}"
        want = {}
        for (i, j), c in num.items():
            exps = {"x1": i + lift["x1"], "x2": j + lift["x2"]}
            want[mono(**{v: e for v, e in exps.items() if e})] = c * scale
        assert parse_kernel(text) == RationalKernel(want, tuple(den)), text


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


@pytest.mark.parametrize("shape", ["affine", "binom", "expconst"])
def test_inverse_factor_table_matches_per_k_powers(shape):
    """The running power of each factor table against c**k per term, and
    the closed form of one e^z factor (``_exp_factors_table``) against
    powering e^z - c and inverting the series."""
    low = [(p, hi) for p in (1, 2, 3) for hi in range(-1, 13)]
    if shape == "expconst":
        # the table of e^z factors does not depend on the expansion
        # variable, and its builder takes none.  1 - c has a residual
        # factor at 2q and 1/(q - 2), where the series route takes
        # seconds a power past 3
        a, b, vars_ = "z", "", ("x1", "z")
        high = [(p, hi) for p in range(4, MAX_EXPONENT + 1, 3)
                for hi in (-1, 0, 4)]
        runs = [(c, "z", low) for c in (ONE, Q, frac(-1, 2), frac(3),
                                         frac(-1), frac(2) * Q,
                                         ONE / (Q - frac(2)))]
        runs += [(c, "z", high)
                 for c in (ONE, Q, frac(-1, 2), frac(3), frac(-1))]
    else:
        a, b = "x1", ("x2" if shape == "binom" else "")
        vars_ = ("x1", "x2")
        runs = [(c, inner, low)
                for c in (Q, frac(-1, 3), ONE / (Q - frac(2)),
                          frac(2) * Q**-2)
                for inner in vars_]
    for c, inner, cases in runs:
        f = Factor(shape, a, b, c)
        for p, hi in cases:
            if shape == "expconst":
                got = _exp_factors_table(ExpInverse(((c, p),), 1), vars_,
                                         a, hi)
            else:
                own = inner if shape == "binom" else a
                got = _inv_factor_table(f, p, vars_, own, hi)
            want = inv_factor_table_oracle(f, p, vars_, inner, hi)
            case = (c, inner, p, hi)
            assert got.coeffs == want.coeffs, case
            assert cert_fields(got.cert) == cert_fields(want.cert), case
            assert got.vars == want.vars, case


# each c with its spelling in the kernel text 1/(1 - c*a/b)^p
_RATIO_CONSTS = [(Q, "q"), (frac(-1, 3), "(-1/3)"),
                 (ONE / (Q - frac(2)), "(1/(q-2))"),
                 (frac(2) * Q**-2, "2*q^-2")]


def test_ratio_expansion_matches_the_ratio_oracle_seeded():
    """1/(1 - c*a/b)^p through parse_kernel and iota_expand, a binomial
    over a monomial, against the oracle's own series for the ratio: both
    orientations, p = 1..3, both inner variables, windows of seeded
    radius 0..5."""
    rng = random.Random(20261103)
    nonzero = 0
    for c, ct in _RATIO_CONSTS:
        for a, b in (("x1", "x2"), ("x2", "x1")):
            for p in (1, 2, 3):
                k = parse_kernel(f"1/(1-{ct}*{a}/{b})^{p}")
                for inner in ("x1", "x2"):
                    direction = ("x2", "x1") if inner == "x1" \
                        else ("x1", "x2")
                    radius = rng.randint(0, 5)
                    w = Window.cube(("x1", "x2"), radius)
                    want = inv_factor_table_oracle(
                        Ratio(a, b, c), p, w.vars, inner, radius)
                    got = iota_expand(k, direction, w)
                    case = (c, a, b, p, inner, radius)
                    assert want.certifies_window(w), case
                    assert got.coeffs == want.restrict(w).coeffs, case
                    nonzero += bool(got.coeffs)
    assert nonzero >= 40, nonzero


@pytest.mark.parametrize("text, direction", [
    ("(1+e^z)/(e^z-q)^4", ("z",)),
    ("(x+e^z)/((e^z-1)^2*(x-q))", ("x", "z")),
    ("e^z/(e^z-q)^2", ("z",)),
    ("1/(e^z-q^3)", ("z",)),
])
def test_one_closed_form_per_exp_variable(monkeypatch, text, direction):
    """The e^z factors and the e^z numerator terms of a kernel read one
    ``ExpInverse``, however the numerator splits into plain terms and
    terms with an exponential."""
    built = []
    init = ExpInverse.__init__

    def counting(self, factors, unit):
        built.append(tuple(factors))
        init(self, factors, unit)

    monkeypatch.setattr(ExpInverse, "__init__", counting)
    kernels._iota_expand.__wrapped__(parse_kernel(text), direction,
                                     Window.cube(direction, 3))
    assert len(built) == 1, built


def test_exp_factor_leaves_the_w_table_unbuilt(monkeypatch):
    """An e^z factor reads u(t) off ``scalar.ExpInverse``; the W_J table
    that product stacks read is never built."""
    def unbuilt(self):
        raise AssertionError("kernel expansion built the W_J table")

    monkeypatch.setattr(ExpInverse, "_grow", unbuilt)
    f = Factor("expconst", "z", "", frac(2) * Q)
    got = _exp_factors_table(ExpInverse(((f.c, 2),), 1), ("z",), "z", 5)
    assert got.coeffs == inv_factor_table_oracle(f, 2, ("z",), "z", 5).coeffs


def test_exp_factors_expand_to_the_product_of_their_expansions_seeded():
    """A kernel with two or three e^z factors reads one closed form for
    all of them; its expansion equals the product of the expansions of
    its one-factor kernels, each taken on a window wide enough for the
    product to be certified on the narrow one."""
    rng = random.Random(20261020)
    # a pole of order 4 at z = 0 beside factors of power 1, then draws
    cases = [(["1", "(-q)"], [4, 1], 3), (["1", "2", "q"], [4, 1, 1], 0)]
    for _ in range(12):
        cs = rng.sample(["1", "q", "q^2", "2", "(-q)"], rng.randint(2, 3))
        cases.append((cs, [rng.randint(1, 4) for _ in cs],
                       rng.randint(0, 8)))
    for cs, powers, radius in cases:
        units = [f"(e^z-{c})^{p}" for c, p in zip(cs, powers)]
        case = "1/(" + "*".join(units) + ")"
        w = Window.cube(("z",), radius)
        wide = Window.cube(("z",), radius + sum(powers))
        got = iota_expand(parse_kernel(case), ("z",), w)
        want = None
        for unit in units:
            t = iota_expand(parse_kernel(f"1/{unit}"), ("z",), wide)
            want = t if want is None else want * t
        want.require_certified(w)
        assert got.coeffs == want.restrict(w).coeffs, case
        assert got.coeffs, case


def _exp_numerator_kernel(rng: random.Random) -> str:
    """One to three terms c * e^(kz) * rest over zero to two e^z factors,
    some with a factor in x; k = 0 gives a plain term."""
    terms = [f"{rng.choice(['1', 'q', '(-2)', '3*q^2'])}*e^z^"
             f"{rng.randint(-2, 3)}*"
             f"{rng.choice(['1', 'x', 'z', 'x^-1'])}"
             for _ in range(rng.randint(1, 3))]
    units = [f"(e^z-{rng.choice(['1', 'q', 'q^2', '2', '(-q)'])})^"
             f"{rng.randint(1, 3)}" for _ in range(rng.randint(0, 2))]
    if rng.random() < 0.3:
        units.append(rng.choice(["(x-2)", "(x-q)^2"]))
    return "(" + "+".join(terms) + ")/(" + "*".join(units or ["1"]) + ")"


def test_exp_numerators_fold_into_the_closed_form_seeded():
    """The e^z numerator terms of one rest monomial read one column of
    the closed form of the e^z factors (of u = 1 without one).  In both
    directions at windows 0-5, the expansion equals the oracle that
    multiplies e^(kz) tables into the factor tables, wherever the oracle
    certifies the window."""
    rng = random.Random(20261022)
    texts = ["(1+e^z)/(e^z-q)^4", "(1+e^z)/(x-2)",
             "e^z/((e^z-q)^4*(e^z-q^2)^3*(e^z-1)^2)"]
    texts += [_exp_numerator_kernel(rng) for _ in range(30)]
    compared = grouped = 0
    for text in texts:
        k = parse_kernel(text)
        grouped += len(k.num) > len({tuple(a for a in m
                                           if not a[0].startswith("e^"))
                                     for m in k.num})
        for direction in (("x", "z"), ("z", "x")):
            for radius in range(6):
                w = Window.cube(direction, radius)
                want = exp_numerator_oracle(k, direction, w)
                if not want.certifies_window(w):
                    continue
                got = iota_expand(k, direction, w)
                case = (text, direction, radius)
                assert got.coeffs == want.restrict(w).coeffs, case
                compared += 1
    assert compared >= 300 and grouped >= 5, (compared, grouped)


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
    w = window_of(x1=(0, 3), x2=(0, 3))
    t = iota_expand(k, ("x1", "x2"), w)
    assert t.coeff((0, 0)) == frac(1, 6)
    assert t.coeff((1, 1)) == frac(1, 36)


def test_exponential_pole_series():
    t = iota_expand(exp_pole_kernel(ONE), ("z",), window_of(z=(-2, 4)))
    assert t.coeff((-2,)) == ONE
    assert t.coeff((-1,)) == Scalar.from_int(0)
    assert t.coeff((0,)) == frac(-1, 12)
    assert t.coeff((1,)) == Scalar.from_int(0)
    assert t.coeff((2,)) == frac(1, 240)
    assert t.coeff((3,)) == Scalar.from_int(0)


def test_exponential_double_pole_inverse_leading_terms():
    k = parse_kernel("1/(e^z - 1)^2/(e^z - q)^2")
    t = iota_expand(k, ("z",), window_of(z=(-2, 1)))
    one_minus_q = ONE - Q
    assert t.coeff((-2,)) == ONE / (one_minus_q * one_minus_q)
    expected = (Q - Scalar.from_int(3)) / (one_minus_q**3)
    assert t.coeff((-1,)) == expected


def test_exponential_numerator():
    k = parse_kernel("e^z/(e^z - q)")
    t = iota_expand(k, ("z",), window_of(z=(0, 3)))
    assert t.coeff((0,)) == ONE / (ONE - Q)
    t.require_certified(window_of(z=(0, 3)))


def test_coefficients_outside_window_are_guarded():
    k = parse_kernel("1/(1-q*x1/x2)")
    w = Window.cube(("x1", "x2"), 5)
    t = iota_expand(k, ("x2", "x1"), w)
    with pytest.raises(CertificationError):
        t.coeff((7, -7))


def test_window_below_support_is_certified_zero():
    k = parse_kernel("1/(1-q*x1/x2)")
    w = window_of(x1=(-5, -1), x2=(-5, 5))
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
