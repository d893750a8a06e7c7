"""Shared helpers for the test suite."""

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from qheis.fock import FockError, apply_generator, pair_vectors
from qheis.kernels import Factor, RationalKernel, _binom_row, \
    _exp_minus_const, _place_cert, iota_expand
from qheis.liealg import (
    AlgebraSpec,
    GeneratorSymbol,
    LieAlgebraError,
    bracket_modes,
    get_algebra,
)
from qheis.report import FAIL, INCONCLUSIVE, MAX_REPORTED, PASS, CheckReport, \
    tally
from qheis.scalar import L, ONE, ZERO, Poly, Scalar, ScalarError, _pstr
from qheis.series import POS_INF, Cert, TruncatedLaurent, Window, \
    delta_family, exp_coeff, series_inverse
from qheis.vertexops import _DELTA_KILL, _part_table, check_multiplier, \
    pair_of


def exp_pole_kernel(a: Scalar) -> RationalKernel:
    """a*e^z / (1 - a*e^z)^2, written as (1/a)*e^z / (e^z - 1/a)^2."""
    inv = ONE / a
    return RationalKernel({(("e^z", 1),): inv}, (),
                          ((Factor("expconst", "z", "", inv), 2),))


@lru_cache(maxsize=None)
def g_series_oracle(a: Scalar, order: int) -> TruncatedLaurent:
    """g(a, z) = a e^z / (1 - a e^z)^2 through z^order, by the kernel expander.

    Independent of the library's Eulerian closed form: the expander powers
    e^z - 1/a and inverts the series.
    """
    return iota_expand(exp_pole_kernel(a), ("z",),
                       Window.of(z=(-2, max(order, -2))))


def f_series_oracle(n: int, order: int) -> TruncatedLaurent:
    """F_n(z) = g(q^(n+1), z) - g(q^(n-1), z) through z^order, by series."""
    return (g_series_oracle(Scalar.q_power(n + 1), order)
            - g_series_oracle(Scalar.q_power(n - 1), order))


def inv_factor_table_oracle(f: Factor, p: int, vars: tuple[str, ...],
                            inner: str, hi: int) -> TruncatedLaurent:
    """kernels._inv_factor_table with every power c**k or c**-k computed
    afresh for each k, the per-k form the running power replaced."""

    def place(assign: dict[str, int]) -> tuple[int, ...]:
        return tuple(assign.get(v, 0) for v in vars)

    if f.shape == "affine":
        # (x - c)^-p = (-c)^-p sum_k C(k+p-1,p-1) c^-k x^k
        base = (-f.c) ** -p
        coeffs = {}
        for k in range(0, hi + 1):
            v = base * _binom_row(k, p) * f.c**-k
            if v:
                coeffs[place({f.a: k})] = v
        cert = _place_cert(vars, f.a, 0, hi, (0, POS_INF))
        return TruncatedLaurent(vars, coeffs, cert, None, _trusted=True)

    if f.shape == "expconst":
        base = _exp_minus_const(f.a, f.c, max(hi, 0) + 2 * p)
        pw = base
        for _ in range(p - 1):
            pw = pw * base
        inv = series_inverse(pw, max(hi, 0) + p)
        coeffs = {place({f.a: e[0]}): c for e, c in inv.coeffs.items()}
        lo = inv.cert.suplo[0]
        cert = _place_cert(vars, f.a, lo, inv.cert.caps[0], (lo, POS_INF))
        return TruncatedLaurent(vars, coeffs, cert, None, _trusted=True)

    # two-variable binomial shapes, parametrized by the series variable
    if f.shape == "binom":
        xi, xj, c = f.a, f.b, f.c
        if inner == xi:
            # (xi - c*xj)^-p = (-c)^-p xj^-p sum C(k+p-1,p-1) c^-k xi^k xj^-k
            pref = (-c) ** -p
            gen = (lambda k: (pref * _binom_row(k, p) * c**-k,
                              place({xi: k, xj: -p - k})))
            smin, band = 0, -p
        else:
            # (xi - c*xj)^-p = xi^-p sum C(k+p-1,p-1) c^k xj^k xi^-k
            gen = (lambda k: (_binom_row(k, p) * c**k,
                              place({xj: k, xi: -p - k})))
            smin, band = 0, -p
    else:  # ratio
        xi, xj, c = f.a, f.b, f.c
        if inner == xi:
            # (1 - c*xi/xj)^-p = sum C(k+p-1,p-1) c^k xi^k xj^-k
            gen = (lambda k: (_binom_row(k, p) * c**k,
                              place({xi: k, xj: -k})))
            smin, band = 0, 0
        else:
            # = (-c)^-p (xj/xi)^p sum C(k+p-1,p-1) c^-k xj^k xi^-k
            pref = (-c) ** -p
            gen = (lambda k: (pref * _binom_row(k, p) * c**-k,
                              place({xj: p + k, xi: -p - k})))
            smin, band = p, 0
    coeffs = {}
    ii = vars.index(inner)
    k = 0
    while True:
        v, e = gen(k)
        if e[ii] > hi:
            break
        if v:
            coeffs[e] = v
        k += 1
    cert = _place_cert(vars, inner, smin, hi, (band, band),
                       support=(f.a, f.b))
    return TruncatedLaurent(vars, coeffs, cert, None, _trusted=True)


def _directed_binom_power(j: int, window) -> TruncatedLaurent:
    """iota_{x2,x1} (x1 - x2)^j on a two-variable window."""
    if j >= 0:
        coeffs = {
            (k, j - k): Scalar.from_int((-1) ** (j - k) * comb(j, k))
            for k in range(j + 1)
        }
        return TruncatedLaurent.polynomial(window.vars, coeffs)
    pole = RationalKernel({(): ONE}, (),
                          ((Factor("binom", "x1", "x2", ONE), -j),))
    return iota_expand(pole, ("x2", "x1"), window)


def diff_oracle_table(coeff, dshift: Scalar, window) -> TruncatedLaurent:
    """iota_{x2,x1} S(x1 - x2) + dshift (d/dx2) x1^-1 delta(x2/x1), by tables.

    Independent of the library's entrywise closed form: every z^j term of
    S contributes coeff(j) times the directed expansion of (x1 - x2)^j,
    built as a binomial polynomial or by the kernel expander, and the
    derivative delta comes from the delta-family constructor.
    """
    acc = delta_family("dshift", ONE, window).scale(dshift)
    for j in range(-2, window.hi[0] + window.hi[1] + 1):
        cj = coeff(j)
        if cj:
            acc = acc + _directed_binom_power(j, window).scale(cj)
    return acc.restrict(window)


def bhatq_oracle_table(shift_diff: int, window) -> TruncatedLaurent:
    """The bhatq bracket expansion for r - s = shift_diff, by tables."""
    dd = (shift_diff == 0) - (shift_diff == 1)
    fs = f_series_oracle(shift_diff, window.hi[0] + window.hi[1])
    return diff_oracle_table(lambda j: fs.coeff((j,), ZERO),
                             Scalar.from_int(dd), window)


def delta_family_oracle(kind: str, c: Scalar, window) -> TruncatedLaurent:
    """series.delta_family by one loop per kind, each entry a fresh power.

    Independent of the library's kind table and running product: every
    kind walks its own k range and computes c^k anew for each entry.
    """
    (lo1, lo2), (hi1, hi2) = window.lo, window.hi
    coeffs = {}
    if kind == "plain":
        band = 0
        for k in range(max(lo2, -hi1), min(hi2, -lo1) + 1):
            coeffs[(-k, k)] = c ** k
    elif kind == "euler":
        band = 0
        for k in range(max(lo2, -hi1), min(hi2, -lo1) + 1):
            coeffs[(-k, k)] = Scalar.from_int(k) * c ** k
    elif kind == "dshift":
        band = -2
        for k in range(max(lo2 + 1, -hi1 - 1), min(hi2 + 1, -lo1 - 1) + 1):
            coeffs[(-k - 1, k - 1)] = Scalar.from_int(k) * c ** (k - 1)
    elif kind == "bplain":
        band = -1
        for k in range(max(lo2, -hi1 - 1), min(hi2, -lo1 - 1) + 1):
            coeffs[(-k - 1, k)] = c ** k
    elif kind == "iratio":
        band = 0
        for k in range(max(1, lo1, -hi2), min(hi1, -lo2) + 1):
            coeffs[(k, -k)] = c ** k * Scalar.from_int(k)
    elif kind == "iratio_op":
        band = 0
        for k in range(max(1, lo2, -hi1), min(hi2, -lo1) + 1):
            coeffs[(-k, k)] = c ** k * Scalar.from_int(k)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    coeffs = {e: v for e, v in coeffs.items() if v}
    cert = Cert.box(window.lo, window.hi, band=(band, band))
    return TruncatedLaurent(window.vars, coeffs, cert, None, _trusted=True)


def assert_same_table(got: TruncatedLaurent, want: TruncatedLaurent,
                      window) -> None:
    """Equal certificates, directions and coefficients over the window."""
    assert got.cert == want.cert
    assert got.direction == want.direction
    for e in window.exponents():
        assert got.certified(e) and want.certified(e), e
        assert got.coeff(e, ZERO) == want.coeff(e, ZERO), e


def probe_kills(mult, pair) -> bool:
    """Whether mult kills every delta part of the pair, by multiplying tables.

    Each part is a geometric pattern times a polynomial of degree D along
    its support line, so the product with mult vanishes everywhere when it
    vanishes on D + 1 consecutive points of the antidiagonal it lives on.
    The outer cube (radius 2 deg + D + 3) leaves the product certified on
    an inner cube (radius deg + D + 3) that crosses that antidiagonal in
    more than D + 1 points.
    """
    deg = mult.degree
    ptab = mult.as_table()
    for part in pair.delta_parts():
        d = _DELTA_KILL[part.kind] - 1 + pair.dress_degree()
        w = Window.cube(("x1", "x2"), 2 * deg + d + 3)
        prod = ptab * pair.dress(_part_table(part, w, pair.scalars), w)
        inner = Window.cube(("x1", "x2"), deg + d + 3)
        assert all(prod.certified(e) for e in inner.exponents())
        if not prod.is_zero_on(inner):
            return False
    return True


def two_point_oracle(bra, slots, ket, window) -> TruncatedLaurent:
    """fock.two_point with one full mode word per exponent tuple.

    Independent of the library's shared-prefix walk: every exponent tuple
    of the window builds its own generators and applies the whole word to
    the ket, rightmost slot first, then pairs the result with the bra.
    """
    offset = bra.module.spec.offset
    alg = bra.module.algebra
    coeffs = {}
    for e in window.exponents():
        v = ket
        for ei, slot in zip(reversed(e), reversed(slots)):
            if v.is_zero():
                break
            v = apply_generator(
                GeneratorSymbol(alg, -ei - offset, slot.shift), v)
        val = pair_vectors(bra, v)
        if val:
            for ei, slot in zip(e, slots):
                if slot.scale != 1:
                    val = val * slot.scale ** ei
            coeffs[e] = val
    return TruncatedLaurent.polynomial(window.vars, coeffs).restrict(window)


def cmp_tables_oracle(name, got, want, w):
    """series.compare_on by one scan of the whole window in its order.

    Independent of the library's support scan: every entry of the window
    is certified and compared in turn, and the report is cut at the first
    mismatch past ``report.MAX_REPORTED``.
    """
    checked = 0
    unchecked = 0
    failures = []
    whole = got.certifies_window(w) and want.certifies_window(w)
    for e in w.exponents():
        if not (whole or (got.certified(e) and want.certified(e))):
            unchecked += 1
            continue
        checked += 1
        ca = got.coeffs.get(e, 0)
        cb = want.coeffs.get(e, 0)
        if ca != cb:
            if len(failures) < MAX_REPORTED:
                failures.append(f"at {dict(zip(w.vars, e))}: {ca} != {cb}")
            else:
                failures.append("...")
                break
    if failures:
        status = FAIL
    elif checked == 0 or unchecked:
        status = INCONCLUSIVE
    else:
        status = PASS
    return CheckReport(name, status, checked=checked,
                       region=w.describe(), failures=failures)


def _z_series(coeffs, order) -> TruncatedLaurent:
    """A z power series known through z^order and zero below z^0."""
    return TruncatedLaurent(("z",), {(j,): c for j, c in coeffs.items() if c},
                            Cert.box((0,), (order,), suplo=(0,)), None,
                            _trusted=True)


def exp_product_oracle(mult, order, scalars, reduced=False):
    """p(x e^z, x) / x^degree through z^order, by multiplying series.

    Independent of the library's e^z-polynomial: every factor x1 - c x2
    becomes the series e^z - c, multiplied in one at a time.  With
    ``reduced`` each factor at c = 1 is divided by z first, so the
    product is a unit of the power series.
    """
    out = _z_series({0: mult.unit * scalars.one}, order)
    for c, m in mult.factors:
        if reduced and c == 1:
            f = {j: scalars.from_fraction(Fraction(1, factorial(j + 1)))
                 for j in range(order + 1)}
        else:
            f = {j: scalars.from_fraction(Fraction(1, factorial(j)))
                 for j in range(order + 1)}
            f[0] = f[0] - c
        for _ in range(m):
            out = out * _z_series(f, order)
    return [out.coeff((j,), scalars.zero) for j in range(order + 1)]


def inverse_exp_oracle(mult, zmax, scalars):
    """Multiplier.inverse_exp by inverting the reduced series product."""
    k = mult.kappa
    order = zmax + k
    t = exp_product_oracle(mult, order, scalars, reduced=True)
    inv = series_inverse(_z_series(dict(enumerate(t)), order), order)
    return {j - k: inv.coeff((j,), scalars.zero) for j in range(order + 1)}


def _add_vector(table, key, vec):
    """table[key] += vec, keeping no zero vector."""
    if vec.is_zero():
        return
    cur = table.get(key)
    out = vec if cur is None else cur + vec
    if out.is_zero():
        table.pop(key, None)
    else:
        table[key] = out


def _times_z_oracle(table, series, xshift, zlo, zhi):
    out = {}
    for (E, J), vec in sorted(table.items()):
        for t, c in series.items():
            if c and zlo <= J + t <= zhi:
                _add_vector(out, (E + xshift, J + t), vec.scale(c))
    return out


def _ordered_core_oracle(afield, bfield, mult, v, xlo, xhi, zcap):
    """vertexops.ordered_core with one FockVector per table entry."""
    check_multiplier(mult, pair_of(afield, bfield))
    scalars = afield.module.scalars
    pmons = sorted(mult.poly2().items())
    min_i = min(i for (i, _j), _c in pmons)
    min_j = min(j for (_i, j), _c in pmons)
    low_a = afield.low_exponent(v)
    low_b = bfield.low_exponent(v)
    acc = {}

    def bump(key, vec):
        if vec.is_zero():
            return
        cur = acc.get(key)
        acc[key] = vec if cur is None else cur + vec

    for e2 in range(low_b, xhi - min_j + 1):
        bv = bfield.apply_coeff(e2, v)
        if bv.is_zero():
            continue
        for (i, j), c in pmons:
            for k in range(max(0, xlo - j - e2), xhi - j - e2 + 1):
                bump((k + j + e2, k), afield.apply_coeff(k - i, bv).scale(c))
    for k in range(0, -min_i - low_a):
        for (i, j), c in pmons:
            e1 = -k - 1 - i
            if e1 < low_a:
                continue
            av = afield.apply_coeff(e1, v)
            for E in range(xlo, xhi + 1):
                bump((E, -k - 1),
                     bfield.apply_coeff(E + k + 1 - j, av).scale(c))
    out = {}
    for (E, kbase), vec in acc.items():
        for J in range(zcap + 1):
            s = exp_coeff(kbase, J, scalars)
            if s:
                _add_vector(out, (E, J), vec.scale(s))
    return out


def product_stack_oracle(afield, bfield, mult, v, xlo, xhi, zneed):
    """vertexops._product_stack as {(E, t): vector}, by vector arithmetic.

    Independent of the library's flat coefficient tables: every table
    entry is a FockVector, every step scales and adds whole vectors, and
    no stack is memoized.
    """
    kappa = mult.kappa
    deg = mult.degree
    zcap = zneed + kappa
    core = _ordered_core_oracle(afield, bfield, mult, v,
                                xlo + deg, xhi + deg, zcap)
    u = mult.inverse_exp(zcap, afield.module.scalars)
    return _times_z_oracle(core, u, -deg, -kappa, zneed)


# ---------------------------------------------------------------------------
# evaluation of symbolic scalars at a rational point


class EvaluationError(ScalarError):
    """Raised when a substitution makes a denominator vanish."""


def _peval(a: Poly, q0: Fraction, l0: Fraction) -> Fraction:
    out = Fraction(0)
    for (eq, el), c in a.items():
        out += c * q0**eq * l0**el
    return out


def evaluate(s: Scalar, point) -> Fraction:
    """A symbolic scalar at a :class:`qheis.scalar.RationalPoint`, by
    substituting into its numerator and denominator."""
    den = _peval(s.den, point.q0, point.l0)
    if den == 0:
        raise EvaluationError(
            f"denominator ({_pstr(s.den)}) vanishes at "
            f"q={point.q0}, l={point.l0}"
        )
    return _peval(s.num, point.q0, point.l0) / den


def euler(t: TruncatedLaurent, var: str) -> TruncatedLaurent:
    """Apply var * d/dvar to a table (no support shift)."""
    i = t.vars.index(var)
    coeffs = {
        e: Scalar.from_int(e[i]) * c
        for e, c in t.coeffs.items() if e[i]
    }
    return TruncatedLaurent(t.vars, coeffs, t.cert, t.direction,
                            _trusted=True)


# ---------------------------------------------------------------------------
# structural checks of the bracket catalog


def matrix_rank(rows: list[list[Scalar]]) -> int:
    """Rank over the exact scalar field, by Gaussian elimination."""
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    rank = 0
    for col in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = ONE / rows[rank][col]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                f = rows[i][col] * inv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _shift_pairs(spec: AlgebraSpec, r_range):
    if not spec.shifted:
        return [0]
    if r_range is None:
        raise LieAlgebraError(f"{spec.name} needs a family-index range")
    return range(r_range[0], r_range[1] + 1)


def check_skew_symmetry(alg: str | AlgebraSpec, *, m_range,
                        r_range=None, bracket=None) -> CheckReport:
    """Verify [a, b] = -[b, a] for every mode pair in the given ranges.

    ``bracket`` may replace the catalog bracket (same signature as
    :func:`qheis.liealg.bracket_modes` without the algebra argument) so
    that deliberately broken variants register as failures.
    """
    spec = get_algebra(alg)
    fn = bracket or (lambda m, n, r, s: bracket_modes(spec, m, n, r, s))
    shifts = _shift_pairs(spec, r_range)
    modes = range(m_range[0], m_range[1] + 1)
    region = f"m, n in [{m_range[0]}, {m_range[1]}]"
    if spec.shifted:
        region += f"; r, s in [{r_range[0]}, {r_range[1]}]"
    return tally(f"{spec.name}-skew-symmetry", region, (
        (f"(r={r}, s={s}, m={m}, n={n}): [a,b] + [b,a]",
         fn(m, n, r, s) + fn(n, m, s, r), 0)
        for r in shifts for s in shifts for m in modes for n in modes))


def verify_shift_invariance(alg: str | AlgebraSpec, k: int, *, m_range,
                            r_range, bracket=None) -> CheckReport:
    """Verify the brackets are unchanged when both family indices move by k."""
    spec = get_algebra(alg)
    if not spec.shifted:
        raise LieAlgebraError(f"{spec.name} generators carry no family index")
    fn = bracket or (lambda m, n, r, s: bracket_modes(spec, m, n, r, s))
    shifts = range(r_range[0], r_range[1] + 1)
    modes = range(m_range[0], m_range[1] + 1)
    return tally(
        f"{spec.name}-shift-invariance",
        (f"k={k}; m, n in [{m_range[0]}, {m_range[1]}]; "
         f"r, s in [{r_range[0]}, {r_range[1]}]"),
        ((f"(r={r}, s={s}, m={m}, n={n}) shifted by {k}",
          fn(m, n, r + k, s + k), fn(m, n, r, s))
         for r in shifts for s in shifts for m in modes for n in modes))


# ---------------------------------------------------------------------------
# the polynomial realization of the graded algebra
#
# An independent model of the vacuum module: the graded algebra acts on
# C[x_n^(r) | n >= 1, r integer], mode 0 as zero, mode -n by multiplying
# with x_n^(r), and mode n as l n (d/dx_n^(r) - d/dx_n^(r-1)).
# ``reduce_to_vacuum`` implements the descent that drives any nonzero
# polynomial to a nonzero multiple of 1 by annihilators alone, which is the
# constructive heart of irreducibility at nonzero level.


def graded_leading_constant(r: int, s: int, m: int, n: int) -> Scalar:
    """The bhatq constant with filtration-raising contributions discarded.

    Under the filtration by minimal mode, the central element sits in
    degree zero, so a bracket [b^(r)_m, b^(s)_n] survives to the graded
    quotient in degree m + n only when m + n = 0.
    """
    if m + n:
        return ZERO
    return bracket_modes("bhatq", m, n, r, s)


# a polynomial monomial maps (n, r) -> exponent, stored sorted
PolyMonomial = tuple[tuple[tuple[int, int], int], ...]


class PolyState:
    """Sparse polynomial in the variables x_n^(r), n >= 1, r integer."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[PolyMonomial, Scalar]):
        self.terms = {m: c for m, c in terms.items() if c}

    @classmethod
    def one(cls) -> "PolyState":
        return cls({(): ONE})

    @classmethod
    def variable(cls, n: int, r: int) -> "PolyState":
        if n < 1:
            raise FockError("variable index n must be >= 1")
        return cls({(((n, r), 1),): ONE})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, PolyState) and self.terms == other.terms

    def __hash__(self):
        raise TypeError("PolyState is not hashable")

    def __add__(self, other: "PolyState") -> "PolyState":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, ZERO) + c
        return PolyState(out)

    def __sub__(self, other: "PolyState") -> "PolyState":
        return self + other.scale(-ONE)

    def scale(self, s: Scalar) -> "PolyState":
        return PolyState({m: c * s for m, c in self.terms.items()})

    def __mul__(self, other: "PolyState") -> "PolyState":
        out: dict[PolyMonomial, Scalar] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                exps = dict(ma)
                for v, k in mb:
                    exps[v] = exps.get(v, 0) + k
                key = tuple(sorted(exps.items()))
                out[key] = out.get(key, ZERO) + ca * cb
        return PolyState(out)

    def mul_variable(self, n: int, r: int) -> "PolyState":
        out = {}
        for m, c in self.terms.items():
            exps = dict(m)
            exps[(n, r)] = exps.get((n, r), 0) + 1
            out[tuple(sorted(exps.items()))] = c
        return PolyState(out)

    def derivative(self, n: int, r: int) -> "PolyState":
        out: dict[PolyMonomial, Scalar] = {}
        for m, c in self.terms.items():
            exps = dict(m)
            k = exps.get((n, r), 0)
            if not k:
                continue
            if k == 1:
                del exps[(n, r)]
            else:
                exps[(n, r)] = k - 1
            key = tuple(sorted(exps.items()))
            out[key] = out.get(key, ZERO) + c * Scalar.from_int(k)
        return PolyState(out)

    def degree(self) -> int:
        if not self.terms:
            raise FockError("the zero polynomial has no degree")
        return max(sum(k for _v, k in m) for m in self.terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms):
            c = self.terms[m]
            word = " ".join(
                f"x({n},{r})" + (f"^{k}" if k > 1 else "")
                for (n, r), k in m)
            parts.append(f"({c}) {word}" if word else f"({c})")
        return " + ".join(parts)

    __repr__ = __str__


def poly_apply(r: int, m: int, p: PolyState, level: Scalar = L) -> PolyState:
    """Action of the graded mode (r, m) on a polynomial state.

    Mode 0 acts as zero, mode -n (n >= 1) multiplies by x_n^(r), and mode
    n acts as level*n*(d/dx_n^(r) - d/dx_n^(r-1)).
    """
    if m == 0:
        return PolyState({})
    if m < 0:
        return p.mul_variable(-m, r)
    diff = p.derivative(m, r) - p.derivative(m, r - 1)
    return diff.scale(level * Scalar.from_int(m))


def reduce_to_vacuum(p: PolyState, level: Scalar = L) \
        -> tuple[list[tuple[int, int]], Scalar]:
    """Drive a nonzero polynomial to a scalar by annihilators alone.

    Returns the trace of (r, n) mode applications and the final scalar.
    Each step picks the least family index r present, so the
    d/dx^(r-1) branch vanishes and the degree strictly drops.
    """
    if p.is_zero():
        raise FockError("cannot reduce the zero state")
    if not level:
        raise FockError("level-zero: reduction unavailable")
    trace: list[tuple[int, int]] = []
    while p.degree() > 0:
        r_min = min(r for m in p.terms for (_n, r), _k in m)
        n = next(n for m in p.terms for (n, r), _k in m if r == r_min)
        p = poly_apply(r_min, n, p, level)
        trace.append((r_min, n))
    return trace, p.terms[()]


def realization_bracket_check(r: int, s: int, m: int, n: int,
                              samples, level: Scalar = L) -> CheckReport:
    """Compare commutators of the polynomial action with the graded constants."""
    expected = graded_leading_constant(r, s, m, n) * level
    return tally("realization-bracket", f"r={r}, s={s}, m={m}, n={n}", (
        (f"on {p}",
         poly_apply(r, m, poly_apply(s, n, p, level), level)
         - poly_apply(s, n, poly_apply(r, m, p, level), level),
         p.scale(expected)) for p in samples))
