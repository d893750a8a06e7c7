"""Shared helpers for the test suite."""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, lcm
from typing import NamedTuple

from qheis.fock import FockError, FockModule, FockVector, apply_generator, \
    pair_vectors
from qheis.kernels import Factor, RationalKernel, _binom_row, _exp_desc, \
    _factor_desc, _place_cert, iota_expand
from qheis.liealg import (
    AlgebraSpec,
    LieAlgebraError,
    bracket_modes,
    get_algebra,
)
from qheis.report import FAIL, INCONCLUSIVE, MAX_REPORTED, PASS, CheckReport, \
    tally
from qheis import vertexops
from qheis.scalar import _PLAIN, L, ONE, SYMBOLIC, ZERO, ExpInverse, Poly, \
    Scalar, ScalarError, _make, _pstr
from qheis.scalar import _expand as scalar_expand
from qheis.series import NEG_INF, POS_INF, Cert, SeriesError, \
    TruncatedLaurent, Window, binom, delta_family
from qheis.vertexops import _DELTA_KILL, Multiplier, MultiplierError, \
    OperatorSeries, VertexError, _part_table, field_of, pair_of


def window_of(**ranges: tuple[int, int]) -> Window:
    """A window from keyword ranges: window_of(x1=(-2, 2), x2=(0, 1))."""
    return Window(tuple(ranges), tuple(r[0] for r in ranges.values()),
                  tuple(r[1] for r in ranges.values()))


def exp_pole_kernel(a: Scalar) -> RationalKernel:
    """a*e^z / (1 - a*e^z)^2, written as (1/a)*e^z / (e^z - 1/a)^2."""
    inv = ONE / a
    return RationalKernel({(("e^z", 1),): inv},
                          ((Factor("expconst", "z", "", inv), 2),))


@lru_cache(maxsize=None)
def g_series_oracle(a: Scalar, order: int) -> TruncatedLaurent:
    """g(a, z) = a e^z / (1 - a e^z)^2 through z^order, by the kernel expander.

    Independent of the library's Eulerian closed form: the expander reads
    1 / (e^z - 1/a)^2 off the closed form of ``scalar.ExpInverse``.
    """
    return iota_expand(exp_pole_kernel(a), ("z",),
                       window_of(z=(-2, max(order, -2))))


def f_series_oracle(n: int, order: int) -> TruncatedLaurent:
    """F_n(z) = g(q^(n+1), z) - g(q^(n-1), z) through z^order, by series."""
    return (g_series_oracle(Scalar.q_power(n + 1), order)
            - g_series_oracle(Scalar.q_power(n - 1), order))


# ---------------------------------------------------------------------------
# one-variable series utilities: the series route to 1 / (e^z - c)^p
# ---------------------------------------------------------------------------


def from_fraction(scalars, f) -> Scalar:
    """The rational f as a value of the scalar field."""
    f = Fraction(f)
    return scalars.from_int(f.numerator) / scalars.from_int(f.denominator)


@lru_cache(maxsize=None)
def exp_coeff(k: int, j: int, scalars) -> Scalar:
    """k**j / j!, the z^j coefficient of e^(kz), in the scalar field;
    0**0 counts as 1.  The oracle of every closed form that expands
    e^(kz) (``scalar.ExpInverse.column``)."""
    return from_fraction(scalars, Fraction(k ** j, factorial(j)))


def series_inverse(s: TruncatedLaurent, order: int) -> TruncatedLaurent:
    """Multiplicative inverse of a one-variable Laurent series.

    The input must be certified from its leading exponent n0 through
    n0 + order; the result is exact on [-n0, -n0 + order].
    """
    if len(s.vars) != 1:
        raise SeriesError("series_inverse expects a one-variable series")
    if not s.coeffs:
        raise ZeroDivisionError("cannot invert the zero series")
    n0 = min(e[0] for e in s.coeffs)
    c = s.cert
    if not c.entire:
        if c.suplo[0] == NEG_INF or c.floors[0] != NEG_INF:
            raise SeriesError("inverse requires certified leading support")
        if c.caps[0] != POS_INF and c.caps[0] < n0 + order:
            raise SeriesError(
                f"inverse to order {order} needs input certified through "
                f"exponent {n0 + order}, have {c.caps[0]}")
    inv_lead = s.coeffs[(n0,)] ** -1
    b: dict[int, Scalar] = {0: inv_lead}
    for m in range(1, order + 1):
        acc = None
        for i in range(1, m + 1):
            si = s.coeffs.get((n0 + i,))
            if si and (m - i) in b:
                term = si * b[m - i]
                acc = term if acc is None else acc + term
        if acc:
            b[m] = -inv_lead * acc
    coeffs = {(-n0 + m,): v for m, v in b.items() if v}
    cert = Cert(False, (-n0,), (NEG_INF,), (-n0 + order,))
    return TruncatedLaurent(s.vars, coeffs, cert, s.direction, _trusted=True)


def _exp_minus_const(zvar: str, c: Scalar, order: int) -> TruncatedLaurent:
    """The one-variable series of e^z - c, certified through z^order."""
    coeffs = {}
    for j in range(order + 1):
        v = exp_coeff(1, j, SYMBOLIC)
        if j == 0:
            v = v - c
        if v:
            coeffs[(j,)] = v
    lead = 0 if (ONE - c) else 1
    cert = Cert(False, (lead,), (NEG_INF,), (order,))
    return TruncatedLaurent((zvar,), coeffs, cert, None, _trusted=True)


class Ratio(NamedTuple):
    """The ratio binomial 1 - c*a/b.  The parser reads it as the binomial
    b - c*a over the monomial b; the oracle expands it as it stands."""

    a: str
    b: str
    c: Scalar
    shape: str = "ratio"


def inv_factor_table_oracle(f: Factor | Ratio, p: int,
                            vars: tuple[str, ...], inner: str,
                            hi: int) -> TruncatedLaurent:
    """kernels._inv_factor_table with every power c**k or c**-k computed
    afresh for each k, the per-k form the running power replaced, e^z
    factors by powering e^z - c and inverting the series, and a Ratio by
    its own two series."""

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
        cert = _place_cert(vars, f.a, 0, hi)
        return TruncatedLaurent(vars, coeffs, cert, None, _trusted=True)

    if f.shape == "expconst":
        # from the leading term z^-kappa through z^hi, and at least it
        kappa = p if f.c == 1 else 0
        order = max(hi + kappa, 0)
        base = _exp_minus_const(f.a, f.c, order + 2 * p)
        pw = base
        for _ in range(p - 1):
            pw = pw * base
        inv = series_inverse(pw, order)
        coeffs = {place({f.a: e[0]}): c for e, c in inv.coeffs.items()}
        cert = _place_cert(vars, f.a, inv.cert.suplo[0], inv.cert.caps[0])
        return TruncatedLaurent(vars, coeffs, cert, None, _trusted=True)

    # two-variable binomial shapes, parametrized by the series variable
    if f.shape == "binom":
        xi, xj, c = f.a, f.b, f.c
        if inner == xi:
            # (xi - c*xj)^-p = (-c)^-p xj^-p sum C(k+p-1,p-1) c^-k xi^k xj^-k
            pref = (-c) ** -p
            gen = (lambda k: (pref * _binom_row(k, p) * c**-k,
                              place({xi: k, xj: -p - k})))
            smin = 0
        else:
            # (xi - c*xj)^-p = xi^-p sum C(k+p-1,p-1) c^k xj^k xi^-k
            gen = (lambda k: (_binom_row(k, p) * c**k,
                              place({xj: k, xi: -p - k})))
            smin = 0
    else:  # ratio
        xi, xj, c = f.a, f.b, f.c
        if inner == xi:
            # (1 - c*xi/xj)^-p = sum C(k+p-1,p-1) c^k xi^k xj^-k
            gen = (lambda k: (_binom_row(k, p) * c**k,
                              place({xi: k, xj: -k})))
            smin = 0
        else:
            # = (-c)^-p (xj/xi)^p sum C(k+p-1,p-1) c^-k xj^k xi^-k
            pref = (-c) ** -p
            gen = (lambda k: (pref * _binom_row(k, p) * c**-k,
                              place({xj: p + k, xi: -p - k})))
            smin = p
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
    cert = _place_cert(vars, inner, smin, hi, support=(f.a, f.b))
    return TruncatedLaurent(vars, coeffs, cert, None, _trusted=True)


def exp_numerator_oracle(kern: RationalKernel, direction,
                         window) -> TruncatedLaurent:
    """kernels.iota_expand, for a kernel free of binomial factors, by the
    route that reads no numerator off a closed form.

    Each numerator term c * rest * e^(kv) is the exp_coeff table of
    e^(kv) through its budget, shifted by c * rest; these and the plain
    terms are summed into one numerator table, which the tables of the
    denominator factors (the closed-form ``series`` for the e^v factors)
    multiply as TruncatedLaurent products.  The product comes back
    unrestricted, so a caller sees whether it certifies the window.
    """
    vars = window.vars
    hi = dict(zip(vars, window.hi))
    exps: dict[str, list] = {}
    facs = []
    for f, p in kern.den:
        if f.shape == "expconst":
            exps.setdefault(f.a, []).append((f.c, p))
        else:
            facs.append(_factor_desc(vars, direction[-1], f, p))
    facs += [_exp_desc(vars, v, ExpInverse(fs, 1)) for v, fs in exps.items()]

    def fac_min(v):
        return sum(d.least.get(v, 0) for d in facs)

    rests = [{a: e for a, e in m if not a.startswith("e^")}
             for m in kern.num]

    def least(v):
        return min(rest.get(v, 0) for rest in rests)

    table = TruncatedLaurent.zero(vars)
    for (m, c), rest in zip(kern.num.items(), rests):
        expat = [(a[2:], e) for a, e in m if a.startswith("e^")]
        if not expat:
            table = table + TruncatedLaurent.polynomial(
                vars, {tuple(rest.get(v, 0) for v in vars): c})
            continue
        (zv, k), = expat
        order = max(hi[zv] - least(zv) - fac_min(zv), 0)
        coeffs = {tuple(j if v == zv else 0 for v in vars):
                  exp_coeff(k, j, SYMBOLIC) for j in range(order + 1)}
        power = TruncatedLaurent(vars, coeffs,
                                 _place_cert(vars, zv, 0, order), None,
                                 _trusted=True)
        table = table + power.shift(rest).scale(c)
    for d in facs:
        v = d.own
        table = table * d.build(hi[v] - least(v) - fac_min(v)
                                + d.least.get(v, 0))
    return table


def _directed_binom_power(j: int, window) -> TruncatedLaurent:
    """iota_{x2,x1} (x1 - x2)^j on a two-variable window."""
    if j >= 0:
        coeffs = {
            (k, j - k): Scalar.from_int((-1) ** (j - k) * comb(j, k))
            for k in range(j + 1)
        }
        return TruncatedLaurent.polynomial(window.vars, coeffs)
    pole = RationalKernel({(): ONE},
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
        for k in range(max(lo2, -hi1), min(hi2, -lo1) + 1):
            coeffs[(-k, k)] = c ** k
    elif kind == "euler":
        for k in range(max(lo2, -hi1), min(hi2, -lo1) + 1):
            coeffs[(-k, k)] = Scalar.from_int(k) * c ** k
    elif kind == "dshift":
        for k in range(max(lo2 + 1, -hi1 - 1), min(hi2 + 1, -lo1 - 1) + 1):
            coeffs[(-k - 1, k - 1)] = Scalar.from_int(k) * c ** (k - 1)
    elif kind == "bplain":
        for k in range(max(lo2, -hi1 - 1), min(hi2, -lo1 - 1) + 1):
            coeffs[(-k - 1, k)] = c ** k
    elif kind == "iratio":
        for k in range(max(1, lo1, -hi2), min(hi1, -lo2) + 1):
            coeffs[(k, -k)] = c ** k * Scalar.from_int(k)
    elif kind == "iratio_op":
        for k in range(max(1, lo2, -hi1), min(hi2, -lo1) + 1):
            coeffs[(-k, k)] = c ** k * Scalar.from_int(k)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    coeffs = {e: v for e, v in coeffs.items() if v}
    cert = Cert.box(window.lo, window.hi)
    return TruncatedLaurent(window.vars, coeffs, cert, None, _trusted=True)


def assert_same_table(got: TruncatedLaurent, want: TruncatedLaurent,
                      window) -> None:
    """Equal certificates, directions and coefficients over the window."""
    assert cert_fields(got.cert) == cert_fields(want.cert)
    assert got.direction == want.direction
    assert got.certifies_window(window) and want.certifies_window(window)
    for e in window.exponents():
        assert got.coeff(e, ZERO) == want.coeff(e, ZERO), e


def cert_fields(cert: Cert) -> tuple:
    """A certificate's fields, to compare two certificates by."""
    return cert.entire, cert.suplo, cert.floors, cert.caps


def certified(table: TruncatedLaurent, e: tuple[int, ...]) -> bool:
    """Whether the table certifies its coefficient at e."""
    return table.certifies_window(Window(table.vars, e, e))


# ---------------------------------------------------------------------------
# dressed fields, built directly
#
# The library meets a dressing theta^j b / j! (theta = x d/dx) only in
# ``StateTable.dressings``, on an undressed product stack.  These helpers
# build the dressed field itself and kill its commutator directly, or
# apply D^j / j! to the stack in closed form, as the oracles of that route.


class DressedField(OperatorSeries):
    """theta^j base / j!: coefficient e of the base field times e^j / j!."""

    __slots__ = ("base", "j", "module")

    def __init__(self, base: OperatorSeries, j: int):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "module", base.module)

    def apply_coeff(self, e: int, v: FockVector) -> FockVector:
        w = exp_coeff(e, self.j, self.module.scalars)
        if not w:
            return self.module.zero()
        return self.base.apply_coeff(e, v).scale(w)

    def low_exponent(self, v: FockVector) -> int:
        return self.base.low_exponent(v)


def dressed_direct(stack, j: int, zlo: int, zhi: int) -> dict:
    """The stack of (a, theta^j b / j!) from the stack S of (a, b), as
    {(E, t): vector} on z orders zlo..zhi, by the closed form of
    D^j / j! with D = theta_x - d/dz: entry (E, t) is the sum over
    i = 0..j of C(j, i) E^(j-i) (-1)^i (t+1)(t+2)...(t+i) S(E, t+i) / j!.
    S must reach z order zhi + j."""
    scalars = stack.module.scalars
    out = {}
    for (E, J) in sorted(stack.data):
        vec = stack.get(E, J)
        for i in range(max(0, J - zhi), min(j, J - zlo) + 1):
            t = J - i
            c = comb(j, i) * E ** (j - i) * (-1) ** i
            for f in range(t + 1, J + 1):
                c *= f
            if c:
                _add_vector(out, (E, t),
                            vec.scale(from_fraction(
                                scalars, Fraction(c, factorial(j)))))
    return out


def undressed(f) -> tuple[OperatorSeries, int]:
    """(base, j) of a DressedField; (f, 0) for any other field."""
    if isinstance(f, DressedField):
        return f.base, f.j
    return f, 0


def raised(mult, j: int):
    """The multiplier with every factor's multiplicity raised by j."""
    return Multiplier.of(*((c, m + j) for c, m in mult.factors),
                         unit=mult.unit)


def dressed_kills(mult, pair, degree: int) -> bool:
    """Whether mult kills the delta parts of an undressed pair whose sides
    are dressed to a total degree ``degree``.

    A dressing multiplies a delta part at c by a polynomial of that degree
    along its support line, so the factor at c must occur _DELTA_KILL +
    degree times.  Parts with a zero coefficient need none.
    """
    have = dict(mult.factors)
    return all(have.get(p.c, 0) >= _DELTA_KILL[p.kind] + degree
               for p in pair.delta_parts() if p.coeff)


def _dress_table(table: TruncatedLaurent, w, jl: int, jr: int,
                 scalars) -> TruncatedLaurent:
    """Entry (e1, e2) times e1^jl / jl! * e2^jr / jr!."""
    if not (jl or jr):
        return table
    coeffs = {e: v * exp_coeff(e[0], jl, scalars)
              * exp_coeff(e[1], jr, scalars)
              for e, v in table.coeffs.items()}
    return TruncatedLaurent.polynomial(w.vars, coeffs).restrict(w)


def probe_kills(mult, pair, jl: int = 0, jr: int = 0) -> bool:
    """Whether mult kills every delta part of the pair, its sides dressed
    to degrees jl and jr, by multiplying tables.

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
        d = _DELTA_KILL[part.kind] - 1 + jl + jr
        w = Window.cube(("x1", "x2"), 2 * deg + d + 3)
        prod = ptab * _dress_table(_part_table(part, w, pair.scalars), w,
                                   jl, jr, pair.scalars)
        inner = Window.cube(("x1", "x2"), deg + d + 3)
        assert prod.certifies_window(inner)
        if not prod.is_zero_on(inner):
            return False
    return True


def two_point_oracle(bra, fields, ket, window) -> TruncatedLaurent:
    """fock.two_point with one full mode word per exponent tuple.

    Independent of the library's shared-prefix walk and of the fields'
    own action: every exponent tuple of the window applies the generator
    letters (-e - offset, shift) of the whole word to the ket, rightmost
    field first, and pairs the result with the bra.  On the unshifted
    algebras the index scales the argument instead, so the paired value
    is multiplied by q^(shift * e) for each field.
    """
    module = bra.module
    shifted = module.spec.shifted
    coeffs = {}
    for e in window.exponents():
        v = ket
        for ei, f in zip(reversed(e), reversed(fields)):
            if v.is_zero():
                break
            v = apply_generator(
                (-ei - f.offset, f.shift if shifted else 0), v)
        val = pair_vectors(bra, v)
        if val and not shifted:
            for ei, f in zip(e, fields):
                val = val * module.scalars.q_power(f.shift * ei)
        if val:
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
        if not (whole or (certified(got, e) and certified(want, e))):
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
            f = {j: from_fraction(scalars, Fraction(1, factorial(j + 1)))
                 for j in range(order + 1)}
        else:
            f = {j: from_fraction(scalars, Fraction(1, factorial(j)))
                 for j in range(order + 1)}
            f[0] = f[0] - c
        for _ in range(m):
            out = out * _z_series(f, order)
    return [out.coeff((j,), scalars.zero) for j in range(order + 1)]


def inverse_exp_oracle(mult, zmax, scalars):
    """The z coefficients of x^degree / p(x e^z, x) through z^zmax, from
    z^-kappa, by inverting the reduced series product."""
    k = mult.kappa
    order = zmax + k
    t = exp_product_oracle(mult, order, scalars, reduced=True)
    inv = series_inverse(_z_series(dict(enumerate(t)), order), order)
    return {j - k: inv.coeff((j,), scalars.zero) for j in range(order + 1)}


def norlund_rows_oracle(jmax: int, nmax: int) -> list[list[Fraction]]:
    """[z^n] (z / (e^z - 1))^j for j = 1..jmax (row j at index j - 1) and
    n = 0..nmax, by convolving the Bernoulli row j - 1 times: row j at n
    sums B_i / i! times row j - 1 at n - i."""
    base: list[Fraction] = []
    for m in range(nmax + 1):
        # B_m / m!: sum_(i <= m) B_i / (i! (m + 1 - i)!) = 0 for m >= 1
        base.append(Fraction(1) if not m else -sum(
            base[m - i] / factorial(i + 1) for i in range(1, m + 1)))
    rows = [base]
    for _ in range(jmax - 1):
        prev = rows[-1]
        rows.append([sum(base[i] * prev[m - i] for i in range(m + 1))
                     for m in range(nmax + 1)])
    return rows


def _residual_lcm(a, b):
    """The lcm of two residuals, coefficient tuples in q (None for 1), by
    Euclid over Q[q]."""
    if a is None or b is None:
        return b if a is None else a
    pa, pb = qtuple_as_poly(a), qtuple_as_poly(b)
    g = _q_list(gcd_oracle(pa, pb))
    quot, rem = _q_divmod(_q_list(pb), g)
    assert not any(rem)
    cof = {(i, 0): int(c) for i, c in enumerate(quot) if c}
    return _qtuple_of((_make(pa, _PLAIN) * _make(cof, _PLAIN)).num)


def shifted_inverse_oracle(mult, zneed, scalars):
    """(D_T, (W_0, .., W_(T+kappa))) for T = -kappa..zneed on the former
    route: D_T is the least common denominator of u(T - J) / J! for the
    series of :func:`inverse_exp_oracle`, read off their canonical
    factored denominators (an integer at a point), and
    W_J = D_T u(T - J) / J!, as coefficient tuples in q (an integer at a
    point)."""
    u = inverse_exp_oracle(mult, zneed, scalars)
    out = []
    for T in range(-mult.kappa, zneed + 1):
        vals = [u[T - j] * from_fraction(scalars,
                                         Fraction(1, factorial(j)))
                for j in range(T + mult.kappa + 1)]
        if scalars is not SYMBOLIC:
            den = lcm(*(v.denominator for v in vals))
            out.append((den, tuple(int(v * den) for v in vals)))
            continue
        c, a, cyc, r = 1, 0, {}, None
        for v in vals:
            vc, va, vcyc, vr = v._fd
            c, a, r = lcm(c, vc), max(a, va), _residual_lcm(r, vr)
            for d, e in vcyc:
                cyc[d] = max(cyc.get(d, 0), e)
        den = (c, a, tuple(sorted(cyc.items())), r)
        dpoly = _make(scalar_expand(den), _PLAIN)
        ws = []
        for v in vals:
            w = v * dpoly
            assert w.den == {(0, 0): 1}
            ws.append(_qtuple_of(w.num))
        out.append((den, tuple(ws)))
    return out


def _qtuple_of(p: Poly) -> tuple:
    """A polynomial free of l as its coefficients in q, lowest first."""
    assert not any(el for _eq, el in p), p
    if not p:
        return ()
    return tuple(p.get((eq, 0), 0) for eq in range(1 + max(p)[0]))


def qtuple_as_poly(w) -> Poly:
    """A symbolic table numerator (coefficients in q, lowest first) as a
    polynomial."""
    return {(eq, 0): x for eq, x in enumerate(w) if x}


def closed_form_inverse(mult, zmax, scalars=SYMBOLIC):
    """The library's z coefficients u(T) = W_0 / D_T of x^degree /
    p(x e^z, x), for T = -kappa..zmax, as values of the field."""
    table = vertexops._shifted_inverse(mult, scalars)._upto(zmax)
    out = {}
    for T, (den, w) in zip(range(-mult.kappa, zmax + 1), table):
        if scalars is SYMBOLIC:
            out[T] = fraction_of(qtuple_as_poly(w[0]), scalar_expand(den))
        else:
            out[T] = Fraction(w[0], den)
    return out


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
    """vertexops.ordered_core with one FockVector per table entry; either
    factor may be a DressedField."""
    (a0, ja), (b0, jb) = undressed(afield), undressed(bfield)
    if not dressed_kills(mult, pair_of(a0, b0), ja + jb):
        raise MultiplierError(
            f"multiplier {mult.describe()} does not kill the delta parts "
            "of the commutator")
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
    u = inverse_exp_oracle(mult, zcap, afield.module.scalars)
    return _times_z_oracle(core, u, -deg, -kappa, zneed)


# ---------------------------------------------------------------------------
# paper constructs the laws do not reach: the constant field, the
# derivative field, the residue product and the skew kernels


class IdentityField(OperatorSeries):
    """The constant field: coefficient 0 is the identity, all others zero."""

    __slots__ = ("module",)

    def __init__(self, module: FockModule):
        object.__setattr__(self, "module", module)

    def apply_coeff(self, e: int, v: FockVector) -> FockVector:
        return v if e == 0 else self.module.zero()

    def low_exponent(self, v: FockVector) -> int:
        return 0


class DerivativeField(OperatorSeries):
    """d/dx of a field: coefficient e becomes (e+1) times coefficient e+1."""

    __slots__ = ("base", "module")

    def __init__(self, base: OperatorSeries):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "module", base.module)

    def apply_coeff(self, e: int, v: FockVector) -> FockVector:
        return self.base.apply_coeff(e + 1, v).scale(
            self.module.scalars.from_int(e + 1))

    def low_exponent(self, v: FockVector) -> int:
        return self.base.low_exponent(v) - 1


class ResidueProduct(OperatorSeries):
    """The residue n-th product a(x)_n b(x), by the classical two-sided
    residue formula."""

    __slots__ = ("left", "right", "n", "module")

    def __init__(self, left: OperatorSeries, right: OperatorSeries, n: int):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "module", left.module)

    def apply_coeff(self, E: int, v: FockVector) -> FockVector:
        a, b, n = self.left, self.right, self.n
        out = self.module.zero()
        from_int = self.module.scalars.from_int
        # (x1 - x)^n a(x1) b(x) v, x1 residue
        for j in range(0, E - b.low_exponent(v) + 1):
            c = from_int((-1) ** j * binom(n, j))
            if not c:
                continue
            bv = b.apply_coeff(E - j, v)
            if bv.is_zero():
                continue
            out = out + a.apply_coeff(j - n - 1, bv).scale(c)
        # minus (-x + x1)^n b(x) a(x1) v
        for j in range(0, -1 - a.low_exponent(v) + 1):
            c = from_int((-1) ** ((n - j) % 2) * binom(n, j))
            if not c:
                continue
            av = a.apply_coeff(-1 - j, v)
            if av.is_zero():
                continue
            out = out - b.apply_coeff(E - n + j, av).scale(c)
        return out


def eproduct_n(a, b, n: int) -> ResidueProduct:
    """The residue n-th product a(x)_n b(x)."""
    return ResidueProduct(a, b, n)


def translate(v: FockVector) -> FockVector:
    """The canonical derivation: sends each generator mode m to m-1,
    weighted by -m, and kills the vacuum."""
    module = v.module
    out = module.zero()
    for mono, coeff in v.terms.items():
        for idx, (m, r) in enumerate(mono):
            new = list(mono)
            new[idx] = (m - 1, r)
            out = out + FockVector(
                module, {tuple(sorted(new)): coeff * -m})
    return out


@dataclass(frozen=True)
class SKernel:
    """The scalar correction g_{r,s}(x) in the skew relation between
    a(x) applied to b's vector and the translated, reflected converse."""

    r: int
    s: int
    order: int
    coeffs: tuple[tuple[int, Scalar], ...]
    scalars: object = SYMBOLIC

    def g(self, e: int) -> Scalar:
        for ee, c in self.coeffs:
            if ee == e:
                return c
        return self.scalars.zero

    def reflected(self, e: int) -> Scalar:
        """Coefficient e of g(-x)."""
        return self.g(e) * (-1) ** (e % 2)


def extract_s_kernel(module: FockModule, r: int, s: int,
                     order: int) -> SKernel:
    """Match a(x) b against e^{xT} (b at -x) a and return the residue.

    The difference of the two sides must be a pure vacuum multiple at
    every order; anything else means the module action does not close
    under the skew relation and raises VertexError.
    """
    if not module.spec.shifted:
        raise VertexError("skew kernels are extracted on shifted algebras")
    fr = field_of(module, r)
    fs = field_of(module, s)
    vr = module.basis_vector((-1, r))
    vs = module.basis_vector((-1, s))
    lo = min(fr.low_exponent(vs), fs.low_exponent(vr))
    k = module.scalars
    rprime = {e: fs.apply_coeff(e, vr).scale(k.from_int((-1) ** (e % 2)))
              for e in range(lo, order + 1)}
    coeffs = []
    for e in range(lo, order + 1):
        left = fr.apply_coeff(e, vs)
        rhs = module.zero()
        for t in range(0, e - lo + 1):
            term = rprime[e - t]
            for _ in range(t):
                term = translate(term)
            rhs = rhs + term.scale(exp_coeff(1, t, k))
        diff = left - rhs
        rest = diff - module.vacuum().scale(diff.vacuum_component())
        if not rest.is_zero():
            raise VertexError(
                f"skew residue at exponent {e} is not a vacuum multiple: "
                f"{rest}")
        gneg = diff.vacuum_component()
        g = gneg * (-1) ** (e % 2)
        if g:
            coeffs.append((e, g))
    return SKernel(r, s, order, tuple(coeffs), k)


# ---------------------------------------------------------------------------
# evaluation of symbolic scalars at a rational point


class EvaluationError(ScalarError):
    """Raised when a substitution makes a denominator vanish."""


def _peval(a: Poly, q0: Fraction, l0: Fraction) -> Fraction:
    out = Fraction(0)
    for (eq, el), c in a.items():
        out += c * q0**eq * l0**el
    return out


def fraction_of(num: Poly, den: Poly) -> Scalar:
    """The reduced scalar num / den of two polynomials."""
    return _make(num, _PLAIN) / _make(den, _PLAIN)


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


# ---------------------------------------------------------------------------
# a gcd oracle for the canonical form: textbook Euclid over Q[q]


def _l_rows(p: Poly) -> dict[int, Poly]:
    """The coefficient of each power of l in p, a polynomial in q."""
    rows: dict[int, Poly] = {}
    for (eq, el), c in p.items():
        rows.setdefault(el, {})[(eq, 0)] = c
    return rows


def _q_list(p: Poly) -> list[Fraction]:
    """A nonzero polynomial in q alone as Fractions, lowest degree first."""
    out = [Fraction(0)] * (1 + max(eq for eq, _el in p))
    for (eq, el), c in p.items():
        assert el == 0, "not a polynomial in q alone"
        out[eq] = Fraction(c)
    return out


def _q_divmod(a: list[Fraction], b: list[Fraction]):
    """Quotient and remainder of a by a nonzero b in Q[q], lists
    trimmed of leading zeros."""
    a, quot = list(a), [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        t = a[-1] / b[-1]
        shift = len(a) - len(b)
        quot[shift] = t
        for i, c in enumerate(b):
            a[shift + i] -= t * c
        a.pop()
        while a and a[-1] == 0:
            a.pop()
    return quot, a


def gcd_oracle(num: Poly, den: Poly) -> Poly:
    """gcd in Z[q, l] of num and a nonzero den in Z[q], with a positive
    leading coefficient.

    A common factor divides den, so it is free of l: Euclid over Q[q]
    folds den with each l-row of num, and Gauss's lemma gives the gcd in
    Z[q, l] as the primitive part of that gcd times the gcd of the two
    integer contents."""
    g = _q_list(den)
    for row in _l_rows(num).values():
        a, b = g, _q_list(row)
        while b:
            a, b = b, _q_divmod(a, b)[1]
        g = a
    scale = lcm(*(c.denominator for c in g))
    ints = [int(c * scale) for c in g]
    k = gcd(*ints) * (1 if ints[-1] > 0 else -1)
    content = gcd(*num.values(), *den.values())
    return {(i, 0): c // k * content for i, c in enumerate(ints) if c}


def reduced_oracle(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """num/den, den nonzero in Z[q], divided by :func:`gcd_oracle` by
    division in Q[q] per l-row, denominator lead > 0."""
    g = _q_list(gcd_oracle(num, den))

    def divide(p: Poly) -> Poly:
        out = {}
        for el, row in _l_rows(p).items():
            quot, rem = _q_divmod(_q_list(row), g)
            assert not rem and all(c.denominator == 1 for c in quot)
            out.update({(eq, el): int(c) for eq, c in enumerate(quot) if c})
        return out

    num, den = divide(num), divide(den)
    if den[max(den)] < 0:
        num = {m: -c for m, c in num.items()}
        den = {m: -c for m, c in den.items()}
    return num, den


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
