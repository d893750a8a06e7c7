"""Products of mode fields in ordinary and exponential coordinates.

A field here is the generating series of a mode family acting on a vacuum
module, a(x) = sum_m a_m x^(-m-offset).  This module builds two bilinear
products on such fields:

* the residue products a(x)_n b(x), defined by the classical two-sided
  residue formula, and
* the substitution products a(x)_n^e b(x), defined through the change of
  coordinate x1 -> x e^z against a polynomial multiplier p(x1, x) that
  tames the pair's commutator.

Both products are represented extrinsically: a product is an operator
series whose coefficients are computed on demand, each one a finite sum
of compositions of the factor fields.  The finiteness rests on splitting
the auxiliary variable x1 by sign: nonnegative powers are summed with the
right factor applied first, negative powers with the left factor applied
first.  The two orders agree on negative powers because the multiplier
kills the delta parts of the pair's central commutator and its kernel
parts carry no negative power of x1.

The image brackets of the laws pair a field a with the vacuum products of
another, theta^j b / j! with theta = x d/dx.  Under x1 = x e^z, theta on
b at fixed x1 is D = theta_x - d/dz on the (x, z) table of a(x1) b(x),
and the substitution product does not depend on which multiplier kills
the delta parts.  So one undressed stack of (a, b) per state, built with
the pair's small canonical multiplier, gives every dressed stack through
D^j / j! (``StateTable.dressed``).  D^j reads j orders of z above what it
writes; the laws read z orders up to window with j up to window, so the
undressed stack reaches z order 2 * window.

The commutator data itself is carried by a small catalog of closed-form
shapes (delta families and one-sided ratio kernels), verified against the
module action by the identity checks at the bottom of the file.

Every scalar lies in the scalar field of the module the fields act on:
symbolic Q(q, l), or exact rationals at a :class:`RationalPoint`.  The
identity checks run one code path in either field.
"""

from __future__ import annotations

import inspect
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from math import factorial, prod

from .fock import (
    FieldSlot,
    FockModule,
    FockVector,
    apply_generator,
    pair_vectors,
    annihilation_bound,
    two_point,
)
from .liealg import (
    GeneratorSymbol,
    diff_expansion_table,
    f_coefficient,
    g_coefficient,
    standard_pairing,
)
from .report import FAIL, INCONCLUSIVE, PASS, CheckReport, combine, tally
from .scalar import SYMBOLIC, RationalPoint, Scalar
from .series import Cert, TruncatedLaurent, Window, binom, compare_on, \
    delta_family, exp_coeff, series_inverse

__all__ = [
    "VertexError",
    "UnsupportedPairError",
    "MultiplierError",
    "OperatorSeries",
    "GeneratorField",
    "IdentityField",
    "PolyDressedField",
    "DerivativeField",
    "ArgScaledField",
    "SumField",
    "field_of",
    "PairPart",
    "PairData",
    "pair_of",
    "Multiplier",
    "ProductExpression",
    "eproduct_n",
    "phi_product_n",
    "psi_map",
    "SpecialBracketForm",
    "SKernel",
    "translate",
    "extract_s_kernel",
    "LAWS",
    "verify_identity",
    "suite_reports",
]


class VertexError(ValueError):
    pass


class UnsupportedPairError(VertexError):
    """No commutator data is cataloged for the requested pair of fields."""


class LawParameterError(VertexError):
    """A law was given a parameter value it has no setup for."""


class MultiplierError(VertexError):
    """The multiplier does not tame the pair's commutator."""


_X12 = ("x1", "x2")


def _dressed_weight(weights: tuple[tuple[int, Scalar], ...], e: int
                    ) -> Scalar:
    """sum_t weights[t] * e^t for the (t, weight) pairs of a dressing,
    which must not be empty."""
    (t0, c0), *rest = weights
    out = c0 * e ** t0
    for t, c in rest:
        out = out + c * e ** t
    return out


# ---------------------------------------------------------------------------
# fields


def _derived():
    """A dataclass attribute that ``__post_init__`` works out from the
    inputs; it is no argument and takes no part in equality."""
    return field(init=False, repr=False, compare=False)


class OperatorSeries:
    """A formal series of operators on one vacuum module.

    Coefficient e is the operator attached to x^e; mode n is the
    coefficient of x^(-n-offset).  Subclasses are frozen dataclasses, so
    fields built from equal data are equal and hash alike, which is what
    the product-stack memo keys on.  They implement ``apply_coeff`` and a
    support bound ``low_exponent``: coefficients below it act as zero on
    the given vector.  ``module`` and ``offset`` are stored, not computed,
    because every coefficient reads them.
    """

    module: FockModule
    offset: int

    def _derive(self, **values) -> None:
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def apply_coeff(self, e: int, v: FockVector) -> FockVector:
        raise NotImplementedError

    def low_exponent(self, v: FockVector) -> int:
        raise NotImplementedError


def _state_key(v: FockVector):
    return (v.module, tuple(sorted(v.terms.items(), key=lambda kv: kv[0])))


@dataclass(frozen=True)
class GeneratorField(OperatorSeries):
    """The generating series of one mode family.

    For the shifted algebras the family index rides on the generators and
    the exponent convention is x^(-m-1).  For the unshifted ones the index
    scales the argument instead: coefficient e carries a factor q^(shift*e),
    which is the expansion of a(q^shift x) in powers of x.
    """

    module: FockModule
    shift: int = 0
    offset: int = _derived()

    def __post_init__(self):
        self._derive(offset=self.module.spec.offset)

    def apply_mode(self, n: int, v: FockVector) -> FockVector:
        if self.offset:  # 1 exactly on the shifted algebras
            return apply_generator(
                GeneratorSymbol(self.module.algebra, n, self.shift), v)
        out = apply_generator(GeneratorSymbol(self.module.algebra, n), v)
        if self.shift:
            out = out.scale(self.module.scalars.q_power(-self.shift * n))
        return out

    def apply_coeff(self, e: int, v: FockVector) -> FockVector:
        return self.apply_mode(-e - self.offset, v)

    def low_exponent(self, v: FockVector) -> int:
        return 1 - self.offset - annihilation_bound(v)


@dataclass(frozen=True)
class IdentityField(OperatorSeries):
    """The constant field: coefficient 0 is the identity, all others zero."""

    module: FockModule
    offset = 1

    def apply_coeff(self, e: int, v: FockVector) -> FockVector:
        return v if e == 0 else self.module.zero()

    def low_exponent(self, v: FockVector) -> int:
        return 0


@dataclass(frozen=True)
class PolyDressedField(OperatorSeries):
    """A field with every coefficient rescaled by a polynomial in e.

    ``weights`` maps powers t to scalars, and is stored as the sorted
    (t, weight) pairs of nonzero weight; coefficient e of the base field
    is multiplied by sum_t weights[t] * e^t.  Applying the base field at
    the substituted argument x e^z and reading off a z power produces
    exactly this shape, which is how vacuum products of a field arise.
    """

    base: OperatorSeries
    weights: tuple[tuple[int, Scalar], ...]
    module: FockModule = _derived()
    offset: int = _derived()

    def __post_init__(self):
        self._derive(module=self.base.module, offset=self.base.offset,
                     weights=tuple(sorted(
                         (t, c) for t, c in dict(self.weights).items() if c)))

    def weight_at(self, e: int) -> Scalar:
        if not self.weights:
            return self.module.scalars.zero
        return _dressed_weight(self.weights, e)

    def apply_coeff(self, e: int, v: FockVector) -> FockVector:
        w = self.weight_at(e)
        if not w:
            return self.module.zero()
        return self.base.apply_coeff(e, v).scale(w)

    def low_exponent(self, v: FockVector) -> int:
        return self.base.low_exponent(v)


@dataclass(frozen=True)
class DerivativeField(OperatorSeries):
    """d/dx of a field: coefficient e becomes (e+1) times coefficient e+1."""

    base: OperatorSeries
    module: FockModule = _derived()
    offset: int = _derived()

    def __post_init__(self):
        self._derive(module=self.base.module, offset=self.base.offset + 1)

    def apply_coeff(self, e: int, v: FockVector) -> FockVector:
        return self.base.apply_coeff(e + 1, v).scale(
            self.module.scalars.from_int(e + 1))

    def low_exponent(self, v: FockVector) -> int:
        return self.base.low_exponent(v) - 1


@dataclass(frozen=True)
class ArgScaledField(OperatorSeries):
    """A field evaluated at c*x: coefficient e picks up a factor c^e."""

    base: OperatorSeries
    c: Scalar
    module: FockModule = _derived()
    offset: int = _derived()

    def __post_init__(self):
        self._derive(module=self.base.module, offset=self.base.offset)

    def apply_coeff(self, e: int, v: FockVector) -> FockVector:
        return self.base.apply_coeff(e, v).scale(self.c ** e)

    def low_exponent(self, v: FockVector) -> int:
        return self.base.low_exponent(v)


@dataclass(frozen=True)
class SumField(OperatorSeries):
    """A finite linear combination of fields on one module; ``terms`` is
    stored as a tuple of its (coefficient, field) pairs with a nonzero
    coefficient."""

    module: FockModule
    terms: tuple[tuple[Scalar, OperatorSeries], ...]
    offset: int = _derived()

    def __post_init__(self):
        self._derive(offset=self.terms[0][1].offset if self.terms else 1,
                     terms=tuple((c, f) for c, f in self.terms if c))

    def apply_coeff(self, e: int, v: FockVector) -> FockVector:
        out = self.module.zero()
        for c, f in self.terms:
            out = out + f.apply_coeff(e, v).scale(c)
        return out

    def low_exponent(self, v: FockVector) -> int:
        return min((f.low_exponent(v) for _c, f in self.terms), default=0)


def field_of(module: FockModule, shift: int = 0) -> GeneratorField:
    """The generating field of the module's mode family at one index."""
    return GeneratorField(module, shift)


# ---------------------------------------------------------------------------
# commutator catalog
#
# [a(x1), b(x2)] for a cataloged pair is a central scalar distribution,
# decomposed into named parts.  Delta-supported parts are annihilated by a
# suitable binomial power; one-sided kernel parts have no negative x1 power.


@dataclass(frozen=True)
class PairPart:
    kind: str          # plain | euler | dshift | bplain | iratio | iratio_op | ftail
    coeff: Scalar
    c: Scalar          # the ratio of a delta or kernel part; 1 for ftail
    d: int = 0

    @property
    def is_delta(self) -> bool:
        return self.kind in ("plain", "euler", "dshift", "bplain")


# multiplicity of (x1 - c x2) that kills an undressed delta part (degree + 1)
_DELTA_KILL = {"plain": 1, "euler": 2, "dshift": 2, "bplain": 1}


def _part_table(part: PairPart, w: Window, scalars) -> TruncatedLaurent:
    """One part of a commutator on a two-variable window (x1, x2)."""
    if part.kind == "ftail":
        t = diff_expansion_table(lambda j: f_coefficient(part.d, j, scalars),
                                 scalars.zero, w, scalars)
    else:
        t = delta_family(part.kind, part.c, w)
    return t if part.coeff == 1 else t.scale(part.coeff)


@dataclass(frozen=True)
class PairData:
    """The central commutator of an ordered pair of cataloged fields.

    ``parts`` describe the undressed bracket; the weight polynomials (in
    the x1 and x2 exponents) account for dressed factors, which rescale
    the table entrywise; an empty weight marks an undressed side.  Every
    scalar lies in the field ``scalars``.
    """

    parts: tuple[PairPart, ...]
    left_weight: tuple[tuple[int, Scalar], ...] = ()
    right_weight: tuple[tuple[int, Scalar], ...] = ()
    scalars: object = SYMBOLIC

    def dress_degree(self) -> int:
        dl = max((t for t, _c in self.left_weight), default=0)
        dr = max((t for t, _c in self.right_weight), default=0)
        return dl + dr

    def dress(self, table: TruncatedLaurent, w: Window) -> TruncatedLaurent:
        """Rescale an undressed table on the window by both weights."""
        lw, rw = self.left_weight, self.right_weight
        if not (lw or rw):
            return table
        coeffs = {}
        for e, v in table.coeffs.items():
            if lw:
                v = _dressed_weight(lw, e[0]) * v
            if rw:
                v = _dressed_weight(rw, e[1]) * v
            coeffs[e] = v
        return TruncatedLaurent.polynomial(w.vars, coeffs).restrict(w)

    def table(self, w: Window) -> TruncatedLaurent:
        acc = TruncatedLaurent.zero(w.vars).restrict(w)
        for p in self.parts:
            acc = acc + _part_table(p, w, self.scalars)
        return self.dress(acc, w)

    def delta_parts(self) -> list[PairPart]:
        return [p for p in self.parts if p.is_delta]


def _base_pair(a: GeneratorField, b: GeneratorField) -> tuple[PairPart, ...]:
    mod = a.module
    if mod != b.module:
        raise UnsupportedPairError("fields act on different modules")
    alg = mod.algebra
    lvl = mod.level
    k = mod.scalars
    r, s = a.shift, b.shift
    if alg == "hq":
        inv = k.one / (k.q_power(1) - k.q_power(-1))
        return (PairPart("plain", lvl * inv, k.q_power(s - r + 1)),
                PairPart("plain", -(lvl * inv), k.q_power(s - r - 1)))
    if alg == "htq":
        return (PairPart("iratio", lvl, k.q_power(r - s + 1)),
                PairPart("iratio", -lvl, k.q_power(r - s - 1)),
                PairPart("euler", lvl, k.q_power(s - r)),
                PairPart("euler", -lvl, k.q_power(s - r + 1)))
    if alg == "bhat":
        pairing = standard_pairing(r, s, k)
        if not pairing:
            return ()
        return (PairPart("bplain", lvl * pairing, k.one),)
    if alg == "bhatq":
        dd = (1 if r == s else 0) - (1 if r == s + 1 else 0)
        parts = [PairPart("ftail", lvl, k.one, d=r - s)]
        if dd:
            parts.insert(0, PairPart("dshift", lvl * dd, k.one))
        return tuple(parts)
    raise UnsupportedPairError(f"no commutator catalog for algebra {alg!r}")


@lru_cache(maxsize=128)
def pair_of(a: OperatorSeries, b: OperatorSeries) -> PairData:
    """Commutator data for [a(x1), b(x2)], or UnsupportedPairError.

    The fields are frozen values, so equal pairs share one cached result.
    """
    lw: tuple = ()
    rw: tuple = ()
    if isinstance(a, PolyDressedField):
        lw, a = a.weights, a.base
        if not lw:
            return PairData(())
    if isinstance(b, PolyDressedField):
        rw, b = b.weights, b.base
        if not rw:
            return PairData(())
    if isinstance(a, IdentityField) or isinstance(b, IdentityField):
        return PairData(())
    if isinstance(a, GeneratorField) and isinstance(b, GeneratorField):
        return PairData(_base_pair(a, b), lw, rw, a.module.scalars)
    raise UnsupportedPairError(
        f"no commutator data for {type(a).__name__} x {type(b).__name__}")


# ---------------------------------------------------------------------------
# multipliers


@dataclass(frozen=True)
class Multiplier:
    """A homogeneous polynomial unit * prod_i (x1 - c_i x2)^(m_i).

    Homogeneity is what makes the substituted polynomial p(x e^z, x) a
    monomial in x times an invertible-up-to-z^kappa series in z, with
    kappa the multiplicity of the factor at c = 1.  The factors and the
    unit lie in one scalar field; the default unit is the integer 1.
    """

    factors: tuple[tuple[Scalar, int], ...]
    unit: Scalar = 1

    @classmethod
    def of(cls, *factors: tuple[Scalar, int], unit: Scalar = 1
           ) -> "Multiplier":
        merged: dict[Scalar, int] = {}
        for c, m in factors:
            if m < 0:
                raise MultiplierError("factor multiplicities must be >= 0")
            merged[c] = merged.get(c, 0) + m
        ordered = tuple(sorted(
            ((c, m) for c, m in merged.items() if m), key=lambda t: str(t[0])))
        if not unit:
            raise MultiplierError("the unit must be nonzero")
        # a unit equal to 1 is kept as the integer 1, so that equal
        # multipliers hash alike in every field
        return cls(ordered, 1 if unit == 1 else unit)

    @property
    def degree(self) -> int:
        return sum(m for _c, m in self.factors)

    @property
    def kappa(self) -> int:
        return sum(m for c, m in self.factors if c == 1)

    def poly2(self) -> dict[tuple[int, int], Scalar]:
        """Expanded monomials {(x1 exp, x2 exp): coefficient}.

        Equal multipliers share one cached result, which callers must not
        modify.
        """
        return _poly2(self)

    def as_table(self) -> TruncatedLaurent:
        return TruncatedLaurent.polynomial(_X12, self.poly2())

    @classmethod
    def canonical_for(cls, pair: PairData) -> "Multiplier":
        """The smallest multiplier that kills the delta parts.

        A part at c is c^k times a polynomial of degree D in k along its
        support line (D = _DELTA_KILL - 1 + the dressing degree); only a
        factor at c lowers D, so it must occur D + 1 times.  Parts with a
        zero coefficient (level 0) need none.
        """
        extra = pair.dress_degree()
        need: dict[Scalar, int] = {}
        for p in pair.delta_parts():
            if not p.coeff:
                continue
            m = _DELTA_KILL[p.kind] + extra
            need[p.c] = max(need.get(p.c, 0), m)
        return cls.of(*need.items())

    def exp_series(self, order: int, scalars=SYMBOLIC) -> list[Scalar]:
        """Coefficients of p(x e^z, x) / x^degree through z^order, in the
        scalar field of the factors."""
        return _exp_coeffs(self, 0, order, scalars)

    def inverse_exp(self, zmax: int, scalars=SYMBOLIC) -> dict[int, Scalar]:
        """Coefficients of x^degree / p(x e^z, x) for z powers up to zmax.

        The result starts at z^-kappa; the monomial x^-degree is left to
        the caller.  ``scalars`` is the field of the factors.  Equal
        multipliers share one cached result, which callers must not
        modify.
        """
        return _inverse_exp(self, zmax, scalars)

    def describe(self) -> str:
        parts = [] if self.unit == 1 else [f"({self.unit})"]
        for c, m in self.factors:
            f = f"(x1 - ({c}) x2)"
            parts.append(f + (f"^{m}" if m > 1 else ""))
        return "*".join(parts) or "1"


@lru_cache(maxsize=128)
def _poly2(mult: Multiplier) -> dict[tuple[int, int], Scalar]:
    acc = {(0, 0): mult.unit}
    for c, m in mult.factors:
        for _ in range(m):
            nxt: dict[tuple[int, int], Scalar] = {}
            for (i, j), v in acc.items():
                for e, t in (((i + 1, j), v), ((i, j + 1), -(v * c))):
                    prev = nxt.get(e)
                    nxt[e] = t if prev is None else prev + t
            acc = nxt
    return {e: v for e, v in acc.items() if v}


def _exp_coeffs(mult: Multiplier, lo: int, hi: int, scalars) -> list[Scalar]:
    """[z^n] p(x e^z, x) / x^degree for lo <= n <= hi.

    p(x e^z, x) / x^degree = sum_K p_K e^(K z) over the x1^K x2^(degree-K)
    coefficients p_K of p, so its z^n coefficient is sum_K p_K K^n / n!.
    """
    terms = [(i, c) for (i, _j), c in mult.poly2().items()]
    out = []
    for n in range(lo, hi + 1):
        acc = scalars.zero
        for i, c in terms:
            w = exp_coeff(i, n, scalars)
            if w:
                acc = acc + c * w
        out.append(acc)
    return out


@lru_cache(maxsize=128)
def _inverse_exp(mult: Multiplier, zmax: int, scalars) -> dict[int, Scalar]:
    # p(x e^z, x) / x^degree has the factor (e^z - 1)^kappa, so it starts
    # at z^kappa; dividing by z^kappa leaves a unit of the power series
    k = mult.kappa
    order = zmax + k
    coeffs = _exp_coeffs(mult, k, order + k, scalars)
    t = TruncatedLaurent(("z",), {(j,): c for j, c in enumerate(coeffs) if c},
                         Cert.box((0,), (order,), suplo=(0,)), None,
                         _trusted=True)
    inv = series_inverse(t, order)
    return {j - k: inv.coeff((j,), scalars.zero) for j in range(order + 1)}


def check_multiplier(mult: Multiplier, pair: PairData) -> None:
    """Raise MultiplierError unless mult kills every delta part of the pair,
    that is, unless ``Multiplier.canonical_for(pair)`` divides it.
    """
    have = dict(mult.factors)
    if any(have.get(c, 0) < m
           for c, m in Multiplier.canonical_for(pair).factors):
        raise MultiplierError(
            f"multiplier {mult.describe()} does not kill the delta parts "
            "of the commutator")


# ---------------------------------------------------------------------------
# state tables and the ordered-product engine


class StateTable:
    """Module vectors indexed by an x exponent and an auxiliary order.

    Entry (E, J) is one coefficient dict keyed by PBW monomial, with no
    zero coefficient and no empty entry.  A vector is built only where an
    entry leaves the table; it shares the entry's dict, which callers must
    not modify.
    """

    __slots__ = ("module", "data")

    def __init__(self, module: FockModule,
                 data: dict[tuple[int, int], dict]):
        """Finish accumulated coefficient dicts: drop their zeros and
        the entries left empty."""
        self.module = module
        self.data = _finished(data)

    def get(self, e: int, j: int) -> FockVector:
        terms = self.data.get((e, j))
        if terms is None:
            return self.module.zero()
        return FockVector._nonzero(self.module, terms)

    def times_z(self, series: dict[int, Scalar], xshift: int,
                zlo: int, zhi: int) -> "StateTable":
        """This table times sum_t series[t] z^t, every x exponent moved
        by xshift, on z orders zlo..zhi."""
        out: dict[tuple[int, int], dict] = {}
        for (E, J), terms in self.data.items():
            for t, c in series.items():
                if c and zlo <= J + t <= zhi:
                    _add_scaled(out, (E + xshift, J + t), terms, c)
        return StateTable(self.module, out)

    def dressed(self, j: int, zlo: int, zhi: int) -> "StateTable":
        """From this stack of (a, b), the stack of (a, theta^j b / j!) on z
        orders zlo..zhi, with theta = x d/dx.

        Under x1 = x e^z, theta on b is D = theta_x - d/dz on the stack,
        so entry (E, t) is the sum over i = 0..j of
        C(j, i) E^(j-i) (-1)^i (t+1)(t+2)...(t+i) S(E, t+i) / j!.
        This stack must reach z order zhi + j; for j = 0 it is returned
        itself, with its own z range.
        """
        if not j:
            return self
        from_fraction = self.module.scalars.from_fraction
        fact = factorial(j)
        out: dict[tuple[int, int], dict] = {}
        for (E, J), terms in self.data.items():
            for i in range(max(0, J - zhi), min(j, J - zlo) + 1):
                t = J - i
                c = binom(j, i) * E ** (j - i) * (-1) ** i * prod(
                    range(t + 1, J + 1))
                if c:
                    _add_scaled(out, (E, t), terms,
                                from_fraction(Fraction(c, fact)))
        return StateTable(self.module, out)


def _add_scaled(data: dict[tuple[int, int], dict], key: tuple[int, int],
                terms: dict, c: Scalar) -> None:
    """data[key] += c * terms in place, for a nonzero c.  Sums that cancel
    leave zeros, which ``_finished`` drops."""
    row = data.get(key)
    if row is None:
        data[key] = {m: x * c for m, x in terms.items()}
        return
    for m, x in terms.items():
        prev = row.get(m)
        row[m] = x * c if prev is None else prev + x * c


def _finished(data: dict[tuple[int, int], dict]
              ) -> dict[tuple[int, int], dict]:
    out = {}
    for key, row in data.items():
        row = {m: c for m, c in row.items() if c}
        if row:
            out[key] = row
    return out


def ordered_core(afield: OperatorSeries, bfield: OperatorSeries,
                 mult: Multiplier, v: FockVector,
                 xlo: int, xhi: int, zcap: int) -> StateTable:
    """Coefficients of (p(x1, x) a(x1) b(x) v) under x1 -> x e^z.

    Entry (E, J) is the x^E z^J coefficient.  Nonnegative x1 powers are
    summed in the written order (b first), negative ones in the reversed
    order (a first).  The orders differ by p times the commutator of the
    fields: mult must kill its delta parts, and its kernel parts have no
    negative x1 power, so the reversed order adds no correction.  Both
    halves terminate on the annihilation bounds of the factors, making
    every entry a finite sum.
    """
    check_multiplier(mult, pair_of(afield, bfield))
    module = afield.module
    scalars = module.scalars
    pmons = sorted(mult.poly2().items())
    min_i = min(i for (i, _j), _c in pmons)
    min_j = min(j for (_i, j), _c in pmons)
    low_a = afield.low_exponent(v)
    low_b = bfield.low_exponent(v)

    # substituted-exponent accumulator: (E, x1 exponent) -> coefficients
    acc: dict[tuple[int, int], dict] = {}

    # x1^k with k >= 0: p_ij * a_(k-i) (b_(e2) v) lands at E = k + j + e2
    amemo: dict[tuple[int, int], FockVector] = {}
    for e2 in range(low_b, xhi - min_j + 1):
        bv = bfield.apply_coeff(e2, v)
        if bv.is_zero():
            continue
        for (i, j), c in pmons:
            khi = xhi - j - e2
            klo = max(0, xlo - j - e2)
            for k in range(klo, khi + 1):
                u = amemo.get((k - i, e2))
                if u is None:
                    u = amemo[(k - i, e2)] = afield.apply_coeff(k - i, bv)
                if u.is_zero():
                    continue
                _add_scaled(acc, (k + j + e2, k), u.terms, c)

    # x1^(-k-1): p_ij * b_(e2) (a_(-k-1-i) v) at E = -k-1 + j + e2
    avmemo: dict[int, FockVector] = {}
    bmemo: dict[tuple[int, int], FockVector] = {}
    kop_hi = -1 - min_i - low_a
    for k in range(0, kop_hi + 1):
        for (i, j), c in pmons:
            e1 = -k - 1 - i
            if e1 < low_a:
                continue
            av = avmemo.get(e1)
            if av is None:
                av = avmemo[e1] = afield.apply_coeff(e1, v)
            if av.is_zero():
                continue
            for E in range(xlo, xhi + 1):
                e2 = E + k + 1 - j
                w2 = bmemo.get((e1, e2))
                if w2 is None:
                    w2 = bmemo[(e1, e2)] = bfield.apply_coeff(e2, av)
                if w2.is_zero():
                    continue
                _add_scaled(acc, (E, -k - 1), w2.terms, c)

    out: dict[tuple[int, int], dict] = {}
    for (E, kbase), terms in _finished(acc).items():
        for J in range(zcap + 1):
            s = exp_coeff(kbase, J, scalars)
            if s:
                _add_scaled(out, (E, J), terms, s)
    return StateTable(module, out)


# product stacks built inside the outermost running verify_identity or
# suite_reports call; laws of one suite share stacks, and the memo is
# emptied when that call returns
_STACK_CACHE: dict[tuple, StateTable] = {}
_stack_scope_depth = 0


@contextmanager
def _stack_scope():
    global _stack_scope_depth
    _stack_scope_depth += 1
    try:
        yield
    finally:
        _stack_scope_depth -= 1
        if not _stack_scope_depth:
            _STACK_CACHE.clear()


def _product_stack(afield: OperatorSeries, bfield: OperatorSeries,
                   mult: Multiplier, v: FockVector,
                   xlo: int, xhi: int, zneed: int) -> StateTable:
    """All substitution products at once, applied to one vector.

    Entry (E, t) is the x^E coefficient of z^t in
    iota(1/p(x e^z, x)) * (p a(x1) b(x) v)|_{x1 = x e^z};
    the product at index n sits at t = -n-1, so z exponents run from
    -kappa up to zneed.  Outside a law or suite call nothing is memoized;
    inside one the memo is keyed by the arguments, so fields built apart
    from equal data share a stack.
    """
    key = (afield, bfield, mult, _state_key(v), xlo, xhi, zneed)
    hit = _STACK_CACHE.get(key)
    if hit is not None:
        return hit
    kappa = mult.kappa
    deg = mult.degree
    zcap = zneed + kappa
    core = ordered_core(afield, bfield, mult, v, xlo + deg, xhi + deg, zcap)
    u = mult.inverse_exp(zcap, afield.module.scalars)
    out = core.times_z(u, -deg, -kappa, zneed)
    if _stack_scope_depth:
        _STACK_CACHE[key] = out
    return out


# ---------------------------------------------------------------------------
# product expressions


@dataclass(frozen=True)
class ProductExpression(OperatorSeries):
    """The n-th product of two fields, with on-demand coefficients.

    ``kind`` is "res" for the residue product and "exp" for the
    substitution product, which takes a multiplier.  Coefficients are
    computed on demand; the substitution product reads them off the
    cached product stack.
    """

    kind: str
    left: OperatorSeries
    right: OperatorSeries
    n: int
    mult: Multiplier | None = None
    module: FockModule = _derived()
    offset = 1

    def __post_init__(self):
        if self.left.module != self.right.module:
            raise VertexError("product factors act on different modules")
        self._derive(module=self.left.module)

    def low_exponent(self, v: FockVector) -> int:
        raise VertexError("products do not expose a support bound; "
                          "apply their coefficients directly")

    def apply_coeff(self, e: int, v: FockVector) -> FockVector:
        if self.kind == "exp":
            return self._exp_coeff(e, v)
        return self._res_coeff(e, v)

    def _exp_coeff(self, e: int, v: FockVector) -> FockVector:
        zneed = max(0, -self.n - 1)
        stack = _product_stack(self.left, self.right, self.mult, v, e, e,
                               zneed)
        return stack.get(e, -self.n - 1)

    def _res_coeff(self, E: int, v: FockVector) -> FockVector:
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


def eproduct_n(a: OperatorSeries, b: OperatorSeries, n: int
               ) -> ProductExpression:
    """The residue n-th product a(x)_n b(x)."""
    return ProductExpression("res", a, b, n)


def phi_product_n(a: OperatorSeries, b: OperatorSeries, n: int,
                  mult: Multiplier | None = None) -> ProductExpression:
    """The substitution n-th product along x1 -> x e^z.

    The multiplier defaults to the smallest catalog choice for the pair;
    any other homogeneous multiplier that kills the commutator's delta
    parts yields the same product.
    """
    pair = pair_of(a, b)
    if mult is None:
        mult = Multiplier.canonical_for(pair)
    check_multiplier(mult, pair)
    return ProductExpression("exp", a, b, n, mult)


def vacuum_product_field(base: OperatorSeries, n: int) -> OperatorSeries:
    """base(x)_n^e applied to the constant field, in closed form.

    Substituting x e^z into the base field and reading z^(-n-1) rescales
    coefficient e by e^j/j! with j = -n-1, so n = -1 gives the base field
    itself; for n >= 0 the product is zero.
    """
    if n >= 0:
        return SumField(base.module, [])
    if n == -1:
        return base
    j = -n - 1
    return PolyDressedField(base, {j: exp_coeff(1, j, base.module.scalars)})


# ---------------------------------------------------------------------------
# realization of vacuum-module vectors as fields


_PSI_TARGET = {"bhat": "hq", "bhatq": "htq"}


def psi_map(v: FockVector, target: FockModule | None = None) -> OperatorSeries:
    """Realize a shifted-algebra vacuum vector as a field on a mode module.

    The family index r goes to the generating field at argument scale q^r,
    and each module generator acts through the substitution product at its
    mode.  Words of length at least three would need commutator data for
    product fields, which the catalog does not carry.
    """
    alg = v.module.algebra
    if alg not in _PSI_TARGET:
        raise UnsupportedPairError(
            f"no field realization is cataloged for algebra {alg!r}")
    if target is None:
        target = FockModule(_PSI_TARGET[alg], level=v.module.level,
                            scalars=v.module.scalars)
    terms: list[tuple[Scalar, OperatorSeries]] = []
    for mono, coeff in sorted(v.terms.items()):
        if len(mono) > 2:
            raise UnsupportedPairError(
                "field realizations of words longer than two generators "
                "would need commutator data for product fields")
        if not mono:
            f: OperatorSeries = IdentityField(target)
        elif len(mono) == 1:
            (m, r), = mono
            f = vacuum_product_field(field_of(target, r), m)
        else:
            (m1, r1), (m2, r2) = mono
            inner = vacuum_product_field(field_of(target, r2), m2)
            f = phi_product_n(field_of(target, r1), inner, m1)
        terms.append((coeff, f))
    return SumField(target, terms)


# ---------------------------------------------------------------------------
# the special bracket shape and its substitution image


@dataclass(frozen=True)
class SpecialBracketForm:
    """A bracket made of ratio kernels plus euler deltas.

    ``ratio_parts`` holds (c, coeff) for coeff * cu/(1-cu)^2 with
    u = x1/x2, expanded in powers of u; ``euler_parts`` holds (c, coeff)
    for coeff * (x2 d/dx2) delta(c x2/x1).  Under the substitution
    products only the euler part at c = 1 survives, as a derivative
    delta; the kernels reappear evaluated at e^(x1-x2).  Every scalar
    lies in the field ``scalars``.
    """

    ratio_parts: tuple[tuple[Scalar, Scalar], ...]
    euler_parts: tuple[tuple[Scalar, Scalar], ...]
    scalars: object = SYMBOLIC

    @classmethod
    def from_pair(cls, pair: PairData) -> "SpecialBracketForm":
        if pair.left_weight or pair.right_weight:
            raise VertexError("the special shape covers undressed pairs")
        ratio = []
        euler = []
        for p in pair.parts:
            if p.kind == "iratio":
                ratio.append((p.c, p.coeff))
            elif p.kind == "euler":
                euler.append((p.c, p.coeff))
            else:
                raise VertexError(
                    f"part {p.kind} is outside the special bracket shape")
        return cls(tuple(ratio), tuple(euler), pair.scalars)

    def alpha(self) -> Scalar:
        return sum((coeff for c, coeff in self.euler_parts if c == 1),
                   self.scalars.zero)

    def image_table(self, w: Window) -> TruncatedLaurent:
        """The bracket of the substituted fields on a (x1, x2) window."""
        k = self.scalars
        return diff_expansion_table(
            lambda j: sum((coeff * g_coefficient(c, j, k)
                           for c, coeff in self.ratio_parts), k.zero),
            self.alpha(), w, k)


# ---------------------------------------------------------------------------
# skew kernels on a vacuum module


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
# comparison helpers


def _transpose2(t: TruncatedLaurent, w: Window) -> TruncatedLaurent:
    """Swap the two variables of a table certified on the swapped window."""
    coeffs = {(e2, e1): t.coeff((e1, e2))
              for (e1, e2) in t.support()}
    return TruncatedLaurent.polynomial(w.vars, coeffs).restrict(w)


def _swap_window(w: Window) -> Window:
    return Window((w.vars[1], w.vars[0]),
                  (w.lo[1], w.lo[0]), (w.hi[1], w.hi[0]))


def _slot_for(module: FockModule, shift: int) -> FieldSlot:
    if module.spec.shifted:
        return FieldSlot(shift=shift)
    return FieldSlot(scale=module.scalars.q_power(shift))


def _measured_commutator(bra: FockVector, ket: FockVector, r: int, s: int,
                         w: Window) -> TruncatedLaurent:
    """<bra| [a(x1), b(x2)] |ket> read off the two orders of the fields."""
    module = ket.module
    sa, sb = _slot_for(module, r), _slot_for(module, s)
    fwd = two_point(bra, (sa, sb), ket, w)
    rev = two_point(bra, (sb, sa), ket, _swap_window(w))
    return fwd - _transpose2(rev, w)


def _centrality_report(module: FockModule, r: int, s: int, w: Window,
                       table: TruncatedLaurent) -> CheckReport:
    """The commutator acts by the same scalar table between deeper states."""
    a = module.basis_vector((-1, r) if module.spec.shifted else (-1, 0))
    b = module.basis_vector((-2, s) if module.spec.shifted else (-2, 0))
    parts = []
    for i, (bra, ket) in enumerate(((a, a), (b, a))):
        got = _measured_commutator(bra, ket, r, s, w)
        want = table.scale(pair_vectors(bra, ket))
        parts.append(compare_on(f"centrality[{i}]", got, want, w))
    return combine("centrality", parts)


# ---------------------------------------------------------------------------
# identity checks


def _law_hq_commutator_delta(window: int, scalars, r: int = 1, s: int = 0
                             ) -> CheckReport:
    module = FockModule("hq", scalars=scalars)
    vac = module.vacuum()
    w = Window.cube(_X12, window)
    got = _measured_commutator(vac, vac, r, s, w)
    pair = pair_of(field_of(module, r), field_of(module, s))
    want = pair.table(w)
    parts = [
        compare_on("vacuum-table", got, want, w),
        _centrality_report(module, r, s, Window.cube(_X12, min(window, 5)),
                           want.restrict(Window.cube(_X12, min(window, 5)))),
    ]
    return combine(f"hq-commutator-delta[r={r},s={s}]", parts)


def _radius_zero(name: str) -> CheckReport:
    return CheckReport(name, INCONCLUSIVE, checked=0, region="cube radius 0",
                       notes=["the cube of radius 0 holds no coefficient "
                              "the bracket can make nonzero"])


def _law_bhat_commutator_delta(window: int, scalars, r: int = 1, s: int = 0
                               ) -> CheckReport:
    if window == 0:
        # the bracket lives on e1 + e2 = -1
        return _radius_zero("bhat-commutator-delta")
    module = FockModule("bhat", scalars=scalars)
    vac = module.vacuum()
    w = Window.cube(_X12, window)
    parts = []
    for rr, ss in ((r, s), (s, r), (r, r)):
        got = _measured_commutator(vac, vac, rr, ss, w)
        want = pair_of(field_of(module, rr),
                       field_of(module, ss)).table(w)
        parts.append(compare_on(f"pair[{rr},{ss}]", got, want, w))
    return combine("bhat-commutator-delta", parts)


def _law_htq_euler_form(window: int, scalars) -> CheckReport:
    module = FockModule("htq", scalars=scalars)
    vac = module.vacuum()
    w = Window.cube(_X12, window)
    got = _measured_commutator(vac, vac, 0, 0, w)
    lvl = module.level
    q = scalars.q_power(1)
    want = PairData((PairPart("euler", lvl, scalars.one),
                     PairPart("iratio", lvl, q),
                     PairPart("iratio_op", -lvl, q)),
                    scalars=scalars).table(w)
    parts = [compare_on("euler-form", got, want, w)]
    # the two one-sided expansions of the same ratio kernel must differ
    one_sided = delta_family("iratio", q, w)
    other = delta_family("iratio_op", q, w)
    one_sided.require_certified(w)
    other.require_certified(w)
    same = one_sided.coeffs == other.coeffs
    empty = same and one_sided.is_zero_on(w)
    parts.append(CheckReport(
        "direction-difference",
        INCONCLUSIVE if empty else FAIL if same else PASS,
        checked=w.size(), region=w.describe(),
        failures=["the two expansion directions coincide"]
        if same and not empty else [],
        notes=["both expansions vanish on the window"] if empty else []))
    return combine("htq-commutator-euler-form", parts)


def _law_htq_kernel_form(window: int, scalars) -> CheckReport:
    if window == 0:
        # the kernels start at |e| = 1, and mode 0 brackets to zero
        return _radius_zero("htq-commutator-kernel-form")
    module = FockModule("htq", scalars=scalars)
    vac = module.vacuum()
    w = Window.cube(_X12, window)
    got = _measured_commutator(vac, vac, 0, 0, w)
    pair = pair_of(field_of(module), field_of(module))
    want = pair.table(w)
    lvl = module.level
    parts = [compare_on("kernel-form", got, want, w), tally(
        "mode-constants", f"|m| <= {window}",
        ((f"mode {m}", got.coeff((-m, m), scalars.zero),
          (scalars.one - scalars.q_power(abs(m))) * lvl * m)
         for m in range(-window, window + 1)))]
    return combine("htq-commutator-kernel-form", parts)


# multipliers whose scalars are powers of q, by exponent: (u, ((k, m), ...))
# stands for q^u * prod (x1 - q^k x2)^m
_HQ_MULT = (1, ((1, 1), (-1, 1)))
_HQ_MULT_CONTROL = (0, ((1, 1),))
_HTQ_MULT = (0, ((0, 2), (1, 2)))
_HTQ_MULT_CONTROL = (0, ((0, 1), (1, 1)))


def _q_multiplier(spec, scalars) -> Multiplier:
    unit, factors = spec
    return Multiplier.of(*((scalars.q_power(k), m) for k, m in factors),
                         unit=scalars.q_power(unit))


def _quasi_locality_inner(name: str, alg: str, spec, window: int,
                          scalars) -> CheckReport:
    """p times (the two orderings' difference minus the one-sided kernel).

    This is the locality shape behind the substitution products: after
    the kernel parts of the commutator are moved to the right-hand side,
    what remains is delta supported and the multiplier must kill it.
    """
    mult = _q_multiplier(spec, scalars)
    if window < mult.degree:
        return CheckReport(name, INCONCLUSIVE, checked=0,
                           region=f"cube radius {window}",
                           notes=["window smaller than the multiplier"])
    module = FockModule(alg, scalars=scalars)
    vac = module.vacuum()
    w = Window.cube(_X12, window)
    table = _measured_commutator(vac, vac, 0, 0, w)
    pair = pair_of(field_of(module), field_of(module))
    for part in pair.parts:
        if not part.is_delta:
            table = table - _part_table(part, w, scalars)
    prod = mult.as_table() * table
    inner = Window.cube(_X12, window - mult.degree)
    zero = TruncatedLaurent.zero(_X12).restrict(inner)
    return compare_on(name, prod.restrict(inner), zero, inner)


def _law_quasi_locality(alg: str, spec):
    return partial(_quasi_locality_inner, f"{alg}-quasi-locality", alg, spec)


def _law_quasi_locality_control(alg: str, spec):
    def run(window: int, scalars) -> CheckReport:
        name = f"{alg}-quasi-locality-control"
        degree = _q_multiplier(spec, scalars).degree
        if 2 * (window - degree) < degree:
            return CheckReport(
                name, INCONCLUSIVE, region=f"cube radius {window}",
                notes=["the inner cube misses e1 + e2 = degree, where the "
                       "undersized multiplier leaves its remainder"])
        rep = _quasi_locality_inner(name, alg, spec, window, scalars)
        if rep.status == INCONCLUSIVE:
            return CheckReport(name, INCONCLUSIVE, checked=0,
                               region=rep.region, notes=rep.notes)
        if rep.status == FAIL:
            return CheckReport(
                name, PASS, checked=rep.checked, region=rep.region,
                notes=["the undersized multiplier leaves a remainder, "
                       "as it must"])
        return CheckReport(
            name, FAIL, checked=rep.checked, region=rep.region,
            failures=["the undersized multiplier unexpectedly kills the "
                      "commutator"])
    return run


def _image_bracket_entries(module: FockModule, r: int, s: int,
                           window: int, xwin: int, states
                           ) -> dict[tuple[int, int, int, int], FockVector]:
    """[(a_n^e), (b_m^e)] applied to the constant field, then to states.

    Returns vectors keyed by (n, m, state index, x exponent).  Both
    orders of products are taken against the closed-form vacuum products
    of the other factor, theta^j b / j! with j = -m-1 and theta = x d/dx.
    Each order builds one undressed stack per state, with the pair's
    canonical multiplier, and reads every dressing off it through
    ``StateTable.dressed``: theta on the right factor is
    D = theta_x - d/dz on the stack.  The law reads z orders up to window
    and j runs to window, so the undressed stack reaches 2 * window.
    """
    af = field_of(module, r)
    bf = field_of(module, s)
    zero = module.zero()
    out: dict[tuple[int, int, int, int], FockVector] = {}

    def stacks(left, right):
        # by j, then state: the stacks of (left, theta^j right / j!)
        mult = Multiplier.canonical_for(pair_of(left, right))
        bases = [_product_stack(left, right, mult, v, -xwin, xwin,
                                2 * window) for v in states]
        return [[base.dressed(j, -window, window) for base in bases]
                for j in range(window + 1)]

    ab = stacks(af, bf)
    ba = stacks(bf, af)
    # n, m run over -window-1..window-1; a vacuum product at index >= 0
    # vanishes
    idx = range(-window - 1, window)
    for n in idx:
        for m in idx:
            for si in range(len(states)):
                for E in range(-xwin, xwin + 1):
                    first = ab[-m - 1][si].get(E, -n - 1) if m < 0 else zero
                    second = ba[-n - 1][si].get(E, -m - 1) if n < 0 else zero
                    out[(n, m, si, E)] = first - second
    return out


def _image_bracket_report(name: str, module: FockModule, r: int, s: int,
                          rhs: TruncatedLaurent, window: int,
                          xwin: int = 2) -> CheckReport:
    states = [module.vacuum(), module.basis_vector((-1, 0))]
    entries = _image_bracket_entries(module, r, s, window, xwin, states)
    zero = module.scalars.zero
    return tally(name, f"product indices within |e| <= {window}", (
        (f"n={n}, m={m}, state {si}, x^{E}", got,
         states[si].scale(rhs.coeff((-n - 1, -m - 1), zero)) if E == 0
         else module.zero())
        for (n, m, si, E), got in sorted(entries.items())))


def _law_phi_image(name: str, src_alg: str):
    """The substituted fields on the psi target satisfy the source bracket."""
    def run(window: int, scalars, r: int = 1, s: int = 0) -> CheckReport:
        module = FockModule(_PSI_TARGET[src_alg], scalars=scalars)
        src = FockModule(src_alg, level=module.level, scalars=scalars)
        rhs = pair_of(field_of(src, r), field_of(src, s)).table(
            Window.cube(_X12, window + 1))
        return _image_bracket_report(name, module, r, s, rhs, window)
    return run


def _law_special_pair_transfer(window: int, scalars, r: int = 0, s: int = 0
                               ) -> CheckReport:
    module = FockModule("htq", scalars=scalars)
    pair = pair_of(field_of(module, r), field_of(module, s))
    form = SpecialBracketForm.from_pair(pair)
    w = Window.cube(_X12, window + 1)
    rhs = form.image_table(w)
    return _image_bracket_report("special-pair-transfer", module, r, s,
                                 rhs, window)


def _law_locality_transfer(window: int, scalars, r: int = 1, s: int = 0
                           ) -> CheckReport:
    module = FockModule("hq", scalars=scalars)
    zero = scalars.zero
    xwin = 2
    states = [module.vacuum()]
    entries = _image_bracket_entries(module, r, s, window, xwin, states)
    # scalar table of the image bracket, read off the constant-field part
    table: dict[tuple[int, int], Scalar] = {}
    for (n, m, _si, E), vec in entries.items():
        if E == 0:
            val = vec.vacuum_component()
            if val:
                table[(-n - 1, -m - 1)] = val
    # multiplying by (x1 - x2) must kill the bracket of the images; the
    # scan stays one step inside the window so both lookups are covered
    inside = range(-window + 1, window + 1)
    parts = [tally("binomial-kill", f"|e| < {window}", (
        (f"at ({e1}, {e2})",
         table.get((e1 - 1, e2), zero) - table.get((e1, e2 - 1), zero), zero)
        for e1 in inside for e2 in inside))]
    # the full multiplier evaluated on exponentials: each antidiagonal of
    # the bracket table is constant, which extends it past the window
    mult = Multiplier.canonical_for(pair_of(field_of(module, r),
                                            field_of(module, s)))
    bands: dict[int, Scalar] = {}
    band_fail: list[str] = []
    for (e1, e2), val in sorted(table.items()):
        d = e1 + e2
        if d in bands:
            if bands[d] != val:
                band_fail.append(f"antidiagonal {d} is not constant")
        else:
            bands[d] = val
    if band_fail:
        parts.append(CheckReport("exp-multiplier-kill", FAIL,
                                 checked=len(table), failures=band_fail[:6]))
    else:
        # p is homogeneous, so each x1 power names one monomial
        emons = {i: c for (i, _j), c in mult.poly2().items()}

        def killed(E1: int, E2: int) -> Scalar:
            # entries with e1 <= E1 and e2 = d - e1 <= E2; e^(k(x1-x2))
            # has x1^u x2^v coefficient k^u/u! * (-k)^v/v!
            val = zero
            for d, cval in bands.items():
                if not cval:
                    continue
                for e1 in range(d - E2, E1 + 1):
                    for k, ak in emons.items():
                        val = val + ak * cval * exp_coeff(
                            k, E1 - e1, scalars) * exp_coeff(
                            -k, E2 - d + e1, scalars)
            return val

        near = range(-3, 4)
        parts.append(tally("exp-multiplier-kill", "|E| <= 3", (
            (f"at ({E1}, {E2})", killed(E1, E2), zero)
            for E1 in near for E2 in near)))
    return combine("locality-transfer", parts)


_ASSOC_SETUP = {
    "hq": _HQ_MULT,
    "htq": _HTQ_MULT,
}

_ASSOC_SOURCE = {t: src for src, t in _PSI_TARGET.items()}


def _assoc_left_fields(module: FockModule) -> list[OperatorSeries]:
    """The generator field and its realized one-generator vacuum vector.

    Only the index-0 vector is usable here: the fixed multiplier matches
    the delta pattern of the unshifted pair alone.
    """
    src = FockModule(_ASSOC_SOURCE[module.algebra], level=module.level,
                     scalars=module.scalars)
    realized = psi_map(src.basis_vector((-1, 0)), target=module)
    (_c, composite), = realized.terms
    return [field_of(module, 0), composite]


def _law_weak_associativity(window: int, scalars, alg: str = "hq",
                            x0_order: int = 6) -> CheckReport:
    spec = _ASSOC_SETUP.get(alg)
    if spec is None:
        raise LawParameterError(
            f"alg must be one of {', '.join(sorted(_ASSOC_SETUP))}, "
            f"got {alg!r}")
    if x0_order < 0:
        raise LawParameterError(f"x0_order must be >= 0, got {x0_order}")
    mult = _q_multiplier(spec, scalars)
    module = FockModule(alg, scalars=scalars)
    vf = field_of(module, 0)
    kappa = mult.kappa
    deg = mult.degree
    states = [module.vacuum(), module.basis_vector((-1, 0))]
    pexp = dict(enumerate(mult.exp_series(x0_order + kappa, scalars)))
    parts = []
    cases = [(si, w0, ui, uf) for si, w0 in enumerate(states)
             for ui, uf in enumerate(_assoc_left_fields(module))]
    for si, w0, ui, uf in cases:
        # left side: products summed against x0 powers, then the
        # substituted multiplier
        stack = _product_stack(uf, vf, mult, w0,
                               -window - deg, window - deg, x0_order)
        lhs = stack.times_z(pexp, deg, -kappa, x0_order)
        # right side: the substituted ordered product, never inverted
        rhs = ordered_core(uf, vf, mult, w0, -window, window, x0_order)
        parts.append(tally(
            f"state[{si}]left[{ui}]",
            f"|x| <= {window}, z order <= {x0_order}",
            ((f"state {si}, left {ui}, x^{E} z^{M}", lhs.get(E, M),
              rhs.get(E, M) if M >= 0 else module.zero())
             for E in range(-window, window + 1)
             for M in range(-kappa, x0_order + 1))))
    return combine(f"phi-weak-associativity[{alg}]", parts)


def _law_scale_covariance(window: int, scalars) -> CheckReport:
    bmod = FockModule("bhat", scalars=scalars)
    target = FockModule("hq", scalars=scalars)
    base_state = bmod.basis_vector((-1, 0), (-1, 1))
    base = psi_map(base_state, target)
    states = [target.vacuum(), target.basis_vector((-1, 0))]
    xs = range(-window, window + 1)
    parts = []
    for nn in range(-2, 3):
        shifted = psi_map(bmod.basis_vector((-1, nn), (-1, 1 + nn)), target)
        scaled = ArgScaledField(base, scalars.q_power(nn))
        gen_shift = field_of(target, 3 + nn)
        gen_scaled = ArgScaledField(field_of(target, 3), scalars.q_power(nn))
        cases = [(f"shift {nn}, state {si}", shifted, scaled, v)
                 for si, v in enumerate(states)]
        cases.append((f"generator, shift {nn}", gen_shift, gen_scaled,
                      states[1]))
        parts.append(tally(f"shift[{nn}]", f"|x| <= {window}", (
            (f"{label}, x^{e}", got.apply_coeff(e, v), want.apply_coeff(e, v))
            for label, got, want, v in cases for e in xs)))
    return combine("scale-covariance", parts)


@dataclass(frozen=True)
class _LawSpec:
    runner: object
    default_window: int
    summary: str


LAWS: dict[str, _LawSpec] = {
    "bhat-commutator-delta": _LawSpec(
        _law_bhat_commutator_delta, 8,
        "banded pairing commutator equals its shifted delta table"),
    "hq-commutator-delta": _LawSpec(
        _law_hq_commutator_delta, 10,
        "deformed Heisenberg commutator equals its two-delta table"),
    "hq-quasi-locality": _LawSpec(
        _law_quasi_locality("hq", _HQ_MULT), 10,
        "the quadratic multiplier kills the deformed commutator"),
    "hq-quasi-locality-control": _LawSpec(
        _law_quasi_locality_control("hq", _HQ_MULT_CONTROL), 10,
        "a single binomial must not kill the deformed commutator"),
    "htq-commutator-euler-form": _LawSpec(
        _law_htq_euler_form, 12,
        "euler-delta plus two one-sided kernels, directions differing"),
    "htq-commutator-kernel-form": _LawSpec(
        _law_htq_kernel_form, 12,
        "one-sided kernel pair plus euler-delta difference, with the "
        "closed-form mode constants"),
    "htq-quasi-locality": _LawSpec(
        _law_quasi_locality("htq", _HTQ_MULT), 10,
        "the squared multiplier kills the degenerate commutator minus "
        "its one-sided kernel"),
    "htq-quasi-locality-control": _LawSpec(
        _law_quasi_locality_control("htq", _HTQ_MULT_CONTROL), 10,
        "first powers must not kill the kernel-reduced degenerate "
        "commutator"),
    "locality-transfer": _LawSpec(
        _law_locality_transfer, 5,
        "multipliers transfer to the substituted fields on exponentials"),
    "phi-image-bq-commutator": _LawSpec(
        _law_phi_image("phi-image-bq-commutator", "bhatq"), 5,
        "substituted degenerate fields satisfy the exponential-tail "
        "bracket"),
    "phi-image-heisenberg": _LawSpec(
        _law_phi_image("phi-image-heisenberg", "bhat"), 5,
        "substituted deformed fields satisfy the banded pairing bracket"),
    "phi-weak-associativity": _LawSpec(
        _law_weak_associativity, 6,
        "iterated substitution products match the substituted double "
        "product"),
    "scale-covariance": _LawSpec(
        _law_scale_covariance, 8,
        "index shifts act as argument scalings on realized fields"),
    "special-pair-transfer": _LawSpec(
        _law_special_pair_transfer, 5,
        "ratio-plus-euler brackets transfer with only the derivative "
        "delta surviving"),
}


def verify_identity(name: str, window: int | None = None,
                    point: RationalPoint | None = None,
                    **params) -> CheckReport:
    """Run one registered identity check at the given window.

    Without a point every scalar is computed in Q(q, l); at a point they
    are exact rationals there, so the verdict holds at that point.
    """
    spec = LAWS.get(name)
    if spec is None:
        known = ", ".join(sorted(LAWS))
        raise VertexError(f"unknown law {name!r}; one of {known}")
    defaults = {k: p.default for k, p in
                inspect.signature(spec.runner).parameters.items()
                if p.default is not inspect.Parameter.empty}
    for key, value in params.items():
        if key not in defaults or type(value) is not type(defaults[key]):
            takes = ", ".join(f"{k} ({type(d).__name__})"
                              for k, d in defaults.items()) or "nothing"
            raise LawParameterError(
                f"parameter {key!r} cannot be {value!r}; {name} takes {takes}")
    if window is None:
        window = spec.default_window
    with _stack_scope():
        return spec.runner(window, SYMBOLIC if point is None else point,
                           **params)


def suite_reports(window: int | None = None,
                  point: RationalPoint | None = None) -> list[CheckReport]:
    """All registered checks, in name order.

    The laws share one memo of product stacks, which lasts this call.
    """
    with _stack_scope():
        return [verify_identity(name, window=window, point=point)
                for name in sorted(LAWS)]
