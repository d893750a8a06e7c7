"""Products of mode fields in ordinary and exponential coordinates.

A field here is the generating series of a mode family acting on a vacuum
module, a(x) = sum_m a_m x^(-m-offset).  This module builds one bilinear
product on such fields, the substitution products a(x)_n^e b(x), defined
through the change of coordinate x1 -> x e^z against a polynomial
multiplier p(x1, x) that tames the pair's commutator.

A product is represented extrinsically: it is an operator series whose
coefficients are computed on demand, each one a finite sum of
compositions of the factor fields.  The finiteness rests on splitting
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
D^j / j!, one power of D at a time (``StateTable.dressings``).  D^j
reads j orders of z above what it writes; the laws read z orders up to
window with j up to window, so the undressed stack reaches z order
2 * window.  That is the only place a product meets a dressing: the
commutator catalog covers generator fields alone.

The commutator data itself is carried by a small catalog of closed-form
shapes (delta families and one-sided ratio kernels), verified against the
module action by the identity checks at the bottom of the file.

Every scalar lies in the scalar field of the module the fields act on:
symbolic Q(q, l), or exact rationals at a :class:`RationalPoint`.  The
identity checks run one code path in either field.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Iterable

from .fock import (
    FockModule,
    FockVector,
    apply_generator,
    pair_vectors,
    annihilation_bound,
    two_point,
)
from .liealg import (
    diff_expansion_table,
    f_coefficient,
    g_coefficient,
    standard_pairing,
)
from .report import FAIL, INCONCLUSIVE, PASS, CheckReport, combine, tally
from .scalar import SYMBOLIC, RationalPoint, Scalar, immutable
from .series import TruncatedLaurent, Window, compare_on, delta_family

__all__ = [
    "VertexError",
    "UnsupportedPairError",
    "MultiplierError",
    "OperatorSeries",
    "GeneratorField",
    "SumField",
    "field_of",
    "PairPart",
    "PairData",
    "pair_of",
    "Multiplier",
    "ProductExpression",
    "phi_product_n",
    "psi_map",
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


# ---------------------------------------------------------------------------
# fields


class OperatorSeries:
    """A formal series of operators on one vacuum module.

    Coefficient e is the operator attached to x^e; mode n is the
    coefficient of x^(-n-offset).  Subclasses are immutable and store
    their ``module``.  Each implements ``apply_coeffs``, which applies a
    window of coefficients at once (a product reads them off one stack).
    The one factor a product takes, :class:`GeneratorField`, implements
    ``apply_coeff`` instead, through which ``apply_coeffs`` defaults, and
    a support bound ``low_exponent``: coefficients below it act as zero
    on the given vector.  It alone stores the mode ``offset``, which its
    coefficients read.  Only :class:`GeneratorField` is a value: fields
    built from equal data are equal and hash alike, which is what the
    pair memo keys on.  The other fields compare by identity.
    """

    __slots__ = ()

    __setattr__ = __delattr__ = immutable

    def apply_coeffs(self, lo: int, hi: int, v: FockVector
                     ) -> list[FockVector]:
        """[apply_coeff(e, v) for e = lo..hi]."""
        return [self.apply_coeff(e, v) for e in range(lo, hi + 1)]


class GeneratorField(OperatorSeries):
    """The generating series of one mode family, and the one place that
    says how a family index acts.  On the shifted algebras it rides on the
    generators, as the letter (mode, shift), and the exponent convention
    is x^(-m-1).  On the unshifted ones it scales the argument: coefficient
    e carries a factor q^(shift*e), the expansion of a(q^shift x).
    """

    __slots__ = ("module", "shift", "offset")

    def __init__(self, module: FockModule, shift: int = 0):
        object.__setattr__(self, "module", module)
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "offset", module.spec.offset)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.module, self.shift) == (other.module, other.shift)

    def __hash__(self) -> int:
        return hash((self.module, self.shift))

    def apply_mode(self, n: int, v: FockVector) -> FockVector:
        if self.offset:  # 1 exactly on the shifted algebras
            return apply_generator((n, self.shift), v)
        out = apply_generator((n, 0), v)
        if self.shift:
            out = out.scale(self.module.scalars.q_power(-self.shift * n))
        return out

    def apply_coeff(self, e: int, v: FockVector) -> FockVector:
        return self.apply_mode(-e - self.offset, v)

    def low_exponent(self, v: FockVector) -> int:
        return 1 - self.offset - annihilation_bound(v)


class SumField(OperatorSeries):
    """A finite linear combination of fields on one module; ``terms`` is
    stored as a tuple of its (coefficient, field) pairs with a nonzero
    coefficient."""

    __slots__ = ("module", "terms")

    def __init__(self, module: FockModule,
                 terms: Iterable[tuple[Scalar, OperatorSeries]]):
        object.__setattr__(self, "module", module)
        object.__setattr__(self, "terms",
                           tuple((c, f) for c, f in terms if c))

    def apply_coeffs(self, lo: int, hi: int, v: FockVector
                     ) -> list[FockVector]:
        out = [self.module.zero()] * (hi - lo + 1)
        for c, f in self.terms:
            out = [acc + u.scale(c)
                   for acc, u in zip(out, f.apply_coeffs(lo, hi, v))]
        return out


def field_of(module: FockModule, shift: int = 0) -> GeneratorField:
    """The generating field of the module's mode family at one index."""
    return GeneratorField(module, shift)


# ---------------------------------------------------------------------------
# commutator catalog
#
# [a(x1), b(x2)] for a cataloged pair is a central scalar distribution,
# decomposed into named parts.  Delta-supported parts are annihilated by a
# suitable binomial power; one-sided kernel parts have no negative x1 power.


class PairPart:
    """One named part of a central commutator: ``kind`` is one of plain,
    euler, dshift, bplain, iratio, iratio_op and ftail; ``c`` is the
    ratio of a delta or kernel part (1 for ftail) and ``d`` the index
    difference of an ftail part."""

    __slots__ = ("kind", "coeff", "c", "d")

    def __init__(self, kind: str, coeff: Scalar, c: Scalar, d: int = 0):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    __setattr__ = __delattr__ = immutable

    @property
    def is_delta(self) -> bool:
        return self.kind in ("plain", "euler", "dshift", "bplain")


# multiplicity of (x1 - c x2) that kills a delta part of each kind: its
# degree along the support line, plus one
_DELTA_KILL = {"plain": 1, "euler": 2, "dshift": 2, "bplain": 1}


def _part_table(part: PairPart, w: Window, scalars) -> TruncatedLaurent:
    """One part of a commutator on a two-variable window (x1, x2)."""
    if part.kind == "ftail":
        t = diff_expansion_table(lambda j: f_coefficient(part.d, j, scalars),
                                 w)
    else:
        t = delta_family(part.kind, part.c, w)
    return t if part.coeff == 1 else t.scale(part.coeff)


class PairData:
    """The central commutator of an ordered pair of cataloged fields, as
    a sum of ``parts``.  Every scalar lies in the field ``scalars``."""

    __slots__ = ("parts", "scalars")

    def __init__(self, parts: tuple[PairPart, ...], scalars=SYMBOLIC):
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "scalars", scalars)

    __setattr__ = __delattr__ = immutable

    def table(self, w: Window) -> TruncatedLaurent:
        acc = TruncatedLaurent.zero(w.vars)
        for p in self.parts:
            acc = acc + _part_table(p, w, self.scalars)
        return acc if self.parts else acc.restrict(w)

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

    The catalog covers generator fields; a dressing of the right factor
    is read off the undressed product stack (``StateTable.dressings``).
    Generator fields are immutable values, so equal pairs share one
    cached result.
    """
    if not all(isinstance(f, GeneratorField) for f in (a, b)):
        raise UnsupportedPairError(
            f"no commutator data for {type(a).__name__} x {type(b).__name__}")
    return PairData(_base_pair(a, b), a.module.scalars)


# ---------------------------------------------------------------------------
# multipliers


class Multiplier:
    """A homogeneous polynomial unit * prod_i (x1 - c_i x2)^(m_i).

    Homogeneity is what makes the substituted polynomial p(x e^z, x) a
    monomial in x times an invertible-up-to-z^kappa series in z, with
    kappa the multiplicity of the factor at c = 1.  The factors and the
    unit lie in one scalar field; the default unit is the integer 1.
    """

    __slots__ = ("factors", "unit", "_hash")

    def __init__(self, factors: tuple[tuple[Scalar, int], ...],
                 unit: Scalar = 1):
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "unit", unit)
        # the closed-form and polynomial memos key on the multiplier
        object.__setattr__(self, "_hash", hash((factors, unit)))

    __setattr__ = __delattr__ = immutable

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.factors, self.unit) == (other.factors, other.unit)

    def __hash__(self) -> int:
        return self._hash

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
        support line (D = _DELTA_KILL - 1); only a factor at c lowers D,
        so it must occur D + 1 times.  Parts with a zero coefficient
        (level 0) need none.
        """
        need: dict[Scalar, int] = {}
        for p in pair.delta_parts():
            if p.coeff:
                need[p.c] = max(need.get(p.c, 0), _DELTA_KILL[p.kind])
        return cls.of(*need.items())

    def exp_series(self, order: int, scalars=SYMBOLIC) -> list[Scalar]:
        """Coefficients of p(x e^z, x) / x^degree through z^order, in the
        scalar field of the factors.

        p(x e^z, x) / x^degree = sum_K p_K e^(K z) over the
        x1^K x2^(degree-K) coefficients p_K of p: one column of the table
        of u = 1."""
        one = scalars.one
        return _shifted_inverse(Multiplier.of(), scalars).column(
            {i: one * c for (i, _j), c in self.poly2().items()}, order)

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


@lru_cache(maxsize=16)
def _shifted_inverse(mult: Multiplier, scalars):
    """The closed form of u = x^degree / p(x e^z, x) in the field
    (``exp_inverse``), whose ``column`` gives the product-stack
    coefficients [z^T] sum_k c_k e^(kz) u.  The multiplier 1 gives u = 1,
    whose columns expand sum_k c_k e^(kz) alone.

    The entries of a z order do not depend on how deep the table goes,
    so one table per multiplier and field grows to the deepest order
    asked.  It is the only memo of the product path.
    """
    return scalars.exp_inverse(mult.factors, mult.unit)


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
        """A table over finished data, taken as is: accumulated sums pass
        through ``_finished`` first."""
        self.module = module
        self.data = data

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
        return StateTable(self.module, _finished(out))

    def dressings(self, jmax: int, zlo: int, zhi: int) -> list["StateTable"]:
        """From this stack S_0 of (a, b), the stacks S_j of
        (a, theta^j b / j!) for j = 0..jmax, with theta = x d/dx.

        Under x1 = x e^z, theta on b is D = theta_x - d/dz on the stack,
        so S_j = D S_(j-1) / j, entrywise
        S_j(E, t) = (E S_(j-1)(E, t) - (t+1) S_(j-1)(E, t+1)) / j,
        one ``pair_sum`` of the field per coefficient.  S_j holds every z
        order from zlo to zhi + jmax - j, which this stack must reach; S_0
        is this stack itself, with its own z range.
        """
        scalars = self.module.scalars
        pair_sum = scalars.pair_sum
        zero = scalars.zero
        out = [self]
        for j in range(1, jmax + 1):
            top = zhi + jmax - j
            prev = out[-1].data
            # entry (E, t) reads (E, t) with weight E and (E, t + 1) with
            # weight -(t + 1)
            keys: dict[tuple[int, int], None] = {}
            for E, t in prev:
                if E and zlo <= t <= top:
                    keys[(E, t)] = None
                if t and zlo < t <= top + 1:
                    keys[(E, t - 1)] = None
            nxt: dict[tuple[int, int], dict] = {}
            for E, t in keys:
                x = prev.get((E, t), {}) if E else {}
                y = prev.get((E, t + 1), {}) if t != -1 else {}
                row = {}
                for m in (*x, *(m for m in y if m not in x)):
                    c = pair_sum(x.get(m, zero), E, y.get(m, zero), -t - 1,
                                 j)
                    if c:
                        row[m] = c
                if row:
                    nxt[(E, t)] = row
            out.append(StateTable(self.module, nxt))
        return out


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
                 xlo: int, xhi: int) -> StateTable:
    """Coefficients of (p(x1, x) a(x1) b(x) v) under x1 -> x e^z, with
    the exponentials left unexpanded.

    Entry (E, K) is the x^E e^(Kz) coefficient, K the x1 exponent: over
    the monomials p_ij x1^i x^j of the multiplier, the sum of
    p_ij a_(K-i) b_(E-K-j) v, with b applied first for K >= 0 and a first
    for K < 0.  ``_columns`` reads off z orders against a closed-form
    inverse, and against the table of u = 1 alone.  The two orders differ
    by p times the commutator of the fields: mult must kill its delta
    parts, and its kernel parts have no negative x1 power, so the reversed
    order adds no correction.  The factor applied first bounds K, through
    its annihilation bound on v, so every entry is a finite sum.
    """
    check_multiplier(mult, pair_of(afield, bfield))
    low_a = afield.low_exponent(v)
    low_b = bfield.low_exponent(v)
    acc: dict[tuple[int, int], dict] = {}
    # the first-applied vector by (order, its exponent) and the ordered
    # pair by (order, e1, e2), the order True for b first: one (e1, e2)
    # falls on either side of K = 0 for different i
    firsts: dict[tuple[bool, int], FockVector] = {}
    pairs: dict[tuple[bool, int, int], FockVector] = {}
    for (i, j), c in sorted(mult.poly2().items()):
        for E in range(xlo, xhi + 1):
            for K in range(min(0, low_a + i), max(0, E - j - low_b + 1)):
                key = (K >= 0, K - i, E - K - j)
                w = pairs.get(key)
                if w is None:
                    w = pairs[key] = _ordered_pair(afield, bfield, v, firsts,
                                                   *key)
                if w.terms:
                    _add_scaled(acc, (E, K), w.terms, c)
    return StateTable(afield.module, _finished(acc))


def _ordered_pair(afield: OperatorSeries, bfield: OperatorSeries,
                  v: FockVector, firsts: dict, bfirst: bool, e1: int, e2: int
                  ) -> FockVector:
    """a_e1 b_e2 v if bfirst, else b_e2 a_e1 v, the first-applied vector
    kept in firsts under (bfirst, its exponent)."""
    first, e, second, f = ((bfield, e2, afield, e1) if bfirst
                           else (afield, e1, bfield, e2))
    u = firsts.get((bfirst, e))
    if u is None:
        u = firsts[(bfirst, e)] = first.apply_coeff(e, v)
    return u if u.is_zero() else second.apply_coeff(f, u)


def _product_stack(afield: OperatorSeries, bfield: OperatorSeries,
                   mult: Multiplier, v: FockVector,
                   xlo: int, xhi: int, zneed: int) -> StateTable:
    """All substitution products at once, applied to one vector.

    Entry (E, t) is the x^E coefficient of z^t in
    iota(1/p(x e^z, x)) * (p a(x1) b(x) v)|_{x1 = x e^z};
    the product at index n sits at t = -n-1, so z exponents run from
    -kappa up to zneed.  With the ordered product left as a sum of
    c_(E, k) x^E e^(kz) (``ordered_core``), the coefficients of one
    monomial at x^(E - degree) over all t are one column of the
    closed-form table of ``_shifted_inverse``, [z^t] sum_k c_(E, k)
    e^(kz) u (``_columns``).  A stack is built anew on every call; a law
    that reads one stack twice keeps it itself.
    """
    deg = mult.degree
    core = ordered_core(afield, bfield, mult, v, xlo + deg, xhi + deg)
    return _columns(core, _shifted_inverse(mult, core.module.scalars),
                    zneed, deg)


def _columns(core: StateTable, table, zneed: int, deg: int) -> StateTable:
    """Read an ordered core against a closed-form table: entry (E - deg, t)
    of the result is [z^t] sum_k core(E, k) e^(kz) u, for t from -kappa
    to zneed, one column of the table per x exponent and monomial."""
    by_entry: dict[tuple[int, object], dict] = {}
    for (E, k), terms in core.data.items():
        for m, c in terms.items():
            by_entry.setdefault((E, m), {})[k] = c
    data: dict[tuple[int, int], dict] = {}
    for (E, m), cs in by_entry.items():
        for t, c in enumerate(table.column(cs, zneed), -table.kappa):
            if c:
                data.setdefault((E - deg, t), {})[m] = c
    return StateTable(core.module, data)


# ---------------------------------------------------------------------------
# product expressions


class ProductExpression(OperatorSeries):
    """The n-th substitution product of two fields under a multiplier.

    Coefficients are computed on demand and read off a product stack; a
    window of them is read off one stack over that window, built for
    that call.
    """

    __slots__ = ("left", "right", "n", "mult", "module")

    def __init__(self, left: OperatorSeries, right: OperatorSeries, n: int,
                 mult: Multiplier):
        if left.module != right.module:
            raise VertexError("product factors act on different modules")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mult", mult)
        object.__setattr__(self, "module", left.module)

    def apply_coeffs(self, lo: int, hi: int, v: FockVector
                     ) -> list[FockVector]:
        t = -self.n - 1
        stack = _product_stack(self.left, self.right, self.mult, v, lo, hi,
                               max(0, t))
        return [stack.get(e, t) for e in range(lo, hi + 1)]


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
    return ProductExpression(a, b, n, mult)


# ---------------------------------------------------------------------------
# realization of vacuum-module vectors as fields


_PSI_TARGET = {"bhat": "hq", "bhatq": "htq"}


def psi_map(v: FockVector, target: FockModule | None = None) -> OperatorSeries:
    """Realize a shifted-algebra vacuum vector as a field on a mode module.

    The family index r goes to the generating field at argument scale q^r,
    and a word of two mode -1 letters to the substitution product
    a^(r1)(x)_(-1) a^(r2)(x).  Other words, the vacuum among them, are
    refused: no law realizes the vacuum, and longer words would need
    commutator data for product or dressed fields, which the catalog does
    not carry.
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
        if not 1 <= len(mono) <= 2 or any(m != -1 for m, _r in mono):
            raise UnsupportedPairError(
                "field realizations cover words of one or two mode -1 "
                f"letters, not {mono}")
        fields = [field_of(target, r) for _m, r in mono]
        f: OperatorSeries = (fields[0] if len(fields) == 1
                             else phi_product_n(*fields, -1))
        terms.append((coeff, f))
    return SumField(target, terms)


# ---------------------------------------------------------------------------
# the special bracket shape and its substitution image


def _special_image(pair: PairData, w: Window) -> TruncatedLaurent:
    """The bracket of the substituted fields of a special pair on a
    (x1, x2) window.

    A special pair is made of ratio kernels coeff * cu/(1-cu)^2, with
    u = x1/x2 expanded in powers of u, plus euler deltas
    coeff * (x2 d/dx2) delta(c x2/x1).  Under the substitution products
    the kernels reappear evaluated at e^(x1-x2), as one series S, and only
    the euler parts at c = 1 survive, as the derivative delta alpha
    (d/dx2) x1^-1 delta(x2/x1).
    """
    k = pair.scalars
    ratios = []
    alpha = k.zero
    for p in pair.parts:
        if p.kind == "iratio":
            ratios.append((p.c, p.coeff))
        elif p.kind == "euler":
            if p.c == 1:
                alpha = alpha + p.coeff
        else:
            raise VertexError(
                f"part {p.kind} is outside the special bracket shape")
    t = diff_expansion_table(
        lambda j: sum((coeff * g_coefficient(c, j, k)
                       for c, coeff in ratios), k.zero), w)
    if alpha:
        t = t + delta_family("dshift", k.one, w).scale(alpha)
    return t


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


def _measured_commutator(bra: FockVector, ket: FockVector, r: int, s: int,
                         w: Window) -> TruncatedLaurent:
    """<bra| [a(x1), b(x2)] |ket> read off the two orders of the fields."""
    a, b = field_of(ket.module, r), field_of(ket.module, s)
    fwd = two_point(bra, (a, b), ket, w)
    rev = two_point(bra, (b, a), ket, _swap_window(w))
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


def _law_hq_commutator_delta(window: int, scalars, *, r: int = 1, s: int = 0
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


def _law_bhat_commutator_delta(window: int, scalars, *, r: int = 1, s: int = 0
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


# the image-bracket laws read the x exponents |E| <= _IMAGE_XWIN
_IMAGE_XWIN = 2


def _image_bracket_cases(module: FockModule, r: int, s: int,
                         window: int, states):
    """[(a_n^e), (b_m^e)] applied to the constant field, then to states.

    Yields (n, m, state index, x exponent, first, second) in increasing
    order of (n, m, state index, x exponent), the x exponent within
    ``_IMAGE_XWIN``, where first and second are the vectors of the two
    orders of products; the bracket is first - second.  Both orders are
    taken against the closed-form vacuum products of the other factor,
    theta^j b / j! with j = -m-1 and theta = x d/dx.  Each order builds
    one undressed stack per state, with the pair's canonical multiplier,
    and reads every dressing off it through ``StateTable.dressings``:
    theta on the right factor is D = theta_x - d/dz on the stack.  The
    law reads z orders up to window and j runs to window, so the
    undressed stack reaches 2 * window.  Equal fields share the stacks of
    one order.
    """
    af = field_of(module, r)
    bf = field_of(module, s)
    zero = module.zero()

    def stacks(left, right):
        # by state, then j: the stacks of (left, theta^j right / j!)
        mult = Multiplier.canonical_for(pair_of(left, right))
        return [_product_stack(left, right, mult, v, -_IMAGE_XWIN,
                               _IMAGE_XWIN, 2 * window)
                .dressings(window, -window, window) for v in states]

    ab = stacks(af, bf)
    ba = ab if af == bf else stacks(bf, af)
    # n, m run over -window-1..window-1; a vacuum product at index >= 0
    # vanishes
    idx = range(-window - 1, window)
    for n in idx:
        for m in idx:
            for si in range(len(states)):
                for E in range(-_IMAGE_XWIN, _IMAGE_XWIN + 1):
                    first = ab[si][-m - 1].get(E, -n - 1) if m < 0 else zero
                    second = ba[si][-n - 1].get(E, -m - 1) if n < 0 else zero
                    yield n, m, si, E, first, second


def _image_bracket_report(name: str, module: FockModule, r: int, s: int,
                          rhs: TruncatedLaurent, window: int
                          ) -> CheckReport:
    states = [module.vacuum(), module.basis_vector((-1, 0))]
    zero = module.zero()
    szero = module.scalars.zero

    def cases():
        for n, m, si, E, first, second in _image_bracket_cases(
                module, r, s, window, states):
            label = f"n={n}, m={m}, state {si}, x^{E}"
            if E == 0:
                yield (label, first - second,
                       states[si].scale(rhs.coeff((-n - 1, -m - 1), szero)))
            # off x^0 the orders agree where the law holds
            elif first == second:
                yield label, zero, zero
            else:
                yield label, first - second, zero

    return tally(name, f"product indices within |e| <= {window}", cases())


def _law_phi_image(name: str, src_alg: str):
    """The substituted fields on the psi target satisfy the source bracket."""
    def run(window: int, scalars, *, r: int = 1, s: int = 0) -> CheckReport:
        module = FockModule(_PSI_TARGET[src_alg], scalars=scalars)
        src = FockModule(src_alg, level=module.level, scalars=scalars)
        rhs = pair_of(field_of(src, r), field_of(src, s)).table(
            Window.cube(_X12, window))
        return _image_bracket_report(name, module, r, s, rhs, window)
    return run


def _law_special_pair_transfer(window: int, scalars, *, r: int = 0, s: int = 0
                               ) -> CheckReport:
    module = FockModule("htq", scalars=scalars)
    pair = pair_of(field_of(module, r), field_of(module, s))
    rhs = _special_image(pair, Window.cube(_X12, window))
    return _image_bracket_report("special-pair-transfer", module, r, s,
                                 rhs, window)


def _law_locality_transfer(window: int, scalars, *, r: int = 1, s: int = 0
                           ) -> CheckReport:
    module = FockModule("hq", scalars=scalars)
    zero = scalars.zero
    # scalar table of the image bracket, read off the constant-field part
    table: dict[tuple[int, int], Scalar] = {}
    for n, m, _si, E, first, second in _image_bracket_cases(
            module, r, s, window, [module.vacuum()]):
        if E == 0:
            val = first.vacuum_component() - second.vacuum_component()
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
        parts.append(tally("exp-multiplier-kill", "|E| <= 3",
                           _exp_kill_cases(mult, bands, scalars)))
    return combine("locality-transfer", parts)


def _exp_kill_cases(mult: Multiplier, bands: dict[int, Scalar], scalars):
    """The (label, got, want) cases of exp-multiplier-kill: the x1^E1
    x2^E2 coefficient, |E1|, |E2| <= 3, of sum_k a_k e^(k(x1 - x2)) times
    the table whose antidiagonal e1 + e2 = d is constant at bands[d], with
    a_k the x1^k coefficient of p, must vanish.

    Band d meets e^(k(x1 - x2)) at degree T = E1 + E2 - d, where
    sum_u C(T, u) k^u (-k)^(T - u) / T! = (k - k)^T / T! = [T = 0], so the
    coefficient is band E1 + E2 times sum_k a_k = p(1, 1).
    """
    zero = scalars.zero
    one = scalars.one
    p11 = sum((one * c for c in mult.poly2().values()), zero)
    near = range(-3, 4)
    return [(f"at ({E1}, {E2})", p11 * bands.get(E1 + E2, zero), zero)
            for E1 in near for E2 in near]


_ASSOC_SETUP = {
    "hq": _HQ_MULT,
    "htq": _HTQ_MULT,
}

_ASSOC_SOURCE = {t: src for src, t in _PSI_TARGET.items()}

# The deepest z order phi-weak-associativity takes (its x0_order).  Both
# sides are read to that order, and the cost grows about as its cube: on
# hq at the default window 6, x0_order = 60 takes about 1.0 s, 100 takes
# 3.8 s and 120 takes 5.8 s, and at window 2, 100 takes 1.4 s (one cold
# process each, 2-core machine, Python 3.11.7).
MAX_X0_ORDER = 100


def _assoc_left_fields(module: FockModule) -> list[OperatorSeries]:
    """The generator field and its realized one-generator vacuum vector.

    On hq and htq the two are equal: ``psi_map`` of b_(-1) vac is the
    generator field itself, so each ``state[i]left[1]`` case repeats
    ``left[0]`` (ROADMAP item 13).  Only the index-0 vector is usable
    here: the fixed multiplier matches the delta pattern of the unshifted
    pair alone.
    """
    src = FockModule(_ASSOC_SOURCE[module.algebra], level=module.level,
                     scalars=module.scalars)
    realized = psi_map(src.basis_vector((-1, 0)), target=module)
    (_c, composite), = realized.terms
    return [field_of(module, 0), composite]


def _law_weak_associativity(window: int, scalars, *, alg: str = "hq",
                            x0_order: int = 6) -> CheckReport:
    spec = _ASSOC_SETUP.get(alg)
    if spec is None:
        raise LawParameterError(
            f"alg must be one of {', '.join(sorted(_ASSOC_SETUP))}, "
            f"got {alg!r}")
    mult = _q_multiplier(spec, scalars)
    module = FockModule(alg, scalars=scalars)
    vf = field_of(module, 0)
    kappa = mult.kappa
    deg = mult.degree
    states = [module.vacuum(), module.basis_vector((-1, 0))]
    pexp = dict(enumerate(mult.exp_series(x0_order + kappa, scalars)))
    u_mult = _shifted_inverse(mult, scalars)
    u_one = _shifted_inverse(Multiplier.of(), scalars)
    parts = []
    cases = [(si, w0, ui, uf) for si, w0 in enumerate(states)
             for ui, uf in enumerate(_assoc_left_fields(module))]
    # a left field equal to an earlier one reuses that case's two sides
    sides: dict[tuple[int, OperatorSeries], tuple[StateTable, StateTable]] = {}
    for si, w0, ui, uf in cases:
        if (si, uf) not in sides:
            # both sides read one ordered core: the left side as the
            # product stack (``_product_stack``) summed against x0
            # powers, then the substituted multiplier; the right side as
            # the substituted ordered product, never inverted
            core = ordered_core(uf, vf, mult, w0, -window, window)
            sides[(si, uf)] = (
                _columns(core, u_mult, x0_order, deg).times_z(
                    pexp, deg, -kappa, x0_order),
                _columns(core, u_one, x0_order, 0))
        lhs, rhs = sides[(si, uf)]
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
    base = psi_map(bmod.basis_vector((-1, 0), (-1, 1)), target)
    states = [target.vacuum(), target.basis_vector((-1, 0))]
    exps = range(-window, window + 1)
    # the unshifted fields' windows, read once: at argument c x,
    # coefficient e picks up a factor c^e
    base_rows = [base.apply_coeffs(-window, window, v) for v in states]
    gen_rows = field_of(target, 3).apply_coeffs(-window, window, states[1])

    def scaled(rows: list[FockVector], c) -> list[FockVector]:
        return [u.scale(c ** e) for e, u in zip(exps, rows)]

    parts = []
    for nn in range(-2, 3):
        c = scalars.q_power(nn)
        shifted = psi_map(bmod.basis_vector((-1, nn), (-1, 1 + nn)), target)
        cases = [(f"shift {nn}, state {si}",
                  shifted.apply_coeffs(-window, window, v), scaled(rows, c))
                 for si, (v, rows) in enumerate(zip(states, base_rows))]
        cases.append((f"generator, shift {nn}",
                       field_of(target, 3 + nn).apply_coeffs(
                           -window, window, states[1]),
                       scaled(gen_rows, c)))
        parts.append(tally(f"shift[{nn}]", f"|x| <= {window}", (
            (f"{label}, x^{e}", g, w)
            for label, got, want in cases
            for e, g, w in zip(exps, got, want))))
    return combine("scale-covariance", parts)


class _LawSpec:
    """A registered law: its runner, default window and summary.  The
    law's parameters are the runner's keyword-only arguments: ``params``
    maps each to its default, and ``ranges`` each integer one to the
    least and greatest value it accepts."""

    __slots__ = ("runner", "default_window", "summary", "params", "ranges")

    def __init__(self, runner, default_window: int, summary: str,
                 **ranges: tuple[int, int]):
        object.__setattr__(self, "runner", runner)
        object.__setattr__(self, "default_window", default_window)
        object.__setattr__(self, "summary", summary)
        # a partial runner has no __kwdefaults__ and takes no parameter
        object.__setattr__(self, "params", dict(
            getattr(runner, "__kwdefaults__", None) or {}))
        object.__setattr__(self, "ranges", ranges)

    __setattr__ = __delattr__ = immutable


# The largest |r| and |s| a law takes as family indices.  The cost grows
# with |r - s|: at the default windows r = 16 takes at most 3.8 s
# (special-pair-transfer; phi-image-bq-commutator 3.0 s), r = 16, s = -16
# at most 13 s, and r = 32 up to 12 s; at window 2, phi-image-heisenberg
# took 22 s at r = 300 (one cold process each, 2-core machine, Python
# 3.11.7).
MAX_LAW_FAMILY = 16
_FAMILY = {"r": (-MAX_LAW_FAMILY, MAX_LAW_FAMILY),
           "s": (-MAX_LAW_FAMILY, MAX_LAW_FAMILY)}


LAWS: dict[str, _LawSpec] = {
    "bhat-commutator-delta": _LawSpec(
        _law_bhat_commutator_delta, 8,
        "banded pairing commutator equals its shifted delta table",
        **_FAMILY),
    "hq-commutator-delta": _LawSpec(
        _law_hq_commutator_delta, 10,
        "deformed Heisenberg commutator equals its two-delta table",
        **_FAMILY),
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
        "multipliers transfer to the substituted fields on exponentials",
        **_FAMILY),
    "phi-image-bq-commutator": _LawSpec(
        _law_phi_image("phi-image-bq-commutator", "bhatq"), 5,
        "substituted degenerate fields satisfy the exponential-tail "
        "bracket",
        **_FAMILY),
    "phi-image-heisenberg": _LawSpec(
        _law_phi_image("phi-image-heisenberg", "bhat"), 5,
        "substituted deformed fields satisfy the banded pairing bracket",
        **_FAMILY),
    "phi-weak-associativity": _LawSpec(
        _law_weak_associativity, 6,
        "iterated substitution products match the substituted double "
        "product",
        x0_order=(0, MAX_X0_ORDER)),
    "scale-covariance": _LawSpec(
        _law_scale_covariance, 8,
        "index shifts act as argument scalings on realized fields"),
    "special-pair-transfer": _LawSpec(
        _law_special_pair_transfer, 5,
        "ratio-plus-euler brackets transfer with only the derivative "
        "delta surviving",
        **_FAMILY),
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
    defaults = spec.params
    for key, value in params.items():
        if key not in defaults or type(value) is not type(defaults[key]):
            takes = ", ".join(f"{k} ({type(d).__name__})"
                              for k, d in defaults.items()) or "nothing"
            raise LawParameterError(
                f"parameter {key!r} cannot be {value!r}; {name} takes {takes}")
        if key in spec.ranges:
            lo, hi = spec.ranges[key]
            if not lo <= value <= hi:
                raise LawParameterError(
                    f"{key} must be in [{lo}, {hi}], got {value}")
    if window is None:
        window = spec.default_window
    return spec.runner(window, SYMBOLIC if point is None else point,
                       **params)


def suite_reports(window: int | None = None,
                  point: RationalPoint | None = None) -> list[CheckReport]:
    """All registered checks, in name order.

    Each law runs as ``verify_identity`` runs it alone: no law reads
    anything another law left behind but the bounded process memos.
    """
    return [verify_identity(name, window=window, point=point)
            for name in sorted(LAWS)]
