"""Rational kernels with restricted denominators.

A kernel is a Laurent polynomial in formal variables, with coefficients
in the scalar parameter ``q``, over a product of factors drawn from a
closed list of shapes:

* variable binomials ``x1 - c*x2``;
* affine factors ``x1 - c``;
* exponential factors ``e^z - c``.

Here ``c`` is any nonzero scalar.  A monomial in a denominator moves into
the numerator as negative powers, and so does the monomial under a unit
that is one of these shapes over a monomial: the ratio
binomial ``1 - c*x1/x2`` is ``(x2 - c*x1)/x2`` and ``1 - 2/x`` is
``(x - 2)/x``.  These are exactly the denominators whose directed
expansions stay inside iterated Laurent fields with computable exactness
windows; anything else is rejected when parsing.

The text grammar accepts identifiers ``x``, ``x1``, ``x2``, ``z``, the
scalar symbol ``q``, integers, ``+ - * / ^``, parentheses, and ``e^v`` for
exponentials.  An exponent is an integer of size at most
:data:`MAX_EXPONENT` (16), parentheses nest at most :data:`MAX_NESTING`
(100) deep, and multiplying out the text's products takes at most
:data:`MAX_PARSE_WORK` (131,072) units of work.

Parsing and expansion are pure, so both are memoized for the life of the
process, each in a least-recently-used memo of 64 entries:
:func:`parse_kernel` by its text and :func:`iota_expand` by (kernel,
direction tuple, window).  Equal calls share one result object, which
callers must not mutate.
"""

from __future__ import annotations

import re
from functools import lru_cache
from math import comb
from typing import Callable

from .scalar import ExpInverse, Scalar, _padd, immutable
from .series import (
    Cert,
    NEG_INF,
    POS_INF,
    TruncatedLaurent,
    Window,
)

VARS = ("x", "x1", "x2", "z")

# The largest |exponent| a kernel may write.  Parsing multiplies a base once
# per unit of exponent: at 16, (x + x1 + x2 + z + q + 1)^16 parses in about
# 1.1 s, and at 24 in about 7 s (on a 2-core machine, Python 3.11.7).  An
# e^z factor reads its closed form (scalar.ExpInverse): 1/(e^z - q)^16
# expands on the window of radius 4 in about 3 ms, and at 24 in about 6 ms.
MAX_EXPONENT = 16

# The most work one parse may spend multiplying polynomials.  Bounded
# exponents alone do not bound a parse: (x + x1 + x2 + z + q + 1)^12
# squared multiplies 1,820 by 1,820 terms and had not finished after 60 s.
# A product of a and b costs len(a) * len(b) units, one per pair of terms,
# plus one unit per 16 products of their coefficients' terms.  A unit
# takes about 12 us across a range of kernels (2-core machine, Python
# 3.11.7), so a parse at the bound takes about 1.6 s.  The 16th power of
# a six-term base takes 97,869 units (1.2 s); its 6th power squared
# 60,306 (0.7 s); its 7th power squared, 153,417 units, is refused.
MAX_PARSE_WORK = 1 << 17

# The deepest the parentheses of a kernel may nest.  The parser descends
# five calls per level, so a bound keeps a text from exhausting the
# interpreter's recursion limit (at about 190 levels from the command
# line); a run of signs is read in a loop and has no bound.
MAX_NESTING = 100

_ONE = Scalar.from_int(1)


class KernelError(ValueError):
    pass


class KernelParseError(KernelError):
    """A kernel text that does not parse, at position pos, or as a whole
    when pos is None."""

    def __init__(self, text: str, pos: int | None, reason: str):
        self.text = text
        self.pos = pos
        self.reason = reason
        if pos is None:
            super().__init__(f"cannot parse kernel: {reason}")
        else:
            super().__init__(
                f"cannot parse kernel at position {pos}: {reason}\n"
                f"  {text}\n  {' ' * pos}^")


# Numerators are polynomials over atoms; an atom is a variable name or
# "e^<var>".  A monomial is a sorted tuple of (atom, exponent) pairs.
Mono = tuple[tuple[str, int], ...]
NumPoly = dict[Mono, Scalar]


def _atom_key(atom: str):
    return (atom.startswith("e^"), atom)


def _mono(*pairs: tuple[str, int]) -> Mono:
    merged: dict[str, int] = {}
    for a, e in pairs:
        merged[a] = merged.get(a, 0) + e
    return tuple(sorted(((a, e) for a, e in merged.items() if e),
                        key=lambda p: _atom_key(p[0])))


def _num_mul(a: NumPoly, b: NumPoly) -> NumPoly:
    out: NumPoly = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = _mono(*ma, *mb)
            s = out.get(m)
            s = ca * cb if s is None else s + ca * cb
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def _size(a: NumPoly) -> int:
    """The number of terms of a's coefficients, each a polynomial in q."""
    return sum(len(c.num) for c in a.values())


def _num_scale(a: NumPoly, c: Scalar) -> NumPoly:
    return {m: c * v for m, v in a.items()}


def _split_vars(num: NumPoly) -> tuple[NumPoly, Mono]:
    """Clear negative powers of plain variables into a common monomial."""
    neg: dict[str, int] = {}
    for m in num:
        for a, e in m:
            if e < 0 and not a.startswith("e^"):
                neg[a] = max(neg.get(a, 0), -e)
    clear = _mono(*neg.items())
    if not clear:
        return num, ()
    return _num_mul(num, {clear: _ONE}), clear


# -- denominator factor shapes ----------------------------------------------


class Factor:
    """One allowed denominator factor, in normalized orientation: the
    binomial ``a - c*b`` with a before b in name order (``binom``),
    ``a - c`` (``affine``) or ``e^a - c`` (``expconst``).  A ratio such
    as ``1 - c*x1/x2`` is no shape of its own: the parser reads it as a
    binomial over the monomial x2."""

    __slots__ = ("shape", "a", "b", "c")

    def __init__(self, shape: str, a: str, b: str = "", c: Scalar = _ONE):
        if shape not in ("binom", "affine", "expconst"):
            raise KernelError(f"unknown factor shape {shape!r}")
        if shape == "binom" and a == b:
            raise KernelError("binomial factors need two distinct variables")
        if not c:
            raise KernelError(f"{shape} factor needs a nonzero constant")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    __setattr__ = __delattr__ = immutable

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.shape, self.a, self.b, self.c)
                == (other.shape, other.a, other.b, other.c))

    def __hash__(self) -> int:
        return hash((self.shape, self.a, self.b, self.c))

    def sort_key(self):
        rank = ("affine", "binom", "expconst").index(self.shape)
        return (rank, self.a, self.b, str(self.c))

    def variables(self) -> set[str]:
        return {self.a, self.b} if self.b else {self.a}


class RationalKernel:
    """num / (product of shaped factors), all exactly scalar.

    `num` is a canonical Laurent polynomial: monomials built by
    :func:`_mono`, which may hold negative powers, and no zero
    coefficient.  `den` merges equal factors.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: NumPoly, den: tuple[tuple[Factor, int], ...] = ()):
        self.num = num
        merged: dict[Factor, int] = {}
        for f, p in den:
            merged[f] = merged.get(f, 0) + p
        self.den = tuple(sorted(merged.items(),
                                key=lambda fp: fp[0].sort_key()))

    def __eq__(self, other) -> bool:
        return (isinstance(other, RationalKernel)
                and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        return hash((frozenset(self.num.items()), self.den))

    def variables(self) -> set[str]:
        out: set[str] = set()
        for m in self.num:
            for a, _e in m:
                out.add(a[2:] if a.startswith("e^") else a)
        for f, _p in self.den:
            out |= f.variables()
        return out


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9]*)|(\^|\+|\-|\*|/|\(|\)))")


def _tokenize(text: str):
    pos = 0
    depth = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise KernelParseError(text, pos,
                                       f"bad character {text[pos]!r}")
            break
        if m.group(1):
            out.append(("int", int(m.group(1)), m.start(1)))
        elif m.group(2):
            out.append(("name", m.group(2), m.start(2)))
        elif m.group(3):
            op = m.group(3)
            depth += (op == "(") - (op == ")")
            if depth > MAX_NESTING:
                raise KernelParseError(text, None, "parentheses nest more "
                                       f"than {MAX_NESTING} deep")
            out.append(("op", op, m.start(3)))
        else:
            rest = text[m.end():]
            if rest.strip():
                raise KernelParseError(text, m.end(),
                                       f"bad character {rest.strip()[0]!r}")
            break
        pos = m.end()
    out.append(("end", None, len(text)))
    return out


# Parser values: a numerator polynomial together with denominator units.
# A unit is the expanded polynomial of one syntactic group with a power
# and the text position of that group; units are classified into factor
# shapes at assembly, which reports a unit of no allowed shape at its
# position.  `fac` lists the numerator as a product of units, when it is
# one, so that 1/(...) keeps one denominator unit per factor:
# 1/((x1-x2)^2*(x1-q*x2)) has two.


class _V:
    __slots__ = ("num", "den", "fac")

    def __init__(self, num: NumPoly, den: tuple, fac: tuple | None = None):
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "fac", fac)

    __setattr__ = __delattr__ = immutable


def _atom(num: NumPoly, pos: int) -> _V:
    return _V(num, (), ((num, 1, pos),))


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        self.work = 0  # spent multiplying polynomials, in units

    def peek(self):
        return self.toks[self.i]

    def take(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def error(self, reason, pos=None):
        raise KernelParseError(self.text,
                               self.peek()[2] if pos is None else pos, reason)

    def parse(self) -> "RationalKernel":
        v = self.expr()
        if self.peek()[0] != "end":
            self.error("trailing input")
        return _assemble(self.text, v)

    def expr(self):
        v = self.term()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                w = self.term()
                v = self._add(v, self._neg(w, pos) if val == "-" else w, pos)
            else:
                return v

    def term(self):
        v = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                pos = self.peek()[2]
                w = self.unary()
                v = self._mul(v, self._inv(w, pos) if val == "/" else w)
            else:
                return v

    def unary(self):
        # unary minus binds looser than ^, so -q^2 means -(q^2); a run of
        # signs is read in a loop, so its length costs no recursion
        negate = False
        kind, val, pos = self.peek()
        while kind == "op" and val in "+-":
            self.take()
            negate ^= val == "-"
            kind, val, _ = self.peek()
        v = self.power()
        return self._neg(v, pos) if negate else v

    def power(self):
        pos = self.peek()[2]
        v = self.primary()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.take()
            sign = 1
            kind, val, _ = self.peek()
            if kind == "op" and val == "-":
                self.take()
                sign = -1
            kind, val, _ = self.peek()
            if kind != "int":
                self.error("exponent must be an integer")
            if val > MAX_EXPONENT:
                self.error(f"exponent {sign * val} is outside "
                           f"[-{MAX_EXPONENT}, {MAX_EXPONENT}]")
            self.take()
            v = self._pow(v, sign * val, pos)
        return v

    def primary(self):
        kind, val, pos = self.take()
        if kind == "int":
            return _atom({(): Scalar.from_int(val)} if val else {}, pos)
        if kind == "op" and val == "(":
            v = self.expr()
            kind2, val2, _ = self.take()
            if not (kind2 == "op" and val2 == ")"):
                self.error("unbalanced parenthesis", pos)
            if v.fac is None:
                return _V(v.num, v.den, ((v.num, 1, pos),))
            return v
        if kind == "name":
            if val == "q":
                return _atom({(): Scalar.var_q()}, pos)
            if val == "e":
                kind2, val2, _ = self.take()
                if not (kind2 == "op" and val2 == "^"):
                    self.error("'e' must be used as e^<variable>", pos)
                kind3, var, _ = self.take()
                if kind3 != "name" or var not in VARS:
                    self.error("e^ expects a variable name", pos)
                return _atom({_mono((f"e^{var}", 1)): _ONE}, pos)
            if val in VARS:
                return _atom({_mono((val, 1)): _ONE}, pos)
            self.error(f"unknown symbol {val!r}", pos)
        self.error("expected a value", pos)

    # -- value algebra -------------------------------------------------------

    def _neg(self, v: _V, pos: int) -> _V:
        minus = Scalar.from_int(-1)
        num = _num_scale(v.num, minus)
        fac = (((num, 1, pos),) if v.fac is None
               else v.fac + (({(): minus}, 1, pos),))
        return _V(num, v.den, fac)

    def _add(self, a: _V, b: _V, pos: int) -> _V:
        if a.den or b.den:
            self.error("sums with quotient terms are not in kernel form",
                       pos)
        return _V(_padd(a.num, b.num), ())

    def _times(self, a: NumPoly, b: NumPoly) -> NumPoly:
        self.work += len(a) * len(b) + _size(a) * _size(b) // 16
        if self.work > MAX_PARSE_WORK:
            self.error(f"multiplying out the products takes more than "
                       f"{MAX_PARSE_WORK} units of work")
        return _num_mul(a, b)

    def _mul(self, a: _V, b: _V) -> _V:
        fac = None if a.fac is None or b.fac is None else a.fac + b.fac
        return _V(self._times(a.num, b.num), a.den + b.den, fac)

    def _inv(self, v: _V, pos: int) -> _V:
        if v.den:
            self.error("nested quotients are not in kernel form", pos)
        if not v.num:
            self.error("division by zero", pos)
        if len(v.num) == 1:
            (m, c), = v.num.items()
            inv = _mono(*((a, -e) for a, e in m))
            return _atom({inv: _ONE / c}, pos)
        return _V({(): _ONE}, v.fac or ((v.num, 1, pos),), ())

    def _pow(self, v: _V, e: int, pos: int) -> _V:
        if e == 0:
            return _V({(): _ONE}, ())
        if e < 0:
            return self._pow(self._inv(v, pos), -e, pos)
        out: NumPoly = {(): _ONE}
        for _ in range(e):
            out = self._times(out, v.num)
        fac = None if v.fac is None else tuple((f, p * e, at)
                                               for f, p, at in v.fac)
        return _V(out, tuple((f, p * e, at) for f, p, at in v.den), fac)


def _classify_unit(text: str, unit: NumPoly,
                   pos: int) -> tuple[Factor | None, Scalar, Mono]:
    """Read one denominator unit, parsed at position pos, as
    c * factor / m, m the monomial that :func:`_split_vars` clears; a
    monomial unit is c / m, with no factor."""
    if len(unit) == 1:
        (m, c), = unit.items()
        return None, c, tuple((a, -e) for a, e in m)
    poly, clear = _split_vars(unit)
    terms = sorted(poly.items(), key=lambda mc: mc[0])
    bad = KernelParseError(
        text, pos,
        "denominator factor is not among the allowed shapes "
        "(monomial, x_i - c*x_j, 1 - c*x_i/x_j, x_i - c, e^z - c)")
    if len(terms) != 2:
        raise bad

    def is_var(m):
        return len(m) == 1 and m[0][1] == 1 and not m[0][0].startswith("e^")

    def is_exp(m):
        return len(m) == 1 and m[0][1] == 1 and m[0][0].startswith("e^")

    # the constant term sorts first, and two variables in name order
    (m1, c1), (m2, c2) = terms
    if is_var(m1) and is_var(m2):
        return Factor("binom", m1[0][0], m2[0][0], -c2 / c1), c1, clear
    if is_var(m2) and not m1:
        return Factor("affine", m2[0][0], "", -c1 / c2), c2, clear
    if is_exp(m2) and not m1:
        return Factor("expconst", m2[0][0][2:], "", -c1 / c2), c2, clear
    raise bad


def _assemble(text: str, v: _V) -> RationalKernel:
    num = v.num
    factors: list[tuple[Factor, int]] = []
    coeff = _ONE
    for unit, power, pos in v.den:
        f, c, m = _classify_unit(text, unit, pos)
        if f is not None:
            factors.append((f, power))
        coeff = coeff / c**power
        if m:
            num = _num_mul(num, {_mono(*((a, e * power) for a, e in m)):
                                 _ONE})
    return RationalKernel(_num_scale(num, coeff), tuple(factors))


def parse_kernel(text: str) -> RationalKernel:
    return _parse_kernel(text)


@lru_cache(maxsize=64)
def _parse_kernel(text: str) -> RationalKernel:
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# directed expansion
# ---------------------------------------------------------------------------


def _binom_row(k: int, p: int) -> int:
    return comb(k + p - 1, p - 1)


def _place_cert(vars: tuple[str, ...], own: str, suplo_own, cap_own,
                support: tuple[str, ...] | None = None) -> Cert:
    """A certificate complete in every variable except `own`.

    Variables outside `support` carry only exponent zero, so they are
    certified-zero below zero; that keeps caps finite when multiplied
    against windowed tables.
    """
    n = len(vars)
    sup = set(support) if support is not None else {own}
    sup.add(own)
    suplo = tuple(
        suplo_own if v == own else (NEG_INF if v in sup else 0)
        for v in vars
    )
    caps = tuple(cap_own if v == own else POS_INF for v in vars)
    return Cert(False, suplo, (NEG_INF,) * n, caps)


def _geometric(pref: Scalar, step: Scalar, p: int, n: int) -> list[Scalar]:
    """pref * C(k+p-1, p-1) * step^k for k = 0..n-1, by a running power."""
    out = []
    pw = pref
    for k in range(n):
        if k:
            pw = pw * step
        out.append(pw * _binom_row(k, p))
    return out


def _exp_factors_table(inv: ExpInverse, vars: tuple[str, ...], zv: str,
                       hi: int) -> TruncatedLaurent:
    """prod (e^zv - c)^-p over the e^zv factors of the closed form inv,
    covering zv exponents <= hi.

    It starts at zv^-kappa, kappa the power at c = 1, and holds at least
    that leading term.
    """
    lo = -inv.kappa
    top = max(hi, lo)
    return _z_table(vars, zv, lo, top, inv.series(top))


def _z_table(vars: tuple[str, ...], zv: str, lo: int, top: int,
             values) -> TruncatedLaurent:
    """The values as the zv^lo..zv^top coefficients of a table certified
    through zv^top."""
    coeffs = {tuple(t if v == zv else 0 for v in vars): u
              for t, u in enumerate(values, lo) if u}
    cert = _place_cert(vars, zv, lo, top)
    return TruncatedLaurent(vars, coeffs, cert, None, _trusted=True)


def _inv_factor_table(f: Factor, p: int, vars: tuple[str, ...],
                      own: str, hi: int) -> TruncatedLaurent:
    """Directed expansion of f**-p covering own-variable exponents <= hi,
    for a factor that is not exponential.

    One geometric series: the own variable is the one the series runs
    in, and term k is pref C(k+p-1,p-1) step^k own^k other^(-p-k).  An
    affine factor has no other variable, and its own variable is f.a.
      (a - c*b)^-p = (-c)^-p sum C(k+p-1,p-1) c^-k a^k b^(-p-k)  (own a)
                   = sum C(k+p-1,p-1) c^k b^k a^(-p-k)            (own b)
    """
    if own == f.a:
        other, pref, step = f.b, (-f.c) ** -p, _ONE / f.c
    else:
        other, pref, step = f.a, _ONE, f.c
    coeffs = {tuple(k if v == own else -p - k if v == other else 0
                    for v in vars): t
              for k, t in enumerate(_geometric(pref, step, p, hi + 1))}
    cert = _place_cert(vars, own, 0, hi, support=(f.a, f.b))
    return TruncatedLaurent(vars, coeffs, cert, None, _trusted=True)


class _Desc:
    """A table of the expansion: ``own`` is its budget variable (None for
    a polynomial), ``least[v]`` its least exponent in v (0 when v is
    missing) and ``build(b)`` the table at budget b."""

    __slots__ = ("own", "least", "build")

    def __init__(self, own: str | None, least: dict[str, int],
                 build: Callable[[int], TruncatedLaurent]):
        self.own = own
        self.least = least
        self.build = build


def _factor_desc(vars, inner, f: Factor, p: int) -> _Desc:
    own = f.a
    if f.shape == "binom":
        if inner not in (f.a, f.b):
            raise KernelError(
                f"the binom factor in {f.a}, {f.b} with c = {f.c} does "
                f"not involve the expansion variable {inner!r}")
        # the other variable keys no budget: iota_expand refuses any
        # table keyed on it next to a binomial
        own = inner
    return _Desc(own, {}, lambda b: _inv_factor_table(f, p, vars, own, b))


def _exp_desc(vars, zv: str, inv: ExpInverse) -> _Desc:
    """The e^zv factors of a kernel as one table of their closed form inv,
    which starts at zv^-kappa, kappa the power of the factor at c = 1."""
    return _Desc(zv, {zv: -inv.kappa},
                 lambda b: _exp_factors_table(inv, vars, zv, b))


def _fold_desc(vars, zv: str, rest: dict[str, int], cs: dict[int, Scalar],
               inv: ExpInverse) -> _Desc:
    """rest * sum_k cs[k] e^(k zv) times the e^zv factors of a kernel, as
    one column of their closed form inv (``ExpInverse.column``; with no
    factor, of u = 1), which starts at zv^-kappa."""
    def build(b):
        top = b - rest.get(zv, 0)
        t = _z_table(vars, zv, -inv.kappa, top, inv.column(cs, top))
        return t.shift(rest) if rest else t

    return _Desc(zv, {**rest, zv: rest.get(zv, 0) - inv.kappa}, build)


def iota_expand(k: RationalKernel, direction: tuple[str, ...],
                window: Window) -> TruncatedLaurent:
    """Expand a kernel in the iterated Laurent field chosen by `direction`.

    `direction` lists the variables outermost first; the last one is the
    series variable, the one allowed only finitely many negative powers.
    The result is certified on (at least) `window`.  Tables are shared
    between equal calls (see the module docstring), so do not mutate one.
    """
    return _iota_expand(k, tuple(direction), window)


@lru_cache(maxsize=64)
def _iota_expand(k: RationalKernel, direction: tuple[str, ...],
                 window: Window) -> TruncatedLaurent:
    vars = window.vars
    if not direction:
        raise KernelError("the direction names no variable")
    if set(direction) != set(vars) or len(direction) != len(vars):
        raise KernelError(f"direction {direction} does not match window "
                          f"variables {vars}")
    kvars = k.variables()
    if not kvars <= set(vars):
        raise KernelError(f"kernel variables {sorted(kvars)} exceed window "
                          f"variables {vars}")
    if not k.num:
        return TruncatedLaurent.zero(vars)
    inner = direction[-1]
    exps: dict[str, list] = {}
    fac_descs = []
    for f, p in k.den:
        if f.shape == "expconst":
            exps.setdefault(f.a, []).append((f.c, p))
        else:
            fac_descs.append(_factor_desc(vars, inner, f, p))

    # numerator parts, each with the factor tables it multiplies: the
    # terms free of exponentials, and for each variable v and rest
    # monomial the terms rest * c_k e^(kv), which fold in the e^v factors
    plain: NumPoly = {}
    groups: dict[tuple[str, Mono], dict[int, Scalar]] = {}
    for m, c in k.num.items():
        expat = [(a[2:], e) for a, e in m if a.startswith("e^")]
        if not expat:
            plain[m] = c
            continue
        if len(expat) > 1:
            raise KernelError("cannot expand a product of distinct "
                              "exponentials")
        (zv, kpow), = expat
        rest = tuple((a, e) for a, e in m if not a.startswith("e^"))
        groups.setdefault((zv, rest), {})[kpow] = c
    # one closed form per e^v variable, of its e^v factors (of u = 1
    # with none), read by the factor table and by each group
    invs = {zv: ExpInverse(exps.get(zv, ()), 1)
            for zv in {*exps, *(zv for zv, _rest in groups)}}
    exp_descs = {zv: _exp_desc(vars, zv, invs[zv]) for zv in exps}
    parts: list[tuple[_Desc, list[_Desc]]] = []
    if plain:
        least = {v: min(dict(m).get(v, 0) for m in plain) for v in vars}
        tab = TruncatedLaurent.polynomial(
            vars, {tuple(dict(m).get(v, 0) for v in vars): c
                   for m, c in plain.items()})
        parts.append((_Desc(None, least, lambda b: tab),
                      fac_descs + list(exp_descs.values())))
    for (zv, rest), cs in groups.items():
        parts.append((_fold_desc(vars, zv, dict(rest), cs, invs[zv]),
                      fac_descs + [d for v, d in exp_descs.items()
                                   if v != zv]))

    binomial = any(f.shape == "binom" for f, _p in k.den)
    if binomial:
        for d in (*(num for num, _facs in parts), *fac_descs,
                  *exp_descs.values()):
            if d.own not in (None, inner):
                raise KernelError(
                    f"cannot certify an expansion that mixes binomial "
                    f"denominators with a series in {d.own!r}; use a "
                    f"direction ending in {d.own!r} or expand in stages")

    # each part is a product of tables; a table's budget is the window's
    # top in its own variable minus the least exponents there of the
    # other tables of its product
    hi = dict(zip(vars, window.hi))
    table: TruncatedLaurent | None = None
    for num, facs in parts:
        descs = [num, *facs]
        t = None
        for d in descs:
            v = d.own
            b = 0 if v is None else (hi[v] + d.least.get(v, 0)
                                     - sum(e.least.get(v, 0) for e in descs))
            t = d.build(b) if t is None else t * d.build(b)
        table = t if table is None else table + t
    if len(vars) >= 2 and binomial:
        table = table.with_direction(direction)
    table.require_certified(window)
    return table.restrict(window)
