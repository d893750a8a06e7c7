"""Rational kernels with restricted denominators.

A kernel is a rational expression in formal variables plus the scalar
parameter ``q``, with the denominator a product of a monomial and factors
drawn from a closed list of shapes:

* variable binomials ``x1 - c*x2``;
* ratio binomials ``1 - c*x1/x2``;
* affine factors ``x1 - c``;
* exponential factors ``e^z - c``.

Here ``c`` is any nonzero scalar.  These are exactly the denominators whose
directed expansions stay inside iterated Laurent fields with computable
exactness windows; anything else is rejected when parsing.

The text grammar accepts identifiers ``x``, ``x1``, ``x2``, ``z``, the
scalar symbol ``q``, integers, ``+ - * / ^``, parentheses, and ``e^v`` for
exponentials.  Parsing a printed kernel reproduces the internal form bit
for bit.

Parsing and expansion are pure, so both are memoized for the life of the
process, each in a least-recently-used memo of 64 entries:
:func:`parse_kernel` by its text and :func:`iota_expand` by (kernel,
direction tuple, window).  Equal calls share one result object, which
callers must not mutate.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Callable

from .scalar import SYMBOLIC, Scalar
from .series import (
    Cert,
    NEG_INF,
    POS_INF,
    TruncatedLaurent,
    Window,
    exp_coeff,
    series_inverse,
)

VARS = ("x", "x1", "x2", "z")

_ONE = Scalar.from_int(1)


class KernelError(ValueError):
    pass


class KernelParseError(KernelError):
    def __init__(self, text: str, pos: int, reason: str):
        self.text = text
        self.pos = pos
        self.reason = reason
        super().__init__(f"cannot parse kernel at position {pos}: {reason}\n"
                         f"  {text}\n  {' ' * (pos + 2)}^")


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


def _num_add(a: NumPoly, b: NumPoly) -> NumPoly:
    out = dict(a)
    for m, c in b.items():
        s = out.get(m)
        s = c if s is None else s + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def _num_scale(a: NumPoly, c: Scalar) -> NumPoly:
    if not c:
        return {}
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


@dataclass(frozen=True)
class Factor:
    """One allowed denominator factor, in normalized orientation."""

    shape: str  # "binom" | "ratio" | "affine" | "expconst"
    a: str
    b: str = ""
    c: Scalar = _ONE

    def __post_init__(self):
        if self.shape not in ("binom", "ratio", "affine", "expconst"):
            raise KernelError(f"unknown factor shape {self.shape!r}")
        if self.shape in ("binom", "ratio") and self.a == self.b:
            raise KernelError("binomial factors need two distinct variables")
        if not self.c:
            raise KernelError(f"{self.shape} factor needs a nonzero constant")

    def sort_key(self):
        rank = ("affine", "binom", "ratio", "expconst").index(self.shape)
        return (rank, self.a, self.b, str(self.c))

    def text(self) -> str:
        cs = _scalar_text(self.c)
        if self.shape == "binom":
            return f"({self.a} - {cs}*{self.b})"
        if self.shape == "ratio":
            return f"(1 - {cs}*{self.a}/{self.b})"
        if self.shape == "affine":
            return f"({self.a} - {cs})"
        return f"(e^{self.a} - {cs})"

    def variables(self) -> set[str]:
        return {self.a, self.b} if self.b else {self.a}


class RationalKernel:
    """num / (monomial * product of shaped factors), all exactly scalar."""

    __slots__ = ("num", "mono_den", "den")

    def __init__(self, num: NumPoly, mono_den: Mono = (),
                 den: tuple[tuple[Factor, int], ...] = ()):
        canon: NumPoly = {}
        for m, c in num.items():
            if not c:
                continue
            mm = _mono(*m)
            s = canon.get(mm)
            s = c if s is None else s + c
            if s:
                canon[mm] = s
            else:
                canon.pop(mm, None)
        num, clear = _split_vars(canon)
        mono: dict[str, int] = {}
        for a, e in (*mono_den, *clear):
            if a.startswith("e^"):
                raise KernelError("exponentials cannot appear in the "
                                  "denominator monomial")
            mono[a] = mono.get(a, 0) + e
        if any(e < 0 for e in mono.values()):
            raise KernelError("denominator monomial powers must be positive")
        # cancel variables shared by every numerator term
        if num:
            for v in list(mono):
                m_v = min(dict(m).get(v, 0) for m in num)
                red = min(m_v, mono[v])
                if red > 0:
                    num = _num_mul(num, {_mono((v, -red)): _ONE})
                    mono[v] -= red
        self.num = num
        self.mono_den = _mono(*mono.items())
        merged: dict[Factor, int] = {}
        for f, p in den:
            if p < 0:
                raise KernelError("negative factor power in denominator")
            if p:
                merged[f] = merged.get(f, 0) + p
        self.den = tuple(sorted(merged.items(),
                                key=lambda fp: fp[0].sort_key()))

    # -- algebra -------------------------------------------------------------

    def __mul__(self, other: "RationalKernel") -> "RationalKernel":
        return RationalKernel(
            _num_mul(self.num, other.num),
            _mono(*self.mono_den, *other.mono_den),
            self.den + other.den,
        )

    def scale(self, c: Scalar) -> "RationalKernel":
        return RationalKernel(_num_scale(self.num, c), self.mono_den, self.den)

    def __eq__(self, other) -> bool:
        return (isinstance(other, RationalKernel)
                and self.num == other.num
                and self.mono_den == other.mono_den
                and self.den == other.den)

    def __hash__(self):
        return hash((frozenset(self.num.items()), self.mono_den, self.den))

    def variables(self) -> set[str]:
        out: set[str] = set()
        for m in self.num:
            for a, _e in m:
                out.add(a[2:] if a.startswith("e^") else a)
        for a, _e in self.mono_den:
            out.add(a)
        for f, _p in self.den:
            out |= f.variables()
        return out

    # -- display -------------------------------------------------------------

    def text(self) -> str:
        num = _num_text(self.num)
        dens: list[str] = []
        for a, e in self.mono_den:
            dens.append(a if e == 1 else f"{a}^{e}")
        for f, p in self.den:
            dens.append(f.text() if p == 1 else f"{f.text()}^{p}")
        if not dens:
            return num
        if len(self.num) > 1:
            num = f"({num})"
        return num + "/" + "/".join(dens)

    __str__ = text

    def __repr__(self):
        return f"RationalKernel({self.text()!r})"


def _scalar_text(c: Scalar) -> str:
    s = str(c)
    if re.fullmatch(r"\d+(\*q(\^\d+)?)?|q(\^\d+)?", s):
        return s
    if re.fullmatch(r"[^/+\- ()]+/[^/+\- ()]+", s):
        return s
    return f"({s})"


def _mono_text(m: Mono) -> str:
    return "*".join(a if e == 1 else f"{a}^{e}" for a, e in m)


def _num_text(num: NumPoly) -> str:
    if not num:
        return "0"
    terms = sorted(num.items(), key=lambda mc: tuple(
        (_atom_key(a), -e) for a, e in mc[0]))
    out = []
    for m, c in terms:
        mono = _mono_text(m)
        neg = len(c.num) == 1 and next(iter(c.num.values())) < 0
        cc = -c if neg else c
        if mono and cc.is_one():
            body = mono
        elif mono:
            body = f"{_scalar_text(cc)}*{mono}"
        else:
            body = _scalar_text(cc)
        if not out:
            out.append(("-" if neg else "") + body)
        else:
            out.append(("- " if neg else "+ ") + body)
    return " ".join(out)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9]*)|(\^|\+|\-|\*|/|\(|\)))")


def _tokenize(text: str):
    pos = 0
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
            out.append(("op", m.group(3), m.start(3)))
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
# A unit is the expanded polynomial of one syntactic group with a power;
# units are classified into factor shapes at assembly.  `fac` lists the
# numerator as a product of units, when it is one, so that 1/(...) keeps
# one denominator unit per factor: 1/((x1-x2)^2*(x1-q*x2)) has two.


@dataclass(frozen=True)
class _V:
    num: tuple
    den: tuple
    fac: tuple | None = None


def _freeze(num: NumPoly):
    return tuple(sorted(num.items(), key=lambda mc: mc[0]))


def _thaw(fr) -> NumPoly:
    return dict(fr)


def _atom(num: NumPoly) -> _V:
    fr = _freeze(num)
    return _V(fr, (), ((fr, 1),))


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0

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
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                w = self.term()
                v = self._add(v, self._neg(w) if val == "-" else w)
            else:
                return v

    def term(self):
        v = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                w = self.unary()
                v = self._mul(v, self._inv(w) if val == "/" else w)
            else:
                return v

    def unary(self):
        # unary minus binds looser than ^, so -q^2 means -(q^2)
        kind, val, _ = self.peek()
        if kind == "op" and val in "+-":
            self.take()
            v = self.unary()
            return self._neg(v) if val == "-" else v
        return self.power()

    def power(self):
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
            self.take()
            v = self._pow(v, sign * val)
        return v

    def primary(self):
        kind, val, pos = self.take()
        if kind == "int":
            return _atom({(): Scalar.from_int(val)} if val else {})
        if kind == "op" and val == "(":
            v = self.expr()
            kind2, val2, _ = self.take()
            if not (kind2 == "op" and val2 == ")"):
                self.error("unbalanced parenthesis", pos)
            if v.fac is None:
                return _V(v.num, v.den, ((v.num, 1),))
            return v
        if kind == "name":
            if val == "q":
                return _atom({(): Scalar.var_q()})
            if val == "e":
                kind2, val2, _ = self.take()
                if not (kind2 == "op" and val2 == "^"):
                    self.error("'e' must be used as e^<variable>", pos)
                kind3, var, _ = self.take()
                if kind3 != "name" or var not in VARS:
                    self.error("e^ expects a variable name", pos)
                return _atom({_mono((f"e^{var}", 1)): _ONE})
            if val in VARS:
                return _atom({_mono((val, 1)): _ONE})
            self.error(f"unknown symbol {val!r}", pos)
        self.error("expected a value", pos)

    # -- value algebra -------------------------------------------------------

    def _neg(self, v: _V) -> _V:
        minus = _freeze({(): Scalar.from_int(-1)})
        num = _freeze(_num_scale(_thaw(v.num), Scalar.from_int(-1)))
        fac = ((num, 1),) if v.fac is None else v.fac + ((minus, 1),)
        return _V(num, v.den, fac)

    def _add(self, a: _V, b: _V) -> _V:
        if a.den or b.den:
            self.error("sums with quotient terms are not in kernel form")
        return _V(_freeze(_num_add(_thaw(a.num), _thaw(b.num))), ())

    def _mul(self, a: _V, b: _V) -> _V:
        fac = None if a.fac is None or b.fac is None else a.fac + b.fac
        return _V(_freeze(_num_mul(_thaw(a.num), _thaw(b.num))),
                  a.den + b.den, fac)

    def _inv(self, v: _V) -> _V:
        if v.den:
            self.error("nested quotients are not in kernel form")
        num = _thaw(v.num)
        if not num:
            self.error("division by zero")
        if len(num) == 1:
            (m, c), = num.items()
            inv = _mono(*((a, -e) for a, e in m))
            return _atom({inv: _ONE / c})
        return _V(_freeze({(): _ONE}), v.fac or ((v.num, 1),), ())

    def _pow(self, v: _V, e: int) -> _V:
        if e == 0:
            return _V(_freeze({(): _ONE}), ())
        if e < 0:
            return self._pow(self._inv(v), -e)
        num = _thaw(v.num)
        out: NumPoly = {(): _ONE}
        for _ in range(e):
            out = _num_mul(out, num)
        fac = None if v.fac is None else tuple((f, p * e) for f, p in v.fac)
        return _V(_freeze(out), tuple((f, p * e) for f, p in v.den), fac)


def _classify_unit(text: str, unit: NumPoly) -> tuple[Factor, Scalar]:
    """Match one denominator unit against the allowed shapes."""
    poly, clear = _split_vars(unit)
    terms = sorted(poly.items(), key=lambda mc: mc[0])
    bad = KernelParseError(
        text, 0,
        "denominator factor is not among the allowed shapes "
        "(monomial, x_i - c*x_j, 1 - c*x_i/x_j, x_i - c, e^z - c)")
    if len(terms) != 2:
        raise bad

    def is_var(m):
        return len(m) == 1 and m[0][1] == 1 and not m[0][0].startswith("e^")

    def is_exp(m):
        return len(m) == 1 and m[0][1] == 1 and m[0][0].startswith("e^")

    (m1, c1), (m2, c2) = terms
    if not clear:
        if is_var(m1) and is_var(m2):
            a, b = m1[0][0], m2[0][0]
            if a > b:
                a, b, c1, c2 = b, a, c2, c1
            return Factor("binom", a, b, -c2 / c1), c1
        if is_var(m1) and not m2:
            return Factor("affine", m1[0][0], "", -c2 / c1), c1
        if is_var(m2) and not m1:
            return Factor("affine", m2[0][0], "", -c1 / c2), c2
        if is_exp(m1) and not m2:
            return Factor("expconst", m1[0][0][2:], "", -c2 / c1), c1
        if is_exp(m2) and not m1:
            return Factor("expconst", m2[0][0][2:], "", -c1 / c2), c2
        raise bad
    # an embedded ratio: expect (x_j - c*x_i)/x_j == 1 - c*x_i/x_j
    if len(clear) == 1 and clear[0][1] == 1 and is_var(m1) and is_var(m2):
        j = clear[0][0]
        if m1[0][0] == j:
            cj, mi, ci = c1, m2, c2
        elif m2[0][0] == j:
            cj, mi, ci = c2, m1, c1
        else:
            raise bad
        return Factor("ratio", mi[0][0], j, -ci / cj), cj
    raise bad


def _assemble(text: str, v: _V) -> RationalKernel:
    num = _thaw(v.num)
    factors: list[tuple[Factor, int]] = []
    coeff = _ONE
    for fr, power in v.den:
        unit = _thaw(fr)
        if len(unit) == 1:
            (m, c), = unit.items()
            num = _num_mul(num, {_mono(*((a, -e * power) for a, e in m)):
                                 _ONE / c**power})
            continue
        f, c = _classify_unit(text, unit)
        coeff = coeff / c**power
        factors.append((f, power))
    try:
        return RationalKernel(_num_scale(num, coeff), (), tuple(factors))
    except KernelParseError:
        raise
    except KernelError as err:
        raise KernelParseError(text, 0, str(err)) from None


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
                band=(NEG_INF, POS_INF),
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
    return Cert(False, suplo, (NEG_INF,) * n, caps, band)


def _exp_power_table(vars: tuple[str, ...], zv: str, k: int,
                     order: int) -> TruncatedLaurent:
    """e^(k*zv) through zv^order on the given variable tuple."""
    i = vars.index(zv)
    n = len(vars)
    coeffs = {}
    for j in range(max(order, 0) + 1):
        v = exp_coeff(k, j, SYMBOLIC)
        if v:
            coeffs[tuple(j if t == i else 0 for t in range(n))] = v
    cert = _place_cert(vars, zv, 0, max(order, 0), (0, POS_INF))
    return TruncatedLaurent(vars, coeffs, cert, None, _trusted=True)


def _exp_minus_const(zvar: str, c: Scalar, order: int) -> TruncatedLaurent:
    """The one-variable series of e^z - c, certified through z^order."""
    coeffs = {}
    for j in range(order + 1):
        v = exp_coeff(1, j, SYMBOLIC)
        if j == 0:
            v = v - c
        if v:
            coeffs[(j,)] = v
    lead = 0 if (_ONE - c) else 1
    cert = Cert(False, (lead,), (NEG_INF,), (order,), (lead, POS_INF))
    return TruncatedLaurent((zvar,), coeffs, cert, None, _trusted=True)


def _geometric(pref: Scalar, step: Scalar, p: int, n: int) -> list[Scalar]:
    """pref * C(k+p-1, p-1) * step^k for k = 0..n-1, by a running power."""
    out = []
    pw = pref
    for k in range(n):
        if k:
            pw = pw * step
        out.append(pw * _binom_row(k, p))
    return out


def _inv_factor_table(f: Factor, p: int, vars: tuple[str, ...],
                      inner: str, hi: int) -> TruncatedLaurent:
    """Directed expansion of f**-p covering own-variable exponents <= hi."""

    def place(assign: dict[str, int]) -> tuple[int, ...]:
        return tuple(assign.get(v, 0) for v in vars)

    if f.shape == "affine":
        # (x - c)^-p = (-c)^-p sum_k C(k+p-1,p-1) c^-k x^k
        terms = _geometric((-f.c) ** -p, _ONE / f.c, p, hi + 1)
        coeffs = {place({f.a: k}): v for k, v in enumerate(terms)}
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

    # two-variable binomial shapes, parametrized by the series variable:
    # the k-th term is pref C(k+p-1,p-1) step^k inner^(smin+k) other^(-drop-k)
    xi, xj, c = f.a, f.b, f.c
    other = xj if inner == xi else xi
    ratio = f.shape == "ratio"
    smin = p if ratio and inner == xj else 0
    drop = 0 if ratio and inner == xi else p
    if (inner == xi) != ratio:
        # (xi - c*xj)^-p = (-c)^-p xj^-p sum C(k+p-1,p-1) c^-k xi^k xj^-k
        # (1 - c*xi/xj)^-p
        #     = (-c)^-p (xj/xi)^p sum C(k+p-1,p-1) c^-k xj^k xi^-k
        pref, step = (-c) ** -p, _ONE / c
    else:
        # (xi - c*xj)^-p = xi^-p sum C(k+p-1,p-1) c^k xj^k xi^-k
        # (1 - c*xi/xj)^-p = sum C(k+p-1,p-1) c^k xi^k xj^-k
        pref, step = _ONE, c
    terms = _geometric(pref, step, p, hi - smin + 1)
    coeffs = {place({inner: smin + k, other: -drop - k}): v
              for k, v in enumerate(terms)}
    band = 0 if ratio else -p
    cert = _place_cert(vars, inner, smin, hi, (band, band),
                       support=(f.a, f.b))
    return TruncatedLaurent(vars, coeffs, cert, None, _trusted=True)


@dataclass
class _Desc:
    own: str | None                         # budget-parametrizing variable
    minf: Callable[[str, int | None], int]  # exponent lower bound per var
    build: Callable[[int], TruncatedLaurent]


def _factor_desc(vars, inner, f: Factor, p: int) -> _Desc:
    if f.shape in ("binom", "ratio"):
        if inner not in (f.a, f.b):
            raise KernelError(
                f"factor {f.text()} does not involve the expansion "
                f"variable {inner!r}")
        smin = p if (f.shape == "ratio" and inner == f.b) else 0
        other = f.b if inner == f.a else f.a
        drop = 0 if (f.shape == "ratio" and inner == f.a) else p

        def minf(v, budget):
            if v == inner:
                return smin
            if v == other:
                assert budget is not None
                return -drop - max(budget - smin, 0)
            return 0

        return _Desc(inner, minf,
                     lambda b: _inv_factor_table(f, p, vars, inner, b))
    if f.shape == "affine":
        return _Desc(f.a, lambda v, b: 0,
                     lambda b: _inv_factor_table(f, p, vars, inner, b))
    # expconst: leading exponent is at worst -p
    return _Desc(f.a, lambda v, b, f=f, p=p: -p if v == f.a else 0,
                 lambda b: _inv_factor_table(f, p, vars, inner, b))


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
    moff = dict(k.mono_den)
    hi_pre = {v: window.hi[i] + moff.get(v, 0) for i, v in enumerate(vars)}

    # numerator: a polynomial part plus exponential terms
    num_descs: list[_Desc] = []
    plain: NumPoly = {}
    for m, c in k.num.items():
        expat = [a for a, _e in m if a.startswith("e^")]
        if not expat:
            plain[m] = c
            continue
        if len(expat) > 1:
            raise KernelError("cannot expand a product of distinct "
                              "exponentials")
        zv = expat[0][2:]
        kpow = dict(m)[expat[0]]
        rest = {a: e for a, e in m if not a.startswith("e^")}

        def mk(zv=zv, kpow=kpow, rest=rest, c=c):
            def build(b):
                t = _exp_power_table(vars, zv, kpow, b)
                if rest or not c.is_one():
                    t = t.shift(rest, c)
                return t
            return _Desc(zv, lambda v, b: rest.get(v, 0), build)

        num_descs.append(mk())
    if plain:
        mono_min = {v: min(dict(m).get(v, 0) for m in plain) for v in vars}
        tab = TruncatedLaurent.polynomial(
            vars, {tuple(dict(m).get(v, 0) for v in vars): c
                   for m, c in plain.items()})
        num_descs.append(_Desc(None, lambda v, b: mono_min[v],
                               lambda b: tab))

    fac_descs = [_factor_desc(vars, inner, f, p) for f, p in k.den]

    if any(f.shape in ("binom", "ratio") for f, _p in k.den):
        for d in (*num_descs, *fac_descs):
            if d.own not in (None, inner):
                raise KernelError(
                    f"cannot certify an expansion that mixes binomial "
                    f"denominators with a series in {d.own!r}; use a "
                    f"direction ending in {d.own!r} or expand in stages")

    def num_min(v: str) -> int:
        return min(d.minf(v, None) for d in num_descs)

    # pass 1: budgets for tables parametrized by the series variable
    budgets: dict[int, int] = {}
    nbudgets: dict[int, int] = {}
    fim = [d.minf(inner, None) for d in fac_descs]
    tot_inner = num_min(inner) + sum(fim)
    for i, d in enumerate(fac_descs):
        if d.own == inner:
            budgets[i] = hi_pre[inner] - (tot_inner - fim[i])
    for j, d in enumerate(num_descs):
        if d.own == inner:
            nbudgets[j] = hi_pre[inner] - (tot_inner - num_min(inner))
    # pass 2: remaining variables, with series-variable budgets resolved
    for v in vars:
        if v == inner:
            continue
        fvm = [d.minf(v, budgets.get(i)) for i, d in enumerate(fac_descs)]
        tot = num_min(v) + sum(fvm)
        for i, d in enumerate(fac_descs):
            if d.own == v:
                budgets[i] = hi_pre[v] - (tot - fvm[i])
        for j, d in enumerate(num_descs):
            if d.own == v:
                nbudgets[j] = hi_pre[v] - (tot - num_min(v))

    table: TruncatedLaurent | None = None
    for j, d in enumerate(num_descs):
        t = d.build(nbudgets.get(j, 0))
        table = t if table is None else table + t
    for i, d in enumerate(fac_descs):
        table = table * d.build(budgets[i])
    if moff:
        table = table.shift({v: -e for v, e in moff.items()})
    if len(vars) >= 2 and any(f.shape in ("binom", "ratio")
                              for f, _p in k.den):
        table = table.with_direction(direction)
    table.require_certified(window)
    return table.restrict(window)
