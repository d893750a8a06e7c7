"""Exact scalar arithmetic in Q(q, l), with denominators free of l.

Scalars are quotients num/den of integer-coefficient polynomials: the
numerator lies in ``Z[q, l]`` and the denominator in ``Z[q]``.  The level
``l`` is central and enters the deformed brackets only in numerators, so
dividing by a polynomial of positive ``l``-degree raises
:class:`ScalarError`.  Negative powers of ``q`` are cleared into the
denominator, so a Laurent monomial like ``q**-3`` is stored as ``1/q^3``.

Canonical form (kept by every operation):

* ``den`` is nonzero and free of ``l``;
* ``gcd(num, den)`` is ``1`` in ``Z[q, l]`` (including integer content);
* the leading coefficient of ``den`` is positive.

The denominator is stored factored as ``c * q^a * prod Phi_d(q)^e_d * R``:
a positive integer ``c``, a power of ``q``, cyclotomic polynomials
``Phi_d`` and a residual ``R`` that is primitive, has a positive leading
coefficient and is divisible by neither ``q`` nor any ``Phi_d``.  The
q-integer and ``1/(q^k - 1)`` weights of the deformed brackets factor
completely, so ``R = 1`` in practice.  Sums then take the lcm of the
factorizations and products add exponents; the only reduction left is
trial division by the factors two operands share, which is exact
synthetic division by a monic ``Phi_d``.  A residual ``R != 1`` (a division
by ``q - 2``, say) takes a gcd in ``Z[q]``, of ``R`` and each
``l``-coefficient of the numerator; those reductions are counted in
``residual_reductions``.

``num`` is a polynomial dict and ``den`` its expanded denominator, built on
first use.  Equal values have identical representations, so ``==`` and
``hash`` are structural.  A scalar keeps its hash and its printed text
once they are first asked for.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from math import gcd as _int_gcd

# A polynomial is a dict mapping (q_exponent, l_exponent) -> nonzero int.
Poly = dict[tuple[int, int], int]

_ONE: Poly = {(0, 0): 1}


class ScalarError(ArithmeticError):
    pass


def immutable(self, *_args):
    """``__setattr__`` and ``__delattr__`` of an immutable value class,
    whose ``__init__`` sets each slot once with ``object.__setattr__``."""
    raise AttributeError(f"{type(self).__name__} is immutable")


# ---------------------------------------------------------------------------
# polynomial helpers (internal)
# ---------------------------------------------------------------------------


def _padd(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for m, c in b.items():
        s = out.get(m, 0) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def _pneg(a: Poly) -> Poly:
    return {m: -c for m, c in a.items()}


def _pmul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return {}
    if len(b) == 1:
        a, b = b, a
    if len(a) == 1:
        # times a monomial: an injective shift of exponents, and a product
        # of nonzero integers, so no two terms merge and none vanishes
        ((ea, la), ca), = a.items()
        return {(ea + eb, la + lb): ca * cb for (eb, lb), cb in b.items()}
    out: Poly = {}
    for (ea, la), ca in a.items():
        for (eb, lb), cb in b.items():
            m = (ea + eb, la + lb)
            s = out.get(m, 0) + ca * cb
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def _lead(a: Poly) -> tuple[tuple[int, int], int]:
    """Leading (monomial, coefficient) under lex order with q before l."""
    m = max(a)
    return m, a[m]


def _content(a: Poly) -> int:
    g = 0
    for c in a.values():
        g = _int_gcd(g, abs(c))
    return g


def _pdiv_exact(a: Poly, g: Poly) -> Poly:
    """Exact division a / g by lex long division.  Raises if not divisible."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return {}
    quot: Poly = {}
    rem = dict(a)
    (gq, gl), gc = _lead(g)
    last = None
    while rem:
        (rq, rl), rc = _lead(rem)
        if rq < gq or rl < gl or rc % gc != 0:
            raise ScalarError("inexact polynomial division")
        # each step cancels the leading term, so the lead must fall
        if last is not None and (rq, rl) >= last:
            raise ScalarError("polynomial division step left its lead")
        last = (rq, rl)
        t = ((rq - gq, rl - gl), rc // gc)
        quot[t[0]] = t[1]
        rem = _padd(rem, _pneg(_pmul({t[0]: t[1]}, g)))
    return quot


# -- univariate (in q) gcd --------------------------------------------------


def _uq_to_list(a: Poly) -> list[int]:
    d = max(eq for (eq, _l) in a)
    out = [0] * (d + 1)
    for (eq, _l), c in a.items():
        out[eq] = c
    return out


def _list_primitive(cs: list[int]) -> list[int]:
    g = 0
    for c in cs:
        g = _int_gcd(g, abs(c))
    if g == 0:
        return cs
    if cs[-1] < 0:
        g = -g
    return [c // g for c in cs]


def _uq_prem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder of univariate integer polynomials (lists)."""
    db = len(b) - 1
    lb = b[-1]
    r = list(a)
    while True:
        while r and r[-1] == 0:
            r.pop()
        if len(r) - 1 < db or not r:
            return r
        coef = r[-1]
        shift = len(r) - 1 - db
        r = [lb * c for c in r]
        for i, bc in enumerate(b):
            r[shift + i] -= coef * bc
        r.pop()


_PROBE_P = (1 << 31) - 1


def _modp_coprime(a: list[int], b: list[int], p: int) -> bool:
    """True when the mod-p images certify a constant gcd over the rationals.

    Sound because a nonconstant gcd keeps its degree mod p whenever p
    divides neither leading coefficient; a failed precondition just means
    "no certificate", never a wrong answer.
    """
    a = [c % p for c in a]
    b = [c % p for c in b]
    if not a[-1] or not b[-1]:
        return False
    while b:
        inv = pow(b[-1], -1, p)
        db = len(b) - 1
        r = a
        while len(r) > db:
            if r[-1]:
                coef = r[-1] * inv % p
                shift = len(r) - 1 - db
                for i, bc in enumerate(b):
                    r[shift + i] = (r[shift + i] - coef * bc) % p
            r.pop()
        while r and not r[-1]:
            r.pop()
        a, b = b, r
    return len(a) == 1


def _uq_gcd(a: Poly, b: Poly) -> Poly:
    """gcd in Z[q] of two nonzero polynomials with zero l-degree
    (primitive PRS), with a positive leading coefficient."""
    ca, cb = _content(a), _content(b)
    A = _list_primitive(_uq_to_list(a))
    B = _list_primitive(_uq_to_list(b))
    if len(A) < len(B):
        A, B = B, A
    if len(B) > 1 and _modp_coprime(A, B, _PROBE_P):
        return {(0, 0): _int_gcd(ca, cb)}
    while any(B):
        A, B = B, _list_primitive(_uq_prem(A, B))
    g = _int_gcd(ca, cb)
    return {(i, 0): c * g for i, c in enumerate(A) if c}


# str(int) refuses more digits than sys.get_int_max_str_digits() allows,
# a limit of at least 640 when it is on; 2,000 bits make at most 603 digits
_SHORT_BITS = 2000


def int_text(n: int) -> str:
    """The decimal digits of n, however many there are.

    A long value is split at a power of ten and each part is written on
    its own, so no single conversion meets the interpreter's digit limit
    and the process-wide limit is left as it is.
    """
    if n.bit_length() <= _SHORT_BITS:
        return str(n)
    if n < 0:
        return "-" + int_text(-n)
    k = n.bit_length() * 3 // 20  # about half the digits: log10(2) ~ 0.3
    hi, lo = divmod(n, 10 ** k)
    return int_text(hi) + int_text(lo).zfill(k)


def _pstr(a: Poly) -> str:
    if not a:
        return "0"
    parts: list[str] = []
    for (eq, el) in sorted(a, reverse=True):
        c = a[(eq, el)]
        atoms: list[str] = []
        if eq == 1:
            atoms.append("q")
        elif eq:
            atoms.append(f"q^{eq}")
        if el == 1:
            atoms.append("l")
        elif el:
            atoms.append(f"l^{el}")
        if not atoms or abs(c) != 1:
            atoms.insert(0, int_text(abs(c)))
        term = "*".join(atoms)
        if not parts:
            parts.append(term if c > 0 else "-" + term)
        else:
            parts.append(("+ " if c > 0 else "- ") + term)
    return " ".join(parts)


# ---------------------------------------------------------------------------
# factored denominators
# ---------------------------------------------------------------------------

# A denominator (c, a, cyc, r) stands for c * q^a * prod Phi_d(q)^e * r, with
# c > 0, a >= 0, cyc the (d, e) pairs with e > 0 sorted by d, and r None for
# 1 or else a primitive polynomial with a positive leading coefficient and
# no factor q or Phi_d.
Factored = tuple[int, int, tuple[tuple[int, int], ...], "Poly | None"]

_PLAIN: Factored = (1, 0, (), None)

# reductions that took a gcd in Z[q] on a residual factor
residual_reductions = 0

# Phi_d as a coefficient list, lowest degree first, built on first use
_CYCLO: dict[int, list[int]] = {}


def _lmul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _ldiv(a: list[int], p: list[int]) -> list[int] | None:
    """a / p for a nonzero a and a monic p by synthetic division.

    None unless the division is exact.
    """
    k = len(p) - 1
    if len(a) <= k:
        return None
    r = list(a)
    for i in range(len(a) - 1 - k, -1, -1):
        t = r[i + k]
        if t:
            for j in range(k):
                r[i + j] -= t * p[j]
    if any(r[:k]):
        return None
    return r[k:]


def _cyclo(d: int) -> list[int]:
    """The cyclotomic polynomial Phi_d, lowest coefficient first."""
    p = _CYCLO.get(d)
    if p is None:
        p = [-1] + [0] * (d - 1) + [1]
        for k in range(1, d):
            if d % k == 0:
                p = _ldiv(p, _cyclo(k))
        _CYCLO[d] = p
    return p


def _cyclo_product(cyc, c: int = 1, a: int = 0) -> Poly:
    """c * q^a * prod Phi_d^e as a polynomial."""
    return {(a + i, 0): c * v
            for i, v in enumerate(_cyclo_coeffs(tuple(cyc))) if v}


@lru_cache(maxsize=256)
def _cyclo_coeffs(cyc: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
    """prod Phi_d^e as a coefficient tuple, lowest degree first."""
    cs = [1]
    for d, e in cyc:
        p = _cyclo(d)
        for _ in range(e):
            cs = _lmul(cs, p)
    return tuple(cs)


def _totient(d: int) -> int:
    """Euler's phi(d), the degree of Phi_d."""
    out, m, p = d, d, 2
    while p * p <= m:
        if m % p == 0:
            out -= out // p
            while m % p == 0:
                m //= p
        p += 1
    return out - out // m if m > 1 else out


def _dense(a: Poly) -> dict[int, list[int]]:
    """a as a coefficient list in q, lowest first, per power of l."""
    out: dict[int, list[int]] = {}
    for (eq, el), c in a.items():
        cs = out.get(el)
        if cs is None:
            cs = out[el] = []
        if len(cs) <= eq:
            cs.extend([0] * (eq + 1 - len(cs)))
        cs[eq] = c
    return out


def _sparse(a: dict[int, list[int]]) -> Poly:
    return {(eq, el): c for el, cs in a.items()
            for eq, c in enumerate(cs) if c}


def _strip_cyclo(a: dict[int, list[int]], d: int, most: int):
    """Divide Phi_d out of a dense polynomial up to `most` times.

    Returns the quotient and the number of times Phi_d divided.
    """
    p = _cyclo(d)
    k = 0
    while k < most:
        out = {}
        for el, cs in a.items():
            qt = _ldiv(cs, p)
            if qt is None:
                return a, k
            out[el] = qt
        a = out
        k += 1
    return a, k


def _expand(fd: Factored) -> Poly:
    c, a, cyc, r = fd
    out = _cyclo_product(cyc, c, a)
    return out if r is None else _pmul(out, r)


def _factor(p: Poly) -> tuple[int, Factored]:
    """A nonzero p in Z[q] as (sign, factored) by trial division over
    Phi_d."""
    c = _int_gcd(*p.values())
    sign = -1 if p[max(p)] < 0 else 1
    a = min(p)[0]
    if len(p) == 1:
        return sign, (c, a, (), None)
    k = sign * c
    dense = _dense({(eq - a, el): v // k for (eq, el), v in p.items()})
    n = max(map(len, dense.values())) - 1
    cyc = []
    # phi(d) >= sqrt(d) for d > 6, so a factor Phi_d of degree <= n has
    # d <= max(6, n^2)
    d = 0
    while d < max(6, n * n):
        d += 1
        phi = _totient(d)
        if phi <= n:
            dense, e = _strip_cyclo(dense, d, n // phi)
            if e:
                cyc.append((d, e))
                n = max(map(len, dense.values())) - 1
    r = _sparse(dense)
    return sign, (c, a, tuple(cyc), None if r == _ONE else r)


def _residual_gcd(num: Poly, r: Poly) -> Poly:
    """gcd(num, r) for a numerator num and a residual r in Z[q]: any
    common factor is free of l, so it is the gcd in Z[q] of r and each
    l-coefficient of num."""
    global residual_reductions
    residual_reductions += 1
    rows: dict[int, Poly] = {}
    for (eq, el), c in num.items():
        rows.setdefault(el, {})[(eq, 0)] = c
    g = r
    for row in rows.values():
        if g == _ONE:
            break
        g = _uq_gcd(g, row)
    return g


def _cancel(num: Poly, fd: Factored) -> tuple[Poly, Factored]:
    """num and the denominator fd, both divided by their gcd."""
    c, a, cyc, r = fd
    changed = False
    if c != 1:
        g = _int_gcd(c, *num.values())
        if g != 1:
            num = {m: v // g for m, v in num.items()}
            c //= g
            changed = True
    if a:
        k = min(min(num)[0], a)
        if k:
            num = {(eq - k, el): v for (eq, el), v in num.items()}
            a -= k
            changed = True
    # Phi_d(0) = +-1, so no Phi_d divides a monomial
    if cyc and len(num) > 1:
        dense = _dense(num)
        kept = []
        for d, e in cyc:
            dense, k = _strip_cyclo(dense, d, e)
            if k < e:
                kept.append((d, e - k))
        kept = tuple(kept)
        if kept != cyc:
            num = _sparse(dense)
            cyc = kept
            changed = True
    if r is not None:
        g = _residual_gcd(num, r)
        if g != _ONE:
            num = _pdiv_exact(num, g)
            r = _pdiv_exact(r, g)
            if r == _ONE:
                r = None
            changed = True
    return num, ((c, a, cyc, r) if changed else fd)


def _fd_mul(f: Factored, g: Factored) -> Factored:
    if g == _PLAIN:
        return f
    if f == _PLAIN:
        return g
    c1, a1, k1, r1 = f
    c2, a2, k2, r2 = g
    if not k1:
        cyc = k2
    elif not k2:
        cyc = k1
    else:
        m = dict(k1)
        for d, e in k2:
            m[d] = m.get(d, 0) + e
        cyc = tuple(sorted(m.items()))
    r = r2 if r1 is None else r1 if r2 is None else _pmul(r1, r2)
    return (c1 * c2, a1 + a2, cyc, r)


def _lift(num: Poly, k: int, s: int, cyc, r: Poly | None) -> Poly:
    """num * k * q^s * prod Phi_d^e * r, with r None for 1."""
    if k != 1 or s:
        num = {(eq + s, el): v * k for (eq, el), v in num.items()}
    if cyc:
        num = _pmul(num, _cyclo_product(cyc))
    return num if r is None else _pmul(num, r)


def _add_apart(xn: Poly, xf: Factored, yn: Poly, yf: Factored) -> "Scalar":
    """x + y over the lcm of two different denominators.

    A factor whose exponents differ divides exactly one of the two lifted
    numerators, so only the integer content and the factors with tied
    exponents can cancel from the sum (Henrici).
    """
    cx, ax, kx, rx = xf
    cy, ay, ky, ry = yf
    ex, ey = dict(kx), dict(ky)
    tied, untied, lx, ly = [], [], [], []
    for d in sorted(ex.keys() | ey.keys()):
        i, j = ex.get(d, 0), ey.get(d, 0)
        if i == j:
            tied.append((d, i))
        else:
            untied.append((d, max(i, j)))
            if i < j:
                lx.append((d, j - i))
            else:
                ly.append((d, i - j))
    if rx is None or ry is None:
        r, mx, my = (rx if ry is None else ry), ry, rx
    else:
        h = _residual_gcd(rx, ry)
        mx, my = _pdiv_exact(ry, h), _pdiv_exact(rx, h)
        r = _pmul(rx, mx)
    g = _int_gcd(cx, cy)
    a = max(ax, ay)
    num = _padd(_lift(xn, cy // g, a - ax, lx, mx),
                _lift(yn, cx // g, a - ay, ly, my))
    if not num:
        return _S_ZERO
    tie = ax == ay
    num, fd = _cancel(num, (cx // g * cy, a if tie else 0, tuple(tied), r))
    return _make(num, _fd_mul(fd, (1, 0 if tie else a, tuple(untied), None)))


# ---------------------------------------------------------------------------
# Scalar
# ---------------------------------------------------------------------------


class Scalar:
    """An element of Q(q, l) in canonical form.  Immutable."""

    __slots__ = ("num", "_fd", "_den", "_hash", "_str")

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_int(cls, n: int) -> "Scalar":
        return _make({(0, 0): n} if n else {}, _PLAIN)

    @classmethod
    def from_fraction(cls, f: Fraction | int) -> "Scalar":
        f = Fraction(f)
        num = {(0, 0): f.numerator} if f.numerator else {}
        return _make(num, (f.denominator, 0, (), None))

    @classmethod
    def q_power(cls, k: int) -> "Scalar":
        if k >= 0:
            return _make({(k, 0): 1}, _PLAIN)
        return _make({(0, 0): 1}, (1, -k, (), None))

    @classmethod
    def var_q(cls) -> "Scalar":
        return cls.q_power(1)

    @classmethod
    def var_l(cls) -> "Scalar":
        return _make({(0, 1): 1}, _PLAIN)

    # -- predicates ---------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.num)

    def is_one(self) -> bool:
        return self.num == _ONE and self._fd == _PLAIN

    @property
    def den(self) -> Poly:
        """The expanded denominator."""
        try:
            return self._den
        except AttributeError:
            den = _expand(self._fd)
            _set_den(self, den)
            return den

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Scalar") -> "Scalar":
        if not isinstance(other, Scalar):
            return NotImplemented
        xn = self.num
        if not xn:
            return other
        yn = other.num
        if not yn:
            return self
        fd = self._fd
        if fd != other._fd:
            return _add_apart(xn, fd, yn, other._fd)
        num = _padd(xn, yn)
        if not num:
            return _S_ZERO
        return _make(*_cancel(num, fd))

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self.__add__(-other)

    def __neg__(self) -> "Scalar":
        return _make(_pneg(self.num), self._fd)

    def __mul__(self, other):
        if isinstance(other, int):
            other = Scalar.from_int(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        xn, yn = self.num, other.num
        if not xn or not yn:
            return _S_ZERO
        # gcd(xn yn, xden yden) = gcd(xn, yden) gcd(yn, xden)
        xn, yf = _cancel(xn, other._fd)
        yn, xf = _cancel(yn, self._fd)
        return _make(_pmul(xn, yn), _fd_mul(xf, yf))

    __rmul__ = __mul__

    def __truediv__(self, other: "Scalar") -> "Scalar":
        if isinstance(other, int):
            other = Scalar.from_int(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        if not other.num:
            raise ZeroDivisionError("scalar division by zero")
        if any(el for _eq, el in other.num):
            raise ScalarError(f"division by {_pstr(other.num)}: a "
                              "denominator must be free of l")
        if not self.num:
            return _S_ZERO
        # 1/y is den/num, with num factored once; gcd(num, den) = 1 already
        sign, fd = _factor(other.num)
        den = other.den
        return self * _make(_pneg(den) if sign < 0 else den, fd)

    def __pow__(self, k: int) -> "Scalar":
        if k < 0:
            return (_S_ONE / self) ** (-k)
        out = _S_ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- structure ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = Scalar.from_int(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.num == other.num and self._fd == other._fd

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            c, a, cyc, r = self._fd
            h = hash((frozenset(self.num.items()), c, a, cyc,
                      r and frozenset(r.items())))
            _set_hash(self, h)
            return h

    __setattr__ = __delattr__ = immutable

    # -- display ------------------------------------------------------------

    def __str__(self) -> str:
        try:
            return self._str
        except AttributeError:
            text = self._text()
            _set_str(self, text)
            return text

    def _text(self) -> str:
        ns = _pstr(self.num)
        den = self.den
        if den == _ONE:
            return ns
        if len(self.num) > 1:
            ns = f"({ns})"
        ds = _pstr(den)
        (dq, _dl), dc = _lead(den)
        if len(den) > 1 or (dc != 1 and dq):
            ds = f"({ds})"
        return f"{ns}/{ds}"


_new = object.__new__
_set_num = Scalar.num.__set__
_set_fd = Scalar._fd.__set__
_set_den = Scalar._den.__set__
_set_hash = Scalar._hash.__set__
_set_str = Scalar._str.__set__


def _make(num: Poly, fd: Factored) -> Scalar:
    """A Scalar from a numerator already coprime to the denominator fd."""
    s = _new(Scalar)
    _set_num(s, num)
    _set_fd(s, fd)
    return s


_S_ZERO = Scalar.from_int(0)
_S_ONE = Scalar.from_int(1)

ZERO = _S_ZERO
ONE = _S_ONE
Q = Scalar.var_q()
L = Scalar.var_l()


def qint(m: int) -> Scalar:
    """The symmetric q-integer (q^m - q^-m)/(q - q^-1).

    Antisymmetric in m; qint(0) == 0, qint(1) == 1, qint(2) == q + 1/q.
    """
    if m == 0:
        return _S_ZERO
    if m < 0:
        return -qint(-m)
    num = {(2 * i, 0): 1 for i in range(m)}  # q^(m-1) + q^(m-3) + ... cleared by q^(m-1)
    return _make(num, (1, m - 1, (), None))


# ---------------------------------------------------------------------------
# sums over one shared denominator
# ---------------------------------------------------------------------------

# A numerator kept in a memo is stored as rows: rows[e] holds the
# coefficients of l^e, lowest power of q first.  Dense rows are compact
# to keep and quick to multiply by a sparse polynomial.
Rows = tuple[tuple[int, ...], ...]


def lift_common(values, scales=None, rows=False
                ) -> tuple[Factored, list]:
    """One denominator den and integer polynomials nums with
    values[i] * scales[i] == nums[i] / den, as rows if asked.

    den is the lcm of the values' denominators times the least common
    denominator of the rational scales (all 1 by default), less the
    integer content it shares with every numerator.  Each numerator is
    lifted by the cofactor its factored denominator gives, so no gcd is
    taken unless two residuals differ.
    """
    fds = [v._fd for v in values]
    c, a, cyc, r = 1, 0, {}, None
    for vc, va, vcyc, vr in fds:
        c = c // _int_gcd(c, vc) * vc
        a = max(a, va)
        for d, e in vcyc:
            if cyc.get(d, 0) < e:
                cyc[d] = e
        if vr is not None and vr != r:
            r = vr if r is None else _pmul(
                r, _pdiv_exact(vr, _residual_gcd(r, vr)))
    cyc = tuple(sorted(cyc.items()))
    m = 1
    for s in scales or ():
        m = m // _int_gcd(m, s.denominator) * s.denominator
    nums = []
    for i, v in enumerate(values):
        vc, va, vcyc, vr = fds[i]
        k = c // vc
        if scales is not None:
            s = scales[i]
            k *= s.numerator * (m // s.denominator)
        have = dict(vcyc)
        up = [(d, e - have.get(d, 0)) for d, e in cyc if e > have.get(d, 0)]
        cof = None if vr == r else r if vr is None else _pdiv_exact(r, vr)
        nums.append(_lift(v.num, k, a - va, up, cof))
    g = c * m
    for x in (x for n in nums for x in n.values()):
        if g == 1:
            break
        g = _int_gcd(g, x)
    if g > 1:
        nums = [{t: x // g for t, x in n.items()} for n in nums]
    if rows:
        nums = [_rows(n) for n in nums]
    return (c * m // g, a, cyc, r), nums


def _rows(p: Poly) -> Rows:
    if not p:
        return ()
    rows = [[0] * (1 + max(eq for eq, _el in p))
            for _ in range(1 + max(el for _eq, el in p))]
    for (eq, el), x in p.items():
        rows[el][eq] = x
    return tuple(map(tuple, rows))


def horner(k: int, polys) -> Rows:
    """sum_j k^j polys[j] for polynomials as rows."""
    # lists until the end: each tuple freed on the way would stay on the
    # interpreter's free list for its size
    out: list[list[int]] = []
    for rows in reversed(polys):
        out = [[k * x + y for x, y in zip_longest(a, b, fillvalue=0)]
               for a, b in zip_longest(out, rows, fillvalue=())]
    return tuple(map(tuple, out))


def dot_over(xs, ys, f: Factored, g: Factored) -> Scalar:
    """sum_i xs[i] ys[i] / (f g) for integer polynomials xs (dicts) and
    ys (rows) and factored denominators f and g: polynomial products and
    one cancellation."""
    acc: dict[int, list[int]] = {}
    for x, y in zip(xs, ys):
        for (ea, la), ca in x.items():
            for lb, rb in enumerate(y):
                n = len(rb)
                if not n:
                    continue
                o = acc.get(la + lb)
                if o is None:
                    o = acc[la + lb] = []
                if len(o) < ea + n:
                    o.extend([0] * (ea + n - len(o)))
                o[ea:ea + n] = [s + ca * cb for s, cb in zip(o[ea:ea + n], rb)]
    num = _sparse(acc)
    if not num:
        return _S_ZERO
    return _make(*_cancel(num, _fd_mul(f, g)))


class SymbolicField:
    """The symbolic field Q(q, l): every value is a :class:`Scalar`, and
    a divisor must be free of l.

    A scalar field supplies the constants that depend on q and the level:
    ``zero``, ``one``, ``level``, ``q_power(k)``, ``qint(m)`` and the
    rational constructors ``from_int`` and ``from_fraction``.  Everything
    else runs on ``+ - * / ** == hash bool str`` of its values, so one
    code path serves this field and the exact rationals of a
    :class:`RationalPoint`.

    For sums of many products a field also supplies ``lift_common``,
    ``horner`` and ``dot_over``, which work on numerators over a shared
    denominator: here integer polynomials over a factored denominator, so
    a sum costs polynomial products and one cancellation.
    """

    zero = _S_ZERO
    one = _S_ONE
    level = L
    from_int = staticmethod(Scalar.from_int)
    from_fraction = staticmethod(Scalar.from_fraction)
    q_power = staticmethod(Scalar.q_power)
    qint = staticmethod(qint)
    lift_common = staticmethod(lift_common)
    horner = staticmethod(horner)
    dot_over = staticmethod(dot_over)


SYMBOLIC = SymbolicField()


class RationalPoint:
    """A rational point (q0, l0) with q0 outside {0, 1, -1}.

    The excluded values collapse q-integer denominators, so guarded out.
    A point is also a scalar field (see :class:`SymbolicField`): the exact
    rationals, with q and the level read as q0 and l0.  Every denominator
    the catalog builds is a power of q times cyclotomic factors, and
    those do not vanish at a rational q0 outside {0, 1, -1}.
    """

    __slots__ = ("q0", "l0", "_hash")

    zero = Fraction(0)
    one = Fraction(1)
    from_int = from_fraction = Fraction

    def __init__(self, q0, l0):
        q0 = Fraction(q0)
        l0 = Fraction(l0)
        if q0 in (Fraction(0), Fraction(1), Fraction(-1)):
            raise ValueError(f"q0 must avoid 0, 1, -1; got {q0}")
        object.__setattr__(self, "q0", q0)
        object.__setattr__(self, "l0", l0)
        # every memo keyed on the field hashes the point
        object.__setattr__(self, "_hash", hash((q0, l0)))

    __setattr__ = __delattr__ = immutable

    @property
    def level(self) -> Fraction:
        return self.l0

    def q_power(self, k: int) -> Fraction:
        return self.q0 ** k

    def qint(self, m: int) -> Fraction:
        q = self.q0
        return (q ** m - q ** -m) / (q - 1 / q)

    # the shared-denominator helpers of SymbolicField, with integer
    # numerators over an integer denominator

    @staticmethod
    def lift_common(values, scales=None, rows=False
                    ) -> tuple[int, list[int]]:
        if scales is None:
            pairs = [(v.numerator, v.denominator) for v in values]
        else:
            pairs = [(v.numerator * s.numerator, v.denominator * s.denominator)
                     for v, s in zip(values, scales)]
        den = 1
        for _n, d in pairs:
            den = den // _int_gcd(den, d) * d
        return den, [n * (den // d) for n, d in pairs]

    @staticmethod
    def horner(k: int, values) -> int:
        out = 0
        for v in reversed(values):
            out = out * k + v
        return out

    @staticmethod
    def dot_over(xs, ys, f: int, g: int) -> Fraction:
        return Fraction(sum(x * y for x, y in zip(xs, ys)), f * g)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalPoint)
            and self.q0 == other.q0
            and self.l0 == other.l0
        )

    def __hash__(self) -> int:
        return self._hash
