"""Exact scalar arithmetic over the field Q(q, l).

Scalars are quotients num/den of integer-coefficient polynomials in the
deformation parameter ``q`` and the level parameter ``l``.  Negative powers
of ``q`` are cleared into the denominator, so a Laurent monomial like
``q**-3`` is stored as ``1/q^3``.

Canonical form (kept by every operation):

* ``den`` is nonzero;
* ``gcd(num, den)`` is ``1`` in ``Z[q, l]`` (including integer content);
* the leading coefficient of ``den`` under lexicographic monomial order
  (``q`` before ``l``) is positive.

The denominator is stored factored as ``c * q^a * prod Phi_d(q)^e_d * R``:
a positive integer ``c``, a power of ``q``, cyclotomic polynomials
``Phi_d`` and a residual ``R`` that is primitive, has a positive leading
coefficient and is divisible by neither ``q`` nor any ``Phi_d``.  The
q-integer and ``1/(q^k - 1)`` weights of the deformed brackets factor
completely, so ``R = 1`` in practice.  Sums then take the lcm of the
factorizations and products add exponents; the only reduction left is
trial division by the factors two operands share, which is exact
synthetic division by a monic ``Phi_d``.  A residual ``R != 1`` (a division
by ``l`` or by ``q - 2``, say) takes the general ``Z[q, l]`` gcd; those
reductions are counted in ``residual_reductions``.

``num`` is a polynomial dict and ``den`` its expanded denominator, built on
first use.  Equal values have identical representations, so ``==`` and
``hash`` are structural.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd as _int_gcd

# A polynomial is a dict mapping (q_exponent, l_exponent) -> nonzero int.
Poly = dict[tuple[int, int], int]

_ONE: Poly = {(0, 0): 1}


class ScalarError(ArithmeticError):
    pass


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


def _pscale(a: Poly, k: int) -> Poly:
    if k == 0:
        return {}
    return {m: c * k for m, c in a.items()}


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
    while rem:
        (rq, rl), rc = _lead(rem)
        if rq < gq or rl < gl or rc % gc != 0:
            raise ScalarError("inexact polynomial division")
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


def _uq_from_list(cs: list[int]) -> Poly:
    return {(i, 0): c for i, c in enumerate(cs) if c}


def _sign_norm(a: Poly) -> Poly:
    return _pneg(a) if a and _lead(a)[1] < 0 else dict(a)


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
    """gcd in Z[q] of two polynomials with zero l-degree (primitive PRS)."""
    if not a:
        return _sign_norm(b)
    if not b:
        return _sign_norm(a)
    ca, cb = _content(a), _content(b)
    A = _list_primitive(_uq_to_list(a))
    B = _list_primitive(_uq_to_list(b))
    if len(A) < len(B):
        A, B = B, A
    if len(B) > 1 and _modp_coprime(A, B, _PROBE_P):
        return {(0, 0): _int_gcd(ca, cb)}
    while any(B):
        A, B = B, _list_primitive(_uq_prem(A, B))
    A = _list_primitive(A)
    return _pscale(_uq_from_list(A), _int_gcd(ca, cb))


# -- multivariate gcd via recursion in l ------------------------------------


def _to_l_rec(a: Poly) -> dict[int, Poly]:
    out: dict[int, Poly] = {}
    for (eq, el), c in a.items():
        out.setdefault(el, {})[(eq, 0)] = c
    return out


def _from_l_rec(a: dict[int, Poly]) -> Poly:
    out: Poly = {}
    for el, qp in a.items():
        for (eq, _z), c in qp.items():
            out[(eq, el)] = c
    return out


def _l_content(a: dict[int, Poly]) -> Poly:
    g: Poly = {}
    for qp in a.values():
        g = _uq_gcd(g, qp)
    return g


def _l_divide(a: dict[int, Poly], d: Poly) -> dict[int, Poly]:
    return {el: _pdiv_exact(qp, d) for el, qp in a.items()}


def _l_prem(a: dict[int, Poly], b: dict[int, Poly]) -> dict[int, Poly]:
    """Pseudo-remainder of a by b with respect to l."""
    da, db = max(a), max(b)
    lb = b[db]
    r = a
    while r and max(r) >= db:
        dr = max(r)
        lr = r[dr]
        # r := lb*r - lr * l^(dr-db) * b
        nr: dict[int, Poly] = {}
        for el, qp in r.items():
            nr[el] = _pmul(qp, lb)
        for el, qp in b.items():
            m = el + dr - db
            nr[m] = _padd(nr.get(m, {}), _pneg(_pmul(qp, lr)))
        r = {el: qp for el, qp in nr.items() if qp}
    return r


def _pgcd(a: Poly, b: Poly) -> Poly:
    """gcd in Z[q, l], primitive with positive leading coefficient."""
    if not a:
        return _sign_norm(b)
    if not b:
        return _sign_norm(a)
    la = _to_l_rec(a)
    lb = _to_l_rec(b)
    if max(la) == 0 and max(lb) == 0:
        return _uq_gcd(a, b)
    ca, cb = _l_content(la), _l_content(lb)
    pa, pb = _l_divide(la, ca), _l_divide(lb, cb)
    while pb:
        pa, pb = pb, _l_prem(pa, pb)
    g = _l_divide(pa, _l_content(pa))
    cg = _uq_gcd(ca, cb)
    out = _from_l_rec({el: _pmul(qp, cg) for el, qp in g.items()})
    return _sign_norm(out)


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
            atoms.insert(0, str(abs(c)))
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

# reductions that took the general Z[q, l] gcd on a residual factor
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
    """A nonzero p as (sign, factored) by trial division over Phi_d."""
    c = _int_gcd(*p.values())
    sign = -1 if p[max(p)] < 0 else 1
    a = min(p)[0]
    if len(p) == 1:
        ((_eq, el),) = p
        return sign, (c, a, (), {(0, el): 1} if el else None)
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


def _residual_gcd(a: Poly, b: Poly) -> Poly:
    global residual_reductions
    residual_reductions += 1
    return _pgcd(a, b)


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
    if cyc:
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

    __slots__ = ("num", "_fd", "_den", "_hash")

    def __init__(self, num: Poly, den: Poly):
        """The reduced fraction num / den."""
        v = _make(num, _PLAIN) / _make(den, _PLAIN)
        _set_num(self, v.num)
        _set_fd(self, v._fd)

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

    def is_zero(self) -> bool:
        return not self.num

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

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    # -- display ------------------------------------------------------------

    def __str__(self) -> str:
        ns = _pstr(self.num)
        den = self.den
        if den == _ONE:
            return ns
        if len(self.num) > 1:
            ns = f"({ns})"
        ds = _pstr(den)
        (dq, dl), dc = _lead(den)
        if len(den) > 1 or (dc != 1 and (dq or dl)):
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def __repr__(self) -> str:
        return f"Scalar({self})"


_new = object.__new__
_set_num = Scalar.num.__set__
_set_fd = Scalar._fd.__set__
_set_den = Scalar._den.__set__
_set_hash = Scalar._hash.__set__


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


class SymbolicField:
    """The scalar field Q(q, l) itself: every value is a :class:`Scalar`.

    A scalar field supplies the constants that depend on q and the level:
    ``zero``, ``one``, ``level``, ``q_power(k)``, ``qint(m)`` and the
    rational constructors ``from_int`` and ``from_fraction``.  Everything
    else runs on ``+ - * / ** == hash bool str`` of its values, so one
    code path serves this field and the exact rationals of a
    :class:`RationalPoint`.
    """

    zero = _S_ZERO
    one = _S_ONE
    level = L
    from_int = staticmethod(Scalar.from_int)
    from_fraction = staticmethod(Scalar.from_fraction)
    q_power = staticmethod(Scalar.q_power)
    qint = staticmethod(qint)

    def __repr__(self) -> str:
        return "SYMBOLIC"


SYMBOLIC = SymbolicField()


class RationalPoint:
    """A rational point (q0, l0) with q0 outside {0, 1, -1}.

    The excluded values collapse q-integer denominators, so guarded out.
    A point is also a scalar field (see :class:`SymbolicField`): the exact
    rationals, with q and the level read as q0 and l0.  Every denominator
    the catalog builds is a power of q times cyclotomic factors, and
    those do not vanish at a rational q0 outside {0, 1, -1}.
    """

    __slots__ = ("q0", "l0")

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

    def __setattr__(self, name, value):
        raise AttributeError("RationalPoint is immutable")

    @property
    def level(self) -> Fraction:
        return self.l0

    def q_power(self, k: int) -> Fraction:
        return self.q0 ** k

    def qint(self, m: int) -> Fraction:
        q = self.q0
        return (q ** m - q ** -m) / (q - 1 / q)

    def __repr__(self) -> str:
        return f"RationalPoint(q0={self.q0}, l0={self.l0})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalPoint)
            and self.q0 == other.q0
            and self.l0 == other.l0
        )

    def __hash__(self) -> int:
        return hash((self.q0, self.l0))
