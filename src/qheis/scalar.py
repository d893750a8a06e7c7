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
coefficient and is divisible by neither ``q`` nor any ``Phi_d``.  ``R`` is
kept as a dense row, its coefficient tuple in ``q`` lowest degree first,
like the ``Phi_d``.  The q-integer and ``1/(q^k - 1)`` weights of the
deformed brackets factor completely, so ``R = 1`` in practice.  Sums then
take the lcm of the factorizations and products add exponents; the only
reduction left is trial division by the factors two operands share.
Every sum of two scalars, ``+``, ``-`` and the weighted
(a x + b y) / j, is one function, :func:`pair_sum`, and ``_padd`` is
the one sum of two sparse dicts, here and in the other modules.
Synthetic division of dense rows (``_ldiv``) is the one exact division:
by a monic ``Phi_d``, and by the gcd in ``Z[q]`` of a residual ``R != 1``
(a division by ``q - 2``, say) and the ``l``-coefficients of the
numerator.  That gcd is a primitive remainder sequence, and those
reductions are counted in ``residual_reductions``.

``num`` is a polynomial dict and ``den`` its expanded denominator, built on
first use.  Equal values have identical representations, so ``==`` and
``hash`` are structural.  A scalar keeps its hash and its printed text
once they are first asked for.

The module also holds the two scalar fields, :class:`SymbolicField`
(``SYMBOLIC``) and :class:`RationalPoint`, and the closed form of
1 / (unit * prod (e^z - c)^m), :class:`ExpInverse`, with its one memo
``_closed_form``.  Its ``column`` is the one place sum_k c_k e^(kz) is
expanded, over one denominator per z order.  The package's small data
classes derive from :class:`Record`, which compares by identity, or from
:class:`Value`, which compares by data.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import count, islice, zip_longest
from math import factorial, gcd as _int_gcd, lcm

# A polynomial is a dict mapping (q_exponent, l_exponent) -> nonzero int.
Poly = dict[tuple[int, int], int]

_ONE: Poly = {(0, 0): 1}


class ScalarError(ArithmeticError):
    pass


def immutable(self, *_args):
    """``__setattr__`` and ``__delattr__`` of the immutable classes,
    :class:`Record` and :class:`Scalar`, whose ``__init__`` sets each slot
    once with ``object.__setattr__``."""
    raise AttributeError(f"{type(self).__name__} is immutable")


class Record:
    """An immutable object that compares by identity: the base of the
    package's small data classes, whose ``__init__`` sets each slot once
    with ``object.__setattr__``."""

    __slots__ = ()

    __setattr__ = __delattr__ = immutable


class Value(Record):
    """A record that compares by its data: two values are equal when they
    are of one class (a subclass is another class) and their ``_key()``
    are equal, and a value hashes as its key.  A memo that keys on a data
    class keys on a value.  A value that keeps its hash in a ``_hash``
    slot returns that slot from its own ``__hash__``."""

    __slots__ = ()

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


# ---------------------------------------------------------------------------
# polynomial helpers (internal)
# ---------------------------------------------------------------------------


def _padd(a: dict, b: dict) -> dict:
    """a + b for two sparse dicts of coefficients, without the zero sums:
    polynomials, kernel numerators, Fock vectors and Laurent tables.

    A key missing from a is read as None, not 0: a Scalar has no
    ``__radd__``, and a vector coefficient is truthy even when zero."""
    out = dict(a)
    for m, c in b.items():
        s = out.get(m)
        s = c if s is None else s + c
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


def _content(a: Poly) -> int:
    return _int_gcd(*a.values())


# -- univariate (in q) gcd --------------------------------------------------


def _list_primitive(cs) -> list[int]:
    g = _int_gcd(*cs)
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


def _uq_gcd(a, b) -> list[int]:
    """The primitive gcd in Z[q], with a positive leading coefficient, of
    two nonzero coefficient lists (lowest degree first), by the primitive
    PRS."""
    a, b = _list_primitive(a), _list_primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _list_primitive(_uq_prem(a, b))
    return a


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


def _free_of_l(p: Poly) -> Poly:
    """p, which a denominator is about to be built from; raises unless it
    is free of l."""
    if any(el for _eq, el in p):
        raise ScalarError(f"division by {_pstr(p)}: a denominator must be "
                          "free of l")
    return p


# ---------------------------------------------------------------------------
# factored denominators
# ---------------------------------------------------------------------------

# A denominator (c, a, cyc, r) stands for c * q^a * prod Phi_d(q)^e * r, with
# c > 0, a >= 0, cyc the (d, e) pairs with e > 0 sorted by d, and r None for
# 1 or else the coefficient tuple in q, lowest degree first, of a primitive
# polynomial with a positive leading coefficient and no factor q or Phi_d.
Factored = tuple[int, int, tuple[tuple[int, int], ...],
                 "tuple[int, ...] | None"]

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
    """a / p in Z[q] for a nonzero a by synthetic division: the one exact
    polynomial division.

    None unless the division is exact.
    """
    k = len(p) - 1
    if len(a) <= k:
        return None
    r = list(a)
    lead = p[k]
    if lead == 1:
        for i in range(len(a) - 1 - k, -1, -1):
            t = r[i + k]
            if t:
                for j in range(k):
                    r[i + j] -= t * p[j]
    else:
        for i in range(len(a) - 1 - k, -1, -1):
            t, rem = divmod(r[i + k], lead)
            if rem:
                return None
            if t:
                r[i + k] = t
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


def _cyclo_product(cyc, c: int = 1, a: int = 0, r=None) -> Poly:
    """c * q^a * prod Phi_d^e * r as a polynomial, with r None for 1."""
    cs = _cyclo_coeffs(tuple(cyc))
    if r is not None:
        cs = _lmul(cs, r)
    return {(a + i, 0): c * v for i, v in enumerate(cs) if v}


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
    return _cyclo_product(cyc, c, a, r)


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
    r = tuple(dense[0])
    return sign, (c, a, tuple(cyc), None if r == (1,) else r)


def _residual_gcd(rows, r: tuple[int, ...]) -> tuple[int, ...]:
    """The gcd in Z[q] of a residual r and coefficient lists in q, (1,)
    when they are coprime."""
    global residual_reductions
    residual_reductions += 1
    g = r
    for row in rows:
        if len(g) == 1:
            break
        g = _uq_gcd(g, row)
    return tuple(g)


def _residual_lcm(rx, ry):
    """The lcm of a residual rx, None for 1, and a residual ry."""
    if rx is None or rx == ry:
        return ry
    return tuple(_lmul(rx, _ldiv(ry, _residual_gcd((ry,), rx))))


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
    # Phi_d(0) = +-1 and the residual is primitive without a factor q, so
    # neither divides a monomial
    if (cyc or r is not None) and len(num) > 1:
        dense = _dense(num)
        kept = []
        for d, e in cyc:
            dense, k = _strip_cyclo(dense, d, e)
            if k < e:
                kept.append((d, e - k))
        kept = tuple(kept)
        stripped = kept != cyc
        if r is not None:
            g = _residual_gcd(dense.values(), r)
            if g != (1,):
                dense = {el: _ldiv(cs, g) for el, cs in dense.items()}
                r = tuple(_ldiv(r, g))
                r = None if r == (1,) else r
                stripped = True
        if stripped:
            num = _sparse(dense)
            cyc = kept
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
    r = r2 if r1 is None else r1 if r2 is None else tuple(_lmul(r1, r2))
    return (c1 * c2, a1 + a2, cyc, r)


def _lift(num: Poly, k: int, s: int, cyc,
          r: tuple[int, ...] | None) -> Poly:
    """num * k * q^s * prod Phi_d^e * r, with r None for 1."""
    if k != 1 or s:
        num = {(eq + s, el): v * k for (eq, el), v in num.items()}
    if cyc or r is not None:
        num = _pmul(num, _cyclo_product(cyc, r=r))
    return num


def _fd_lcm(fds) -> Factored:
    """The lcm of factored denominators, with an integer part of 1 or
    more; a gcd is taken only where two residuals differ."""
    cs, a, cyc, r = [], 0, {}, None
    for vc, va, vcyc, vr in fds:
        cs.append(vc)
        if va > a:
            a = va
        for d, e in vcyc:
            if cyc.get(d, 0) < e:
                cyc[d] = e
        if vr is not None:
            r = _residual_lcm(r, vr)
    return lcm(*cs), a, tuple(sorted(cyc.items())), r


def _over(num: Poly, fd: Factored, to: Factored, k: int = 1) -> Poly:
    """k num / fd lifted to the denominator to, a multiple of fd: k num
    times the cofactor to / fd, read off the two factorizations."""
    c, a, cyc, r = to
    vc, va, vcyc, vr = fd
    # most lifts add no Phi_d: 3,151 of 3,298 in a symbolic fast suite
    if vcyc == cyc:
        up = ()
    else:
        have = dict(vcyc)
        up = [(d, e - have.get(d, 0)) for d, e in cyc if e > have.get(d, 0)]
    cof = None if vr == r else r if vr is None else tuple(_ldiv(r, vr))
    return _lift(num, k * (c // vc), a - va, up, cof)


def _add_apart(xn: Poly, xf: Factored, yn: Poly, yf: Factored,
               wx: int, wy: int, div: int) -> "Scalar":
    """(wx x + wy y) / div over the lcm of two different denominators,
    for nonzero integers wx, wy and div > 0.

    Both numerators are lifted to the lcm (``_over``), the weights riding
    on the cofactors.  A factor whose exponents differ divides exactly one
    of the two lifted numerators, so it cannot cancel from the sum
    (Henrici): only the integer part and div, a tied power of q, the tied
    Phi_d and the residual go to ``_cancel``, and the untied factors are
    multiplied back after.
    """
    den = _fd_lcm((xf, yf))
    num = _padd(_over(xn, xf, den, wx), _over(yn, yf, den, wy))
    if not num:
        return _S_ZERO
    c, a, cyc, r = den
    kx, ky = xf[2], yf[2]
    tied, untied = [], []
    for f in cyc:
        (tied if f in kx and f in ky else untied).append(f)
    tie = xf[1] == yf[1]
    num, fd = _cancel(num, (c * div, a if tie else 0, tuple(tied), r))
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
        return pair_sum(self, 1, other, 1, 1)

    def __sub__(self, other: "Scalar") -> "Scalar":
        if not isinstance(other, Scalar):
            return NotImplemented
        return pair_sum(self, 1, other, -1, 1)

    def __neg__(self) -> "Scalar":
        return _make(_pneg(self.num), self._fd)

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 1:
                return self
            other = Scalar.from_int(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        xn, yn = self.num, other.num
        # a factor 1 returns the other one, already canonical
        if xn == _ONE and self._fd == _PLAIN:
            return other
        if yn == _ONE and other._fd == _PLAIN:
            return self
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
        _free_of_l(other.num)
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
            h = hash((frozenset(self.num.items()), c, a, cyc, r))
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
        top = max(den)
        if len(den) > 1 or (den[top] != 1 and top[0]):
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


# -- the inverse of a product of linear factors in e^z ----------------------

# S(t, j) for j = 0..t, row t at index t, grown on demand
_STIRLING: list[tuple[int, ...]] = [(1,)]
# the z^n coefficients of (z / (e^z - 1))^j, by j, grown on demand
_NORLUND: dict[int, list[Fraction]] = {}


def _stirling_row(t: int) -> tuple[int, ...]:
    """The Stirling numbers of the second kind S(t, 0..t)."""
    while len(_STIRLING) <= t:
        prev = _STIRLING[-1] + (0,)
        _STIRLING.append((0,) + tuple(
            j * prev[j] + prev[j - 1] for j in range(1, len(prev))))
    return _STIRLING[t]


def _norlund(j: int, n: int) -> Fraction:
    """[z^n] (z / (e^z - 1))^j for j >= 1: the Norlund polynomial
    B_n^(j)(0) over n!.  Row j + 1 follows from row j by
    B_n^(j+1) = (1 - n/j) B_n^(j) - n B_(n-1)^(j), which over n! reads
    c_n^(j+1) = (1 - n/j) c_n^(j) - c_(n-1)^(j)."""
    row = _NORLUND.setdefault(j, [])
    while len(row) <= n:
        m = len(row)
        if j == 1:
            # B_m / m!: sum_(i <= m) B_i / (i! (m + 1 - i)!) = 0 for m >= 1
            row.append(Fraction(1) if not m else -sum(
                row[m - i] / factorial(i + 1) for i in range(1, m + 1)))
        else:
            _norlund(j - 1, m)
            prev = _NORLUND[j - 1]
            row.append((1 - Fraction(m, j - 1)) * prev[m]
                       - (prev[m - 1] if m else 0))
    return row[n]


def _s_power(t: int, j: int) -> Fraction:
    """[z^t] (e^z - 1)^j: j! S(t, j) / t! for j >= 0 (Graham, Knuth and
    Patashnik, Concrete Mathematics, section 7.4), and the Norlund
    coefficient [z^(t - j)] (z / (e^z - 1))^(-j) below."""
    if j < 0:
        return _norlund(-j, t - j)
    if j > t:
        return Fraction(0)
    return Fraction(factorial(j) * _stirling_row(t)[j], factorial(t))


def _qlist(p: Poly) -> list[int]:
    """A polynomial free of l as coefficients in q, lowest first."""
    return _dense(p).get(0, [])


def _ladd(a: list[int], b: list[int]) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, y in enumerate(b):
        out[i] += y
    return out


class ExpInverse:
    """The Taylor coefficients of u = 1 / (unit * prod_c (e^z - c)^(m_c)),
    over one denominator per z order, grown on demand.

    With s = e^z - 1 and kappa the multiplicity of c = 1,
    u = K s^-kappa prod_(c != 1) (1 + rho_c s)^(-m_c), with
    rho_c = 1 / (1 - c) and K = 1 / (unit * prod (1 - c)^(m_c)).  Over a
    common denominator G of the rho_c = pi_c / G the s^n coefficient of
    the product is P_n / G^n, each P_n a polynomial: a factor
    1 / (1 + rho s) maps P to P'_n = P_n - pi P'_(n-1).  The z^t
    coefficient of s^j is rational (``_s_power``), so
    u(t) = K sum_n P_n G^(t + kappa - n) [z^t] s^(n - kappa) / G^(t + kappa),
    and a cancellation gives it in canonical form.  ``series(top)``
    returns u(-kappa)..u(top): kernel terms free of e^z read it.

    ``column(cs, zneed)`` returns [z^T] sum_k cs[k] e^(kz) u for
    T = -kappa..zneed: product stacks, the e^z numerators of kernels and,
    with u = 1, e^(kz) alone.  For each z order T the table keeps the
    least common denominator D_T of u(T - J) / J! for J = 0..T + kappa
    and the numerators W_J = D_T u(T - J) / J! (``_upto``).  D_(T-1)
    divides D_T, and W_J(T) = W_(J-1)(T - 1) (D_T / D_(T-1)) / J, so each
    z order is one new cancellation and small products.  Over the same D_T
    it keeps N_k(T) = D_T [z^T] e^(kz) u = sum_J k^J W_J(T)
    (``_numerators``), one list per k grown to the deepest z order asked.
    u has no l, so W_J and N_k are coefficient tuples in q over a factored
    denominator; this class serves Q(q, l), and :class:`_PointExpInverse`
    converts for a rational point.

    A column takes one of two routes to the same dot.  When every c != 1
    is a power of q and sum_k cs[k] w^k (w = e^z) divides exactly by
    prod_(c != 1) (w - c)^(m_c), the quotient is read against the table
    of 1 / (unit * (e^z - 1)^kappa), whose D_T carries no powers of G, so
    its N_k(T) are short and the cancellation is small.  That reduced
    table comes from the memo of closed forms (``_closed_form``), so
    equal reduced tables are one table, and at kappa = 0 with the unit 1
    it is the table of u = 1.  Any other column reads this table.
    """

    __slots__ = ("kappa", "_pis", "_g", "_G", "_numk", "_base", "_stages",
                 "_ps", "_us", "_ints", "_last", "_out", "_nums", "_unit",
                 "_divisors")

    def __init__(self, factors, unit):
        parts = self._parts
        kappa = 0
        rhos = []
        divisors = []
        for c, m in factors:
            if c == 1:
                kappa += m
                continue
            divisors.append((self._q_exponent(c), m))
            cn, cf = parts(c)
            cd = _expand(cf)
            # rho_c = cd / (cd - cn), and gcd(cd, cn) = 1
            sign, fa = _factor(_free_of_l(_padd(cd, _pneg(cn))))
            rhos.append((_pneg(cd) if sign < 0 else cd, fa, m))
        G = _fd_lcm(fa for _p, fa, _m in rhos)
        un, uf = parts(unit)
        sign, ufa = _factor(_free_of_l(un))
        numk = _expand(uf) if sign > 0 else _pneg(_expand(uf))
        base = ufa
        pis = []
        for cd, fa, m in rhos:
            pi = _over(cd, fa, G)
            for _ in range(m):
                numk = _pmul(numk, pi)
                base = _fd_mul(base, G)
                pis.append(_qlist(pi))
        self.kappa = kappa
        self._unit = unit
        # (a, m) for each factor (e^z - q^a)^m at c != 1, None when some
        # c != 1 is not a power of q
        self._divisors = (None if any(a is None for a, _m in divisors)
                          else divisors)
        self._pis = pis
        self._G = G
        self._g = _qlist(_expand(G))
        self._numk = numk
        # the denominator of u(-kappa) but for its integer factor from the
        # Stirling and Norlund numbers; u(t) adds G^(t + kappa)
        self._base = base
        # the latest P'_n of each factor 1 / (1 + rho s)
        self._stages = [[] for _ in pis]
        self._ps: list[list[int]] = []
        # the u(t) that _grow reads next
        self._us = self._u_series()
        # (integer part of the denominator, content of the numerator) of
        # each u(t), the content 0 for a zero u(t)
        self._ints: list[tuple[int, int]] = []
        # D_T and the W_J of the last z order
        self._last: tuple[Factored, list[list[int]]] = (_PLAIN, [])
        self._out: list = []
        # N_k(T) for T = -kappa, .., by k
        self._nums: dict[int, list] = {}

    @staticmethod
    def _parts(x) -> tuple[Poly, Factored]:
        if isinstance(x, int):
            return ({(0, 0): x} if x else {}), _PLAIN
        return x.num, x._fd

    @staticmethod
    def _q_exponent(c) -> int | None:
        """a for a scalar c = q^a, None for any other c (and for every
        value of a rational point)."""
        if not isinstance(c, Scalar) or len(c.num) != 1:
            return None
        (e, _el), = c.num
        a = e - c._fd[1]
        return a if c == Scalar.q_power(a) else None

    @staticmethod
    def _entry(den: Factored, ws: list[list[int]]):
        return den, tuple(map(tuple, ws))

    @staticmethod
    def _horner(k: int, ws) -> tuple[int, ...]:
        """sum_j k^j ws[j] for coefficient tuples in q."""
        # a list until the end: each tuple freed on the way would stay on
        # the interpreter's free list for its size
        out: list[int] = []
        for w in reversed(ws):
            out = [k * x + y for x, y in zip_longest(out, w, fillvalue=0)]
        return tuple(out)

    @staticmethod
    def _lift(values) -> tuple[Factored, list[Poly]]:
        """The lcm den of the values' denominators and the numerators
        over it, each lifted by the cofactor its factorization gives."""
        den = _fd_lcm(v._fd for v in values)
        return den, [_over(v.num, v._fd, den) for v in values]

    @staticmethod
    def _dot(xs, ys, f: Factored, g: Factored) -> Scalar:
        """sum_i xs[i] ys[i] / (f g) for polynomials xs and coefficient
        tuples ys in q: polynomial products and one cancellation."""
        acc: dict[int, list[int]] = {}
        for x, y in zip(xs, ys):
            n = len(y)
            if not n:
                continue
            for (ea, la), ca in x.items():
                o = acc.get(la)
                if o is None:
                    o = acc[la] = []
                if len(o) < ea + n:
                    o.extend([0] * (ea + n - len(o)))
                o[ea:ea + n] = [s + ca * cb for s, cb in zip(o[ea:ea + n], y)]
        num = _sparse(acc)
        if not num:
            return _S_ZERO
        return _make(*_cancel(num, _fd_mul(f, g)))

    def _p(self, n: int) -> list[int]:
        """P_n, the s^n numerator of prod (1 + rho_c s)^(-m_c)."""
        ps = self._ps
        while len(ps) <= n:
            v = [] if ps else [1]
            for i, pi in enumerate(self._pis):
                if ps:
                    v = _ladd(v, [-x for x in _lmul(pi, self._stages[i])])
                self._stages[i] = v
            ps.append(v)
        return ps[n]

    def _u(self, t: int, base: Factored) -> tuple[Poly, Factored]:
        """u(t) in canonical form, as (numerator, factored denominator);
        base is the unit and G^(t + kappa) part of that denominator."""
        n = t + self.kappa
        weights = [_s_power(t, i - self.kappa) for i in range(n + 1)]
        lcd = lcm(*(w.denominator for w in weights))
        acc: list[int] = []
        g = self._g
        for i, w in enumerate(weights):
            acc = _lmul(acc, g) if acc else acc
            if w:
                k = w.numerator * (lcd // w.denominator)
                acc = _ladd(acc, [k * x for x in self._p(i)])
        num = _pmul(self._numk, _sparse({0: acc}))
        if not num:
            return {}, _PLAIN
        c, a, cyc, r = base
        return _cancel(num, (c * lcd, a, cyc, r))

    def _u_series(self):
        """u(-kappa), u(-kappa + 1), ... as :meth:`_u` gives them."""
        base = self._base
        for t in count(-self.kappa):
            yield self._u(t, base)
            base = _fd_mul(base, self._G)

    def series(self, top: int) -> list[Scalar]:
        """u(t) for t = -kappa..top as scalars of Q(q, l), without
        building the W_J table."""
        return [_make(*u)
                for u in islice(self._u_series(), top + self.kappa + 1)]

    def _grow(self) -> None:
        num, fd = next(self._us)
        self._ints.append((fd[0], _content(num)))
        # D_T is the lcm of the denominators of u(t) / (T - t)!, t <= T:
        # their polynomial parts grow with t, their integer parts need not
        lcd = lcm(*(c * lcm(factorial(i), n) // n for i, (c, n)
                    in enumerate(reversed(self._ints)) if n))
        prev, before = self._last
        _c, a, cyc, r = _fd_lcm((prev, fd))
        den = (lcd, a, cyc, r)
        ws = [_qlist(_over(num, fd, den)) if num else []]
        if before:
            step = _qlist(_over(_ONE, prev, den))
            ws += [[x // j for x in _lmul(w, step)] if w else []
                   for j, w in enumerate(before, 1)]
        self._last = den, ws
        self._out.append(self._entry(den, ws))

    def _upto(self, zneed: int) -> list:
        """The table's own list of (D_T, (W_0, .., W_(T+kappa))) from
        T = -kappa, grown to T = zneed or beyond."""
        while len(self._out) <= zneed + self.kappa:
            self._grow()
        return self._out

    def _numerators(self, k: int, zneed: int) -> list:
        """The table's own list of N_k(T) from T = -kappa, over the D_T
        of ``_upto``, grown to T = zneed or beyond."""
        top = zneed + self.kappa + 1
        nums = self._nums.setdefault(k, [])
        if len(nums) < top:
            nums.extend(self._horner(k, w)
                        for _den, w in self._upto(zneed)[len(nums):top])
        return nums

    def _quotient(self, ks, lifted) -> tuple[list[int], list[Poly]] | None:
        """The k and numerators of the quotient of sum_k lifted[k] w^k
        by prod_(c != 1) (w - c)^(m_c), w = e^z, when every c != 1 is a
        power of q and the division is exact; None otherwise.

        By (w - q^a) with a > 0 the division runs top-down,
        Q_(j-1) = N_j + q^a Q_j; by w - q^-b = -q^-b (1 - q^b w) it
        runs bottom-up, Q_j = N_j + q^b Q_(j-1), and the quotient takes a
        factor -q^b.  Each step is an exponent shift and one ``_padd``."""
        divisors = self._divisors
        if not divisors:
            return None
        lo = min(ks)
        ns: list[Poly] = [{}] * (max(ks) - lo + 1)
        for k, x in zip(ks, lifted):
            ns[k - lo] = x
        # a sum of lower degree in w than the divisor leaves a remainder
        if len(ns) <= sum(m for _a, m in divisors):
            return None
        sign, shift = 1, 0
        for a, m in divisors:
            b = abs(a)
            for _ in range(m):
                acc: Poly = {}
                out = []
                for x in (reversed(ns) if a > 0 else ns):
                    acc = _padd(x, {(eq + b, el): v
                                    for (eq, el), v in acc.items()})
                    out.append(acc)
                if out.pop():
                    return None
                ns = out[::-1] if a > 0 else out
            if a < 0:
                sign *= (-1) ** m
                shift += b * m
        keys = [k for k, x in enumerate(ns, lo) if x]
        return keys, [{(eq + shift, el): sign * v for (eq, el), v in x.items()}
                      for x in ns if x]

    def column(self, cs: dict, zneed: int) -> list:
        """[z^T] sum_k cs[k] e^(kz) u for T = -kappa..zneed, for a dict
        cs of values of the field by k, as values of the field.

        The cs[k] are put over one denominator.  A column that divides
        by the factors at c != 1 (``_quotient``) reads its quotient
        against the memo's table of 1 / (unit * (e^z - 1)^kappa), any
        other column reads this table; either way the numerators are
        dotted against the N_k(T), with one cancellation per T, and give
        the same canonical values."""
        den, lifted = self._lift(cs.values())
        ks = list(cs)
        table = self
        quotient = self._quotient(ks, lifted)
        if quotient is not None:
            ks, lifted = quotient
            kappa = self.kappa
            table = _closed_form(type(self), ((1, kappa),) if kappa else (),
                                 self._unit)
        out = table._upto(zneed)
        cols = [table._numerators(k, zneed) for k in ks]
        dot = self._dot
        return [dot(lifted, [col[i] for col in cols], den, out[i][0])
                for i in range(zneed + self.kappa + 1)]


@lru_cache(maxsize=16)
def _closed_form(cls, factors, unit) -> ExpInverse:
    """The table cls(factors, unit) of 1 / (unit * prod (e^z - c)^m): the
    one memo of closed-form tables, which the fields' ``exp_inverse``,
    the reduced tables of columns and so the product stacks and kernel
    expansions read.

    The entries of a z order do not depend on how deep the table goes,
    so one table per (cls, factors, unit) grows to the deepest order
    asked."""
    return cls(factors, unit)


class _PointExpInverse(ExpInverse):
    """:class:`ExpInverse` at a rational point: every value is a
    constant polynomial over an integer denominator, and the table holds
    integers.

    Its columns always read the full table (its factors are no scalars,
    so ``_q_exponent`` finds no power of q): at a point the dot is a sum
    of integer products with no G powers to cancel, and dividing by
    e^z - q0^a would take rational steps, not exponent shifts."""

    __slots__ = ()

    @staticmethod
    def _parts(x) -> tuple[Poly, Factored]:
        x = Fraction(x)
        return ({(0, 0): x.numerator} if x else {}), (x.denominator, 0, (),
                                                      None)

    @staticmethod
    def _entry(den: Factored, ws: list[list[int]]):
        return den[0], tuple(w[0] if w else 0 for w in ws)

    @staticmethod
    def _horner(k: int, values) -> int:
        out = 0
        for v in reversed(values):
            out = out * k + v
        return out

    @staticmethod
    def _lift(values) -> tuple[int, list[int]]:
        den = lcm(*(v.denominator for v in values))
        return den, [v.numerator * (den // v.denominator) for v in values]

    @staticmethod
    def _dot(xs, ys, f: int, g: int) -> Fraction:
        return Fraction(sum(x * y for x, y in zip(xs, ys)), f * g)


def _int_scaled(x: Scalar, k: int, j: int) -> Scalar:
    """k x / j for a nonzero x: only integers cancel, and x itself for
    k = j = 1."""
    if k == j == 1:
        return x
    c, a, cyc, r = x._fd
    c *= j
    g = _int_gcd(c, k * _content(x.num))
    return _make({m: v * k // g for m, v in x.num.items()},
                 (c // g, a, cyc, r))


def pair_sum(x: Scalar, wx: int, y: Scalar, wy: int, j: int) -> Scalar:
    """(wx x + wy y) / j for integers wx, wy and j > 0, in one step: the
    one sum of two scalars (``+`` and ``-`` call it).  Over one
    denominator the weighted numerators are added and cancelled once;
    over two, ``_add_apart`` lifts them to the lcm with the weights in the
    cofactors and cancels only the tied factors and the integer part.
    A zero term gives the other term scaled by integers alone."""
    xn = x.num if wx else None
    yn = y.num if wy else None
    if not yn:
        return _int_scaled(x, wx, j) if xn else _S_ZERO
    if not xn:
        return _int_scaled(y, wy, j)
    xf = x._fd
    if xf != y._fd:
        return _add_apart(xn, xf, yn, y._fd, wx, wy, j)
    num = _padd(_lift(xn, wx, 0, (), None), _lift(yn, wy, 0, (), None))
    if not num:
        return _S_ZERO
    c, a, cyc, r = xf
    return _make(*_cancel(num, xf if j == 1 else (c * j, a, cyc, r)))


class SymbolicField:
    """The symbolic field Q(q, l): every value is a :class:`Scalar`, and
    a divisor must be free of l.

    A scalar field supplies the constants that depend on q and the level:
    ``zero``, ``one``, ``level``, ``q_power(k)``, ``qint(m)`` and the
    integer constructor ``from_int``.  Everything else runs on
    ``+ - * / ** == hash bool str`` of its values, so one code path
    serves this field and the exact rationals of a
    :class:`RationalPoint`.

    A field also supplies ``pair_sum``, which forms (a x + b y) / j for
    integers a, b, j in one step, and ``exp_inverse(factors, unit)``, the
    memo's closed form of 1 / (unit * prod (e^z - c)^m)
    (:class:`ExpInverse`): its ``column`` expands every sum_k c_k e^(kz),
    and kernel terms free of e^z read its ``series``.  The table of u = 1
    is ``exp_inverse((), 1)``.
    """

    zero = _S_ZERO
    one = _S_ONE
    level = L
    from_int = staticmethod(Scalar.from_int)
    q_power = staticmethod(Scalar.q_power)
    qint = staticmethod(qint)
    pair_sum = staticmethod(pair_sum)

    @staticmethod
    def exp_inverse(factors, unit) -> ExpInverse:
        return _closed_form(ExpInverse, factors, unit)


SYMBOLIC = SymbolicField()


class RationalPoint(Value):
    """A rational point (q0, l0) with q0 outside {0, 1, -1}.

    The excluded values collapse q-integer denominators, so guarded out.
    A point is also a scalar field (see :class:`SymbolicField`): the exact
    rationals, with q and the level read as q0 and l0.  Every denominator
    the catalog builds is a power of q times cyclotomic factors, and
    those do not vanish at a rational q0 outside {0, 1, -1}.  Its
    ``exp_inverse`` (:class:`_PointExpInverse`) keeps the closed-form
    table in integers, and its columns are ``Fraction`` values.
    """

    __slots__ = ("q0", "l0", "_hash")

    zero = Fraction(0)
    one = Fraction(1)
    from_int = Fraction

    def __init__(self, q0, l0):
        q0 = Fraction(q0)
        l0 = Fraction(l0)
        if q0 in (Fraction(0), Fraction(1), Fraction(-1)):
            raise ValueError(f"q0 must avoid 0, 1, -1; got {q0}")
        object.__setattr__(self, "q0", q0)
        object.__setattr__(self, "l0", l0)
        # every memo keyed on the field hashes the point
        object.__setattr__(self, "_hash", hash((q0, l0)))

    def _key(self):
        return self.q0, self.l0

    def __hash__(self) -> int:
        return self._hash

    @property
    def level(self) -> Fraction:
        return self.l0

    def q_power(self, k: int) -> Fraction:
        return self.q0 ** k

    def qint(self, m: int) -> Fraction:
        q = self.q0
        return (q ** m - q ** -m) / (q - 1 / q)

    @staticmethod
    def exp_inverse(factors, unit) -> _PointExpInverse:
        return _closed_form(_PointExpInverse, factors, unit)

    @staticmethod
    def pair_sum(x: Fraction, wx: int, y: Fraction, wy: int,
                 j: int) -> Fraction:
        xd, yd = x.denominator, y.denominator
        return Fraction(wx * x.numerator * yd + wy * y.numerator * xd,
                        xd * yd * j)
