"""Truncated multivariate Laurent distributions with certified windows.

The central object, :class:`TruncatedLaurent`, is a finite coefficient table
standing in for an infinite formal distribution.  Alongside the table it
carries a *certificate*, describing exactly which coefficients of the
true object the table is guaranteed to reproduce:

* ``entire``     -- the table IS the whole object (a Laurent polynomial);
* ``floors[i]``, ``caps[i]`` -- the certified box, floors[i] <= e_i <= caps[i];
* ``suplo[i]``   -- true support satisfies e_i >= suplo[i]  (may be -oo).

A coefficient e is *certified* when the table is entire or e lies in the
certified box.  The support bound certifies nothing by itself: it feeds
the box of a product, and where it reaches the bottom of a window the
box built on that window (``Cert.box``, ``restrict``) keeps floor -oo,
since every coefficient below is zero.  All arithmetic propagates
certificates conservatively, so a certified coefficient of any derived
table equals the corresponding coefficient of the true object.

Expansion direction.  Iterated Laurent expansions of one rational function
differ by direction, so every table may carry a ``direction`` tag: the tuple
of variables ordered outermost first (the last variable is the series
variable).  Combining tables with conflicting tags is an error; honest
distributions and polynomials carry ``None`` and mix with anything.

Coefficient values are duck-typed: exact scalars or module vectors, anything
with ``+``, ``-``, ``==``, truthiness, and left-multiplication by a scalar.
"""

from __future__ import annotations

import itertools
from math import comb, inf
from typing import Any, Iterable

from .report import FAIL, INCONCLUSIVE, PASS, CheckReport, scan
from .scalar import Scalar, immutable

NEG_INF = -inf
POS_INF = inf

ExtInt = Any  # int or +-inf


class SeriesError(ValueError):
    pass


class DirectionError(SeriesError):
    """Raised when tables with conflicting expansion directions are mixed."""


class CertificationError(SeriesError):
    """Raised when a requested coefficient is outside the certified region."""


def _cap_add(cap: ExtInt, lo: ExtInt) -> ExtInt:
    """Combine a certification cap with a support lower bound."""
    if cap == POS_INF:
        return POS_INF
    if lo == NEG_INF:
        return NEG_INF
    return cap + lo


def _floor_add(floor: ExtInt, hi: ExtInt) -> ExtInt:
    if floor == NEG_INF:
        return NEG_INF
    if hi == POS_INF:
        return POS_INF
    return floor + hi


def _lo_add(a: ExtInt, b: ExtInt) -> ExtInt:
    if a == NEG_INF or b == NEG_INF:
        return NEG_INF
    return a + b


def _hi_add(a: ExtInt, b: ExtInt) -> ExtInt:
    if a == POS_INF or b == POS_INF:
        return POS_INF
    return a + b


class Window:
    """An inclusive box of exponents over an ordered tuple of variables."""

    __slots__ = ("vars", "lo", "hi")

    def __init__(self, vars: tuple[str, ...], lo: tuple[int, ...],
                 hi: tuple[int, ...]):
        if len(set(vars)) != len(vars):
            raise SeriesError(f"duplicate variables in window: {vars}")
        if not (len(vars) == len(lo) == len(hi)):
            raise SeriesError("window bounds must align with variables")
        for a, b in zip(lo, hi):
            if a > b:
                raise SeriesError(f"empty window range [{a}, {b}]")
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    __setattr__ = __delattr__ = immutable

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.vars, self.lo, self.hi)
                == (other.vars, other.lo, other.hi))

    def __hash__(self) -> int:
        return hash((self.vars, self.lo, self.hi))

    @classmethod
    def cube(cls, vars: Iterable[str], radius: int) -> "Window":
        vs = tuple(vars)
        return cls(vs, tuple(-radius for _ in vs), tuple(radius for _ in vs))

    def exponents(self) -> Iterable[tuple[int, ...]]:
        return itertools.product(
            *(range(a, b + 1) for a, b in zip(self.lo, self.hi))
        )

    def __contains__(self, e: tuple[int, ...]) -> bool:
        return all(a <= x <= b for x, a, b in zip(e, self.lo, self.hi))

    def size(self) -> int:
        n = 1
        for a, b in zip(self.lo, self.hi):
            n *= b - a + 1
        return n

    def describe(self) -> str:
        return ", ".join(
            f"{v} in [{a}, {b}]" for v, a, b in zip(self.vars, self.lo, self.hi)
        )


class Cert:
    """Exactness certificate for a truncated table."""

    __slots__ = ("entire", "suplo", "floors", "caps")

    def __init__(self, entire: bool, suplo: tuple[ExtInt, ...],
                 floors: tuple[ExtInt, ...], caps: tuple[ExtInt, ...]):
        object.__setattr__(self, "entire", entire)
        object.__setattr__(self, "suplo", suplo)
        object.__setattr__(self, "floors", floors)
        object.__setattr__(self, "caps", caps)

    __setattr__ = __delattr__ = immutable

    @classmethod
    def full(cls, n: int) -> "Cert":
        return cls(True, (NEG_INF,) * n, (NEG_INF,) * n, (POS_INF,) * n)

    @classmethod
    def box(cls, lo: tuple[int, ...], hi: tuple[int, ...],
            suplo: tuple[ExtInt, ...] | None = None) -> "Cert":
        """Exact on the box [lo, hi]; below lo in a variable whose support
        starts at or above lo, every coefficient is zero."""
        if suplo is None:
            suplo = (NEG_INF,) * len(lo)
        floors = tuple(NEG_INF if l <= s else l for s, l in zip(suplo, lo))
        return cls(False, tuple(suplo), floors, tuple(hi))


class TruncatedLaurent:
    """A certified finite window of a formal Laurent distribution."""

    __slots__ = ("vars", "direction", "coeffs", "cert")

    def __init__(self, vars: tuple[str, ...],
                 coeffs: dict[tuple[int, ...], Any],
                 cert: Cert,
                 direction: tuple[str, ...] | None = None,
                 _trusted: bool = False):
        self.vars = tuple(vars)
        if direction is not None and set(direction) != set(self.vars):
            raise DirectionError(
                f"direction {direction} does not cover variables {vars}")
        self.direction = tuple(direction) if direction else None
        self.cert = cert
        if _trusted:
            self.coeffs = coeffs
        else:
            self.coeffs = {
                e: c for e, c in coeffs.items()
                if c and _certified(cert, e)
            }

    # -- construction --------------------------------------------------------

    @classmethod
    def polynomial(cls, vars: tuple[str, ...],
                   coeffs: dict[tuple[int, ...], Any]) -> "TruncatedLaurent":
        """An exactly-known Laurent polynomial (direction neutral)."""
        coeffs = {e: c for e, c in coeffs.items() if c}
        return cls(vars, coeffs, Cert.full(len(vars)), None, _trusted=True)

    @classmethod
    def zero(cls, vars: tuple[str, ...]) -> "TruncatedLaurent":
        return cls.polynomial(vars, {})

    # -- inspection ----------------------------------------------------------

    def coeff(self, e: tuple[int, ...], zero: Any = None) -> Any:
        """The certified coefficient at e; raises outside the certificate."""
        if not _certified(self.cert, e):
            raise CertificationError(
                f"coefficient {dict(zip(self.vars, e))} is outside the "
                f"certified region")
        c = self.coeffs.get(e)
        if c is not None:
            return c
        return Scalar.from_int(0) if zero is None else zero

    def certifies_window(self, w: Window) -> bool:
        """Whether the whole window is certified: whether the certified
        box holds it."""
        self._align_window(w)
        c = self.cert
        return c.entire or all(f <= a and b <= cap for f, cap, a, b
                               in zip(c.floors, c.caps, w.lo, w.hi))

    def require_certified(self, w: Window) -> None:
        if not self.certifies_window(w):
            raise CertificationError(
                f"window {w.describe()} is not fully certified")

    def _align_window(self, w: Window) -> None:
        if w.vars != self.vars:
            raise SeriesError(
                f"window variables {w.vars} do not match table {self.vars}")

    def support(self) -> list[tuple[int, ...]]:
        return sorted(self.coeffs)

    def is_zero_on(self, w: Window) -> bool:
        return all(not self.coeffs.get(e) for e in w.exponents())

    # -- direction plumbing --------------------------------------------------

    def _merge_direction(self, other: "TruncatedLaurent") ->\
            tuple[str, ...] | None:
        if self.direction is None:
            return other.direction
        if other.direction is None or other.direction == self.direction:
            return self.direction
        raise DirectionError(
            f"cannot combine expansion directions {self.direction} "
            f"and {other.direction}")

    def with_direction(self, direction: tuple[str, ...] | None)\
            -> "TruncatedLaurent":
        return TruncatedLaurent(self.vars, self.coeffs, self.cert,
                                direction, _trusted=True)

    # -- linear structure ----------------------------------------------------

    def __add__(self, other: "TruncatedLaurent") -> "TruncatedLaurent":
        if not isinstance(other, TruncatedLaurent):
            return NotImplemented
        if other.vars != self.vars:
            raise SeriesError(f"variable mismatch: {self.vars} vs {other.vars}")
        direction = self._merge_direction(other)
        cert = _add_cert(self, other)
        coeffs = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = coeffs.get(e)
            s = c if s is None else s + c
            if s:
                coeffs[e] = s
            else:
                coeffs.pop(e, None)
        return TruncatedLaurent(self.vars, coeffs, cert, direction)

    def __sub__(self, other: "TruncatedLaurent") -> "TruncatedLaurent":
        return self + (-other)

    def __neg__(self) -> "TruncatedLaurent":
        return TruncatedLaurent(
            self.vars, {e: -c for e, c in self.coeffs.items()},
            self.cert, self.direction, _trusted=True)

    def scale(self, s: Scalar) -> "TruncatedLaurent":
        if not s:
            return TruncatedLaurent.zero(self.vars)
        return TruncatedLaurent(
            self.vars, {e: s * c for e, c in self.coeffs.items()},
            self.cert, self.direction, _trusted=True)

    # -- multiplicative structure -------------------------------------------

    def __mul__(self, other: "TruncatedLaurent") -> "TruncatedLaurent":
        """Product with certificate propagation.

        At least one operand must be scalar-valued.  If neither operand is
        entire, neither may carry a finite certification floor (a purely
        windowed object such as a delta family): their product has no
        certified box, and it is refused.
        """
        if not isinstance(other, TruncatedLaurent):
            return NotImplemented
        if other.vars != self.vars:
            raise SeriesError(f"variable mismatch: {self.vars} vs {other.vars}")
        direction = self._merge_direction(other)
        cert = _mul_cert(self, other)
        coeffs: dict[tuple[int, ...], Any] = {}
        for ea, ca in self.coeffs.items():
            for eb, cb in other.coeffs.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                if not _certified(cert, e):
                    continue
                term = ca * cb
                s = coeffs.get(e)
                s = term if s is None else s + term
                if s:
                    coeffs[e] = s
                else:
                    coeffs.pop(e, None)
        return TruncatedLaurent(self.vars, coeffs, cert, direction,
                                _trusted=True)

    def shift(self, offsets: dict[str, int]) -> "TruncatedLaurent":
        """Multiply by prod(var**offset)."""
        d = tuple(offsets.get(v, 0) for v in self.vars)
        coeffs = {tuple(x + y for x, y in zip(e, d)): v
                  for e, v in self.coeffs.items()}
        cert = Cert(
            self.cert.entire,
            tuple(_lo_add(s, x) for s, x in zip(self.cert.suplo, d)),
            tuple(_lo_add(f, x) for f, x in zip(self.cert.floors, d)),
            tuple(_hi_add(s, x) for s, x in zip(self.cert.caps, d)),
        )
        return TruncatedLaurent(self.vars, coeffs, cert, self.direction,
                                _trusted=True)

    def restrict(self, w: Window) -> "TruncatedLaurent":
        """Trim storage to a window; the certificate shrinks accordingly.

        Below the window a variable keeps floor -oo where the box reached
        the window's bottom and the support starts at or above it: every
        coefficient dropped there is zero, as in ``Cert.box``.
        """
        self._align_window(w)
        coeffs = {e: c for e, c in self.coeffs.items() if e in w}
        c = self.cert
        cert = Cert(
            False,
            c.suplo,
            tuple(NEG_INF if f <= l <= s else max(f, l)
                  for s, f, l in zip(c.suplo, c.floors, w.lo)),
            tuple(min(s, h) for s, h in zip(c.caps, w.hi)),
        )
        return TruncatedLaurent(self.vars, coeffs, cert, self.direction,
                                _trusted=True)

    # -- display -------------------------------------------------------------

    def format_terms(self, limit: int = 12) -> str:
        items = sorted(self.coeffs.items())[:limit]
        parts = []
        for e, c in items:
            mono = "*".join(
                f"{v}^{k}" if k != 1 else v
                for v, k in zip(self.vars, e) if k
            ) or "1"
            parts.append(f"({c})*{mono}")
        more = len(self.coeffs) - len(items)
        if more > 0:
            parts.append(f"... [{more} more]")
        return " + ".join(parts) or "0"


def binom(n: int, k: int) -> int:
    """Binomial coefficient C(n, k) for an integer n of either sign, k >= 0."""
    if n >= 0:
        return comb(n, k)
    return (-1) ** k * comb(k - n - 1, k)


def _certified(c: Cert, e: tuple[int, ...]) -> bool:
    if c.entire:
        return True
    for x, f, cap in zip(e, c.floors, c.caps):
        if x < f or x > cap:
            return False
    return True


def _add_cert(ta: TruncatedLaurent, tb: TruncatedLaurent) -> Cert:
    a, b = ta.cert, tb.cert
    if a.entire and b.entire:
        return a
    # an entire operand bounds the sum's support by its least exponents
    sa = _support_stats(ta)[0] if a.entire else a.suplo
    sb = _support_stats(tb)[0] if b.entire else b.suplo
    return Cert(
        False,
        tuple(min(x, y) for x, y in zip(sa, sb)),
        tuple(max(x, y) for x, y in zip(a.floors, b.floors)),
        tuple(min(x, y) for x, y in zip(a.caps, b.caps)),
    )


def _support_stats(t: TruncatedLaurent):
    n = len(t.vars)
    mins = [POS_INF] * n
    maxs = [NEG_INF] * n
    for e in t.coeffs:
        for i, x in enumerate(e):
            mins[i] = min(mins[i], x)
            maxs[i] = max(maxs[i], x)
    return mins, maxs


def _mul_cert(ta: TruncatedLaurent, tb: TruncatedLaurent) -> Cert:
    a, b = ta.cert, tb.cert
    n = len(ta.vars)
    if a.entire and b.entire:
        return Cert.full(n)
    if a.entire or b.entire:
        if b.entire:
            ta, tb = tb, ta
            a, b = b, a
        # ta entire with finite support; tb partial
        mins, maxs = _support_stats(ta)
        if mins[0] == POS_INF:  # zero polynomial
            return Cert.full(n)
        return Cert(
            False,
            tuple(_lo_add(s, m) for s, m in zip(b.suplo, mins)),
            tuple(_floor_add(f, m) for f, m in zip(b.floors, maxs)),
            tuple(_cap_add(c, m) for c, m in zip(b.caps, mins)),
        )
    if any(f != NEG_INF for f in a.floors + b.floors):
        # a windowed factor is unknown below its window, so every entry
        # of the product sums unknown terms
        raise SeriesError("the product of two partial tables needs both "
                          "certified from -oo in every variable")
    return Cert(
        False,
        tuple(_lo_add(x, y) for x, y in zip(a.suplo, b.suplo)),
        (NEG_INF,) * n,
        tuple(
            min(_cap_add(ca, sb), _cap_add(cb, sa))
            for ca, sb, cb, sa in zip(a.caps, b.suplo, b.caps, a.suplo)
        ),
    )


# ---------------------------------------------------------------------------
# delta families
# ---------------------------------------------------------------------------

# Each kind puts its k-th entry (k weighted or not) * c^(k + shift) at
# (o1 - t k, o2 + t k), on the antidiagonal o1 + o2, for every k >= least:
# kind: (o1, o2, t, shift, weighted, least)
DELTA_KINDS = {
    "plain": (0, 0, 1, 0, False, NEG_INF),
    "euler": (0, 0, 1, 0, True, NEG_INF),
    "dshift": (-1, -1, 1, -1, True, NEG_INF),
    "bplain": (-1, 0, 1, 0, False, NEG_INF),
    "iratio": (0, 0, -1, 0, True, 1),
    "iratio_op": (0, 0, 1, 0, True, 1),
}


def delta_family(kind: str, c: Scalar, window: Window) -> TruncatedLaurent:
    """A two-variable distribution on one antidiagonal, restricted to a window.

    With variables (y, x) standing for (first, second) in the window:

    * ``plain``:  sum_k c^k x^k y^-k          (the substitution kernel at x/y)
    * ``euler``:  sum_k k c^k x^k y^-k        (x d/dx applied to plain)
    * ``dshift``: sum_k k c^(k-1) x^(k-1) y^(-k-1)   (d/dx of y^-1 * plain)
    * ``bplain``: sum_k c^k x^k y^(-k-1)      (y^-1 * plain)
    * ``iratio``: sum_(k>=1) k c^k y^k x^-k   (c u/(1 - c u)^2 at u = y/x)
    * ``iratio_op``: sum_(k>=1) k c^k x^k y^-k  (the same shape at u = x/y)

    The table is certified on the window, zero there off its antidiagonal.
    """
    if kind not in DELTA_KINDS:
        raise SeriesError(f"unknown delta kind {kind!r}")
    if len(window.vars) != 2:
        raise SeriesError("delta families are two-variable objects")
    o1, o2, t, shift, weighted, least = DELTA_KINDS[kind]
    (lo1, lo2), (hi1, hi2) = window.lo, window.hi
    # t k ranges over [a, b] inside the window
    a, b = max(o1 - hi1, lo2 - o2), min(o1 - lo1, hi2 - o2)
    klo, khi = (a, b) if t > 0 else (-b, -a)
    klo = max(klo, least)
    coeffs: dict[tuple[int, int], Scalar] = {}
    if klo <= khi:
        ck = c ** (klo + shift)
        for k in range(klo, khi + 1):
            v = ck * k if weighted else ck
            if v:
                coeffs[(o1 - t * k, o2 + t * k)] = v
            ck = ck * c
    return TruncatedLaurent(window.vars, coeffs,
                            Cert.box(window.lo, window.hi), None,
                            _trusted=True)


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------


def compare_on(name: str, got: TruncatedLaurent, want: TruncatedLaurent,
               w: Window) -> CheckReport:
    """Compare two tables coefficient by coefficient over a window.

    Only coefficients certified on both sides are decidable.  Any mismatch
    is a failure; a window that is not wholly decidable is inconclusive
    (never a failure).  Coefficients compare by ``==`` and print by
    ``str`` in their own scalar field; a missing one reads 0.  The report
    is cut as :func:`report.scan` cuts it.
    """
    if got.vars != want.vars:
        raise SeriesError(f"variable mismatch: {got.vars} vs {want.vars}")
    whole = got.certifies_window(w) and want.certifies_window(w)
    if whole:
        # off both supports each side reads zero, so only their union can
        # differ; sorted, it comes in window order
        entries = sorted(e for e in got.coeffs.keys() | want.coeffs.keys()
                         if e in w)
    else:
        entries = [e for e in w.exponents()
                   if _certified(got.cert, e) and _certified(want.cert, e)]
    failures, scanned = scan(
        (f"at {dict(zip(w.vars, e))}", got.coeffs.get(e, 0),
         want.coeffs.get(e, 0)) for e in entries)
    if not whole:
        checked = scanned
    elif failures and failures[-1] == "...":
        # a cut report counts the window up to the entry it stopped at
        checked = _window_position(w, entries[scanned - 1]) + 1
    else:
        checked = w.size()
    if failures:
        status = FAIL
    elif checked < w.size():
        status = INCONCLUSIVE
    else:
        status = PASS
    return CheckReport(name, status, checked=checked,
                       region=w.describe(), failures=failures)


def _window_position(w: Window, e: tuple[int, ...]) -> int:
    """The index of e in the order of ``w.exponents()``."""
    pos = 0
    for x, a, b in zip(e, w.lo, w.hi):
        pos = pos * (b - a + 1) + x - a
    return pos
