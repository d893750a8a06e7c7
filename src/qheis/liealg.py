"""Structure constants for the deformed Heisenberg-type mode algebras.

Every algebra in the catalog is spanned by mode generators together with one
central element, and every bracket of two mode generators is a scalar
multiple of that central element.  This module computes those scalars
exactly.

The catalog (keys of :data:`ALGEBRAS`):

* ``hq``     -- [b_m, b_n] = [m]_q d(m+n) c, with [m]_q the symmetric
  q-integer (q^(m-1) + q^(m-3) + ... + q^(1-m));
* ``htq``    -- [b_m, b_n] = m (1 - q^|m|) d(m+n) c;
* ``bhat``   -- shifted family b^(r)_m with [b^(r)_m, b^(s)_n] =
  <r, s> d(m+n+1) c, where the pairing <r, s> is 1/(q - q^-1) for
  r = s+1, its negative for r = s-1, and zero otherwise;
* ``bhatq``  -- shifted family whose generating-function bracket is

      [b^(r)(x1), b^(s)(x2)] =
          iota_{x2,x1} F_{r-s}(x1 - x2) c
          + (d(r-s) - d(r-s-1)) (d/dx2) x1^-1 delta(x2/x1) c,

  with F_n(z) = g(q^(n+1), z) - g(q^(n-1), z) and
  g(a, z) = a e^z / (1 - a e^z)^2 (d(k) is 1 at k = 0, else 0);
* ``graded`` -- the closed-form constants m d(r-s) +
  d(r-s+1) (|m|-m)/2 - d(r-s-1) (|m|+m)/2, times d(m+n).

Every ``bhatq`` constant has a closed form.  Expanding (x1 - x2)^j in
nonnegative powers of x1, the tail's coefficient of x1^(-m-1) x2^(-n-1) is
(-1)^(n+1) C(-m-n-2, -m-1) times the z^(-m-n-2) coefficient of F_{r-s};
it vanishes for m >= 0.  The derivative delta adds (d(r-s) - d(r-s-1)) m
at m + n = 0.  :func:`diff_expansion_coeff` computes one such entry for
any series S in place of F_{r-s}, and :func:`diff_expansion_table` fills
a certified two-variable window with them.  :func:`g_coefficient` and
:func:`f_coefficient` give the z^j coefficients of g and F_n in closed form.
F_n coefficients are memoized for the life of the process by (n, j,
field), in a least-recently-used memo of 128 entries; the Eulerian rows
behind g are kept too, and grow only to the largest j asked for.

:func:`bracket_modes` checks its arguments on every call and then reads
the bracket from a least-recently-used memo of 1,024 entries, keyed by the
algebra's name, (m, n, r, s) and the field.  A repeated bracket is the
same scalar object, so its printed text is also computed only once.

Levels are not fixed here: brackets return the coefficient of the central
element, and specialising the centre to a level happens in the module
acting on a vacuum space.  Every constant is computed in a scalar field,
symbolic Q(q, l) by default or the rationals at a point (see
:class:`qheis.scalar.SymbolicField`).
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
from typing import Callable

from .scalar import SYMBOLIC, Record, Scalar
from .series import NEG_INF, Cert, TruncatedLaurent, Window, binom


class LieAlgebraError(ValueError):
    pass


def _d(a: int, b: int) -> int:
    return 1 if a == b else 0


# ---------------------------------------------------------------------------
# catalog


class AlgebraSpec(Record):
    """One algebra of the catalog.

    ``offset`` fixes the generating-field convention: the field attached to
    the mode family is sum_m b_m x^(-m-offset).  ``shifted`` records whether
    generators carry an integer family index r.  ``mode_sum`` is the one
    value of m + n at which [b_m, b_n] can be nonzero, or None when the
    brackets respect no such grading (the exponential tail of ``bhatq``
    pairs two creation modes).
    """

    __slots__ = ("name", "offset", "shifted", "mode_sum", "summary")

    def __init__(self, name: str, offset: int, shifted: bool,
                 mode_sum: int | None, summary: str):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "shifted", shifted)
        object.__setattr__(self, "mode_sum", mode_sum)
        object.__setattr__(self, "summary", summary)


ALGEBRAS: dict[str, AlgebraSpec] = {
    "hq": AlgebraSpec("hq", 0, False, 0,
                      "symmetric q-integer relations [m]_q d(m+n) c"),
    "htq": AlgebraSpec("htq", 0, False, 0,
                       "relations m (1 - q^|m|) d(m+n) c"),
    "bhat": AlgebraSpec("bhat", 1, True, -1,
                        "banded pairing <r, s> with mode sum -1"),
    "bhatq": AlgebraSpec("bhatq", 1, True, None,
                         "deformed relations with an exponential tail"),
    "graded": AlgebraSpec("graded", 1, True, 0,
                          "sign-split closed-form constants at mode sum 0"),
}


def get_algebra(alg: str | AlgebraSpec) -> AlgebraSpec:
    if isinstance(alg, AlgebraSpec):
        return alg
    try:
        return ALGEBRAS[alg]
    except KeyError:
        known = ", ".join(sorted(ALGEBRAS))
        raise LieAlgebraError(f"unknown algebra {alg!r}; one of {known}") \
            from None


# ---------------------------------------------------------------------------
# the exponential tail F_n


# Eulerian numbers A(n, k) = (k+1) A(n-1, k) + (n-k) A(n-1, k-1): row n
# holds k = 0..n-1 (row 0 is [1]) and rows are added as they are asked for.
_EULERIAN: list[list[int]] = [[1]]


def g_coefficient(a: Scalar, j: int, scalars=SYMBOLIC) -> Scalar:
    """The z^j coefficient of g(a, z) = a e^z / (1 - a e^z)^2, for a in
    the scalar field ``scalars``.

    For a != 1, g is regular at z = 0 and its z^j coefficient is
    Li_(-j-1)(a) / j! = a A_(j+1)(a) / ((1 - a)^(j+2) j!), with A_n the
    Eulerian polynomial (Graham, Knuth and Patashnik, Concrete Mathematics,
    section 6.2).  g(1, z) has the pole term z^-2 with coefficient 1 and no
    z^-1 term; for j >= 0 its z^j coefficient is that of g(-1, z) divided
    by 2^(j+2) - 1, since eta(s) = (1 - 2^(1-s)) zeta(s).
    """
    one = scalars.one
    if j < 0:
        return one if j == -2 and a == 1 else scalars.zero
    if a == 1:
        return g_coefficient(-one, j, scalars) / ((1 << (j + 2)) - 1)
    while len(_EULERIAN) <= j + 1:
        m = len(_EULERIAN)
        p = [0, *_EULERIAN[-1], 0]
        _EULERIAN.append([(k + 1) * p[k + 1] + (m - k) * p[k]
                          for k in range(m)])
    num = scalars.zero
    for c in reversed(_EULERIAN[j + 1]):
        num = num * a + scalars.from_int(c)
    return num * a * (one / (one - a)) ** (j + 2) / factorial(j)


def f_coefficient(n: int, j: int, scalars=SYMBOLIC) -> Scalar:
    """The z^j coefficient of F_n(z); requires j >= -2.

    Pole coefficients appear only at j = -2 and only for n = +-1, where
    they are +1 (n = -1) and -1 (n = +1).
    """
    if j < -2:
        raise LieAlgebraError(f"F_n has no z^{j} term; j must be >= -2")
    return _f_coefficient(n, j, scalars)


@lru_cache(maxsize=128)
def _f_coefficient(n: int, j: int, scalars) -> Scalar:
    return (g_coefficient(scalars.q_power(n + 1), j, scalars)
            - g_coefficient(scalars.q_power(n - 1), j, scalars))


# ---------------------------------------------------------------------------
# expansions at x1 - x2


def diff_expansion_coeff(coeff: Callable[[int], Scalar], e1: int, e2: int,
                         scalars=SYMBOLIC) -> Scalar:
    """The x1^e1 x2^e2 coefficient of iota_{x2,x1} S(x1 - x2).

    ``coeff(j)`` is the z^j coefficient of S(z), which has no terms below
    z^-2.  Expanding each (x1 - x2)^j in nonnegative powers of x1 gives
    (-1)^e2 C(e1 + e2, e1) S_(e1+e2) for e1 >= 0, and zero otherwise.
    """
    j = e1 + e2
    if e1 < 0 or j < -2:
        return scalars.zero
    c = binom(j, e1)
    if not c:
        return scalars.zero
    return coeff(j) * (-c if e2 % 2 else c)


def diff_expansion_table(coeff: Callable[[int], Scalar],
                         window: Window) -> TruncatedLaurent:
    """iota_{x2,x1} S(x1 - x2) on a window.

    ``coeff`` is as in :func:`diff_expansion_coeff` and is called once per
    j.  The table is tagged with the expansion direction when a pole term
    of S reaches the window.
    """
    if window.vars != ("x1", "x2"):
        raise LieAlgebraError("the bracket expansion uses variables (x1, x2)")
    jmax = window.hi[0] + window.hi[1]
    cs = {j: coeff(j) for j in range(-2, jmax + 1)}
    coeffs = {}
    for e in window.exponents():
        v = diff_expansion_coeff(cs.__getitem__, *e)
        if v:
            coeffs[e] = v
    pole = cs.get(-2) or cs.get(-1)
    # a pole is expanded in nonnegative powers of x1, which bounds the
    # support; without one the table is the window of a polynomial
    cert = Cert.box(window.lo, window.hi, (0, NEG_INF) if pole else None)
    return TruncatedLaurent(window.vars, coeffs, cert,
                            ("x2", "x1") if pole else None, _trusted=True)


# ---------------------------------------------------------------------------
# brackets


def bracket_modes(alg: str | AlgebraSpec, m: int, n: int,
                  r: int = 0, s: int = 0, scalars=SYMBOLIC) -> Scalar:
    """Coefficient of the central element in [b^(r)_m, b^(s)_n], in field."""
    spec = get_algebra(alg)
    if not spec.shifted and (r or s):
        raise LieAlgebraError(f"{spec.name} generators carry no family index")
    return _bracket(spec.name, m, n, r, s, scalars)


# keyed by the algebra's name, so a call by name and a call by spec share
# an entry; a bench session asks for at most about 450 distinct brackets
@lru_cache(maxsize=1024)
def _bracket(name: str, m: int, n: int, r: int, s: int, scalars) -> Scalar:
    if name == "hq":
        return scalars.qint(m) if m + n == 0 else scalars.zero
    if name == "htq":
        if m + n:
            return scalars.zero
        return (scalars.one - scalars.q_power(abs(m))) * m
    if name == "bhat":
        if m + n + 1:
            return scalars.zero
        return standard_pairing(r, s, scalars)
    if name == "graded":
        if m + n:
            return scalars.zero
        am = abs(m)
        co = (m * _d(r, s) + (am - m) // 2 * _d(r, s - 1)
              - (am + m) // 2 * _d(r, s + 1))
        return scalars.from_int(co)
    out = diff_expansion_coeff(lambda j: f_coefficient(r - s, j, scalars),
                               -m - 1, -n - 1, scalars)
    if m + n == 0:
        out = out + scalars.from_int((_d(r, s) - _d(r, s + 1)) * m)
    return out


# ---------------------------------------------------------------------------
# the pairing on the shifted loop family


def standard_pairing(r: int, s: int, scalars=SYMBOLIC) -> Scalar:
    """<b^(r), b^(s)>: +-1/(q - q^-1) on the off-diagonals r = s +- 1."""
    co = _d(r, s + 1) - _d(r, s - 1)
    if not co:
        return scalars.zero
    return scalars.from_int(co) / (scalars.q_power(1) - scalars.q_power(-1))
