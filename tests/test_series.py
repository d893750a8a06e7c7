import random

import pytest

from conftest import assert_same_table, certified, delta_family_oracle, \
    euler, g_series_oracle, series_inverse, window_of
from qheis import series
from qheis.report import FAIL, INCONCLUSIVE, PASS
from qheis.scalar import ONE, Q, Scalar, qint
from qheis.series import (
    DELTA_KINDS,
    Cert,
    CertificationError,
    DirectionError,
    NEG_INF,
    POS_INF,
    SeriesError,
    TruncatedLaurent,
    Window,
    compare_on,
    delta_family,
)


def S(n):
    return Scalar.from_int(n)


def poly(vars, coeffs):
    return TruncatedLaurent.polynomial(vars, {e: S(c) for e, c in coeffs.items()})


# -- windows ----------------------------------------------------------------


def test_window_basics():
    w = window_of(x1=(-2, 2), x2=(0, 1))
    assert w.size() == 10
    assert (2, 1) in w and (-3, 0) not in w
    assert list(w.exponents())[0] == (-2, 0)
    with pytest.raises(SeriesError):
        window_of(x=(3, 1))
    with pytest.raises(SeriesError):
        Window(("x", "x"), (0, 0), (1, 1))


# -- delta families ---------------------------------------------------------


def test_delta_plain_table():
    w = window_of(x1=(-3, 3), x2=(-3, 3))
    d = delta_family("plain", Q, w)
    # coefficient of x1^-k x2^k is q^k
    assert d.coeffs[(-2, 2)] == Q**2
    assert d.coeffs[(2, -2)] == Q**-2
    assert d.coeffs[(0, 0)] == ONE
    assert (-1, 2) not in d.coeffs  # off-diagonal vanishes


def test_delta_euler_and_dshift_tables():
    w = window_of(x1=(-4, 4), x2=(-4, 4))
    e = delta_family("euler", Q, w)
    assert e.coeffs[(-3, 3)] == S(3) * Q**3
    assert (0, 0) not in e.coeffs  # k = 0 term vanishes
    d = delta_family("dshift", ONE, w)
    # sum_k k x2^(k-1) x1^(-k-1): at k=2 coefficient 2 at (-3, 1)
    assert d.coeffs[(-3, 1)] == S(2)
    assert d.coeffs[(-1, -1)] == S(0) if (-1, -1) in d.coeffs else True
    assert d.coeffs[(0, -2)] == S(-1)  # k = -1 term


def test_delta_annihilated_by_binomial():
    # (x1 - c x2) kills the plain delta at c
    w = window_of(x1=(-6, 6), x2=(-6, 6))
    for c in (ONE, Q, Q**-1):
        d = delta_family("plain", c, w)
        b = TruncatedLaurent.polynomial(
            ("x1", "x2"), {(1, 0): ONE, (0, 1): -c})
        prod = b * d
        inner = window_of(x1=(-5, 5), x2=(-5, 5))
        prod.require_certified(inner)
        assert prod.is_zero_on(inner)


def test_derivative_deltas_killed_by_squares():
    w = window_of(x1=(-6, 6), x2=(-6, 6))
    inner = window_of(x1=(-4, 4), x2=(-4, 4))
    for kind in ("euler", "dshift"):
        for c in (ONE, Q):
            d = delta_family(kind, c, w)
            b = TruncatedLaurent.polynomial(
                ("x1", "x2"), {(1, 0): ONE, (0, 1): -c})
            prod = b * (b * d)
            prod.require_certified(inner)
            assert prod.is_zero_on(inner), (kind, str(c))


def test_single_binomial_does_not_kill_derivative_delta():
    # negative control: one factor of (x1 - x2) is not enough for dshift
    w = window_of(x1=(-6, 6), x2=(-6, 6))
    d = delta_family("dshift", ONE, w)
    b = TruncatedLaurent.polynomial(("x1", "x2"), {(1, 0): ONE, (0, 1): -ONE})
    prod = b * d
    inner = window_of(x1=(-4, 4), x2=(-4, 4))
    assert not prod.is_zero_on(inner)


def test_delta_family_matches_per_kind_oracle_seeded():
    """The kind table and the running product reproduce each kind's loop."""
    rng = random.Random(29)
    values = (ONE, -ONE, Q, Q**-1, S(2) * Q, Q + S(2))
    seen = {"misses": 0, "negative_k": 0}
    for _trial in range(40):
        lo = (rng.randint(-8, 5), rng.randint(-8, 5))
        w = Window(("x1", "x2"), lo,
                   tuple(a + rng.randint(0, 5) for a in lo))
        for kind in DELTA_KINDS:
            for c in values:
                got = delta_family(kind, c, w)
                want = delta_family_oracle(kind, c, w)
                assert_same_table(got, want, w)
                assert got.coeffs == want.coeffs, (kind, str(c), w)
        # the antidiagonals -2..0 miss the window, or cross it where the
        # x2 exponent k is negative
        seen["misses"] += sum(w.lo) > 0 or sum(w.hi) < -2
        seen["negative_k"] += w.lo[1] < 0 and sum(w.lo) <= -2 <= sum(w.hi)
    assert min(seen.values()) >= 5, seen


# -- certification ----------------------------------------------------------


def test_delta_times_delta_is_uncertified():
    """Each delta is unknown below its window, so no entry of their
    product is certified, and the product is refused."""
    w = window_of(x1=(-4, 4), x2=(-4, 4))
    a = delta_family("plain", ONE, w)
    b = delta_family("plain", Q, w)
    with pytest.raises(SeriesError, match="certified from -oo"):
        a * b


def test_partial_product_caps():
    # two "geometric" quarter-plane tables: caps follow the cross rule
    va = {(k, -k): Q**k for k in range(0, 8)}
    ca = Cert(False, (0, NEG_INF), (NEG_INF, NEG_INF), (7, POS_INF))
    a = TruncatedLaurent(("x1", "x2"), va, ca, ("x2", "x1"), _trusted=True)
    prod = a * a
    assert certified(prod, (7, -7))
    assert not certified(prod, (8, -8))
    assert prod.cert.suplo == (0, NEG_INF)
    # coefficient of (x1/x2)^n in (sum q^k (x1/x2)^k)^2 is (n+1) q^n
    assert prod.coeffs[(3, -3)] == S(4) * Q**3


def test_entire_times_window_certification():
    w = window_of(x1=(-3, 3), x2=(-3, 3))
    d = delta_family("plain", ONE, w)
    p = poly(("x1", "x2"), {(1, 0): 1, (0, 1): 3})
    prod = p * d
    # the box: caps shrink by the min degree (0), floors rise by the max
    # degree (1)
    assert prod.cert.floors == (-2, -2) and prod.cert.caps == (3, 3)
    assert certified(prod, (3, -2))
    assert not certified(prod, (4, -3))
    assert certified(prod, (-2, 3))
    assert not certified(prod, (-3, 4))
    # the support lives on the diagonal sum(e) == 1: off it, the box
    # certifies zeros, and outside the box nothing is certified
    assert certified(prod, (0, 0)) and (0, 0) not in prod.coeffs
    assert not certified(prod, (4, 0))
    # the delta substitution property: (x1 + 3 x2) delta = 4 x2 delta
    assert prod.coeffs[(1, 0)] == S(4)
    assert prod.coeffs[(0, 1)] == S(4)


def test_polynomial_plus_partial_times_partial_certifies_the_window():
    """An entire summand bounds the sum's support by its least exponents,
    so a product taken after the sum still certifies: (1 + x) plus a
    geometric table, times another geometric table."""
    geo = TruncatedLaurent(("x",), {(k,): Q**k for k in range(8)},
                           Cert(False, (0,), (NEG_INF,), (7,)), None,
                           _trusted=True)
    total = poly(("x",), {(0,): 1, (1,): 1}) + geo
    assert total.cert.suplo == (0,)
    prod = total * geo
    w = window_of(x=(-3, 7))
    prod.require_certified(w)
    # (1 + x + sum q^k x^k) sum q^k x^k at x^2: 2 q^2 + (1 + q) q + q^2
    assert prod.coeff((2,)) == S(4) * Q**2 + Q
    assert prod.coeff((-1,)) == S(0)
    # a zero polynomial bounds nothing
    assert (TruncatedLaurent.zero(("x",)) + geo).cert.suplo == (0,)


def test_direction_mixing_is_an_error():
    c = Cert(False, (0, NEG_INF), (NEG_INF, NEG_INF), (5, POS_INF))
    a = TruncatedLaurent(("x1", "x2"), {(0, 0): ONE}, c, ("x2", "x1"),
                         _trusted=True)
    b = TruncatedLaurent(("x1", "x2"), {(0, 0): ONE}, c, ("x1", "x2"),
                         _trusted=True)
    with pytest.raises(DirectionError):
        a + b
    with pytest.raises(DirectionError):
        a * b
    # neutral combines with anything
    n = TruncatedLaurent.polynomial(("x1", "x2"), {(0, 0): ONE})
    assert (a + n).direction == ("x2", "x1")
    assert (n * b).direction == ("x1", "x2")


def test_coeff_raises_outside_certified():
    w = window_of(x1=(-2, 2), x2=(-2, 2))
    d = delta_family("plain", ONE, w)
    assert d.coeff((1, -1)) == ONE
    with pytest.raises(CertificationError):
        d.coeff((5, -5))


# -- linear ops -------------------------------------------------------------


def test_add_and_scale():
    a = poly(("x",), {(0,): 1, (2,): 3})
    b = poly(("x",), {(2,): -3, (5,): 1})
    s = a + b
    assert s.coeffs == {(0,): ONE, (5,): ONE}
    assert (s.scale(Q)).coeffs[(5,)] == Q


def test_derivative_and_euler():
    a = poly(("x",), {(-2,): 1, (0,): 5, (3,): 2})
    e = euler(a, "x")
    assert e.coeffs == {(-2,): S(-2), (3,): S(6)}


# -- inverse ----------------------------------------------------------------


def test_series_inverse_geometric():
    # (1 - q t)^-1 = sum q^k t^k
    s = TruncatedLaurent.polynomial(("t",), {(0,): ONE, (1,): -Q})
    inv = series_inverse(s, 6)
    for k in range(7):
        assert inv.coeffs[(k,)] == Q**k


def test_series_inverse_with_pole():
    # t^2 (1 + t) inverted: t^-2 - t^-1 + 1 - t ...
    s = TruncatedLaurent.polynomial(("t",), {(2,): ONE, (3,): ONE})
    inv = series_inverse(s, 4)
    assert inv.coeffs[(-2,)] == ONE
    assert inv.coeffs[(-1,)] == -ONE
    assert inv.coeffs[(0,)] == ONE
    assert inv.cert.suplo == (-2,)


def test_series_inverse_round_trip_seeded():
    rng = random.Random(123)
    one = TruncatedLaurent.polynomial(("t",), {(0,): ONE})
    for trial in range(50):
        n0 = rng.randint(-3, 3)
        coeffs = {(n0,): qint(rng.randint(1, 4)) + Scalar.q_power(rng.randint(-2, 2))}
        for k in range(1, 6):
            c = S(rng.randint(-4, 4))
            if c:
                coeffs[(n0 + k,)] = c
        s = TruncatedLaurent(
            ("t",), coeffs,
            Cert(False, (n0,), (NEG_INF,), (n0 + 8,)),
            _trusted=True)
        inv = series_inverse(s, 8)
        prod = s * inv
        w = window_of(t=(0, 6))
        r = compare_on(f"trial{trial}", prod, one, w)
        assert r.status == PASS, (trial, r.failures)


def test_series_inverse_insufficient_order():
    s = TruncatedLaurent(
        ("t",), {(0,): ONE, (1,): Q},
        Cert(False, (0,), (NEG_INF,), (3,)),
        _trusted=True)
    with pytest.raises(SeriesError):
        series_inverse(s, 5)


# -- comparison -------------------------------------------------------------


def test_compare_statuses():
    a = poly(("x",), {(0,): 1})
    b = poly(("x",), {(0,): 2})
    w = window_of(x=(0, 0))
    assert compare_on("eq", a, a, w).status == PASS
    r = compare_on("ne", a, b, w)
    assert r.status == FAIL
    assert r.failures


def test_compare_partial_certification_inconclusive():
    w = window_of(x1=(-2, 2), x2=(-2, 2))
    d = delta_family("plain", ONE, w)
    big = window_of(x1=(-4, 4), x2=(-4, 4))
    r = compare_on("partial", d, d, big)
    assert r.status == INCONCLUSIVE
    assert r.checked > 0


def test_restrict_keeps_support_zeros_below_its_window_seeded():
    """Below a window whose bottom the support starts at or above, every
    coefficient is zero, so the restricted box keeps floor -oo there
    (``g_series_oracle`` reads z^-3 of a table restricted to z >= -2);
    every entry the restricted table certifies is the true one."""
    rng = random.Random(17)

    def truth(e, suplo):
        if any(x < s for x, s in zip(e, suplo)):
            return S(0)
        return S(1 + sum((k + 2) * x * x for k, x in enumerate(e)))

    seen = {True: 0, False: 0}
    for _trial in range(150):
        n = rng.randint(1, 3)
        vars = tuple(f"x{i}" for i in range(n))
        suplo = tuple(rng.choice((NEG_INF, rng.randint(-4, 2)))
                      for _ in range(n))
        lo = tuple(rng.randint(-5, 1) for _ in range(n))
        box = Window(vars, lo, tuple(a + rng.randint(1, 5) for a in lo))
        t = TruncatedLaurent(
            vars, {e: truth(e, suplo) for e in box.exponents()},
            Cert.box(box.lo, box.hi, suplo))
        w = _random_window(rng, n)
        r = t.restrict(w)
        for f, s, a, kept in zip(t.cert.floors, suplo, w.lo, r.cert.floors):
            assert (kept == NEG_INF) == (f <= a <= s), (suplo, box, w)
            seen[kept == NEG_INF] += 1
        around = Window(vars,
                        tuple(min(a, b) - 2 for a, b in zip(box.lo, w.lo)),
                        tuple(max(a, b) + 2 for a, b in zip(box.hi, w.hi)))
        for e in around.exponents():
            if certified(r, e):
                assert r.coeff(e) == truth(e, suplo), (suplo, box, w, e)
    assert min(seen.values()) >= 50, seen
    # the oracle's read: z^-3 below a window from z^-2
    assert g_series_oracle(Q, 3).coeff((-3,)) == S(0)


def _random_window(rng, n):
    lo = tuple(rng.randint(-6, 3) for _ in range(n))
    return Window(tuple(f"x{i}" for i in range(n)), lo,
                  tuple(a + rng.randint(0, 5) for a in lo))


def _random_cert(rng, n):
    lo = tuple(rng.randint(-4, 1) for _ in range(n))
    hi = tuple(a + rng.randint(0, 5) for a in lo)
    suplo = rng.choice((None, tuple(rng.choice((NEG_INF, rng.randint(-3, 2)))
                                    for _ in range(n))))
    return Cert.box(lo, hi, suplo)


def test_certifies_window_matches_entrywise_seeded(monkeypatch):
    """The O(dim) box test agrees with certifying every entry, and it
    never certifies entry by entry."""
    rng = random.Random(5)
    nothing = Cert(False, (NEG_INF,) * 2, (POS_INF,) * 2, (NEG_INF,) * 2)
    certs = [Cert.full(2), Cert.full(3), nothing]
    for n in (1, 2, 2, 3) * 12:
        cert = _random_cert(rng, n)
        vars = tuple(f"x{i}" for i in range(n))
        trimmed = TruncatedLaurent(vars, {}, cert, _trusted=True)
        certs += [cert, trimmed.restrict(_random_window(rng, n)).cert]
    calls = []
    entrywise = series._certified
    monkeypatch.setattr(series, "_certified",
                        lambda c, e: calls.append(e) or entrywise(c, e))
    seen = {True: 0, False: 0}
    for cert in certs:
        n = len(cert.floors)
        t = TruncatedLaurent(tuple(f"x{i}" for i in range(n)), {}, cert,
                             _trusted=True)
        for _ in range(12):
            w = _random_window(rng, n)
            want = all(entrywise(cert, e) for e in w.exponents())
            calls.clear()
            assert t.certifies_window(w) == want, (cert, w)
            assert not calls
            seen[want] += 1
    assert min(seen.values()) >= 100, seen


# The extended-integer rules the certificates were once summed by, kept as
# the oracle of the plain sums in ``shift`` and ``_mul_cert``.
def _lo_add_rule(a, b):
    return NEG_INF if NEG_INF in (a, b) else a + b


def _hi_add_rule(a, b):
    return POS_INF if POS_INF in (a, b) else a + b


def _floor_add_rule(floor, hi):
    if floor == NEG_INF:
        return NEG_INF
    return POS_INF if hi == POS_INF else floor + hi


def _cap_add_rule(cap, lo):
    if cap == POS_INF:
        return POS_INF
    return NEG_INF if lo == NEG_INF else cap + lo


def _shift_cert_rule(c, d):
    return Cert(c.entire,
                tuple(_lo_add_rule(s, x) for s, x in zip(c.suplo, d)),
                tuple(_lo_add_rule(f, x) for f, x in zip(c.floors, d)),
                tuple(_hi_add_rule(s, x) for s, x in zip(c.caps, d)))


def _mul_cert_rule(ta, tb):
    a, b = ta.cert, tb.cert
    n = len(ta.vars)
    if a.entire and b.entire:
        return Cert.full(n)
    if a.entire or b.entire:
        if b.entire:
            ta, a, b = tb, b, a
        mins, maxs = series._support_stats(ta)
        if mins[0] == POS_INF:
            return Cert.full(n)
        return Cert(False,
                    tuple(_lo_add_rule(s, m) for s, m in zip(b.suplo, mins)),
                    tuple(_floor_add_rule(f, m)
                          for f, m in zip(b.floors, maxs)),
                    tuple(_cap_add_rule(c, m) for c, m in zip(b.caps, mins)))
    if any(f != NEG_INF for f in a.floors + b.floors):
        return None
    return Cert(False,
                tuple(_lo_add_rule(x, y) for x, y in zip(a.suplo, b.suplo)),
                (NEG_INF,) * n,
                tuple(min(_cap_add_rule(ca, sb), _cap_add_rule(cb, sa))
                      for ca, sb, cb, sa in zip(a.caps, b.suplo, b.caps,
                                                a.suplo)))


def _fields(c):
    return (c.entire, c.suplo, c.floors, c.caps)


def test_certificate_sums_match_the_extended_integer_rules_seeded():
    """``shift`` and every branch of ``_mul_cert`` add extended integers
    with plain ``+`` (and ``_cap_add`` where a +oo cap meets a -oo support
    bound): they agree with the guarded rules on certificates drawn with
    +-oo floors, caps and support bounds, the certified-nowhere one among
    them, and no field is NaN.  A support bound is never +oo, so the
    partial tables multiplied together draw theirs from Z and -oo."""
    rng = random.Random(39)
    n = 2
    vars = ("x0", "x1")
    nothing = Cert(False, (NEG_INF,) * n, (POS_INF,) * n, (NEG_INF,) * n)

    def ext(*infs):
        return rng.choice((*infs, rng.randint(-3, 3), rng.randint(-3, 3)))

    def partial(supports, floor_odds=0.25):
        # floor_odds: the chance of a floor other than -oo
        if rng.random() < 0.1:
            return nothing
        return Cert(False, tuple(ext(*supports) for _ in vars),
                    tuple(ext(POS_INF) if rng.random() < floor_odds
                          else NEG_INF for _ in vars),
                    tuple(ext(NEG_INF, POS_INF) for _ in vars))

    def table(cert):
        if cert.entire:
            coeffs = {(rng.randint(-3, 3), rng.randint(-3, 3)): S(1)
                      for _ in range(rng.randint(0, 3))}
        else:
            coeffs = {}
        return TruncatedLaurent(vars, coeffs, cert, _trusted=True)

    def check(got, want):
        assert _fields(got) == _fields(want), (got, want)
        assert all(x == x for f in _fields(got)[1:] for x in f)

    seen = {"shift": 0, "entire": 0, "zero": 0, "partial": 0, "refused": 0}
    for _trial in range(400):
        cert = rng.choice((Cert.full(n), nothing,
                           partial((NEG_INF, POS_INF), 0.7)))
        d = {v: rng.randint(-4, 4) for v in vars}
        check(table(cert).shift(d).cert,
              _shift_cert_rule(cert, tuple(d.values())))
        seen["shift"] += 1
        # an entire table times a partial one, either way round
        full = table(Cert.full(n))
        part = table(partial((NEG_INF, POS_INF), 0.7))
        pair = (full, part) if rng.random() < 0.5 else (part, full)
        check(series._mul_cert(*pair), _mul_cert_rule(*pair))
        seen["zero" if not full.coeffs else "entire"] += 1
        # two partial tables
        ta, tb = (table(partial((NEG_INF,))) for _ in range(2))
        want = _mul_cert_rule(ta, tb)
        if want is None:
            with pytest.raises(SeriesError):
                series._mul_cert(ta, tb)
            seen["refused"] += 1
        else:
            check(series._mul_cert(ta, tb), want)
            seen["partial"] += 1
    assert min(seen.values()) >= 40, seen
