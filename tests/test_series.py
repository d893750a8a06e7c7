import random

import pytest

from conftest import assert_same_table, delta_family_oracle, euler
from qheis import series
from qheis.report import FAIL, INCONCLUSIVE, PASS
from qheis.scalar import L, ONE, Q, Scalar, qint
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
    series_inverse,
)


def S(n):
    return Scalar.from_int(n)


def poly(vars, coeffs):
    return TruncatedLaurent.polynomial(vars, {e: S(c) for e, c in coeffs.items()})


# -- windows ----------------------------------------------------------------


def test_window_basics():
    w = Window.of(x1=(-2, 2), x2=(0, 1))
    assert w.size() == 10
    assert (2, 1) in w and (-3, 0) not in w
    assert list(w.exponents())[0] == (-2, 0)
    with pytest.raises(SeriesError):
        Window.of(x=(3, 1))
    with pytest.raises(SeriesError):
        Window(("x", "x"), (0, 0), (1, 1))


# -- delta families ---------------------------------------------------------


def test_delta_plain_table():
    w = Window.of(x1=(-3, 3), x2=(-3, 3))
    d = delta_family("plain", Q, w)
    # coefficient of x1^-k x2^k is q^k
    assert d.coeffs[(-2, 2)] == Q**2
    assert d.coeffs[(2, -2)] == Q**-2
    assert d.coeffs[(0, 0)] == ONE
    assert (-1, 2) not in d.coeffs  # off-diagonal vanishes


def test_delta_euler_and_dshift_tables():
    w = Window.of(x1=(-4, 4), x2=(-4, 4))
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
    w = Window.of(x1=(-6, 6), x2=(-6, 6))
    for c in (ONE, Q, Q**-1):
        d = delta_family("plain", c, w)
        b = TruncatedLaurent.polynomial(
            ("x1", "x2"), {(1, 0): ONE, (0, 1): -c})
        prod = b * d
        inner = Window.of(x1=(-5, 5), x2=(-5, 5))
        prod.require_certified(inner)
        assert prod.is_zero_on(inner)


def test_derivative_deltas_killed_by_squares():
    w = Window.of(x1=(-6, 6), x2=(-6, 6))
    inner = Window.of(x1=(-4, 4), x2=(-4, 4))
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
    w = Window.of(x1=(-6, 6), x2=(-6, 6))
    d = delta_family("dshift", ONE, w)
    b = TruncatedLaurent.polynomial(("x1", "x2"), {(1, 0): ONE, (0, 1): -ONE})
    prod = b * d
    inner = Window.of(x1=(-4, 4), x2=(-4, 4))
    assert not prod.is_zero_on(inner)


def test_delta_family_matches_per_kind_oracle_seeded():
    """The kind table and the running product reproduce each kind's loop."""
    rng = random.Random(29)
    values = (ONE, -ONE, Q, Q**-1, S(2) * Q, L)
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
    w = Window.of(x1=(-4, 4), x2=(-4, 4))
    a = delta_family("plain", ONE, w)
    b = delta_family("plain", Q, w)
    prod = a * b
    assert not prod.certified((0, 0))
    r = compare_on("dd", prod, TruncatedLaurent.zero(("x1", "x2")),
                   Window.of(x1=(0, 0), x2=(0, 0)))
    assert r.status == INCONCLUSIVE


def test_partial_product_caps():
    # two "geometric" quarter-plane tables: caps follow the cross rule
    va = {(k, -k): Q**k for k in range(0, 8)}
    ca = Cert(False, (0, NEG_INF), (NEG_INF, NEG_INF), (7, POS_INF),
              (0, 0))
    a = TruncatedLaurent(("x1", "x2"), va, ca, ("x2", "x1"), _trusted=True)
    prod = a * a
    assert prod.certified((7, -7))
    assert not prod.certified((8, -8))
    assert prod.cert.suplo == (0, NEG_INF)
    assert prod.cert.band == (0, 0)
    # coefficient of (x1/x2)^n in (sum q^k (x1/x2)^k)^2 is (n+1) q^n
    assert prod.coeffs[(3, -3)] == S(4) * Q**3


def test_entire_times_window_certification():
    w = Window.of(x1=(-3, 3), x2=(-3, 3))
    d = delta_family("plain", ONE, w)
    p = poly(("x1", "x2"), {(1, 0): 1, (0, 1): 3})
    prod = p * d
    # support lives on the diagonal sum(e) == 1; off-band points are
    # certified zeros regardless of the box
    assert prod.certified((4, 0)) and not prod.coeffs.get((4, 0))
    # on-band points obey the box: caps shrink by the min degree (0),
    # floors rise by the max degree (1)
    assert prod.certified((3, -2))
    assert not prod.certified((4, -3))
    assert prod.certified((-2, 3))
    assert not prod.certified((-3, 4))
    # the delta substitution property: (x1 + 3 x2) delta = 4 x2 delta
    assert prod.coeffs[(1, 0)] == S(4)
    assert prod.coeffs[(0, 1)] == S(4)


def test_direction_mixing_is_an_error():
    c = Cert(False, (0, NEG_INF), (NEG_INF, NEG_INF), (5, POS_INF),
             (0, 0))
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
    w = Window.of(x1=(-2, 2), x2=(-2, 2))
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
            Cert(False, (n0,), (NEG_INF,), (n0 + 8,), (n0, POS_INF)),
            _trusted=True)
        inv = series_inverse(s, 8)
        prod = s * inv
        w = Window.of(t=(0, 6))
        r = compare_on(f"trial{trial}", prod, one, w)
        assert r.status == PASS, (trial, r.failures)


def test_series_inverse_insufficient_order():
    s = TruncatedLaurent(
        ("t",), {(0,): ONE, (1,): Q},
        Cert(False, (0,), (NEG_INF,), (3,), (0, POS_INF)),
        _trusted=True)
    with pytest.raises(SeriesError):
        series_inverse(s, 5)


# -- comparison -------------------------------------------------------------


def test_compare_statuses():
    a = poly(("x",), {(0,): 1})
    b = poly(("x",), {(0,): 2})
    w = Window.of(x=(0, 0))
    assert compare_on("eq", a, a, w).status == PASS
    r = compare_on("ne", a, b, w)
    assert r.status == FAIL
    assert r.failures


def test_compare_partial_certification_inconclusive():
    w = Window.of(x1=(-2, 2), x2=(-2, 2))
    d = delta_family("plain", ONE, w)
    big = Window.of(x1=(-4, 4), x2=(-4, 4))
    r = compare_on("partial", d, d, big)
    assert r.status == INCONCLUSIVE
    assert r.checked > 0


def _random_window(rng, n):
    lo = tuple(rng.randint(-6, 3) for _ in range(n))
    return Window(tuple(f"x{i}" for i in range(n)), lo,
                  tuple(a + rng.randint(0, 5) for a in lo))


def _random_cert(rng, n):
    lo = tuple(rng.randint(-4, 1) for _ in range(n))
    hi = tuple(a + rng.randint(0, 5) for a in lo)
    suplo = rng.choice((None, tuple(rng.choice((NEG_INF, rng.randint(-3, 2)))
                                    for _ in range(n))))
    band = rng.choice(((NEG_INF, POS_INF),
                       (rng.randint(-5, 0), rng.randint(0, 5))))
    return Cert.box(lo, hi, suplo, band)


def test_certifies_window_matches_entrywise_seeded(monkeypatch):
    """The O(dim) box test agrees with certifying every entry.

    It answers without any per-entry call when the cert is entire or its
    certified box holds the window.
    """
    rng = random.Random(5)
    certs = [Cert.full(2), Cert.full(3), Cert.empty(2)]
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
    direct = 0
    for cert in certs:
        n = len(cert.floors)
        t = TruncatedLaurent(tuple(f"x{i}" for i in range(n)), {}, cert,
                             _trusted=True)
        for _ in range(12):
            w = _random_window(rng, n)
            want = all(entrywise(cert, e) for e in w.exponents())
            calls.clear()
            assert t.certifies_window(w) == want, (cert, w)
            seen[want] += 1
            direct += not calls
    assert min(seen.values()) >= 100, seen
    assert direct >= 30, direct
