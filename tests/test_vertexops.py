"""Fields, commutator catalog, products, and the identity registry."""

import json
import random
import re
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

from conftest import (
    DerivativeField,
    DressedField,
    IdentityField,
    assert_same_table,
    bhatq_oracle_table,
    cert_fields,
    closed_form_inverse,
    cmp_tables_oracle,
    diff_oracle_table,
    dressed_direct,
    dressed_kills,
    eproduct_n,
    evaluate,
    exp_coeff,
    exp_product_oracle,
    extract_s_kernel,
    from_fraction,
    g_series_oracle,
    inverse_exp_oracle,
    probe_kills,
    product_stack_oracle,
    raised,
    shifted_inverse_oracle,
    translate,
)
from qheis import fock, scalar, vertexops
from qheis.liealg import ALGEBRAS, bracket_modes
from qheis.fock import FockModule, pair_vectors, two_point
from qheis.report import FAIL, INCONCLUSIVE, PASS
from qheis.scalar import L, ONE, Q, SYMBOLIC, RationalPoint, Scalar, ZERO
from qheis.series import NEG_INF, POS_INF, Cert, TruncatedLaurent, Window, \
    compare_on, delta_family
from qheis.vertexops import (
    LAWS,
    LawParameterError,
    Multiplier,
    MultiplierError,
    PairData,
    PairPart,
    SumField,
    UnsupportedPairError,
    VertexError,
    check_multiplier,
    field_of,
    pair_of,
    phi_product_n,
    psi_map,
    suite_reports,
    verify_identity,
    _special_image,
)


def qp(k):
    return Scalar.q_power(k)


def sc(f):
    return from_fraction(SYMBOLIC, f)


def _vectors(table) -> dict:
    """A state table as {(E, J): vector}, each read through its ``get``."""
    return {key: table.get(*key) for key in table.data}


@pytest.fixture(scope="module")
def hq():
    return FockModule("hq")


@pytest.fixture(scope="module")
def htq():
    return FockModule("htq")


@pytest.fixture(scope="module")
def bq():
    return FockModule("bhatq")


# ---------------------------------------------------------------------------
# fields


def test_scaled_field_coefficients(hq):
    vac = hq.vacuum()
    f0, f2 = field_of(hq), field_of(hq, 2)
    assert f0.offset == 0
    assert f0.apply_coeff(3, vac) == f0.apply_mode(-3, vac)
    for e in (1, 3):
        got = f2.apply_coeff(e, vac)
        assert got == f0.apply_coeff(e, vac).scale(qp(2 * e))
    # annihilators and the zero mode both kill the vacuum
    assert f0.apply_coeff(-1, vac).is_zero()
    assert f0.apply_coeff(0, vac).is_zero()
    assert f0.low_exponent(vac) <= 1


def test_shifted_field_coefficients(bq):
    vac = bq.vacuum()
    f1 = field_of(bq, 1)
    assert f1.offset == 1
    assert f1.apply_coeff(0, vac) == bq.basis_vector((-1, 1))
    assert f1.apply_coeff(2, vac) == bq.basis_vector((-3, 1))
    assert f1.apply_coeff(-1, vac).is_zero()


def test_field_coefficients_match_state_tables(hq, bq):
    vac = hq.vacuum()
    w = Window.cube(("x1", "x2"), 3)
    f1, f0 = field_of(hq, 1), field_of(hq)
    t = two_point(vac, (f1, f0), vac, w)
    for e in w.exponents():
        val = pair_vectors(vac, f1.apply_coeff(e[0], f0.apply_coeff(e[1], vac)))
        assert t.coeff(e, ZERO) == val
    bvac = bq.vacuum()
    g1, g0 = field_of(bq, 1), field_of(bq)
    tb = two_point(bvac, (g1, g0), bvac, w)
    for e in w.exponents():
        val = pair_vectors(bvac,
                           g1.apply_coeff(e[0], g0.apply_coeff(e[1], bvac)))
        assert tb.coeff(e, ZERO) == val


def test_identity_field_is_the_constant(hq):
    one = IdentityField(hq)
    v = field_of(hq).apply_coeff(2, hq.vacuum())
    assert one.apply_coeff(0, v) == v
    assert one.apply_coeff(1, v).is_zero()
    assert one.apply_coeff(-1, v).is_zero()
    assert one.low_exponent(v) == 0


def test_derivative_field(hq):
    vac = hq.vacuum()
    f = field_of(hq)
    df = DerivativeField(f)
    for e in (-3, 1, 2):
        assert df.apply_coeff(e, vac) == f.apply_coeff(e + 1, vac).scale(
            sc(e + 1))


@pytest.mark.parametrize("scalars", [
    SYMBOLIC, RationalPoint(Fraction(3, 5), Fraction(2))],
    ids=["symbolic", "point"])
def test_apply_coeffs_matches_apply_coeff(scalars):
    """A window of coefficients applied at once equals the coefficients
    applied one exponent at a time, for every field class of the library
    and a field realized from a two-letter word; a product reads the
    window off one stack, and each exponent off a stack of its own."""
    hq = FockModule("hq", scalars=scalars)
    bhat = FockModule("bhat", scalars=scalars)
    gen = field_of(hq, 1)
    prod = phi_product_n(field_of(hq, 1), field_of(hq, 0), -2)
    realized = psi_map(bhat.basis_vector((-1, 0), (-1, 1)), hq)
    assert any(isinstance(f, vertexops.ProductExpression)
               for _c, f in realized.terms)
    fields = [gen, SumField(hq, ((scalars.from_int(3), gen),
                                 (scalars.q_power(-1), prod))),
              prod, realized]
    nonzero = 0
    for v in (hq.vacuum(), hq.basis_vector((-1, 0))):
        for f in fields:
            for lo, hi in ((-3, 3), (1, 2)):
                got = f.apply_coeffs(lo, hi, v)
                assert got == [f.apply_coeffs(e, e, v)[0]
                               for e in range(lo, hi + 1)], (f, v, lo, hi)
                nonzero += sum(not u.is_zero() for u in got)
    assert nonzero >= 40


def test_fields_are_values():
    """A generator field, built twice from equal data, compares and
    hashes equal.  No memo keys on the other field classes, which
    compare by identity."""
    def build():
        hq = FockModule("hq")
        f, g = field_of(hq, 1), field_of(hq)
        prod = phi_product_n(f, g, -1)
        return [f, SumField(hq, [(ONE, f), (L, prod)]), prod]

    first, again = build(), build()
    assert {type(f) for f in first} == {
        c for c in vertexops.OperatorSeries.__subclasses__()
        if c.__module__ == vertexops.__name__}
    assert first[0] is not again[0] and first[0] == again[0]
    assert hash(first[0]) == hash(again[0])
    assert first[0] != field_of(FockModule("hq"), 2)
    for a, b in zip(first[1:], again[1:]):
        assert a == a and a != b, a


# ---------------------------------------------------------------------------
# the commutator catalog


def _measured(module, fields, w):
    vac = module.vacuum()
    fwd = two_point(vac, fields, vac, w)
    rev = two_point(vac, (fields[1], fields[0]), vac, w)
    out = {}
    for e in w.exponents():
        out[e] = fwd.coeff(e, ZERO) - rev.coeff((e[1], e[0]), ZERO)
    return out


@pytest.mark.parametrize("alg,r,s", [
    ("hq", 0, 0), ("hq", 1, 0), ("htq", 0, 0), ("htq", 0, 1),
    ("bhat", 1, 0), ("bhat", 0, 0), ("bhatq", 0, 0), ("bhatq", 2, 1),
    ("bhatq", 0, 2),
])
def test_pair_tables_match_measured_commutators(alg, r, s):
    module = FockModule(alg)
    w = Window.cube(("x1", "x2"), 4)
    fields = (field_of(module, r), field_of(module, s))
    tab = pair_of(*fields).table(w)
    for e, val in _measured(module, fields, w).items():
        assert tab.coeff(e, ZERO) == val, (alg, r, s, e)


@pytest.mark.parametrize("alg,r,s,applied,paired", [
    ("hq", 1, 0, 122, 40), ("bhat", 1, 0, 122, 40), ("htq", 0, 0, 122, 40),
    ("bhatq", 1, 0, 1804, 901),
])
def test_measured_commutator_operation_counts(monkeypatch, alg, r, s,
                                              applied, paired):
    """The mode grading prunes the outermost slot; bhatq walks every word.

    Without the pruning, hq and htq make 1722 generator applications and
    840 pairings here, and bhat 1804 and 922.
    """
    calls = {"apply": 0, "pair": 0}

    def counted(key, fn):
        def run(*args):
            calls[key] += 1
            return fn(*args)
        return run

    # two_point applies generators through the fields, in vertexops
    apply = counted("apply", fock.apply_generator)
    monkeypatch.setattr(fock, "apply_generator", apply)
    monkeypatch.setattr(vertexops, "apply_generator", apply)
    monkeypatch.setattr(fock, "pair_vectors",
                        counted("pair", fock.pair_vectors))
    vac = FockModule(alg).vacuum()
    vertexops._measured_commutator(vac, vac, r, s,
                                   Window.cube(("x1", "x2"), 20))
    assert (calls["apply"], calls["pair"]) == (applied, paired)


@pytest.mark.parametrize("alg", ["hq", "htq", "bhat", "bhatq"])
def test_kernel_parts_have_no_negative_x1_power(alg):
    """No kernel part of a cataloged pair has an entry at a negative x1
    exponent.  This is why ordered_core sums the negative x1 powers in
    the reversed order with no correction: the multiplier kills the delta
    parts and keeps x1 exponents nonnegative.  A dressing only rescales
    entries, and the library dresses undressed stacks, so the catalog's
    own pairs are all there is to check.
    """
    module = FockModule(alg)
    w = Window.cube(("x1", "x2"), 6)
    entries = 0
    for r in range(-2, 3):
        for s in range(-2, 3):
            pair = pair_of(field_of(module, r), field_of(module, s))
            for part in pair.parts:
                if part.is_delta:
                    continue
                table = vertexops._part_table(part, w, pair.scalars)
                table.require_certified(w)
                nonzero = [e for e, c in table.coeffs.items() if c]
                assert all(e1 >= 0 for e1, _e2 in nonzero), \
                    (r, s, part.kind)
                entries += len(nonzero)
    # the hq and bhat catalogs hold delta parts only
    assert (entries > 0) == (alg in ("htq", "bhatq"))


def test_pair_rejections(hq, htq):
    graded = FockModule("graded")
    with pytest.raises(UnsupportedPairError, match="no commutator catalog"):
        pair_of(field_of(graded), field_of(graded))
    with pytest.raises(UnsupportedPairError, match="different modules"):
        pair_of(field_of(hq), field_of(htq))
    f = field_of(hq)
    for other in (IdentityField(hq), DerivativeField(f), DressedField(f, 1),
                  SumField(hq, [(ONE, f)]), phi_product_n(f, f, -1)):
        for a, b in ((other, f), (f, other)):
            with pytest.raises(UnsupportedPairError,
                               match="no commutator data"):
                pair_of(a, b)


# ---------------------------------------------------------------------------
# multipliers


def test_multiplier_expansion_and_grading():
    m = Multiplier.of((Q, 1), (qp(-1), 1), unit=Q)
    # q (x1 - q x2)(x1 - x2/q) = (x1 - q x2)(q x1 - x2)
    assert m.poly2() == {(2, 0): Q, (1, 1): -(Q * Q) - ONE, (0, 2): Q}
    assert m.degree == 2
    assert m.kappa == 0
    sq = Multiplier.of((ONE, 2), (Q, 2))
    assert sq.degree == 4
    assert sq.kappa == 2
    assert Multiplier.of((Q, 1), (Q, 1)) == Multiplier.of((Q, 2))
    # equal multipliers share one expansion
    assert Multiplier.of((Q, 1), (Q, 1)).poly2() is \
        Multiplier.of((Q, 2)).poly2()
    assert Multiplier.of().poly2() == {(0, 0): ONE}
    with pytest.raises(MultiplierError, match=">= 0"):
        Multiplier.of((Q, -1))
    with pytest.raises(MultiplierError, match="unit"):
        Multiplier.of((Q, 1), unit=ZERO)


def test_canonical_multiplier_kills_deltas(hq, htq):
    pair = pair_of(field_of(hq), field_of(hq))
    m = Multiplier.canonical_for(pair)
    assert m.degree == 2
    check_multiplier(m, pair)
    with pytest.raises(MultiplierError, match="does not kill"):
        check_multiplier(Multiplier.of((Q, 1)), pair)
    dp = pair_of(field_of(htq), field_of(htq))
    md = Multiplier.canonical_for(dp)
    assert md.degree == 4
    check_multiplier(md, dp)
    with pytest.raises(MultiplierError, match="does not kill"):
        check_multiplier(Multiplier.of((ONE, 1), (Q, 1)), dp)
    # first power on (x1 - x2) cannot kill the derivative delta
    with pytest.raises(MultiplierError, match="does not kill"):
        check_multiplier(Multiplier.of((ONE, 1), (Q, 2)), dp)


def _kills(mult, pair) -> bool:
    try:
        check_multiplier(mult, pair)
    except MultiplierError:
        return False
    return True


def test_check_multiplier_matches_probe_oracle_seeded():
    """The multiplicity rule matches the table probe: the library's
    ``check_multiplier`` on undressed pairs, and the test-side rule of the
    dressed-field oracle on pairs with either side dressed."""
    rng = random.Random(20260418)
    modules = [FockModule(alg, level=lvl)
               for alg in ("hq", "htq", "bhat", "bhatq") for lvl in (L, ZERO)]
    distractors = [ONE, Q, qp(-1), qp(2), sc(2)]
    verdicts = []
    undressed_cases = 0
    while len(verdicts) < 240:
        module = rng.choice(modules)
        pair = pair_of(*(field_of(module, rng.randint(-2, 2))
                         for _ in range(2)))
        degrees = [0, 0]
        for i in rng.choice(((), (0,), (1,), (0, 1))):
            degrees[i] = rng.randint(0, 2)
        jl, jr = degrees
        if not pair.delta_parts() and rng.random() < 0.8:
            continue
        top = 3 + jl + jr
        factors = [(p.c, rng.randint(0, top)) for p in pair.delta_parts()]
        factors += [(c, rng.randint(1, 2)) for c in distractors
                    if rng.random() < 0.2]
        rng.shuffle(factors)
        kept, degree = [], 0
        for c, m in factors:
            m = min(m, 9 - degree)
            kept.append((c, m))
            degree += m
        if rng.random() < 0.25:
            # high degree at one point: a probe window that grows with the
            # degree only on one side accepts such multipliers vacuously
            c = rng.choice(distractors + [p.c for p in pair.delta_parts()])
            kept.append((c, 9 - degree))
        mult = Multiplier.of(*kept)
        want = probe_kills(mult, pair, jl, jr)
        assert dressed_kills(mult, pair, jl + jr) == want, \
            (module.algebra, pair, mult, jl, jr)
        if not (jl or jr):
            assert _kills(mult, pair) == want, (module.algebra, pair, mult)
            undressed_cases += 1
        verdicts.append(want)
    assert 40 <= sum(verdicts) <= 200
    assert undressed_cases >= 60


def test_undersized_multiplier_of_high_degree_is_rejected(hq):
    """A seventh power at one delta leaves the other delta alive."""
    a, b = field_of(hq, 2), field_of(hq, 0)
    pair = pair_of(a, b)
    mult = Multiplier.of((qp(-1), 7))
    assert not probe_kills(mult, pair)
    with pytest.raises(MultiplierError, match="does not kill"):
        check_multiplier(mult, pair)
    with pytest.raises(MultiplierError, match="does not kill"):
        phi_product_n(a, b, -1, mult=mult)


@pytest.mark.parametrize("alg", ["hq", "htq"])
def test_level_zero_needs_no_multiplier(alg):
    zero = FockModule(alg, level=ZERO)
    a, b = field_of(zero, 1), field_of(zero, 0)
    assert Multiplier.canonical_for(pair_of(a, b)) == Multiplier.of()
    symbolic = FockModule(alg)
    old = Multiplier.canonical_for(pair_of(field_of(symbolic, 1),
                                           field_of(symbolic, 0)))
    assert old.degree >= 2
    states = [zero.vacuum(), zero.basis_vector((-1, 0))]
    for n in (-2, -1, 0):
        bare = phi_product_n(a, b, n)
        padded = phi_product_n(a, b, n, mult=old)
        for v in states:
            assert bare.apply_coeffs(-2, 2, v) == padded.apply_coeffs(-2, 2, v)


def test_inverse_exp_leading_terms():
    u = closed_form_inverse(Multiplier.of((ONE, 2), (Q, 2)), 1)
    shrink = ONE - Q
    assert u[-2] == ONE / (shrink * shrink)
    assert u[-1] == (Q - sc(3)) / (shrink * shrink * shrink)


def test_inverse_exp_prefix_equals_direct_computation():
    """A z order of the closed-form table does not depend on how deep the
    table goes, and equal multipliers share one growing table."""
    m = Multiplier.of((ONE, 2), (Q, 1), unit=Q)
    small = list(scalar.ExpInverse(m.factors, m.unit)._upto(2))
    big = list(scalar.ExpInverse(m.factors, m.unit)._upto(6))
    assert len(small) == 5 and len(big) == 9 and big[:5] == small
    table = vertexops._shifted_inverse(m, SYMBOLIC)
    assert vertexops._shifted_inverse(
        Multiplier.of((Q, 1), (ONE, 2), unit=Q), SYMBOLIC) is table
    assert table._upto(2)[:5] == small
    assert table._upto(6)[:9] == big
    # a shallow read after the table grew reads the same list
    assert table._upto(2) is table._upto(6)
    assert table._upto(2)[:5] == small


def test_exp_series_convolves_to_one():
    m = Multiplier.of((ONE, 2), (Q, 2))
    es = m.exp_series(6)
    assert es[0] == ZERO
    assert es[1] == ZERO
    u = closed_form_inverse(m, 4)
    for total in range(0, 4):
        acc = ZERO
        for j, c in enumerate(es):
            if total - j in u:
                acc = acc + c * u[total - j]
        assert acc == (ONE if total == 0 else ZERO), total


def test_exp_product_matches_series_oracle_seeded():
    """The e^z-polynomial route equals multiplying the factor series, in
    both fields."""
    rng = random.Random(9)
    point = RationalPoint(Fraction(-3, 2), Fraction(5, 7))
    seen_units = 0
    for _trial in range(24):
        exps = rng.sample(range(-4, 5), rng.randint(1, 4))
        factors = [(k, rng.randint(0, 4), rng.choice((1, -1))) for k in exps]
        degree = 0
        kept = []
        for k, m, sign in factors:
            m = min(m, 14 - degree)
            kept.append((k, m, sign if k else 1))
            degree += m
        unit_exp = rng.choice((0, 0, 1, -2))
        sign = rng.choice((1, -1))
        seen_units += unit_exp != 0 or sign != 1
        zmax = rng.randint(0, 12)
        for k_ in (SYMBOLIC, point):
            mult = Multiplier.of(
                *((k_.q_power(k) * s_, m) for k, m, s_ in kept),
                unit=k_.q_power(unit_exp) * sign)
            order = zmax + mult.kappa
            assert mult.exp_series(order, k_) == \
                exp_product_oracle(mult, order, k_), (mult, order)
            assert closed_form_inverse(mult, zmax, k_) == \
                inverse_exp_oracle(mult, zmax, k_), (mult, zmax)
    assert seen_units >= 6


# ---------------------------------------------------------------------------
# substitution and residue products


def test_substitution_product_heisenberg_level(hq):
    vac = hq.vacuum()
    gap = L / (Q - qp(-1))
    up = phi_product_n(field_of(hq, 1), field_of(hq), 0)
    assert up.apply_coeffs(0, 0, vac) == [vac.scale(gap)]
    down = phi_product_n(field_of(hq), field_of(hq, 1), 0)
    assert down.apply_coeffs(0, 0, vac) == [vac.scale(-gap)]
    flat = phi_product_n(field_of(hq, 1), field_of(hq, 1), 0)
    assert flat.apply_coeffs(0, 0, vac) == [hq.zero()]
    deeper = phi_product_n(field_of(hq, 1), field_of(hq), 1)
    assert deeper.apply_coeffs(0, 0, vac) == [hq.zero()]


def test_substitution_product_multiplier_choice(hq):
    vac = hq.vacuum()
    pair = pair_of(field_of(hq, 1), field_of(hq))
    base = Multiplier.canonical_for(pair)
    padded = Multiplier.of(*base.factors, (sc(2), 1), unit=Q)
    a = phi_product_n(field_of(hq, 1), field_of(hq), 0)
    b = phi_product_n(field_of(hq, 1), field_of(hq), 0, mult=padded)
    assert a.apply_coeffs(-2, 2, vac) == b.apply_coeffs(-2, 2, vac)
    with pytest.raises(MultiplierError, match="does not kill"):
        phi_product_n(field_of(hq, 1), field_of(hq), 0,
                      mult=Multiplier.of((Q, 1)))


def test_degenerate_products_collapse_to_constants(htq):
    vac = htq.vacuum()
    f = field_of(htq)
    for n in range(0, 5):
        p = phi_product_n(f, f, n)
        for e, got in zip(range(-2, 3), p.apply_coeffs(-2, 2, vac)):
            if n == 1 and e == 0:
                assert got == vac.scale(L)
            else:
                assert got.is_zero(), (n, e)


def _stack_cases(seed: int):
    """Seeded product-stack arguments, by algebra and field: every algebra
    with a commutator catalog, both fields, the vacuum and one-letter
    states.  Half the multipliers carry an extra factor, at a power of q
    or at a constant that is not one (3, or 2q, which leaves a residual
    factor 1 - 2q in the denominators of 1/p(x e^z, x)), and a third carry
    the unit 1 + q, which is not a monomial."""
    rng = random.Random(seed)
    point = RationalPoint(Fraction(5, 3), Fraction(-2, 7))
    # graded has no commutator catalog, so no product
    for alg in sorted(set(ALGEBRAS) - {"graded"}):
        for scalars in (SYMBOLIC, point):
            mod = FockModule(alg, scalars=scalars)
            q = scalars.q_power(1)
            extra = [scalars.q_power(rng.randint(-2, 2)),
                     scalars.from_int(3), scalars.from_int(2) * q]
            letter = (-rng.randint(1, 2),
                      rng.randint(-1, 1) if mod.spec.shifted else 0)
            for v in (mod.vacuum(), mod.basis_vector(letter)):
                for _trial in range(6):
                    r, s = rng.randint(-1, 1), rng.randint(-1, 1)
                    a, b = field_of(mod, r), field_of(mod, s)
                    factors = Multiplier.canonical_for(pair_of(a, b)).factors
                    if rng.random() < 0.5:
                        factors += ((rng.choice(extra), 1),)
                    unit = scalars.one + q if rng.random() < 0.34 else 1
                    xlo = rng.randint(-3, 1)
                    yield alg, scalars, (
                        a, b, Multiplier.of(*factors, unit=unit), v, xlo,
                        xlo + rng.randint(0, 2), rng.randint(0, 3))


def test_product_stack_matches_vector_oracle_seeded():
    """The shifted-inverse numerators of the engine give the stacks that
    the vector-valued engine gives by expanding e^(kz) and multiplying by
    1/p(x e^z, x) term by term."""
    nonzero: dict[str, int] = {}
    shapes = set()
    for alg, scalars, args in _stack_cases(31):
        want = product_stack_oracle(*args)
        got = _vectors(vertexops._product_stack(*args))
        mult = args[2]
        assert got == want, (alg, mult.describe(), args[4:])
        nonzero[alg] = nonzero.get(alg, 0) + len(want)
        two_q = scalars.from_int(2) * scalars.q_power(1)
        shapes |= {(scalars is SYMBOLIC, shape) for shape, seen in (
            ("3", any(c == 3 for c, _m in mult.factors)),
            ("2q", any(c == two_q for c, _m in mult.factors)),
            ("1+q", mult.unit != 1)) if seen}
    assert min(nonzero.values()) >= 20, nonzero
    assert shapes == {(symbolic, shape) for symbolic in (True, False)
                      for shape in ("3", "2q", "1+q")}


def _stack_mismatches(symbolic_only: bool = False) -> set:
    """(algebra, symbolic?) of each seeded stack case whose engine stack
    differs from the vector oracle's."""
    return {(alg, scalars is SYMBOLIC)
            for alg, scalars, args in _stack_cases(31)
            if (scalars is SYMBOLIC or not symbolic_only)
            and _vectors(vertexops._product_stack(*args))
            != product_stack_oracle(*args)}


def test_short_stack_denominator_fails_the_oracle(monkeypatch):
    """A denominator D_T that lacks one cyclotomic factor gives stacks the
    vector oracle refuses: the comparison sees the denominators.  The
    short D_T is planted in the table the columns read; the table keeps
    growing from the true one."""
    _fresh_product_memos(monkeypatch)
    base = scalar.ExpInverse._entry

    def short(den, ws):
        c, a, cyc, r = den
        if cyc:
            (d, e), rest = cyc[0], cyc[1:]
            cyc = ((d, e - 1),) + rest if e > 1 else rest
        return base((c, a, cyc, r), ws)

    monkeypatch.setattr(scalar.ExpInverse, "_entry", staticmethod(short))
    assert _stack_mismatches(symbolic_only=True), \
        "no stack saw the short denominator"


def test_product_column_cancellation_counts(monkeypatch):
    """The cancellation work of the product columns, pinned as counts:
    symbolic special-pair-transfer at window 3, from empty closed-form
    tables, computes 6 columns, and the synthetic divisions
    (``scalar._ldiv``) made inside them, table growth included, number
    54: the columns that divide by the factors at c != 1 read the table
    of 1 / (unit * (e^z - 1)^kappa), whose denominators cancel no powers
    of G (250 when every column read the full table).  A first run warms
    the cyclotomic memos, so the counts do not depend on the tests run
    before."""
    _fresh_product_memos(monkeypatch)
    verify_identity("special-pair-transfer", window=3)
    _fresh_product_memos(monkeypatch)
    calls = {"column": 0, "ldiv": 0}
    depth = [0]
    column, ldiv = scalar.ExpInverse.column, scalar._ldiv

    def counted_column(self, cs, zneed):
        calls["column"] += 1
        depth[0] += 1
        try:
            return column(self, cs, zneed)
        finally:
            depth[0] -= 1

    def counted_ldiv(a, p):
        calls["ldiv"] += depth[0] > 0
        return ldiv(a, p)

    monkeypatch.setattr(scalar.ExpInverse, "column", counted_column)
    monkeypatch.setattr(scalar, "_ldiv", counted_ldiv)
    rep = verify_identity("special-pair-transfer", window=3)
    assert rep.status == PASS, rep.notes
    assert calls == {"column": 6, "ldiv": 54}


def _times_linear(cs: dict, c) -> dict:
    """sum_k cs[k] w^k times (w - c), as a dict by k."""
    out: dict = {}
    for k, v in cs.items():
        out[k + 1] = out.get(k + 1, ZERO) + v
        out[k] = out.get(k, ZERO) - c * v
    return {k: v for k, v in out.items() if v}


def test_column_routes_match_the_full_table_and_the_series_oracle():
    """A column that divides by its factors at c = q^a != 1 reads the
    quotient against the table of 1 / (unit * (e^z - 1)^kappa); one that
    does not reads the full table.  Both give what the full table and the
    series-route oracle give, for a in {-2, -1, 1, 2} with multiplicities
    1 to 3, kappa 0 to 2, the units 1 and q and k of both signs.  At a
    point every column reads the full table and gives the symbolic
    column's values there."""
    rng = random.Random(37)
    point = RationalPoint(Fraction(3, 5), 2)
    pool = [ONE, Scalar.from_int(-2), Q, ONE / (ONE + Q), L,
            Q * L - Scalar.from_int(3)]
    zneed = 3
    seen = set()
    for trial in range(16):
        exps = rng.sample((-2, -1, 1, 2), rng.randint(1, 2))
        factors = [(Scalar.q_power(a), rng.randint(1, 3)) for a in exps]
        kappa = rng.randint(0, 2)
        mult = Multiplier.of(*factors, (ONE, kappa),
                             unit=rng.choice((ONE, Q)))
        seen |= {("a", a) for a in exps} | {("m", m) for _c, m in factors}
        seen |= {("kappa", kappa), ("unit", mult.unit)}
        # c_k from Q(w) prod (w - c)^m, with Q of 1 to 3 terms in w^-3..w^2
        cs = {k: rng.choice(pool) for k in rng.sample(range(-3, 3),
                                                      rng.randint(1, 3))}
        for c, m in factors:
            for _ in range(m):
                cs = _times_linear(cs, c)
        k = rng.choice(list(cs))
        near = dict(cs)
        near[k] = near[k] + rng.choice(pool)
        near = {k: v for k, v in near.items() if v}
        u = inverse_exp_oracle(mult, zneed, SYMBOLIC)
        for column, exact in ((cs, True), (near, False)):
            case = (trial, mult.describe(), column, exact)
            table = SYMBOLIC.exp_inverse(mult.factors, mult.unit)
            full = SYMBOLIC.exp_inverse(mult.factors, mult.unit)
            full._divisors = None
            _den, lifted = table._lift(column.values())
            assert (table._quotient(list(column), lifted)
                    is not None) == exact, case
            got = table.column(column, zneed)
            assert (table._reduced is not None) == exact, case
            assert got == full.column(column, zneed), case
            want = []
            for T in range(-kappa, zneed + 1):
                acc = ZERO
                for kk, v in column.items():
                    for j in range(T + kappa + 1):
                        acc = acc + v * exp_coeff(kk, j, SYMBOLIC) * u[T - j]
                want.append(acc)
            assert got == want, case
            at = point.exp_inverse(
                tuple((evaluate(c, point), m) for c, m in mult.factors),
                evaluate(ONE * mult.unit, point))
            values = {kk: evaluate(v, point) for kk, v in column.items()}
            assert at._quotient(list(values), [values[kk] for kk in values]
                                ) is None, case
            assert at.column(values, zneed) == [evaluate(x, point)
                                                for x in got], case
    assert seen == ({("a", a) for a in (-2, -1, 1, 2)}
                    | {("m", m) for m in (1, 2, 3)}
                    | {("kappa", kappa) for kappa in (0, 1, 2)}
                    | {("unit", 1), ("unit", Q)})


def test_fast_suite_column_routes(monkeypatch):
    """A symbolic fast suite, from empty closed-form tables, reads 131
    columns as quotients by their factors at c != 1, 26 that do not
    divide against the full table, and 10 of multipliers with no factor
    at c != 1; its columns make 511 synthetic divisions (``_ldiv``).  A
    first run warms the cyclotomic memos."""
    suite_reports(window=5)
    _fresh_product_memos(monkeypatch)
    routes = {"quotient": 0, "inexact": 0, "no factor": 0}
    calls = {"ldiv": 0}
    depth = [0]
    quotient, column, ldiv = (scalar.ExpInverse._quotient,
                              scalar.ExpInverse.column, scalar._ldiv)

    def counted_quotient(self, ks, lifted):
        out = quotient(self, ks, lifted)
        routes["no factor" if not self._divisors
               else "inexact" if out is None else "quotient"] += 1
        return out

    def counted_column(self, cs, zneed):
        depth[0] += 1
        try:
            return column(self, cs, zneed)
        finally:
            depth[0] -= 1

    def counted_ldiv(a, p):
        calls["ldiv"] += depth[0] > 0
        return ldiv(a, p)

    monkeypatch.setattr(scalar.ExpInverse, "_quotient", counted_quotient)
    monkeypatch.setattr(scalar.ExpInverse, "column", counted_column)
    monkeypatch.setattr(scalar, "_ldiv", counted_ldiv)
    assert all(rep.status == PASS for rep in suite_reports(window=5))
    assert routes == {"quotient": 131, "inexact": 26, "no factor": 10}
    assert calls == {"ldiv": 511}


def test_off_by_one_stirling_row_fails_the_oracle(monkeypatch):
    """One Stirling number S(2, 1) off by one makes the closed form give
    stacks the vector oracle refuses, in both fields."""
    _fresh_product_memos(monkeypatch)
    base = scalar._stirling_row

    def wrong(t):
        row = base(t)
        return row[:1] + (row[1] + 1,) + row[2:] if t == 2 else row

    monkeypatch.setattr(scalar, "_stirling_row", wrong)
    wrong_cases = _stack_mismatches()
    assert {symbolic for _alg, symbolic in wrong_cases} == {True, False}
    assert {alg for alg, _symbolic in wrong_cases} >= {"hq", "htq"}


def _fast_suite_multipliers(scalars) -> set:
    """The multipliers of every product table a fast suite asks for in
    one field; they do not depend on the window."""
    keys = set()
    base = vertexops._shifted_inverse

    def recorded(mult, field):
        keys.add((mult, field))
        return base(mult, field)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(vertexops, "_shifted_inverse", recorded)
        suite_reports(window=1, point=None if scalars is SYMBOLIC
                      else scalars)
    return {mult for mult, _field in keys}


@pytest.mark.parametrize("scalars", [
    SYMBOLIC, RationalPoint(Fraction(3, 5), Fraction(2))],
    ids=["symbolic", "point"])
def test_shifted_inverse_matches_the_series_route(scalars):
    """D_T and every W_J of the closed form equal, representation and
    all, what lifting the inverted series gave: for every multiplier of
    the fast suite to its z order 10, and for factors at 3, 2q and q^-1
    with the unit 1 + q and a pole of order 3."""
    one, q = scalars.one, scalars.q_power(1)
    extra = [
        Multiplier.of((3 * one, 1), (2 * q, 1), (scalars.q_power(-1), 1),
                      unit=one + q),
        Multiplier.of((one, 3), (2 * q, 1), unit=one + q),
        Multiplier.of((one, 1), (3 * one, 2), unit=one + q),
    ]
    mults = _fast_suite_multipliers(scalars)
    # six multipliers of product stacks and the multiplier 1, whose
    # table of u = 1 expands e^(kz) alone
    assert len(mults) == 7 and Multiplier.of() in mults
    for mult in sorted(mults, key=Multiplier.describe) + extra:
        table = scalars.exp_inverse(mult.factors, mult.unit)._upto(10)
        want = shifted_inverse_oracle(mult, 10, scalars)
        assert [den for den, _w in table] == [den for den, _w in want], \
            mult.describe()
        assert table == want, mult.describe()


@pytest.mark.parametrize("scalars, window", [
    (SYMBOLIC, 3), (RationalPoint(Fraction(3, 5), Fraction(2)), 5)],
    ids=["symbolic", "point"])
def test_dressed_stack_matches_direct_dressed_stack(scalars, window):
    """D = theta_x - d/dz on the undressed stack, one power at a time
    through ``StateTable.dressings``, gives the stacks of
    (a, theta^j b / j!) that the closed form of D^j / j! gives, for every
    jmax up to 5 on the whole z range it documents.  Up to window they
    also equal, entry for entry, the stacks the vector oracle builds
    directly from the dressed field, with the undressed canonical
    multiplier raised by j."""
    xwin = 2
    jtop = 5
    nonzero = 0
    for alg, r, s in (("hq", 1, 0), ("hq", 0, 1), ("htq", 1, 0),
                      ("htq", 0, 0)):
        mod = FockModule(alg, scalars=scalars)
        a, b = field_of(mod, r), field_of(mod, s)
        mult = Multiplier.canonical_for(pair_of(a, b))
        for v in (mod.vacuum(), mod.basis_vector((-1, 0))):
            base = vertexops._product_stack(a, b, mult, v, -xwin, xwin,
                                            2 * jtop)
            # one order below the lowest stack, where every stack is zero
            zlo = -mult.kappa - jtop - 1
            for jmax in range(jtop + 1):
                stacks = base.dressings(jmax, zlo, jtop)
                assert len(stacks) == jmax + 1
                for j, got in enumerate(stacks):
                    top = jtop + jmax - j
                    want = dressed_direct(base, j, zlo, top)
                    assert {key: vec for key, vec in _vectors(got).items()
                            if zlo <= key[1] <= top} == want, \
                        (alg, r, s, v, jmax, j)
            for j, got in enumerate(base.dressings(window, zlo, window)):
                direct = product_stack_oracle(a, DressedField(b, j),
                                              raised(mult, j), v, -xwin,
                                              xwin, window)
                for key in ((E, t) for E in range(-xwin, xwin + 1)
                            for t in range(zlo, window + 1)):
                    assert got.get(*key) == direct.get(key, mod.zero()), \
                        (alg, r, s, v, j, key)
                nonzero += len(direct)
    assert nonzero >= 300


def test_residue_products_identity_laws(bq):
    vac = bq.vacuum()
    f = field_of(bq, 1)
    one = IdentityField(bq)
    state = f.apply_coeff(0, vac)
    right = eproduct_n(f, one, -1)
    left = eproduct_n(one, f, -1)
    for e in range(-1, 3):
        assert right.apply_coeff(e, state) == f.apply_coeff(e, state)
        assert left.apply_coeff(e, state) == f.apply_coeff(e, state)
    for n in (0, 1, 2):
        assert eproduct_n(one, f, n).apply_coeff(1, state).is_zero()


def test_residue_product_values(bq):
    vac = bq.vacuum()
    p1 = eproduct_n(field_of(bq, 1), field_of(bq), 1)
    assert p1.apply_coeff(0, vac) == vac.scale(-L)
    p0 = eproduct_n(field_of(bq, 1), field_of(bq), 0)
    assert p0.apply_coeff(0, vac).is_zero()


# ---------------------------------------------------------------------------
# realizing vacuum vectors as fields


def test_field_realization_shallow(bq):
    f = psi_map(bq.basis_vector((-1, 0)))
    assert f.module.algebra == "htq"
    assert f.module.level == bq.level
    tvac = f.module.vacuum()
    base = field_of(f.module)
    assert f.apply_coeffs(-1, 2, tvac) == base.apply_coeffs(-1, 2, tvac)

    g = psi_map(bq.basis_vector((-1, 1)))
    shifted = field_of(f.module, 1)
    assert g.apply_coeffs(-1, 2, tvac) == shifted.apply_coeffs(-1, 2, tvac)


def test_field_realization_limits(bq):
    target = FockModule("htq", level=Q)
    src = FockModule("bhatq", level=Q)
    f = psi_map(src.basis_vector((-1, 0)), target=target)
    assert f.module == target
    for word in ((), ((-2, 1),), ((-2, 0), (-1, 1)),
                 ((-3, 0), (-2, 0), (-1, 0))):
        with pytest.raises(UnsupportedPairError,
                           match="one or two mode -1 letters"):
            psi_map(bq.basis_vector(*word))
    with pytest.raises(UnsupportedPairError, match="no field realization"):
        psi_map(FockModule("graded").vacuum())


def test_field_realization_depth_two_runs(bq):
    v = bq.basis_vector((-1, 0), (-1, 1))
    f = psi_map(v)
    tvac = f.module.vacuum()
    out, = f.apply_coeffs(0, 0, tvac)
    assert out.module == f.module


# ---------------------------------------------------------------------------
# translations and skew kernels


def test_translation_derivation(bq):
    assert translate(bq.vacuum()).is_zero()
    v = bq.basis_vector((-2, 0), (-1, 1))
    want = bq.basis_vector((-3, 0), (-1, 1)).scale(sc(2)) \
        + bq.basis_vector((-2, 0), (-2, 1))
    assert translate(v) == want


def test_skew_kernel_values(bq):
    k = extract_s_kernel(bq, -1, 0, 4)
    c0 = -((Q ** 4 + sc(10) * Q * Q + ONE) * L) \
        / (sc(12) * (Q * Q - ONE) ** 2)
    assert dict(k.coeffs) == {-2: L, 0: c0}
    assert k.g(-2) == L
    assert k.g(1) == ZERO
    assert k.reflected(-2) == L
    assert extract_s_kernel(bq, 1, 1, 4).coeffs == ()
    neg = extract_s_kernel(bq, 1, 0, 4)
    for e in range(-2, 5):
        assert neg.g(e) == -k.g(e)


def test_skew_kernel_unitarity_sample(bq):
    a = extract_s_kernel(bq, -1, 1, 4)
    b = extract_s_kernel(bq, 1, -1, 4)
    assert a.coeffs
    for e in range(-3, 5):
        assert a.g(e) + b.reflected(e) == ZERO


def test_skew_kernel_needs_shifted_algebra(hq):
    with pytest.raises(VertexError, match="shifted algebras"):
        extract_s_kernel(hq, 0, 0, 2)


def test_special_bracket_shape(hq, htq):
    """The htq pair is two ratio kernels and two euler deltas; of the
    deltas only the one at c = 1, of coefficient l, survives as the
    derivative delta.  Any other kind of part is refused."""
    w = Window.cube(("x1", "x2"), 4)
    pair = pair_of(field_of(htq), field_of(htq))
    assert sorted(p.kind for p in pair.parts) == [
        "euler", "euler", "iratio", "iratio"]
    ratios = PairData(tuple(p for p in pair.parts if p.kind == "iratio"))
    deltas = _special_image(pair, w) - _special_image(ratios, w)
    assert_same_table(deltas, delta_family("dshift", ONE, w).scale(L), w)
    with pytest.raises(VertexError, match="outside the special"):
        _special_image(pair_of(field_of(hq), field_of(hq)), w)


def test_special_bracket_image_matches_table_oracle(htq):
    # the htq image is the level times the bhatq bracket expansion
    w = Window.cube(("x1", "x2"), 5)
    for r, s in ((0, 0), (1, 0), (0, 1), (2, 0)):
        pair = pair_of(field_of(htq, r), field_of(htq, s))
        got = _special_image(pair, w)
        assert_same_table(got, bhatq_oracle_table(r - s, w).scale(L), w)


@pytest.mark.parametrize("c", [ONE, -ONE, Scalar.from_int(2), -Q],
                         ids=["1", "-1", "2", "-q"])
def test_special_bracket_image_beyond_q_powers(c):
    # ratio parts at values that are not powers of q; c = 1 has the pole
    w = Window.cube(("x1", "x2"), 5)
    pair = PairData((PairPart("iratio", L, c), PairPart("euler", L, ONE)))
    g = g_series_oracle(c, w.hi[0] + w.hi[1])
    want = diff_oracle_table(lambda j: L * g.coeff((j,), ZERO), L, w)
    assert_same_table(_special_image(pair, w), want, w)


@pytest.mark.parametrize("scalars", [
    SYMBOLIC, RationalPoint(Fraction(3, 5), Fraction(2))],
    ids=["symbolic", "point"])
def test_special_image_is_the_bhatq_pair_table(scalars):
    """The substitution image of the htq pair (r, 0) is the bhatq pair
    (r, 0) of a module at the same level, catalog part by catalog part:
    equal coefficients, certificates and directions, for r in -3..3 at
    windows 3 and 5."""
    htq = FockModule("htq", scalars=scalars)
    bhatq = FockModule("bhatq", level=htq.level, scalars=scalars)
    for r in range(-3, 4):
        image = pair_of(field_of(htq, r), field_of(htq))
        catalog = pair_of(field_of(bhatq, r), field_of(bhatq))
        for radius in (3, 5):
            w = Window.cube(("x1", "x2"), radius)
            got, want = _special_image(image, w), catalog.table(w)
            case = (r, radius)
            assert got.coeffs == want.coeffs, case
            assert cert_fields(got.cert) == cert_fields(want.cert), case
            assert got.direction == want.direction, case


# ---------------------------------------------------------------------------
# table comparison


def test_cmp_tables_matches_window_scan_oracle_seeded():
    """The support scan reports what a scan of the whole window reports."""
    rng = random.Random(61)
    point = RationalPoint(Fraction(3, 5), Fraction(2))
    # q and 3/5, l and 2 differ as symbols but agree at the point
    values = (ONE, -ONE, Q, sc("3/5"), L, sc(2), qp(-2) + L)

    def window(n):
        lo = tuple(-rng.randint(0, 4) for _ in range(n))
        return Window(tuple(f"x{i}" for i in range(n)), lo,
                      tuple(a + rng.randint(0, 5) for a in lo))

    def table(w, density):
        # entries one step outside the window as well
        wide = Window(w.vars, tuple(a - 1 for a in w.lo),
                      tuple(b + 1 for b in w.hi))
        return {e: rng.choice(values) for e in wide.exponents()
                if rng.random() < density}

    def changed(coeffs, w, k):
        out = dict(coeffs)
        for e in rng.sample(list(w.exponents()), min(k, w.size())):
            out[e] = rng.choice(values)
        return out

    def poly(coeffs):
        return TruncatedLaurent.polynomial(w.vars, coeffs)

    def at_point(t):
        # the same table with every value taken at the point
        return TruncatedLaurent(t.vars, {e: evaluate(c, point)
                                         for e, c in t.coeffs.items()},
                                t.cert, t.direction)

    def outside(coeffs, w):
        out = dict(coeffs)
        e = tuple(b + 1 for b in w.hi)
        out[e] = out.get(e, ZERO) + ONE
        return out

    seen = {PASS: 0, FAIL: 0, INCONCLUSIVE: 0, "cut": 0, "zero": 0}
    for _trial in range(40):
        w = window(rng.randint(1, 3))
        base = table(w, rng.choice((0.0, 0.2, 0.6)))
        inner = Window(w.vars, w.lo,
                       tuple(max(a, b - 1) for a, b in zip(w.lo, w.hi)))
        n = len(w.vars)
        # a table that certifies no coefficient
        nothing = Cert(False, (NEG_INF,) * n, (POS_INF,) * n, (NEG_INF,) * n)
        pairs = [
            (poly(base), poly(dict(base))),
            (poly(base), poly(outside(base, w))),
            (poly(base), poly(changed(base, w, rng.randint(1, 12)))),
            (poly(base).restrict(w), poly(changed(base, w, 9)).restrict(w)),
            (poly(base).restrict(inner), poly(changed(base, w, 2))),
            (poly(changed(base, w, 9)), poly(base).restrict(inner)),
            (poly({}), poly({})),
            (TruncatedLaurent(w.vars, {}, nothing), poly(base)),
        ]
        for got, want in pairs:
            for a, b in ((got, want), (at_point(got), at_point(want))):
                rep = compare_on("t", a, b, w)
                ref = cmp_tables_oracle("t", a, b, w)
                assert (rep.status, rep.checked, rep.region,
                        rep.failures, rep.notes) == \
                    (ref.status, ref.checked, ref.region,
                     ref.failures, ref.notes), (w, a.coeffs, b.coeffs)
                seen[rep.status] += 1
                seen["cut"] += "..." in rep.failures
                seen["zero"] += rep.checked == 0
    assert min(seen.values()) >= 10, seen


# ---------------------------------------------------------------------------
# the identity registry


@pytest.fixture(scope="module")
def small_reports():
    return suite_reports(window=4)


def test_registry_runs_clean_at_small_window(small_reports):
    assert len(small_reports) == len(LAWS)
    bad = [(r.name, r.status, r.failures[:2]) for r in small_reports
           if r.status != PASS]
    assert not bad
    assert all(r.checked > 0 for r in small_reports)


def test_registry_names_cover_catalog(small_reports):
    base = sorted(r.name.split("[")[0] for r in small_reports)
    assert base == sorted(LAWS)


def test_small_window_is_inconclusive_not_passing():
    rep = verify_identity("hq-quasi-locality", window=1)
    assert rep.status == INCONCLUSIVE
    assert rep.notes
    control = verify_identity("hq-quasi-locality-control", window=0)
    assert control.status == INCONCLUSIVE


def test_tiny_windows_never_fail():
    for name in sorted(LAWS):
        for window in range(4):
            rep = verify_identity(name, window=window)
            assert rep.status != FAIL, (name, window, rep.failures)
    assert verify_identity("locality-transfer",
                           window=0).status == INCONCLUSIVE


def _exp_kill_oracle(mult, bands, scalars, E1, E2):
    """The x1^E1 x2^E2 coefficient of sum_k a_k e^(k(x1 - x2)) times the
    table whose antidiagonal e1 + e2 = d is constant at bands[d], a_k the
    x1^k coefficient of the multiplier: the sum over the entries with
    e1 <= E1 and e2 <= E2 of the e^(k x1) and e^(-k x2) coefficients."""
    val = scalars.zero
    for d, band in bands.items():
        for e1 in range(d - E2, E1 + 1):
            for (k, _j), a in mult.poly2().items():
                val = val + a * band * exp_coeff(k, E1 - e1, scalars) \
                    * exp_coeff(-k, E2 - d + e1, scalars)
    return val


def test_exp_kill_closed_form_matches_the_exp_series_sum():
    """exp-multiplier-kill reads p(1, 1) times one band.  On seeded
    constant-band tables it equals the sum over e^(kz) coefficients, for
    multipliers with a factor at c = 1 (p(1, 1) = 0) and without one."""
    rng = random.Random(20261020)
    for scalars in (SYMBOLIC, RationalPoint(Fraction(3, 5), 2)):
        one, q = scalars.one, scalars.q_power(1)
        with_one = [Multiplier.of((one, 1), (q ** -2, 1)),
                    Multiplier.of((one, 2), (q, 1), unit=q + q)]
        without = [Multiplier.of((q, 1), (q ** -1, 1)),
                   Multiplier.of((q ** 2, 2), (3 * one, 1), unit=-q)]
        for mult in with_one + without:
            bands = {}
            for d in range(-7, 8):
                if rng.random() < 0.75:
                    c = from_fraction(scalars, Fraction(rng.randint(-9, 9),
                                                        rng.randint(1, 5)))
                    bands[d] = c * q ** rng.randint(-2, 2) * (
                        scalars.level if rng.random() < 0.5 else one)
            cases = vertexops._exp_kill_cases(mult, bands, scalars)
            want = {f"at ({E1}, {E2})":
                    _exp_kill_oracle(mult, bands, scalars, E1, E2)
                    for E1 in range(-3, 4) for E2 in range(-3, 4)}
            case = (scalars, mult.describe())
            assert {label: v for label, v, _z in cases} == want, case
            assert all(z == scalars.zero for _l, _v, z in cases), case
            assert any(want.values()) == (mult in without), case


def test_numeric_point_evaluation():
    pt = RationalPoint(Fraction(3, 5), Fraction(2))
    assert verify_identity("hq-commutator-delta", window=4,
                           point=pt).status == PASS
    assert verify_identity("htq-commutator-kernel-form", window=4,
                           point=pt).status == PASS


# a negative q0, |q0| < 1, an integer q0, a negative and a fractional level
_POINTS = [RationalPoint(Fraction(*q), Fraction(*l)) for q, l in (
    ((-2,), (1,)), ((3, 5), (-5, 2)), ((3,), (2, 3)), ((-7, 3), (-1,)))]


@pytest.mark.parametrize("point", _POINTS,
                         ids=lambda p: f"q0={p.q0},l0={p.l0}")
def test_point_reports_match_symbolic(small_reports, point):
    """Every law reads the same at a point as in Q(q, l), field by field."""
    def fields(r):
        return (r.name, r.status, r.checked, r.region, r.failures, r.notes)

    at_point = suite_reports(window=4, point=point)
    assert [fields(r) for r in at_point] == [fields(r) for r in small_reports]


def _at(vec, point):
    """The coefficients of a symbolic vector, evaluated at the point."""
    out = {m: evaluate(c, point) for m, c in vec.terms.items()}
    return {m: c for m, c in out.items() if c}


def test_point_values_match_evaluated_symbolic_seeded():
    """Brackets, two-point tables and product stacks computed at a point
    equal the symbolic values evaluated there."""
    rng = random.Random(77)
    for point in _POINTS:
        for _trial in range(60):
            alg = rng.choice(sorted(ALGEBRAS))
            shifted = ALGEBRAS[alg].shifted
            m, n = rng.randint(-6, 6), rng.randint(-6, 6)
            r, s = (rng.randint(-2, 2), rng.randint(-2, 2)) if shifted \
                else (0, 0)
            assert bracket_modes(alg, m, n, r, s, point) == \
                evaluate(bracket_modes(alg, m, n, r, s), point)
        for alg in sorted(ALGEBRAS):
            sym, num = FockModule(alg), FockModule(alg, scalars=point)
            shifted = sym.spec.shifted
            for _trial in range(3):
                word = [(-rng.randint(1, 3), rng.randint(-1, 1) if shifted
                         else 0) for _ in range(rng.randint(0, 2))]
                shifts = [rng.randint(-1, 1) for _ in range(2)]
                w = Window.cube(("x1", "x2"), rng.randint(1, 4))
                tables = []
                for mod in (sym, num):
                    ket = mod.basis_vector(*word)
                    fields = [field_of(mod, k) for k in shifts]
                    tables.append(two_point(ket, fields, ket, w))
                want, got = tables
                assert got.coeffs == {e: v for e, v in (
                    (e, evaluate(c, point)) for e, c in want.coeffs.items())
                    if v}, (alg, word, shifts)
        for alg in ("hq", "htq"):
            sym, num = FockModule(alg), FockModule(alg, scalars=point)
            r, s = rng.randint(-1, 1), rng.randint(-1, 1)
            j = rng.randint(0, 2)
            stacks = []
            for mod in (sym, num):
                a, b = field_of(mod, r), field_of(mod, s)
                mult = Multiplier.canonical_for(pair_of(a, b))
                v = mod.basis_vector((-1, 0))
                # the stack of (a, theta^j b / j!), as the image brackets
                # read it
                stacks.append(_vectors(vertexops._product_stack(
                    a, b, mult, v, -2, 2, 3 + j).dressings(
                        j, -mult.kappa, 3)[j]))
            want, got = stacks
            assert set(got) <= set(want)
            for key, vec in want.items():
                assert _at(vec, point) == \
                    (got[key].terms if key in got else {}), (alg, key)


def test_point_run_builds_no_symbolic_scalar(monkeypatch):
    """A point run never falls back to symbolic arithmetic."""
    def refuse(num, fd):
        raise AssertionError("a Scalar was built in a point run")

    want = [r.status for r in suite_reports(window=3)]
    point = RationalPoint(Fraction(-7, 4), Fraction(5, 3))
    monkeypatch.setattr(scalar, "_make", refuse)
    assert [r.status for r in suite_reports(window=3, point=point)] == want
    assert want.count(PASS) >= 10


@pytest.mark.parametrize("point", [
    None, RationalPoint(Fraction(3, 5), Fraction(2))],
    ids=["symbolic", "point"])
def test_each_law_reports_alone_as_in_the_suite(point):
    """A law run alone, in the reverse of the suite's order, reports what
    it reports inside the suite: no law depends on what another left
    behind."""
    def fields(rep):
        return rep.name, rep.status, rep.checked, rep.region, rep.failures

    suite = {rep.name: fields(rep)
             for rep in suite_reports(window=3, point=point)}
    alone = {}
    for name in sorted(LAWS, reverse=True):
        rep = verify_identity(name, window=3, point=point)
        alone[rep.name] = fields(rep)
    assert len(alone) == len(LAWS)
    assert alone == suite


@pytest.mark.parametrize("point", [
    None, RationalPoint(Fraction(3, 5), Fraction(2))],
    ids=["symbolic", "point"])
def test_each_suite_builds_its_own_stacks(monkeypatch, point):
    """Every law builds its own stacks, and the next suite reuses none.
    Each order of an image bracket builds one undressed stack per state,
    so its products need only the pairs' canonical multipliers; equal
    fields share one order.  A realized product field reads every x
    exponent of a window off one stack: scale-covariance builds one per
    shift and state, and one per state for the unshifted field it
    scales.  Weak associativity builds one ordered core per state and
    left field, which both of its sides read, and reuses it for a repeated
    left field."""
    calls = []
    core = vertexops.ordered_core
    tables = set()
    shifted = vertexops._shifted_inverse

    def counted(*args):
        calls.append(args)
        return core(*args)

    def recorded(*args):
        tables.add(args)
        return shifted(*args)

    monkeypatch.setattr(vertexops, "ordered_core", counted)
    monkeypatch.setattr(vertexops, "_shifted_inverse", recorded)
    counts = []
    for _run in range(2):
        before = len(calls)
        suite_reports(window=5, point=point)
        counts.append(len(calls) - before)
    assert counts == [26, 26]
    # one closed-form table per multiplier, grown to the deepest z order
    # any law of the suite reads: six for product stacks and the table of
    # u = 1 that expands e^(kz) alone
    assert len(tables) == 7
    before = len(calls)
    verify_identity("scale-covariance", window=5, point=point)
    assert len(calls) - before == 5 * 2 + 2


@pytest.mark.parametrize("point", [
    None, RationalPoint(Fraction(3, 5), Fraction(2))],
    ids=["symbolic", "point"])
@pytest.mark.parametrize("window, applied", [(5, 924), (8, 1395)])
def test_ordered_core_field_applications(monkeypatch, point, window,
                                         applied):
    """Machine-independent gate on the ordered core's memos: the field
    applications (``apply_generator`` calls) made inside ``ordered_core``
    during a suite.  Each first-applied vector and each ordered pair is
    computed once per core, in either field, so a rewrite that loses the
    sharing fails here, not just runs slower."""
    calls = {"inside": 0, "applied": 0}
    apply = vertexops.apply_generator
    core = vertexops.ordered_core

    def counted_apply(*args):
        calls["applied"] += calls["inside"] > 0
        return apply(*args)

    def counted_core(*args):
        calls["inside"] += 1
        try:
            return core(*args)
        finally:
            calls["inside"] -= 1

    monkeypatch.setattr(vertexops, "apply_generator", counted_apply)
    monkeypatch.setattr(vertexops, "ordered_core", counted_core)
    assert all(rep.status == PASS
               for rep in suite_reports(window=window, point=point))
    assert calls["applied"] == applied


def test_law_parameters_pass_through():
    rep = verify_identity("hq-commutator-delta", window=3, r=2, s=1)
    assert rep.status == PASS
    assert "r=2" in rep.name


def test_law_parameters_and_their_defaults():
    """The keyword parameters each law accepts, with their defaults, in
    the order a refusal lists them."""
    r1s0 = [("r", 1), ("s", 0)]
    assert {name: list(spec.params.items()) for name, spec in LAWS.items()} \
        == {"bhat-commutator-delta": r1s0,
            "hq-commutator-delta": r1s0,
            "hq-quasi-locality": [],
            "hq-quasi-locality-control": [],
            "htq-commutator-euler-form": [],
            "htq-commutator-kernel-form": [],
            "htq-quasi-locality": [],
            "htq-quasi-locality-control": [],
            "locality-transfer": r1s0,
            "phi-image-bq-commutator": r1s0,
            "phi-image-heisenberg": r1s0,
            "phi-weak-associativity": [("alg", "hq"), ("x0_order", 6)],
            "scale-covariance": [],
            "special-pair-transfer": [("r", 0), ("s", 0)]}
    refusals = {
        "phi-weak-associativity": "parameter 'r' cannot be 1.5; "
        "phi-weak-associativity takes alg (str), x0_order (int)",
        "hq-commutator-delta": "parameter 'r' cannot be 1.5; "
        "hq-commutator-delta takes r (int), s (int)",
        "hq-quasi-locality": "parameter 'r' cannot be 1; "
        "hq-quasi-locality takes nothing",
    }
    for name, text in refusals.items():
        value = 1.5 if LAWS[name].params else 1
        with pytest.raises(LawParameterError) as exc:
            verify_identity(name, window=0, r=value)
        assert str(exc.value) == text
    # every integer parameter declares the range it accepts, around its
    # default
    for name, spec in LAWS.items():
        ints = {k for k, d in spec.params.items() if type(d) is int}
        assert set(spec.ranges) == ints, name
        for key, (lo, hi) in spec.ranges.items():
            assert lo <= spec.params[key] <= hi, (name, key)


def test_unknown_law_rejected():
    with pytest.raises(VertexError, match="unknown law"):
        verify_identity("frobnicate")


# the laws that build no product, at the window of the wide benchmark
_COMMUTATOR_LAWS = (
    "bhat-commutator-delta", "hq-commutator-delta", "hq-quasi-locality",
    "hq-quasi-locality-control", "htq-commutator-euler-form",
    "htq-commutator-kernel-form", "htq-quasi-locality",
    "htq-quasi-locality-control",
)


def test_commutator_laws_match_wide_golden():
    """The product-free law reports at window 80 are byte-identical."""
    entries = []
    for name in _COMMUTATOR_LAWS:
        rep = verify_identity(name, window=80)
        entries.append({"law": rep.name, "status": rep.status,
                        "checked": rep.checked, "region": rep.region,
                        "failures": list(rep.failures)})
    text = json.dumps(entries, indent=2, sort_keys=True) + "\n"
    golden = Path(__file__).parent / "golden" / "commutators_w80.json"
    assert text == golden.read_text()
    # a control law stops comparing after its first reported failures, so
    # its count is the one taken at that break
    checked = {e["law"]: e["checked"] for e in entries}
    assert checked["hq-quasi-locality-control"] == 1266
    assert checked["htq-quasi-locality-control"] == 1407


def _plant_catalog(monkeypatch, parts_of):
    """Replace the commutator catalog by parts_of(a, b)."""
    monkeypatch.setattr(vertexops, "_base_pair", parts_of)
    # the pair memo must neither serve nor keep unplanted data
    monkeypatch.setattr(vertexops, "pair_of", lru_cache(maxsize=128)(
        vertexops.pair_of.__wrapped__))


def _double_catalog_part(monkeypatch):
    """Plant a wrong catalog: the first part of every pair is doubled."""
    base = vertexops._base_pair
    _plant_catalog(monkeypatch, lambda a, b: tuple(
        PairPart(p.kind, p.coeff + p.coeff, p.c, p.d) if i == 0 else p
        for i, p in enumerate(base(a, b))))


@pytest.mark.parametrize("name", [
    "bhat-commutator-delta", "hq-commutator-delta",
    "htq-commutator-kernel-form", "htq-quasi-locality",
])
def test_doubled_catalog_coefficient_fails(monkeypatch, name):
    """A wrong commutator catalog fails each law at its default window, in
    both fields, and no window below 3 lets it pass."""
    _double_catalog_part(monkeypatch)
    for point in (None, RationalPoint(Fraction(3, 5), Fraction(2))):
        rep = verify_identity(name, point=point)
        assert rep.status == FAIL, (point, rep.status, rep.notes)
        assert rep.failures
        for window in range(3):
            rep = verify_identity(name, window=window, point=point)
            assert rep.status != PASS, (point, window)


def test_undersized_hq_multiplier_fails():
    # the registry's runner closes over the right multiplier, so the
    # undersized one goes to a fresh runner
    run = vertexops._law_quasi_locality("hq", vertexops._HQ_MULT_CONTROL)
    rep = run(10, SYMBOLIC)
    assert rep.status == FAIL
    assert rep.failures


def _double_inverse_constant(monkeypatch):
    """Plant a wrong 1/p(x e^z, x): its z^0 coefficient is doubled."""
    base = scalar.ExpInverse._u

    def wrong(self, t, fd):
        num, den = base(self, t, fd)
        return ({m: 2 * x for m, x in num.items()} if t == 0 else num), den

    monkeypatch.setattr(scalar.ExpInverse, "_u", wrong)


def _shift_top_weight(monkeypatch):
    """Plant a wrong p(x e^z, x): its last z coefficient is off by one."""
    base = Multiplier.exp_series

    def wrong(self, order, scalars):
        out = list(base(self, order, scalars))
        out[-1] = out[-1] + scalars.one
        return out

    monkeypatch.setattr(Multiplier, "exp_series", wrong)


def _double_index_scale(monkeypatch):
    """Plant a wrong realization: family index r scales the argument by
    q^(2r) instead of q^r."""
    monkeypatch.setattr(vertexops, "field_of", lambda module, shift=0:
                        vertexops.GeneratorField(module, 2 * shift))


def _plant_module_bracket(monkeypatch, wrong):
    """Replace the bracket of the module action by wrong(*args)."""
    monkeypatch.setattr(fock, "bracket_modes", wrong)
    # the central-correction memo must neither serve nor keep planted data
    monkeypatch.setattr(fock, "_central", lru_cache(maxsize=1024)(
        fock._central.__wrapped__))


def _double_module_bracket(monkeypatch):
    """Plant a wrong module action: every bracket is doubled."""
    base = fock.bracket_modes

    def wrong(*args):
        v = base(*args)
        return v + v

    _plant_module_bracket(monkeypatch, wrong)


def _fresh_product_memos(monkeypatch):
    """An empty closed-form memo for one test, so that it neither serves
    tables computed before a defect is planted nor keeps planted ones."""
    memo = vertexops._shifted_inverse
    monkeypatch.setattr(vertexops, "_shifted_inverse", lru_cache(
        maxsize=memo.cache_parameters()["maxsize"])(memo.__wrapped__))


# (law, planted defect, pattern of a failure line naming the case)
_PLANTED = [
    ("locality-transfer", _double_inverse_constant,
     r"binomial-kill: at \(-?\d+, -?\d+\): .+ != 0$"),
    ("phi-image-heisenberg", _double_catalog_part,
     r"n=-?\d+, m=-?\d+, state \d, x\^-?\d+: \(.*\): .+ != .+"),
    ("phi-image-bq-commutator", _double_catalog_part,
     r"n=-?\d+, m=-?\d+, state \d, x\^-?\d+: \(.*\): .+ != .+"),
    ("special-pair-transfer", _double_catalog_part,
     r"n=-?\d+, m=-?\d+, state \d, x\^-?\d+: \(.*\): .+ != .+"),
    ("phi-weak-associativity", _shift_top_weight,
     r"state\[\d\]left\[\d\]: state \d, left \d, x\^-?\d+ z\^-?\d+: "
     r"\(.*\): .+ != .+"),
    ("scale-covariance", _double_index_scale,
     r"shift\[-?\d\]: (shift -?\d, state \d|generator, shift -?\d), "
     r"x\^-?\d+: \(.*\): .+ != .+"),
    ("htq-commutator-kernel-form", _double_module_bracket,
     r"mode-constants: mode -?\d+: .+ != .+"),
]


@pytest.mark.parametrize("name, plant, line", _PLANTED,
                         ids=[law for law, _p, _l in _PLANTED])
def test_planted_defect_fails_and_names_its_case(monkeypatch, name, plant,
                                                 line):
    """Each law that tallies its cases fails at window 5 on a planted
    defect, with a failure line that names the case."""
    _fresh_product_memos(monkeypatch)
    plant(monkeypatch)
    rep = verify_identity(name, window=5)
    assert rep.status == FAIL, (rep.status, rep.notes)
    assert any(re.match(line, f) for f in rep.failures), rep.failures


@pytest.mark.parametrize("name", ["phi-image-heisenberg",
                                  "special-pair-transfer"])
def test_planted_catalog_failure_text_is_pinned(monkeypatch, name):
    """The image-bracket laws read their cases in one pass, in the order
    of (n, m, state, x exponent): under a doubled catalog part at window
    5 the failure lines, their "..." cut and the cases scanned stay those
    of ``golden/planted_catalog_failures_w5.json``."""
    golden = json.loads((Path(__file__).parent / "golden"
                         / "planted_catalog_failures_w5.json").read_text())
    _fresh_product_memos(monkeypatch)
    _double_catalog_part(monkeypatch)
    rep = verify_identity(name, window=5)
    assert rep.status == FAIL
    assert {"checked": rep.checked, "failures": rep.failures} == golden[name]


def _double_iratio_parts(monkeypatch):
    """Plant a wrong catalog: every one-sided ratio kernel is doubled."""
    base = vertexops._base_pair
    _plant_catalog(monkeypatch, lambda a, b: tuple(
        PairPart(p.kind, p.coeff + p.coeff, p.c, p.d)
        if p.kind == "iratio" else p for p in base(a, b)))


def _zero_brackets(monkeypatch):
    """Plant a level-zero algebra: the module and the catalog bracket
    every pair of modes to zero."""
    base = fock.bracket_modes
    _plant_module_bracket(monkeypatch,
                          lambda *args: base(*args) - base(*args))
    _plant_catalog(monkeypatch, lambda a, b: ())


def _wrong_hq_multiplier(monkeypatch):
    """Plant a wrong multiplier q (x1 - q x2)(x1 - q^-2 x2) in place of
    q (x1 - q x2)(x1 - q^-1 x2)."""
    spec = LAWS["hq-quasi-locality"]
    monkeypatch.setitem(LAWS, "hq-quasi-locality", vertexops._LawSpec(
        vertexops._law_quasi_locality("hq", (1, ((1, 1), (-2, 1)))),
        spec.default_window, spec.summary))


# the mutation matrix: one planted defect per law, each of which must make
# the law fail at windows 5 and 8
_MATRIX = {law: plant for law, plant, _line in _PLANTED} | {
    "bhat-commutator-delta": _double_catalog_part,
    "hq-commutator-delta": _double_catalog_part,
    "hq-quasi-locality": _wrong_hq_multiplier,
    "hq-quasi-locality-control": _zero_brackets,
    "htq-commutator-euler-form": _double_module_bracket,
    "htq-quasi-locality": _double_iratio_parts,
    "htq-quasi-locality-control": _zero_brackets,
}
# the inner cube of htq-quasi-locality misses the antidiagonal where the
# doubled kernels leave their remainder, so window 5 passes vacuously
_VACUOUS = {("htq-quasi-locality", 5): pytest.mark.xfail(
    strict=True, reason="the inner cube misses the remainder")}


def test_mutation_matrix_covers_every_law():
    assert sorted(_MATRIX) == sorted(LAWS)


@pytest.mark.parametrize("name, window", [
    pytest.param(name, window, marks=_VACUOUS.get((name, window), ()))
    for name in sorted(_MATRIX) for window in (5, 8)])
def test_mutation_matrix_row_fails(monkeypatch, name, window):
    _fresh_product_memos(monkeypatch)
    _MATRIX[name](monkeypatch)
    rep = verify_identity(name, window=window)
    assert rep.status == FAIL, (rep.status, rep.notes)


# the planted defects of the module, each of which the kill-coverage test
# runs over every law
_DEFECTS = (_double_catalog_part, _double_inverse_constant, _shift_top_weight,
            _double_index_scale, _double_module_bracket, _double_iratio_parts,
            _zero_brackets)


def _tallied_cases(plant) -> dict[tuple[str, str, str], bool]:
    """Run every law at window 5, symbolic, under a planted defect (None
    for none) and record each (law, part, label) case it tallies with
    whether got == want.  The recorder reads every case, past the cut of
    ``report.scan``, and hands them on to ``tally`` unchanged."""
    seen: dict[tuple[str, str, str], bool] = {}
    with pytest.MonkeyPatch.context() as mp:
        _fresh_product_memos(mp)
        if plant is not None:
            plant(mp)
        tally = vertexops.tally
        for law in sorted(LAWS):
            def recording(name, region, cases, law=law):
                cases = list(cases)
                for label, got, want in cases:
                    seen[(law, name, label)] = got == want
                return tally(name, region, cases)

            mp.setattr(vertexops, "tally", recording)
            verify_identity(law, window=5)
    return seen


def test_kill_coverage_is_pinned():
    """Per law that tallies its cases, the number of cases at window 5 and
    the number of them that some planted defect of ``_DEFECTS`` fails stay
    those of ``golden/kill_coverage_w5.json``.  The gap between the two
    counts is the cases no planted defect reaches (ROADMAP item 15).  A
    change may raise a failed count; one that lowers it, or that changes
    a case count, re-records the golden and gives its reason."""
    golden = json.loads((Path(__file__).parent / "golden"
                         / "kill_coverage_w5.json").read_text())
    clean = _tallied_cases(None)
    assert all(clean.values())
    failed = set()
    for plant in _DEFECTS:
        failed |= {key for key, ok in _tallied_cases(plant).items()
                   if not ok and key in clean}
    counts: dict[str, dict[str, int]] = {}
    for key in clean:
        row = counts.setdefault(key[0], {"cases": 0, "failed": 0})
        row["cases"] += 1
        row["failed"] += key in failed
    assert counts == golden
