"""Vacuum modules: normal ordering, matrix elements, and the polynomial
realization of the graded algebra as an oracle for them."""

import random
import re

import pytest

import conftest
from conftest import (
    PolyState,
    poly_apply,
    realization_bracket_check,
    reduce_to_vacuum,
    two_point_oracle,
)
from qheis.fock import (
    FieldSlot,
    FockError,
    FockModule,
    annihilation_bound,
    apply_generator,
    apply_word,
    pair_vectors,
    two_point,
)
from qheis.liealg import GeneratorSymbol, bracket_modes
from qheis.report import FAIL
from qheis.scalar import L, ONE, ZERO, Scalar, qint
from qheis.series import Window

Q = Scalar.var_q()


def gen(alg, mode, shift=0):
    return GeneratorSymbol(alg, mode, shift)


def test_annihilators_kill_vacuum():
    for alg in ("hq", "htq", "bhat", "bhatq"):
        module = FockModule(alg)
        shifts = (-1, 0, 2) if module.spec.shifted else (0,)
        for mode in (0, 1, 3):
            for r in shifts:
                out = apply_generator(gen(alg, mode, r), module.vacuum())
                assert out.is_zero(), (alg, mode, r)


def test_central_element_acts_by_level():
    module = FockModule("bhatq")
    v = module.basis_vector((-1, 0))
    c = GeneratorSymbol("bhatq", 0, 0, central=True)
    assert apply_generator(c, v) == v.scale(L)


def test_hq_contraction():
    module = FockModule("hq")
    v = apply_generator(gen("hq", 2), module.basis_vector((-2, 0)))
    assert v == module.vacuum().scale((Q + Scalar.q_power(-1)) * L)
    assert v == module.vacuum().scale(qint(2) * L)


def test_bhatq_creation_creation_correction():
    module = FockModule("bhatq")
    v = apply_generator(gen("bhatq", -1, 0), module.basis_vector((-2, 1)))
    expected = module.basis_vector((-2, 1), (-1, 0)) + module.vacuum().scale(
        bracket_modes("bhatq", -1, -2, 0, 1) * L)
    assert v == expected
    # the correction is strictly shorter than the leading word
    assert {len(mono) for mono in v.terms} == {0, 2}


def _naive_normalize(alg, word, level, pick_last):
    pending = [(tuple(word), ONE)]
    done = {}
    while pending:
        w, c = pending.pop()
        inv = [i for i in range(len(w) - 1) if w[i] > w[i + 1]]
        if not inv:
            done[w] = done.get(w, ZERO) + c
            continue
        i = inv[-1] if pick_last else inv[0]
        a, b = w[i], w[i + 1]
        pending.append((w[:i] + (b, a) + w[i + 2:], c))
        br = bracket_modes(alg, a[0], b[0], a[1], b[1])
        if br:
            pending.append((w[:i] + w[i + 2:], c * br * level))
    return {k: v for k, v in done.items() if v}


def test_pbw_confluence_on_seeded_words():
    rng = random.Random(20260823)
    module = FockModule("bhatq")
    for _ in range(100):
        word = [(rng.randint(-4, -1), rng.randint(-1, 1))
                for _ in range(rng.randint(1, 6))]
        first = _naive_normalize("bhatq", word, L, pick_last=False)
        last = _naive_normalize("bhatq", word, L, pick_last=True)
        assert first == last, word
        assert apply_word(module, word, module.vacuum()).terms == first, word


def test_grading_by_total_degree():
    # unshifted algebras: acting by mode m moves sum(-mode) by exactly -m
    for alg in ("hq", "htq"):
        module = FockModule(alg)
        v = module.basis_vector((-3, 0), (-1, 0))
        assert v.degrees() == {4}
        up = apply_generator(gen(alg, -2), v)
        assert up.degrees() == {6}
        down = apply_generator(gen(alg, 3), v)
        assert down.degrees() == {1}
    # the loop-style pairing contracts at mode sum -1
    module = FockModule("bhat")
    v = module.basis_vector((-3, 0))
    hit = apply_generator(gen("bhat", 2, 1), v)
    assert not hit.is_zero() and hit.degrees() == {0}


def test_bhatq_corrections_are_shorter_words():
    module = FockModule("bhatq")
    v = module.basis_vector((-2, 0), (-3, 1))
    out = apply_generator(gen("bhatq", -1, 1), v)
    lengths = sorted({len(mono) for mono in out.terms})
    assert lengths[-1] == 3
    assert all(n < 3 for n in lengths[:-1])


def test_annihilation_bounds_are_tight():
    cases = [
        ("hq", FockModule("hq").basis_vector((-3, 0)), 4),
        ("htq", FockModule("htq").basis_vector((-2, 0), (-1, 0)), 3),
        ("bhat", FockModule("bhat").basis_vector((-3, 0)), 3),
        ("bhatq", FockModule("bhatq").basis_vector((-3, 1), (-1, 0)), 4),
    ]
    for alg, v, expected in cases:
        assert annihilation_bound(v) == expected, alg
        shifts = (-2, -1, 0, 1, 2) if v.module.spec.shifted else (0,)
        for mode in range(expected, expected + 3):
            for r in shifts:
                assert apply_generator(gen(alg, mode, r), v).is_zero(), \
                    (alg, mode, r)
        assert any(
            not apply_generator(gen(alg, expected - 1, r), v).is_zero()
            for r in shifts), alg
    for alg in ("hq", "htq", "bhat", "bhatq"):
        assert annihilation_bound(FockModule(alg).vacuum()) == 0


def test_two_point_matches_mode_contraction():
    module = FockModule("hq")
    w = Window.of(x1=(-4, 2), x2=(-2, 4))
    t = two_point(module.vacuum(), [FieldSlot(), FieldSlot()],
                  module.vacuum(), w)
    for e1, e2 in w.exponents():
        expected = qint(e2) * L if e1 == -e2 and e2 >= 1 else ZERO
        assert t.coeff((e1, e2), ZERO) == expected, (e1, e2)


def test_two_point_order_difference_is_delta_combination():
    module = FockModule("hq")
    w12 = Window.of(x1=(-4, 4), x2=(-4, 4))
    w21 = Window.of(x2=(-4, 4), x1=(-4, 4))
    t12 = two_point(module.vacuum(), [FieldSlot(), FieldSlot()],
                    module.vacuum(), w12)
    t21 = two_point(module.vacuum(), [FieldSlot(), FieldSlot()],
                    module.vacuum(), w21)
    for e1 in range(-4, 5):
        for e2 in range(-4, 5):
            diff = t12.coeff((e1, e2), ZERO) - t21.coeff((e2, e1), ZERO)
            expected = qint(e2) * L if e1 == -e2 else ZERO
            assert diff == expected, (e1, e2)


def test_two_point_single_field_on_vacuum_vanishes():
    module = FockModule("htq")
    w = Window.of(x=(-5, 5))
    t = two_point(module.vacuum(), [FieldSlot()], module.vacuum(), w)
    assert t.is_zero_on(w)


def test_two_point_scaled_slot():
    module = FockModule("hq")
    w = Window.of(x1=(-3, 0), x2=(0, 3))
    a = Scalar.q_power(2)
    t = two_point(module.vacuum(), [FieldSlot(scale=a), FieldSlot()],
                  module.vacuum(), w)
    for m in range(1, 4):
        assert t.coeff((-m, m)) == a ** (-m) * qint(m) * L


def _random_state(rng, module, length):
    """The vacuum (length 0) or a basis vector on `length` creation modes."""
    shifts = (0, 1) if module.spec.shifted else (0,)
    return module.basis_vector(*((-rng.randint(1, 2), rng.choice(shifts))
                                 for _ in range(length)))


def test_two_point_matches_oracle_seeded():
    """The shared-prefix walk equals one full word per exponent tuple."""
    rng = random.Random(51)
    radius = {1: 5, 2: 4, 3: 3}
    for alg in ("hq", "htq", "bhat", "bhatq", "graded"):
        module = FockModule(alg)
        nonzero = 0
        shifts = (0, 1) if module.spec.shifted else (0,)
        # pairs whose antidiagonal crosses the window, then
        # seeded slots, windows and states
        anchor = [FieldSlot(shift=shifts[-1], scale=Q ** -1), FieldSlot()]
        cases = [(anchor, Window.of(x0=(-4, 1), x1=(-2, 4)), v, v)
                 for v in (module.vacuum(),
                           module.basis_vector((-1, 0)),
                           module.basis_vector((-1, 0), (-2, shifts[-1])))]
        # sums of two basis vectors of different weights: the outermost
        # slot must reach each weight of the bra from each weight of
        # its vector
        r = shifts[-1]
        low = module.vacuum() + module.basis_vector((-2, 0))
        high = (module.basis_vector((-1, r), (-2, 0))
                + module.basis_vector((-4, r)))
        for w in (Window.of(x0=(-5, 5)), Window.cube(("x0", "x1"), 4)):
            slots = [FieldSlot(shift=r)] * len(w.vars)
            cases += [(slots, w, bra, ket)
                      for bra, ket in ((high, low), (low, high),
                                       (high, high))]
        for n in (1, 2, 3):
            for _trial in range(4):
                slots = [FieldSlot(shift=rng.choice(shifts),
                                   scale=Scalar.q_power(
                                       rng.choice((0, 0, -1, 2))))
                         for _ in range(n)]
                w = Window(tuple(f"x{i}" for i in range(n)),
                           tuple(-rng.randint(1, radius[n])
                                 for _ in range(n)),
                           tuple(rng.randint(1, radius[n])
                                 for _ in range(n)))
                cases.append((slots, w,
                              _random_state(rng, module, rng.randint(0, 2)),
                              _random_state(rng, module, rng.randint(0, 2))))
        for slots, w, bra, ket in cases:
            got = two_point(bra, slots, ket, w)
            want = two_point_oracle(bra, slots, ket, w)
            case = (module, slots, w, bra, ket)
            assert got.vars == want.vars, case
            assert got.cert == want.cert, case
            assert got.coeffs == want.coeffs, case
            nonzero += len(got.coeffs)
        assert nonzero >= 10, (alg, nonzero)


def test_poly_action_examples():
    p = PolyState.variable(2, 0)
    assert poly_apply(0, 2, p) == PolyState.one().scale(Scalar.from_int(2) * L)
    assert poly_apply(1, 2, p) == PolyState.one().scale(Scalar.from_int(-2) * L)
    assert poly_apply(5, 0, p).is_zero()
    assert poly_apply(0, -2, PolyState.one()) == p
    assert poly_apply(0, 3, p).is_zero()


def test_reduce_to_vacuum():
    assert reduce_to_vacuum(PolyState.one()) == ([], ONE)
    assert reduce_to_vacuum(PolyState.variable(1, 0)) == ([(0, 1)], L)
    p = PolyState.variable(1, 0) * PolyState.variable(1, 1)
    trace, val = reduce_to_vacuum(p)
    assert val == L * L
    assert len(trace) == 2
    mixed = PolyState.variable(2, -1) * PolyState.variable(2, -1) \
        + PolyState.variable(1, 0)
    trace, val = reduce_to_vacuum(mixed)
    assert val and trace[0][0] == -1


def test_reduce_refusals():
    with pytest.raises(FockError, match="zero state"):
        reduce_to_vacuum(PolyState({}))
    with pytest.raises(FockError, match="level-zero: reduction unavailable"):
        reduce_to_vacuum(PolyState.variable(1, 0), ZERO)


def test_level_zero_action_has_no_brackets():
    module = FockModule("bhatq", level=ZERO)
    v = apply_generator(gen("bhatq", -1, 0), module.basis_vector((-2, 1)))
    assert v == module.basis_vector((-2, 1), (-1, 0))
    hit = apply_generator(gen("bhatq", 2, 0), module.basis_vector((-2, 0)))
    assert hit.is_zero()


def test_realization_bracket_examples():
    assert realization_bracket_check(
        0, 0, 1, -1, [PolyState.variable(1, 0)]).ok
    assert realization_bracket_check(0, 1, -1, 1, [PolyState.one()]).ok


def test_realization_bracket_seeded():
    rng = random.Random(4251)
    samples = []
    for _ in range(20):
        p = PolyState.one()
        for _ in range(rng.randint(0, 3)):
            factor = PolyState.variable(rng.randint(1, 3), rng.randint(-1, 1))
            for _ in range(rng.randint(1, 2)):
                p = p * factor
        samples.append(p)
    assert all(s.degree() <= 6 for s in samples)
    for _ in range(12):
        r, s = rng.randint(-1, 2), rng.randint(-1, 2)
        m, n = rng.randint(-3, 3), rng.randint(-3, 3)
        rep = realization_bracket_check(r, s, m, n, samples)
        assert rep.ok, (r, s, m, n, rep.failures)


def test_planted_leading_constant_fails_realization_check(monkeypatch):
    """A doubled graded constant fails the realization check, naming the
    sample state."""
    base = conftest.graded_leading_constant

    def doubled(*args):
        v = base(*args)
        return v + v

    monkeypatch.setattr(conftest, "graded_leading_constant", doubled)
    rep = realization_bracket_check(
        0, 0, 1, -1, [PolyState.one(), PolyState.variable(1, 0)])
    assert rep.status == FAIL and rep.checked == 2
    assert re.match(r"on .+: \(.*\): .+ != .+", rep.failures[0]), \
        rep.failures


def test_module_hygiene():
    module = FockModule("hq")
    other = FockModule("htq")
    with pytest.raises(FockError, match="cannot act"):
        apply_generator(gen("htq", 1), module.vacuum())
    with pytest.raises(FockError, match="not a creation mode"):
        module.basis_vector((0, 0))
    with pytest.raises(FockError, match="different modules"):
        pair_vectors(module.vacuum(), other.vacuum())
    with pytest.raises(FockError, match="no degree"):
        PolyState({}).degree()
    assert pair_vectors(module.vacuum(), module.vacuum()) == ONE
    assert str(module.vacuum()) == "(1) vac"
