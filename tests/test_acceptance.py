"""End-to-end verification battery: every shipped guarantee, one line each.

Each test prints a single PASS/FAIL line for its guarantee and asserts
exact (symbolic) equality; run with ``pytest -s`` to see the lines.
"""

import random
from fractions import Fraction
from math import factorial

import pytest

from conftest import (
    PolyState,
    bhatq_oracle_table,
    check_skew_symmetry,
    euler,
    f_series_oracle,
    graded_leading_constant,
    poly_apply,
    realization_bracket_check,
    reduce_to_vacuum,
)
from qheis.fock import FieldSlot, FockError, FockModule, two_point
from qheis.kernels import iota_expand, parse_kernel
from qheis.liealg import bracket_modes, f_coefficient
from qheis.report import PASS
from qheis.scalar import L, ONE, Q, RationalPoint, Scalar, ZERO
from qheis.series import TruncatedLaurent, Window, delta_family
from qheis.vertexops import (
    Multiplier,
    extract_s_kernel,
    field_of,
    phi_product_n,
    suite_reports,
    verify_identity,
)


def _verdict(label: str, ok: bool, detail: str = ""):
    word = "PASS" if ok else "FAIL"
    tail = f" -- {detail}" if (detail and not ok) else ""
    print(f"{word}  {label}{tail}")
    assert ok, f"{label}{tail}"


def sc(v) -> Scalar:
    return Scalar.from_fraction(Fraction(v))


X12 = ("x1", "x2")


def test_01_deformed_commutator_is_a_two_delta_multiple():
    module = FockModule("hq")
    w = Window.cube(X12, 10)
    vac = module.vacuum()
    gap = L / (Q - Scalar.q_power(-1))
    bad = []
    for r, s in ((0, 0), (1, 0)):
        slots = (FieldSlot(scale=Scalar.q_power(r)),
                 FieldSlot(scale=Scalar.q_power(s)))
        fwd = two_point(vac, slots, vac, w)
        rev = two_point(vac, (slots[1], slots[0]), vac, w)
        want = delta_family("plain", Scalar.q_power(s - r + 1), w).scale(gap) \
            + delta_family("plain", Scalar.q_power(s - r - 1), w).scale(-gap)
        for e in w.exponents():
            got = fwd.coeff(e, ZERO) - rev.coeff((e[1], e[0]), ZERO)
            if got != want.coeff(e, ZERO):
                bad.append((r, s, e))
        rep = verify_identity("hq-commutator-delta", window=10, r=r, s=s)
        if rep.status != PASS:
            bad.append((r, s, rep.failures[:1]))
    _verdict("deformed commutator equals (l/(q - 1/q)) (d(q x2/x1) - "
             "d(x2/(q x1))) for |e| <= 10", not bad, repr(bad[:3]))


def test_02_quadratic_multiplier_kills_commutator_single_does_not():
    rep = verify_identity("hq-quasi-locality", window=10)
    ctl = verify_identity("hq-quasi-locality-control", window=10)
    ok = rep.status == PASS and ctl.status == PASS
    _verdict("(x1 - q x2)(q x1 - x2) annihilates the deformed commutator "
             "on |e| <= 10 while one binomial leaves a remainder", ok,
             f"law={rep.status} control={ctl.status}")


def test_03_substitution_products_collapse_to_level_constants():
    module = FockModule("hq")
    vac = module.vacuum()
    gap = L / (Q - Scalar.q_power(-1))
    bad = []
    for d in (-2, -1, 0, 1, 2):
        r, s = (d, 0) if d >= 0 else (0, -d)
        for n in (0, 1, 2):
            prod = phi_product_n(field_of(module, r), field_of(module, s), n)
            for e in range(-8, 9):
                got = prod.apply_coeff(e, vac)
                want = module.zero()
                if n == 0 and e == 0 and r - s == 1:
                    want = vac.scale(gap)
                if n == 0 and e == 0 and r - s == -1:
                    want = vac.scale(-gap)
                if got != want:
                    bad.append((r, s, n, e))
    _verdict("index-shifted substitution products are +-(l/(q - 1/q)) 1_W "
             "at shift difference +-1 and vanish otherwise, probe |e| <= 8",
             not bad, repr(bad[:3]))


def test_04_degenerate_commutator_both_forms_and_mode_constants():
    euler = verify_identity("htq-commutator-euler-form", window=12)
    kernel = verify_identity("htq-commutator-kernel-form", window=12)
    ok = euler.status == PASS and kernel.status == PASS
    bad = []
    for m in range(-12, 13):
        want = Scalar.from_int(m) * (ONE - Scalar.q_power(abs(m)))
        if bracket_modes("htq", m, -m) != want:
            bad.append(m)
    _verdict("degenerate commutator matches both kernel presentations on "
             "|e| <= 12 with mode constants m(1 - q^|m|)",
             ok and not bad,
             f"euler={euler.status} kernel={kernel.status} modes={bad[:4]}")


def test_05_exponential_tail_series_pole_structure():
    bad = []
    for n in range(-3, 4):
        t = f_series_oracle(n, 6)
        for j in range(-2, 7):
            if t.coeff((j,), ZERO) != f_coefficient(n, j):
                bad.append((n, j, "series/coefficient mismatch"))
        pole = (ONE if n == -1 else ZERO) - (ONE if n == 1 else ZERO)
        if f_coefficient(n, -2) != pole:
            bad.append((n, -2))
        if f_coefficient(n, -1) != ZERO:
            bad.append((n, -1))
    _verdict("tail series F_n carry a double pole only for n = -+1, no "
             "simple pole, checked through order 6 for |n| <= 3",
             not bad, repr(bad[:3]))


def test_06_anchor_values_inverse_series_and_substitution():
    bad = []
    # (e^z - 1)^-2 (e^z - q)^-2 leading terms, against hand-derived values
    u = Multiplier.of((ONE, 2), (Q, 2)).inverse_exp(1)
    shrink = ONE - Q
    if u[-2] != ONE / (shrink * shrink):
        bad.append("z^-2")
    if u[-1] != (Q - sc(3)) / (shrink * shrink * shrink):
        bad.append("z^-1")

    # geometric substitution: sum_k (x e^z)^k x1^(-k-1) (x1 - x)^2,
    # standalone over Fractions in both expansion directions
    radius, jmax, kmax = 6, 2, 20
    quad = {(2, 0): Fraction(1), (1, 1): Fraction(-2), (0, 2): Fraction(1)}

    def side(direction):
        rows = {j: {} for j in range(jmax + 1)}
        for k in range(kmax + 1):
            if direction == "big-x1":
                e0, sign, rate = (-k - 1, k), 1, k
            else:
                e0, sign, rate = (k, -k - 1), -1, -(k + 1)
            for j in range(jmax + 1):
                wt = Fraction(sign * rate ** j, factorial(j))
                if not wt:
                    continue
                for (a, b), c in quad.items():
                    e = (e0[0] + a, e0[1] + b)
                    if max(abs(e[0]), abs(e[1])) > radius:
                        continue
                    row = rows[j]
                    val = row.get(e, Fraction(0)) + wt * c
                    if val:
                        row[e] = val
                    else:
                        row.pop(e, None)
        return rows

    inner, outer = side("big-x1"), side("big-x")
    if inner[0] != {(1, 0): 1, (0, 1): -1} or inner[0] != outer[0]:
        bad.append("z^0")
    if inner[1] != {(0, 1): 1} or inner[1] != outer[1]:
        bad.append("z^1")
    if inner[2] == outer[2]:
        bad.append("z^2 directions should differ")

    # the same three statements through the directed-expansion calculus
    kernel = parse_kernel("1/(x1-x)")

    def keyed(prod):
        i1 = prod.vars.index("x1")
        out = {}
        for e in prod.support():
            if max(abs(e[0]), abs(e[1])) <= 3:
                val = prod.coeff(e)
                if val:
                    out[(e[i1], e[1 - i1])] = val
        return out

    tabs = []
    for direction in (("x1", "x"), ("x", "x1")):
        w = Window(direction, (-radius, -radius), (radius, radius))
        i1 = direction.index("x1")
        qc = {}
        for (a, b), c in (((2, 0), ONE), ((1, 1), -sc(2)), ((0, 2), ONE)):
            key = (a, b) if i1 == 0 else (b, a)
            qc[key] = c
        quad_t = TruncatedLaurent.polynomial(direction, qc)
        t0 = iota_expand(kernel, direction, w)
        rows = [t0, euler(t0, "x"),
                euler(euler(t0, "x"), "x").scale(sc("1/2"))]
        tabs.append([keyed(quad_t * t) for t in rows])
    if tabs[0][0] != {(1, 0): ONE, (0, 1): -ONE} or tabs[0][0] != tabs[1][0]:
        bad.append("calculus z^0")
    if tabs[0][1] != {(0, 1): ONE} or tabs[0][1] != tabs[1][1]:
        bad.append("calculus z^1")
    if tabs[0][2] == tabs[1][2]:
        bad.append("calculus z^2 directions should differ")

    # substituted cubic x * l x1 (x1 - q x)^2: direct accumulation against
    # the product engine's p(x e^z, x)
    poly = {(3, 1): L, (2, 2): -(sc(2) * Q * L), (1, 3): Q * Q * L}
    want0, want1 = L * shrink * shrink, L * shrink * (sc(3) - Q)
    a0 = a1 = ZERO
    for (k, _j), c in poly.items():
        a0 = a0 + c
        a1 = a1 + c * sc(k)
    if a0 != want0 or a1 != want1:
        bad.append("direct accumulation")
    cubic = Multiplier.of((ZERO, 1), (Q, 2), unit=L)
    if cubic.exp_series(1) != [want0, want1]:
        bad.append("substitution map")

    # degenerate self-products reduce to the level at n = 1 only
    htq = FockModule("htq")
    vac = htq.vacuum()
    f = field_of(htq)
    for n in range(0, 5):
        prod = phi_product_n(f, f, n)
        for e in range(-4, 5):
            got = prod.apply_coeff(e, vac)
            want = vac.scale(L) if (n == 1 and e == 0) else htq.zero()
            if got != want:
                bad.append(("self-product", n, e))
    _verdict("anchor values: inverse exponential series, two-sided "
             "geometric substitution, substituted cubic, degenerate "
             "self-products", not bad, repr(bad[:4]))


def test_07_shifted_deformed_bracket_skew_case_split_and_abelian_half():
    rep = check_skew_symmetry("bhatq", m_range=(-6, 6), r_range=(-2, 2))
    bad = [] if rep.ok else [rep.failures[:1]]
    w = Window.cube(X12, 7)
    oracle = {d: bhatq_oracle_table(d, w) for d in range(-4, 5)}
    for r in range(-2, 3):
        for s in range(-2, 3):
            for m in range(-6, 7):
                for n in range(-6, 7):
                    got = bracket_modes("bhatq", m, n, r, s)
                    if got != oracle[r - s].coeff((-m - 1, -n - 1), ZERO):
                        bad.append((m, n, r, s))
                    if m >= 0 and n >= 0 and got != ZERO:
                        bad.append(("abelian", m, n, r, s))
    _verdict("shifted deformed bracket is skew, matches the table "
             "expansion of its generating function, and has an abelian "
             "nonnegative half",
             not bad, repr(bad[:3]))


def test_08_graded_quotient_constants():
    bad = []
    for r in range(-2, 3):
        for s in range(-2, 3):
            for m in range(-6, 7):
                want = sc(m * (r == s)
                          + ((abs(m) - m) // 2) * (r == s - 1)
                          - ((abs(m) + m) // 2) * (r == s + 1))
                if graded_leading_constant(r, s, m, -m) != want:
                    bad.append((r, s, m))
                if bracket_modes("graded", m, -m, r, s) != want:
                    bad.append(("catalog", r, s, m))
                if graded_leading_constant(r, s, m, 1 - m) != ZERO:
                    bad.append(("offdiag", r, s, m))
    _verdict("graded quotient constants match the piecewise closed form "
             "for |r|, |s| <= 2 and |m| <= 6", not bad, repr(bad[:3]))


def test_09_polynomial_realization_brackets_and_reduction():
    rng = random.Random(20260823)
    samples = []
    while len(samples) < 20:
        p = PolyState.one()
        for _ in range(rng.randint(0, 3)):
            factor = PolyState.variable(rng.randint(1, 3),
                                        rng.randint(-1, 1))
            for _ in range(rng.randint(1, 2)):
                p = p * factor
        if p.degree() <= 6:
            samples.append(p)
    bad = []
    for _ in range(20):
        r, s = rng.randint(-2, 2), rng.randint(-2, 2)
        m, n = rng.randint(-3, 3), rng.randint(-3, 3)
        rep = realization_bracket_check(r, s, m, n, samples)
        if not rep.ok:
            bad.append((r, s, m, n))
    for p in samples:
        trace, val = reduce_to_vacuum(p)
        replay = p
        for rr, nn in trace:
            replay = poly_apply(rr, nn, replay)
        if replay != PolyState.one().scale(val):
            bad.append(("replay", str(p)))
    with pytest.raises(FockError, match="level-zero"):
        reduce_to_vacuum(PolyState.variable(1, 0), ZERO)
    _verdict("polynomial realization reproduces the graded constants on 20 "
             "seeded states and annihilators replay every reduction",
             not bad, repr(bad[:3]))


def test_10_weak_associativity_of_substitution_products():
    parts = {alg: verify_identity("phi-weak-associativity", window=6,
                                  alg=alg, x0_order=6)
             for alg in ("hq", "htq")}
    ok = all(r.status == PASS for r in parts.values())
    _verdict("iterated substitution products agree with the multiplied "
             "double product through order 6 on both deformed algebras",
             ok, repr({a: r.status for a, r in parts.items()}))


def test_11_multiplier_transfer_and_shifted_field_bracket():
    transfer = verify_identity("locality-transfer", window=8)
    image = verify_identity("phi-image-bq-commutator", window=8)
    ok = transfer.status == PASS and image.status == PASS
    _verdict("multipliers transfer along x -> x e^z and substituted "
             "shifted fields satisfy the exponential-tail bracket, "
             "window 8", ok,
             f"transfer={transfer.status} image={image.status}")


def test_12_index_shifts_act_as_argument_scalings():
    rep = verify_identity("scale-covariance", window=8)
    _verdict("realized fields turn index translation by n in [-2, 2] into "
             "argument scaling by q^n, probe |e| <= 8",
             rep.status == PASS, repr(rep.failures[:2]))


def test_13_skew_kernels_unitary_and_window_stable():
    module = FockModule("bhatq")
    kers = {(r, s): extract_s_kernel(module, r, s, 8)
            for r in (-1, 0, 1) for s in (-1, 0, 1)}
    bad = []
    for (r, s), k in kers.items():
        mate = kers[(s, r)]
        for e in range(-4, 9):
            if k.g(e) + mate.reflected(e) != ZERO:
                bad.append((r, s, e))
        if r == s and k.coeffs:
            bad.append(("diagonal", r))
    for r, s in ((-1, 0), (1, -1), (0, 1)):
        wide = extract_s_kernel(module, r, s, 10)
        for e in range(-4, 9):
            if kers[(r, s)].g(e) != wide.g(e):
                bad.append(("stability", r, s, e))
    _verdict("skew kernels satisfy g_rs(x) + g_sr(-x) = 0 for |r|, |s| <= 1 "
             "at order 8 and are stable against a wider window",
             not bad, repr(bad[:3]))


def test_14_numeric_evaluation_matches_symbolic_verdicts():
    sym = suite_reports(window=5)
    num = suite_reports(window=5,
                        point=RationalPoint(Fraction(3, 5), Fraction(2)))
    sym_map = {r.name: r.status for r in sym}
    num_map = {r.name: r.status for r in num}
    ok = sym_map == num_map and all(v == PASS for v in sym_map.values())
    diff = {k: (sym_map.get(k), num_map.get(k))
            for k in set(sym_map) | set(num_map)
            if sym_map.get(k) != num_map.get(k) or sym_map.get(k) != PASS}
    _verdict("every check passes at window 5 and the verdict map is "
             "unchanged at q = 3/5, level 2", ok, repr(diff))
