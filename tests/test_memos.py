"""Every memo that lives as long as the process is bounded, and no memo
changes a result."""

import ast
import gc
import importlib
import itertools
import inspect
import random
import types
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import cert_fields, evaluate, exp_coeff, fraction_of, \
    inverse_exp_oracle, qtuple_as_poly, window_of
from qheis import fock, kernels, liealg, scalar, vertexops
from qheis.kernels import iota_expand, parse_kernel
from qheis.liealg import ALGEBRAS, LieAlgebraError, bracket_modes, \
    f_coefficient, g_coefficient
from qheis.scalar import SYMBOLIC, RationalPoint, Scalar
from qheis.series import Window
from qheis.vertexops import Multiplier

SRC = Path(__file__).resolve().parent.parent / "src" / "qheis"
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")

# Module-level containers that library code writes into, each with the
# reason it cannot grow without bound.  Kept exact: a new memo must be
# added here with its reason, and a memo that is gone must leave.
GROWING_CONTAINERS = {
    ("scalar", "_CYCLO"):
        "one Phi_d per d asked for, and d is bounded by the degree of "
        "the largest denominator",
    ("liealg", "_EULERIAN"):
        "one Eulerian row per n, grown only to the largest j asked for",
    ("scalar", "_STIRLING"):
        "one Stirling row per z order, grown only to the deepest order "
        "a product table reads",
    ("scalar", "_NORLUND"):
        "one series per pole order of a multiplier at c = 1, each grown "
        "only to the deepest z order a product table reads",
}

MUTATORS = {"append", "extend", "insert", "add", "update", "setdefault",
            "pop", "popitem", "clear", "remove", "discard"}


def written_containers(source: str) -> set[str]:
    """Module-level names that a function body stores into or mutates.

    A store is ``NAME[key] = ...`` (or ``+=``, or ``del NAME[key]``); a
    mutation is a call of a mutating method such as ``NAME.append(...)``.
    """
    tree = ast.parse(source)
    top = set()
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign)
                   else [])
        top.update(t.id for t in targets if isinstance(t, ast.Name))
    out = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for n in ast.walk(fn):
            if (isinstance(n, ast.Subscript)
                    and isinstance(n.ctx, (ast.Store, ast.Del))
                    and isinstance(n.value, ast.Name)):
                out.add(n.value.id)
            elif (isinstance(n, ast.Call)
                  and isinstance(n.func, ast.Attribute)
                  and n.func.attr in MUTATORS
                  and isinstance(n.func.value, ast.Name)):
                out.add(n.func.value.id)
    return out & top


def cache_wrappers(module) -> dict[str, object]:
    """The functools cache wrappers a module defines, at module level or
    on its classes, by qualified name."""
    out = {}

    def visit(prefix, namespace):
        for name, obj in vars(namespace).items():
            obj = getattr(obj, "__func__", obj)  # static/class methods
            if hasattr(obj, "cache_parameters"):
                out[prefix + name] = obj
            elif (inspect.isclass(obj) and prefix == ""
                  and obj.__module__ == module.__name__):
                visit(f"{name}.", obj)

    visit("", module)
    return out


def test_memo_scans_flag_planted_memos():
    source = ("import functools\n"
              "TABLE = {'a': 1}\n_MEMO = {}\n_ROWS = [[1]]\n"
              "def f(k):\n"
              "    local = {}\n    local[k] = 1\n"
              "    _MEMO[k] = TABLE[k]\n    _ROWS.append([k])\n"
              "    return local\n"
              "@functools.cache\ndef g(k):\n    return k\n"
              "@functools.lru_cache(maxsize=8)\ndef h(k):\n    return k\n")
    assert written_containers(source) == {"_MEMO", "_ROWS"}
    mod = types.ModuleType("planted")
    exec(source, mod.__dict__)
    wrappers = cache_wrappers(mod)
    assert sorted(wrappers) == ["g", "h"]
    assert wrappers["g"].cache_parameters()["maxsize"] is None


@pytest.mark.parametrize("name", MODULES)
def test_every_cache_wrapper_is_bounded(name):
    module = importlib.import_module(f"qheis.{name}")
    for qualname, wrapper in cache_wrappers(module).items():
        maxsize = wrapper.cache_parameters()["maxsize"]
        assert maxsize is not None and maxsize > 0, f"{name}.{qualname}"


def test_growing_module_containers_are_on_the_allowlist():
    found = {(p.stem, n) for p in sorted(SRC.glob("*.py"))
             for n in written_containers(p.read_text())}
    assert found == set(GROWING_CONTAINERS)


# -- the memos give the values a cold call gives -----------------------------

EXPANSIONS = [
    ("1/(x1-q*x2)", [("x1", "x2"), ("x2", "x1")]),
    ("1/(1-q*x1/x2)^2", [("x1", "x2"), ("x2", "x1")]),
    ("(x1+q*x2)/(x1-x2)^3", [("x1", "x2"), ("x2", "x1")]),
    ("1/(x1-q*x2)/(x1-(1/q)*x2)", [("x1", "x2"), ("x2", "x1")]),
    ("x1^2/(x1-x2)/(1-q^2*x2/x1)", [("x1", "x2"), ("x2", "x1")]),
    ("1/(x-q)^2", [("x",)]),
    ("e^z/(e^z-q)^2", [("z",)]),
    ("1/(e^z-1)", [("z",)]),
]


def test_memoized_expansion_equals_cold_expansion():
    rng = random.Random(17)
    cold = kernels._iota_expand.__wrapped__
    for _ in range(40):
        text, directions = rng.choice(EXPANSIONS)
        direction = rng.choice(directions)
        lo = tuple(rng.randint(-4, 0) for _ in direction)
        hi = tuple(rng.randint(0, 4) for _ in direction)
        w = Window(direction, lo, hi)
        want = cold(parse_kernel(text), direction, w)
        # a list direction and a second, cached call give the same table
        for got in (iota_expand(parse_kernel(text), list(direction), w),
                    iota_expand(parse_kernel(text), direction, w)):
            case = (text, direction, w)
            assert got.vars == want.vars, case
            assert got.direction == want.direction, case
            assert cert_fields(got.cert) == cert_fields(want.cert), case
            assert got.coeffs == want.coeffs, case


def test_memoized_parse_equals_cold_parse():
    for text, _directions in EXPANSIONS:
        assert parse_kernel(text) == kernels._parse_kernel.__wrapped__(text)


def test_memoized_f_coefficient_equals_closed_form():
    point = RationalPoint(Fraction(3, 5), 2)
    for scalars in (SYMBOLIC, point):
        for n in range(-4, 5):
            for j in range(-2, 17):
                want = (g_coefficient(scalars.q_power(n + 1), j, scalars)
                        - g_coefficient(scalars.q_power(n - 1), j, scalars))
                # the first call may compute, the second is a memo hit
                for _ in range(2):
                    assert f_coefficient(n, j, scalars) == want, \
                        (scalars, n, j)
    # the two fields never share an entry
    for n in range(-4, 5):
        for j in range(-2, 17):
            assert f_coefficient(n, j, point) == \
                evaluate(f_coefficient(n, j), point), (n, j)


def test_memoized_cyclotomic_product_equals_fold():
    rng = random.Random(5)
    for _ in range(60):
        ds = sorted(rng.sample(range(1, 13), rng.randint(0, 3)))
        cyc = [(d, rng.randint(1, 3)) for d in ds]
        c, a = rng.randint(1, 7), rng.randint(0, 4)
        cs = [c]
        for d, e in cyc:
            for _ in range(e):
                cs = scalar._lmul(cs, scalar._cyclo(d))
        want = {(a + i, 0): v for i, v in enumerate(cs) if v}
        # _add_apart lifts by lists of (d, e), denominators hold tuples
        assert scalar._cyclo_product(cyc, c, a) == want, cyc
        assert scalar._cyclo_product(tuple(cyc), c, a) == want, cyc


def test_memoized_bracket_equals_cold_bracket():
    cold = liealg._bracket.__wrapped__
    liealg._bracket.cache_clear()
    modes = range(-8, 9)
    for scalars in (SYMBOLIC, RationalPoint(Fraction(3, 5), 2)):
        for name, spec in ALGEBRAS.items():
            shifts = range(4) if spec.shifted else (0,)
            for m, n, r, s in itertools.product(modes, modes, shifts, shifts):
                case = (scalars, name, m, n, r, s)
                got = bracket_modes(name, m, n, r, s, scalars)
                assert got == cold(name, m, n, r, s, scalars), case
                # a repeated call is a memo hit: the same value
                assert bracket_modes(spec, m, n, r, s, scalars) is got, case


def test_family_index_on_an_unshifted_algebra_raises_every_call():
    for name in ("hq", "htq"):
        assert bracket_modes(name, 1, -1) is bracket_modes(name, 1, -1)
        for _ in range(2):
            with pytest.raises(LieAlgebraError, match="no family index"):
                bracket_modes(name, 1, -1, r=1)
            with pytest.raises(LieAlgebraError, match="no family index"):
                bracket_modes(ALGEBRAS[name], 1, -1, s=2)


def test_scalar_keeps_its_printed_text():
    for value in (bracket_modes("bhatq", -3, -2, 1, 0),
                  bracket_modes("hq", 4, -4), Scalar.from_int(-7)):
        text = str(value)
        assert text == value._text()
        assert str(value) is text  # kept, not printed again
        # an equal scalar built separately prints the same text
        rebuilt = fraction_of(value.num, value.den)
        assert rebuilt == value and rebuilt is not value
        assert str(rebuilt) == text


# Mode words acting on the vacuum.  A count of memo misses does not drift
# with the machine, so it can gate a regression where wall time cannot.
GATE_WORDS = {
    "hq": [[(2, 0), (-2, 0)], [(2, 0), (1, 0), (-1, 0), (-2, 0)],
           [(1, 0), (-1, 0), (-1, 0)], [(3, 0), (-1, 0), (-2, 0)]],
    "bhatq": [[(2, 0), (-2, 0)], [(1, 1), (-1, 0)], [(-1, 0), (-2, 1)],
              [(1, 0), (-1, 2), (-2, 0)], [(2, 1), (-1, 0), (-3, 0)]],
}


def test_mode_words_compute_each_bracket_once():
    def act():
        out = []
        for alg, words in GATE_WORDS.items():
            module = fock.FockModule(alg)
            out += [fock.apply_word(module, w, module.vacuum())
                    for w in words]
        return out

    liealg._bracket.cache_clear()
    fock._central.cache_clear()
    first = act()
    info = liealg._bracket.cache_info()
    central = fock._central.cache_info()
    assert info.misses == 15
    # each central correction is computed once, from one bracket
    assert central.misses == 15 and info.hits == 0
    # the same words again: every correction is a memo hit, so no
    # bracket is even looked up
    assert act() == first
    again = liealg._bracket.cache_info()
    assert again.misses == info.misses and again.hits == info.hits
    central_again = fock._central.cache_info()
    assert central_again.misses == central.misses
    assert central_again.hits > central.hits


def shifted_multipliers(scalars):
    one, q = scalars.one, scalars.q_power(1)
    return [
        # one factor at 1, so the inverse starts at z^-1
        Multiplier.of((one, 1), (q, 1)),
        Multiplier.of((one, 2), (scalars.q_power(-1), 1)),
        # a constant 3 and a residual 1 - 2q in the denominators, and a
        # unit that is not a monomial
        Multiplier.of((3 * one, 1), (2 * q, 1), unit=one + q),
        # a pole of order 3 at c = 1, next to a residual and a power of q
        Multiplier.of((one, 3), (2 * q, 1), (scalars.q_power(-1), 1),
                      unit=one + q),
    ]


def test_shifted_numerators_give_the_exp_inverse_series(monkeypatch):
    """N_k(T) / D_T is [z^T] e^(kz) / p(x e^z, x) for every k and T, with
    the inverse series of the conftest oracle, symbolically and at a
    point.  A deeper call grows the table's list for k by the new z
    orders alone, and a shallower one returns that same list without
    computing a numerator again."""
    computed = []
    for cls in (scalar.ExpInverse, scalar._PointExpInverse):
        monkeypatch.setattr(cls, "_horner", staticmethod(
            lambda k, w, base=cls._horner: computed.append(k) or base(k, w)))
    point = RationalPoint(Fraction(3, 5), 2)
    zneed = 4
    for scalars in (SYMBOLIC, point):
        for mult in shifted_multipliers(scalars):
            kappa = mult.kappa
            u = inverse_exp_oracle(mult, zneed + kappa, scalars)
            table = scalars.exp_inverse(mult.factors, mult.unit)
            dens = [d for d, _w in table._upto(zneed)]
            assert len(dens) == zneed + kappa + 1
            for k in range(-3, 4):
                case = (scalars, mult.describe(), k)
                computed.clear()
                shallow = list(table._numerators(k, 1))
                assert len(shallow) == len(computed) == 2 + kappa, case
                nums = table._numerators(k, zneed)
                assert len(nums) == zneed + kappa + 1, case
                assert len(computed) == len(nums), case
                assert nums[:len(shallow)] == shallow, case
                # the table's own list, with no numerator computed again
                assert table._numerators(k, 2) is nums, case
                assert table._numerators(k, -kappa) is nums, case
                assert len(nums) == zneed + kappa + 1, case
                assert len(computed) == len(nums), case
                for i, T in enumerate(range(-kappa, zneed + 1)):
                    want = scalars.zero
                    for j in range(T + kappa + 1):
                        want = want + exp_coeff(k, j, scalars) * u[T - j]
                    if scalars is SYMBOLIC:
                        got = fraction_of(qtuple_as_poly(nums[i]),
                                          scalar._expand(dens[i]))
                    else:
                        got = Fraction(nums[i], dens[i])
                    assert got == want, case + (T,)


def test_memos_stay_within_their_bound():
    x = window_of(x=(0, 1))
    memos = {
        kernels._parse_kernel: lambda k: parse_kernel(f"{k + 1}*x"),
        kernels._iota_expand:
            lambda k: iota_expand(parse_kernel(f"{k + 1}*x"), ("x",), x),
        liealg._f_coefficient: lambda k: f_coefficient(k, -2),
        scalar._cyclo_coeffs:
            lambda k: scalar._cyclo_product(((1, k % 23 + 1),
                                             (2, k // 23 + 1))),
        liealg._bracket: lambda k: bracket_modes("hq", k, -k),
        fock._central:
            lambda k: fock._central(fock.FockModule("hq"), (-k - 1, 0),
                                    (k + 1, 0)),
        vertexops._shifted_inverse: divided_table,
    }
    for wrapper, call in memos.items():
        maxsize = wrapper.cache_parameters()["maxsize"]
        wrapper.cache_clear()
        for k in range(maxsize + 8):
            call(k)
        info = wrapper.cache_info()
        assert info.misses == maxsize + 8, wrapper
        assert info.currsize == maxsize, wrapper
    # a closed-form table keeps its reduced table in a slot, so an evicted
    # table drops both: past the bound, a full and a reduced table live
    # for each entry of the memo, and no more
    shifted = vertexops._shifted_inverse
    shifted.cache_clear()
    gc.collect()
    before = live_exp_inverses()
    for k in range(shifted.cache_parameters()["maxsize"] + 8):
        divided_table(k)
    gc.collect()
    assert live_exp_inverses() - before == \
        2 * shifted.cache_parameters()["maxsize"]


def divided_table(k: int) -> scalar.ExpInverse:
    """The memo's table of the multiplier x1 - q^(k+1) x2, after a column
    that divides by its factor, so that it holds its reduced table."""
    c = SYMBOLIC.q_power(k + 1)
    table = vertexops._shifted_inverse(Multiplier.of((c, 1)), SYMBOLIC)
    table.column({0: -c, 1: SYMBOLIC.one}, 2)
    assert table._reduced is not None
    return table


def live_exp_inverses() -> int:
    return sum(isinstance(x, scalar.ExpInverse) for x in gc.get_objects())


def test_public_names_stay_plain_functions():
    # the benchmark's tracer wraps and counts plain functions only
    for fn in (iota_expand, parse_kernel, f_coefficient, bracket_modes):
        assert inspect.isfunction(fn), fn.__name__
