"""Command-line driver for expansions, brackets, products and the verifier.

Subcommands:

* ``expand``      -- directed expansion of a rational kernel over a window;
* ``bracket``     -- one bracket constant between two modes;
* ``fock-apply``  -- apply a word of generator modes to the vacuum;
* ``phi-product`` -- a substitution product of two generating fields;
* ``verify``      -- run one registered identity check;
* ``suite``       -- run every registered check and emit a machine report.

Exit codes: 0 when everything passes, 1 on any failure or inconclusive
result, 2 on usage errors.  Machine reports use the stable keys
``suite, params, window, status, failures, seed, elapsed_ms``; in
symbolic mode every number is an exact rational expression in q and the
level l, and with ``--q0/--l0`` an exact rational at that point.
``QHEIS_FIXED_CLOCK=1`` pins ``elapsed_ms`` to 0 so identical runs are
byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from fractions import Fraction

from .fock import FockError, FockModule, apply_word
from .kernels import MAX_EXPONENT, MAX_NESTING, MAX_PARSE_WORK, \
    KernelError, parse_kernel, iota_expand
from .liealg import ALGEBRAS, LieAlgebraError, bracket_modes
from .report import INCONCLUSIVE, PASS, combine
from .scalar import SYMBOLIC, RationalPoint, int_text
from .series import SeriesError, Window
from .vertexops import (
    LAWS,
    MAX_LAW_FAMILY,
    MAX_X0_ORDER,
    LawParameterError,
    VertexError,
    field_of,
    phi_product_n,
    suite_reports,
    verify_identity,
)

SUITES = {"paper-all": 8, "fast": 5}

# The largest |m| and |n| the bracket command takes.  A bhatq bracket of
# two negative modes reads the z^(-m-n-2) coefficient of F_(r-s), whose
# cost grows a little faster than the square of that order: at
# m = n = -256 it prints in about 0.6 s symbolically, at -400 in 2.3 s,
# and at -1000 in 21 s (2-core machine, Python 3.11.7).  The library's
# bracket_modes takes any index.  The letters of a fock-apply word are
# held to the same bound: a bhatq word of two such letters reaches the
# same bracket.
MAX_MODE = 256

# The largest |r| and |s| of a family index that bracket and phi-product
# take, and the largest |r| of a fock-apply letter.  A bhatq bracket reads
# F_(r-s), whose coefficients are polynomials of degree about |r - s| in q:
# bracket --m -3 --n -2 --r 256 --s 0 prints in about 1.0 s, at r = 512
# in 3.4 s and at r = 1000 in 21 s, and phi-product --algebra hq --n 0
# --window 2 --r 256 in about 0.4 s (2-core machine, Python 3.11.7).  The
# bound holds each index on its own: a large |r - s| with a high z order,
# or with a wide phi-product window, still costs much more.
MAX_FAMILY = 256

# The largest probe window phi-product takes.  Its cost grows a little
# faster than the square of the window: --algebra hq --n 0 prints in about
# 0.4 s at window 100, 1.6 s at 200 and 3.5 s at 300 (2-core machine,
# Python 3.11.7).  A more negative n reads more z orders and costs more:
# htq --r 1 --s -1 --n -3 takes about 1.9 s at window 100.
MAX_PRODUCT_WINDOW = 100

# The least n phi-product takes.  The n-th product reads the stack to z
# order -n - 1, so a more negative n costs more: at window 100, hq --n -12
# prints in about 2.6 s and htq --n -12 in 3.4 s, and hq --n -20 takes
# 5.7 s (2-core machine, Python 3.11.7).  A positive n reads no more.
MIN_PRODUCT_N = -12

# The largest window expand takes.  Expansion cost grows about as the cube
# of the window: 1/(e^z-q)^16 along z expands in about 0.5 s at window
# 100, 1.7 s at 200 and 12.6 s at 400, and
# 1/((x1-q*x2)*(x1-x2)^2*(q*x1-x2)) along x2,x1 in 0.3 s, 1.3 s and 9.6 s.
# The e^z factors of a kernel share one closed form, so several high
# powers cost little more: 1/((e^z-q)^16*(e^z-2)^16*(e^z-1)^16) takes
# 1.1-1.6 s at 100.  An e^z numerator is one column of that closed form:
# e^z/((e^z-q)^4*(e^z-q^2)^3*(e^z-1)^2) takes 1.5-1.6 s at 100 and
# z*e^z/(e^z-q) 0.7 s (four cold processes each, 2-core machine,
# Python 3.11.7).
MAX_EXPAND_WINDOW = 100

# The largest window verify and suite take.  Symbolic paper-all grows
# about as the cube of the window: at window 24 it runs in about 5.4 s
# (its slowest law, phi-image-bq-commutator, in 2.5 s alone) and at 32
# in 12 s; at the point (3/5, 2) in 1.5 s and 2.9 s (one cold process
# each, 2-core machine, Python 3.11.7).  The library's verify_identity
# and suite_reports take any window.
MAX_LAW_WINDOW = 24

# The most letters a fock-apply word takes.  On bhatq, whose modes are not
# graded, normal ordering a word of creators costs far more than linear in
# its length: 8 letters -1:0,-2:1,..,-8:7 take about 4.7 s, 10 letters
# with modes -1..-3 up to 2.6 s and with modes -1..-5 up to 15 s, and 12
# letters with modes -1..-3 10-13 s (one cold process each, 2-core
# machine, Python 3.11.7).
MAX_WORD_LETTERS = 8


def _fail_usage(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _check_bound(flag: str, value: int, bound: int) -> None:
    if abs(value) > bound:
        raise SystemExit(_fail_usage(
            f"{flag} {value} is outside [-{bound}, {bound}]"))


def _window(value: int | None, bound: int) -> int | None:
    """The --window value, None when it is not given; exit 2 outside
    [0, bound]."""
    if value is not None and not 0 <= value <= bound:
        raise SystemExit(_fail_usage(
            f"--window {value} is outside [0, {bound}]"))
    return value


def _elapsed_ms(t0: float) -> int:
    if os.environ.get("QHEIS_FIXED_CLOCK") == "1":
        return 0
    return int((time.monotonic() - t0) * 1000)


def _parse_fraction(text: str, flag: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise SystemExit(_fail_usage(f"{flag} expects a rational, got {text!r}"))


def _point_from(args) -> RationalPoint | None:
    if args.q0 is None and args.l0 is None:
        return None
    if args.q0 is None or args.l0 is None:
        raise SystemExit(_fail_usage("--q0 and --l0 must be given together"))
    q0 = _parse_fraction(args.q0, "--q0")
    l0 = _parse_fraction(args.l0, "--l0")
    try:
        return RationalPoint(q0, l0)
    except ValueError as exc:
        raise SystemExit(_fail_usage(str(exc)))


def _check_point_from(args) -> RationalPoint | None:
    """The point of an identity check.  At level 0 every commutator
    vanishes, so the commutator laws would pass vacuously and the control
    laws fail; such a point is refused."""
    point = _point_from(args)
    if point is not None and not point.l0:
        raise SystemExit(_fail_usage(
            "l0 must be nonzero: every commutator vanishes at level 0"))
    return point


def _value_text(val) -> str:
    """A bracket value as printed.  At a point it is a Fraction, whose two
    integers go through int_text so that they print at any length."""
    if isinstance(val, Fraction):
        num = int_text(val.numerator)
        if val.denominator == 1:
            return num
        return f"{num}/{int_text(val.denominator)}"
    return str(val)


def _parse_word(text: str):
    word = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        parts = tok.split(":")
        if len(parts) not in (1, 2):
            raise ValueError(f"bad word letter {tok!r}; use m or m:r")
        try:
            m = int(parts[0])
            r = int(parts[1]) if len(parts) == 2 else 0
        except ValueError:
            raise ValueError(f"bad word letter {tok!r}; use m or m:r")
        word.append((m, r))
    if not word:
        raise ValueError("empty word")
    return word


def _cmd_expand(args) -> int:
    try:
        kernel = parse_kernel(args.kernel)
    except KernelError as exc:
        return _fail_usage(str(exc))
    if args.limit < 0:
        return _fail_usage(f"--limit must be nonnegative, got {args.limit}")
    direction = tuple(v.strip() for v in args.direction.split(",") if v.strip())
    window = _window(args.window, MAX_EXPAND_WINDOW)
    try:
        w = Window(direction, (-window,) * len(direction),
                   (window,) * len(direction))
        table = iota_expand(kernel, direction, w)
    except (KernelError, SeriesError) as exc:
        return _fail_usage(str(exc))
    print(table.format_terms(limit=args.limit))
    return 0


def _cmd_bracket(args) -> int:
    if args.algebra not in ALGEBRAS:
        return _fail_usage(
            f"unknown algebra {args.algebra!r}; one of {', '.join(ALGEBRAS)}")
    _check_bound("--m", args.m, MAX_MODE)
    _check_bound("--n", args.n, MAX_MODE)
    _check_bound("--r", args.r, MAX_FAMILY)
    _check_bound("--s", args.s, MAX_FAMILY)
    point = _point_from(args)
    try:
        val = bracket_modes(args.algebra, args.m, args.n, args.r, args.s,
                            SYMBOLIC if point is None else point)
    except LieAlgebraError as exc:
        return _fail_usage(str(exc))
    print(_value_text(val))
    return 0


def _cmd_fock_apply(args) -> int:
    if args.algebra not in ALGEBRAS:
        return _fail_usage(
            f"unknown algebra {args.algebra!r}; one of {', '.join(ALGEBRAS)}")
    try:
        word = _parse_word(args.word)
    except ValueError as exc:
        return _fail_usage(str(exc))
    if len(word) > MAX_WORD_LETTERS:
        return _fail_usage(f"a word has at most {MAX_WORD_LETTERS} letters, "
                           f"got {len(word)}")
    for m, r in word:
        if abs(m) > MAX_MODE:
            return _fail_usage(f"letter {m}:{r} has a mode outside "
                               f"[-{MAX_MODE}, {MAX_MODE}]")
        if abs(r) > MAX_FAMILY:
            return _fail_usage(f"letter {m}:{r} has a family index outside "
                               f"[-{MAX_FAMILY}, {MAX_FAMILY}]")
    module = FockModule(args.algebra)
    try:
        out = apply_word(module, word, module.vacuum())
    except FockError as exc:
        return _fail_usage(str(exc))
    print(out)
    return 0


def _cmd_phi_product(args) -> int:
    if args.algebra not in ("hq", "htq"):
        return _fail_usage(
            "substitution products are cataloged for algebras hq and htq")
    probe = _window(args.window, MAX_PRODUCT_WINDOW)
    _check_bound("--r", args.r, MAX_FAMILY)
    _check_bound("--s", args.s, MAX_FAMILY)
    if args.n < MIN_PRODUCT_N:
        return _fail_usage(f"--n {args.n} is below {MIN_PRODUCT_N}")
    module = FockModule(args.algebra)
    try:
        prod = phi_product_n(field_of(module, args.r),
                             field_of(module, args.s), args.n)
    except VertexError as exc:
        return _fail_usage(str(exc))
    vac = module.vacuum()
    coeffs = dict(zip(range(-probe, probe + 1),
                      prod.apply_coeffs(-probe, probe, vac)))
    nonzero = {e: v for e, v in coeffs.items() if not v.is_zero()}
    if not nonzero:
        print("0")
        return 0
    only_vac = (set(nonzero) == {0}
                and nonzero[0].degrees() == {0}
                and len(nonzero[0].terms) == 1)
    if only_vac:
        print(f"({nonzero[0].vacuum_component()}) 1_W")
        return 0
    for e in sorted(nonzero):
        print(f"x^{e}: {nonzero[e]}")
    return 0


def _report_doc(suite: str, params: dict, window, reports, seed: int,
                t0: float) -> dict:
    failures = []
    for r in reports:
        for f in r.failures:
            failures.append({"law": r.name, "detail": f})
        if r.status == INCONCLUSIVE:
            failures.append({
                "law": r.name,
                "detail": "inconclusive: " + "; ".join(r.notes or
                                                       ["empty region"]),
            })
    return {
        "suite": suite,
        "params": params,
        "window": window,
        "status": combine(suite, reports).status,
        "laws": [
            {"law": r.name, "status": r.status,
             "checked": r.checked, "region": r.region}
            for r in reports
        ],
        "failures": failures,
        "seed": seed,
        "elapsed_ms": _elapsed_ms(t0),
    }


def _open_out(args):
    """The ``--out`` file opened for writing, so that an unwritable path
    exits before any law runs; a null context without ``--out``."""
    if not args.out:
        return contextlib.nullcontext()
    try:
        return open(args.out, "w")
    except OSError as exc:
        raise SystemExit(_fail_usage(
            f"cannot write --out {args.out!r}: {exc.strerror}"))


def _emit(doc: dict, args, out) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True)
    if out is not None:
        out.write(text + "\n")
    if args.json:
        print(text)
    else:
        for entry in doc["laws"]:
            print(f"{entry['law']:34s} {entry['status']:12s} "
                  f"checked={entry['checked']}")
        for f in doc["failures"][:10]:
            print(f"  {f['law']}: {f['detail']}")
        print(f"suite={doc['suite']} status={doc['status']} "
              f"window={doc['window']} seed={doc['seed']}")


def _law_params(pairs) -> dict:
    out = {}
    for item in pairs or ():
        if "=" not in item:
            raise SystemExit(_fail_usage(
                f"--param expects key=value, got {item!r}"))
        k, v = item.split("=", 1)
        if k in out:
            raise SystemExit(_fail_usage(f"--param {k!r} is given twice"))
        try:
            out[k] = int(v)
        except ValueError:
            out[k] = v
    return out


def _cmd_verify(args) -> int:
    if args.law not in LAWS:
        known = ", ".join(sorted(LAWS))
        return _fail_usage(f"unknown law {args.law!r}; one of {known}")
    window = _window(args.window, MAX_LAW_WINDOW)
    point = _check_point_from(args)
    params = _law_params(args.param)
    with _open_out(args) as out:
        t0 = time.monotonic()
        try:
            rep = verify_identity(args.law, window=window, point=point,
                                  **params)
        except LawParameterError as exc:
            return _fail_usage(f"bad parameters for {args.law}: {exc}")
        doc = _report_doc(
            "verify",
            {"law": args.law, "q0": args.q0, "l0": args.l0, **params},
            window if window is not None else LAWS[args.law].default_window,
            [rep], args.seed, t0)
        _emit(doc, args, out)
    return 0 if rep.status == PASS else 1


def _cmd_suite(args) -> int:
    window = _window(args.window, MAX_LAW_WINDOW)
    if window is None:
        window = SUITES[args.suite]
    point = _check_point_from(args)
    with _open_out(args) as out:
        t0 = time.monotonic()
        reports = suite_reports(window=window, point=point)
        doc = _report_doc(args.suite, {"q0": args.q0, "l0": args.l0}, window,
                          reports, args.seed, t0)
        _emit(doc, args, out)
    return 0 if doc["status"] == "pass" else 1


def _add_point_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--q0", help="rational value for q (numeric mode)")
    p.add_argument("--l0", help="rational value for the level (numeric mode)")


def _add_report_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true",
                   help="print the machine report instead of text")
    p.add_argument("--out", help="also write the machine report to a file")
    p.add_argument("--seed", type=int, default=0,
                   help="a label copied into the report: nothing in qheis "
                        "is random, so the seed changes no result")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qheis",
        description="exact calculus for deformed Heisenberg mode algebras")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="directed expansion of a kernel")
    p.add_argument("--kernel", required=True,
                   help="rational kernel in x, x1, x2, z and q; every "
                        f"exponent lies in [-{MAX_EXPONENT}, {MAX_EXPONENT}], "
                        f"parentheses nest at most {MAX_NESTING} deep, "
                        "and multiplying out its products costs at most "
                        f"{MAX_PARSE_WORK} units: one per pair of terms "
                        "multiplied, one per 16 products of their "
                        "coefficients' terms in q")
    p.add_argument("--direction", required=True,
                   help="comma-separated variables, outermost first")
    p.add_argument("--window", type=int, default=4,
                   help=f"window radius, at most {MAX_EXPAND_WINDOW}")
    p.add_argument("--limit", type=int, default=24,
                   help="maximum printed terms")
    p.set_defaults(fn=_cmd_expand)

    p = sub.add_parser("bracket", help="one bracket constant")
    p.add_argument("--algebra", required=True)
    mode_help = f"mode index in [-{MAX_MODE}, {MAX_MODE}]"
    family_help = f"family index in [-{MAX_FAMILY}, {MAX_FAMILY}]"
    p.add_argument("--m", type=int, required=True, help=mode_help)
    p.add_argument("--n", type=int, required=True, help=mode_help)
    p.add_argument("--r", type=int, default=0, help=family_help)
    p.add_argument("--s", type=int, default=0, help=family_help)
    _add_point_flags(p)
    p.set_defaults(fn=_cmd_bracket)

    p = sub.add_parser("fock-apply",
                       help="apply a mode word to the vacuum")
    p.add_argument("--algebra", required=True)
    p.add_argument("--word", required=True,
                   help=f"at most {MAX_WORD_LETTERS} comma-separated "
                        "letters m:r, applied right to left, each mode m in "
                        f"[-{MAX_MODE}, {MAX_MODE}] and family index r in "
                        f"[-{MAX_FAMILY}, {MAX_FAMILY}]")
    p.set_defaults(fn=_cmd_fock_apply)

    p = sub.add_parser("phi-product",
                       help="substitution product of two generating fields")
    p.add_argument("--algebra", required=True)
    p.add_argument("--r", type=int, default=0, help=family_help)
    p.add_argument("--s", type=int, default=0, help=family_help)
    p.add_argument("--n", type=int, required=True,
                   help=f"product index, at least {MIN_PRODUCT_N}")
    p.add_argument("--window", type=int, default=4,
                   help="probe window for printing, at most "
                        f"{MAX_PRODUCT_WINDOW}")
    p.set_defaults(fn=_cmd_phi_product)

    p = sub.add_parser("verify", help="run one identity check")
    p.add_argument("--law", required=True)
    p.add_argument("--window", type=int,
                   help="override the law's default window, at most "
                        f"{MAX_LAW_WINDOW}")
    p.add_argument("--param", action="append",
                   help="law parameter as key=value (repeatable); "
                        "a law's family indices r and s lie in "
                        f"[-{MAX_LAW_FAMILY}, {MAX_LAW_FAMILY}], and "
                        "phi-weak-associativity takes x0_order in "
                        f"[0, {MAX_X0_ORDER}]")
    _add_point_flags(p)
    _add_report_flags(p)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("suite", help="run every identity check")
    p.add_argument("--suite", default="paper-all",
                   choices=sorted(SUITES))
    p.add_argument("--window", type=int,
                   help="override the suite's window, at most "
                        f"{MAX_LAW_WINDOW}")
    _add_point_flags(p)
    _add_report_flags(p)
    p.set_defaults(fn=_cmd_suite)
    return ap


def run(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    # argparse hands an option written --opt=-- to its handler as an
    # empty list, and a repeatable one as a list holding one
    for dest, value in vars(args).items():
        if isinstance(value, list) and (not value or [] in value):
            return _fail_usage(f"--{dest} expects a value, got '--'")
    try:
        return args.fn(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
