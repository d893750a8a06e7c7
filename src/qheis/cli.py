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
level l, and with ``--q0/--l0`` an exact rational at that point.  The
``QHEIS_WINDOW`` environment variable overrides default windows, and
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
from .kernels import KernelError, parse_kernel, iota_expand
from .liealg import ALGEBRAS, LieAlgebraError, bracket_modes
from .report import INCONCLUSIVE, PASS, combine
from .scalar import SYMBOLIC, RationalPoint
from .series import SeriesError, Window
from .vertexops import (
    LAWS,
    LawParameterError,
    VertexError,
    field_of,
    phi_product_n,
    suite_reports,
    verify_identity,
)

SUITES = {"paper-all": 8, "fast": 5}


def _fail_usage(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _window_default(fallback: int | None) -> int | None:
    env = os.environ.get("QHEIS_WINDOW")
    if env is not None:
        try:
            fallback = int(env)
        except ValueError:
            raise SystemExit(_fail_usage(
                f"QHEIS_WINDOW must be an integer, got {env!r}"))
    if fallback is not None and fallback < 0:
        raise SystemExit(_fail_usage(
            f"a window must be a nonnegative integer, got {fallback}"))
    return fallback


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
    window = _window_default(args.window)
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
    point = _point_from(args)
    try:
        val = bracket_modes(args.algebra, args.m, args.n, args.r, args.s,
                            SYMBOLIC if point is None else point)
    except LieAlgebraError as exc:
        return _fail_usage(str(exc))
    print(val)
    return 0


def _cmd_fock_apply(args) -> int:
    if args.algebra not in ALGEBRAS:
        return _fail_usage(
            f"unknown algebra {args.algebra!r}; one of {', '.join(ALGEBRAS)}")
    module = FockModule(args.algebra)
    try:
        word = _parse_word(args.word)
    except ValueError as exc:
        return _fail_usage(str(exc))
    try:
        out = apply_word(module, word, module.vacuum())
    except (LieAlgebraError, FockError) as exc:
        return _fail_usage(str(exc))
    print(out)
    return 0


def _cmd_phi_product(args) -> int:
    if args.algebra not in ("hq", "htq"):
        return _fail_usage(
            "substitution products are cataloged for algebras hq and htq")
    module = FockModule(args.algebra)
    try:
        prod = phi_product_n(field_of(module, args.r),
                             field_of(module, args.s), args.n)
    except VertexError as exc:
        return _fail_usage(str(exc))
    probe = _window_default(args.window)
    vac = module.vacuum()
    coeffs = {e: prod.apply_coeff(e, vac) for e in range(-probe, probe + 1)}
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
    window = _window_default(args.window)
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
    window = _window_default(args.window)
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
                   help="seed recorded in the report")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qheis",
        description="exact calculus for deformed Heisenberg mode algebras")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="directed expansion of a kernel")
    p.add_argument("--kernel", required=True)
    p.add_argument("--direction", required=True,
                   help="comma-separated variables, outermost first")
    p.add_argument("--window", type=int, default=4)
    p.add_argument("--limit", type=int, default=24,
                   help="maximum printed terms")
    p.set_defaults(fn=_cmd_expand)

    p = sub.add_parser("bracket", help="one bracket constant")
    p.add_argument("--algebra", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, default=0)
    p.add_argument("--s", type=int, default=0)
    _add_point_flags(p)
    p.set_defaults(fn=_cmd_bracket)

    p = sub.add_parser("fock-apply",
                       help="apply a mode word to the vacuum")
    p.add_argument("--algebra", required=True)
    p.add_argument("--word", required=True,
                   help="comma-separated letters m:r, applied right to left")
    p.set_defaults(fn=_cmd_fock_apply)

    p = sub.add_parser("phi-product",
                       help="substitution product of two generating fields")
    p.add_argument("--algebra", required=True)
    p.add_argument("--r", type=int, default=0)
    p.add_argument("--s", type=int, default=0)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--window", type=int, default=4,
                   help="probe window for printing")
    p.set_defaults(fn=_cmd_phi_product)

    p = sub.add_parser("verify", help="run one identity check")
    p.add_argument("--law", required=True)
    p.add_argument("--window", type=int)
    p.add_argument("--param", action="append",
                   help="law parameter as key=value (repeatable)")
    _add_point_flags(p)
    _add_report_flags(p)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("suite", help="run every identity check")
    p.add_argument("--suite", default="paper-all",
                   choices=sorted(SUITES))
    p.add_argument("--window", type=int,
                   help="override the suite's window")
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
    try:
        return args.fn(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
