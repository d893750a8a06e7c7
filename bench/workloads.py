"""Seeded inputs of the four benchmark workloads.

Every function here is pure: the same seed gives the same inputs.  The
inputs are plain JSON-able data, so they can be handed to a fresh process
on its standard input and recorded next to their golden answers.

* ``suite-fast``       -- ``qheis suite --suite fast``: the 14 laws at
  window 5, symbolic.  The product engine, ``series_inverse`` and the
  scalar gcd path do most of the work.
* ``suite-fast-point`` -- the same suite at a rational point picked by the
  seed; the scalar layer computes symbolically and then evaluates.
* ``commutators-wide`` -- the eight laws that use no product (the
  ``*-commutator-*`` and ``*-quasi-locality*`` laws) at window 80, in a
  seeded order.  Fock normal ordering and table comparison dominate; the
  product engine is idle.
* ``algebra-queries``  -- a stream of library queries in one session with
  skewed popularity: ``bracket_modes`` on all five algebras, a mode word
  applied to the vacuum and paired against its dual word, and kernel
  parsing plus directed expansion.
"""

from __future__ import annotations

import random

WORKLOADS = ("suite-fast", "suite-fast-point", "commutators-wide",
             "algebra-queries")

# the laws that build no product: fields, commutators and multipliers only
COMMUTATOR_LAWS = (
    "bhat-commutator-delta",
    "hq-commutator-delta",
    "hq-quasi-locality",
    "hq-quasi-locality-control",
    "htq-commutator-euler-form",
    "htq-commutator-kernel-form",
    "htq-quasi-locality",
    "htq-quasi-locality-control",
)
COMMUTATOR_WINDOW = 80

# rational points for suite-fast-point; q0 avoids 0, 1, -1 (rejected by
# RationalPoint) and l0 avoids 0, where every commutator vanishes
POINT_Q = ("2", "-2", "3", "-3", "1/2", "-1/2", "2/3", "-3/2", "5/3",
           "-7/3")
POINT_L = ("1", "-1", "2", "-2", "1/2", "-5/2", "3", "2/3")

ALGEBRAS = ("hq", "htq", "bhat", "bhatq", "graded")
SHIFTED = ("bhat", "bhatq", "graded")
MODE_MAX = 7                # |m|, |n| <= 7 in bracket queries
FAMILIES = (0, 1, 2, 3)     # bracket family indices: r - s in -3..3
WORD_FAMILIES = (0, 1, 2)   # word family indices, a subset of FAMILIES
WORD_MODES = (-3, -2, -1)
WORD_MAX = 3
# dual of the creation letter (m, r): the annihilator (-m - dm, r + dr)
# whose bracket with it is nonzero (bhat pairs neighbouring families at
# mode sum -1, the others pair a family with itself at mode sum 0)
DUAL_SHIFT = {"hq": (0, 0), "htq": (0, 0), "bhat": (1, 1), "bhatq": (0, 0),
              "graded": (0, 0)}
EXPAND_RADIUS = 4
# one product kernel in two spellings that must expand alike
PRODUCT_FLAT = "1/(x1-x2)/(x1-q*x2)"
PRODUCT_PAREN = "1/((x1-x2)*(x1-q*x2))"
KERNELS = (
    "1/(x1-x2)",
    "1/(x1-q*x2)",
    "1/(x1-q^2*x2)^2",
    "1/(x1-x2)^3",
    "x1/(1-q*x2/x1)",
    "(x1+x2)/(x1-q*x2)",
    "x1^2*x2/(x1-q^2*x2)",
    PRODUCT_FLAT,
    PRODUCT_PAREN,
    "1/(x-q)^2",
    "1/(x-3)",
    "x^2/(x-q^3)",
    "e^z/(e^z-q)^2",
    "1/(e^z-q^3)",
)

# queries per session; each product spelling is asked exactly
# PRODUCT_QUERIES times, so the share of parenthesized ones is fixed
BRACKET_QUERIES = 2000
WORD_QUERIES = 600
EXPAND_QUERIES = 400
PRODUCT_QUERIES = 20
POOL = {"bracket": 240, "word": 120}
ZIPF_S = 1.1


def _zipf_stream(rng: random.Random, pool: list, count: int) -> list:
    """Every pool item once, then skewed repeats: rank k drawn ~ 1/k^s."""
    weights = [1.0 / (k + 1) ** ZIPF_S for k in range(len(pool))]
    return list(pool) + rng.choices(pool, weights, k=count - len(pool))


def _bracket_query(rng: random.Random, alg: str) -> tuple:
    m = rng.randint(-MODE_MAX, MODE_MAX)
    if rng.random() < 0.5:
        n = max(-MODE_MAX, min(MODE_MAX, -m - (1 if alg == "bhat" else 0)))
    else:
        n = rng.randint(-MODE_MAX, MODE_MAX)
    r, s = ((rng.choice(FAMILIES), rng.choice(FAMILIES)) if alg in SHIFTED
            else (0, 0))
    return ("bracket", alg, m, n, r, s)


def _bracket_pool(rng: random.Random) -> list:
    # every (r - s, table radius) bucket of the bhatq tail at least once,
    # so each session builds the same tables whatever the seed: exponents
    # -m-1, -n-1 within 4 fall in the radius-4 table, the rest in radius 8
    pool = set()
    for diff in range(FAMILIES[0] - FAMILIES[-1],
                      FAMILIES[-1] - FAMILIES[0] + 1):
        s = rng.choice([f for f in FAMILIES if f + diff in FAMILIES])
        pool.add(("bracket", "bhatq", rng.randint(-5, -1),
                  rng.randint(-5, 3), s + diff, s))
        pool.add(("bracket", "bhatq", rng.randint(-7, -6),
                  rng.randint(-MODE_MAX, MODE_MAX), s + diff, s))
    while len(pool) < POOL["bracket"]:
        pool.add(_bracket_query(rng, rng.choice(ALGEBRAS)))
    out = sorted(pool)
    rng.shuffle(out)
    return out


def word_letters(alg: str) -> list[tuple[int, int]]:
    fams = WORD_FAMILIES if alg in SHIFTED else (0,)
    return [(m, r) for m in WORD_MODES for r in fams]


def dual_word(alg: str, word) -> list[tuple[int, int]]:
    dm, dr = DUAL_SHIFT[alg]
    return [(-m - dm, r + dr) for m, r in reversed(word)]


def _word_pool(rng: random.Random) -> list:
    pool = set()
    while len(pool) < POOL["word"]:
        alg = rng.choice(ALGEBRAS)
        letters = word_letters(alg)
        word = tuple(rng.choice(letters)
                     for _ in range(rng.randint(1, WORD_MAX)))
        pool.add(("word", alg, word))
    out = sorted(pool)
    rng.shuffle(out)
    return out


def expand_directions(kernel: str) -> list[tuple[str, ...]]:
    """Both orders of the kernel's variables (one order if it has one)."""
    names = [v for v in ("x1", "x2") if v in kernel]
    if not names:
        names = ["z"] if "e^z" in kernel else ["x"]
    return [tuple(names), tuple(reversed(names))] if len(names) > 1 \
        else [tuple(names)]


def _expand_stream(rng: random.Random) -> list:
    pool = [("expand", k, d) for k in KERNELS
            if k not in (PRODUCT_FLAT, PRODUCT_PAREN)
            for d in expand_directions(k)]
    rng.shuffle(pool)
    fixed = [("expand", k, rng.choice(expand_directions(k)))
             for k in (PRODUCT_FLAT, PRODUCT_PAREN)
             for _ in range(PRODUCT_QUERIES)]
    return fixed + _zipf_stream(rng, pool, EXPAND_QUERIES - len(fixed))


def algebra_queries(seed: int) -> list:
    rng = random.Random(seed)
    stream = (_zipf_stream(rng, _bracket_pool(rng), BRACKET_QUERIES)
              + _zipf_stream(rng, _word_pool(rng), WORD_QUERIES)
              + _expand_stream(rng))
    rng.shuffle(stream)
    return [list(q) for q in stream]


def suite_point(seed: int) -> tuple[str, str]:
    rng = random.Random(seed)
    return rng.choice(POINT_Q), rng.choice(POINT_L)


def suite_argv(workload: str, seed: int) -> list[str]:
    """Arguments of ``qheis`` for a suite workload.

    Point values go in ``--q0=...`` form: argparse reads a bare negative
    value such as ``--l0 -5/2`` as a flag and exits with code 2.
    """
    argv = ["suite", "--suite", "fast", "--json", f"--seed={seed}"]
    if workload == "suite-fast-point":
        q0, l0 = suite_point(seed)
        argv += [f"--q0={q0}", f"--l0={l0}"]
    return argv


def commutator_laws(seed: int) -> list[str]:
    laws = list(COMMUTATOR_LAWS)
    random.Random(seed).shuffle(laws)
    return laws


def request(workload: str, seed: int) -> dict:
    """What one cold process of the workload is asked to do."""
    if workload in ("suite-fast", "suite-fast-point"):
        return {"cli": suite_argv(workload, seed)}
    if workload == "commutators-wide":
        return {"laws": commutator_laws(seed), "window": COMMUTATOR_WINDOW}
    if workload == "algebra-queries":
        return {"queries": algebra_queries(seed)}
    raise ValueError(f"unknown workload {workload!r}")
