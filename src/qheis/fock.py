"""Vacuum modules over the mode algebras.

Each algebra of the catalog acts on a Fock space induced from a one
dimensional vacuum: annihilation modes (m >= 0) kill the vacuum, the
centre acts by the level, and the PBW monomials in creation modes
(m <= -1) form a basis.  Normal ordering is exact: every
transposition inserts the central bracket scalar, with the centre already
specialised to the level.

In the deformed shifted algebra even two creation modes can bracket to a
nonzero central scalar, so normal ordering inserts corrections among
creations as well; the sorted monomials remain a basis and the correction
terms always have strictly shorter words.

A generator b^(shift)_mode is named by its letter (mode, shift), with
shift 0 on the unshifted algebras; PBW monomials and words are tuples of
letters.  Two-point functions read generating fields (:func:`two_point`).
"""

from __future__ import annotations

from functools import lru_cache

from .liealg import bracket_modes, get_algebra
from .scalar import SYMBOLIC, Scalar, immutable
from .series import TruncatedLaurent, Window


class FockError(ValueError):
    pass


# a PBW monomial is a tuple of (mode, shift) pairs, sorted ascending;
# only creation modes (mode <= -1) appear
PBWMonomial = tuple[tuple[int, int], ...]


class FockModule:
    """Ambient data of a vacuum module: algebra, level and the scalar field
    of its coefficients.

    ``scalars`` is the field, symbolic Q(q, l) or a
    :class:`qheis.scalar.RationalPoint`, and the level defaults to its
    level.  The algebra's ``spec`` is looked up once, here.
    """

    __slots__ = ("algebra", "level", "scalars", "spec", "_hash")

    def __init__(self, algebra: str, level: Scalar = None,
                 scalars=SYMBOLIC):
        spec = get_algebra(algebra)
        if level is None:
            level = scalars.level
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "scalars", scalars)
        object.__setattr__(self, "spec", spec)
        # the product-stack and central-bracket memos hash the module
        object.__setattr__(self, "_hash", hash((algebra, level, scalars)))

    __setattr__ = __delattr__ = immutable

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.algebra, self.level, self.scalars)
                == (other.algebra, other.level, other.scalars))

    def __hash__(self) -> int:
        return self._hash

    def vacuum(self) -> "FockVector":
        return FockVector(self, {(): self.scalars.one})

    def zero(self) -> "FockVector":
        return FockVector(self, {})

    def basis_vector(self, *gens: tuple[int, int]) -> "FockVector":
        """The PBW monomial on the given (mode, shift) creation pairs."""
        mono = tuple(sorted(gens))
        _check_monomial(self, mono)
        return FockVector(self, {mono: self.scalars.one})


def _check_monomial(module: FockModule, mono: PBWMonomial):
    shifted = module.spec.shifted
    for mode, shift in mono:
        if mode > -1:
            raise FockError(f"mode {mode} is not a creation mode")
        if shift and not shifted:
            raise FockError(f"{module.algebra} generators carry no family index")


class FockVector:
    """A finite combination of PBW monomials with exact coefficients."""

    __slots__ = ("module", "terms")

    def __init__(self, module: FockModule, terms: dict[PBWMonomial, Scalar]):
        self.module = module
        self.terms = {m: c for m, c in terms.items() if c}

    @classmethod
    def _nonzero(cls, module: FockModule, terms: dict[PBWMonomial, Scalar]
                 ) -> "FockVector":
        """A vector on terms that hold no zero coefficient, taken as is."""
        out = cls.__new__(cls)
        out.module = module
        out.terms = terms
        return out

    def __eq__(self, other) -> bool:
        return (isinstance(other, FockVector)
                and self.module == other.module
                and self.terms == other.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "FockVector") -> "FockVector":
        if self.module != other.module:
            raise FockError("vectors live in different modules")
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            out[m] = c if s is None else s + c
        return FockVector(self.module, out)

    def __neg__(self) -> "FockVector":
        # negation keeps every coefficient nonzero
        return FockVector._nonzero(
            self.module, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "FockVector") -> "FockVector":
        """self - other in one pass; with an empty side, the other side
        itself or its negation."""
        if self.module != other.module:
            raise FockError("vectors live in different modules")
        if not other.terms:
            return self
        if not self.terms:
            return -other
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            out[m] = -c if s is None else s - c
        return FockVector(self.module, out)

    def scale(self, s: Scalar) -> "FockVector":
        # in a field a nonzero scalar times a nonzero coefficient is nonzero
        if not s:
            return self.module.zero()
        return FockVector._nonzero(
            self.module, {m: c * s for m, c in self.terms.items()})

    def vacuum_component(self) -> Scalar:
        return self.terms.get((), self.module.scalars.zero)

    def degrees(self) -> set[int]:
        """Total degrees sum(-mode) of the monomials present."""
        return {sum(-m for m, _r in mono) for mono in self.terms}

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        shifted = self.module.spec.shifted
        parts = []
        for mono in sorted(self.terms):
            c = self.terms[mono]
            word = " ".join(
                (f"b({r})_{m}" if shifted else f"b_{m}") for m, r in mono)
            word = f"{word} vac" if word else "vac"
            parts.append(f"({c}) {word}")
        return " + ".join(parts)

    __repr__ = __str__


def pair_vectors(bra: FockVector, ket: FockVector) -> Scalar:
    """Pairing in the monomial basis: sum of products of coefficients."""
    if bra.module != ket.module:
        raise FockError("vectors live in different modules")
    total = bra.module.scalars.zero
    small, big = sorted((bra.terms, ket.terms), key=len)
    for m, c in small.items():
        other = big.get(m)
        if other is not None:
            total = total + c * other
    return total


# ---------------------------------------------------------------------------
# the action


def apply_generator(letter: tuple[int, int], v: FockVector) -> FockVector:
    """Act by the generator of the letter (mode, shift) and return the PBW
    normal form of the result."""
    module = v.module
    mode, shift = letter
    if shift and not module.spec.shifted:
        raise FockError(
            f"{module.spec.name} generators carry no family index")
    out: dict[PBWMonomial, Scalar] = {}
    if mode <= -1:
        for mono, c in v.terms.items():
            _insert_creation(module, mono, letter, c, out)
    else:
        for mono, c in v.terms.items():
            _contract_annihilator(module, mono, letter, c, out)
    return FockVector(module, out)


# keyed by the module, whose hash is kept; a bench session meets a few
# hundred distinct transpositions
@lru_cache(maxsize=1024)
def _central(module: FockModule, g: tuple[int, int], h: tuple[int, int]
             ) -> Scalar:
    """The correction [g, h] of a transposition, with the centre at the
    module's level."""
    return bracket_modes(module.spec, g[0], h[0], g[1], h[1],
                         module.scalars) * module.level


def _insert_creation(module: FockModule, mono: PBWMonomial,
                     g: tuple[int, int], scale: Scalar,
                     out: dict[PBWMonomial, Scalar]):
    """Walk g into its sorted slot, inserting central corrections."""
    prefix: list[tuple[int, int]] = []
    rest = list(mono)
    while rest and rest[0] < g:
        c = _central(module, g, rest[0])
        if c:
            corr = tuple(prefix + rest[1:])
            val = scale * c
            prev = out.get(corr)
            out[corr] = val if prev is None else prev + val
        prefix.append(rest.pop(0))
    mono = tuple(prefix + [g] + rest)
    prev = out.get(mono)
    out[mono] = scale if prev is None else prev + scale


def _contract_annihilator(module: FockModule, mono: PBWMonomial,
                          g: tuple[int, int], scale: Scalar,
                          out: dict[PBWMonomial, Scalar]):
    """Commute g through the word; each contraction removes one creation."""
    for i, h in enumerate(mono):
        c = _central(module, g, h)
        if c:
            corr = mono[:i] + mono[i + 1:]
            val = scale * c
            prev = out.get(corr)
            out[corr] = val if prev is None else prev + val


def apply_word(module: FockModule, word, v: FockVector) -> FockVector:
    """Act by a word of (mode, shift) letters, rightmost factor first."""
    for letter in reversed(list(word)):
        v = apply_generator(letter, v)
    return v


def annihilation_bound(v: FockVector) -> int:
    """Least N such that every annihilator of mode >= N kills v.

    For the unshifted algebras a contraction needs mode sums to vanish, so
    the bound is one past the deepest creation mode; the loop-style pairing
    contracts at mode sum -1, lowering the bound by one.
    """
    spec = v.module.spec
    bound = 0
    for mono in v.terms:
        if not mono:
            continue
        depth = max(-m for m, _r in mono)
        bound = max(bound, depth if spec.name == "bhat" else depth + 1)
    return bound


# ---------------------------------------------------------------------------
# matrix elements of products of generating functions


def _weights(v: FockVector, mode_sum: int) -> set[int]:
    """The weights sum_j (mode_sum - 2 m_j) of the monomials of v."""
    return {mode_sum * len(mono) - 2 * sum(m for m, _r in mono)
            for mono in v.terms}


def two_point(bra: FockVector, fields, ket: FockVector,
              window: Window) -> TruncatedLaurent:
    """Matrix element of a product of generating fields, exactly.

    A field has a ``module``, an ``offset`` and ``apply_coeff(e, v)``, the
    action of its x^e coefficient: the generator of mode -e - offset up
    to a nonzero scalar (:func:`qheis.vertexops.field_of`).  The i-th
    field takes the variable x_i, and the fields act on the ket in written
    order, the last first.  Each exponent tuple of the window selects one
    coefficient of each field, so every coefficient inside the window is
    exact.  The exponents are walked right to left as a tree: each prefix
    acts once and its vector is shared by every exponent extending it, and
    a zero vector ends its branch.

    When the algebra is graded (its brackets vanish off m + n = mode_sum),
    a monomial on modes m_j has the weight sum_j (mode_sum - 2 m_j), and
    every generator of mode m -- by creation or contraction -- moves a
    weight by mode_sum - 2m.  So the outermost field applies only the
    exponents whose mode moves some weight of its vector onto some weight
    of the bra; every other leaf pairs to zero.  ``bhatq`` has no grading
    and walks every exponent.
    """
    module = bra.module
    if ket.module != module:
        raise FockError("bra and ket live in different modules")
    if any(f.module != module for f in fields):
        raise FockError("a field and the bra act on different modules")
    if len(fields) > 3:
        raise FockError("at most three fields are supported")
    if len(window.vars) != len(fields):
        raise FockError("window must have one variable per field")
    coeffs: dict[tuple[int, ...], Scalar] = {}
    sigma = module.spec.mode_sum
    if sigma is not None:
        bra_weights = _weights(bra, sigma)

    def walk(i: int, v: FockVector, tail: tuple[int, ...]):
        if v.is_zero():
            return
        if i < 0:
            val = pair_vectors(bra, v)
            if val:
                coeffs[tail] = val
            return
        field, lo, hi = fields[i], window.lo[i], window.hi[i]
        exps = range(lo, hi + 1)
        if i == 0 and sigma is not None:
            # mode m takes weight a to b = a + sigma - 2m
            reach = {-((sigma + a - b) // 2) - field.offset
                     for a in _weights(v, sigma) for b in bra_weights
                     if (sigma + a - b) % 2 == 0}
            exps = [e for e in sorted(reach) if lo <= e <= hi]
        for e in exps:
            walk(i - 1, field.apply_coeff(e, v), (e,) + tail)

    walk(len(fields) - 1, ket, ())
    return TruncatedLaurent.polynomial(window.vars, coeffs).restrict(window)
