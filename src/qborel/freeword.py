"""Words in folded letters, free-algebra elements, and skew brackets.

A word is a plain tuple of extended letter indices (1 <= i < 2n for the
folded series, 1 <= i <= n for series A).  A :class:`FreeElem` is a finite
linear combination of words with scalar coefficients; its ``*`` is the
concatenation product of the free algebra.  The skew bracket of homogeneous
elements is

    [u, v] = u v - p(u, v) v u,

where p(u, v) depends only on the multidegrees, and the double bracket
[[u, v]] scales p(u, v) by q^{-1}.  That formula is stated once, in
:func:`_bracket`, which also checks homogeneity for both algebras; here it
is computed from two concatenation products, and :mod:`qborel.shuffle`
computes its shuffle image in one pass over the interleavings.
:func:`bracketed_word` states the nesting of the PBW generators once, over
a bracket and a chain builder.
"""

from __future__ import annotations

from typing import Sequence

from .coeffring import LinComb, add_terms
from .datum import QuantumDatum

Word = tuple  # tuple of extended letter indices


class NonHomogeneousOperand(ValueError):
    """Raised when a bracket operand mixes multidegrees."""


class FreeElem(LinComb):
    """Linear combination of words with scalar coefficients, canonical form."""

    __slots__ = ()

    @classmethod
    def letter(cls, datum: QuantumDatum, i: int, coeff=None) -> "FreeElem":
        datum.check_letter(i)
        return cls({(i,): datum.one() if coeff is None else coeff})

    @classmethod
    def word(cls, w: Sequence[int], coeff) -> "FreeElem":
        return cls({tuple(w): coeff})

    def __mul__(self, other: "FreeElem") -> "FreeElem":
        """Concatenation product, extended bilinearly."""
        out: dict = {}
        for wa, ca in self.terms.items():
            add_terms(out, ((wa + wb, ca * cb) for wb, cb in other.terms.items()))
        return FreeElem._fresh(out)

    def __pow__(self, e: int) -> "FreeElem":
        if e < 0:
            raise ValueError("free elements have no negative powers")
        if e == 0:
            if not self.terms:
                raise ValueError("0 ** 0 has no ring to take its unit from")
            return FreeElem({(): next(iter(self.terms.values())) ** 0})
        result = self
        for _ in range(e - 1):
            result = result * self
        return result

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for w, c in sorted(self.terms.items()):
            word = "*".join(f"x{i}" for i in w) or "1"
            bits.append(f"({c})*{word}")
        return " + ".join(bits)


def multidegree(datum: QuantumDatum, f: LinComb) -> tuple | None:
    """Common multidegree of all words (or comonomials) of f, or None for 0."""
    deg = None
    for w in f.terms:
        d = datum.multidegree(w)
        if deg is None:
            deg = d
        elif d != deg:
            raise NonHomogeneousOperand(f"mixed multidegrees {deg} and {d}")
    return deg


def _bracket(datum: QuantumDatum, u: LinComb, v: LinComb, factor, body) -> LinComb:
    """[u, v] = u v - factor p(u, v) v u for homogeneous u, v (factor 1 if
    None), zero if either is zero; ``body(datum, u, v, factor)`` computes
    it for two nonzero homogeneous operands."""
    du, dv = multidegree(datum, u), multidegree(datum, v)
    if du is None or dv is None:
        return u.zero()
    return body(datum, u, v, factor)


def _two_products(datum: QuantumDatum, u: FreeElem, v: FreeElem, factor) -> FreeElem:
    """u v - factor p(u, v) v u by two concatenation products; p is read
    off one word of each operand."""
    p = datum.p_words(next(iter(u.terms)), next(iter(v.terms)))
    if factor is not None:
        p = factor * p
    return u * v - (v * u).scale(p)


def skew_bracket(datum: QuantumDatum, u: FreeElem, v: FreeElem,
                 factor=None) -> FreeElem:
    """[u, v] in the free algebra; factor = q^{-1} gives [[u, v]]."""
    return _bracket(datum, u, v, factor, _two_products)


def left_nested(datum: QuantumDatum, factors: Sequence[FreeElem]) -> FreeElem:
    """[[...[y_1, y_2], ...], y_l]"""
    out = factors[0]
    for f in factors[1:]:
        out = skew_bracket(datum, out, f)
    return out


def right_nested(datum: QuantumDatum, factors: Sequence[FreeElem]) -> FreeElem:
    """[y_1, [y_2, [..., y_l]...]]"""
    out = factors[-1]
    for f in reversed(factors[:-1]):
        out = skew_bracket(datum, f, out)
    return out


def bracketed_word(datum: QuantumDatum, k: int, m: int, bracket, chain):
    """The bracketed word v[k,m] (series A, C) or e[k,m] (series D).

    Left-nested below the fold (m < phi(k)), right-nested above it, and the
    double bracket [[.[k,m-1]., x_m]] exactly at m = phi(k), where [k,m-1]
    is the left chain of the word of [k,m] without its last letter.  Series
    D at (n, n) degenerates to [[x_n, x_n]], which is identically zero.
    The algebra is given by ``bracket(datum, u, v, factor)``, which scales
    p(u, v) by factor unless it is None, and by ``chain(datum, word,
    right)``, the left-nested (right-nested if ``right``) chain of the
    letters of ``word``; a letter is its one-letter chain.  A memoised
    ``chain`` reuses the chains it has already built.
    """
    word = datum.series_word(k, m)
    if datum.series == "D" and k == m == datum.n:
        x = chain(datum, word, False)
        return bracket(datum, x, x, datum.q_power(-1))
    if len(word) == 1 or datum.series == "A" or m < datum.phi(k):
        return chain(datum, word, False)
    if m > datum.phi(k):
        return chain(datum, word, True)
    return bracket(datum, chain(datum, word[:-1], False),
                   chain(datum, word[-1:], False), datum.q_power(-1))


def _free_chain(datum: QuantumDatum, word: Sequence[int], right: bool) -> FreeElem:
    xs = [FreeElem.letter(datum, i) for i in word]
    return right_nested(datum, xs) if right else left_nested(datum, xs)


def pbw_bracketing(datum: QuantumDatum, k: int, m: int) -> FreeElem:
    """v[k,m] or e[k,m] in the free algebra (see :func:`bracketed_word`)."""
    return bracketed_word(datum, k, m, skew_bracket, _free_chain)


def word_greater(u: Word, v: Word) -> bool:
    """u > v in the left-priority lexicographic order with x_1 > x_2 > ...

    A proper beginning of a word is greater than the word itself.
    """
    for a, b in zip(u, v):
        if a != b:
            return a < b
    return len(u) < len(v) and len(u) > 0
