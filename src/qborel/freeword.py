"""Words in folded letters, free-algebra elements, and skew brackets.

A word is a plain tuple of extended letter indices (1 <= i < 2n for the
folded series, 1 <= i <= n for series A).  A :class:`FreeElem` is a finite
linear combination of words with scalar coefficients; its ``*`` is the
concatenation product of the free algebra.  The skew bracket of homogeneous
elements is

    [u, v] = u v - p(u, v) v u,

where p(u, v) depends only on the multidegrees, and the double bracket
variant replaces p(u, v) by q^{-1} p(u, v).
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


def skew_bracket(datum: QuantumDatum, u: FreeElem, v: FreeElem) -> FreeElem:
    """[u, v] = u v - p(u, v) v u for homogeneous u, v."""
    du = multidegree(datum, u)
    dv = multidegree(datum, v)
    if du is None or dv is None:
        return FreeElem.zero()
    return u * v - (v * u).scale(datum.p_deg(du, dv))


def qq_bracket(datum: QuantumDatum, u: FreeElem, v: FreeElem) -> FreeElem:
    """The double bracket u v - q^{-1} p(u, v) v u."""
    du = multidegree(datum, u)
    dv = multidegree(datum, v)
    if du is None or dv is None:
        return FreeElem.zero()
    coeff = datum.q_power(-1) * datum.p_deg(du, dv)
    return u * v - (v * u).scale(coeff)


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


def _letters(datum: QuantumDatum, word: Word) -> list:
    return [FreeElem.letter(datum, i) for i in word]


def pbw_bracketing(datum: QuantumDatum, k: int, m: int) -> FreeElem:
    """The bracketed word v[k,m] (series A, C) or e[k,m] (series D).

    Left-nested below the fold (m < phi(k)), right-nested above it, and the
    double bracket [[.[k,m-1]., x_m]] exactly at m = phi(k).  Series D at
    (n, n) degenerates to [[x_n, x_n]], which is identically zero.
    """
    n = datum.n
    if datum.series == "D" and k == m == n:
        x = FreeElem.letter(datum, n)
        return qq_bracket(datum, x, x)
    word = datum.series_word(k, m)
    if len(word) == 1:
        return FreeElem.letter(datum, word[0])
    if datum.series == "A" or m < datum.phi(k):
        return left_nested(datum, _letters(datum, word))
    if m > datum.phi(k):
        return right_nested(datum, _letters(datum, word))
    return qq_bracket(datum, pbw_bracketing(datum, k, m - 1),
                      FreeElem.letter(datum, m))


def word_greater(u: Word, v: Word) -> bool:
    """u > v in the left-priority lexicographic order with x_1 > x_2 > ...

    A proper beginning of a word is greater than the word itself.
    """
    for a, b in zip(u, v):
        if a != b:
            return a < b
    return len(u) < len(v) and len(u) > 0
