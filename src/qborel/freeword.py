"""Words in folded letters, free-algebra elements, and skew brackets.

A word is a plain tuple of extended letter indices (1 <= i < 2n for the
folded series, 1 <= i <= n for series A).  A :class:`FreeElem` is a finite
linear combination of words with scalar coefficients; its ``*`` is the
concatenation product of the free algebra.  The skew bracket of homogeneous
elements is

    [u, v] = u v - p(u, v) v u,

where p(u, v) depends only on the multidegrees, and the double bracket
[[u, v]] scales p(u, v) by q^{-1}.  :func:`bracketed_word` states the
nesting of the PBW generators once, for the free and the shuffle algebra.
"""

from __future__ import annotations

from functools import reduce
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


def skew_bracket(datum: QuantumDatum, u: FreeElem, v: FreeElem,
                 factor=None) -> FreeElem:
    """u v - factor p(u, v) v u for homogeneous u, v (factor 1 if None).

    factor = q^{-1} gives the double bracket [[u, v]].
    """
    du = multidegree(datum, u)
    dv = multidegree(datum, v)
    if du is None or dv is None:
        return FreeElem.zero()
    p = datum.p_deg(du, dv)
    if factor is not None:
        p = factor * p
    return u * v - (v * u).scale(p)


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


def bracketed_word(datum: QuantumDatum, k: int, m: int, letter, bracket,
                   prefix):
    """The bracketed word v[k,m] (series A, C) or e[k,m] (series D).

    Left-nested below the fold (m < phi(k)), right-nested above it, and the
    double bracket [[.[k,m-1]., x_m]] exactly at m = phi(k).  Series D at
    (n, n) degenerates to [[x_n, x_n]], which is identically zero.  The
    algebra is given by ``letter(datum, i)``, by ``bracket(datum, u, v,
    factor)``, which scales p(u, v) by factor unless it is None, and by
    ``prefix(datum, k, m - 1)``, the bracketed word [k, m-1] in it, so a
    memoised caller reuses that image.
    """
    if datum.series == "D" and k == m == datum.n:
        x = letter(datum, m)
        return bracket(datum, x, x, datum.q_power(-1))
    xs = [letter(datum, i) for i in datum.series_word(k, m)]
    if len(xs) == 1:
        return xs[0]
    if datum.series == "A" or m < datum.phi(k):
        return reduce(lambda e, x: bracket(datum, e, x), xs)
    if m > datum.phi(k):
        return reduce(lambda e, x: bracket(datum, x, e), reversed(xs))
    return bracket(datum, prefix(datum, k, m - 1), xs[-1], datum.q_power(-1))


def pbw_bracketing(datum: QuantumDatum, k: int, m: int) -> FreeElem:
    """v[k,m] or e[k,m] in the free algebra (see :func:`bracketed_word`)."""
    return bracketed_word(datum, k, m, FreeElem.letter, skew_bracket,
                          pbw_bracketing)


def word_greater(u: Word, v: Word) -> bool:
    """u > v in the left-priority lexicographic order with x_1 > x_2 > ...

    A proper beginning of a word is greater than the word itself.
    """
    for a, b in zip(u, v):
        if a != b:
            return a < b
    return len(u) < len(v) and len(u) > 0
