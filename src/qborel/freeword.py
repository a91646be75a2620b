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

from .coeffring import scalar_is_zero, scalar_str
from .datum import IndexOutOfRange, QuantumDatum

Word = tuple  # tuple of extended letter indices


class NonHomogeneousOperand(ValueError):
    """Raised when a bracket operand mixes multidegrees."""


class FreeElem:
    """Linear combination of words with scalar coefficients, canonical form."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = {w: c for w, c in terms.items() if not scalar_is_zero(c)}

    @classmethod
    def zero(cls) -> "FreeElem":
        return cls({})

    @classmethod
    def letter(cls, datum: QuantumDatum, i: int, coeff=None) -> "FreeElem":
        datum.check_letter(i)
        return cls({(i,): datum.one() if coeff is None else coeff})

    @classmethod
    def word(cls, w: Sequence[int], coeff) -> "FreeElem":
        return cls({tuple(w): coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: "FreeElem") -> "FreeElem":
        out = dict(self.terms)
        for w, c in other.terms.items():
            s = out.get(w, 0) + c
            if scalar_is_zero(s):
                out.pop(w, None)
            else:
                out[w] = s
        return FreeElem(out)

    def __sub__(self, other: "FreeElem") -> "FreeElem":
        return self + (-other)

    def __neg__(self) -> "FreeElem":
        return FreeElem({w: -c for w, c in self.terms.items()})

    def scale(self, c) -> "FreeElem":
        if scalar_is_zero(c):
            return FreeElem.zero()
        return FreeElem({w: c * cw for w, cw in self.terms.items()})

    def __mul__(self, other: "FreeElem") -> "FreeElem":
        """Concatenation product, extended bilinearly."""
        out: dict = {}
        for wa, ca in self.terms.items():
            for wb, cb in other.terms.items():
                w = wa + wb
                s = out.get(w, 0) + ca * cb
                if scalar_is_zero(s):
                    out.pop(w, None)
                else:
                    out[w] = s
        return FreeElem(out)

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

    def __eq__(self, other) -> bool:
        return isinstance(other, FreeElem) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        if not self.terms:
            return "<FreeElem 0>"
        bits = []
        for w, c in sorted(self.terms.items()):
            word = "*".join(f"x{i}" for i in w) or "1"
            bits.append(f"({scalar_str(c)})*{word}")
        return "<FreeElem " + " + ".join(bits) + ">"


def free_one(datum: QuantumDatum) -> FreeElem:
    return FreeElem({(): datum.one()})


def multidegree(datum: QuantumDatum, f: FreeElem) -> tuple | None:
    """Common multidegree of all words of f, or None for the zero element."""
    deg = None
    for w in f.terms:
        d = datum.multidegree(w)
        if deg is None:
            deg = d
        elif d != deg:
            raise NonHomogeneousOperand(f"mixed multidegrees {deg} and {d}")
    return deg


def is_homogeneous(datum: QuantumDatum, f: FreeElem) -> bool:
    try:
        multidegree(datum, f)
        return True
    except NonHomogeneousOperand:
        return False


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


def make_word(datum: QuantumDatum, kind: str, k: int, m: int,
              direction: str = "ascending") -> Word:
    """The distinguished word of the given kind on the interval (k, m).

    kind 'v' (series A, C): x_k x_{k+1} ... x_m.  kind 'e' and 'e_prime'
    (series D): the chain word skipping the reflected letter, and its
    variant with x_n x_{n+1} replaced by x_{n-1} x_n.  'descending'
    returns the opposite word.
    """
    if kind == "v":
        if datum.series == "D":
            raise ValueError("kind 'v' needs series A or C")
        w = datum.word_v(k, m)
    elif kind == "e":
        if datum.series != "D":
            raise ValueError("kind 'e' needs series D")
        w = datum.word_e(k, m)
    elif kind == "e_prime":
        if datum.series != "D":
            raise ValueError("kind 'e_prime' needs series D")
        w = datum.word_e_prime(k, m)
    else:
        raise ValueError(f"unknown word kind {kind!r}")
    if direction == "descending":
        return tuple(reversed(w))
    if direction != "ascending":
        raise ValueError(f"unknown direction {direction!r}")
    return w


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


def bracket_factors(datum: QuantumDatum, factors: Sequence[FreeElem],
                    split: int) -> FreeElem:
    """[[y_1 ... y_s], [y_{s+1} ... y_l]] with left-nested inner brackets."""
    if not (1 <= split < len(factors)):
        raise IndexOutOfRange(f"split {split} outside 1..{len(factors) - 1}")
    return skew_bracket(datum,
                        left_nested(datum, factors[:split]),
                        left_nested(datum, factors[split:]))


def all_bracketings(datum: QuantumDatum, factors: Sequence[FreeElem]):
    """Every full binary bracketing of the factor sequence."""
    if len(factors) == 1:
        yield factors[0]
        return
    for s in range(1, len(factors)):
        for lhs in all_bracketings(datum, factors[:s]):
            for rhs in all_bracketings(datum, factors[s:]):
                yield skew_bracket(datum, lhs, rhs)


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


def arrangement_factors(datum: QuantumDatum, k: int, m: int) -> list:
    """Factor sequence whose bracket arrangement does not matter.

    Below rank-crossing intervals the raw letters qualify; for k < n < m
    the crossing is packaged into a single already-bracketed factor
    (y = v[k,n-1] resp. e[k,n] on the left, v/e[n+1,m] on the right).
    Not defined at m = phi(k), where only the double bracket applies.
    """
    n = datum.n
    word = datum.series_word(k, m)
    if datum.series == "A" or m <= n or k >= n:
        return _letters(datum, word)
    if m == datum.phi(k):
        raise IndexOutOfRange("no arrangement statement at m = phi(k)")
    if m < datum.phi(k):
        if datum.series == "C":
            head, tail_from = pbw_bracketing(datum, k, n - 1), n
        else:
            head, tail_from = pbw_bracketing(datum, k, n), n + 1
        return [head] + [FreeElem.letter(datum, t) for t in range(tail_from, m + 1)]
    # m > phi(k)
    tail = pbw_bracketing(datum, n + 1, m)
    if datum.series == "C":
        head_letters = list(range(k, n + 1))
    else:
        head_letters = list(range(k, n - 1)) + [n]
    return [FreeElem.letter(datum, t) for t in head_letters] + [tail]


def recursion_bracketing(datum: QuantumDatum, k: int, m: int) -> FreeElem:
    """Alternative bracketing by the standard-word recurrences.

    For k < n < m < phi(k):  [x_k [w(k+1, m)]] when m < phi(k) - 1 and
    [[w(k, m-1)] x_m] when m = phi(k) - 1; bottoms out in pbw_bracketing
    once the interval stops crossing the fold.
    """
    n = datum.n
    if datum.series == "A" or m <= n or k >= n or m >= datum.phi(k):
        return pbw_bracketing(datum, k, m)
    if m < datum.phi(k) - 1:
        return skew_bracket(datum, FreeElem.letter(datum, k),
                            recursion_bracketing(datum, k + 1, m))
    return skew_bracket(datum, recursion_bracketing(datum, k, m - 1),
                        FreeElem.letter(datum, m))


def bracketing_variant(datum: QuantumDatum, k: int, m: int,
                       split: int | None = None,
                       recursion: bool = False) -> FreeElem:
    """A re-arranged bracketing of the same word, for cross-checks.

    Either the designated factor sequence split at ``split`` or, with
    ``recursion=True``, the recurrence form.  Values agree with
    pbw_bracketing in the shuffle image, not as free elements.
    """
    if recursion:
        return recursion_bracketing(datum, k, m)
    if split is None:
        raise ValueError("need a split point or recursion=True")
    return bracket_factors(datum, arrangement_factors(datum, k, m), split)


def word_greater(u: Word, v: Word) -> bool:
    """u > v in the left-priority lexicographic order with x_1 > x_2 > ...

    A proper beginning of a word is greater than the word itself.
    """
    for a, b in zip(u, v):
        if a != b:
            return a < b
    return len(u) < len(v) and len(u) > 0


def word_sort_key(w: Word):
    """Sort key giving ascending order (smallest word first)."""
    return _WordKey(w)


class _WordKey:
    __slots__ = ("w",)

    def __init__(self, w: Word):
        self.w = w

    def __lt__(self, other: "_WordKey") -> bool:
        return word_greater(other.w, self.w)

    def __eq__(self, other) -> bool:
        return self.w == other.w
