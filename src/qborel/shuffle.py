"""The braided shuffle algebra: letter products, evaluation, coproduct.

A comonomial (z_1 z_2 ... z_m) is the tensor z_1 (x) ... (x) z_m viewed as
an element of the shuffle algebra; it is stored as the tuple of physical
letter indices, since folded letters denote the same generator.  The letter
products follow

    (w)(x_i) = sum_{uv=w} p(x_i, v)^{-1} (u x_i v),
    (x_i)(w) = sum_{uv=w} p(u, x_i)^{-1} (u x_i v),

and the braided coproduct is deconcatenation over all split points.  The
map x_i -> (x_i) extends to the evaluation homomorphism from free-algebra
elements, computed by grouping words on their last letter so that each
letter product acts on an already merged sum (``eval_word`` keeps the
word-by-word reference).
"""

from __future__ import annotations

from itertools import accumulate
from operator import mul
from typing import Sequence

from .coeffring import LinComb, add_terms
from .datum import QuantumDatum
from .freeword import FreeElem


class ShuffleElem(LinComb):
    """Linear combination of comonomials, canonical (no zero coefficients)."""

    __slots__ = ()

    @classmethod
    def unit(cls, datum: QuantumDatum) -> "ShuffleElem":
        return cls({(): datum.one()})

    @classmethod
    def letter(cls, datum: QuantumDatum, i: int) -> "ShuffleElem":
        return cls({(datum.physical(i),): datum.one()})

    @classmethod
    def comonomial(cls, datum: QuantumDatum, letters: Sequence[int], coeff=None) -> "ShuffleElem":
        key = tuple(datum.physical(i) for i in letters)
        return cls({key: datum.one() if coeff is None else coeff})

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda it: (len(it[0]), it[0]))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for z, c in self.sorted_terms():
            cs = str(c)
            if " + " in cs or " - " in cs:
                cs = f"({cs})"
            mono = "(" + " ".join(f"x{i}" for i in z) + ")" if z else "(1)"
            bits.append(f"{cs} * {mono}")
        return " + ".join(bits)


def comonomial_degree(z: tuple, n: int) -> tuple:
    deg = [0] * n
    for i in z:
        deg[i - 1] += 1
    return tuple(deg)


def shuffle_letter_mul(datum: QuantumDatum, side: str, w: ShuffleElem,
                       i: int) -> ShuffleElem:
    """Right product (w)(x_i) or left product (x_i)(w), per the split rule."""
    phys = datum.physical(i)
    out: dict = {}
    if side == "right":
        # (u x_i v) pays p(x_i, v)^{-1}: one more letter of v per split leftwards
        inv = (None,) + datum._p_inv[phys - 1]
        for z, c in w.terms.items():
            add_terms(out, zip((z[:s] + (phys,) + z[s:] for s in range(len(z), -1, -1)),
                               accumulate(map(inv.__getitem__, reversed(z)), mul, initial=c)))
    elif side == "left":
        # (u x_i v) pays p(u, x_i)^{-1}: one more letter of u per split rightwards
        inv = (None,) + tuple(row[phys - 1] for row in datum._p_inv)
        for z, c in w.terms.items():
            add_terms(out, zip((z[:s] + (phys,) + z[s:] for s in range(len(z) + 1)),
                               accumulate(map(inv.__getitem__, z), mul, initial=c)))
    else:
        raise ValueError("side must be 'right' or 'left'")
    return ShuffleElem._fresh(out)


def eval_word(datum: QuantumDatum, word: Sequence[int]) -> ShuffleElem:
    """Image of one word: ((...((x_{z_1})(x_{z_2}))...)(x_{z_l}))."""
    out = ShuffleElem.unit(datum)
    for letter in word:
        out = shuffle_letter_mul(datum, "right", out, letter)
    return out


def act_free(datum: QuantumDatum, s: ShuffleElem, f: FreeElem) -> ShuffleElem:
    """The right action s . eval(f), grouping the words of f on their last letter.

    Since eval is a homomorphism, s . eval(sum_w c_w w'x) equals
    (s . eval(sum_w c_w w'))(x) for each last letter x, and the empty word
    contributes c s.  The prefixes sharing a (physical) last letter are
    merged into one canonical sum before the letter product, so terms cancel
    early instead of after every word is shuffled out on its own.
    """
    return _act(datum, s, f.terms)


def _act(datum: QuantumDatum, s: ShuffleElem, terms: dict) -> ShuffleElem:
    out: dict = {}
    groups: dict = {}
    for w, c in terms.items():
        if not w:
            add_terms(out, s.scale(c).terms.items())
            continue
        add_terms(groups.setdefault(datum.physical(w[-1]), {}), ((w[:-1], c),))
    for x, prefixes in groups.items():
        if prefixes:
            img = shuffle_letter_mul(datum, "right", _act(datum, s, prefixes), x)
            add_terms(out, img.terms.items())
    return ShuffleElem._fresh(out)


def eval_free(datum: QuantumDatum, f: FreeElem) -> ShuffleElem:
    """The evaluation homomorphism x_i -> (x_i), extended linearly."""
    return act_free(datum, ShuffleElem.unit(datum), f)


class BraidedTensor(LinComb):
    """Canonical sum of (left comonomial, right comonomial) -> coefficient."""

    __slots__ = ()

    def sorted_terms(self):
        return sorted(self.terms.items(),
                      key=lambda it: (len(it[0][0]), it[0][0], len(it[0][1]), it[0][1]))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for (l, r), c in self.sorted_terms():
            cs = str(c)
            if " + " in cs or " - " in cs:
                cs = f"({cs})"
            lm = "(" + " ".join(f"x{i}" for i in l) + ")" if l else "(1)"
            rm = "(" + " ".join(f"x{i}" for i in r) + ")" if r else "(1)"
            bits.append(f"{cs} * {lm}(x){rm}")
        return " + ".join(bits)


def braided_coproduct(s: ShuffleElem, reduced: bool = False) -> BraidedTensor:
    """Deconcatenation over all split points of every comonomial.

    With ``reduced`` the two extreme splits u (x) 1 and 1 (x) u are dropped.
    """
    out: dict = {}
    drop = 1 if reduced else 0
    for z, c in s.terms.items():
        add_terms(out, (((z[:i], z[i:]), c) for i in range(drop, len(z) - drop + 1)))
    return BraidedTensor._fresh(out)


def tensor_of(left: ShuffleElem, right: ShuffleElem) -> BraidedTensor:
    """The outer product sum of (left term) (x) (right term)."""
    out: dict = {}
    for zl, cl in left.terms.items():
        for zr, cr in right.terms.items():
            out[(zl, zr)] = cl * cr
    return BraidedTensor._fresh(out)


def tensor_project_pair(t: BraidedTensor, left_deg: Sequence[int],
                        right_deg: Sequence[int]) -> BraidedTensor:
    """Sub-sum with both component multidegrees prescribed."""
    n = len(right_deg)
    wl, wr = tuple(left_deg), tuple(right_deg)
    return BraidedTensor._fresh({
        k: c for k, c in t.terms.items()
        if comonomial_degree(k[0], n) == wl and comonomial_degree(k[1], n) == wr
    })
