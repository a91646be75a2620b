"""The braided shuffle algebra: products, evaluation, coproduct.

A comonomial (z_1 z_2 ... z_m) is the tensor z_1 (x) ... (x) z_m viewed as
an element of the shuffle algebra; it is stored as the tuple of physical
letter indices, since folded letters denote the same generator.  The
braided (quantum) shuffle product of Rosso sums over all shuffles of two
comonomials u and v, and a shuffle pays p(y, x)^{-1} for every letter y of
v that lands before a letter x of u.  A bracket a * b - c p(a, b) b * a
runs over the same shuffles, weighting each by 1 - c q^E for its crossing
energy E (:func:`shuffle_bracket`), so the product and the bracket share
one walk (:func:`_interleavings`).  It places each letter of the shorter
comonomial by one loop over the slots of the longer, with the weight and
the energy as running values, and adds each interleaving to the sum as
it is built; the product tracks no energy.  Every walk reads the tables
that the datum builds once, indexed by physical letters.

With v a single letter the product is the right letter product (w)(x_i) =
sum_{uv=w} p(x_i, v)^{-1} (u x_i v), the same walk with one letter to
place.  The map x_i -> (x_i) extends through it to the evaluation
homomorphism from free-algebra elements, computed by grouping words on
their last letter so that each letter product acts on an already merged
sum (``eval_word`` keeps the word-by-word reference).  Since evaluation
is a homomorphism, a bracket tree is evaluated bracket by bracket in the
shuffle algebra instead.  The braided coproduct is deconcatenation over
all split points.

Over a table p of monic monomials (every symbolic datum) a bracket runs on
packed monomial keys (:func:`_keyed_bracket`).  Each weight w(sigma) is a
monic monomial, whose key K is the sum of the keys of p(y, x)^{-1} over
the crossed pairs, and factor q^E is the monomial of key fk + E, fk the
factor's key, since q owns slot 0 of a key.  So an interleaving adds
c q^K - c q^(K + fk + E), c = c_u c_v, and vanishes exactly when
fk + E == 0; every step of the walk is an int addition, and the terms of
each output word are summed in one int dict.  This is exact: the keys are
those of the Laurent products the generic walk forms, and a key is the
sum of c's key and of at most |u| |v| pair keys and energies plus fk, all
bounded up front, so its slots stay below 2 EXP_LIMIT < 2^31 in absolute
value and none wraps into the next; a result past EXP_LIMIT raises
``ExponentOutOfRange`` as a Laurent product does, and so does the walk
itself where the pair keys and energies alone could pass EXP_LIMIT (a
table p with huge exponents, which make_datum never builds).  A factor
that is not a monic monomial takes the generic walk over the scalars, as
every bracket over a rational table does.
"""

from __future__ import annotations

import re
from typing import Sequence

from .coeffring import (EXP_LIMIT, ExponentOutOfRange, LaurentPoly, LinComb, _laurent,
                        add_terms)
from .datum import QuantumDatum
from .freeword import FreeElem, _bracket


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
        return _sum_str(self.sorted_terms(), comonomial_str)


def comonomial_str(z: tuple) -> str:
    """The text (x1 x2 ...) of a comonomial; (1) for the empty one."""
    return "(" + " ".join(f"x{i}" for i in z) + ")" if z else "(1)"


def tensor_pair_str(key: tuple) -> str:
    """The text (left)(x)(right) of a (left, right) comonomial pair."""
    return "(x)".join(map(comonomial_str, key))


def _sum_str(items, render) -> str:
    """c * key + ... with each sum-valued c in parentheses; 0 if empty."""
    bits = []
    for key, c in items:
        cs = str(c)
        # several top-level summands: a sign not leading, not after ^ and
        # not inside parentheses
        if re.search(r"[^^][+-]", re.sub(r"\([^()]*\)", "", cs)):
            cs = f"({cs})"
        bits.append(f"{cs} * {render(key)}")
    return " + ".join(bits) or "0"


def comonomial_degree(z: tuple, n: int) -> tuple:
    deg = [0] * n
    for i in z:
        deg[i - 1] += 1
    return tuple(deg)


def shuffle_letter_mul(datum: QuantumDatum, w: ShuffleElem, i: int) -> ShuffleElem:
    """The right letter product (w)(x_i), per the split rule: the shuffle
    product with the one letter x_i, run as its walk (:func:`_place`)."""
    x, rows, out = (datum.physical(i),), datum._p_inv, {}
    for z, c in w.terms.items():
        _place(out, z, x, rows, None, c, 0, 0, (), False)
    return ShuffleElem._fresh(out)


def shuffle_mul(datum: QuantumDatum, a: ShuffleElem, b: ShuffleElem) -> ShuffleElem:
    """The braided shuffle product a * b.

    One loop per letter places the shorter comonomial of each pair into
    the longer one, so a letter operand costs one scalar product per
    output term, as the letter product does.
    """
    return ShuffleElem._fresh(_interleavings(datum._p_inv, a.terms, b.terms, None))


def shuffle_bracket(datum: QuantumDatum, a: ShuffleElem, b: ShuffleElem,
                    factor=None) -> ShuffleElem:
    """a * b - factor p(a, b) b * a under the shuffle product, for
    homogeneous a, b (factor 1 if None): the bracket formula of
    :mod:`qborel.freeword`, computed in one pass.

    For comonomials u of a and v of b, a * b and b * a run over the same
    interleavings sigma of u and v.  Let w(sigma) be the a * b weight, the
    product of p(y, x)^{-1} over each letter y of v placed before a letter
    x of u, and E(sigma) the sum of b(x, y) = d_x a_xy over the same
    pairs.  Since p(x, y) p(y, x) = q^{b(x, y)}, p(u, v) times the b * a
    weight of sigma is w(sigma) q^{E(sigma)}, so the bracket is

        sum over u, v, sigma of c_u c_v w(sigma) (1 - factor q^{E(sigma)}) sigma.

    The walk carries E beside the weight, 1 - factor q^E is computed once
    per distinct E, and an interleaving whose scalar is zero is skipped
    before its word is built: E = 0 for the skew bracket and E = 1 for
    the double bracket.  Over a table of monic monomials with factor None
    or a monic monomial, the walk runs on packed keys instead (module
    docstring).

    The image of the skew bracket [u, v] is shuffle_bracket(eval(u),
    eval(v)), and that of the double bracket takes factor = q^{-1}.
    """
    return _bracket(datum, a, b, factor, _one_pass_bracket)


def _one_pass_bracket(datum: QuantumDatum, a: ShuffleElem, b: ShuffleElem,
                      factor) -> ShuffleElem:
    if datum._inv_keys is not None:
        if factor is None:
            return ShuffleElem._fresh(_keyed_bracket(datum, a.terms, b.terms, 0, 0))
        if (factor.__class__ is LaurentPoly and factor.vs is datum.varset
                and len(factor.terms) == 1 and 1 in factor.terms.values()):
            return ShuffleElem._fresh(_keyed_bracket(datum, a.terms, b.terms,
                                                     next(iter(factor.terms)), factor._bound))
    scalars = datum._leaf_scalars.get(factor)
    if scalars is None:
        scalars = datum._leaf_scalars[factor] = _LeafScalars(datum, factor)
    return ShuffleElem._fresh(_interleavings(datum._p_inv, a.terms, b.terms, scalars))


class _LeafScalars(dict):
    """1 - factor q^E by energy E, each computed on first use, and the
    energy table b(x, y) that E sums.  A datum keeps one per factor, as it
    keeps its powers of q; it holds q, one and the table but not the
    datum, so that no reference cycle outlives the datum's last user."""

    def __init__(self, datum: QuantumDatum, factor):
        super().__init__()
        self.q, self.one, self.factor, self.energy = datum.q, datum.one(), factor, datum._b

    def __missing__(self, e: int):
        qe = self.q ** e
        f = self[e] = self.one - (qe if self.factor is None else self.factor * qe)
        return f


def _keyed_bracket(datum: QuantumDatum, a: dict, b: dict, fk: int, fbound: int):
    """The terms of the bracket of :func:`shuffle_bracket` on packed keys
    (module docstring), over the datum's key rows and columns, energies and
    step, for the monic factor of key ``fk`` (0 for None) and exponent
    bound ``fbound``; ExponentOutOfRange where the keys and energies of the
    pairs could pass EXP_LIMIT.  A leaf adds c = c_u c_v
    shifted by K and -c shifted by K + fk + E into the int dict of its
    word, so every exponent stays within max |c| + ``reach`` <= 2
    EXP_LIMIT < 2^31.  As in add_terms, a term or a word that cancels is
    dropped at once, which keeps the words of a large bracket from piling
    up."""
    rows, cols, energy = datum._inv_keys, datum._inv_cols, datum._b
    reach = max(map(len, a)) * max(map(len, b)) * datum._step + fbound
    if reach > EXP_LIMIT:
        raise ExponentOutOfRange(f"a key may reach exponent {reach}, past +-{EXP_LIMIT}")
    vs, one = datum.varset, datum.one()
    words: dict = {}
    bound = 0
    for u, cu in a.items():
        for v, cv in b.items():
            c = cu * cv
            if c.__class__ is not LaurentPoly or c.vs is not vs:
                c = one * c
            bound = max(bound, c._bound)
            terms = c.terms.items()
            if len(v) <= len(u):
                leaves = _keyed_leaves(u, v, rows, energy, fk, 0, 0)
            else:
                # as in _interleavings: reversed words, p transposed
                leaves = ((z[::-1], k, j) for z, k, j in
                          _keyed_leaves(v[::-1], u[::-1], cols, energy, fk, 0, 0))
            for z, k, j in leaves:
                d = words.get(z)
                if d is None:
                    d = words[z] = {}
                for kc, ac in terms:
                    x = kc + k
                    s = d.get(x, 0) + ac
                    if s:
                        d[x] = s
                    else:
                        del d[x]
                    x = kc + j
                    s = d.get(x, 0) - ac
                    if s:
                        d[x] = s
                    else:
                        del d[x]
                if not d:
                    del words[z]
    bound += reach
    return {z: _laurent(vs, d, bound) for z, d in words.items()}


def _keyed_leaves(base: tuple, ins: tuple, rows, energy, fk: int, k: int, e: int):
    """(word, K, K + fk + E) for each placement of ins, in order, into base
    with fk + E != 0, where K and E start at k and e and a letter y placed
    before base[s:] adds rows[y][z] to K and energy[y][z] to E for each
    letter z of base[s:] (the rule of :func:`_place`)."""
    if not ins:
        if fk + e:
            yield base, k, k + fk + e
        return
    y, rest = ins[0], ins[1:]
    row, brow = rows[y], energy[y]
    for s in range(len(base), -1, -1):
        if rest:
            for tail, kt, jt in _keyed_leaves(base[s:], rest, rows, energy, fk, k, e):
                yield base[:s] + (y,) + tail, kt, jt
        elif fk + e:
            yield base[:s] + (y,) + base[s:], k, k + fk + e
        if s:
            z = base[s - 1]
            k += row[z]
            e += brow[z]


def _interleavings(rows, a: dict, b: dict, scalars) -> dict:
    """The sum over comonomials u of a, v of b and interleavings sigma of
    c_u c_v w(sigma) sigma, each term times scalars[E(sigma)] unless
    scalars is None (see :func:`shuffle_bracket`), as a fresh dict.

    The weights w(sigma) are products of entries of ``rows``, the table
    p(x, y)^{-1}; only the number protocol is used on them and on the
    coefficients of the term dicts ``a`` and ``b``, so a table and terms
    of plain ints give the product over the integers.  :func:`_place`
    places the shorter comonomial of each pair into the longer one.
    """
    cols = None
    out: dict = {}
    for u, cu in a.items():
        for v, cv in b.items():
            c = cu * cv
            if not (u and v):
                # nothing to place: the one interleaving u v, of energy 0
                f = 1 if scalars is None else scalars[0]
                if f:
                    add_terms(out, ((u + v, c * f),))
            elif len(v) <= len(u):
                _place(out, u, v, rows, scalars, c, 0, 0, (), False)
            else:
                # x of u placed after v[:s] pays p(v[:s], x)^{-1}: the same
                # rule on the reversed words with p transposed; the energy
                # table is symmetric, so only p is transposed
                cols = cols or tuple(zip(*rows))
                _place(out, v[::-1], u[::-1], cols, scalars, c, 0, 0, (), True)
    return out


def _place(out: dict, base: tuple, ins: tuple, rows, scalars, c, e, lo, head, flip):
    """Merges into ``out`` as add_terms does, in order, head + each
    placement of the nonempty ins into base[lo:], reversed if flip.  The
    first letter y takes the slots s from len(base) down to lo; before
    base[s:] it multiplies c by rows[y][z] and, with scalars, adds
    scalars.energy[y][z] to e for each letter z of base[s:].  The last
    letter writes its words, times scalars[e] where that is nonzero, and
    any other recurses with lo = s and head + base[lo:s] + (y,)."""
    y, ins = ins[0], ins[1:]
    row = rows[y]
    brow = None if scalars is None else scalars.energy[y]
    s = len(base)
    full, shift = head + base[lo:], len(head) - lo
    while True:
        if ins:
            _place(out, base, ins, rows, scalars, c, e, s, full[:s + shift] + (y,), flip)
        elif brow is None or (f := scalars[e]):
            w = c if brow is None else c * f
            z = full[:s + shift] + (y,) + base[s:]
            if flip:
                z = z[::-1]
            cur = out.get(z)
            if cur is None:
                out[z] = w
            else:
                cur = cur + w
                if cur:
                    out[z] = cur
                else:
                    del out[z]
        if s == lo:
            return
        s -= 1
        x = base[s]
        c *= row[x]
        if brow is not None:
            e += brow[x]


def eval_word(datum: QuantumDatum, word: Sequence[int]) -> ShuffleElem:
    """Image of one word: ((...((x_{z_1})(x_{z_2}))...)(x_{z_l}))."""
    out = ShuffleElem.unit(datum)
    for letter in word:
        out = shuffle_letter_mul(datum, out, letter)
    return out


def eval_free(datum: QuantumDatum, f: FreeElem) -> ShuffleElem:
    """The evaluation homomorphism x_i -> (x_i), extended linearly.

    Since eval is a homomorphism, eval(sum_w c_w w'x) equals
    (eval(sum_w c_w w'))(x) for each last letter x, and the empty word
    contributes c.  The prefixes sharing a (physical) last letter are
    merged into one canonical sum before the letter product, so terms
    cancel early instead of after every word is shuffled out on its own.
    Each coefficient is taken into the datum's ring first.
    """
    one = datum.one()
    return ShuffleElem._fresh(_eval_terms(datum, {w: one * c for w, c in f.terms.items()}))


def _eval_terms(datum: QuantumDatum, terms: dict) -> dict:
    """The terms of the image of the sum with the given terms."""
    out = {(): terms[()]} if () in terms else {}
    groups: dict = {}
    for w, c in terms.items():
        if w:
            add_terms(groups.setdefault(datum.physical(w[-1]), {}), ((w[:-1], c),))
    for x, prefixes in groups.items():
        if prefixes:
            img = ShuffleElem._fresh(_eval_terms(datum, prefixes))
            add_terms(out, shuffle_letter_mul(datum, img, x).terms.items())
    return out


class BraidedTensor(LinComb):
    """Canonical sum of (left comonomial, right comonomial) -> coefficient."""

    __slots__ = ()

    def sorted_terms(self):
        return sorted(self.terms.items(),
                      key=lambda it: (len(it[0][0]), it[0][0], len(it[0][1]), it[0][1]))

    def __str__(self) -> str:
        return _sum_str(self.sorted_terms(), tensor_pair_str)


def braided_coproduct(s: ShuffleElem, reduced: bool = False) -> BraidedTensor:
    """Deconcatenation over all split points of every comonomial.

    With ``reduced`` the two extreme splits u (x) 1 and 1 (x) u are dropped.
    """
    out: dict = {}
    drop = 1 if reduced else 0
    for z, c in s.terms.items():
        add_terms(out, (((z[:i], z[i:]), c) for i in range(drop, len(z) - drop + 1)))
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
