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
it is built; the product tracks no energy.

With v a single letter the product is the right letter product (w)(x_i) =
sum_{uv=w} p(x_i, v)^{-1} (u x_i v), which keeps a loop of its own: the
map x_i -> (x_i) extends through it to the evaluation homomorphism from
free-algebra elements, an independent path for the cross-checks.  It is
computed by grouping words on their last letter so that each letter
product acts on an already merged sum (``eval_word`` keeps the
word-by-word reference).  Since evaluation is a homomorphism, a bracket
tree is evaluated bracket by bracket in the shuffle algebra instead.  The
braided coproduct is deconcatenation over all split points.

Over rational data the evaluation runs on cleared int tables.  Write
p(x, y)^{-1} = a_xy / b_xy in lowest terms and set C_xy = b_xy b_yx
(symmetric) and A_xy = a_xy b_yx, so A_xy / C_xy = p(x, y)^{-1}.  The input
is multiplied by L, the lcm of its coefficient denominators, and placing x
before z[s:] pays prod_{y in z[:s]} C_xy prod_{y in z[s:]} A_xy: the true
weight times prod_{y in z} C_xy.  By induction the int image at a
comonomial z is L K(z) times the rational one, with K(z) the product of
C over the letter pairs of z, which depends only on the letters of z.
Every partial sum at z carries the same positive factor, so terms cancel
at the same steps, and one Fraction(c, L K(z)) per output term gives the
same values, keys and dict order as the letter products over Fractions.

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

The evaluation runs on the same keys over such a table
(:func:`_keyed_eval`).  Each coefficient is one {packed key: int} dict,
and placing x before z[s:] shifts every key of z's coefficient by the sum
of the keys of p(x, y)^{-1} over the letters y of z[s:]: the key of the
weight the letter product multiplies by.  The walk keeps the grouping,
the merges and the cancellations of the letter products over
LaurentPolys step for step, so the values, the words and their order are
the same, and each output word becomes one LaurentPoly.  An int
coefficient is taken into the ring first.  A key of the image is the key
of an input coefficient shifted by at most L L step, L the longest word,
so with that bound checked up front no slot passes EXP_LIMIT; where it
could, the walk raises ``ExponentOutOfRange``.
"""

from __future__ import annotations

import re
import weakref
from fractions import Fraction
from itertools import accumulate
from math import lcm, prod
from operator import mul
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
    """The right letter product (w)(x_i), per the split rule."""
    phys = datum.physical(i)
    return ShuffleElem._fresh(_letter_terms(w.terms, phys, (None,) + datum._p_inv[phys - 1]))


def _letter_terms(terms: dict, x: int, tail, head=None) -> dict:
    """The terms of (w)(x) for w with the given terms: z[:s] x z[s:] pays
    tail[y] for each letter y of z[s:] and, with ``head``, head[y] for each
    letter y of z[:s].  The letter product takes tail = p(x, -)^{-1}."""
    out: dict = {}
    for z, c in terms.items():
        # s runs down from the end of z, one more letter of z[s:] per step
        ws = accumulate(map(tail.__getitem__, reversed(z)), mul, initial=c)
        if head is not None:
            heads = list(accumulate(map(head.__getitem__, z), mul, initial=1))
            ws = map(mul, ws, reversed(heads))
        add_terms(out, zip((z[:s] + (x,) + z[s:] for s in range(len(z), -1, -1)), ws))
    return out


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


_leaf_scalars: "weakref.WeakKeyDictionary[QuantumDatum, dict]" = weakref.WeakKeyDictionary()
_key_tables: "weakref.WeakKeyDictionary[QuantumDatum, tuple]" = weakref.WeakKeyDictionary()


def _one_pass_bracket(datum: QuantumDatum, a: ShuffleElem, b: ShuffleElem,
                      factor) -> ShuffleElem:
    if datum._p_keys is not None:
        if factor is None:
            return ShuffleElem._fresh(_keyed_bracket(datum, a.terms, b.terms, 0, 0))
        if (factor.__class__ is LaurentPoly and factor.vs is datum.varset
                and len(factor.terms) == 1 and 1 in factor.terms.values()):
            return ShuffleElem._fresh(_keyed_bracket(datum, a.terms, b.terms,
                                                     next(iter(factor.terms)), factor._bound))
    by_factor = _leaf_scalars.setdefault(datum, {})
    scalars = by_factor.get(factor)
    if scalars is None:
        scalars = by_factor[factor] = _LeafScalars(datum, factor)
    return ShuffleElem._fresh(_interleavings(datum._p_inv, a.terms, b.terms, scalars))


class _LeafScalars(dict):
    """1 - factor q^E by energy E, each computed on first use, and the
    energy table b(x, y) that E sums; memoised per datum and factor, so it
    holds q, one and the table but not the datum, which would keep itself
    alive as a key of the weak memo."""

    def __init__(self, datum: QuantumDatum, factor):
        super().__init__()
        self.q, self.one, self.factor, self.energy = datum.q, datum.one(), factor, datum._b

    def __missing__(self, e: int):
        qe = self.q ** e
        f = self[e] = self.one - (qe if self.factor is None else self.factor * qe)
        return f


def _keyed_bracket(datum: QuantumDatum, a: dict, b: dict, fk: int, fbound: int):
    """The terms of the bracket of :func:`shuffle_bracket` on packed keys
    (module docstring), for the monic factor of key ``fk`` (0 for None)
    and exponent bound ``fbound``; ExponentOutOfRange where the keys and
    energies of the pairs could pass EXP_LIMIT.  A leaf adds c = c_u c_v
    shifted by K and -c shifted by K + fk + E into the int dict of its
    word, so every exponent stays within max |c| + ``reach`` <= 2
    EXP_LIMIT < 2^31.  As in add_terms, a term or a word that cancels is
    dropped at once, which keeps the words of a large bracket from piling
    up."""
    rows, cols, energy, step = _tables(datum)
    reach = max(map(len, a)) * max(map(len, b)) * step + fbound
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


def _tables(datum: QuantumDatum) -> tuple:
    """(rows, cols, energy, step) of a datum whose p is a table of monic
    monomials, indexed by physical letters from 1: rows[y][z] the packed
    key of p(y, z)^{-1}, cols its transpose, energy[y][z] = b(y, z), and
    step a bound on the |exponent| one crossed pair adds to a key.  Built
    once per datum; the tables hold ints only, not the datum."""
    tables = _key_tables.get(datum)
    if tables is None:
        inv = [tuple(-k for k in row) for row in datum._p_keys]
        rows, cols, energy = ((None,) + tuple((None,) + row for row in table)
                              for table in (inv, zip(*inv), datum._b))
        step = datum._p_bound + max(abs(x) for row in datum._b for x in row)
        tables = _key_tables[datum] = (rows, cols, energy, step)
    return tables


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
    base[s:] it multiplies c by rows[y-1][z-1] and, with scalars, adds
    scalars.energy[y-1][z-1] to e for each letter z of base[s:].  The last
    letter writes its words, times scalars[e] where that is nonzero, and
    any other recurses with lo = s and head + base[lo:s] + (y,)."""
    y, ins = ins[0], ins[1:]
    row = rows[y - 1]
    brow = None if scalars is None else scalars.energy[y - 1]
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
        x = base[s] - 1
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
    Over a table of monic monomials the walk runs on packed keys; over
    rational data it runs on the cleared int tables of the module
    docstring, and each output term is divided by L K(z) once.
    """
    if datum._p_keys is not None:
        return ShuffleElem._fresh(_keyed_eval(datum, f.terms))
    tables = _cleared_tables(datum)
    scale = lcm(*(c.denominator for c in f.terms.values()))
    ints = _eval_terms(datum, {w: c.numerator * (scale // c.denominator)
                               for w, c in f.terms.items()}, tables)
    cross, dens, out = tables[0], {}, {}
    for z, c in ints.items():
        key = tuple(sorted(z))  # K(z) depends only on the letters of z
        d = dens.get(key)
        if d is None:
            d = dens[key] = scale * prod(cross[y][x] for j, x in enumerate(z) for y in z[:j])
        out[z] = Fraction(c, d)
    return ShuffleElem._fresh(out)


def _eval_terms(datum: QuantumDatum, terms: dict, tables) -> dict:
    """The int terms of the image of the sum with the given int terms, on
    the cleared ``tables`` (C, A) of a rational datum."""
    cross, tails = tables
    out = {(): terms[()]} if () in terms else {}
    groups: dict = {}
    for w, c in terms.items():
        if w:
            add_terms(groups.setdefault(datum.physical(w[-1]), {}), ((w[:-1], c),))
    for x, prefixes in groups.items():
        if prefixes:
            img = _eval_terms(datum, prefixes, tables)
            add_terms(out, _letter_terms(img, x, tails[x], cross[x]).items())
    return out


def _keyed_eval(datum: QuantumDatum, terms: dict) -> dict:
    """The terms of the image of the sum with the given terms on packed
    keys (module docstring), each coefficient taken into the datum's ring;
    ExponentOutOfRange where the keys could pass EXP_LIMIT."""
    vs, one = datum.varset, datum.one()
    keyed = {}
    bound = longest = 0
    for w, c in terms.items():
        if c.__class__ is not LaurentPoly or c.vs is not vs:
            c = one * c
        if c._bound > bound:
            bound = c._bound
        if len(w) > longest:
            longest = len(w)
        keyed[w] = c.terms
    rows, _, _, step = _tables(datum)
    bound += longest * longest * step
    if bound > EXP_LIMIT:
        raise ExponentOutOfRange(f"a key may reach exponent {bound}, past +-{EXP_LIMIT}")
    out = _keyed_terms(datum.physical, rows, keyed)
    return {z: _laurent(vs, d, bound) for z, d in out.items()}


def _keyed_terms(physical, rows, terms: dict) -> dict:
    """:func:`_eval_terms` on {key: int} coefficients, with rows[x][y] the
    key of p(x, y)^{-1}.  The dicts of ``terms`` are only read, and those
    of the result are fresh but for the empty word's."""
    out = {(): terms[()]} if () in terms else {}
    groups: dict = {}
    for w, d in terms.items():
        if w:
            group, prefix = groups.setdefault(physical(w[-1]), {}), w[:-1]
            cur = group.get(prefix)
            if cur is None:
                group[prefix] = d
            elif cur := _add_keyed(dict(cur), d, 0):
                group[prefix] = cur
            else:
                del group[prefix]
    for x, prefixes in groups.items():
        if prefixes:
            # the letter product, merged into a dict of its own first as
            # shuffle_letter_mul merges it, so words cancel at the same steps
            row, img = rows[x], {}
            for z, d in _keyed_terms(physical, rows, prefixes).items():
                k = 0
                for s in range(len(z), -1, -1):
                    word = z[:s] + (x,) + z[s:]
                    cur = img.get(word)
                    if cur is None:
                        img[word] = {kc + k: a for kc, a in d.items()}
                    elif not _add_keyed(cur, d, k):
                        del img[word]
                    if s:
                        k += row[z[s - 1]]
            if not out:
                out = img
                continue
            for word, d in img.items():
                cur = out.get(word)
                if cur is None:
                    out[word] = d
                elif not _add_keyed(cur, d, 0):
                    del out[word]
    return out


def _add_keyed(d: dict, terms: dict, k: int) -> dict:
    """Adds the {key: int} ``terms``, every key shifted by k, into d in
    place, dropping a key that cancels; returns d."""
    for kc, a in terms.items():
        x = kc + k
        s = d.get(x, 0) + a
        if s:
            d[x] = s
        else:
            del d[x]
    return d


_cleared: "weakref.WeakKeyDictionary[QuantumDatum, tuple]" = weakref.WeakKeyDictionary()


def _cleared_tables(datum: QuantumDatum) -> tuple:
    """(C, A) of a rational datum, indexed by physical letters: with
    p(x, y)^{-1} = a_xy / b_xy in lowest terms, C_xy = b_xy b_yx and
    A_xy = a_xy b_yx.  Built once per datum."""
    tables = _cleared.get(datum)
    if tables is None:
        inv = datum._p_inv
        cross, tails = [None], [None]
        for row, col in zip(inv, zip(*inv)):
            cross.append((None,) + tuple(a.denominator * b.denominator for a, b in zip(row, col)))
            tails.append((None,) + tuple(a.numerator * b.denominator for a, b in zip(row, col)))
        tables = _cleared[datum] = (tuple(cross), tuple(tails))
    return tables


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
