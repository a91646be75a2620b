"""Structure constants and closed-form shuffle images of PBW generators.

For series A and C every bracketed word v[k,m] evaluates to a scalar
multiple of the single descending comonomial,

    v[k,m] = alpha_k^m (v(m,k)),
    alpha_k^m = eps_k^m (q-1)^{m-k} prod_{k <= i < j <= m} p_ij,

with the exceptional factor eps equal to 1+q when the interval crosses the
fold (m != phi(k)) and 1+q^{-1} exactly at m = phi(k) != n.  For series D
the image is the matching one- or two-comonomial combination

    e[k,m] = alpha_k^m { (e(m,k)) + p_{n-1,n} (e'(m,k)) },

where the product in alpha runs over the pairs of extended letters that
actually occur in e(k,m), the (q-1) exponent is length-1, and the
exceptional factor is q^{-1} at m = phi(k).  The degenerate series-D pair
(n, n) has e[n,n] = [[x_n, x_n]] = 0, so its alpha and closed form are the
zero element.
"""

from __future__ import annotations

import weakref
from functools import cmp_to_key
from typing import NamedTuple

from .datum import QuantumDatum
from .freeword import bracketed_word, word_greater
from .shuffle import ShuffleElem, shuffle_bracket


def epsilon(datum: QuantumDatum, k: int, m: int):
    """The exceptional scalar factor of alpha."""
    datum._check_interval(k, m)
    n = datum.n
    if datum.series == "A":
        return datum.one()
    if datum.series == "C":
        if m == datum.phi(k):
            if m != n:
                return datum.one() + datum.q_power(-1)
            return datum.one()
        if k <= n <= m:
            return datum.one() + datum.q_power(1)
        return datum.one()
    # series D
    if datum.has_nn1(k, m) and m == datum.phi(k):
        return datum.q_power(-1)
    return datum.one()


def alpha(datum: QuantumDatum, k: int, m: int):
    """Scalar relating the bracketed word to its descending comonomial(s).

    Uniformly eps * (q-1)^{len-1} * prod of p over the ordered pairs of
    extended letters of the underlying word, folded through the table.
    Zero for the degenerate series-D pair (n, n).
    """
    datum._check_interval(k, m)
    if datum.series == "D" and k == m == datum.n:
        return datum.zero()
    letters = datum.series_word(k, m)
    out = epsilon(datum, k, m) * (datum.q_power(1) - datum.one()) ** (len(letters) - 1)
    for b in range(1, len(letters)):
        out = out * datum.p_words(letters[:b], letters[b:b + 1])
    return out


def tau_table(datum: QuantumDatum, k: int, m: int) -> dict:
    """Coproduct coefficients tau_i, i = k..m-1, in closed form.

    Series A: all 1.  Series C: 1 except tau_{n-1} = 1+q^{-1} when m = n
    and tau_n = 1+q^{-1} when k = n.  Series D: 1 except tau_{n-1} = 0
    when m = n, tau_n = 0 when k = n, and tau_{n-1} = p_{n,n-1} otherwise.
    """
    datum._check_interval(k, m)
    n = datum.n
    one = datum.one()
    taus = {i: one for i in range(k, m)}
    if datum.series == "C":
        if m == n and n - 1 in taus:
            taus[n - 1] = one + datum.q_power(-1)
        if k == n and n in taus:
            taus[n] = one + datum.q_power(-1)
    elif datum.series == "D":
        if n - 1 in taus:
            taus[n - 1] = datum.zero() if m == n else datum.p_phys(n, n - 1)
        if k == n and n in taus:
            taus[n] = datum.zero()
    return taus


def closed_form_image(datum: QuantumDatum, k: int, m: int) -> ShuffleElem:
    """alpha times the descending comonomial(s) of the interval."""
    datum._check_interval(k, m)
    a = alpha(datum, k, m)
    if datum.series == "D":
        if k == m == datum.n:
            return ShuffleElem.zero()
        rev = tuple(reversed(datum.word_e(k, m)))
        img = ShuffleElem.comonomial(datum, rev, a)
        if datum.has_nn1(k, m):
            rev_prime = tuple(reversed(datum.word_e_prime(k, m)))
            img = img + ShuffleElem.comonomial(
                datum, rev_prime, a * datum.p_phys(datum.n - 1, datum.n))
        return img
    rev = tuple(reversed(datum.word_v(k, m)))
    return ShuffleElem.comonomial(datum, rev, a)


_image_cache: "weakref.WeakKeyDictionary[QuantumDatum, dict]" = \
    weakref.WeakKeyDictionary()
_chain_cache: "weakref.WeakKeyDictionary[QuantumDatum, dict]" = \
    weakref.WeakKeyDictionary()


def generator_image(datum: QuantumDatum, k: int, m: int) -> ShuffleElem:
    """Shuffle image of pbw_bracketing(k, m), computed bracket by bracket.

    The bracketed word is built from shuffle letters with shuffle_bracket,
    [E, x] -> E * (x) - p(E, x) (x) * E, so no free-algebra element is
    expanded.  Agrees with eval_free(pbw_bracketing(k, m)) exactly (tested).
    Images are memoized per datum (values are immutable, so sharing is
    safe), and so are the nested chains under them (:func:`_shuffle_chain`),
    so a new image costs one bracket when its shorter chain is known.
    """
    cache = _image_cache.setdefault(datum, {})
    if (k, m) not in cache:
        cache[(k, m)] = bracketed_word(datum, k, m, shuffle_bracket,
                                       _shuffle_chain)
    return cache[(k, m)]


def _shuffle_chain(datum: QuantumDatum, word, right: bool) -> ShuffleElem:
    """The left-nested (right-nested if ``right``) chain of the shuffle
    letters of ``word``, memoized per datum by its physical letters.

    A left chain [[.[y_1, y_2].], y_l] grows from its longest known prefix
    with [chain, y]; a right chain [y_1, [.[y_{l-1}, y_l].]] grows from its
    longest known suffix with [y, chain], so it is keyed by its letters
    reversed.  The key is the letters, not the interval, since in series D
    the prefix of a chain need not be an interval's word.  The loop keeps
    the stack depth independent of the rank.
    """
    chains = _chain_cache.setdefault(datum, {})
    key = tuple(datum.physical(i) for i in word)
    if right:
        key = key[::-1]
    known = len(key)
    while known > 1 and (right, key[:known]) not in chains:
        known -= 1
    out = chains[(right, key[:known])] if known > 1 else ShuffleElem.letter(datum, key[0])
    for j in range(known, len(key)):
        x = ShuffleElem.letter(datum, key[j])
        out = shuffle_bracket(datum, x, out) if right else shuffle_bracket(datum, out, x)
        chains[(right, key[:j + 1])] = out
    return out


class PBWGenerator(NamedTuple):
    """One PBW generator: its interval and underlying word."""

    k: int
    m: int
    word: tuple

    @property
    def degree(self) -> int:
        return len(self.word)

    @property
    def label(self) -> str:
        return f"[{self.k},{self.m}]"


def is_pbw_interval(datum: QuantumDatum, k: int, m: int) -> bool:
    """True when (k, m) is an interval of the PBW family: 1 <= k <= m and
    m <= n (series A), k <= n and m <= phi(k) (series C), or k < n and
    m < phi(k) (series D)."""
    if not 1 <= k <= m:
        return False
    if datum.series == "A":
        return m <= datum.n
    if datum.series == "C":
        return k <= datum.n and m <= datum.phi(k)
    return k < datum.n and m < datum.phi(k)


def pbw_intervals(datum: QuantumDatum) -> list:
    """The (k, m) intervals of the PBW family, in no particular order."""
    top = datum.max_letter
    return [(k, m) for k in range(1, top + 1) for m in range(k, top + 1)
            if is_pbw_interval(datum, k, m)]


def pbw_generators(datum: QuantumDatum) -> list:
    """The ordered PBW family, ascending in the word order.

    Series C takes all v[k,m] with k <= m <= phi(k); series D all e[k,m]
    with k <= m < phi(k); series A all v[k,m] with k <= m <= n.  Their
    count equals the number of positive roots.
    """
    gens = []
    for k, m in pbw_intervals(datum):
        gens.append(PBWGenerator(k, m, datum.series_word(k, m)))

    def cmp(a: PBWGenerator, b: PBWGenerator) -> int:
        wa = tuple(datum.physical(i) for i in a.word)
        wb = tuple(datum.physical(i) for i in b.word)
        if wa == wb:
            return 0
        return 1 if word_greater(wa, wb) else -1

    return sorted(gens, key=cmp_to_key(cmp))

