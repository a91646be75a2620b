from fractions import Fraction
from itertools import accumulate, chain, combinations, repeat
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qborel import shuffle, verify
from qborel.cli import run_command
from qborel.coeffring import (EXP_LIMIT, ExponentOutOfRange, LaurentPoly, VarSetMismatch,
                              add_terms)
from qborel.datum import QuantumDatum, make_datum
from qborel.freeword import (FreeElem, NonHomogeneousOperand, pbw_bracketing,
                             skew_bracket)
from qborel.shuffle import (BraidedTensor, ShuffleElem, braided_coproduct,
                            comonomial_degree, eval_free, eval_word,
                            shuffle_bracket, shuffle_letter_mul, shuffle_mul,
                            tensor_project_pair)
from qborel.pbwgen import pbw_generators
from qborel.verify import _RANK_PRIMES, pbw_product_rows

C2 = make_datum("C", 2)
C3 = make_datum("C", 3)
C4 = make_datum("C", 4)
D3 = make_datum("D", 3)
D4 = make_datum("D", 4)

ORACLE_DATA = {
    f"{series}{n}-{mode}": make_datum(series, n, mode)
    for series, n in (("A", 3), ("C", 2), ("C", 3), ("D", 3))
    for mode in ("multiparameter", "numeric")
}


def mono(datum, letters, coeff=None):
    return ShuffleElem.comonomial(datum, letters, coeff)


def test_letter_mul_right():
    got = shuffle_letter_mul(C2, mono(C2, (2,)), 1)
    want = mono(C2, (2, 1)) + mono(C2, (1, 2), C2.p_phys(1, 2) ** -1)
    assert got == want


def test_letter_mul_left():
    got = shuffle_mul(C2, ShuffleElem.letter(C2, 1), mono(C2, (2,)))
    want = mono(C2, (1, 2)) + mono(C2, (2, 1), C2.p_phys(2, 1) ** -1)
    assert got == want


def brute_shuffle_mul(datum, a, b):
    """a * b summed over every choice of the positions of the letters of
    each comonomial of b, a letter y of b placed before a letter x of the
    comonomial of a paying p(y, x)^-1."""
    out = ShuffleElem.zero()
    for u, cu in a.terms.items():
        for v, cv in b.terms.items():
            size = len(u) + len(v)
            for spots in combinations(range(size), len(v)):
                from_u, from_v = iter(u), iter(v)
                word = tuple(next(from_v) if s in spots else next(from_u)
                             for s in range(size))
                c = cu * cv
                for s, y in zip(spots, v):
                    for t in range(s + 1, size):
                        if t not in spots:
                            c = c * datum.p_phys(y, word[t]) ** -1
                out = out + mono(datum, word, c)
    return out


@pytest.mark.parametrize("datum", [C3, D4], ids=["C3", "D4"])
def test_shuffle_mul_is_the_sum_over_positions(datum):
    two = datum.integer(2)
    short = mono(datum, ()) + mono(datum, (2,), two)
    mixed = mono(datum, (1, 2, 1)) + mono(datum, (3, 3), datum.q_power(-1))
    long = mono(datum, (2, 1, 1, 3), two) + mono(datum, (3,))
    cases = [(short, mixed), (mixed, short), (mixed, mixed), (short, long),
             (long, mixed), (mono(datum, ()), long), (long, mono(datum, ()))]
    for a, b in cases:
        got = shuffle_mul(datum, a, b)
        assert got == brute_shuffle_mul(datum, a, b)
        assert all(got.terms.values())
    # the letter product is the product with one letter, folded or not,
    # with its values and its key order
    for a in (short, mixed, long):
        for i in (1, 2 * datum.n - 1):
            x = ShuffleElem.letter(datum, i)
            got = shuffle_letter_mul(datum, a, i)
            assert got == brute_shuffle_mul(datum, a, x)
            assert list(got.terms.items()) == list(shuffle_mul(datum, a, x).terms.items())


def test_letter_mul_empty():
    got = shuffle_letter_mul(C2, ShuffleElem.unit(C2), 2)
    assert got == mono(C2, (2,))


def test_eval_free_examples():
    b = skew_bracket(C2, FreeElem.letter(C2, 1), FreeElem.letter(C2, 2))
    coeff = (C2.q_power(2) - C2.one()) * C2.p_phys(1, 2)
    assert eval_free(C2, b) == mono(C2, (2, 1), coeff)
    # distant letters: the bracket vanishes in the image
    b13 = skew_bracket(C3, FreeElem.letter(C3, 1), FreeElem.letter(C3, 3))
    assert eval_free(C3, b13).is_zero()
    assert eval_free(C3, FreeElem.letter(C3, 1)) == mono(C3, (1,))


def test_folded_letters_share_comonomials():
    # x_5 and x_1 are the same generator at rank 3
    assert eval_word(C3, (5,)) == eval_word(C3, (1,))
    assert mono(C3, (5, 4)) == mono(C3, (1, 2))


def test_braided_coproduct_full():
    got = braided_coproduct(mono(C2, (2, 1)))
    one = C2.one()
    want = BraidedTensor({((2, 1), ()): one, ((), (2, 1)): one,
                          ((2,), (1,)): one})
    assert got == want


def test_braided_coproduct_reduced():
    assert braided_coproduct(mono(C2, (1,)), reduced=True).is_zero()
    got = braided_coproduct(mono(C3, (3, 2, 1)), reduced=True)
    one = C3.one()
    want = BraidedTensor({((3,), (2, 1)): one, ((3, 2), (1,)): one})
    assert got == want


def test_tensor_project_partition():
    t = braided_coproduct(mono(C2, (2, 1)), reduced=True)
    p = tensor_project_pair(t, (0, 1), (1, 0))
    assert p == BraidedTensor({((2,), (1,)): C2.one()})
    assert tensor_project_pair(t, (1, 0), (0, 1)).is_zero()
    # projections over all (left, right) degree pairs reassemble the tensor
    t = braided_coproduct(mono(C3, (3, 2, 1, 2)))
    pairs = {(comonomial_degree(l, 3), comonomial_degree(r, 3))
             for (l, r) in t.terms}
    total = BraidedTensor.zero()
    for ldeg, rdeg in pairs:
        total = total + tensor_project_pair(t, ldeg, rdeg)
    assert total == t


def test_sparse_types_stay_apart():
    terms = {(1, 2): C2.one(), (2,): C2.q_power(1)}
    elems = [cls(terms) for cls in (FreeElem, ShuffleElem, BraidedTensor)]
    for a in elems:
        zero = type(a).zero()
        assert (a - a) == zero and type(a - a) is type(a)
        assert a.scale(0) == zero and type(a.scale(0)) is type(a)
        for b in elems:
            assert (a == b) == (a is b)


def test_public_constructors_drop_zero_scalars():
    # results of ring operations skip the zero filter; caller data never does
    for datum in (C2, make_datum("C", 2, "numeric")):
        zero = datum.zero()
        assert ShuffleElem({(1,): zero}) == ShuffleElem.zero()
        assert ShuffleElem({(1,): zero}).terms == {}
        assert ShuffleElem.comonomial(datum, (1, 2), zero).terms == {}
        assert FreeElem.word((1, 2), zero).terms == {}
        a = ShuffleElem({(1,): zero, (2,): datum.one()})
        assert a.terms == {(2,): datum.one()}
        assert (a - a).terms == {} and type(a - a) is ShuffleElem


@given(st.lists(st.integers(1, 3), min_size=1, max_size=6))
@settings(max_examples=60)
def test_coassociativity(letters):
    z = tuple(letters)
    elem = mono(C3, z)
    # (delta x id) delta vs (id x delta) delta on the comonomial
    lhs = {}
    for (a, b), c in braided_coproduct(elem).terms.items():
        for i in range(len(a) + 1):
            key = (a[:i], a[i:], b)
            lhs[key] = lhs.get(key, C3.zero()) + c
    rhs = {}
    for (a, b), c in braided_coproduct(elem).terms.items():
        for i in range(len(b) + 1):
            key = (a, b[:i], b[i:])
            rhs[key] = rhs.get(key, C3.zero()) + c
    assert {k: v for k, v in lhs.items() if v} == {k: v for k, v in rhs.items() if v}


@given(st.lists(st.integers(1, 5), min_size=1, max_size=5))
@settings(max_examples=60)
def test_left_right_build_consistency(letters):
    # building the word image left-to-right with right letter products
    # equals building it right-to-left with products by a letter on the left
    w = tuple(letters)
    right_built = eval_word(C3, w)
    left_built = ShuffleElem.unit(C3)
    for letter in reversed(w):
        left_built = shuffle_mul(C3, ShuffleElem.letter(C3, letter), left_built)
    assert right_built == left_built


def test_associativity_letter_triples():
    for datum in (C2, D4, C4):
        letters = range(1, datum.max_letter + 1)
        for i in letters:
            for j in letters:
                for k in letters:
                    xi = mono(datum, (i,))
                    ab = shuffle_letter_mul(datum, xi, j)
                    lhs = shuffle_letter_mul(datum, ab, k)
                    bc = shuffle_letter_mul(datum, mono(datum, (j,)), k)
                    rhs = shuffle_mul(datum, xi, bc)
                    assert lhs == rhs, (datum.series, i, j, k)


@given(st.lists(st.integers(1, 5), min_size=1, max_size=5))
@settings(max_examples=40)
def test_multidegree_conservation(letters):
    z = tuple(C3.physical(i) for i in letters)
    total = comonomial_degree(z, 3)
    for (a, b), _ in braided_coproduct(mono(C3, letters)).terms.items():
        da = comonomial_degree(a, 3)
        db = comonomial_degree(b, 3)
        assert tuple(x + y for x, y in zip(da, db)) == total


def test_eval_is_multiplicative():
    # the evaluation map is an algebra homomorphism on concatenations
    u = FreeElem.word((1, 2), C3.one())
    v = FreeElem.word((3,), C3.one())
    lhs = eval_free(C3, u * v)
    rhs = eval_word(C3, (1, 2))
    rhs = shuffle_letter_mul(C3, rhs, 3)
    assert lhs == rhs


def eval_by_words(datum, f):
    """The word-by-word reference: sum of eval_word(w) * c over f."""
    total = ShuffleElem.zero()
    for w, c in f.terms.items():
        total = total + eval_word(datum, w).scale(c)
    return total


def letter_product_walk(datum, terms):
    """The terms of the image of the sum with the given terms, grouped by
    the physical last letter as eval_free groups them, each group's merged
    prefixes taken through the public letter product: the word-order
    reference of the evaluation walks."""
    out = {(): terms[()]} if () in terms else {}
    groups = {}
    for w, c in terms.items():
        if w:
            add_terms(groups.setdefault(datum.physical(w[-1]), {}), ((w[:-1], c),))
    for x, prefixes in groups.items():
        if prefixes:
            img = ShuffleElem._fresh(letter_product_walk(datum, prefixes))
            add_terms(out, shuffle_letter_mul(datum, img, x).terms.items())
    return out


def random_free(datum, data, max_len=5, max_terms=8):
    """A sum of random words, some with a folded twin of opposite sign."""
    top = datum.max_letter
    entries = data.draw(st.lists(
        st.tuples(st.lists(st.integers(1, top), max_size=max_len),
                  st.integers(-3, 3), st.integers(-2, 2), st.booleans()),
        max_size=max_terms))
    f = FreeElem.zero()
    for word, c, e, twin in entries:
        coeff = datum.integer(c) * datum.q_power(e)
        f = f + FreeElem.word(word, coeff)
        if twin:
            # the same word with its letters folded (series A: unchanged) and
            # the opposite sign cancels in the image
            folded = tuple(i if datum.series == "A" else 2 * datum.n - i
                           for i in word)
            f = f - FreeElem.word(folded, coeff)
    return f


def random_homogeneous(datum, data, max_len=4):
    """A sum of rearrangements of one random word, so all share a degree,
    some with a folded twin whose image may cancel the word's."""
    word = data.draw(st.lists(st.integers(1, datum.max_letter), max_size=max_len))
    f = FreeElem.zero()
    for _ in range(data.draw(st.integers(1, 3))):
        c, e = data.draw(st.integers(-3, 3)), data.draw(st.integers(-2, 2))
        w = tuple(data.draw(st.permutations(word)))
        f = f + FreeElem.word(w, datum.integer(c) * datum.q_power(e))
        if datum.series != "A" and data.draw(st.booleans()):
            twin = tuple(2 * datum.n - i for i in w)
            f = f + FreeElem.word(twin, datum.integer(c * data.draw(st.sampled_from((-1, 1, 2))))
                                  * datum.q_power(e))
    return f


@given(st.sampled_from(sorted(ORACLE_DATA)), st.data())
@settings(max_examples=150, deadline=None)
def test_eval_free_matches_word_by_word(name, data):
    datum = ORACLE_DATA[name]
    f = random_free(datum, data)
    assert eval_free(datum, f) == eval_by_words(datum, f)


# rational data, whose images run on cleared int tables; the last one has
# a non-integer q and t_ij, so the tables clear numerators and denominators
RATIONAL_DATA = {
    **{f"{series}{n}": make_datum(series, n, "numeric")
       for series, n in (("C", 3), ("D", 4), ("A", 3))},
    "C3-q3/2": make_datum("C", 3, "numeric", assignment={
        "q": Fraction(3, 2), "t_1_2": Fraction(5, 7), "t_1_3": Fraction(-2, 9),
        "t_2_3": Fraction(11, 4)}),
}


@given(st.sampled_from(sorted(RATIONAL_DATA)), st.data())
@settings(max_examples=150, deadline=None)
def test_rational_eval_free_is_the_fraction_walk(name, data):
    # sums that mix multidegrees, with folded twins, rational coefficients
    # and at times the empty word: the values are those of the word-by-word
    # reference, and the terms come in the order of the letter products
    # over Fractions
    datum = RATIONAL_DATA[name]
    f = random_free(datum, data).scale(Fraction(1, data.draw(st.integers(1, 6))))
    if data.draw(st.booleans()):
        f = f + FreeElem.word((), Fraction(-2, 3))
    got = eval_free(datum, f)
    assert got == eval_by_words(datum, f)
    assert list(got.terms.items()) == list(letter_product_walk(datum, f.terms).items())
    assert all(type(c) is Fraction for c in got.terms.values())


def test_only_rational_data_build_the_cleared_tables(monkeypatch):
    # a symbolic datum has no cleared tables and its evaluation never walks
    # them; a rational one walks the tables its constructor built
    walked = []
    real = shuffle._eval_terms
    monkeypatch.setattr(shuffle, "_eval_terms",
                        lambda datum, terms: walked.append(datum) or real(datum, terms))
    numeric = make_datum("C", 3, "numeric")
    f = skew_bracket(C3, FreeElem.letter(C3, 1), FreeElem.letter(C3, 2))
    for datum in (C3, make_datum("C", 3, "one-parameter")):
        assert datum._cross is None and datum._tails is None
        g = FreeElem({w: datum.integer(2) for w in f.terms})
        assert eval_free(datum, g) == eval_by_words(datum, g)
    assert walked == []
    assert numeric._cross is not None and numeric._tails is not None
    eval_free(numeric, FreeElem.letter(numeric, 1))
    assert walked and set(walked) == {numeric}


@given(st.sampled_from(sorted(ORACLE_DATA)), st.data())
@settings(max_examples=80, deadline=None)
def test_shuffle_mul_is_the_product_of_images(name, data):
    # eval is a homomorphism: eval(w) * eval(w') = eval(w w'), checked
    # against the word-by-word reference on single words and on sums
    datum = ORACLE_DATA[name]
    top = datum.max_letter
    u = tuple(data.draw(st.lists(st.integers(1, top), max_size=5)))
    v = tuple(data.draw(st.lists(st.integers(1, top), max_size=5)))
    assert shuffle_mul(datum, eval_word(datum, u), eval_word(datum, v)) == \
        eval_word(datum, u + v)
    f = random_free(datum, data, max_len=3, max_terms=3)
    g = random_free(datum, data, max_len=3, max_terms=3)
    assert shuffle_mul(datum, eval_by_words(datum, f), eval_by_words(datum, g)) == \
        eval_by_words(datum, f * g)


@given(st.sampled_from(sorted(ORACLE_DATA)), st.data())
@settings(max_examples=100, deadline=None)
def test_shuffle_bracket_is_the_image_of_the_bracket(name, data):
    datum = ORACLE_DATA[name]
    u = random_homogeneous(datum, data)
    v = random_homogeneous(datum, data)
    eu, ev = eval_free(datum, u), eval_free(datum, v)
    assert shuffle_bracket(datum, eu, ev) == eval_free(datum, skew_bracket(datum, u, v))
    assert shuffle_bracket(datum, eu, ev, datum.q_power(-1)) == \
        eval_free(datum, skew_bracket(datum, u, v, datum.q_power(-1)))


def two_product_bracket(datum, a, b, factor):
    """a * b - factor p(a, b) b * a from two full shuffle products."""
    if not a or not b:
        return ShuffleElem.zero()
    p = datum.p_words(next(iter(a.terms)), next(iter(b.terms)))
    if factor is not None:
        p = factor * p
    return shuffle_mul(datum, a, b) - shuffle_mul(datum, b, a).scale(p)


@given(st.sampled_from(sorted(ORACLE_DATA)), st.booleans(), st.data())
@settings(max_examples=200, deadline=None)
def test_one_pass_bracket_is_the_two_product_difference(name, double, data):
    datum = ORACLE_DATA[name]
    factor = datum.q_power(-1) if double else None
    a = eval_free(datum, random_homogeneous(datum, data))
    b = eval_free(datum, random_homogeneous(datum, data))
    got = shuffle_bracket(datum, a, b, factor)
    assert got == two_product_bracket(datum, a, b, factor)
    assert all(got.terms.values())


@given(st.sampled_from(sorted(ORACLE_DATA)), st.data())
@settings(max_examples=100, deadline=None)
def test_bracket_with_factor_zero_is_the_product(name, data):
    # every leaf scalar is 1 - 0 q^E = 1: the energy-tracking walk against
    # the product's energy-free one
    datum = ORACLE_DATA[name]
    a = eval_free(datum, random_homogeneous(datum, data))
    b = eval_free(datum, random_homogeneous(datum, data))
    assert shuffle_bracket(datum, a, b, 0) == shuffle_mul(datum, a, b)


@pytest.mark.parametrize("datum", [C3], ids=["C3"])
@pytest.mark.parametrize("left,right", [
    ((2,), (1, 2, 3)), ((1, 2, 3), (2,)), ((1, 3), (3, 2)),
    ((), (1, 2)), ((1, 2), ()), ((), ()),
], ids=["shorter-left", "longer-left", "equal", "unit-left", "unit-right", "unit-both"])
def test_bracket_is_the_brute_force_difference(datum, left, right):
    # an oracle that shares no code with the walker; the skew bracket with
    # the unit on either side vanishes and must leave no zero term behind
    two = datum.integer(2)
    a = mono(datum, left) + mono(datum, left[::-1], two)
    b = mono(datum, right, datum.q_power(1))
    for factor in (None, datum.q_power(-1)):
        p = datum.p_words(left, right)
        p = p if factor is None else factor * p
        want = brute_shuffle_mul(datum, a, b) - brute_shuffle_mul(datum, b, a).scale(p)
        got = shuffle_bracket(datum, a, b, factor)
        assert got == want
        assert all(got.terms.values())


def test_one_pass_bracket_skips_every_vanishing_energy():
    # [[(x1), (x1 x2)]] over C_3: placing x1 x2 before x1 has energy
    # b(1, 1) + b(1, 2) = 1, and 1 - q^-1 q vanishes, so the word
    # (x1 x2 x1), which no other interleaving builds, is skipped and leaves
    # no zero term (the two terms of (x1 x1 x2) cancel); in
    # [[(x1 x2), (x3)]] the energies 0 and b(2, 3) = -2 leave every scalar
    # 1 - q^-1 q^E nonzero
    for datum in (make_datum("C", 3, "numeric"), C3):
        for left, right, words in (((1,), (1, 2), 0), ((1, 2), (3,), 3)):
            a, b = mono(datum, left), mono(datum, right)
            got = shuffle_bracket(datum, a, b, datum.q_power(-1))
            assert got == two_product_bracket(datum, a, b, datum.q_power(-1))
            assert len(got.terms) == words and all(got.terms.values())


def test_leaf_scalars_are_computed_once_per_datum_and_factor(monkeypatch, refcount_ref):
    # 1 - factor q^E is kept on the datum per factor across brackets, and
    # leaves the datum collectable; only data whose p is not a table of
    # monic monomials walk these scalars, so the datum is numeric
    calls = []
    real = shuffle._LeafScalars.__missing__

    def spy(self, e):
        calls.append((self.factor, e))
        return real(self, e)

    monkeypatch.setattr(shuffle._LeafScalars, "__missing__", spy)
    d = make_datum("C", 3, "numeric")
    alive = refcount_ref(d)
    for factor in (None, d.q_power(-1)):
        a, b = mono(d, (1,)), mono(d, (1, 2))
        first = shuffle_bracket(d, a, b, factor)
        seen = len(calls)
        assert shuffle_bracket(d, a, b, factor) == first
        assert len(calls) == seen
        shuffle_bracket(d, mono(d, (2,)), mono(d, (1, 2)), factor)
    assert calls and len(set(calls)) == len(calls)
    del d, factor
    assert alive() is None


def leaves_reference(base, ins, rows, scalars, c, e):
    """(word, c times weight) for each placement of ins, in order, into
    base; with scalars, times scalars[E] and only where that is nonzero:
    the recursive generator that the loops of ``shuffle._place`` replace.

    A letter y placed before base[s:] weighs rows[y][z] for each letter z
    of base[s:] and adds scalars.energy[y][z] to the energy E, which
    starts at e.
    """
    if not ins:
        if scalars is None:
            yield base, c
        else:
            f = scalars[e]
            if f:
                yield base, c * f
        return
    y, rest = ins[0], ins[1:]
    row = rows[y]
    rbase = base[::-1]
    if scalars is None:
        energies = repeat(e)
    else:
        brow = scalars.energy[y]
        energies = accumulate(map(brow.__getitem__, rbase), initial=e)
    # s runs down from the end of base, one more letter of base[s:] per step
    steps = zip(range(len(base), -1, -1),
                accumulate(map(row.__getitem__, rbase), mul, initial=c), energies)
    for s, cs, es in steps:
        for tail, ct in leaves_reference(base[s:], rest, rows, scalars, cs, es):
            yield base[:s] + (y,) + tail, ct


def interleavings_reference(rows, a, b, scalars):
    """``shuffle._interleavings`` by the reference generator, merged by
    add_terms."""
    cols = None
    out = {}
    for u, cu in a.items():
        for v, cv in b.items():
            if len(v) <= len(u):
                add_terms(out, leaves_reference(u, v, rows, scalars, cu * cv, 0))
            else:
                cols = cols or tuple(zip(*rows))
                add_terms(out, ((z[::-1], c) for z, c in
                                leaves_reference(v[::-1], u[::-1], cols, scalars, cu * cv, 0)))
    return out


WALK_PRIME = _RANK_PRIMES[0]
WALK_NUMERIC = make_datum("C", 3, "numeric")
_walk_residue = verify._residue_map(WALK_NUMERIC, WALK_PRIME)
# (datum, table, coefficient strategy) per scalar kind: the residue table
# and rows of the pbw products mod p, Fractions at the numeric point, and
# LaurentPolys over the multiparameter datum
WALK_KINDS = {
    "int": (WALK_NUMERIC, tuple(tuple(x and _walk_residue(x) for x in row)
                                for row in WALK_NUMERIC._p_inv),
            st.integers(1, WALK_PRIME - 1)),
    "fraction": (WALK_NUMERIC, WALK_NUMERIC._p_inv,
                 st.builds(Fraction, st.sampled_from((-3, -1, 1, 2, 5)), st.integers(1, 7))),
    "laurent": (C3, C3._p_inv,
                st.builds(lambda k, j, extra: C3.integer(k) * C3.q_power(j) + extra,
                          st.sampled_from((-2, 1, 3)), st.integers(-2, 2),
                          st.sampled_from((0, C3.q_power(1),
                                           -LaurentPoly.var(C3.varset, C3.varset.names[-1]))))),
}
# rows of the pbw products mod p, each cut to at most three terms
WALK_PBW_ROWS = [dict(list(row.items())[:3])
                 for row in pbw_product_rows(WALK_NUMERIC, 4, WALK_PRIME)[2] if row]


def walk_scalars(datum, name):
    """None, or the leaf scalars 1 - factor q^E of the named factor: None
    (E = 0 vanishes), q^-1 (E = 1) and q^2 (E = -2)."""
    if name is None:
        return None
    return shuffle._LeafScalars(datum, {"1": None, "q^-1": datum.q_power(-1),
                                        "q^2": datum.q_power(2)}[name])


WALK_SCALARS = (None, "1", "q^-1", "q^2")


def assert_walk_is_the_reference(kind, scalars_name, a, b):
    datum, rows, _ = WALK_KINDS[kind]
    scalars = walk_scalars(datum, scalars_name)
    got = shuffle._interleavings(rows, a, b, scalars)
    ref = interleavings_reference(rows, a, b, walk_scalars(datum, scalars_name))
    assert got == ref
    assert list(got) == list(ref)          # the key order is pinned
    return scalars


@given(st.sampled_from(sorted(WALK_KINDS)), st.sampled_from(WALK_SCALARS), st.data())
@settings(max_examples=150, deadline=None)
def test_interleavings_walk_is_the_reference_generator(kind, scalars_name, data):
    # operands of 1-3 terms over words of length 0-5 on either side, so
    # both branches, inserted words of 0 to 5 letters and repeated letters
    # of C_3's three physical letters all occur; int operands may be rows
    # of the pbw products mod p
    datum, _, coeffs = WALK_KINDS[kind]

    def operand():
        if kind == "int" and data.draw(st.booleans()):
            return data.draw(st.sampled_from(WALK_PBW_ROWS))
        words = st.lists(st.integers(1, datum.max_letter), max_size=5)
        terms = data.draw(st.dictionaries(words.map(tuple), coeffs, min_size=1, max_size=3))
        return {tuple(datum.physical(i) for i in z): c for z, c in terms.items()}

    assert_walk_is_the_reference(kind, scalars_name, operand(), operand())


@pytest.mark.parametrize("scalars_name", WALK_SCALARS)
@pytest.mark.parametrize("kind", sorted(WALK_KINDS))
def test_interleavings_walk_covers_every_placement_shape(kind, scalars_name):
    # inserted words of 0, 1, 2 and 3 letters, with repeated letters, into
    # the left operand (direct) and into the right one (transposed)
    c, d = {"int": (12345, WALK_PRIME - 1), "fraction": (Fraction(-2, 3), Fraction(5)),
            "laurent": (C3.q_power(1) + 2, C3.q_power(-2))}[kind]
    long = {(1, 2, 1, 3): c, (3, 3, 2): d}
    skipped = False
    for short in ((), (2,), (1, 1), (3, 1, 3), (2, 2, 1)):
        for a, b in (({short: c}, long), (long, {short: d}), ({short: d, (2, 3): c}, long)):
            scalars = assert_walk_is_the_reference(kind, scalars_name, a, b)
            skipped = skipped or scalars is not None and not all(scalars.values())
    # every factor meets an energy whose scalar vanishes
    assert skipped == (scalars_name is not None)


# data whose p is a table of monic monomials, whose brackets run on packed
# keys: symbolic C_3, D_4, A_3 and one-parameter C_3
KEYED_DATA = {
    **{f"{series}{n}": make_datum(series, n) for series, n in (("C", 3), ("D", 4), ("A", 3))},
    "C3-one-parameter": make_datum("C", 3, "one-parameter"),
}


def generic_bracket(datum, a, b, factor):
    """The bracket by the generic walk over Laurent scalars."""
    return shuffle._interleavings(datum._p_inv, a.terms, b.terms,
                                  shuffle._LeafScalars(datum, factor))


def random_rearrangements(datum, data, unit):
    """A sum of rearrangements of one word, or the unit, with coefficients
    of one or several terms, some with a t-variable."""
    if unit:
        word = ()
    else:
        word = data.draw(st.lists(st.integers(1, datum.max_letter), min_size=1, max_size=4))
        if data.draw(st.booleans()):
            word.append(word[0])             # a repeated letter
    q, t = datum.q_power(1), LaurentPoly.var(datum.varset, datum.varset.names[-1])
    terms = {}
    for _ in range(data.draw(st.integers(1, 3))):
        z = tuple(datum.physical(i) for i in data.draw(st.permutations(word)))
        c = datum.integer(data.draw(st.sampled_from((-2, -1, 1, 3)))) * \
            datum.q_power(data.draw(st.integers(-2, 2)))
        c = c + data.draw(st.sampled_from((0, 1, q, -t * q)))
        if c:
            terms[z] = c
    return ShuffleElem(terms) if terms else ShuffleElem.comonomial(datum, word)


@given(st.sampled_from(sorted(KEYED_DATA)), st.sampled_from(("none", "q^-1", "0", "q+2")),
       st.sampled_from(((False, False), (True, False), (False, True), (True, True))),
       st.data())
@settings(max_examples=300, deadline=None)
def test_keyed_bracket_is_the_generic_walk(name, factor_name, units, data):
    # multi-term operands with repeated letters and unit operands on either
    # side and on both; 0 and q+2 are not monic monomials and take the
    # generic walk, the other factors the packed keys
    datum = KEYED_DATA[name]
    factor = {"none": None, "q^-1": datum.q_power(-1), "0": 0,
              "q+2": datum.q_power(1) + 2}[factor_name]
    a = random_rearrangements(datum, data, units[0])
    b = random_rearrangements(datum, data, units[1])
    got = shuffle_bracket(datum, a, b, factor)
    assert got.terms == generic_bracket(datum, a, b, factor)
    assert all(got.terms.values())


def test_keyed_bracket_takes_only_monic_factors(monkeypatch):
    keyed = []
    real = shuffle._keyed_bracket
    monkeypatch.setattr(shuffle, "_keyed_bracket",
                        lambda datum, *rest: keyed.append(datum) or real(datum, *rest))
    numeric = make_datum("C", 3, "numeric")
    for datum in (C3, numeric):
        for factor in (None, datum.q_power(-1), datum.q_power(2), 0, 2 * datum.q_power(1),
                       datum.q_power(1) + 1, -datum.one()):
            keyed.clear()
            got = shuffle_bracket(datum, mono(datum, (1, 2)), mono(datum, (2,)), factor)
            monic = datum is C3 and factor in (None, C3.q_power(-1), C3.q_power(2))
            assert keyed == ([datum] if monic else [])
            assert got == two_product_bracket(datum, mono(datum, (1, 2)), mono(datum, (2,)),
                                              factor)


@pytest.mark.parametrize("coeff,left,right", [
    ("q", (1,), (1,)),          # q^L q^-1 (1 - q^2): q^(L+1)
    ("t", (1,), (2,)),          # t^L p(2, 1)^-1 = q t^(L+1)
    ("t-", (2,), (1,)),         # t^-L p(1, 2)^-1 = t^-(L+1)
], ids=["q-slot", "t-slot", "t-slot-negative"])
def test_keyed_bracket_guards_the_exponent_range(coeff, left, right):
    # a coefficient at the edge of the exponent range: the keyed walk must
    # raise as the Laurent walk does, never return a key wrapped into the
    # next slot; one step inside the range the keys unpack to the exponents
    vs = C3.varset
    edge = {"q": LaurentPoly.q(vs, EXP_LIMIT), "t": LaurentPoly.t(vs, 1, 2, EXP_LIMIT),
            "t-": LaurentPoly.t(vs, 1, 2, -EXP_LIMIT)}[coeff]
    a, b = mono(C3, left, edge), mono(C3, right)
    with pytest.raises(ExponentOutOfRange):
        generic_bracket(C3, a, b, None)
    with pytest.raises(ExponentOutOfRange):
        shuffle._keyed_bracket(C3, a.terms, b.terms, 0, 0)
    with pytest.raises(ExponentOutOfRange):
        shuffle_bracket(C3, a, b)
    inside = mono(C3, left, edge * (C3.q_power(-2) if coeff == "q" else
                                    LaurentPoly.t(vs, 1, 2, -1 if coeff == "t" else 1)))
    got = shuffle_bracket(C3, inside, b)
    assert got.terms == generic_bracket(C3, inside, b, None)
    for c in got.terms.values():
        for key in c.terms:
            assert max(map(abs, vs.unpack(key))) <= EXP_LIMIT
            assert vs.pack(vs.unpack(key)) == key


def huge_t12_datum():
    """C_2 with p_12 = t_1_2^(2^28): the keys of a bracket or an evaluation
    over two-by-two letter pairs could pass EXP_LIMIT."""
    t = LaurentPoly.t(C2.varset, 1, 2, 2 ** 28)
    p = ((C2.p[0][0], t), (C2.q_power(-2) / t, C2.p[1][1]))
    return QuantumDatum("C", 2, "multiparameter", C2.cartan, C2.d, C2.varset, None, p, C2.q)


def test_keyed_bracket_refuses_where_keys_could_wrap():
    # with t_12 raised to 2^28 the bound on the keys of a two-by-two bracket
    # passes EXP_LIMIT, so the keyed walk raises before it walks, although
    # the generic walk's exponents stay in range here
    big = huge_t12_datum()
    a, b = mono(big, (1, 2)), mono(big, (2, 1), C2.q_power(1))
    with pytest.raises(ExponentOutOfRange):
        shuffle._keyed_bracket(big, a.terms, b.terms, 0, 0)
    with pytest.raises(ExponentOutOfRange):
        shuffle_bracket(big, a, b)
    assert generic_bracket(big, a, b, None)
    # one-letter operands stay on the keys
    assert shuffle._keyed_bracket(big, a.terms, {(2,): big.one()}, 0, 0) == \
        generic_bracket(big, a, mono(big, (2,)), None)


@given(st.sampled_from(sorted(KEYED_DATA)), st.data())
@settings(max_examples=150, deadline=None)
def test_keyed_eval_free_is_the_laurent_walk(name, data):
    # sums that mix multidegrees, with folded twins, multi-term
    # coefficients, pairs of opposite sign whose last letters are folded
    # twins, so their prefixes cancel before the letter product, and at
    # times the empty word: the values are those of the word-by-word
    # reference, and the terms come in the order of the Laurent walk
    datum = KEYED_DATA[name]
    q, t = datum.q_power(1), LaurentPoly.var(datum.varset, datum.varset.names[-1])
    f = random_free(datum, data, max_len=4, max_terms=6)
    for _ in range(data.draw(st.integers(0, 3))):
        word = tuple(data.draw(st.lists(st.integers(1, datum.max_letter),
                                        min_size=1, max_size=4)))
        c = datum.integer(data.draw(st.sampled_from((-2, 1, 3)))) * \
            datum.q_power(data.draw(st.integers(-2, 2))) + data.draw(st.sampled_from((1, q, -t * q)))
        f = f + FreeElem.word(word, c)
        if datum.series != "A" and data.draw(st.booleans()):
            f = f - FreeElem.word(word[:-1] + (2 * datum.n - word[-1],), c)
    if data.draw(st.booleans()):
        f = f + FreeElem.word((), q - t)
    keyed = shuffle._keyed_eval(datum, f.terms)
    assert list(keyed.items()) == list(letter_product_walk(datum, f.terms).items())
    got = eval_free(datum, f)
    assert got.terms == keyed and all(got.terms.values())
    assert got == eval_by_words(datum, f)


def test_keyed_eval_free_merges_each_letter_product_whole():
    # the Serre relation [[x1, x2], x2] of C_2 without its word x1 x2 x2:
    # part way through the letter product of the group ending in x2, the
    # word (x2 x1 x2) that the group ending in x1 left cancels, and the
    # rest of that product restores it; summed as a whole first, as in the
    # Laurent walk, the product leaves the word in its place
    q, t = C2.q_power(1), LaurentPoly.t(C2.varset, 1, 2)
    f = FreeElem({(2, 2, 1): q ** 2 * t ** 2, (2, 1, 2): -(q ** 2 + C2.one()) * t})
    got = eval_free(C2, f)
    assert list(got.terms) == [(2, 2, 1), (2, 1, 2), (1, 2, 2)]
    assert list(got.terms.items()) == list(letter_product_walk(C2, f.terms).items())


def test_keyed_eval_free_refuses_keys_past_the_exponent_range():
    # with t_12 raised to 2^28 the keys of a two-letter word could pass
    # EXP_LIMIT, so the keyed walk raises before it walks: where the
    # exponents of the image would stay in range, as the letter products
    # show, and where placing x2 before x1, of weight q^2 t_12^(2^28),
    # leaves it
    big = huge_t12_datum()
    f = FreeElem({(1, 2): big.one(), (2, 1, 2): big.q_power(1), (): big.integer(2)})
    assert letter_product_walk(big, f.terms)
    edge = FreeElem({(1, 2): LaurentPoly.t(big.varset, 1, 2, EXP_LIMIT - 2 ** 27)})
    for g in (f, edge):
        with pytest.raises(ExponentOutOfRange):
            shuffle._keyed_eval(big, g.terms)
        with pytest.raises(ExponentOutOfRange):
            eval_free(big, g)
    # one-letter words stay on the keys
    one = FreeElem({(1,): big.p[0][1], (2,): big.q_power(-1)})
    assert shuffle._keyed_eval(big, one.terms) == letter_product_walk(big, one.terms)
    assert eval_free(big, one) == eval_by_words(big, one)


def test_keyed_eval_free_takes_only_laurent_coefficients():
    # an int coefficient is taken into the datum's ring, and a coefficient
    # over another datum's variables is refused, as a Laurent product
    # refuses it
    f = FreeElem({(1, 2): C3.q_power(1), (2, 1): 2})
    got = eval_free(C3, f)
    assert got == eval_by_words(C3, f)
    assert all(c.vs is C3.varset for c in got.terms.values())
    other = make_datum("C", 4)
    f = FreeElem({(1, 2): C3.q_power(1), (2, 1): other.q_power(1)})
    with pytest.raises(VarSetMismatch):
        eval_free(C3, f)


@pytest.mark.parametrize("series,rank", [("C", "4"), ("D", "5")])
def test_symbolic_suites_walk_only_packed_keys(monkeypatch, capsys, series, rank):
    # every evaluation and bracket of a symbolic run walks packed keys: the
    # letter product never runs, and the generic interleavings walk never
    # sees a LaurentPoly; the pbw suite's products over ints still take it
    walks = {"eval": 0, "bracket": 0, "ints": 0}

    def count(name, real):
        def wrapped(*args):
            walks[name] += 1
            return real(*args)
        return wrapped

    def refuse(*args):
        raise AssertionError("shuffle_letter_mul ran on symbolic data")

    real = shuffle._interleavings

    def ints_only(rows, a, b, scalars):
        scalars_seen = chain(chain.from_iterable(rows), a.values(), b.values())
        assert not any(c.__class__ is LaurentPoly for c in scalars_seen)
        walks["ints"] += 1
        return real(rows, a, b, scalars)

    monkeypatch.setattr(shuffle, "shuffle_letter_mul", refuse)
    monkeypatch.setattr(shuffle, "_interleavings", ints_only)
    monkeypatch.setattr(verify, "_interleavings", ints_only)
    monkeypatch.setattr(shuffle, "_keyed_eval", count("eval", shuffle._keyed_eval))
    monkeypatch.setattr(shuffle, "_keyed_bracket", count("bracket", shuffle._keyed_bracket))
    assert run_command(["verify", "--series", series, "--rank", rank, "--suite", "all",
                        "--mode", "symbolic", "--count", "2"]) == 0
    assert "all suites pass" in capsys.readouterr().out
    assert all(walks.values()), walks


def test_key_tables_are_built_once_per_datum(monkeypatch, refcount_ref):
    # every keyed bracket walks the key rows and columns that the datum's
    # constructor built, which hold ints only and leave it collectable
    walked = set()
    real = shuffle._keyed_leaves

    def spy(base, ins, rows, *rest):
        walked.add(id(rows))
        return real(base, ins, rows, *rest)

    monkeypatch.setattr(shuffle, "_keyed_leaves", spy)
    d = make_datum("C", 3)
    alive = refcount_ref(d)
    for factor in (None, d.q_power(-1)):
        shuffle_bracket(d, mono(d, (1,)), mono(d, (1, 2)), factor)
        shuffle_bracket(d, mono(d, (1, 2)), mono(d, (2,)), factor)
    assert walked == {id(d._inv_keys), id(d._inv_cols)}
    assert type(d._step) is int
    assert all(type(x) is int for table in (d._inv_keys, d._inv_cols, d._b)
               for row in table[1:] for x in row[1:])
    del d, factor
    assert alive() is None


def test_shuffle_bracket_needs_homogeneous_operands():
    mixed = mono(C2, (1,)) + mono(C2, (2,))
    with pytest.raises(NonHomogeneousOperand):
        shuffle_bracket(C2, mixed, mono(C2, (1,)))
    assert shuffle_bracket(C2, ShuffleElem.zero(), mono(C2, (1,))).is_zero()


@pytest.mark.parametrize("d", [make_datum("C", 2, "numeric"), make_datum("D", 3, "numeric")],
                         ids=lambda d: f"{d.series}{d.n}")
def test_pbw_rows_match_expansion(d):
    p = _RANK_PRIMES[0]
    gens = pbw_generators(d)
    combos, _, rows = pbw_product_rows(d, 4, p)
    for combo, row in zip(combos, rows):
        elem = FreeElem({(): d.one()})
        for g, e in zip(gens, combo):
            if e:
                elem = elem * pbw_bracketing(d, g.k, g.m) ** e
        want = {z: s for z, c in eval_by_words(d, elem).terms.items()
                if (s := c.numerator * pow(c.denominator, -1, p) % p)}
        assert row == want, combo


def test_text_forms():
    c = C2.p_words((1,), (2,)) + C2.one()
    assert " + " in str(c)                       # a sum is parenthesised
    s = ShuffleElem({(): C2.one(), (1, 2): c})
    assert str(s) == f"1 * (1) + ({c}) * (x1 x2)"
    t = BraidedTensor({((1,), ()): C2.one(), ((), (2, 1)): c})
    assert str(t) == f"({c}) * (1)(x)(x2 x1) + 1 * (x1)(x)(1)"
    assert str(ShuffleElem.zero()) == str(BraidedTensor.zero()) == "0"
    # a q-only sum prints without spaces but is parenthesised all the same;
    # a lone term, a sign after ^ and a rational stay bare
    u = C2.one() + C2.q_power(1)
    assert str(u) == "q+1"
    assert str(ShuffleElem({(1,): u, (2,): C2.q_power(-1)})) == \
        "(q+1) * (x1) + q^-1 * (x2)"
    assert str(ShuffleElem({(1,): -C2.q_power(-2)})) == "-q^-2 * (x1)"
    assert str(ShuffleElem({(1,): Fraction(-3, 4)})) == "-3/4 * (x1)"
