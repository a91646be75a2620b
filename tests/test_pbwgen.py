import random
import sys
from functools import reduce

import pytest

import qborel.pbwgen
from qborel.coeffring import LaurentPoly
from qborel.datum import make_datum, reduce_mod
from qborel.freeword import (FreeElem, bracketed_word, pbw_bracketing,
                             skew_bracket)
from qborel.pbwgen import (alpha, closed_form_image, epsilon, generator_image,
                           pbw_generators, tau_table)
from qborel.shuffle import ShuffleElem, eval_free, shuffle_bracket

C2 = make_datum("C", 2)
C3 = make_datum("C", 3)
D3 = make_datum("D", 3)
D4 = make_datum("D", 4)
A3 = make_datum("A", 3)


def q(d, e=1):
    return d.q_power(e)


def t(d, i, j, e=1):
    return LaurentPoly.t(d.varset, i, j, e)


def test_alpha_examples():
    assert alpha(C2, 1, 2) == (q(C2) + 1) * (q(C2) - 1) * t(C2, 1, 2)
    for d in (C2, C3, D4, A3):
        assert alpha(d, 1, 1) == d.one()
    want = (1 + q(C2, -1)) * (q(C2) - 1) ** 2 * q(C2, -1)
    assert alpha(C2, 1, 3) == want


def test_alpha_is_unit_times_standard_factors():
    # alpha = epsilon * (q-1)^{len-1} * monomial, checked by exact division
    for d in (C3, D4):
        top = d.max_letter
        for k in range(1, top + 1):
            for m in range(k, top + 1):
                if d.series == "D" and k == m == d.n:
                    assert alpha(d, k, m) == d.zero()
                    continue
                a = alpha(d, k, m)
                a = a.div_exact(epsilon(d, k, m))
                length = len(d.series_word(k, m))
                a = a.div_exact((q(d) - 1) ** (length - 1))
                assert a.is_unit(), (d.series, k, m)


def test_tau_table_examples():
    assert tau_table(C3, 2, 3)[2] == 1 + q(C3, -1)
    taus = tau_table(D4, 1, 7)
    assert taus[3] == D4.p_phys(4, 3)
    assert all(taus[i] == D4.one() for i in taus if i != 3)
    taus = tau_table(C2, 1, 3)
    assert taus[1] == taus[2] == C2.one()
    # D exceptions: tau_{n-1} = 0 at m = n, tau_n = 0 at k = n
    assert tau_table(D4, 1, 4)[3].is_zero()
    assert tau_table(D4, 4, 6)[4].is_zero()
    assert all(x == A3.one() for x in tau_table(A3, 1, 3).values())


def test_closed_form_image_examples():
    coeff = (q(C2, 2) - 1) * t(C2, 1, 2)
    assert closed_form_image(C2, 1, 2) == ShuffleElem.comonomial(C2, (2, 1), coeff)
    for d in (C2, D4, A3):
        for k in range(1, d.n + 1):
            if d.series == "D" and k == d.n:
                continue
            assert closed_form_image(d, k, k) == ShuffleElem.letter(d, k)
    # the D pair (n,n) is the documented zero exception
    assert closed_form_image(D4, 4, 4).is_zero()
    # two comonomials when e(k,m) contains x_n x_{n+1}
    img = closed_form_image(D4, 1, 5)
    assert len(img.terms) == 2
    assert set(img.terms) == {(3, 4, 2, 1), (4, 3, 2, 1)}


@pytest.mark.parametrize("d", [
    C2, C3, D3, D4, A3,
    # residues and rationals: the D(n,n) zero comes from q^-1 p_nn = 1 there
    pytest.param(reduce_mod(make_datum("D", 4, "numeric", seed=1), 2147483647),
                 id="D4-mod-p"),
    pytest.param(make_datum("D", 5, "numeric"), id="D5-numeric"),
    pytest.param(reduce_mod(make_datum("C", 3, "numeric"), 2147483629),
                 id="C3-mod-p"),
], ids=lambda d: f"{d.series}{d.n}")
def test_images_match_bracketings(d):
    top = d.max_letter
    for k in range(1, top + 1):
        for m in range(k, top + 1):
            via_eval = eval_free(d, pbw_bracketing(d, k, m))
            assert via_eval == closed_form_image(d, k, m), (k, m)
            assert via_eval == generator_image(d, k, m), (k, m)


def test_alpha_left_extension_multiplicativity():
    # alpha(k, m+1) = alpha(k, m) (q-1) prod_{k<=i<=m, i!=n-1} p_{i,m+1}
    # in the series-D regime k < n < m, m+1 < phi(k)
    d = D4
    n = d.n
    for k in range(1, n):
        for m in range(n + 1, d.phi(k) - 1):
            prod = d.one()
            for i in range(k, m + 1):
                if i == n - 1:
                    continue
                prod = prod * d.p_words((i,), (m + 1,))
            want = alpha(d, k, m) * (q(d) - 1) * prod
            assert alpha(d, k, m + 1) == want, (k, m)


def test_pbw_generator_counts():
    assert len(pbw_generators(C2)) == 4          # positive roots of C_2
    assert len(pbw_generators(D3)) == 6          # positive roots of D_3
    assert len(pbw_generators(C3)) == 9
    assert len(pbw_generators(D4)) == 12
    assert len(pbw_generators(A3)) == 6


def test_pbw_generator_order():
    gens = pbw_generators(C2)
    # ascending: proper beginnings are greater, x_1 beats x_2
    labels = [(g.k, g.m) for g in gens]
    assert labels == [(2, 2), (1, 3), (1, 2), (1, 1)]
    words = [g.word for g in gens]
    assert words == [(2,), (1, 2, 3), (1, 2), (1,)]


def test_pbw_generators_have_elements():
    for g in pbw_generators(D3):
        assert g.word == D3.series_word(g.k, g.m)
        assert g.degree == len(g.word)


def test_epsilon_at_the_fold():
    # m = phi(k) != n in series C: the exceptional factor is 1 + q^-1
    assert epsilon(C2, 1, 3) == 1 + q(C2, -1)


# -- the double bracket's left operand ------------------------------------------

@pytest.mark.parametrize("series,n", [("C", n) for n in range(2, 13)]
                         + [("D", n) for n in range(3, 13)])
def test_fold_word_drops_its_last_letter_to_the_shorter_word(series, n):
    # bracketed_word takes [k, phi(k)-1] as the left chain of the word of
    # [k, phi(k)] without its last letter
    d = make_datum(series, n, "numeric")
    for k in range(1, n):
        assert d.series_word(k, d.phi(k))[:-1] == d.series_word(k, d.phi(k) - 1)


@pytest.mark.parametrize("series,n", [("C", 2), ("C", 3), ("C", 4),
                                      ("D", 3), ("D", 4)])
def test_double_bracket_is_the_bracket_of_the_shorter_word(series, n):
    d = make_datum(series, n)
    for k in range(1, n):
        m = d.phi(k)
        want = skew_bracket(d, pbw_bracketing(d, k, m - 1),
                            FreeElem.letter(d, m), q(d, -1))
        assert pbw_bracketing(d, k, m) == want, (k, m)


# -- the memoised chains of generator_image against a plain fold --------------

def _fold_chain(d, word, right):
    xs = [ShuffleElem.letter(d, i) for i in word]
    if right:
        return reduce(lambda e, x: shuffle_bracket(d, x, e), reversed(xs))
    return reduce(lambda e, x: shuffle_bracket(d, e, x), xs)


def folded_image(d, k, m):
    """generator_image with no memo: every chain is folded letter by letter."""
    return bracketed_word(d, k, m, shuffle_bracket, _fold_chain)


def all_intervals(d):
    return [(k, m) for k in range(1, d.max_letter + 1)
            for m in range(k, d.max_letter + 1)]


MEMO_CASES = [(s, n) for s, ranks in (("A", range(2, 6)), ("C", range(2, 7)),
                                      ("D", range(3, 7))) for n in ranks]


@pytest.mark.parametrize("kind", ["multiparameter", "numeric", "mod-p"])
@pytest.mark.parametrize("series,n", MEMO_CASES, ids=lambda c: str(c))
def test_memoised_chains_match_the_fold(series, n, kind):
    def fresh():
        if kind == "mod-p":
            return reduce_mod(make_datum(series, n, "numeric"), 2147483647)
        return make_datum(series, n, kind)

    d = fresh()
    want = {km: folded_image(d, *km) for km in all_intervals(d)}
    # a fresh datum starts with empty memos; a shuffled order makes chains
    # grow from prefixes and suffixes that other intervals left behind
    d = fresh()
    order = all_intervals(d)
    random.Random(f"{series}{n}{kind}").shuffle(order)
    for km in order:
        assert generator_image(d, *km) == want[km], km


def test_one_bracket_per_image(monkeypatch):
    calls = []

    def counting_bracket(*args):
        calls.append(1)
        return shuffle_bracket(*args)

    monkeypatch.setattr(qborel.pbwgen, "shuffle_bracket", counting_bracket)
    intervals = 0
    for series in ("C", "D"):
        d = make_datum(series, 8, "numeric")
        for k, m in all_intervals(d):
            generator_image(d, k, m)
            intervals += 1
    assert intervals == 240
    # a plain fold costs m - k brackets per interval, 967 in all
    assert len(calls) <= intervals


def _stack_depth():
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


def test_chain_depth_does_not_grow_with_the_rank():
    d = make_datum("C", 40, "numeric")
    want = folded_image(d, 1, 79)
    limit = sys.getrecursionlimit()
    # building the 78-letter chain must not take a frame per letter
    sys.setrecursionlimit(_stack_depth() + 40)
    try:
        got = generator_image(d, 1, 79)
    finally:
        sys.setrecursionlimit(limit)
    assert got == want
