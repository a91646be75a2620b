from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qborel.coeffring import LaurentPoly
from qborel.datum import IndexOutOfRange, make_datum
from qborel.freeword import (FreeElem, NonHomogeneousOperand, multidegree,
                             pbw_bracketing, skew_bracket, word_greater)

C2 = make_datum("C", 2)
C3 = make_datum("C", 3)
D4 = make_datum("D", 4)


def x(datum, i):
    return FreeElem.letter(datum, i)


def t(datum, i, j, e=1):
    return LaurentPoly.t(datum.varset, i, j, e)


def test_distinguished_word_examples():
    assert C3.word_v(2, 4) == (2, 3, 4)
    assert D4.word_e(1, 5) == (1, 2, 4, 5)
    assert D4.word_e_prime(1, 5) == (1, 2, 3, 4)
    assert D4.word_e(4, 6) == (4, 6)
    with pytest.raises(IndexOutOfRange):
        C3.word_v(1, 6)


def test_skew_bracket_examples():
    b = skew_bracket(C2, x(C2, 1), x(C2, 2))
    assert b == FreeElem({(1, 2): C2.one(), (2, 1): -t(C2, 1, 2)})
    u = x(C2, 1)
    assert skew_bracket(C2, u, u) == FreeElem({(1, 1): C2.one() - C2.q_power(1)})
    b13 = skew_bracket(C3, x(C3, 1), x(C3, 3))
    assert b13.terms[(3, 1)] == -t(C3, 1, 3)


def test_qq_bracket_examples():
    assert skew_bracket(D4, x(D4, 4), x(D4, 4), D4.q_power(-1)).is_zero()
    b = skew_bracket(C2, x(C2, 2), x(C2, 2), C2.q_power(-1))
    assert b == FreeElem({(2, 2): C2.one() - C2.q_power(1)})
    b12 = skew_bracket(C2, x(C2, 1), x(C2, 2), C2.q_power(-1))
    assert b12.terms[(2, 1)] == -C2.q_power(-1) * t(C2, 1, 2)


def test_homogeneity_enforced():
    mixed = x(C2, 1) + x(C2, 2)
    with pytest.raises(NonHomogeneousOperand):
        skew_bracket(C2, mixed, x(C2, 1))
    # extended letters folding to the same physical index stay homogeneous
    ok = FreeElem({(1,): C2.one(), (3,): C2.one()})
    assert multidegree(C2, ok) == (1, 0)


def test_pbw_bracketing_shapes():
    assert pbw_bracketing(C2, 1, 1) == x(C2, 1)
    want = skew_bracket(C2, skew_bracket(C2, x(C2, 1), x(C2, 2)), x(C2, 3),
                        C2.q_power(-1))
    assert pbw_bracketing(C2, 1, 3) == want
    assert pbw_bracketing(D4, 4, 4).is_zero()
    assert pbw_bracketing(C2, 2, 2) == x(C2, 2)
    # right-nested above the fold
    want = skew_bracket(C3, x(C3, 4), x(C3, 5))
    assert pbw_bracketing(C3, 4, 5) == want


def test_free_algebra_product():
    a = skew_bracket(C2, x(C2, 1), x(C2, 2))
    unit = FreeElem({(): C2.one()})
    assert unit * a == a
    assert (a * a) ** 1 == a * a
    assert a ** 0 == unit
    assert isinstance((a ** 0).terms[()], LaurentPoly)
    num = make_datum("C", 2, "numeric")
    assert isinstance((x(num, 1) ** 0).terms[()], Fraction)
    with pytest.raises(ValueError):
        FreeElem.zero() ** 0


def words(max_letter, max_len=3):
    return st.lists(st.integers(1, max_letter), min_size=1,
                    max_size=max_len).map(tuple)


@given(words(5), words(5), words(5))
@settings(max_examples=60)
def test_jacobi_identity(wu, wv, ww):
    d = C3
    u, v, w = (FreeElem.word(z, d.one()) for z in (wu, wv, ww))
    p_wv = d.p_deg(d.multidegree(ww), d.multidegree(wv))
    p_vw = d.p_deg(d.multidegree(wv), d.multidegree(ww))
    lhs = skew_bracket(d, skew_bracket(d, u, v), w)
    rhs = (skew_bracket(d, u, skew_bracket(d, v, w))
           + skew_bracket(d, skew_bracket(d, u, w), v).scale(p_wv.inverse())
           + (skew_bracket(d, u, w) * v).scale(p_vw - p_wv.inverse()))
    assert lhs == rhs


@given(words(7), words(7))
@settings(max_examples=60)
def test_antisymmetry_identity(wu, wv):
    d = D4
    u, v = (FreeElem.word(z, d.one()) for z in (wu, wv))
    p_uv = d.p_deg(d.multidegree(wu), d.multidegree(wv))
    p_vu = d.p_deg(d.multidegree(wv), d.multidegree(wu))
    lhs = skew_bracket(d, u, v)
    rhs = (-skew_bracket(d, v, u).scale(p_uv)
           + (u * v).scale(d.one() - p_uv * p_vu))
    assert lhs == rhs


@given(words(5, 2), words(5, 2), words(5, 2))
@settings(max_examples=60)
def test_ad_identities(wu, wv, ww):
    d = C3
    u, v, w = (FreeElem.word(z, d.one()) for z in (wu, wv, ww))
    p_vw = d.p_deg(d.multidegree(wv), d.multidegree(ww))
    p_uv = d.p_deg(d.multidegree(wu), d.multidegree(wv))
    assert skew_bracket(d, u * v, w) == \
        (skew_bracket(d, u, w) * v).scale(p_vw) + u * skew_bracket(d, v, w)
    assert skew_bracket(d, u, v * w) == \
        skew_bracket(d, u, v) * w + (v * skew_bracket(d, u, w)).scale(p_uv)


def test_word_order():
    # x_1 > x_2 > ... and a proper beginning is greater than the word
    assert word_greater((1,), (2,))
    assert word_greater((1,), (1, 2))
    assert word_greater((1, 2), (1, 2, 1))
    assert not word_greater((1, 2), (1, 2))
    assert not word_greater((2, 1), (1, 2))
