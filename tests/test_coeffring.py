from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qborel.coeffring import (DivisionByZero, LaurentPoly, MissingAssignment,
                              NonDivisible, PolyParseError, VarSet,
                              VarSetMismatch, ZeroAssignment, add_terms,
                              parse_poly)

VS = VarSet(2)  # variables q, t_1_2
Q = LaurentPoly.q(VS)
T = LaurentPoly.t(VS, 1, 2)
ONE = LaurentPoly.one(VS)


def monomials():
    return st.tuples(st.integers(-3, 3), st.integers(-3, 3))


def polys():
    return st.dictionaries(monomials(), st.integers(-5, 5), max_size=4).map(
        lambda d: LaurentPoly(VS, d))


def test_varset_shape():
    assert VS.nvars == 2
    vs4 = VarSet(4)
    assert vs4.nvars == 1 + 4 * 3 // 2
    assert vs4.names[0] == "q"
    assert "t_2_4" in vs4.names
    with pytest.raises(KeyError):
        vs4.t_index(4, 2)


def test_simple_arithmetic():
    assert (Q - 1) + 1 == Q
    assert (Q - 1) * (Q + 1) == Q ** 2 - 1
    assert T * T.inverse() == ONE
    assert Q - Q == LaurentPoly.zero(VS)
    assert not (Q - Q)


def test_varset_mixing_rejected():
    other = LaurentPoly.q(VarSet(3))
    with pytest.raises(VarSetMismatch):
        Q + other


@given(polys(), polys(), polys())
@settings(max_examples=150)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


def test_div_exact_examples():
    # "/" is div_exact, with the same exceptions
    for div in (LaurentPoly.div_exact, lambda a, b: a / b):
        assert div(Q ** 2 - 1, Q - 1) == Q + 1
        assert div(Q * T, T) == Q
        with pytest.raises(NonDivisible):
            div(Q + 1, Q - 1)
        with pytest.raises(DivisionByZero):
            div(Q, LaurentPoly.zero(VS))
        # integer-coefficient divisibility is part of the contract
        with pytest.raises(NonDivisible):
            div(Q + 1, LaurentPoly.integer(VS, 2))
        assert div(2 * Q, 2) == Q
        # the same on the general (multi-term divisor) path
        with pytest.raises(NonDivisible):
            div(Q + 1, 2 * Q + 2)


@given(polys(), polys())
@settings(max_examples=150)
def test_div_exact_roundtrip(a, b):
    if b.is_zero():
        return
    assert (a * b).div_exact(b) == a
    assert (a * b) / b == a


def test_eval_examples():
    assert (Q ** 2 - 1).evaluate({"q": 2}) == 3
    assert (T * Q ** -1).evaluate({"q": 2, "t_1_2": 3}) == Fraction(3, 2)
    assert LaurentPoly.zero(VS).evaluate({}) == 0
    with pytest.raises(MissingAssignment):
        (Q * T).evaluate({"q": 2})
    with pytest.raises(ZeroAssignment):
        Q.evaluate({"q": 0})


@given(polys(), polys(), st.integers(1, 5), st.integers(1, 5))
@settings(max_examples=100)
def test_eval_is_homomorphism(a, b, qv, tv):
    point = {"q": Fraction(qv), "t_1_2": Fraction(tv)}
    assert (a * b).evaluate(point) == a.evaluate(point) * b.evaluate(point)
    assert (a + b).evaluate(point) == a.evaluate(point) + b.evaluate(point)


def test_inverse_and_powers():
    assert Q ** -2 == Q.inverse() * Q.inverse()
    assert (Q * T).inverse() * (Q * T) == ONE
    with pytest.raises(NonDivisible):
        (Q + 1).inverse()
    assert (Q - 1) ** 0 == ONE


def test_pow_squares_only_while_bits_remain(monkeypatch):
    calls = []
    mul = LaurentPoly.__mul__

    def counting_mul(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(LaurentPoly, "__mul__", counting_mul)
    for exp, products in ((1, 1), (2, 2), (5, 4)):
        calls.clear()
        assert Q ** exp == LaurentPoly.q(VS, exp)
        assert len(calls) == products


class _NoRadd:
    """A scalar that cannot be added to the integer 0."""

    def __radd__(self, other):
        raise TypeError("0 + c must not be computed")


def test_add_terms_merges_in_place():
    c = _NoRadd()
    out = {}
    assert add_terms(out, [("a", c)]) is out
    assert out["a"] is c
    merged = add_terms({"a": 1, "b": 2}, [("a", -1), ("c", 3), ("b", 1), ("c", -3)])
    assert merged == {"b": 3}


def test_canonical_string():
    poly = (Q ** 2 - 1) * T ** -1 + Q
    assert str(poly) == "(q^2-1)*t_1_2^-1 + q"
    assert str(LaurentPoly.zero(VS)) == "0"
    assert str(ONE) == "1"
    assert str(-T) == "-t_1_2"
    assert str(Q ** -1 + 1) == "1+q^-1"
    assert str((Q ** 2 - 1) * T) == "(q^2-1)*t_1_2"


@given(polys())
@settings(max_examples=200)
def test_string_roundtrip(a):
    assert parse_poly(str(a), VS) == a


def test_parse_errors():
    with pytest.raises(PolyParseError) as err:
        parse_poly("q +", VS)
    assert err.value.offset == 3
    with pytest.raises(PolyParseError):
        parse_poly("t_9_9", VS)
    with pytest.raises(PolyParseError):
        parse_poly("(q-1)^-1", VS)


def test_hash_consistency():
    seen = {Q - 1: "a"}
    assert seen[ONE * Q - 1] == "a"


def test_constant_hashes_as_its_integer():
    assert len({LaurentPoly.one(VS), 1}) == 1
    assert hash(LaurentPoly.integer(VS, -7)) == hash(-7)
    assert hash(LaurentPoly.zero(VS)) == hash(0)
