import os
import subprocess
import sys
import textwrap
from unittest import mock
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qborel
from qborel.coeffring import LaurentPoly, MissingAssignment, ZeroAssignment
from qborel.datum import (IndexOutOfRange, InvalidRank,
                          NumericAssignmentHitsExcludedRoot, make_datum, mu,
                          sigma, sigma_closed_form)

C2 = make_datum("C", 2)
C3 = make_datum("C", 3)
D4 = make_datum("D", 4)


def q(datum, e=1):
    return datum.q_power(e)


def t(datum, i, j, e=1):
    return LaurentPoly.t(datum.varset, i, j, e)


def test_make_datum_c2_table():
    assert C2.p_phys(1, 1) == q(C2)
    assert C2.p_phys(2, 2) == q(C2, 2)
    assert C2.p_phys(1, 2) == t(C2, 1, 2)
    assert C2.p_phys(2, 1) == q(C2, -2) * t(C2, 1, 2, -1)
    assert C2.p_phys(1, 2) * C2.p_phys(2, 1) == q(C2, -2)


def test_make_datum_d4_relations():
    assert D4.p_phys(3, 4) * D4.p_phys(4, 3) == D4.one()
    assert D4.p_phys(2, 4) * D4.p_phys(4, 2) == q(D4, -1)
    assert all(D4.p_phys(i, i) == q(D4) for i in range(1, 5))


def test_make_datum_a3_one_parameter():
    a3 = make_datum("A", 3, "one-parameter")
    assert a3.p_phys(1, 2) == q(a3, -1)
    assert a3.p_phys(2, 1) == a3.one()
    assert all(a3.p_phys(i, i) == q(a3) for i in range(1, 4))


@pytest.mark.parametrize("series,n,mode", [
    ("A", 4, "multiparameter"), ("C", 3, "one-parameter"),
    ("C", 4, "multiparameter"), ("D", 3, "multiparameter"),
    ("D", 5, "numeric"),
])
def test_km1_constraints(series, n, mode):
    d = make_datum(series, n, mode)
    # every scalar of the datum has the type of q
    scalar = Fraction if mode == "numeric" else LaurentPoly
    # the numeric point has q = 5
    want_q = Fraction(1, 25) if mode == "numeric" else LaurentPoly.q(d.varset, -2)
    for got, want in ((d.one(), 1), (d.zero(), 0), (d.integer(-3), -3),
                      (d.q_power(-2), want_q)):
        assert type(got) is scalar and got == want
    for i in range(1, n + 1):
        assert d.p_phys(i, i) == d.q ** d.d[i - 1]
        for j in range(1, n + 1):
            if i != j:
                want = d.q ** (d.d[i - 1] * d.cartan[i - 1][j - 1])
                assert d.p_phys(i, j) * d.p_phys(j, i) == want


def test_rank_and_mode_errors():
    with pytest.raises(InvalidRank):
        make_datum("C", 1)
    with pytest.raises(InvalidRank):
        make_datum("D", 2)
    with pytest.raises(NumericAssignmentHitsExcludedRoot):
        make_datum("C", 2, "numeric", assignment={"q": 1, "t_1_2": 7})
    with pytest.raises(NumericAssignmentHitsExcludedRoot):
        make_datum("C", 2, "numeric", assignment={"q": -1, "t_1_2": 7})


def test_numeric_datum_at_a_given_point():
    # C_3: a_12 = -1, a_23 = -2, d = (1, 1, 2); the unused key is ignored
    point = {"q": 3, "t_1_2": 7, "t_1_3": Fraction(2, 5), "t_2_3": -4, "s": 0}
    d = make_datum("C", 3, "numeric", assignment=point)
    assert d.q == 3 and type(d.q) is Fraction
    assert d.p_phys(3, 3) == 9
    assert d.p_phys(1, 3) == Fraction(2, 5) and d.p_phys(3, 1) == Fraction(5, 2)
    assert d.p_phys(2, 1) == Fraction(1, 21)           # q^-1 / t_1_2
    assert d.p_phys(3, 2) == Fraction(-1, 36)          # q^-2 / t_2_3
    # a missing name first, then an excluded q, then a zero t_ij
    with pytest.raises(MissingAssignment):
        make_datum("C", 2, "numeric", assignment={"q": 1, "t_1_3": 0})
    with pytest.raises(NumericAssignmentHitsExcludedRoot):
        make_datum("C", 2, "numeric", assignment={"q": 1, "t_1_2": 0})
    with pytest.raises(ZeroAssignment):
        make_datum("C", 2, "numeric", assignment={"q": 2, "t_1_2": 0})


def _evaluates_to(numeric, laurent, point):
    """The numeric datum's q and table are the Laurent ones evaluated at point."""
    assert type(numeric.q) is Fraction and numeric.q == laurent.q.evaluate(point)
    for row, laurent_row in zip(numeric.p, laurent.p):
        for x, entry in zip(row, laurent_row):
            assert type(x) is Fraction and x == entry.evaluate(point)


@pytest.mark.parametrize("series,n", [("A", n) for n in range(2, 6)]
                         + [("C", n) for n in range(2, 7)]
                         + [("D", n) for n in range(3, 7)])
def test_numeric_table_is_the_evaluated_laurent_table(series, n):
    # make_datum builds a numeric table from its point; evaluating the
    # Laurent table at that point is the reference
    multi = make_datum(series, n)
    for seed in range(3):
        d = make_datum(series, n, "numeric", seed=seed)
        _evaluates_to(d, multi, d.assignment)
    one = make_datum(series, n, "one-parameter")
    point = {"q": 5}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            point[f"t_{i}_{j}"] = Fraction(5) ** (one.d[i - 1] * one.cartan[i - 1][j - 1])
    _evaluates_to(make_datum(series, n, "numeric", assignment=point), one, {"q": 5})


def test_numeric_table_at_a_given_point_is_the_evaluated_laurent_table():
    point = {"q": 3, "t_1_2": 7, "t_1_3": Fraction(2, 5), "t_2_3": -4}
    _evaluates_to(make_datum("C", 3, "numeric", assignment=dict(point, s=0)), C3, point)


def test_numeric_datum_evaluates_no_laurent_polynomial(monkeypatch):
    def refuse(self, assignment):
        raise AssertionError("LaurentPoly.evaluate called")

    monkeypatch.setattr(LaurentPoly, "evaluate", refuse)
    for series in ("C", "D"):
        make_datum(series, 4, "numeric")._verify_relations()


def test_letters_and_folding():
    assert C3.physical(5) == 1
    assert C3.phi(1) == 5
    assert C3.p_words((5,), (2,)) == t(C3, 1, 2)
    assert C2.p_words((2,), (2,)) == q(C2, 2)
    assert D4.p_words((3,), (4,)) * D4.p_words((4,), (3,)) == D4.one()
    with pytest.raises(IndexOutOfRange):
        C3.physical(6)
    with pytest.raises(IndexOutOfRange):
        make_datum("A", 3).check_letter(4)


@pytest.mark.parametrize("series,n", [("A", 3), ("C", 3), ("D", 4)])
def test_physical_and_multidegree_follow_the_fold(series, n):
    d = make_datum(series, n)
    top = n if series == "A" else 2 * n - 1
    assert d.max_letter == top
    counts = [0] * n
    for i in range(1, top + 1):
        folded = i if i <= n else 2 * n - i
        assert d.physical(i) == folded
        assert d.multidegree((i,)) == tuple(int(j == folded) for j in range(1, n + 1))
        counts[folded - 1] += 1
    assert d.multidegree(tuple(range(top, 0, -1))) == tuple(counts)
    assert d.multidegree(()) == (0,) * n
    for bad in (0, -1, top + 1):
        message = f"letter x_{bad} outside 1..{top} for {series}_{n}"
        for probe in (lambda: d.physical(bad), lambda: d.multidegree((1, bad))):
            with pytest.raises(IndexOutOfRange) as exc:
                probe()
            assert str(exc.value) == message


def test_p_words_examples():
    assert C2.p_words((), (1, 2)) == C2.one()
    assert C2.p_words((1, 2), (2,)) == t(C2, 1, 2) * q(C2, 2)
    assert C2.p_words((1,), (2,)) * C2.p_words((2,), (1,)) == q(C2, -2)


@given(st.lists(st.integers(1, 5), max_size=4),
       st.lists(st.integers(1, 5), max_size=4),
       st.lists(st.integers(1, 5), max_size=4))
@settings(max_examples=60)
def test_p_words_bimultiplicative(u, w, v):
    u, w, v = tuple(u), tuple(w), tuple(v)
    assert C3.p_words(u + w, v) == C3.p_words(u, v) * C3.p_words(w, v)
    assert C3.p_words(v, u + w) == C3.p_words(v, u) * C3.p_words(v, w)


P_WORDS_DATA = {"C3": C3, "D4": D4}


@pytest.mark.parametrize("name", sorted(P_WORDS_DATA))
@given(data=st.data())
@settings(max_examples=40)
def test_p_words_depends_only_on_multidegrees(name, data):
    # brackets read p off one word of each operand, so any two words of the
    # same multidegrees must give the same p: reorder the letters of each
    # word, and swap letters x_i and x_{2n-i}, which fold to one generator
    d = P_WORDS_DATA[name]
    word = st.lists(st.integers(1, d.max_letter), max_size=4)
    u, v = data.draw(word), data.draw(word)

    def edit(w):
        w = data.draw(st.permutations(w))
        return tuple(d.phi(i) if data.draw(st.booleans()) else i
                     for i in w)

    assert d.p_words(edit(u), edit(v)) == d.p_words(tuple(u), tuple(v))


KEY_PATH_DATA = {f"{series}{n}-{mode}": make_datum(series, n, mode)
                 for series, n in (("C", 3), ("D", 4))
                 for mode in ("multiparameter", "one-parameter")}


@pytest.mark.parametrize("name", sorted(KEY_PATH_DATA))
@given(data=st.data())
@settings(max_examples=40)
def test_p_words_key_sum_is_the_product_loop(name, data):
    d = KEY_PATH_DATA[name]
    word = st.lists(st.integers(1, d.max_letter), max_size=6).map(tuple)
    u, v = data.draw(word), data.draw(word)
    want = d.one()
    for a in u:
        for b in v:
            want = want * d.p_phys(d.physical(a), d.physical(b))
    # the key path sums packed keys; it multiplies no polynomials
    with mock.patch.object(LaurentPoly, "__mul__", side_effect=AssertionError):
        got = d.p_words(u, v)
    assert got == want


RATIONAL_PATH_DATA = {f"{series}{n}-numeric": make_datum(series, n, "numeric")
                      for series, n in (("C", 3), ("D", 4))}


@pytest.mark.parametrize("name", sorted(RATIONAL_PATH_DATA))
@given(data=st.data())
@settings(max_examples=40)
def test_p_words_int_product_is_the_product_loop(name, data):
    d = RATIONAL_PATH_DATA[name]
    word = st.lists(st.integers(1, d.max_letter), max_size=6).map(tuple)
    u, v = data.draw(word), data.draw(word)
    want = d.one()
    for a in u:
        for b in v:
            want = want * d.p_phys(d.physical(a), d.physical(b))
    # the rational path multiplies numerators and denominators as ints
    with mock.patch.object(Fraction, "__mul__", side_effect=AssertionError):
        got = d.p_words(u, v)
    assert type(got) is Fraction and got == want


@pytest.mark.parametrize("mode", ["multiparameter", "numeric"])
def test_q_power_is_memoised_per_datum(mode):
    d = make_datum("C", 2, mode)
    for e in range(-3, 4):
        assert d.q_power(e) == d.q ** e
        assert d.q_power(e) is d.q_power(e)


def test_p_words_key_path_only_for_monic_monomial_tables():
    assert all(d._p_keys is not None for d in KEY_PATH_DATA.values())
    numeric = make_datum("C", 3, "numeric")
    assert numeric._p_keys is None


@pytest.mark.parametrize("d", [C3, D4, make_datum("C", 3, "numeric")],
                         ids=["C3", "D4", "C3-numeric"])
def test_p_words_refuses_letters_out_of_range(d):
    for bad in (0, -1, d.max_letter + 1):
        for u, v in (((bad,), (1,)), ((1,), (bad,)), ((1, bad), ()), ((), (2, bad))):
            with pytest.raises(IndexOutOfRange):
                d.p_words(u, v)


def test_sigma_examples():
    assert sigma(C3, 1, 5) == q(C3, 2)
    assert sigma(C3, 2, 3) == q(C3)
    assert sigma(C3, 3, 3) == q(C3, 2)
    with pytest.raises(IndexOutOfRange):
        sigma(C3, 0, 2)


@pytest.mark.parametrize("series,n", [("C", 2), ("C", 3), ("D", 3), ("D", 4)])
def test_sigma_closed_form_sweep(series, n):
    d = make_datum(series, n)
    for k in range(1, 2 * n):
        for m in range(k, 2 * n):
            if series == "D" and k == m == n:
                # documented exception: definitional value is q, closed form q^2
                assert sigma(d, k, m) == q(d)
                assert sigma_closed_form(d, k, m) == q(d, 2)
                continue
            assert sigma(d, k, m) == sigma_closed_form(d, k, m)


def test_mu_examples():
    assert mu(C2, 1, 2, 1) == q(C2, -2)
    # sigma ratio: sigma_1^3 (sigma_1^2 sigma_3^3)^{-1} = q (q * q^2)^{-1}
    assert mu(C3, 1, 3, 2) == q(C3, -2)
    with pytest.raises(IndexOutOfRange):
        mu(C3, 1, 3, 3)


def test_mu_sigma_identity_c():
    # holds for every k <= i < m: the v-words always concatenate
    d = C3
    for k in range(1, 6):
        for m in range(k + 1, 6):
            for i in range(k, m):
                lhs = mu(d, k, m, i) * sigma(d, k, i) * sigma(d, i + 1, m)
                assert lhs == sigma(d, k, m), (k, m, i)


def test_mu_sigma_identity_d():
    # series D needs the e(k,m) word to contain x_n x_{n+1}, i.e. k < n < m;
    # outside that range e(k,i) e(i+1,m) need not recombine to e(k,m)
    d = D4
    n = 4
    for k in range(1, n):
        for m in range(n + 1, 2 * n):
            for i in range(k, m):
                lhs = mu(d, k, m, i) * sigma(d, k, i) * sigma(d, i + 1, m)
                assert lhs == sigma(d, k, m), (k, m, i)
    # witness that the hypothesis is needed: (k,m,i) = (n-1, n, n-1)
    bad = mu(d, n - 1, n, n - 1) * sigma(d, n - 1, n - 1) * sigma(d, n, n)
    assert bad != sigma(d, n - 1, n)


@pytest.mark.parametrize("series,n", [("C", 3), ("C", 4), ("D", 4)])
def test_fold_step_pairing(series, n):
    # p(w(k,m), x_{m+1}) p(x_{m+1}, w(k,m)) depends only on k vs phi(m):
    # 1 at k = phi(m)-1, q^-2 at k = phi(m), q^-1 otherwise.
    # Range: k <= n-1 and n <= m (with m+1 still a letter).
    d = make_datum(series, n)
    for m in range(n, 2 * n - 1):
        for k in range(1, n):
            w = d.series_word(k, m)
            got = d.p_words(w, (m + 1,)) * d.p_words((m + 1,), w)
            if k == d.phi(m) - 1:
                want = d.one()
            elif k == d.phi(m):
                want = q(d, -2)
            else:
                want = q(d, -1)
            assert got == want, (k, m)


def test_word_e_shapes():
    assert D4.word_e(1, 5) == (1, 2, 4, 5)
    assert [D4.physical(i) for i in D4.word_e(1, 5)] == [1, 2, 4, 3]
    assert D4.word_e_prime(1, 5) == (1, 2, 3, 4)
    assert D4.word_e(4, 6) == (4, 6)
    assert [D4.physical(i) for i in D4.word_e(4, 6)] == [4, 2]
    assert D4.word_e(3, 4) == D4.word_e(4, 4) == D4.word_e(4, 5) == (4,)
    assert D4.word_e(2, 4) == (2, 4)
    # no x_n x_{n+1} subword means e' = e
    assert D4.word_e_prime(1, 4) == D4.word_e(1, 4)


def test_word_v_shapes():
    assert C3.word_v(2, 4) == (2, 3, 4)
    assert [C3.physical(i) for i in C3.word_v(2, 4)] == [2, 3, 2]
    with pytest.raises(IndexOutOfRange):
        C3.word_v(2, 6)


def test_relation_checks_survive_python_O():
    # decouple nodes n-2 and n of D_4 in both the Cartan matrix and p, so
    # that only the series-D check p_{n-2,n} p_{n,n-2} = q^-1 can object
    code = textwrap.dedent("""
        from qborel.datum import QuantumDatum, make_datum
        d = make_datum("D", 4, "numeric")
        n = d.n
        cartan = [list(row) for row in d.cartan]
        cartan[n - 3][n - 1] = cartan[n - 1][n - 3] = 0
        p = [list(row) for row in d.p]
        p[n - 1][n - 3] = 1 / p[n - 3][n - 1]
        try:
            QuantumDatum(d.series, n, d.mode, tuple(map(tuple, cartan)), d.d,
                         d.varset, d.assignment, tuple(map(tuple, p)), d.q)
        except AssertionError as exc:
            print("rejected:", exc)
        else:
            print("accepted")
    """)
    src = os.path.dirname(os.path.dirname(qborel.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "rejected: D_4: p_24 p_42 != q^-1"
