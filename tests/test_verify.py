import copy
import json
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fractions import Fraction
from itertools import product

from qborel import cli, verify
from qborel.coeffring import (ExponentOutOfRange, LaurentPoly, NonDivisible, VarSet,
                              add_terms, kronecker_form)
from qborel.datum import QuantumDatum, make_datum
from qborel.pbwgen import generator_image, pbw_generators, tau_table
from qborel.freeword import skew_bracket
from qborel.shuffle import BraidedTensor, ShuffleElem, comonomial_str, shuffle_mul
from qborel.verify import (_RANK_PRIMES, NonProportionalProjection,
                           NonUnitModP, _modp_first_dependent, coproduct_formula,
                           pbw_product_rows,
                           run_suites, serre_relations,
                           verify_an_no_exceptions, verify_arrangements,
                           verify_coproducts, verify_identity_suite,
                           verify_pbw_independence, verify_serre,
                           verify_sigma_closed_form)

C2 = make_datum("C", 2)
C3 = make_datum("C", 3)
D3 = make_datum("D", 3)
D4 = make_datum("D", 4)


def test_serre_relation_list_contains_expected_forms():
    names = [name for name, _ in serre_relations(C3)]
    assert "[[x2,x3],x3]" in names                    # [[x_{n-1},x_n],x_n]
    assert "[x2,[x2,[x2,x3]]]" in names               # right-nested partner
    assert "[x1,x3]" in names
    dnames = [name for name, _ in serre_relations(D4)]
    assert "[x3,x4]" in dnames                        # the extra D relation
    assert "[[x2,x4],x4]" in dnames                   # node n joined to n-2


@pytest.mark.parametrize("d", [C2, C3, D3, D4], ids=lambda d: f"{d.series}{d.n}")
def test_serre_suite(d):
    report = verify_serre(d)
    assert report.passed, report.failures()[0].witness


def test_serre_numeric():
    d5 = make_datum("D", 5, "numeric")
    assert verify_serre(d5).passed


def test_serre_chains_are_built_once_per_datum(refcount_ref):
    # the chains are memoised per datum; serre and the identity suite read
    # the same cases from a cold and a warm memo, and from a fresh datum
    def reports(d):
        return [tuple(c) for r in (verify_serre(d), verify_identity_suite(d, seed=3, count=4))
                for c in r.cases]

    d = make_datum("C", 3)
    chains = verify._serre_chains(d)
    assert isinstance(chains, tuple) and verify._serre_chains(d) is chains
    cold = reports(make_datum("D", 4))
    d4 = make_datum("D", 4)
    verify._serre_chains(d4)
    assert reports(d4) == reports(d4) == cold
    assert all(passed for _, passed, _ in cold)
    d = make_datum("C", 3)
    alive = refcount_ref(d)
    reports(d)
    del d
    assert alive() is None


@pytest.mark.parametrize("d", [C3, D4], ids=lambda d: f"{d.series}{d.n}")
def test_arrangement_suite(d):
    report = verify_arrangements(d)
    assert report.passed, report.failures()[0].witness
    assert any("recurrence" in c.name for c in report.cases)


def test_arrangement_intervals():
    # m != phi(k) = 2n - k; k <= n <= m on series C, k < n < m on series D
    assert verify._arrangement_intervals(C2) == [(1, 2), (2, 3)]
    assert verify._arrangement_intervals(C3) == \
        [(1, 3), (1, 4), (2, 3), (2, 5), (3, 4), (3, 5)]
    assert verify._arrangement_intervals(D4) == \
        [(1, 5), (1, 6), (2, 5), (2, 7), (3, 6), (3, 7)]


def test_arrangement_suite_refuses_series_a():
    with pytest.raises(ValueError, match="series C or D"):
        verify_arrangements(make_datum("A", 3))
    # --suite all on series A still skips the suite
    assert "arrangements" not in {
        r.suite for r in run_suites(make_datum("A", 2), "all", count=1,
                                    max_degree=2)}


def test_coproduct_formula_c2():
    f = coproduct_formula(C2, 1, 3, mode="discover")
    assert f.tau_map() == {1: C2.one(), 2: C2.one()}
    assert len(f.braided.terms) == 2
    f = coproduct_formula(C2, 2, 3, mode="discover")
    assert f.tau_map()[2] == 1 + C2.q_power(-1)      # the k = n exception
    assert not f.in_pbw_set                          # m > phi(k) there


def test_coproduct_formula_d_absent_tensor():
    # m = n: tau_{n-1} = 0 and the i = n-1 tensor is absent
    f = coproduct_formula(D4, 1, 4, mode="discover")
    assert f.tau_map()[3].is_zero()
    for (l, r) in f.braided.terms:
        assert len(r) != 3  # no split leaves the full e(1,3) on the right
    g = coproduct_formula(D4, 1, 4, mode="assert")
    assert g.tau_map() == f.tau_map()


def test_coproduct_unbraided_coefficients():
    f = coproduct_formula(D4, 1, 7, mode="discover")
    qfac = D4.one() - D4.q_power(-1)
    for term in f.terms:
        assert term.unbraided_coefficient == term.tau * qfac
        lword = D4.series_word(term.i + 1, 7)
        rword = D4.series_word(1, term.i)
        assert term.braided_coefficient * D4.p_words(lword, rword) == \
            term.unbraided_coefficient
        assert term.grouplike == D4.multidegree(rword)


def test_coproduct_formula_rejects_an_uncovered_term(monkeypatch):
    real = verify.braided_coproduct

    def with_stray_term(s, reduced=False):
        return real(s, reduced) + BraidedTensor({((1,), (1, 1, 1)): C3.one()})

    monkeypatch.setattr(verify, "braided_coproduct", with_stray_term)
    for mode in ("assert", "discover"):
        with pytest.raises(NonProportionalProjection, match="do not sum to") as err:
            coproduct_formula(C3, 1, 5, mode=mode)
        assert "at (x1)(x)(x1 x1 x1): (absent) != 1" in str(err.value)


def _double_coproduct_at(monkeypatch, pair):
    """Make verify's braided coproduct double its coefficient at ``pair``."""
    real = verify.braided_coproduct

    def doubled(s, reduced=False):
        t = real(s, reduced)
        if pair in t.terms:
            t.terms[pair] = t.terms[pair] * 2
        return t

    monkeypatch.setattr(verify, "braided_coproduct", doubled)


def test_coproduct_formula_rejects_a_non_proportional_split(monkeypatch):
    # e[1,7] in D_4 has two comonomials, so split 1's tensor has two pairs;
    # discover reads gamma_1 at the first, and only the final equality
    # sees the second
    pair = ((1, 2, 3, 4, 2), (1,))
    c = coproduct_formula(D4, 1, 7).braided.terms[pair]
    _double_coproduct_at(monkeypatch, pair)
    for mode in ("assert", "discover"):
        with pytest.raises(NonProportionalProjection, match="do not sum to") as err:
            coproduct_formula(D4, 1, 7, mode=mode)
        assert f"at (x1 x2 x3 x4 x2)(x)(x1): {c} != {c * 2}" in str(err.value)


def test_coproduct_discover_reads_a_doubled_split(monkeypatch):
    # each split tensor of v[1,5] in C_3 is one pair, so doubling split 2's
    # pair keeps the coproduct proportional: discover finds tau_2 doubled
    taus = tau_table(C3, 1, 5)
    _double_coproduct_at(monkeypatch, ((1, 2, 3), (2, 1)))
    with pytest.raises(NonProportionalProjection, match="do not sum to"):
        coproduct_formula(C3, 1, 5, mode="assert")
    found = coproduct_formula(C3, 1, 5, mode="discover")
    assert found.tau_map() == {**taus, 2: taus[2] * 2}
    report = verify_coproducts(C3)
    assert [c.name for c in report.failures()] == ["coproduct v[1,5]"]


@pytest.mark.parametrize("mode", ["Discover", None, ""])
def test_coproduct_formula_rejects_an_unknown_mode(monkeypatch, mode):
    def no_work(*args, **kwargs):
        pytest.fail("coproduct computed before the mode was checked")

    monkeypatch.setattr(verify, "braided_coproduct", no_work)
    with pytest.raises(ValueError, match="'assert' or 'discover'"):
        coproduct_formula(C2, 1, 3, mode=mode)


def test_coproduct_suite_catches_a_wrong_closed_form(monkeypatch):
    # a wrong tau table fails assert mode, and the discovered taus name the
    # first tau that differs from it
    real = verify.tau_table
    tau_2 = real(C3, 1, 5)[2]

    def wrong(datum, k, m):
        taus = real(datum, k, m)
        if (datum.series, datum.n, k, m) == ("C", 3, 1, 5):
            taus = {**taus, 2: taus[2] * 2}
        return taus

    monkeypatch.setattr(verify, "tau_table", wrong)
    report = verify_coproducts(C3)
    assert [c.name for c in report.failures()] == ["coproduct v[1,5]"]
    assert report.failures()[0].witness == f"at tau_2: {tau_2} != {tau_2 * 2}"


def test_an_cross_check_catches_a_non_unit_tau(monkeypatch):
    # v[1,3] in A_3: doubling split 2's one pair makes discover find tau_2 = 2
    _double_coproduct_at(monkeypatch, ((3,), (2, 1)))
    report = verify_an_no_exceptions(make_datum("A", 3))
    assert [c.name for c in report.failures()] == ["v[1,3]"]
    assert report.failures()[0].witness == "at tau_2: 2 != 1"


def _discover_case(datum, k, m, name):
    """The reference suite case: discover the taus, then compare them with
    the tau table."""
    try:
        got = coproduct_formula(datum, k, m, mode="discover").tau_map()
    except (NonProportionalProjection, NonDivisible) as exc:
        return verify.CaseResult(name, False, str(exc))
    want = tau_table(datum, k, m)
    if got != want:
        return verify.CaseResult(
            name, False, verify._first_diff(got, want, lambda i: f"tau_{i}"))
    return verify.CaseResult(name, True)


FAULTS = {
    "double": lambda terms, key: terms.__setitem__(key, terms[key] * 2),
    "negate": lambda terms, key: terms.__setitem__(key, -terms[key]),
    "drop": lambda terms, key: terms.__delitem__(key),
    # a pair of the wrong total degree, so no split can cover it
    "stray": lambda terms, key: terms.__setitem__(
        (key[0], key[1] + (1,)), terms[key]),
}


@pytest.mark.parametrize("d", [C3, D4], ids=lambda d: f"{d.series}{d.n}")
def test_assert_first_case_matches_discover_under_planted_faults(monkeypatch, d):
    # assert mode decides a case alone only when it passes; a fault planted
    # at any pair of any reduced coproduct must give the verdict and witness
    # of discover plus the table
    real = verify.braided_coproduct
    planted = [None]

    def faulty(s, reduced=False):
        t = real(s, reduced)
        if planted[0] is not None:
            fault, key = planted[0]
            FAULTS[fault](t.terms, key)
        return t

    monkeypatch.setattr(verify, "braided_coproduct", faulty)
    witnesses = set()
    for k in range(1, d.max_letter + 1):
        for m in range(k + 1, d.max_letter + 1):
            planted[0] = None
            keys = coproduct_formula(d, k, m).braided.terms
            assert verify._coproduct_case(d, k, m, "case") == \
                verify.CaseResult("case", True)
            for key in keys:
                for fault in FAULTS:
                    planted[0] = (fault, key)
                    got = verify._coproduct_case(d, k, m, "case")
                    assert got == _discover_case(d, k, m, "case"), (k, m, key, fault)
                    if not got.passed:
                        witnesses.add(got.witness.startswith("at tau_"))
    # both witness kinds occur: a wrong tau and a pair the formula misses
    assert witnesses == {True, False}


@pytest.mark.parametrize("d", [C3, D4], ids=lambda d: f"{d.series}{d.n}")
def test_planted_faults_with_forms_read_at_q_16(monkeypatch, d):
    # at B = 4 the l1 bound fails on most pairs, so they take the scalar
    # product; a fresh datum, since d keeps the forms other tests read at
    # B = 128 in its memo
    monkeypatch.setattr(verify, "_FORM_BITS", 4)
    test_assert_first_case_matches_discover_under_planted_faults(
        monkeypatch, make_datum(d.series, d.n))


def _record_form_verdicts(monkeypatch) -> list:
    """Make verify's _forms_agree record each verdict in the returned list."""
    verdicts = []
    real = verify._forms_agree

    def recording(*args):
        verdicts.append(real(*args))
        return verdicts[-1]

    monkeypatch.setattr(verify, "_forms_agree", recording)
    return verdicts


@pytest.mark.parametrize("series, n", [("A", 3), ("C", 2), ("C", 3), ("C", 4),
                                       ("C", 5), ("C", 6), ("D", 3), ("D", 4),
                                       ("D", 5), ("D", 6)])
def test_split_sum_decides_every_interval_alone(monkeypatch, series, n):
    # on symbolic data every pair is decided on forms, and no passing
    # interval reaches coproduct_formula
    def no_fallback(*args, **kwargs):
        pytest.fail("coproduct_formula ran on a passing interval")

    monkeypatch.setattr(verify, "coproduct_formula", no_fallback)
    agreed = _record_form_verdicts(monkeypatch)
    d = make_datum(series, n)
    for k in range(1, d.max_letter + 1):
        for m in range(k, d.max_letter + 1):
            assert verify._coproduct_case(d, k, m, "case") == verify.CaseResult("case", True)
    assert agreed and all(x is True for x in agreed)


def test_split_sum_multiplies_scalars_without_a_form(monkeypatch):
    # rationals have no form, nor has a planted coefficient with two
    # t-monomials: both take the scalar product
    agreed = _record_form_verdicts(monkeypatch)
    d4 = make_datum("D", 4, "numeric")
    assert all(verify._split_sum_holds(d4, k, m)
               for k in range(1, 8) for m in range(k, 8))
    assert agreed and all(x is None for x in agreed)
    real_coproduct = verify.braided_coproduct
    pair = ((1, 2, 3, 4, 2), (1,))
    t12 = LaurentPoly.t(D4.varset, 1, 2)

    def with_t12(s, reduced=False):
        t = real_coproduct(s, reduced)
        if pair in t.terms:
            t.terms[pair] = t.terms[pair] + t12
        return t

    monkeypatch.setattr(verify, "braided_coproduct", with_t12)
    agreed.clear()
    assert not verify._split_sum_holds(D4, 1, 7)
    assert None in agreed
    assert verify._coproduct_case(D4, 1, 7, "case") == _discover_case(D4, 1, 7, "case")


def t_homogeneous(vs):
    """Nonzero polynomials T q^e0 g(q) with one t-monomial T over ``vs``."""
    return st.builds(
        lambda t, qpoly: LaurentPoly(vs, {(e, *t): c for e, c in qpoly.items()}),
        st.tuples(*[st.integers(-2, 2)] * (vs.nvars - 1)),
        st.dictionaries(st.integers(-3, 3), st.sampled_from((-2, -1, 1, 2)),
                        min_size=1, max_size=3))


VS3 = VarSet(3)


@given(t_homogeneous(VS3), t_homogeneous(VS3), t_homogeneous(VS3),
       st.sampled_from(("none", "term", "collision", "q-shift", "t-shift")),
       st.integers(-6, 6),
       st.sampled_from((-2, -1, 1, 3)), st.sampled_from((4, 8, 128)))
@settings(max_examples=300)
def test_forms_never_answer_wrong(g, l, r, perturb, j, c, bits):
    # a = g l r, or a perturbed by one term, by q^(j+1) - 2^B q^j, which
    # vanishes at q = 2^B, or times q^j or t_1_2, which leave its value at
    # 2^B; the forms decline exactly when the l1 bound fails
    product = g * l * r
    t = VS3.unpack(next(iter(product.terms)))[1:]
    monomial = LaurentPoly(VS3, {(j, *t): 1})
    a = {"none": product, "term": product + c * monomial,
         "collision": product + monomial * (LaurentPoly.q(VS3) - 2 ** bits),
         "q-shift": product * LaurentPoly.q(VS3, j),
         "t-shift": product * LaurentPoly.t(VS3, 1, 2)}[perturb]
    assume(a)
    fg, fl, fr, fa = (kronecker_form(x, bits) for x in (g, l, r, a))
    got = verify._forms_agree(verify._form_mul(fg, fl), fr, fa, bits)
    assert (got is None) == (fg[2] * fl[2] * fr[2] + fa[2] >= 2 ** (bits - 1))
    if got is not None:
        assert got == (product == a)
    assert verify._forms_agree(fg, fl, None, bits) is None


@pytest.mark.parametrize("series, n, mode", [("C", 4, "multiparameter"), ("D", 4, "multiparameter"),
                                             ("A", 3, "multiparameter"), ("C", 3, "one-parameter"),
                                             ("D", 4, "numeric")])
def test_split_keys_are_the_keys_of_p_words(series, n, mode):
    # the memoised column sums give the packed key of the monic monomial
    # p(w(i+1,m), w(k,i)) for every split; rationals have no key
    d = make_datum(series, n, mode)
    words = {}
    for k in range(1, d.max_letter + 1):
        for m in range(k, d.max_letter + 1):
            got = verify._split_keys(d, words, k, m)
            if mode == "numeric":
                assert got == {}
                continue
            assert sorted(got) == list(range(k, m))
            for i, key in got.items():
                p = d.p_words(d.series_word(i + 1, m), d.series_word(k, i))
                assert p.terms == {key: 1}
    assert bool(words) == (mode != "numeric")


def test_split_keys_refuse_past_the_exponent_range():
    # with p_12 = t_1_2^(2^28) a split of 4 letter pairs or more may sum
    # past EXP_LIMIT, so its key is refused as p_words refuses its monomial
    c3 = make_datum("C", 3)
    t = LaurentPoly.t(c3.varset, 1, 2, 2 ** 28)
    p = [list(row) for row in c3.p]
    p[0][1], p[1][0] = t, c3.q_power(-1) / t
    big = QuantumDatum("C", 3, "multiparameter", c3.cartan, c3.d, c3.varset, None,
                       tuple(map(tuple, p)), c3.q)
    # every split of v[1,5] has 4 or 6 letter pairs; v[1,4] splits into
    # 3 + 1, 2 + 2 and 1 + 3 letters
    for m in (5, 4):
        with pytest.raises(ExponentOutOfRange, match=r"p\(u, v\) may reach exponent"):
            verify._split_keys(big, {}, 1, m)
    with pytest.raises(ExponentOutOfRange):
        big.p_words(big.series_word(3, 4), big.series_word(1, 2))
    with pytest.raises(ExponentOutOfRange):
        verify_coproducts(big)
    for k, m in ((2, 3), (1, 3)):
        for i, key in verify._split_keys(big, {}, k, m).items():
            assert big.p_words(big.series_word(i + 1, m), big.series_word(k, i)).terms == {key: 1}


@pytest.mark.parametrize("mode", ["multiparameter", "numeric"])
@pytest.mark.parametrize("series, n", [("C", 3), ("D", 4)])
def test_every_memo_dies_with_its_datum(refcount_ref, series, n, mode):
    # every suite and a discover pass fill each memo the datum owns: the
    # images, both kinds of chains, the forms, the bracket scalars and the
    # powers of q; none of their values refers back to the datum
    d = make_datum(series, n, mode)
    alive = refcount_ref(d)
    assert all(r.passed for r in run_suites(d, "all", count=2))
    coproduct_formula(d, 1, 3, "discover")
    assert all((d._images, d._chains, d._serre, d._forms, d._q_pow))
    # only a rational datum walks the bracket scalars
    assert bool(d._leaf_scalars) == (mode == "numeric")
    del d
    assert alive() is None


def test_tau_table_vanishes_exactly_at_a_vanishing_split():
    # the tau table is 0 exactly where one of the split's generator images
    # is 0 (e[n,n] of series D), so assert mode passes only where discover
    # finds the table's taus
    for d in (C3, D4, make_datum("D", 5, "numeric")):
        for k in range(1, d.max_letter + 1):
            for m in range(k, d.max_letter + 1):
                for i, tau in tau_table(d, k, m).items():
                    vanishes = (not generator_image(d, i + 1, m)
                                or not generator_image(d, k, i))
                    assert (not tau) == vanishes, (d, k, m, i)


@pytest.mark.parametrize("d", [C2, C3, D3, D4], ids=lambda d: f"{d.series}{d.n}")
def test_coproduct_suite(d):
    report = verify_coproducts(d)
    assert report.passed, report.failures()[0].witness


def test_coproduct_suite_d5_numeric():
    d5 = make_datum("D", 5, "numeric")
    report = verify_coproducts(d5)
    assert report.passed, report.failures()[0].witness


def test_d_e_and_eprime_share_multidegree():
    # e(k,i) and e'(k,i) fold to the same physical counts
    for k in range(1, 8):
        for m in range(k, 8):
            w = D4.word_e(k, m)
            wp = D4.word_e_prime(k, m)
            assert D4.multidegree(w) == D4.multidegree(wp)


def test_an_cross_check():
    for n in (2, 3):
        report = verify_an_no_exceptions(make_datum("A", n))
        assert report.passed
    with pytest.raises(ValueError):
        verify_an_no_exceptions(C2)


def test_sigma_suite_flags_exemption(monkeypatch):
    report = verify_sigma_closed_form(D4)
    assert report.passed
    assert any("exempt" in c.name for c in report.cases)
    # the exempt pair compares with q like every other case
    monkeypatch.setattr(verify, "sigma", lambda d, k, m: d.q_power(2))
    exempt = [c for c in verify_sigma_closed_form(D4).cases if "exempt" in c.name]
    assert [(c.name, c.passed, c.witness) for c in exempt] == \
        [("sigma(4,4) [exempt: definitional value q]", False, "q^2 != q")]


@pytest.mark.parametrize("d", [C3, D3], ids=lambda d: f"{d.series}{d.n}")
def test_identity_suite(d):
    report = verify_identity_suite(d, seed=7, count=25)
    assert report.passed, report.failures()[0].witness
    assert len(report.cases) == 6


def test_pbw_independence_counts():
    report = verify_pbw_independence(C2, 4, seed=0)
    assert report.passed
    # generators have degrees 1, 2, 3, 1: solutions of
    # e1 + 2 e2 + 3 e3 + e4 <= 4 number 25
    assert "25/25" in report.cases[-1].name
    report = verify_pbw_independence(D3, 4, seed=0)
    assert report.passed


def test_modp_first_dependent():
    p = 7
    rows = [{0: 1, 2: 3}, {1: 2}, {0: 2, 1: 2, 2: 5}]
    assert _modp_first_dependent(rows, p) == (3, None)
    # row 3 is 3 * row 0 + 5 * row 1, written with residues >= p
    rows.append({0: 3 + 7, 1: 10, 2: 9 + 7})
    assert _modp_first_dependent(rows, p) == (3, 3)
    # a zero row, or one that is zero mod p, is dependent
    assert _modp_first_dependent([{0: 1}, {}], p) == (1, 1)
    assert _modp_first_dependent([{1: 14}], p) == (0, 0)
    assert _modp_first_dependent([], p) == (0, None)


@pytest.mark.parametrize("series, n, degree", [("C", 2, 6), ("C", 3, 5),
                                               ("D", 3, 5)])
def test_pbw_products_walk_in_lex_order(series, n, degree):
    d = make_datum(series, n, "numeric")
    degrees = [g.degree for g in pbw_generators(d)]
    want = [e for e in product(*(range(degree // g + 1) for g in degrees))
            if sum(x * g for x, g in zip(e, degrees)) <= degree]
    assert pbw_product_rows(d, degree, _RANK_PRIMES[0])[0] == want


def test_pbw_products_walk_past_the_recursion_limit():
    d = make_datum("C", 32, "numeric")
    assert len(pbw_generators(d)) > sys.getrecursionlimit()
    report = verify_pbw_independence(d, 2, seed=0)
    assert report.passed
    assert report.cases[-1].name == \
        "rank at seed 0: 592/592 products, 1057 comonomials, degree <= 2"


def residues(terms, p):
    """The nonzero residues mod p, as ints in [0, p), of rational terms."""
    return {z: s for z, c in terms.items()
            if (s := c.numerator * pow(c.denominator, -1, p) % p)}


def rational_images(d, combos):
    """The rational shuffle images of the PBW products ``combos``, in lex
    order: each product is its parent, the combo less one copy of its last
    factor, times that factor."""
    images = [generator_image(d, g.k, g.m) for g in pbw_generators(d)]
    reference = {(0,) * len(images): ShuffleElem.unit(d)}
    for combo in combos:
        if any(combo):
            last = max(j for j, e in enumerate(combo) if e)
            parent = combo[:last] + (combo[last] - 1,) + combo[last + 1:]
            reference[combo] = shuffle_mul(d, reference[parent], images[last])
    return [reference[combo] for combo in combos]


@pytest.mark.parametrize("series, n", [("C", 2), ("C", 3), ("C", 4),
                                       ("D", 3), ("D", 4)])
def test_pbw_int_rows_are_the_residue_rows_of_shuffle_mul(series, n):
    p = _RANK_PRIMES[0]
    d = make_datum(series, n, "numeric")
    combos, _, rows = pbw_product_rows(d, 6, p)
    for row, image in zip(rows, rational_images(d, combos), strict=True):
        assert row == residues(image.terms, p)
        assert all(type(c) is int and 0 < c < p for c in row.values())


@pytest.mark.parametrize("series, n, degree", [("C", 2, 6), ("C", 3, 6),
                                               ("D", 3, 5), ("D", 4, 5)])
def test_pbw_rows_mod_p_are_residues_of_rational_rows(series, n, degree):
    prime = _RANK_PRIMES[0]
    point = make_datum(series, n, "numeric", seed=1)
    gens = pbw_generators(point)
    combos, labels, rows = pbw_product_rows(point, degree, prime)
    assert labels == [g.label for g in gens]
    assert combos == [e for e in product(*(range(degree // g.degree + 1) for g in gens))
                      if sum(x * g.degree for x, g in zip(e, gens)) <= degree]
    for got, want in zip(rows, rational_images(point, combos), strict=True):
        assert got == residues(want.terms, prime)
    # a point whose rows have no residues is refused, not reduced
    bad = dict(point.assignment, t_1_2=Fraction(1, prime))
    with pytest.raises(NonUnitModP):
        pbw_product_rows(make_datum(series, n, "numeric", assignment=bad), degree, prime)


def test_pbw_rows_refuse_non_units():
    prime = 101
    # t_1_2 = 101: p_1_2 has numerator 101 and p_2_1 = q^-2 / t_1_2 denominator 101
    d = make_datum("C", 2, "numeric", assignment={"q": 5, "t_1_2": 101})
    with pytest.raises(NonUnitModP, match="p_1_2 = 101 is not a unit mod 101"):
        pbw_product_rows(d, 2, prime)
    d = make_datum("C", 2, "numeric", assignment={"q": 5, "t_1_2": Fraction(1, 202)})
    with pytest.raises(NonUnitModP, match="p_1_2 = 1/202 is not a unit mod 101"):
        pbw_product_rows(d, 2, prime)
    d = make_datum("C", 2, "numeric", assignment={"q": Fraction(3, 101), "t_1_2": 7})
    with pytest.raises(NonUnitModP, match="q = 3/101 is not a unit mod 101"):
        pbw_product_rows(d, 2, prime)
    # the same points reduce modulo another prime
    assert verify._residue_map(d, 103)(d.q) == 3 * pow(101, -1, 103) % 103
    rows = pbw_product_rows(d, 2, 103)[2]
    assert rows[0] == {(): 1} and all(0 < c < 103 for row in rows for c in row.values())
    with pytest.raises(ValueError):
        pbw_product_rows(make_datum("C", 2), 2, prime)


def test_pbw_rows_leave_no_reference_cycle(refcount_ref):
    # a cycle would keep the rows, and the datum with its image memo, alive
    # until the cyclic collector runs
    d = make_datum("C", 2, "numeric")
    alive = refcount_ref(d)
    rows = pbw_product_rows(d, 3, _RANK_PRIMES[0])
    del d, rows
    assert alive() is None


@pytest.mark.parametrize("series, n, degree", [("D", 4, 5), ("C", 3, 6)])
def test_modp_elimination_on_comonomial_keys(series, n, degree):
    p = _RANK_PRIMES[0]
    rows = pbw_product_rows(make_datum(series, n, "numeric"), degree, p)[2]
    # plant 2 * row 5 - 3 * row 9, taken mod p, after row 20, as balanced
    # ints in (-p/2, p/2]
    planted = {}
    add_terms(planted, ((z, 2 * c) for z, c in rows[5].items()))
    add_terms(planted, ((z, -3 * c) for z, c in rows[9].items()))
    planted = {z: s - p if s > p // 2 else s
               for z, c in planted.items() if (s := c % p)}
    assert any(c < 0 for c in planted.values())
    for matrix, want in [(rows, (len(rows), None)),
                         (rows[:21] + [planted] + rows[21:], (21, 21))]:
        # int rows whose columns are numbered as they first appear
        col_index = {}
        numbered = [{col_index.setdefault(z, len(col_index)): c
                     for z, c in row.items()} for row in matrix]
        assert _modp_first_dependent(numbered, p) == want
        assert _modp_first_dependent(matrix, p) == want


def normalising_first_dependent(rows: list, p: int):
    """Reference: row reduction mod p over normalised copies of the rows."""
    pivots: dict = {}  # smallest column -> normalized row
    for idx, row in enumerate(rows):
        r = {col: s for col, v in row.items() if (s := v % p)}
        while r:
            col = min(r)
            pivot = pivots.get(col)
            if pivot is None:
                break
            f = r[col]
            for c, v in pivot.items():
                s = (r.get(c, 0) - f * v) % p
                if s:
                    r[c] = s
                else:
                    r.pop(c, None)
        if not r:
            return idx, idx
        inv = pow(r[col], -1, p)
        pivots[col] = {c: v * inv % p for c, v in r.items()}
    return len(rows), None


@st.composite
def sparse_int_matrices(draw):
    """(p, rows): sparse int rows mod p, each either of residues in [1, p)
    or with entries that may be >= p, negative or zero mod p.  A drawn
    shape plants a dependency: a dict object passed twice, or, after row
    20 of a triangular matrix (row i led by column i, so of full rank), a
    combination of earlier rows."""
    p = draw(st.sampled_from([7, 101, _RANK_PRIMES[0]]))
    residue = st.integers(1, p - 1)
    raw = st.one_of(st.sampled_from([0, p, -p, 2 * p]), residue, st.integers(-3 * p, 3 * p))
    shape = draw(st.sampled_from(["free", "repeat", "plant"]))
    triangular = shape == "plant" or draw(st.booleans())
    rows = []
    for i in range(draw(st.integers(21 if shape == "plant" else 0, 30))):
        clean = draw(st.booleans())
        row = draw(st.dictionaries(st.integers(i + 1 if triangular else 0, 40),
                                   residue if clean else raw, max_size=4))
        if triangular:
            row[i] = draw(residue) + (0 if clean else draw(st.integers(-2, 2)) * p)
        rows.append(row)
    if shape == "repeat" and rows:
        i = draw(st.integers(0, len(rows) - 1))
        rows.insert(draw(st.integers(i + 1, len(rows))), rows[i])
    if shape == "plant":
        planted = {}
        for i in draw(st.lists(st.integers(0, 20), min_size=1, max_size=4)):
            add_terms(planted, ((c, draw(residue) * v) for c, v in rows[i].items()))
        # the combination, as ints that are not all residues
        planted = {c: v % p + draw(st.integers(-2, 2)) * p for c, v in planted.items()}
        rows.insert(draw(st.integers(21, len(rows))), planted)
    return p, rows


@settings(deadline=None, max_examples=40)
@given(sparse_int_matrices())
def test_lazy_pivots_agree_with_normalised_elimination(case):
    # pivots are the caller's rows until a pivot meets them, so every row
    # must come back unchanged, and rank and dependent row must not move
    p, rows = case
    before = copy.deepcopy(rows)
    assert _modp_first_dependent(rows, p) == normalising_first_dependent(before, p)
    assert rows == before


def test_lazy_pivots_meet_a_repeated_row_and_planted_dependents():
    p = 7
    row = {0: 3, 2: 5}
    rows = [row, {1: 6}, row]
    assert _modp_first_dependent(rows, p) == (2, 2)
    assert rows == [{0: 3, 2: 5}, {1: 6}, {0: 3, 2: 5}]
    # an entry p is zero mod p, not a residue to keep
    assert _modp_first_dependent([{1: 3}, {0: p, 1: 3}], p) == (1, 1)
    independent = [{i: 1 + i % 6, i + 1: 2} for i in range(25)]
    planted = {0: 2 * 1 + 7, 1: 2 * 2 + 3 * 2 - 14, 2: 3 * 2}
    assert _modp_first_dependent(independent[:22] + [planted], p) == (22, 22)
    assert normalising_first_dependent(independent[:22] + [planted], p) == (22, 22)


def test_pbw_independence_names_a_planted_dependent_product(monkeypatch):
    # a second copy of one generator makes its first power dependent
    def doubled(d, generators=verify.pbw_generators):
        gens = generators(d)
        return gens + [gens[1]]

    monkeypatch.setattr(verify, "pbw_generators", doubled)
    report = verify_pbw_independence(C3, 4, seed=0)
    assert not report.passed
    witness = "DegenerateEvaluationPoint: product [2,4]^1 dependent"
    assert [tuple(c) for c in report.cases] == [
        ("rank at seed 0: 37/71 products, 121 comonomials, degree <= 4",
         True, witness),
        ("rank at seed 1: 37/71 products, 121 comonomials, degree <= 4",
         False, witness)]


def test_pbw_independence_numeric_datum():
    d = make_datum("C", 2, "numeric")
    assert verify_pbw_independence(d, 3, seed=0).passed


def test_pbw_independence_retries_a_point_that_does_not_reduce(monkeypatch, capsys):
    # p_1_2 = t_1_2 is the first rank prime itself
    d = make_datum("C", 2, "numeric", assignment={"q": 5, "t_1_2": 2147483647})
    report = verify_pbw_independence(d, 4, seed=0)
    first, retry = report.cases
    # the retry supersedes the first attempt, which keeps its witness
    assert first.name == "rank at seed 0: point does not reduce mod 2147483647"
    assert first.witness == ("NonUnitModP: p_1_2 = 2147483647 is not a unit "
                             "mod 2147483647")
    assert first.passed and retry.passed
    assert retry.name == "rank at seed 1: 25/25 products, 31 comonomials, degree <= 4"
    assert report.passed
    monkeypatch.setattr(cli, "_make_datum_for", lambda args: d)
    code = cli.run_command(["pbw", "--series", "C", "--rank", "2",
                            "--max-degree", "4", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["passed"]
    assert doc["report"]["cases"][0]["witness"] == first.witness


def test_pbw_independence_degree_one():
    # degree-1 products are the unit and the n distinct letters
    report = verify_pbw_independence(C2, 1, seed=0)
    assert report.passed
    assert "3/3" in report.cases[-1].name


def test_run_suites_dispatch():
    reports = run_suites(C2, "all", max_degree=3, count=5)
    assert {r.suite for r in reports} == {
        "sigma-closed-form", "serre", "identities", "arrangements",
        "coproduct", "pbw-independence"}
    assert all(r.passed for r in reports)
    with pytest.raises(ValueError):
        run_suites(C2, "bogus")


def test_report_dict_shape():
    report = verify_serre(C2)
    doc = report.to_dict()
    assert doc["suite"] == "serre"
    assert doc["passed"] is True
    assert all(set(c) >= {"name", "passed"} for c in doc["cases"])


def test_first_diff_names_the_first_key_in_natural_order():
    assert verify._first_diff({2: 1, 10: 1}, {2: 0, 10: 0},
                              lambda i: f"tau_{i}") == "at tau_2: 1 != 0"
    # a comonomial sorts before its extensions, and letters compare as numbers
    assert verify._first_diff({(1,): 1, (1, 2): 1}, {(1,): 0, (1, 2): 0},
                              comonomial_str) == "at (x1): 1 != 0"
    assert verify._first_diff({(3, 9): 1, (3, 10): 1}, {}, comonomial_str) \
        == "at (x3 x9): 1 != (absent)"


def _bracket_with_factor_q(datum, u, v, factor=None):
    """A broken skew bracket: every plain p(u, v) is scaled by q."""
    return skew_bracket(datum, u, v, datum.q_power(1) if factor is None else factor)


# Witnesses of a skew bracket that scales every plain p(u, v) by q, at
# seed 5; the free draws are pinned, so their order must not move.
_BROKEN_BRACKET_WITNESSES = {
    "C3": [
        "instance 0: u=<FreeElem (-3)*x3*x3*x5> v=<FreeElem (-2*q^-1)*x1> "
        "w=<FreeElem (-3*q)*x2*x4 + (q)*x4*x2>",
        "instance 0: u=<FreeElem (-q^-1)*x4> v=<FreeElem (-2*q)*x2*x1>",
        "instance 0: guard [u,w] does not vanish",
        "instance 0: guard [u,v] does not vanish",
        "instance 0: u=<FreeElem (-q^-1)*x1*x3 + (-1)*x3*x1> "
        "v=<FreeElem (2*q^-1)*x3*x5> w=<FreeElem (-3)*x1*x3>",
        "instance 0: u=<FreeElem (-q^-1)*x2*x1> "
        "v=<FreeElem (q^-1)*x1*x4 + (2)*x4*x1> w=<FreeElem (-2*q^-1)*x5>",
    ],
    "D4": [
        "instance 0: u=<FreeElem (3*q)*x3*x6*x3> "
        "v=<FreeElem (-2*q)*x1*x7*x4 + (-1)*x7*x4*x1> w=<FreeElem (2*q^-1)*x4>",
        "instance 0: u=<FreeElem (-2)*x2*x1*x6 + (-3*q^-1)*x6*x2*x1> "
        "v=<FreeElem (-2*q^-1)*x5*x4*x2>",
        "instance 0: guard [u,w] does not vanish",
        "instance 0: guard [u,v] does not vanish",
        "instance 0: u=<FreeElem (-3)*x3> v=<FreeElem (2*q^-1)*x7*x5> "
        "w=<FreeElem (-3)*x1*x3>",
        "instance 0: u=<FreeElem (-3)*x6*x2> v=<FreeElem (-1)*x6> "
        "w=<FreeElem (1)*x5>",
    ],
    # the same draws at the numeric point q = 5, whose images run on cleared
    # int tables
    "C3-numeric": [
        "instance 0: u=<FreeElem (-3)*x3*x3*x5> v=<FreeElem (-2/5)*x1> "
        "w=<FreeElem (-15)*x2*x4 + (5)*x4*x2>",
        "instance 0: u=<FreeElem (-1/5)*x4> v=<FreeElem (-10)*x2*x1>",
        "instance 0: guard [u,w] does not vanish",
        "instance 0: guard [u,v] does not vanish",
        "instance 0: u=<FreeElem (-1/5)*x1*x3 + (-1)*x3*x1> v=<FreeElem "
        "(2/5)*x3*x5> w=<FreeElem (-3)*x1*x3>",
        "instance 0: u=<FreeElem (-1/5)*x2*x1> v=<FreeElem (1/5)*x1*x4 + "
        "(2)*x4*x1> w=<FreeElem (-2/5)*x5>",
    ],
    "D4-numeric": [
        "instance 0: u=<FreeElem (15)*x3*x6*x3> v=<FreeElem (-10)*x1*x7*x4 + "
        "(-1)*x7*x4*x1> w=<FreeElem (2/5)*x4>",
        "instance 0: u=<FreeElem (-2)*x2*x1*x6 + (-3/5)*x6*x2*x1> v=<FreeElem "
        "(-2/5)*x5*x4*x2>",
        "instance 0: guard [u,w] does not vanish",
        "instance 0: guard [u,v] does not vanish",
        "instance 0: u=<FreeElem (-3)*x3> v=<FreeElem (2/5)*x7*x5> "
        "w=<FreeElem (-3)*x1*x3>",
        "instance 0: u=<FreeElem (-3)*x6*x2> v=<FreeElem (-1)*x6> w=<FreeElem "
        "(1)*x5>",
    ],
}


@pytest.mark.parametrize("d", [C3, D4, make_datum("C", 3, "numeric"),
                               make_datum("D", 4, "numeric")],
                         ids=lambda d: f"{d.series}{d.n}" + (
                             "-numeric" if d.mode == "numeric" else ""))
def test_identity_suite_witnesses_a_broken_bracket(monkeypatch, d):
    monkeypatch.setattr(verify, "skew_bracket", _bracket_with_factor_q)
    report = verify_identity_suite(d, seed=5, count=20)
    assert [c.name for c in report.cases] == [
        f"{name} x20" for name in ("jacobi", "antisymmetry",
                                   "conditional-jacobi", "conditional-swap",
                                   "ad-left", "ad-right")]
    assert not any(c.passed for c in report.cases)
    assert [c.witness for c in report.cases] == \
        _BROKEN_BRACKET_WITNESSES[f"{d.series}{d.n}" + (
            "-numeric" if d.mode == "numeric" else "")]


# Witnesses at seed 5 when every p(u, v) the identities read is doubled:
# the guards still vanish, so conditional swap fails in the shuffle image
# and names the first comonomial where its two sides differ
_BROKEN_P_WITNESSES = {
    "C3": [
        "instance 0: u=<FreeElem (-3)*x3*x3*x5> v=<FreeElem (-2/5)*x1> "
        "w=<FreeElem (-15)*x2*x4 + (5)*x4*x2>",
        "instance 0: u=<FreeElem (-1/5)*x4> v=<FreeElem (-10)*x2*x1>",
        None,
        "instance 0: u=<FreeElem (-3/5)*x1> v=<FreeElem (-3)*x3> w=<FreeElem "
        "(-10)*x4>: at (x2 x1 x3): -12096/325 != -21168/325",
        "instance 0: u=<FreeElem (1)*x4> v=<FreeElem (-13/5)*x5*x1> "
        "w=<FreeElem (-15)*x3*x4>",
        "instance 0: u=<FreeElem (4)*x1*x5> v=<FreeElem (5)*x2*x4> "
        "w=<FreeElem (-52/5)*x4*x2>",
    ],
    "D4": [
        "instance 0: u=<FreeElem (15)*x3*x6*x3> v=<FreeElem (-10)*x1*x7*x4 + "
        "(-1)*x7*x4*x1> w=<FreeElem (2/5)*x4>",
        "instance 0: u=<FreeElem (-2)*x2*x1*x6 + (-3/5)*x6*x2*x1> v=<FreeElem "
        "(-2/5)*x5*x4*x2>",
        None,
        "instance 1: u=<FreeElem (1)*x2> v=<FreeElem (1/35)*x1*x2 + "
        "(-1)*x2*x1> w=<FreeElem (-2/5)*x5*x1*x5>: at (x1 x1 x2 x2 x3 x3): "
        "(absent) != -41472/2063359375",
        "instance 0: u=<FreeElem (1)*x1*x3> v=<FreeElem (2)*x6> w=<FreeElem "
        "(2)*x5>",
        "instance 0: u=<FreeElem (10)*x3> v=<FreeElem (-1/5)*x5*x3> "
        "w=<FreeElem (5)*x5>",
    ],
}


@pytest.mark.parametrize("series,n", [("C", 3), ("D", 4)], ids=["C3", "D4"])
def test_identity_suite_witnesses_a_broken_p_on_numeric_data(monkeypatch, series, n):
    real = verify._p_of
    monkeypatch.setattr(verify, "_p_of", lambda datum, u, v: 2 * real(datum, u, v))
    report = verify_identity_suite(make_datum(series, n, "numeric"), seed=5, count=20)
    assert [c.witness for c in report.cases] == _BROKEN_P_WITNESSES[f"{series}{n}"]


# Witnesses at seed 5 over the generic datum when every p(u, v) the
# identities read is scaled by q (a unit, as p must stay); the draws are
# those of the numeric table above, with Laurent coefficients
_BROKEN_P_SYMBOLIC_WITNESSES = {
    "C3": [
        "instance 0: u=<FreeElem (-3)*x3*x3*x5> v=<FreeElem (-2*q^-1)*x1> "
        "w=<FreeElem (-3*q)*x2*x4 + (q)*x4*x2>",
        "instance 0: u=<FreeElem (-q^-1)*x4> v=<FreeElem (-2*q)*x2*x1>",
        None,
        "instance 0: u=<FreeElem (-3*q^-1)*x1> v=<FreeElem (-3)*x3> w=<FreeElem "
        "(-2*q)*x4>: at (x2 x1 x3): (-18*q+18+18*q^-1-18*q^-2)*t_1_2*t_2_3^-1 "
        "!= (absent)",
        "instance 0: u=<FreeElem (1)*x4> v=<FreeElem (-3+2*q^-1)*x5*x1> "
        "w=<FreeElem (-3*q)*x3*x4>",
        "instance 0: u=<FreeElem (4)*x1*x5> v=<FreeElem (q)*x2*x4> "
        "w=<FreeElem (-2*q-2*q^-1)*x4*x2>",
    ],
    "D4": [
        "instance 0: u=<FreeElem (3*q)*x3*x6*x3> v=<FreeElem (-2*q)*x1*x7*x4 + "
        "(-1)*x7*x4*x1> w=<FreeElem (2*q^-1)*x4>",
        "instance 0: u=<FreeElem (-2)*x2*x1*x6 + (-3*q^-1)*x6*x2*x1> "
        "v=<FreeElem (-2*q^-1)*x5*x4*x2>",
        None,
        "instance 1: u=<FreeElem (1)*x2> v=<FreeElem (q^-1*t_1_2^-1)*x1*x2 + "
        "(-1)*x2*x1> w=<FreeElem (-2*q^-1)*x5*x1*x5>: at (x1 x1 x2 x2 x3 x3): "
        "(absent) != (-2*q-2+6*q^-1+6*q^-2-6*q^-3-6*q^-4+2*q^-5+2*q^-6)"
        "*t_1_2^-4*t_1_3^-1",
        "instance 0: u=<FreeElem (1)*x1*x3> v=<FreeElem (2)*x6> w=<FreeElem "
        "(2)*x5>",
        "instance 0: u=<FreeElem (2*q)*x3> v=<FreeElem (-q^-1)*x5*x3> "
        "w=<FreeElem (q)*x5>",
    ],
}


@pytest.mark.parametrize("d", [C3, D4], ids=["C3", "D4"])
def test_identity_suite_witnesses_a_broken_p_on_symbolic_data(monkeypatch, d):
    real = verify._p_of
    monkeypatch.setattr(verify, "_p_of",
                        lambda datum, u, v: datum.q_power(1) * real(datum, u, v))
    report = verify_identity_suite(d, seed=5, count=20)
    assert [c.witness for c in report.cases] == \
        _BROKEN_P_SYMBOLIC_WITNESSES[f"{d.series}{d.n}"]


def test_serre_suite_witnesses_planted_images_on_symbolic_data(monkeypatch):
    monkeypatch.setattr(verify, "skew_bracket", _bracket_with_factor_q)
    report = verify_serre(C2)
    assert [(c.name, c.witness) for c in report.cases] == [
        ("[[x1,x2],x2]", "image (-q^3+q^2+q-1)*t_1_2 * (x2 x1 x2) + "
         "(-q^5+q^4+q-1)*t_1_2^2 * (x2 x2 x1)"),
        ("[x2,[x2,x1]]", "image (-q+1+q^-3-q^-4)*t_1_2^-2 * (x1 x2 x2) + "
         "(-q+1+q^-1-q^-2)*t_1_2^-1 * (x2 x1 x2)"),
        ("[[[x2,x1],x1],x1]", "image (-q+2*q^-1+q^-2-q^-3-2*q^-4+q^-6)*t_1_2^-3 "
         "* (x1 x1 x1 x2) + (-q+1+2*q^-1-2*q^-2-q^-3+q^-4)*t_1_2^-2 * (x1 x1 x2 x1)"),
        ("[x1,[x1,[x1,x2]]]", "image (-q^5+q^4+2*q^3-2*q^2-q+1)*t_1_2^2 * "
         "(x1 x2 x1 x1) + (-q^7+2*q^5+q^4-q^3-2*q^2+1)*t_1_2^3 * (x2 x1 x1 x1)"),
    ]


def test_serre_suite_witnesses_planted_images_on_numeric_data(monkeypatch):
    monkeypatch.setattr(verify, "skew_bracket", _bracket_with_factor_q)
    report = verify_serre(make_datum("C", 2, "numeric"))
    assert [(c.name, c.witness) for c in report.cases] == [
        ("[[x1,x2],x2]", "image -672 * (x2 x1 x2) + -122304 * (x2 x2 x1)"),
        ("[x2,[x2,x1]]",
         "image -2496/30625 * (x1 x2 x2) + -96/175 * (x2 x1 x2)"),
        ("[[[x2,x1],x1],x1]",
         "image -71424/5359375 * (x1 x1 x1 x2) + -2304/30625 * (x1 x1 x2 x1)"),
        ("[x1,[x1,[x1,x2]]]",
         "image -112896 * (x1 x2 x1 x1) + -24498432 * (x2 x1 x1 x1)"),
    ]
