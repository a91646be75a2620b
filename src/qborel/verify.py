"""Theorem-level verification: Serre vanishing, bracket arrangements,
coproduct formulas, the A-series cross-check, the identity suite, and
desk-scale PBW independence certificates.

Every suite returns a :class:`VerificationReport`; a failing case always
carries a witness (the first differing term or tensor).  All checks are
exact: symbolic data compare Laurent polynomials, numeric data compare
rationals, and independence is certified through full rank of an exact
evaluation matrix.  That matrix is built in GF(p) for a large prime p, from
the rational point: full rank modulo p bounds the rational rank from
below, so the certificate direction is exact; deficiency at a point is
never taken as a falsification.  This module holds the package's only
GF(p) code.  The rational generator images and the p^-1 table are mapped
once to their residues, ints in [0, p), and the products run on those
ints, each reduced mod p once.  Every image coefficient is a Laurent
polynomial in q and the t_ij evaluated where q and every p_ij are units
mod p, so its denominator is a unit, and Z_(p) -> GF(p) is a ring map:
every entry is the residue of the rational entry it stands for.

The coproduct suite compares most symbolic products on Kronecker forms
rather than as Laurent polynomials (:func:`qborel.coeffring.kronecker_form`).
A coefficient c = T q^e0 g(q) with one t-monomial T, g a polynomial and
g(0) != 0, has the form (T, e0, l1(g), g(2^B)) with B = 128, and the forms
of a product multiply componentwise, its l1 norm bounded by the product of
the factors' norms.  Two such scalars are equal exactly when their T, their
e0 and their values at 2^B are, provided their l1 norms (or bounds) sum to
less than 2^(B-1): every coefficient of the difference of the two g's is then
smaller than 2^(B-1) in absolute value, and a nonzero polynomial with such
coefficients does not vanish at 2^B, since its lowest nonzero coefficient
would be a multiple of 2^B.  Where a form is missing (a rational, or two
t-monomials) or the bound fails, the scalars are multiplied.
"""

from __future__ import annotations

import operator
import random
import time
from functools import partial, reduce
from itertools import permutations
from typing import NamedTuple

from .coeffring import EXP_LIMIT, ExponentOutOfRange, NonDivisible, add_terms, kronecker_form
from .datum import QuantumDatum, _letter_table, make_datum, sigma, sigma_closed_form
from .freeword import FreeElem, left_nested, right_nested, skew_bracket
from .pbwgen import generator_image, is_pbw_interval, pbw_generators, tau_table
from .shuffle import (BraidedTensor, ShuffleElem, _interleavings,
                      braided_coproduct, comonomial_str, eval_free,
                      shuffle_bracket, shuffle_mul, tensor_pair_str)


class NonProportionalProjection(ArithmeticError):
    """The scaled generator tensors of a coproduct formula do not sum to the
    reduced braided coproduct; the theorem under test is falsified."""


# ---------------------------------------------------------------------------
# reports

class CaseResult(NamedTuple):
    name: str
    passed: bool
    witness: str | None = None


class VerificationReport(NamedTuple):
    suite: str
    cases: list
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)

    def failures(self) -> list:
        return [c for c in self.cases if not c.passed]

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "elapsed": round(self.elapsed, 3),
            "cases": [
                {"name": c.name, "passed": c.passed,
                 **({"witness": c.witness} if c.witness else {})}
                for c in self.cases
            ],
        }

    def summary(self) -> str:
        word = "pass" if self.passed else "FAIL"
        return (f"{self.suite}: {word} "
                f"({sum(c.passed for c in self.cases)}/{len(self.cases)} cases, "
                f"{self.elapsed:.2f}s)")


def _timed(suite: str, cases: list, t0: float) -> VerificationReport:
    return VerificationReport(suite, cases, time.monotonic() - t0)


def _first_diff(a: dict, b: dict, render) -> str:
    for key in sorted(set(a) | set(b)):
        ca, cb = a.get(key), b.get(key)
        if ca != cb:
            return (f"at {render(key)}: "
                    f"{ca if ca is not None else '(absent)'} != "
                    f"{cb if cb is not None else '(absent)'}")
    return "no difference"


def _shuffle_witness(got: ShuffleElem, want: ShuffleElem) -> str:
    return _first_diff(got.terms, want.terms, comonomial_str)


# ---------------------------------------------------------------------------
# sigma / mu closed forms

def verify_sigma_closed_form(datum: QuantumDatum) -> VerificationReport:
    """sigma(k,m) = q^2 iff m = phi(k) else q, exempting series D at (n,n)."""
    t0 = time.monotonic()
    cases = []
    top = datum.max_letter
    for k in range(1, top + 1):
        for m in range(k, top + 1):
            got = sigma(datum, k, m)
            if datum.series == "D" and k == m == datum.n:
                name = f"sigma({k},{m}) [exempt: definitional value q]"
                want = datum.q_power(1)
            else:
                name = f"sigma({k},{m})"
                want = sigma_closed_form(datum, k, m)
            ok = got == want
            cases.append(CaseResult(name, ok,
                                    None if ok else f"{got} != {want}"))
    return _timed("sigma-closed-form", cases, t0)


# ---------------------------------------------------------------------------
# Serre relations

def _serre_chains(datum: QuantumDatum) -> tuple:
    """(name, u, w) of each defining relation [u, w], memoised on the datum.

    For every ordered pair i != j with c = 1 - a_ji copies of x_j: the
    left-nested chain [...[[x_i,x_j],x_j],...,x_j], then, when c > 1, the
    right-nested chain [x_j,[x_j,...,[x_j,x_i]...]]; for orthogonal pairs the
    chain is the plain bracket [x_i,x_j].
    """
    if not datum._serre:
        chains = []
        for i, j in permutations(range(1, datum.n + 1), 2):
            cnt = 1 - datum.cartan[j - 1][i - 1]
            xi, xj = FreeElem.letter(datum, i), FreeElem.letter(datum, j)
            chains.append(("[" * cnt + f"x{i}" + f",x{j}]" * cnt,
                           left_nested(datum, [xi] + [xj] * (cnt - 1)), xj))
            if cnt > 1:
                chains.append((f"[x{j}," * cnt + f"x{i}" + "]" * cnt,
                               xj, right_nested(datum, [xj] * (cnt - 1) + [xi])))
        datum._serre.append(tuple(chains))
    return datum._serre[0]


def serre_relations(datum: QuantumDatum) -> list:
    """Defining relations as (name, FreeElem) pairs, in ``_serre_chains``
    order."""
    return [(name, skew_bracket(datum, u, w))
            for name, u, w in _serre_chains(datum)]


def verify_serre(datum: QuantumDatum) -> VerificationReport:
    """Shuffle images of all defining relations vanish exactly."""
    t0 = time.monotonic()
    cases = []
    for name, elem in serre_relations(datum):
        img = eval_free(datum, elem)
        cases.append(CaseResult(name, img.is_zero(),
                                None if img.is_zero() else f"image {img}"))
    return _timed("serre", cases, t0)


# ---------------------------------------------------------------------------
# arrangement independence

def _arrangement_intervals(datum: QuantumDatum) -> list:
    """The intervals (k, m), m < 2n, m != phi(k), with k <= n <= m for
    series C and k < n < m for series D."""
    n = datum.n
    top_k, low_m = (n, n) if datum.series == "C" else (n - 1, n + 1)
    return [(k, m) for k in range(1, top_k + 1) for m in range(low_m, 2 * n)
            if m != datum.phi(k)]


def _arrangement_factors(datum: QuantumDatum, k: int, m: int) -> list:
    """Images of a factor sequence whose bracket arrangement does not matter.

    Below rank-crossing intervals the raw letters qualify; for k < n < m
    the crossing is packaged into a single already-bracketed factor
    (y = v[k,n-1] resp. e[k,n] on the left, v/e[n+1,m] on the right).
    Not defined at m = phi(k), where only the double bracket applies.
    """
    n = datum.n
    if m <= n or k >= n:
        return [ShuffleElem.letter(datum, t) for t in datum.series_word(k, m)]
    if m < datum.phi(k):
        top = n - 1 if datum.series == "C" else n
        return ([generator_image(datum, k, top)]
                + [ShuffleElem.letter(datum, t) for t in range(top + 1, m + 1)])
    # m > phi(k): the letters of v/e(k,n), then v/e[n+1,m]
    return ([ShuffleElem.letter(datum, t) for t in datum.series_word(k, n)]
            + [generator_image(datum, n + 1, m)])


def _recursion_image(datum: QuantumDatum, k: int, m: int) -> ShuffleElem:
    """Image of the bracketing by the standard-word recurrences.

    For k < n < m < phi(k):  [x_k [w(k+1, m)]] when m < phi(k) - 1 and
    [[w(k, m-1)] x_m] when m = phi(k) - 1; bottoms out in generator_image
    once the interval stops crossing the fold.
    """
    n = datum.n
    if m <= n or k >= n or m >= datum.phi(k):
        return generator_image(datum, k, m)
    if m < datum.phi(k) - 1:
        return shuffle_bracket(datum, ShuffleElem.letter(datum, k),
                               _recursion_image(datum, k + 1, m))
    return shuffle_bracket(datum, _recursion_image(datum, k, m - 1),
                           ShuffleElem.letter(datum, m))


def verify_arrangements(datum: QuantumDatum) -> VerificationReport:
    """Every admissible split yields the same shuffle image, and the
    recurrence bracketings reproduce the canonical images.  The suite needs
    series C or D: series A has no folded letters, hence no intervals."""
    if datum.series == "A":
        raise ValueError("the arrangements suite needs series C or D")
    t0 = time.monotonic()
    cases = []
    sym = "e" if datum.series == "D" else "v"
    bracket = partial(shuffle_bracket, datum)
    for k, m in _arrangement_intervals(datum):
        reference = generator_image(datum, k, m)
        factors = _arrangement_factors(datum, k, m)
        ok = True
        witness = None
        for s in range(1, len(factors)):
            # [[y_1 ... y_s], [y_{s+1} ... y_l]], both sides left-nested
            img = bracket(reduce(bracket, factors[:s]), reduce(bracket, factors[s:]))
            if img != reference:
                ok = False
                witness = f"split {s}: " + _shuffle_witness(img, reference)
                break
        cases.append(CaseResult(f"splits {sym}[{k},{m}]", ok, witness))
    # recurrence cross-checks on the fold-crossing intervals below phi(k)
    n = datum.n
    for k in range(1, n):
        for m in range(n + 1, datum.phi(k)):
            reference = generator_image(datum, k, m)
            img = _recursion_image(datum, k, m)
            ok = img == reference
            cases.append(CaseResult(
                f"recurrence {sym}[{k},{m}]", ok,
                None if ok else _shuffle_witness(img, reference)))
    return _timed("arrangements", cases, t0)


# ---------------------------------------------------------------------------
# coproduct formulas

class CoproductTerm(NamedTuple):
    i: int
    tau: object
    grouplike: tuple
    left: str
    right: str
    unbraided_coefficient: object
    braided_coefficient: object


class CoproductFormula(NamedTuple):
    """The middle part of the coproduct of one bracketed generator.

    ``terms`` lists, for each split index i, the tau coefficient, the
    group-like multidegree of the right word, the generator ids, the
    unbraided coefficient tau_i (1 - q^{-1}) and the braided coefficient
    gamma_i = tau_i (1 - q^{-1}) / p(w(i+1,m), w(k,i)).  ``braided`` is the
    reduced braided coproduct of the generator's shuffle image, which the
    terms reconstruct exactly.
    """

    series: str
    rank: int
    k: int
    m: int
    mode: str
    terms: list
    braided: BraidedTensor
    in_pbw_set: bool

    def tau_map(self) -> dict:
        return {t.i: t.tau for t in self.terms}

    def to_json_dict(self) -> dict:
        return {
            "series": self.series,
            "rank": self.rank,
            "k": self.k,
            "m": self.m,
            "mode": self.mode,
            "in_pbw_set": self.in_pbw_set,
            "terms": [
                {
                    "i": t.i,
                    "tau": str(t.tau),
                    "grouplike": list(t.grouplike),
                    "left": t.left,
                    "right": t.right,
                    "coefficient": str(t.unbraided_coefficient),
                }
                for t in self.terms
            ],
        }

    def text_lines(self) -> list:
        sym = "e" if self.series == "D" else "v"
        gen = f"{sym}[{self.k},{self.m}]"
        lines = [f"Delta({gen}) = {gen} (x) 1 + g[{self.k},{self.m}] (x) {gen}"]
        for t in self.terms:
            lines.append(
                f"  + tau_{t.i} (1-q^-1) g[{self.k},{t.i}] {t.left} (x) {t.right}"
                f"   tau_{t.i} = {t.tau}"
                f"   grouplike deg {list(t.grouplike)}")
        return lines


def coproduct_formula(datum: QuantumDatum, k: int, m: int,
                      mode: str = "assert") -> CoproductFormula:
    """Verify (assert) or recover (discover) the coproduct of v/e[k,m].

    Split i contributes gamma_i = tau_i (1 - q^{-1}) / p(w(i+1,m), w(k,i))
    times the generator tensor v/e[i+1,m] (x) v/e[k,i]; both modes share
    this step.  assert reads tau_i from the tau table, which discover never
    reads: discover solves tau_i with one exact division, the coproduct's
    coefficient c at the first pair of the tensor against the product c'
    of the two images' first coefficients, tau_i = c p / (c' (1 - q^{-1})),
    or 0 if the pair is absent.  The split's terms are then formed as
    (gamma_i cl) cr, with gamma_i cl made once per left term, so each
    tensor pair costs one product.  Both modes then check one exact
    equality: the scaled tensors sum to the reduced braided coproduct,
    which proves each split proportional and leaves no term over.
    """
    if mode not in ("assert", "discover"):
        raise ValueError(f"unknown coproduct mode {mode!r}; "
                         "choose 'assert' or 'discover'")
    datum._check_interval(k, m)
    actual = braided_coproduct(generator_image(datum, k, m), reduced=True)
    qfac = datum.one() - datum.q_power(-1)
    taus = tau_table(datum, k, m) if mode == "assert" else None
    sym = "e" if datum.series == "D" else "v"
    terms = []
    summed: dict = {}
    for i in range(k, m):
        lword = datum.series_word(i + 1, m)
        rword = datum.series_word(k, i)
        left = generator_image(datum, i + 1, m).terms
        right = generator_image(datum, k, i).terms
        p_lr = datum.p_words(lword, rword)
        if mode == "discover":
            zl, cl = next(iter(left.items()), (None, None))
            zr, cr = next(iter(right.items()), (None, None))
            cact = actual.terms.get((zl, zr))
            tau = (datum.zero() if cact is None
                   else cact * p_lr / (cl * cr * qfac))
        else:
            tau = taus[i]
        unbraided = tau * qfac
        gamma = unbraided / p_lr
        if gamma:
            for zl, cl in left.items():
                gcl = gamma * cl
                add_terms(summed, (((zl, zr), gcl * cr)
                                   for zr, cr in right.items()))
        terms.append(CoproductTerm(i, tau, datum.multidegree(rword),
                                   f"{sym}[{i + 1},{m}]", f"{sym}[{k},{i}]",
                                   unbraided, gamma))
    formula = BraidedTensor._fresh(summed)
    if formula != actual:
        raise NonProportionalProjection(
            f"({k},{m}): the split terms do not sum to the braided coproduct: "
            + _first_diff(formula.terms, actual.terms, tensor_pair_str))
    return CoproductFormula(datum.series, datum.n, k, m, mode, terms, actual,
                            is_pbw_interval(datum, k, m))


_FORM_BITS = 128  # B: Kronecker forms are read at q = 2^B


def _form_mul(f, g):
    """The Kronecker form of a product, with the l1 product as its l1
    bound; None if a form is missing."""
    if f is None or g is None:
        return None
    return f[0] + g[0], f[1] + g[1], f[2] * g[2], f[3] * g[3]


def _forms_agree(f, g, a, bits: int):
    """Whether the scalars with Kronecker forms f and g multiply to the one
    with form a; None when a form is missing or l1(f) l1(g) + l1(a) is not
    below 2^(bits-1), where values at 2^bits may collide."""
    if f is None or g is None or a is None or (f[2] * g[2] + a[2]) >> (bits - 1):
        return None
    return f[0] + g[0] == a[0] and f[1] + g[1] == a[1] and f[3] * g[3] == a[3]


def _interval_record(datum: QuantumDatum, records: dict, k: int, m: int, bits: int) -> tuple:
    """The record of the interval (k, m), memoised in ``records``: the
    forms {z: (c, Kronecker form of c)} over the terms of
    generator_image(k, m), the physical letters of w(k,m), and, over a
    table of monic monomials, its column key sums col[a] = sum over b in
    w(k,m) of the key of p(a, b)^-1, indexed by physical letters as the
    datum's key rows are (None over any other table)."""
    out = records.get((k, m))
    if out is None:
        idx = tuple(map(datum._index.__getitem__, datum.series_word(k, m)))
        cols = None if datum._inv_keys is None else (
            None, *(sum(map(row.__getitem__, idx)) for row in datum._inv_keys[1:]))
        out = records[(k, m)] = ({z: (c, kronecker_form(c, bits))
                                  for z, c in generator_image(datum, k, m).terms.items()},
                                 idx, cols)
    return out


def _split_sum_holds(datum: QuantumDatum, k: int, m: int) -> bool:
    """Whether the split terms gamma_i cl cr of the tau table are exactly
    the reduced braided coproduct of v/e[k,m]: the verdict of
    ``coproduct_formula(datum, k, m, "assert")``, mostly without a Laurent
    product and without building that coproduct.

    The coproduct is deconcatenation: its pairs are the cuts (zl, zr) of
    the comonomials z = zl zr of image(k, m), each with the coefficient a
    of z, so it has the sum over z of |z| - 1 pairs.  For each split i with
    tau_i != 0, each term cl (zl) of image(i+1, m) and each cr (zr) of
    image(k, i), zl zr must be a comonomial of image(k, m), cut there by no
    earlier split, with a = gamma_i cl cr; at the end every cut must be
    reached.  Each product is compared on Kronecker forms (module
    docstring), with one big-integer product per pair: gamma_i's form is
    that of tau_i (1 - q^-1), memoised per tau, shifted by the packed key
    of the monic monomial p(w(i+1,m), w(k,i)), minus the right record's
    column sums over the left record's letters (:func:`_interval_record`).
    Like ``p_words``, every split raises ExponentOutOfRange where that key
    might pass EXP_LIMIT.  Where the forms do not decide, the scalars are
    multiplied.
    """
    bits = _FORM_BITS
    # on the datum: the interval records, gamma forms by tau, 1 - q^-1
    if not datum._forms:
        datum._forms.append(({}, {}, datum.one() - datum.q_power(-1)))
    records, gammas, qfac = datum._forms[0]
    whole = _interval_record(datum, records, k, m, bits)[0]
    taus = tau_table(datum, k, m)
    reached = set()
    for i in range(k, m):
        left, lidx, _ = _interval_record(datum, records, i + 1, m, bits)
        right, ridx, cols = _interval_record(datum, records, k, i, bits)
        if cols is not None:
            bound = len(lidx) * len(ridx) * datum._p_bound
            if bound > EXP_LIMIT:
                raise ExponentOutOfRange(f"p(u, v) may reach exponent {bound}, past +-{EXP_LIMIT}")
        tau = taus[i]
        if not tau:
            continue
        ft = gammas.get(tau, False)
        if ft is False:
            ft = gammas[tau] = kronecker_form(tau * qfac, bits)
        fg = None
        if ft is not None:
            # dividing by the monomial of that key shifts the form
            key = -sum(map(cols.__getitem__, lidx))
            e = ((key + 2 ** 31) & 0xFFFFFFFF) - 2 ** 31
            fg = (ft[0] - (key - e), ft[1] - e, ft[2], ft[3])
        gamma = None
        for zl, (cl, fl) in left.items():
            fgl = _form_mul(fg, fl)
            for zr, (cr, fr) in right.items():
                pair = (zl, zr)
                a, fa = whole.get(zl + zr, (None, None))
                if a is None or pair in reached:
                    return False
                reached.add(pair)
                same = _forms_agree(fgl, fr, fa, bits)
                if same is None:
                    if gamma is None:
                        gamma = tau * qfac / datum.p_words(lidx, ridx)
                    same = gamma * cl * cr == a
                if not same:
                    return False
    return len(reached) == sum(len(z) - 1 for z in whole)


def _coproduct_case(datum: QuantumDatum, k: int, m: int,
                    name: str) -> CaseResult:
    """Check the coproduct of v/e[k,m] by the split sum of the tau table
    (:func:`_split_sum_holds`), which reads each pair off the image and
    builds no coproduct; only a failure runs discover, whose taus,
    compared with the tau table, give the verdict and the witness.

    The two verdicts agree.  A holding split sum is the passing assert
    formula: it puts gamma_i cl cr at the first pair of split i, which no
    other split reaches (the right words' multidegrees differ), so discover
    divides out the table's tau_i; a split whose tensor vanishes has
    tau_i = 0 in the table (e[n,n] of series D).  A discover pass with the
    table's taus is the assert formula.
    """
    if _split_sum_holds(datum, k, m):
        return CaseResult(name, True)
    try:
        got = coproduct_formula(datum, k, m, mode="discover").tau_map()
    except (NonProportionalProjection, NonDivisible) as exc:
        return CaseResult(name, False, str(exc))
    want = tau_table(datum, k, m)
    if got != want:
        return CaseResult(name, False,
                          _first_diff(got, want, lambda i: f"tau_{i}"))
    return CaseResult(name, True)


def verify_coproducts(datum: QuantumDatum) -> VerificationReport:
    """The coproduct formula holds with the closed-form tau for every
    interval 1 <= k <= m < 2n (k <= m <= n for series A).  Each interval
    is checked once by the split sum of the tau table, which reads each
    tensor pair off the interval's image and decides it on Kronecker forms
    where they decide (:func:`_split_sum_holds`); only a failing one is
    recomputed in discover mode, which builds the reduced coproduct, so its
    witness names the first tau that differs from the table, or the first
    tensor pair the formula misses."""
    t0 = time.monotonic()
    top = datum.max_letter
    sym = "e" if datum.series == "D" else "v"

    def name(k, m):
        tag = "" if is_pbw_interval(datum, k, m) else " (outside PBW set)"
        return f"coproduct {sym}[{k},{m}]{tag}"

    cases = [_coproduct_case(datum, k, m, name(k, m))
             for k in range(1, top + 1) for m in range(k, top + 1)]
    return _timed("coproduct", cases, t0)


def verify_an_no_exceptions(datum: QuantumDatum) -> VerificationReport:
    """Series A: every coproduct holds with tau_i = 1 for all i; the tau
    table is all ones there, so a failing interval's witness is the first
    tau discover finds to differ from 1, or the first tensor pair missed."""
    if datum.series != "A":
        raise ValueError("verify_an_no_exceptions needs a series-A datum")
    t0 = time.monotonic()
    cases = [_coproduct_case(datum, k, m, f"v[{k},{m}]")
             for k in range(1, datum.n + 1) for m in range(k, datum.n + 1)]
    return _timed("an-no-exceptions", cases, t0)


# ---------------------------------------------------------------------------
# identity suite

def _random_scalar(datum: QuantumDatum, rng: random.Random):
    c = rng.choice([-3, -2, -1, 1, 2, 3])
    return datum.integer(c) * datum.q_power(rng.randint(-1, 1))


def _random_homogeneous(datum: QuantumDatum, rng: random.Random,
                        max_len: int = 3) -> FreeElem:
    length = rng.randint(1, max_len)
    word = tuple(rng.randint(1, datum.max_letter) for _ in range(length))
    elem = FreeElem.word(word, _random_scalar(datum, rng))
    if length > 1 and rng.random() < 0.5:
        perm = list(word)
        rng.shuffle(perm)
        extra = elem + FreeElem.word(tuple(perm), _random_scalar(datum, rng))
        if extra:
            elem = extra
    return elem


def _p_of(datum, u, v):
    """p(u, v) read off one word (or comonomial) of each operand; a zero
    operand reads as the empty word, since every term p scales then
    vanishes."""
    return datum.p_words(next(iter(u.terms), ()), next(iter(v.terms), ()))


def verify_identity_suite(datum: QuantumDatum, seed: int = 0,
                          count: int = 100) -> VerificationReport:
    """Randomized exact checks of the bracket identities.

    Each identity is written once, over a bracket and a product.  The
    unconditional identities (Jacobi, antisymmetry, both ad-identities)
    are verified as free-algebra equalities.  The two conditional
    identities need a vanishing bracket as hypothesis; nonzero free-algebra
    witnesses of [u,w] = 0 do not exist over the generic datum, so the
    guard is a Serre chain's outer operands, whose bracket vanishes in the
    shuffle image, and the identities hold in that image, U_q^+ itself.
    So both the guard and the identity are checked on the images of the
    three operands, with the shuffle bracket and the shuffle product.
    """
    t0 = time.monotonic()
    rng = random.Random(seed)
    guards = [(u, w) for _, u, w in _serre_chains(datum)]
    p = partial(_p_of, datum)
    one = datum.one()

    def free(size, max_len):
        return lambda: ([_random_homogeneous(datum, rng, max_len)
                         for _ in range(size)], None)

    def guarded(slot):
        """A Serre chain's outer operands, each scaled, as u and the operand
        in ``slot`` (1: v, 2: w), so their bracket is the guard."""
        def draw():
            a, b = (x.scale(_random_scalar(datum, rng)) for x in rng.choice(guards))
            ops = [a, _random_homogeneous(datum, rng)]
            ops.insert(slot, b)
            return ops, slot
        return draw

    def sides(br, mul):
        """lhs and rhs of each identity over the bracket br and product mul."""
        return [
            (lambda u, v, w: br(br(u, v), w),
             lambda u, v, w: (br(u, br(v, w))
                              + br(br(u, w), v).scale(p_wv_inv := p(w, v) ** -1)
                              + mul(br(u, w), v).scale(p(v, w) - p_wv_inv))),
            (lambda u, v: br(u, v),
             lambda u, v: (-br(v, u).scale(p_uv := p(u, v))
                           + mul(u, v).scale(one - p_uv * p(v, u)))),
            (lambda u, v, w: br(br(u, v), w),
             lambda u, v, w: br(u, br(v, w))),
            (lambda u, v, w: br(u, br(v, w)),
             lambda u, v, w: (-br(br(u, w), v).scale(p_vw := p(v, w))
                              + mul(v, br(u, w)).scale(p(u, v) * (one - p_vw * p(w, v))))),
            (lambda u, v, w: br(mul(u, v), w),
             lambda u, v, w: mul(br(u, w), v).scale(p(v, w)) + mul(u, br(v, w))),
            (lambda u, v, w: br(u, mul(v, w)),
             lambda u, v, w: mul(br(u, v), w) + mul(v, br(u, w)).scale(p(u, v))),
        ]

    image_br = partial(shuffle_bracket, datum)
    identities = zip(
        (("jacobi", free(3, 3)), ("antisymmetry", free(2, 3)),
         ("conditional-jacobi", guarded(2)), ("conditional-swap", guarded(1)),
         ("ad-left", free(3, 2)), ("ad-right", free(3, 2))),
        sides(partial(skew_bracket, datum), operator.mul),
        sides(image_br, partial(shuffle_mul, datum)))
    cases = []
    for (name, draw), free_sides, image_sides in identities:
        witness = None
        for instance in range(count):
            ops, slot = draw()
            if slot is None:
                args, (lhs, rhs) = ops, free_sides
            else:
                args, (lhs, rhs) = [eval_free(datum, op) for op in ops], image_sides
                if image_br(args[0], args[slot]):
                    witness = f"instance {instance}: guard [u,{'uvw'[slot]}] does not vanish"
                    break
            got, want = lhs(*args), rhs(*args)
            if got != want:
                witness = (f"instance {instance}: "
                           + " ".join(f"{x}={op!r}" for x, op in zip("uvw", ops))
                           + ("" if slot is None else ": " + _shuffle_witness(got, want)))
                break
        cases.append(CaseResult(f"{name} x{count}", witness is None, witness))
    return _timed("identities", cases, t0)


# ---------------------------------------------------------------------------
# PBW independence certificate

_RANK_PRIMES = (2147483647, 2147483629)


class NonUnitModP(ArithmeticError):
    """Raised when a numeric point does not reduce modulo a prime: q or
    some p_ij has a numerator or denominator divisible by it."""


def _residue_map(datum: QuantumDatum, p: int):
    """The map from the rationals of the numeric ``datum`` to their residues
    mod the prime ``p``, as ints in [0, p).

    Raises ``NonUnitModP`` naming the first of q, p_1_1, p_1_2, ... that is
    not a unit mod p, and ``ValueError`` for a datum whose scalars are not
    rationals.
    """
    if datum._p_fracs is None:
        raise ValueError(f"reduction mod {p} needs a datum over the rationals, not {datum!r}")
    named = [("q", datum.q)] + [(f"p_{i}_{j}", x) for i, row in enumerate(datum.p, 1)
                                for j, x in enumerate(row, 1)]
    for name, x in named:
        if x.numerator % p == 0 or x.denominator % p == 0:
            raise NonUnitModP(f"{name} = {x} is not a unit mod {p}")
    return lambda x: x.numerator * pow(x.denominator, -1, p) % p


def _modp_first_dependent(rows: list, p: int):
    """Incremental row reduction mod p; returns (rank, first dependent row).

    Each row is a sparse {column: int} dict, read mod p.  A pivot is a row
    as reduced, not rescaled, keyed by its smallest column, so eliminating a
    row's smallest column creates only larger ones.  A row of residues in
    [1, p) is the caller's dict, copied only when it meets a pivot, whose
    leading value (a unit mod p) is then inverted; no input row changes.
    """
    pivots: dict = {}  # smallest column -> its row, as reduced
    for idx, row in enumerate(rows):
        r = row
        if not (0 < min(row.values(), default=0) and max(row.values()) < p):
            r = {col: s for col, v in row.items() if (s := v % p)}
        while r:
            col = min(r)
            pivot = pivots.get(col)
            if pivot is None:
                break
            if r is row:
                r = dict(row)
            f = r[col] * pow(pivot[col], -1, p) % p
            for c, v in pivot.items():
                s = (r.get(c, 0) - f * v) % p
                if s:
                    r[c] = s
                else:
                    r.pop(c, None)
        if not r:
            return idx, idx
        pivots[col] = r
    return len(rows), None


def _products(datum: QuantumDatum, gens: list, budget: int, p: int):
    """(exponents, terms) of every ordered product of the generators
    ``gens`` with weighted degree <= ``budget``, in lex order; the terms
    map comonomials to the nonzero residues mod p, ints in [0, p), of the
    product's image at the rational point ``datum``.

    The exponents advance like an odometer: the next product takes one
    more copy of the last factor that still fits and drops the factors
    after it, at the cost of one pass of the interleaving loops of
    :func:`qborel.shuffle._interleavings` over the image so far and that
    factor.  ``degree[j]`` and ``image[j]`` belong to the product of
    the factors up to j.  The walk needs no recursion, and no closure,
    whose reference cycle would keep the images alive after it.

    The datum's p^-1 table, in its layout, and the memoised rational
    generator images are mapped once to their residues, dropping zero ones;
    each product is taken over the integers and reduced mod p, dropping its
    zero entries, before a later product extends it.  Raises ``NonUnitModP``
    before any image is computed if the point does not reduce mod p.
    """
    residue = _residue_map(datum, p)
    sizes = [g.degree for g in gens]
    # a generator above the degree bound is never a factor
    factors = [{z: s for z, c in generator_image(datum, g.k, g.m).terms.items()
                if (s := residue(c))} if size <= budget else None
               for g, size in zip(gens, sizes)]
    table = _letter_table(map(residue, row[1:]) for row in datum._p_inv[1:])
    n = len(gens)
    combo, degree, image = [0] * n, [0] * n, [{(): 1}] * n
    while True:
        yield tuple(combo), image[-1]
        j = n - 1
        while j >= 0 and degree[j] + sizes[j] > budget:
            j -= 1
        if j < 0:
            return
        prod = {z: s for z, c in _interleavings(table, image[j], factors[j], None).items()
                if (s := c % p)}
        combo[j:] = [combo[j] + 1] + [0] * (n - j - 1)
        degree[j:] = [degree[j] + sizes[j]] * (n - j)
        image[j:] = [prod] * (n - j)


def pbw_product_rows(datum: QuantumDatum, max_degree: int, p: int):
    """Shuffle images mod the prime ``p`` of all ordered PBW power products
    of bounded degree, at the rational point ``datum``.

    Returns (combos, generator labels, rows): the exponent tuples in lex
    order, and for each the map from comonomials to the ints in [0, p)
    that are the nonzero residues of its image (see :func:`_products`).
    Raises ``NonUnitModP`` if q or some p_ij is not a unit mod p, and
    ``ValueError`` for a datum that is not rational.
    """
    gens = pbw_generators(datum)
    combos, rows = [], []
    for combo, terms in _products(datum, gens, max_degree, p):
        combos.append(combo)
        rows.append(terms)
    return combos, [g.label for g in gens], rows


def verify_pbw_independence(datum: QuantumDatum, max_degree: int,
                            seed: int = 0) -> VerificationReport:
    """Certify linear independence of ordered PBW products of bounded degree.

    Builds every ordered product's shuffle image at a rational point,
    reduced modulo a large prime (:func:`pbw_product_rows`), and certifies
    full row rank of the coefficient matrix over the comonomial basis:
    since reduction mod the prime is a ring map on the point, full rank
    there is a lower bound for the rational rank, so the certificate is
    exact.  Every row is built before the elimination starts, which takes
    the rows in the products' lex order and keys each pivot by its
    lex-smallest comonomial: every row is homogeneous, so inside a
    multidegree block that is the length-then-lex order, and the rank and
    the first dependent row do not depend on the order.  A deficient point,
    or one with q or some p_ij not a unit mod the prime, is retried at a
    second seed (and a different prime), since deficiency at a point never
    falsifies generic independence: the superseded attempt keeps its
    witness but counts as passed, so the last attempt decides the report.
    """
    t0 = time.monotonic()
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    attempts = []
    for attempt, p in enumerate(_RANK_PRIMES):
        at_seed = seed + attempt
        if datum.mode == "numeric" and attempt == 0:
            point = datum
        else:
            point = make_datum(datum.series, datum.n, "numeric", seed=at_seed)
        try:
            combos, labels, rows = pbw_product_rows(point, max_degree, p)
        except NonUnitModP as exc:
            attempts.append(CaseResult(f"rank at seed {at_seed}: point does not reduce mod {p}",
                                       False, f"NonUnitModP: {exc}"))
            continue
        rank, dep = _modp_first_dependent(rows, p)
        name = (f"rank at seed {at_seed}: {rank}/{len(rows)} products, "
                f"{len(set().union(*rows))} comonomials, degree <= {max_degree}")
        if dep is None:
            attempts.append(CaseResult(name, True))
            break
        combo_desc = " * ".join(
            f"{lbl}^{e}" for lbl, e in zip(labels, combos[dep]) if e) or "1"
        attempts.append(CaseResult(
            name, False,
            f"DegenerateEvaluationPoint: product {combo_desc} dependent"))
    # a retry supersedes the attempt before it, which keeps its witness
    attempts = [c._replace(passed=True) for c in attempts[:-1]] + attempts[-1:]
    return _timed("pbw-independence", attempts, t0)


# ---------------------------------------------------------------------------
# suite dispatch

SUITES = ("serre", "identities", "arrangements", "coproduct", "pbw", "sigma", "all")


def run_suites(datum: QuantumDatum, suite: str, seed: int = 0,
               max_degree: int = 4, count: int = 100) -> list:
    """Run one named suite (or all of them); returns a list of reports."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    reports = []
    if suite in ("sigma", "all"):
        reports.append(verify_sigma_closed_form(datum))
    if suite in ("serre", "all"):
        reports.append(verify_serre(datum))
    if suite in ("identities", "all"):
        reports.append(verify_identity_suite(datum, seed=seed, count=count))
    # an explicit request on series A reaches the suite, which refuses it
    if suite == "arrangements" or (suite == "all" and datum.series != "A"):
        reports.append(verify_arrangements(datum))
    if suite in ("coproduct", "all"):
        if datum.series == "A":
            reports.append(verify_an_no_exceptions(datum))
        else:
            reports.append(verify_coproducts(datum))
    if suite in ("pbw", "all"):
        reports.append(verify_pbw_independence(datum, max_degree, seed=seed))
    return reports
