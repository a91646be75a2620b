"""Quantum datum for the series A_n, C_n, D_n.

A datum bundles the Cartan matrix, its symmetrizers d_i, and the n x n
bicharacter table p_ij subject to

    p_ii = q^{d_i},   p_ij * p_ji = q^{d_i * a_ij}.

In the multiparameter realization the entries above the diagonal are free
variables t_ij and the entries below are forced; the one-parameter mode
sets t_ij = q^{d_i a_ij}, and the numeric mode takes q and the t_ij at a
fixed rational point.
The datum also owns the folded letter alphabet x_1, ..., x_{2n-1} with
x_i = x_{2n-i} and the distinguished ascending words v(k,m) (series A, C)
and e(k,m), e'(k,m) (series D).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .coeffring import (EXP_LIMIT, LaurentPoly, MissingAssignment, VarSet,
                        ZeroAssignment, _laurent)

SERIES = ("A", "C", "D")
MODES = ("multiparameter", "one-parameter", "numeric")


class InvalidRank(ValueError):
    """Raised for ranks outside the supported range of a series."""


class NumericAssignmentHitsExcludedRoot(ValueError):
    """Raised when a numeric q lands on an excluded root of unity."""


class IndexOutOfRange(IndexError):
    """Raised for letters or word indices outside the datum's range."""


def cartan_data(series: str, n: int):
    """Cartan matrix a_ij and symmetrizers d_i for the series."""
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = 2
    if series == "A":
        for i in range(n - 1):
            a[i][i + 1] = a[i + 1][i] = -1
        d = [1] * n
    elif series == "C":
        for i in range(n - 2):
            a[i][i + 1] = a[i + 1][i] = -1
        if n >= 2:
            a[n - 2][n - 1] = -2
            a[n - 1][n - 2] = -1
        d = [1] * (n - 1) + [2]
    elif series == "D":
        for i in range(n - 2):
            a[i][i + 1] = a[i + 1][i] = -1
        a[n - 2][n - 1] = a[n - 1][n - 2] = 0
        a[n - 3][n - 1] = a[n - 1][n - 3] = -1
        d = [1] * n
    else:
        raise ValueError(f"unknown series {series!r}")
    return tuple(tuple(row) for row in a), tuple(d)


def default_assignment(n: int, seed: int = 0) -> dict:
    """Rational evaluation point: q = 5, 7 or 9 by seed mod 3, and the t_ij
    at small odd primes.

    Different seeds rotate through the prime pool so that a degenerate
    point can be retried at a genuinely different one.
    """
    primes = [7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
              71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137]
    assignment = {"q": Fraction(5 + 2 * (seed % 3))}
    pos = seed * 7
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            assignment[f"t_{i}_{j}"] = Fraction(primes[pos % len(primes)])
            pos += 1
    return assignment


class QuantumDatum:
    """Immutable quantum datum; construct through :func:`make_datum`."""

    __slots__ = ("series", "n", "mode", "cartan", "d", "varset", "assignment",
                 "p", "q", "_p_inv", "_b", "_index", "_p_keys", "_p_bound",
                 "_p_fracs", "_q_pow", "_one", "_zero", "__weakref__")

    def __init__(self, series, n, mode, cartan, d, varset, assignment, p, q):
        self.series = series
        self.n = n
        self.mode = mode
        self.cartan = cartan
        self.d = d
        self.varset = varset
        self.assignment = assignment
        self.p = p
        self.q = q
        self._p_inv = tuple(tuple(x ** -1 for x in row) for row in p)
        # p(x, y) p(y, x) = q^{b(x, y)} with b(x, y) = d_x a_xy, symmetric
        self._b = tuple(tuple(di * a for a in row) for di, row in zip(d, cartan))
        # letter -> 0-based physical index by the fold i -> 2n - i above n;
        # slot 0 is no letter
        self._index = (None,) + tuple((i if i <= n else 2 * n - i) - 1
                                      for i in range(1, self.max_letter + 1))
        # the packed keys of p when every entry is a monomial with
        # coefficient 1 (the Laurent tables of make_datum), else None
        self._p_keys = self._p_bound = None
        # the numerators and denominators of p when every entry is a
        # Fraction (the numeric tables of make_datum), else None
        self._p_fracs = None
        if all(isinstance(x, LaurentPoly) and list(x.terms.values()) == [1]
               for row in p for x in row):
            self._p_keys = tuple(tuple(next(iter(x.terms)) for x in row) for row in p)
            self._p_bound = max(x._bound for row in p for x in row)
        elif all(isinstance(x, Fraction) for row in p for x in row):
            self._p_fracs = (tuple(tuple(x.numerator for x in row) for row in p),
                             tuple(tuple(x.denominator for x in row) for row in p))
        # exponent -> q ** exponent, filled on first use
        self._q_pow = {}
        self._one = q ** 0
        self._zero = q * 0
        self._verify_relations()

    # -- scalars -----------------------------------------------------------
    #
    # Every scalar derives from q, so a datum works the same over Laurent
    # polynomials and over their rational specialization.

    def one(self):
        return self._one

    def zero(self):
        return self._zero

    def integer(self, c: int):
        return self._one * c

    def q_power(self, exp: int):
        out = self._q_pow.get(exp)
        if out is None:
            out = self._q_pow[exp] = self.q ** exp
        return out

    # -- the folded alphabet -------------------------------------------------

    @property
    def max_letter(self) -> int:
        return self.n if self.series == "A" else 2 * self.n - 1

    def check_letter(self, i: int) -> int:
        if not (1 <= i <= self.max_letter):
            raise IndexOutOfRange(
                f"letter x_{i} outside 1..{self.max_letter} for {self.series}_{self.n}"
            )
        return i

    def phi(self, i: int) -> int:
        """The folding reflection 2n - i identifying x_i with x_{2n-i}."""
        if self.series == "A":
            raise IndexOutOfRange("series A has no folded letters")
        return 2 * self.n - i

    def physical(self, i: int) -> int:
        if not 0 < i < len(self._index):
            self.check_letter(i)
        return self._index[i] + 1

    # -- bicharacter ---------------------------------------------------------

    def p_phys(self, i: int, j: int):
        return self.p[i - 1][j - 1]

    def _indices(self, letters: Sequence[int]) -> list:
        """The 0-based physical index of each letter, IndexOutOfRange for
        a letter outside 1..max_letter."""
        # a letter below 1 would wrap the index tuple, so it is refused first
        try:
            if min(letters, default=1) > 0:
                return [self._index[a] for a in letters]
        except IndexError:
            pass
        raise IndexOutOfRange(f"letters {tuple(letters)} outside 1..{self.max_letter} "
                              f"for {self.series}_{self.n}")

    def p_words(self, u: Sequence[int], v: Sequence[int]):
        """p(u, v), the product of p over all letter pairs: the one
        bicharacter product.  It depends only on the multidegrees.

        Over a table of monic monomials the packed keys of the pairs are
        summed into one monomial; over a rational table the numerators and
        the denominators are multiplied as ints into one Fraction; other
        scalars are multiplied pair by pair.
        """
        rows, cols = self._indices(u), self._indices(v)
        keys = self._p_keys
        if keys is not None:
            bound = len(rows) * len(cols) * self._p_bound
            if bound <= EXP_LIMIT:
                key = sum(sum(map(keys[i].__getitem__, cols)) for i in rows)
                return _laurent(self.varset, {key: 1}, bound)
        if self._p_fracs is not None:
            nums, dens = self._p_fracs
            num = den = 1
            for i in rows:
                nrow, drow = nums[i], dens[i]
                for j in cols:
                    num *= nrow[j]
                    den *= drow[j]
            return Fraction(num, den)
        out = self._one
        for i in rows:
            row = self.p[i]
            for j in cols:
                out = out * row[j]
        return out

    def multidegree(self, letters: Sequence[int]) -> tuple:
        index = self._index
        deg = [0] * self.n
        for i in letters:
            if not 0 < i < len(index):
                self.check_letter(i)
            deg[index[i]] += 1
        return tuple(deg)

    # -- distinguished words ---------------------------------------------------

    def word_v(self, k: int, m: int) -> tuple:
        """The ascending word x_k x_{k+1} ... x_m (series A and C)."""
        self._check_interval(k, m)
        return tuple(range(k, m + 1))

    def word_e(self, k: int, m: int) -> tuple:
        """The ascending series-D word, skipping the reflected chain letter.

        For k < n-1 < m the letter x_{n-1} is absent; for k = n the letter
        x_{n+1} is absent; e(n-1,n) = e(n,n) = e(n,n+1) = x_n.
        """
        self._check_interval(k, m)
        n = self.n
        if m < n or k > n:
            return tuple(range(k, m + 1))
        if k < n - 1:
            return tuple(range(k, n - 1)) + tuple(range(n, m + 1))
        if k == n - 1:
            return tuple(range(n, m + 1))
        # k == n
        return (n,) + tuple(range(n + 2, m + 1))

    def word_e_prime(self, k: int, m: int) -> tuple:
        """e(k,m) with the subword x_n x_{n+1} replaced by x_{n-1} x_n."""
        w = self.word_e(k, m)
        n = self.n
        for s in range(len(w) - 1):
            if w[s] == n and w[s + 1] == n + 1:
                return w[:s] + (n - 1, n) + w[s + 2:]
        return w

    def series_word(self, k: int, m: int) -> tuple:
        return self.word_e(k, m) if self.series == "D" else self.word_v(k, m)

    def has_nn1(self, k: int, m: int) -> bool:
        """True when e(k,m) contains the subword x_n x_{n+1}, i.e. k < n < m."""
        return self.series == "D" and k < self.n < m

    def _check_interval(self, k: int, m: int) -> None:
        if not 1 <= k <= m < len(self._index):
            raise IndexOutOfRange(
                f"interval ({k},{m}) outside 1 <= k <= m <= {self.max_letter}"
            )

    # -- construction-time checks ----------------------------------------------

    def _verify_relations(self) -> None:
        n, q = self.n, self.q
        for i in range(n):
            if self.p[i][i] != q ** self.d[i]:
                raise AssertionError(f"p_{i+1}{i+1} != q^d_{i+1}")
            for j in range(n):
                if i != j and self.d[i] * self.cartan[i][j] != self.d[j] * self.cartan[j][i]:
                    raise AssertionError("Cartan matrix is not symmetrizable")
                if i != j and self.p[i][j] * self.p[j][i] != q ** (self.d[i] * self.cartan[i][j]):
                    raise AssertionError(f"p_{i+1}{j+1} p_{j+1}{i+1} constraint violated")
        if self.series == "C" and n >= 2:
            if self.p[n - 1][n - 1] != q ** 2:
                raise AssertionError(f"C_{n}: p_{n}{n} != q^2")
            if self.p[n - 2][n - 1] * self.p[n - 1][n - 2] != q ** (-2):
                raise AssertionError(f"C_{n}: p_{n-1}{n} p_{n}{n-1} != q^-2")
        if self.series == "D":
            if any(self.p[i][i] != q for i in range(n)):
                raise AssertionError(f"D_{n}: some p_ii != q")
            if self.p[n - 3][n - 1] * self.p[n - 1][n - 3] != q ** (-1):
                raise AssertionError(f"D_{n}: p_{n-2}{n} p_{n}{n-2} != q^-1")
            if self.p[n - 2][n - 1] * self.p[n - 1][n - 2] != self._one:
                raise AssertionError(f"D_{n}: p_{n-1}{n} p_{n}{n-1} != 1")

    def __repr__(self) -> str:
        return f"QuantumDatum({self.series}_{self.n}, {self.mode})"


def make_datum(series: str, n: int, mode: str = "multiparameter",
               assignment: dict | None = None, seed: int = 0) -> QuantumDatum:
    """Construct and re-verify a quantum datum at the mode's point (q, t_ij):
    p_ii = q^{d_i} and, for i < j, p_ij = t_ij and p_ji = q^{d_i a_ij} / t_ij.

    multiparameter: q and the t_ij are the Laurent variables.
    one-parameter:  t_ij = q^{d_i a_ij}, so p_ji = 1.
    numeric:        q and the t_ij are the rationals of an assignment (default
                    q = 5, 7 or 9 by seed mod 3, t_ij small primes), q not in
                    {0, +-1}, q^3 != 1, no t_ij zero; other names are ignored.
    """
    if series not in SERIES:
        raise ValueError(f"series must be one of {SERIES}")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    min_rank = 3 if series == "D" else 2
    if n < min_rank:
        raise InvalidRank(f"series {series} needs rank >= {min_rank}")

    cartan, d = cartan_data(series, n)
    vs = VarSet(n)
    if mode == "numeric":
        assignment = dict(assignment) if assignment else default_assignment(n, seed)
        for name in vs.names:
            if name not in assignment:
                raise MissingAssignment(name)
        qv = Fraction(assignment["q"])
        if qv == 0 or qv == 1 or qv == -1 or qv ** 3 == 1:
            raise NumericAssignmentHitsExcludedRoot(f"q = {qv} is excluded")
        point = []
        for name in vs.names:
            point.append(Fraction(assignment[name]))
            if point[-1] == 0:
                raise ZeroAssignment(f"{name} assigned 0; Laurent variables must be invertible")
    else:
        assignment = None
        point = [LaurentPoly.var(vs, name) for name in vs.names]
    q = point[0]
    p = [[q] * n for _ in range(n)]
    for i in range(n):
        p[i][i] = q ** d[i]
        for j in range(i + 1, n):
            qa = q ** (d[i] * cartan[i][j])
            p[i][j] = qa if mode == "one-parameter" else point[vs.t_index(i + 1, j + 1)]
            p[j][i] = qa / p[i][j]
    return QuantumDatum(series, n, mode, cartan, d, vs, assignment,
                        tuple(tuple(row) for row in p), q)


# -- structure scalars --------------------------------------------------------

def sigma(datum: QuantumDatum, k: int, m: int):
    """Self-pairing p(w, w) of the ascending word on (k, m), by definition.

    The closed form (q^2 when m = phi(k), else q) is asserted by the test
    suites, not used here, so the two stay independent.  Series D at
    (n, n) is the documented exception where the definitional value q
    differs from the closed form.
    """
    w = datum.series_word(k, m)
    return datum.p_words(w, w)


def sigma_closed_form(datum: QuantumDatum, k: int, m: int):
    """q^2 if m = phi(k) else q (series A never folds, so always q)."""
    if datum.series != "A" and m == datum.phi(k):
        return datum.q_power(2)
    return datum.q_power(1)


def mu(datum: QuantumDatum, k: int, m: int, i: int):
    """Splitting ratio p(w(k,i), w(i+1,m)) * p(w(i+1,m), w(k,i)).

    Equals sigma(k,m) * (sigma(k,i) * sigma(i+1,m))^{-1}; the equality is
    exercised by the test suites.
    """
    if not (k <= i < m):
        raise IndexOutOfRange(f"need k <= i < m, got ({k},{m},{i})")
    w1 = datum.series_word(k, i)
    w2 = datum.series_word(i + 1, m)
    return datum.p_words(w1, w2) * datum.p_words(w2, w1)
