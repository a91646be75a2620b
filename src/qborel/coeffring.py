"""Exact sparse arithmetic in the Laurent ring Z[q^{+-1}, t_ij^{+-1}],
and the sparse linear combinations built over it.

Every scalar of the package lives in this commutative ring: ``q`` is the
quantization parameter and the ``t_ij`` (one for each pair 1 <= i < j <= n)
are the free multiparameters of the bicharacter table.  Coefficients are
arbitrary-precision integers; rationals appear only when a datum is
specialized at a rational point, and then the scalars are ``Fraction``s.
Both kinds share Python's number protocol (``+ - * / **``, ``not c``,
``str(c)``), with exact division, so the algebra layers never ask which
kind they hold.  All values are immutable after construction and
all operations are pure, so they can be shared freely.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from operator import add, sub
from typing import Mapping

EXP_LIMIT = 2 ** 30 - 1  # largest |exponent|; a sum of two still fits a 32-bit slot


class VarSetMismatch(ValueError):
    """Raised when two polynomials over different variable sets are mixed."""


class NonDivisible(ArithmeticError):
    """Raised when an exact quotient does not exist in the Laurent ring."""


class ExponentOutOfRange(ValueError):
    """Raised when an exponent would leave [-EXP_LIMIT, EXP_LIMIT]."""


class DivisionByZero(ZeroDivisionError):
    """Raised when dividing by the zero polynomial."""


class MissingAssignment(KeyError):
    """Raised when evaluation lacks a value for a variable that occurs."""


class ZeroAssignment(ValueError):
    """Raised when a Laurent variable is assigned zero (it must be a unit)."""


class VarSet:
    """The variables q, t_12, t_13, ..., t_{n-1,n} of a rank-n datum.

    Variable identity is the pair (i, j) with i < j; there is no t_ji.
    Internally variables are numbered 0..nvars-1 with q first and the t_ij
    in lexicographic (i, j) order, which also fixes the canonical monomial
    order (graded lex on exponent vectors, q coordinate first).

    A monomial is stored as one int, its packed key sum_v e_v 2^(32 v):
    variable v owns the 32-bit slot v, in balanced (signed) digits.  Within
    the exponent range [-EXP_LIMIT, EXP_LIMIT] the sum and the difference
    of two keys are the keys of the product and the quotient, and ``-key``
    is the key of the inverse.
    """

    __slots__ = ("n", "names", "_pos", "_slots", "_bias")

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("rank must be a positive integer")
        self.n = n
        names = ["q"]
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                names.append(f"t_{i}_{j}")
        self.names = tuple(names)
        self._pos = {nm: k for k, nm in enumerate(names)}
        self._slots = struct.Struct(f"<{len(names)}i")
        # 2^31 in every slot: adding it turns balanced digits into offset ones
        self._bias = int.from_bytes(b"\0\0\0\x80" * len(names), "little")

    @property
    def nvars(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._pos[name]
        except KeyError:
            raise KeyError(f"unknown variable {name!r} for rank {self.n}") from None

    def t_index(self, i: int, j: int) -> int:
        if not (1 <= i < j <= self.n):
            raise KeyError(f"no variable t_{i}_{j} at rank {self.n}")
        return self._pos[f"t_{i}_{j}"]

    def pack(self, exps) -> int:
        """The packed key of a dense exponent vector; range-checked."""
        if len(exps) != len(self.names):
            raise ValueError(f"expected {len(self.names)} exponents, got {len(exps)}")
        if max(map(abs, exps)) > EXP_LIMIT:
            raise ExponentOutOfRange(f"exponent outside +-{EXP_LIMIT} in {tuple(exps)}")
        # the int32 bytes of e, read unsigned, are the offset digit e + 2^31
        # with bit 31 flipped; the bias flips it back, then is taken off
        return (int.from_bytes(self._slots.pack(*exps), "little") ^ self._bias) - self._bias

    def unpack(self, key: int) -> tuple:
        """The dense exponent vector of a packed key (the inverse of pack)."""
        # adding the bias gives the offset digits e + 2^31; flipping bit 31
        # leaves the int32 bytes of e
        return self._slots.unpack(((key + self._bias) ^ self._bias).to_bytes(self._slots.size, "little"))

    def __eq__(self, other) -> bool:
        return isinstance(other, VarSet) and self.n == other.n

    def __hash__(self) -> int:
        return hash(("VarSet", self.n))

    def __repr__(self) -> str:
        return f"VarSet(n={self.n})"


def _grlex_key(exps: tuple) -> tuple:
    return (sum(exps), exps)


class LaurentPoly:
    """A canonical sparse element of Z[q^{+-1}, t_ij^{+-1}].

    ``terms`` maps packed monomial keys (see :class:`VarSet`) to nonzero
    integer coefficients; every exponent lies in [-EXP_LIMIT, EXP_LIMIT],
    and an operation whose result would leave that range raises
    ``ExponentOutOfRange``.  Equality is exact term-map equality; no zero
    coefficient is ever stored.  The constructor takes dense exponent
    tuples (one slot per variable, negative entries allowed).
    """

    __slots__ = ("vs", "terms", "_bound")

    def __init__(self, vs: VarSet, terms: Mapping[tuple, int]):
        pack = vs.pack
        self.vs = vs
        self.terms = {pack(e): c for e, c in terms.items() if c}
        # an upper bound on |exponent| over the terms, the range guard's input
        self._bound = _max_exponent(vs, self.terms)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, vs: VarSet) -> "LaurentPoly":
        return _laurent(vs, {}, 0)

    @classmethod
    def integer(cls, vs: VarSet, c: int) -> "LaurentPoly":
        return _laurent(vs, {0: c} if c else {}, 0)

    @classmethod
    def one(cls, vs: VarSet) -> "LaurentPoly":
        return cls.integer(vs, 1)

    @classmethod
    def var(cls, vs: VarSet, name: str, exp: int = 1) -> "LaurentPoly":
        e = [0] * vs.nvars
        e[vs.index(name)] = exp
        return cls(vs, {tuple(e): 1})

    @classmethod
    def q(cls, vs: VarSet, exp: int = 1) -> "LaurentPoly":
        return cls.var(vs, "q", exp)

    @classmethod
    def t(cls, vs: VarSet, i: int, j: int, exp: int = 1) -> "LaurentPoly":
        e = [0] * vs.nvars
        e[vs.t_index(i, j)] = exp
        return cls(vs, {tuple(e): 1})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_unit(self) -> bool:
        """True for +-(single monomial), the invertible elements of the ring."""
        return len(self.terms) == 1 and abs(next(iter(self.terms.values()))) == 1

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _check(self, other: "LaurentPoly") -> None:
        if self.vs is not other.vs and self.vs != other.vs:
            raise VarSetMismatch(f"cannot mix {self.vs!r} and {other.vs!r}")

    def _coerce(self, other):
        if isinstance(other, LaurentPoly):
            self._check(other)
            return other
        if isinstance(other, int):
            return LaurentPoly.integer(self.vs, other)
        return NotImplemented

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _laurent(self.vs, add_terms(dict(self.terms), other.terms.items()),
                        max(self._bound, other._bound))

    __radd__ = __add__

    def __neg__(self):
        return _laurent(self.vs, {k: -c for k, c in self.terms.items()}, self._bound)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """The product; a one-term operand on either side shifts the other's
        keys in one pass, and otherwise the shorter operand is the outer
        loop of the term-by-term sum."""
        if other.__class__ is LaurentPoly:
            if self.vs is not other.vs:
                self._check(other)
        else:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = self.terms, other.terms
        if not a or not b:
            return _laurent(self.vs, {}, 0)
        bound = self._bound + other._bound
        if len(a) < len(b):
            a, b = b, a
        if len(b) == 1:
            (kb, cb), = b.items()
            return _laurent(self.vs, {k + kb: c * cb for k, c in a.items()}, bound)
        out: dict = {}
        for kb, cb in b.items():
            add_terms(out, ((ka + kb, ca * cb) for ka, ca in a.items()))
        return _laurent(self.vs, out, bound)

    __rmul__ = __mul__

    def __pow__(self, exp: int):
        if not isinstance(exp, int):
            return NotImplemented
        if exp < 0:
            return self.inverse() ** (-exp)
        result = LaurentPoly.one(self.vs)
        base = self
        while exp:
            if exp & 1:
                result = result * base
            exp >>= 1
            if exp:
                base = base * base
        return result

    def inverse(self) -> "LaurentPoly":
        """Inverse of a unit (+- a single monomial)."""
        if not self.is_unit():
            raise NonDivisible(f"{self} is not a unit of the Laurent ring")
        (k, c), = self.terms.items()
        return _laurent(self.vs, {-k: c}, self._bound)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.terms == ({0: other} if other else {})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return ((self.vs is other.vs or self.vs == other.vs)
                and self.terms == other.terms)

    def __hash__(self) -> int:
        # a constant equals its integer (see __eq__), so it must hash like it
        if not self.terms:
            return hash(0)
        if len(self.terms) == 1 and 0 in self.terms:
            return hash(self.terms[0])
        return hash((self.vs, frozenset(self.terms.items())))

    # -- division ----------------------------------------------------------

    def div_exact(self, b) -> "LaurentPoly":
        """Exact quotient c with c * b == self, else NonDivisible.

        A monomial divisor subtracts its key from every key.  A divisor with
        as many terms as the dividend can only leave a monomial quotient
        f X^k; since packed keys add, k is the difference of the largest
        keys and f the quotient of their coefficients, and one pass over
        the divisor's terms confirms or rejects it.  Otherwise both
        operands are unpacked and shifted to honest polynomials with zero
        minimum exponent in each variable (the quotient of such polynomials
        is again of that shape because valuations add), then leading-term
        division runs in graded-lex order.  Each quotient exponent is
        produced exactly once, so the quotient is integral iff every leading
        coefficient divides exactly as it is taken.

        Once the quotient has as many terms as the dividend, the operands
        are compared at every variable 1 and at every variable -1, where a
        quotient takes integer values.  That rejects pairs such as
        (q^N + 2) / (q + 1) after two steps instead of N; short quotients,
        the common case, never pay for it.  Other non-divisible pairs may
        still take time linear in the exponents, e.g.
        (q^N + 2) / (q^2 + q + 1).
        """
        b = self._coerce(b)
        if b is NotImplemented:
            raise TypeError("div_exact expects a LaurentPoly or int")
        if b.is_zero():
            raise DivisionByZero("division by the zero polynomial")
        if self.is_zero():
            return LaurentPoly.zero(self.vs)
        if len(b.terms) == 1:
            (kb, bc), = b.terms.items()
            out = {}
            for ka, ac in self.terms.items():
                quo, rem = divmod(ac, bc)
                if rem:
                    raise NonDivisible(f"coefficient {ac} not divisible by {bc}")
                out[ka - kb] = quo
            return _laurent(self.vs, out, self._bound + b._bound)
        a = self.terms
        if len(a) == len(b.terms):
            ka, kb = max(a), max(b.terms)
            f, r = divmod(a[ka], b.terms[kb])
            k = ka - kb
            # key + k may leave the range, but each of its exponents is
            # within 4 EXP_LIMIT < 2^32 of those of a, so equal ints mean
            # equal exponent vectors
            if not r and all(a.get(key + k) == f * c for key, c in b.terms.items()):
                return _laurent(self.vs, {k: f}, self._bound + b._bound)

        unpack = self.vs.unpack
        a_exps = {unpack(k): c for k, c in self.terms.items()}
        b_exps = {unpack(k): c for k, c in b.terms.items()}
        sa = tuple(map(min, zip(*a_exps)))
        sb = tuple(map(min, zip(*b_exps)))
        rem = {tuple(map(sub, e, sa)): c for e, c in a_exps.items()}
        bshift = {tuple(map(sub, e, sb)): c for e, c in b_exps.items()}
        lb = max(bshift, key=_grlex_key)
        lc = bshift[lb]
        quo: dict = {}
        while rem:
            la = max(rem, key=_grlex_key)
            d = tuple(map(sub, la, lb))
            if min(d) < 0:
                raise NonDivisible("no exact Laurent quotient")
            f, r = divmod(rem[la], lc)
            if r:
                raise NonDivisible("quotient has non-integer coefficients")
            quo[d] = f
            if len(quo) == len(a_exps):
                _check_values_at_ones(a_exps, b_exps)
            add_terms(rem, ((tuple(map(add, d, eb)), -f * cb) for eb, cb in bshift.items()))
        shift = tuple(map(sub, sa, sb))
        return LaurentPoly(self.vs, {tuple(map(add, e, shift)): f for e, f in quo.items()})

    def __truediv__(self, other) -> "LaurentPoly":
        """Exact quotient, like Fraction division; NonDivisible if none exists."""
        return self.div_exact(other)

    # -- evaluation --------------------------------------------------------

    def evaluate(self, assignment: Mapping[str, "Fraction | int"]) -> Fraction:
        """Exact value at a rational point; a ring homomorphism.

        Every variable occurring in a term must be assigned a nonzero
        rational (negative exponents need invertible values).
        """
        values = {}
        for name, v in assignment.items():
            v = Fraction(v)
            if v == 0:
                raise ZeroAssignment(f"{name} assigned 0; Laurent variables must be invertible")
            values[self.vs.index(name)] = v
        total = Fraction(0)
        for k, c in self.terms.items():
            term = Fraction(c)
            for v, exp in enumerate(self.vs.unpack(k)):
                if exp == 0:
                    continue
                if v not in values:
                    raise MissingAssignment(self.vs.names[v])
                term *= values[v] ** exp
            total += term
        return total

    # -- text form ---------------------------------------------------------

    def __str__(self) -> str:
        """Canonical text form, e.g. ``(q^2-1)*t_1_2^-1 + q``.

        Terms are grouped by their t-monomial; groups are ordered by their
        graded-lex-leading term (q coordinate first), and the q-polynomial
        of each group is written with descending exponents.
        """
        if not self.terms:
            return "0"
        groups: dict = {}
        for k, c in self.terms.items():
            e = self.vs.unpack(k)
            groups.setdefault(e[1:], {})[e[0]] = c

        def lead_key(item):
            texps, qpoly = item
            qe = max(qpoly)
            return (qe + sum(texps), (qe,) + texps)

        pieces = []
        for texps, qpoly in sorted(groups.items(), key=lead_key, reverse=True):
            tfactors = []
            for pos, exp in enumerate(texps):
                if exp == 0:
                    continue
                name = self.vs.names[pos + 1]
                tfactors.append(name if exp == 1 else f"{name}^{exp}")
            tstr = "*".join(tfactors)
            qstr = _render_qpoly(qpoly)
            if not tstr:
                pieces.append(qstr)
            elif len(qpoly) > 1:
                pieces.append(f"({qstr})*{tstr}")
            elif qstr == "1":
                pieces.append(tstr)
            elif qstr == "-1":
                pieces.append(f"-{tstr}")
            else:
                pieces.append(f"{qstr}*{tstr}")
        out = pieces[0]
        for p in pieces[1:]:
            if p.startswith("-"):
                out += " - " + p[1:]
            else:
                out += " + " + p
        return out

    def __repr__(self) -> str:
        return f"<LaurentPoly {self}>"


def _render_qpoly(qpoly: Mapping[int, int]) -> str:
    parts = []
    for qe in sorted(qpoly, reverse=True):
        c = qpoly[qe]
        if qe == 0:
            s = str(c)
        else:
            base = "q" if qe == 1 else f"q^{qe}"
            if c == 1:
                s = base
            elif c == -1:
                s = f"-{base}"
            else:
                s = f"{c}*{base}"
        parts.append(s)
    out = parts[0]
    for p in parts[1:]:
        if p.startswith("-"):
            out += "-" + p[1:]
        else:
            out += "+" + p
    return out


def _check_values_at_ones(a_exps: dict, b_exps: dict) -> None:
    """NonDivisible unless b(x) divides a(x) at x = every variable 1 and at
    x = every variable -1, as a = b c with c(x) an integer requires; the
    operands map exponent tuples to coefficients."""
    for x in (1, -1):
        av, bv = (sum(-c if x < 0 and sum(e) & 1 else c for e, c in exps.items())
                  for exps in (a_exps, b_exps))
        if (bv == 0 and av != 0) or (bv != 0 and av % bv != 0):
            raise NonDivisible(f"no exact Laurent quotient: {av} and {bv} at all variables {x}")


def _max_exponent(vs: VarSet, terms: dict) -> int:
    """The largest |exponent| over the packed keys of ``terms``."""
    return max((max(map(abs, vs.unpack(k))) for k in terms), default=0)


def _laurent(vs: VarSet, terms: dict, bound: int) -> LaurentPoly:
    """A LaurentPoly around a fresh dict of packed keys with no zero
    coefficient, taken as is.

    ``bound`` is an upper bound on every |exponent| in ``terms``; it may
    overshoot, as the sum of the operands' bounds does, and only when it
    passes EXP_LIMIT are the keys unpacked for the exact bound, which must
    be in range.  Keys computed from in-range operands never wrap a slot.
    """
    if bound > EXP_LIMIT:
        bound = _max_exponent(vs, terms)
        if bound > EXP_LIMIT:
            raise ExponentOutOfRange(f"an exponent reaches {bound}, past +-{EXP_LIMIT}")
    p = object.__new__(LaurentPoly)
    p.vs = vs
    p.terms = terms
    p._bound = bound
    return p


def kronecker_form(c, bits: int):
    """The Kronecker form (t-key, e0, l1, g(2^bits)) of a LaurentPoly
    c = T q^e0 g(q) whose terms share one t-monomial T, with g a polynomial
    and g(0) != 0: T's packed key, the lowest q exponent, the l1 norm of the
    coefficients and one int; None for any other scalar.

    The forms of a product are the key sums, the e0 sums, the value product
    and, as a bound on its l1 norm, the l1 product.
    """
    if c.__class__ is not LaurentPoly or not c.terms:
        return None
    terms = c.terms
    # q owns slot 0: its balanced digit is the key's low 32 bits, signed
    if len(terms) == 1:
        (k, a), = terms.items()
        e = ((k + 2 ** 31) & 0xFFFFFFFF) - 2 ** 31
        return k - e, e, abs(a), a
    qexps = [((k + 2 ** 31) & 0xFFFFFFFF) - 2 ** 31 for k in terms]
    tkeys = {k - e for k, e in zip(terms, qexps)}
    if len(tkeys) != 1:
        return None
    e0 = min(qexps)
    return (tkeys.pop(), e0, sum(map(abs, terms.values())),
            sum(a << bits * (e - e0) for a, e in zip(terms.values(), qexps)))


# -- sparse linear combinations ---------------------------------------------

def add_terms(out: dict, pairs) -> dict:
    """Merge (key, nonzero scalar) pairs into ``out`` in place; returns ``out``.

    This is the one merge of every sparse sum in the package.  A new key
    stores its scalar as given, with no ``0 + c``, so the scalar's ``__radd__``
    is never called; a key whose sum cancels is deleted.
    """
    for k, c in pairs:
        cur = out.get(k)
        if cur is None:
            out[k] = c
        else:
            cur = cur + c
            if cur:
                out[k] = cur
            else:
                del out[k]
    return out


class LinComb:
    """Canonical sparse sum: basis key -> nonzero scalar.

    The scalars are those of one datum, ``LaurentPoly`` or ``Fraction``;
    only the number protocol is used on them.  Free-algebra elements,
    shuffle elements and braided tensors are subclasses, and elements of
    different subclasses never compare equal.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = {k: c for k, c in terms.items() if c}

    @classmethod
    def _fresh(cls, terms: dict):
        """An element around a fresh dict with no zero scalar, taken as is."""
        obj = object.__new__(cls)
        obj.terms = terms
        return obj

    @classmethod
    def zero(cls):
        return cls._fresh({})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other):
        return self._fresh(add_terms(dict(self.terms), other.terms.items()))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._fresh({k: -c for k, c in self.terms.items()})

    def scale(self, c):
        if not c:
            return self.zero()
        return self._fresh({k: c * ck for k, ck in self.terms.items()})

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self}>"
