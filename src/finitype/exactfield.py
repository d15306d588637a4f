"""Exact arithmetic and total ordering in Q(rho) for a real algebraic rho in (0,1).

A field is described by an integer polynomial (ascending coefficients) together
with a rational interval isolating exactly one of its real roots. Elements are
dense coefficient vectors modulo that polynomial, reduced eagerly, so an element
is zero iff every coefficient is zero. Every order decision is an exact sign
test by interval arithmetic on a refinable rational enclosure of the root,
refined as far as each test needs; no decision is taken in floating point.

An element's coefficients are canonical: each is an int or a non-integral
Fraction. The coefficient kernel (``plus``, ``minus``, ``canonical``) works
on bare coefficient tuples with int and Fraction mixed as Python gives them,
so a raw result may hold an integral Fraction. A raw tuple equals its
canonical form with an equal hash (2 == Fraction(2)), so it serves as it is
as a dict key and a sign-cache key; ``canonical`` is applied once, to what
becomes an element. The ring operations of ``FieldElement`` are the same
arithmetic followed by ``canonical``. A rational element equals its Fraction
and hashes as it.

Irreducibility of the polynomial is not checked up front (only
square-freeness is). With a reducible square-free polynomial the coefficient
representation is still unique but the zero test no longer matches evaluation
at the root. A sign the enclosure leaves undecided is therefore first checked
exactly: gcd(minpoly, element) from the remainder sequence, and if that gcd
changes sign across the enclosure, the element vanishes at rho and
NotIrreducible is raised. Otherwise the value is nonzero and bisection ends.
A bisection step that meets the root exactly has found a rational root, and
above degree 1 that too raises NotIrreducible.

Square-freeness comes from the Sturm chain the field builds once for its root
counts: the chain's last member is gcd(p, p') up to a constant. A sign, once
decided, is exact, so the sign cache survives every refinement of the
enclosure.

One product kernel serves all exact matrix algebra: the graph closure's, the
dimension code's and the oracle's. ``compile_matrix`` turns a dense
row-tuple matrix into a ``SparseMatrix``: its column count and, per row, the
``(column, entry)`` pairs of the nonzero entries, columns ascending.
``vec_mat`` multiplies a row vector by one, ``mat_mul`` a row-tuple matrix,
and ``char_poly``, Faddeev-LeVerrier on ``mat_mul``, gives ``largest_root``
the characteristic polynomial it bisects.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, sub
from typing import NamedTuple

from .errors import (
    MultipleRootsInInterval,
    NoRootInInterval,
    NotIrreducible,
    NotSquareFree,
    RootNotInUnitInterval,
)

LT, EQ, GT = -1, 0, 1


def _norm_num(q):
    """Collapse integral Fractions to int; keeps arithmetic on fast paths."""
    if type(q) is int:
        return q
    if q.denominator == 1:
        return q.numerator
    return q


# ----------------------------------------------------------------------------
# the coefficient kernel: raw coefficient tuples, int and Fraction mixed
# ----------------------------------------------------------------------------

def plus(a, b):
    """Coefficientwise a + b of two coefficient tuples, not canonicalized."""
    return tuple(map(add, a, b))


def minus(a, b):
    """Coefficientwise a - b of two coefficient tuples, not canonicalized."""
    return tuple(map(sub, a, b))


def canonical(coeffs):
    """Canonical tuple of raw coefficients (any iterable): integral
    Fractions become int."""
    return tuple(map(_norm_num, coeffs))


# ----------------------------------------------------------------------------
# plain polynomial helpers over Fraction/int coefficients, ascending degree
# ----------------------------------------------------------------------------

def _poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_deriv(c):
    return [i * c[i] for i in range(1, len(c))]


def _poly_divmod(a, b):
    """Quotient/remainder of coefficient lists (b nonzero)."""
    a = [Fraction(x) for x in a]
    b = [Fraction(x) for x in b]
    b = _poly_trim(b)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    r = list(a)
    while len(_poly_trim(r)) >= len(b):
        r = _poly_trim(r)
        k = len(r) - len(b)
        f = r[-1] / b[-1]
        q[k] = f
        for i, bc in enumerate(b):
            r[i + k] -= f * bc
        r.pop()
    return q, _poly_trim(r)


def _gcdex(a, b):
    """(g, s) for polynomials a and b (b nonzero): g is gcd(a, b) up to a
    constant, from the remainder sequence, and s * b == g modulo a."""
    r0, r1 = a, _poly_trim(b)
    s0, s1 = [], [Fraction(1)]
    while True:
        q, r = _poly_divmod(r0, r1)
        if not r:
            return r1, s1
        s = s0 + [0] * (len(q) + len(s1) - 1 - len(s0))   # s0 - q * s1
        for i, qi in enumerate(q):
            for j, sj in enumerate(s1):
                s[i + j] -= qi * sj
        r0, r1, s0, s1 = r1, r, s1, _poly_trim(s)


def _pseudo_rem(a, b):
    """The remainder of |lc(b)|^k a by b in integers, for int lists a and b
    (trimmed), k the steps taken: a positive multiple of a mod b."""
    m, sign = abs(b[-1]), 1 if b[-1] > 0 else -1
    r = list(a)
    while len(r) >= len(b):
        f, k = sign * r[-1], len(r) - len(b)
        r = [x * m for x in r]
        for i, bc in enumerate(b):
            r[i + k] -= f * bc
        r.pop()  # m r[-1] - f lc(b) == 0
        r = _poly_trim(r)
    return r


def _sturm_chain(poly):
    """Sturm chain of a nonconstant polynomial, each member scaled by a
    positive rational to coprime integers; ends in gcd(poly, poly'). Integer
    pseudo-remainders stand for the rational remainders: each is a positive
    multiple of one, so the signs and the scaled members are the same."""
    chain, r = [], _poly_trim(poly)
    while r:
        d = math.lcm(*(x.denominator for x in r))
        ints = [int(x * d) for x in r]
        g = math.gcd(*ints)
        chain.append([x // g for x in ints])
        r = (_poly_deriv(chain[0]) if len(chain) == 1
             else [-x for x in _pseudo_rem(chain[-2], chain[-1])])
    return chain


def _eval_poly(c, x):
    """q^deg(c) c(x) for x = p/q, q > 0: the sign of c(x), in integers when
    c's coefficients are."""
    p, q = x.numerator, x.denominator
    acc, qk = 0, 1
    for coef in reversed(c):
        acc, qk = acc * p + coef * qk, qk * q
    return acc


def _sign_changes(chain, x):
    signs = []
    for c in chain:
        v = _eval_poly(c, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _poly_str(coeffs, var, times):
    """``coeffs`` (ascending) as a sum of terms in ``var``, ``times``
    between a coefficient and its power: "-1 + x + x^2", "1/2 - 3*r"."""
    terms = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        p = var if i == 1 else f"{var}^{i}"
        terms.append(str(c) if i == 0 else p if c == 1 else
                     f"-{p}" if c == -1 else f"{c}{times}{p}")
    return " + ".join(terms).replace("+ -", "- ") if terms else "0"


def count_roots(chain, lo, hi):
    """Number of distinct real roots in (lo, hi] of the polynomial whose
    Sturm chain is ``chain``; assumes it does not vanish at lo."""
    return _sign_changes(chain, lo) - _sign_changes(chain, hi)


def largest_root(poly, lo, hi, rel):
    """Bisect [lo, hi], which holds the largest real root r > 0 of ``poly``,
    until hi - lo <= rel * hi. Each step keeps the upper half when it holds
    a root, counted on the Sturm chain of poly's square-free part, whose
    counts in (a, b] hold even where a is a root; hi's count is carried."""
    chain = _sturm_chain(poly)
    if len(chain[-1]) > 1:  # a repeated root: count on the square-free part
        chain = _sturm_chain(_poly_divmod(poly, chain[-1])[0])
    v_hi = _sign_changes(chain, hi)
    while hi - lo > rel * hi:
        mid = (lo + hi) / 2
        v_mid = _sign_changes(chain, mid)
        if v_mid > v_hi:
            lo = mid
        else:
            hi, v_hi = mid, v_mid
    return lo, hi


# ----------------------------------------------------------------------------
# exact matrix algebra on the one product kernel
# ----------------------------------------------------------------------------

class SparseMatrix(NamedTuple):
    """A matrix compiled for ``vec_mat``: the column count, and per row the
    ``(column, entry)`` pairs of its nonzero entries, columns ascending."""

    ncols: int
    rows: tuple[tuple[tuple[int, Fraction | int], ...], ...]

    def transposed(self) -> SparseMatrix:
        """The compiled transpose, built from the nonzero pairs alone."""
        cols = [[] for _ in range(self.ncols)]
        for j, row in enumerate(self.rows):
            for k, x in row:
                cols[k].append((j, x))
        return SparseMatrix(len(self.rows), tuple(map(tuple, cols)))


def compile_matrix(M) -> SparseMatrix:
    """The ``SparseMatrix`` of a dense row-tuple matrix."""
    return SparseMatrix(len(M[0]), tuple(
        tuple((k, x) for k, x in enumerate(row) if x) for row in M))


def vec_mat(v, S: SparseMatrix):
    """Row vector times a compiled matrix, exactly; the one product kernel.
    Terms are added in the order of a dense row-by-row product."""
    ncols, rows = S
    acc = [0] * ncols
    for x, row in zip(v, rows):
        if x:
            for k, a in row:
                acc[k] += x * a
    return acc


def mat_mul(A, B: SparseMatrix):
    """Product of a row-tuple matrix and a compiled matrix, as row tuples."""
    return tuple([tuple(vec_mat(row, B)) for row in A])


def char_poly(matrix):
    """Ascending coefficients of det(xI - matrix), exactly, by
    Faddeev-LeVerrier: M_1 = I, M_k = A M_(k-1) + c_(n-k+1) I and
    c_(n-k) = -tr(A M_k) / k, with c_n = 1. Integral coefficients are
    ints, so an integer block's are all ints."""
    n = len(matrix)
    S = compile_matrix(matrix)
    coeffs = [0] * n + [1]
    AM = [[0] * n] * n  # A M_0
    for k in range(1, n + 1):
        c = coeffs[n - k + 1]
        AM = mat_mul([[x + c if i == j else x for j, x in enumerate(row)]
                      for i, row in enumerate(AM)], S)
        c = -Fraction(sum(AM[i][i] for i in range(n)), k)
        # an integral coefficient stays int, so an integer block's products
        # stay integer products
        coeffs[n - k] = c.numerator if c.denominator == 1 else c
    return coeffs


# ----------------------------------------------------------------------------
# the field
# ----------------------------------------------------------------------------

class NumberField:
    """Q(rho) with rho the unique root of ``minpoly`` inside the isolating interval."""

    __slots__ = (
        "minpoly", "degree", "_lo", "_hi", "_orig",
        "_sign_cache", "zero", "one",
    )

    def __init__(self, minpoly, isolating_interval):
        mp = [int(c) for c in minpoly]
        mp = _poly_trim(mp)
        if len(mp) < 2:
            raise NoRootInInterval("polynomial is constant; it has no root")
        self.minpoly = tuple(mp)
        self.degree = len(mp) - 1

        lo, hi = (Fraction(isolating_interval[0]), Fraction(isolating_interval[1]))
        if not (0 < lo < hi <= 1):
            raise RootNotInUnitInterval(
                f"isolating interval ({lo}, {hi}) must sit inside (0, 1]")

        chain = _sturm_chain(mp)
        if len(chain[-1]) > 1:
            raise NotSquareFree("polynomial shares a factor with its derivative")

        if _eval_poly(mp, lo) == 0 or _eval_poly(mp, hi) == 0:
            raise MultipleRootsInInterval(
                "an isolating-interval endpoint is itself a root; shrink the interval")
        n = count_roots(chain, lo, hi)
        if n == 0:
            raise NoRootInInterval(
                f"no root of {_poly_str(mp, 'x', '')} in ({lo}, {hi})")
        if n > 1:
            raise MultipleRootsInInterval(
                f"{n} roots of {_poly_str(mp, 'x', '')} in ({lo}, {hi}); "
                "shrink the interval")

        self._lo, self._hi = lo, hi
        self._orig = (lo, hi)

        k = self.degree
        self._sign_cache = {}
        self.zero = FieldElement(self, (0,) * k)
        self.one = FieldElement(self, (1,) + (0,) * (k - 1))

        self.refine(128)

    # -- construction helpers ---------------------------------------------

    def element(self, coeffs) -> "FieldElement":
        cs = [_norm_num(Fraction(c)) for c in coeffs]
        if len(cs) > self.degree:
            raise ValueError(f"coefficient vector longer than degree {self.degree}")
        cs += [0] * (self.degree - len(cs))
        return FieldElement(self, tuple(cs))

    def rational(self, q) -> "FieldElement":
        return self.element([Fraction(q)])

    def rho(self) -> "FieldElement":
        if self.degree == 1:
            a0, a1 = self.minpoly
            return self.rational(Fraction(-a0, a1))
        return self.element([0, 1])

    def inv_rho(self) -> "FieldElement":
        return self.rho().inverse()

    # -- enclosure -----------------------------------------------------------

    def enclosure(self):
        return self._lo, self._hi

    def refine(self, steps=32):
        """Bisect the isolating interval ``steps`` times (or until exact,
        which only a degree-1 field's rational root may be)."""
        mp = self.minpoly
        lo, hi = self._lo, self._hi
        if lo == hi:
            return
        slo = 1 if _eval_poly(mp, lo) > 0 else -1
        for _ in range(steps):
            mid = (lo + hi) / 2
            v = _eval_poly(mp, mid)
            if v == 0:
                if self.degree > 1:
                    raise NotIrreducible(f"{_poly_str(mp, 'x', '')} is "
                                         f"reducible: it has the root {mid}")
                lo = hi = mid
                break
            if (1 if v > 0 else -1) == slo:
                lo = mid
            else:
                hi = mid
        self._lo, self._hi = lo, hi

    def interval_eval(self, coeffs):
        """Rigorous rational interval for sum(coeffs[i] * rho**i) via Horner,
        exact from the top coefficient on: a rational's interval is itself."""
        lo, hi = self._lo, self._hi
        alo = ahi = coeffs[-1]
        for c in reversed(coeffs[:-1]):
            # multiply [alo, ahi] by [lo, hi]; 0 < lo <= hi
            cands = (alo * lo, alo * hi, ahi * lo, ahi * hi)
            alo, ahi = min(cands) + c, max(cands) + c
        return alo, ahi

    def _enclose(self, coeffs, width):
        """``interval_eval`` of ``coeffs``, refining the root enclosure until
        the interval is no wider than ``width`` or the root is exact."""
        lo, hi = self.interval_eval(coeffs)
        while hi - lo > width and self._lo != self._hi:
            self.refine(64)
            lo, hi = self.interval_eval(coeffs)
        return lo, hi

    def sign_of(self, coeffs):
        """Exact sign of the element with the given canonical coefficients."""
        if not any(coeffs[1:]):
            c = coeffs[0]
            return (c > 0) - (c < 0)
        cached = self._sign_cache.get(coeffs)
        if cached is not None:
            return cached
        lo, hi = self.interval_eval(coeffs)
        if lo <= 0 <= hi and self._lo != self._hi:
            # undecided: bisection ends unless the value vanishes at rho,
            # that is unless rho is a root of gcd(minpoly, element)
            g, _ = _gcdex(self.minpoly, coeffs)
            if len(g) > 1 and (_eval_poly(g, self._lo)
                               * _eval_poly(g, self._hi) < 0):
                raise NotIrreducible(
                    f"{_poly_str(self.minpoly, 'x', '')} is reducible: the "
                    f"nonzero element {FieldElement(self, coeffs)!r} vanishes "
                    "at rho")
            while lo <= 0 <= hi and self._lo != self._hi:
                self.refine(32)
                lo, hi = self.interval_eval(coeffs)
        # a point enclosure of rho gives a point value, possibly 0
        s = (lo > 0) - (hi < 0)
        self._sign_cache[coeffs] = s
        return s

    # -- misc ------------------------------------------------------------

    def __repr__(self):
        return (f"NumberField({_poly_str(self.minpoly, 'x', '')}, "
                f"rho in ({self._lo}, {self._hi}))")

    def __eq__(self, other):
        return (isinstance(other, NumberField) and self.minpoly == other.minpoly
                and self._orig == other._orig)

    def __hash__(self):
        return hash((self.minpoly, self._orig))


# ----------------------------------------------------------------------------
# elements
# ----------------------------------------------------------------------------

class FieldElement:
    """Immutable element of a NumberField in canonical power-basis form."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs

    # -- ring structure ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field is not self.field and other.field != self.field:
                raise ValueError("mixed-field arithmetic")
            return other.coeffs
        if isinstance(other, (int, Fraction)):
            k = self.field.degree
            return (_norm_num(Fraction(other)),) + (0,) * (k - 1)
        return None

    def __add__(self, other):
        oc = self._coerce(other)
        if oc is None:
            return NotImplemented
        return FieldElement(self.field, canonical(map(add, self.coeffs, oc)))

    __radd__ = __add__

    def __sub__(self, other):
        oc = self._coerce(other)
        if oc is None:
            return NotImplemented
        return FieldElement(self.field, canonical(map(sub, self.coeffs, oc)))

    def __rsub__(self, other):
        oc = self._coerce(other)
        if oc is None:
            return NotImplemented
        return FieldElement(self.field, canonical(map(sub, oc, self.coeffs)))

    def __neg__(self):
        return FieldElement(self.field, canonical([-a for a in self.coeffs]))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = _norm_num(Fraction(other))
            return FieldElement(self.field, canonical([a * q for a in self.coeffs]))
        oc = self._coerce(other)
        if oc is None:
            return NotImplemented
        k = self.field.degree
        a, b = self.coeffs, oc
        conv = [0] * (2 * k - 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                if bj != 0:
                    conv[i + j] += ai * bj
        _, r = _poly_divmod(conv, self.field.minpoly)
        return FieldElement(self.field, canonical(r + [0] * (k - len(r))))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse via the extended Euclidean algorithm."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        g, s = _gcdex(self.field.minpoly, self.coeffs)
        if len(g) != 1:
            raise NotIrreducible(
                "element is a zero divisor: the defining polynomial is reducible")
        return self.field.element([c / g[0] for c in s])

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if q == 0:
                raise ZeroDivisionError
            return self * (1 / q)
        oc = self._coerce(other)
        if oc is None:
            return NotImplemented
        return self * FieldElement(self.field, oc).inverse()

    # -- predicates and order ----------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return Fraction(self.coeffs[0])

    def sign(self) -> int:
        return self.field.sign_of(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.coeffs == other.coeffs and (
                self.field is other.field or self.field == other.field)
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and Fraction(self.coeffs[0]) == other
        return NotImplemented

    def __hash__(self):
        # a rational element equals its Fraction, so it hashes as one
        if self.is_rational():
            return hash(self.coeffs[0])
        return hash((self.field.minpoly, self.coeffs))

    # -- rendering -----------------------------------------------------------

    def to_decimal(self, digits: int) -> str:
        return to_decimal(self, digits)

    def __float__(self):
        lo, hi = self.field._enclose(self.coeffs, Fraction(1, 10**20))
        return float((lo + hi) / 2)

    def __repr__(self):
        return _poly_str(self.coeffs, "r", "*")


# ----------------------------------------------------------------------------
# module-level operations
# ----------------------------------------------------------------------------

def compare(a: FieldElement, b: FieldElement) -> int:
    """Total order on one field: returns LT, EQ or GT (-1, 0, 1)."""
    return (a - b).sign()


def to_decimal(a: FieldElement, digits: int) -> str:
    """Decimal expansion of ``a`` correctly rounded to ``digits`` places.

    Ties (exact half-units in the last place) round away from zero; every
    rounding decision is made by exact sign tests, never by floating point.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    s = a.sign()
    if s == 0:
        return "0." + "0" * digits
    mag = a if s > 0 else -a
    scale = 10 ** digits
    scaled = mag * scale

    if scaled.is_rational():
        q = Fraction(scaled.coeffs[0])
        n = (2 * q.numerator + q.denominator) // (2 * q.denominator)  # half-up
    else:
        lo, hi = a.field._enclose(scaled.coeffs, Fraction(1, 8))
        n = int((lo + hi) / 2 + Fraction(1, 2))
        # certify n by exact sign tests against the two half-unit boundaries
        while (scaled - (Fraction(2 * n - 1, 2))).sign() < 0:
            n -= 1
        while (scaled - (Fraction(2 * n + 1, 2))).sign() >= 0:
            n += 1
    whole, frac = divmod(n, scale)
    return f"{'-' if s < 0 else ''}{whole}.{frac:0{digits}d}"

