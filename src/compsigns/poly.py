"""Exact polynomial and truncated power-series arithmetic.

Integer polynomials are dense: coefficient i belongs to t^i, trailing
zeros are never stored, and the zero polynomial has an empty coefficient
tuple.  All arithmetic is arbitrary-precision and exact.

Besides ring operations this module provides the delta operator
D = t * d/dt, truncated rational power series with exact inversion, and
the computer-algebra primitives used by the non-periodicity certifier:
rational gcd, Yun square-free decomposition, root power sums and Newton's
identities, cyclotomic polynomials, and enumeration of all N whose
totient is below a bound.

The resultant section (Sylvester determinants and interpolation in x) is
a test oracle only.  The certifier builds its ratio polynomial from power
sums instead; the resultant route stays as the independent second
construction the tests compare against, and because the benchmark's
tracer (perfbench/shim.py) looks up ``resultant_in_y`` by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd as _int_gcd

from . import InternalError
from ._backend import conv, conv_trunc


def _trim(coeffs) -> tuple:
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


@dataclass(frozen=True)
class IntPoly:
    """Dense integer polynomial; immutable, always normalized."""

    coeffs: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _trim(self.coeffs))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __call__(self, x):
        """Horner evaluation; works for any ring element (int, Fraction,
        complex, bigfloat)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __neg__(self) -> "IntPoly":
        return IntPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        return IntPoly(conv(list(self.coeffs), list(other.coeffs)))

    def scale(self, c: int) -> "IntPoly":
        return IntPoly(tuple(c * a for a in self.coeffs))

    def derivative(self) -> "IntPoly":
        return IntPoly(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def __str__(self) -> str:
        return format_poly(self)


def format_poly(p: IntPoly, var: str = "t") -> str:
    """Human-readable rendering, highest degree first."""
    if p.is_zero:
        return "0"
    parts = []
    for i in range(p.degree, -1, -1):
        c = p.coeffs[i]
        if not c:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            head = "" if mag == 1 else str(mag)
            body = f"{head}{var}" if i == 1 else f"{head}{var}^{i}"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def delta_op(p: IntPoly, k: int = 1) -> IntPoly:
    """k-fold application of D = t * d/dt: coefficient i becomes a_i * i^k."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if k == 0:
        return p
    return IntPoly(tuple(c * i**k for i, c in enumerate(p.coeffs)))


# -- exact division and gcd ------------------------------------------------


def monic_divmod(a: IntPoly, b: IntPoly) -> tuple[IntPoly, IntPoly]:
    """Integer quotient and remainder for a monic divisor b."""
    if b.is_zero or b.lead != 1:
        raise ValueError("divisor must be monic")
    db = b.degree
    r = list(a.coeffs)
    if a.degree < db:
        return IntPoly(), a
    q = [0] * (a.degree - db + 1)
    for i in range(a.degree - db, -1, -1):
        c = r[i + db]
        if c:
            q[i] = c
            for j, bj in enumerate(b.coeffs):
                r[i + j] -= c * bj
    return IntPoly(q), IntPoly(r[:db])


def monic_divides(b: IntPoly, a: IntPoly) -> bool:
    """True if the monic polynomial b divides a exactly."""
    return monic_divmod(a, b)[1].is_zero


def content(p: IntPoly) -> int:
    g = 0
    for c in p.coeffs:
        g = _int_gcd(g, abs(c))
    return g


def primitive(p: IntPoly) -> IntPoly:
    """Divide out the content and make the leading coefficient positive."""
    if p.is_zero:
        return p
    g = content(p)
    if p.lead < 0:
        g = -g
    return IntPoly(tuple(c // g for c in p.coeffs))


def _frac_coeffs(p: IntPoly) -> list[Fraction]:
    return [Fraction(c) for c in p.coeffs]


def _frac_trim(a: list[Fraction]) -> list[Fraction]:
    while a and not a[-1]:
        a.pop()
    return a


def _frac_divmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """Long division over the rationals; b must be nonzero."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    db = len(b) - 1
    lead = b[-1]
    if len(r) - 1 < db:
        return [], r
    q = [Fraction(0)] * (len(r) - db)
    for i in range(len(r) - db - 1, -1, -1):
        c = r[i + db] / lead
        if c:
            q[i] = c
            for j, bj in enumerate(b):
                r[i + j] -= c * bj
    return _frac_trim(q), _frac_trim(r[:db])


def _frac_to_intpoly(a: list[Fraction]) -> IntPoly:
    """Clear denominators, then reduce to the primitive integer polynomial."""
    if not a:
        return IntPoly()
    den = 1
    for c in a:
        den = den * c.denominator // _int_gcd(den, c.denominator)
    return primitive(IntPoly(tuple(int(c * den) for c in a)))


def _frac_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Monic gcd over the rationals by Euclid's algorithm; gcd(0, 0) = 0."""
    while b:
        a, b = b, _frac_divmod(a, b)[1]
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def poly_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Primitive gcd with positive leading coefficient; gcd(0, 0) = 0."""
    return _frac_to_intpoly(_frac_gcd(_frac_coeffs(a), _frac_coeffs(b)))


def yun_squarefree(p: IntPoly) -> list[tuple[IntPoly, int]]:
    """Square-free decomposition: pairs (factor, multiplicity) with the
    factors primitive, pairwise coprime, and p = c * prod factor^mult.

    Constant factors are dropped; the input must be nonzero.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    if p.degree == 0:
        return []
    fp = _frac_coeffs(p)

    def deriv(f):
        return [i * c for i, c in enumerate(f) if i]

    out = []
    g = _frac_gcd(fp, deriv(fp))
    w = _frac_divmod(fp, g)[0]
    y = _frac_divmod(deriv(fp), g)[0]
    i = 1
    while len(w) > 1:
        dw = deriv(w)
        m = max(len(y), len(dw))
        z = [(y[k] if k < len(y) else Fraction(0))
             - (dw[k] if k < len(dw) else Fraction(0)) for k in range(m)]
        z = _frac_trim(z)
        gi = _frac_gcd(w, z)
        if len(gi) > 1:
            out.append((_frac_to_intpoly(gi), i))
        w = _frac_divmod(w, gi)[0]
        y = _frac_divmod(z, gi)[0]
        i += 1
    return out


# -- power sums and Newton's identities ---------------------------------------


def power_sums(f: IntPoly, n: int) -> list[int]:
    """Power sums P_1..P_n of the roots of the monic integer polynomial f.

    Newton's identities, with a_i the coefficient of x^(d-i) and a_i = 0
    for i > d: P_k = -(k*a_k + a_1*P_(k-1) + ... + a_(k-1)*P_1).
    """
    if f.is_zero or f.lead != 1:
        raise ValueError("power sums need a monic polynomial")
    d = f.degree
    a = f.coeffs[::-1]
    sums: list[int] = []
    for k in range(1, n + 1):
        s = k * a[k] if k <= d else 0
        for i in range(1, min(k - 1, d) + 1):
            s += a[i] * sums[k - i - 1]
        sums.append(-s)
    return sums


def monic_from_power_sums(sums: list[int]) -> IntPoly:
    """The monic polynomial of degree len(sums) whose roots have the power
    sums P_1, P_2, ... given, by Newton's identities run backwards:
    k*a_k = -(P_k + a_1*P_(k-1) + ... + a_(k-1)*P_1).

    The callers only pass power sums of algebraic integers closed under
    conjugation, so every division by k is exact; a remainder is a broken
    invariant and raises InternalError.
    """
    a = [1]
    for k in range(1, len(sums) + 1):
        s = sums[k - 1]
        for i in range(1, k):
            s += a[i] * sums[k - i - 1]
        q, r = divmod(-s, k)
        if r:
            raise InternalError(
                f"Newton's identities: step {k} leaves remainder {r} mod {k}")
        a.append(q)
    return IntPoly(tuple(reversed(a)))


# -- resultants (test oracle) ---------------------------------------------
# Off the certifier's path since nonperiodic.ratio_poly uses power sums.
# Kept as the independent oracle for the ratio-polynomial tests, and
# because perfbench/shim.py traces resultant_in_y by name.


def _det_bareiss(m: list[list[int]]) -> int:
    """Fraction-free determinant of an integer matrix (with row pivoting)."""
    n = len(m)
    if n == 0:
        return 1
    m = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def resultant(a: IntPoly, b: IntPoly) -> int:
    """Exact resultant with the convention

        Res(a, b) = lc(b)^deg(a) * prod over roots beta of b of a(beta),

    computed as an integer Sylvester determinant.  Vanishes iff a and b
    share a root.  Res(t-2, t-3) = +1 under this convention.
    """
    if a.is_zero or b.is_zero:
        raise ValueError("resultant of the zero polynomial is undefined")
    da, db = a.degree, b.degree
    n = da + db
    rows = []
    b_desc = list(reversed(b.coeffs))
    a_desc = list(reversed(a.coeffs))
    for i in range(da):
        rows.append([0] * i + b_desc + [0] * (n - db - 1 - i))
    for i in range(db):
        rows.append([0] * i + a_desc + [0] * (n - da - 1 - i))
    return _det_bareiss(rows)


def resultant_in_y(a: IntPoly, b_rows: list[IntPoly]) -> IntPoly:
    """Resultant in y of a(y) and b(x, y) = sum_j b_rows[j](x) * y^j,
    returned as a polynomial in x.

    Computed by specializing x at small integers and interpolating: the
    result has degree at most deg_y(a) * max_j deg(b_rows[j]), so that
    many + 1 exact values pin it down.  Points where the y-leading
    coefficient of b vanishes are skipped (the specialized resultant
    would drop degree there).
    """
    b_rows = list(b_rows)
    while b_rows and b_rows[-1].is_zero:
        b_rows.pop()
    if a.is_zero or not b_rows:
        raise ValueError("resultant of the zero polynomial is undefined")
    bound = a.degree * max(p.degree for p in b_rows)
    lead = b_rows[-1]

    xs: list[int] = []
    ys: list[int] = []
    x = 0
    while len(xs) < bound + 1:
        x = -x + (1 if x <= 0 else 0)  # 1, -1, 2, -2, ...
        if lead(x) == 0:
            continue
        b_at_x = IntPoly(tuple(p(x) for p in b_rows))
        xs.append(x)
        ys.append(resultant(a, b_at_x))

    return _interpolate_int(xs, ys)


def _interpolate_int(xs: list[int], ys: list[int]) -> IntPoly:
    """Lagrange interpolation through integer points; the answer must be an
    integer polynomial (raises if not)."""
    n = len(xs)
    acc = [Fraction(0)] * n
    for i in range(n):
        num = [Fraction(1)]
        den = Fraction(1)
        for j in range(n):
            if j == i:
                continue
            num = [
                (num[k - 1] if k else Fraction(0)) - xs[j] * (num[k] if k < len(num) else Fraction(0))
                for k in range(len(num) + 1)
            ]
            den *= xs[i] - xs[j]
        scale = Fraction(ys[i]) / den
        for k, c in enumerate(num):
            acc[k] += scale * c
    ints = []
    for c in acc:
        if c.denominator != 1:
            raise ValueError("interpolation produced a non-integer coefficient")
        ints.append(int(c))
    return IntPoly(tuple(ints))


# -- cyclotomics and totients ----------------------------------------------

_CYCLO_CACHE: dict[int, IntPoly] = {1: IntPoly((-1, 1))}


def cyclotomic(n: int) -> IntPoly:
    """The n-th cyclotomic polynomial, exact."""
    if n < 1:
        raise ValueError("n must be positive")
    got = _CYCLO_CACHE.get(n)
    if got is not None:
        return got
    num = IntPoly((-1,) + (0,) * (n - 1) + (1,))  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            num, rem = monic_divmod(num, cyclotomic(d))
            assert rem.is_zero
    _CYCLO_CACHE[n] = num
    return num


def totient_candidates(d: int) -> list[int]:
    """All N >= 1 with phi(N) <= d, ascending.

    phi(N) >= sqrt(N/2) for every N, so scanning N <= 2*d^2 is complete.
    """
    if d < 1:
        raise ValueError("d must be positive")
    limit = 2 * d * d
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:  # p prime
            for m in range(p, limit + 1, p):
                phi[m] -= phi[m] // p
    return [n for n in range(1, limit + 1) if phi[n] <= d]


# -- truncated rational power series ----------------------------------------


@dataclass(frozen=True)
class RatSeries:
    """Power-series prefix with exact rational coefficients.

    Stores exactly order+1 coefficients; zeros are kept.
    """

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "coeffs", tuple(Fraction(c) for c in self.coeffs))
        if not self.coeffs:
            raise ValueError("a series prefix needs at least the constant term")

    @classmethod
    def from_ints(cls, ints, order: int | None = None) -> "RatSeries":
        coeffs = [Fraction(c) for c in ints]
        if order is not None:
            if order + 1 < len(coeffs):
                coeffs = coeffs[: order + 1]
            else:
                coeffs += [Fraction(0)] * (order + 1 - len(coeffs))
        return cls(tuple(coeffs))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> Fraction:
        return self.coeffs[n]


def series_mul(f: RatSeries, g: RatSeries) -> RatSeries:
    """Product truncated to the smaller order."""
    order = min(f.order, g.order)
    return RatSeries(tuple(conv_trunc(list(f.coeffs), list(g.coeffs), order)))


def series_inverse(f: RatSeries) -> RatSeries:
    """Reciprocal series g with f*g = 1 up to the order of f."""
    if f.coeffs[0] == 0:
        raise ValueError("series with zero constant term has no reciprocal")
    c0 = f.coeffs[0]
    inv = [1 / c0] + [Fraction(0)] * f.order
    for n in range(1, f.order + 1):
        s = Fraction(0)
        for i in range(1, n + 1):
            ci = f.coeffs[i]
            if ci:
                s += ci * inv[n - i]
        inv[n] = -s / c0
    return RatSeries(tuple(inv))
