"""Exact polynomial and truncated power-series arithmetic.

Integer polynomials are dense: coefficient i belongs to t^i, trailing
zeros are never stored, and the zero polynomial has an empty coefficient
tuple.  All arithmetic is arbitrary-precision and exact.

Besides ring operations this module provides the delta operator
D = t * d/dt, truncated rational power series with exact inversion, and
the computer-algebra primitives used by the non-periodicity certifier:
integer gcd by primitive remainder sequences, Yun square-free
decomposition, root power sums and Newton's identities, an exact test for
a cyclotomic factor that never builds the cyclotomic polynomial, and
enumeration of all N whose totient is below a bound.

The resultant section (Sylvester determinants and interpolation in x) is
a test oracle only.  The certifier builds its ratio polynomial from power
sums instead; the resultant route stays as the independent second
construction the tests compare against, and because the benchmark's
tracer (perfbench/shim.py) looks up ``resultant_in_y`` by name.
"""

from __future__ import annotations

from math import gcd as _int_gcd

from . import InternalError, Record
from ._backend import conv, conv_trunc

TYPE_CHECKING = False  # read by type checkers as typing's, without its import
if TYPE_CHECKING:  # the rational references import fractions where they run
    from fractions import Fraction


def _trim(coeffs) -> tuple:
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


class IntPoly(Record):
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

def delta_op(p: IntPoly, k: int = 1) -> IntPoly:
    """k-fold application of D = t * d/dt: coefficient i becomes a_i * i^k."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if k == 0:
        return p
    return IntPoly(tuple(c * i**k for i, c in enumerate(p.coeffs)))


# -- exact division and gcd ------------------------------------------------


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


def _pseudo_rem(a: IntPoly, b: IntPoly) -> IntPoly:
    """Remainder of lead(b)^s * a by a nonzero b, s <= deg a - deg b + 1."""
    r = list(a.coeffs)
    for top in range(len(r) - 1, b.degree - 1, -1):
        c = r[top]
        if c:
            r = [b.lead * x for x in r]
            for j, bj in enumerate(b.coeffs, top - b.degree):
                r[j] -= c * bj
    return IntPoly(r)


def _exact_quotient(a: IntPoly, b: IntPoly) -> IntPoly:
    """a / b for a b that divides a in Z[x]; a remainder is a broken
    invariant and raises InternalError."""
    r, q = list(a.coeffs), []
    for top in range(len(r) - 1, b.degree - 1, -1):
        c = r[top] // b.lead
        q.append(c)
        for j, bj in enumerate(b.coeffs, top - b.degree):
            r[j] -= c * bj
    if any(r):
        raise InternalError(
            f"a degree {b.degree} divisor leaves a remainder on degree {a.degree}")
    return IntPoly(q[::-1])


def poly_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Primitive gcd with positive leading coefficient; gcd(0, 0) = 0.

    Primitive remainder sequence (Brown 1971): Euclid on pseudo-remainders,
    each reduced to its primitive part.  Contents play no part.
    """
    a, b = primitive(a), primitive(b)
    while not b.is_zero:
        a, b = b, primitive(_pseudo_rem(a, b))
    return a


def yun_squarefree(p: IntPoly) -> list[tuple[IntPoly, int]]:
    """Square-free decomposition: pairs (factor, multiplicity) with the
    factors primitive, pairwise coprime, and p = c * prod factor^mult.

    Constant factors are dropped; the input must be nonzero.  Yun's steps
    run on the primitive part of p, and every divisor is a primitive factor
    of its dividend over Q, so by Gauss's lemma every division is exact.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    f = primitive(p)
    g = poly_gcd(f, f.derivative())
    w = _exact_quotient(f, g)
    y = _exact_quotient(f.derivative(), g)
    out = []
    i = 1
    while w.degree > 0:
        z = y - w.derivative()
        h = poly_gcd(w, z)
        if h.degree > 0:
            out.append((h, i))
        w = _exact_quotient(w, h)
        y = _exact_quotient(z, h)
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
    from fractions import Fraction

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


# -- cyclotomic factors and totients ------------------------------------------


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n >= 1, ascending."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def cyclotomic_divides(m: int, r: IntPoly) -> bool:
    """True if the m-th cyclotomic polynomial Phi_m divides r, exactly,
    without building Phi_m.

    Phi_m is irreducible, so it divides r iff r(zeta) = 0 for a primitive
    m-th root of unity zeta.  Folding r mod x^m - 1 keeps that value.  By
    the CRT over x^m - 1 = prod_{d | m} Phi_d, multiplying the fold by
    x^(m/p) - 1 for every prime p | m kills the Phi_d components with d a
    proper divisor of m (each such d divides some m/p) and leaves the Phi_m
    component times a factor nonzero at zeta.  So the product is zero iff
    Phi_m | r.
    """
    if m < 1:
        raise ValueError("m must be positive")
    s = [0] * m
    for i, c in enumerate(r.coeffs):
        s[i % m] += c
    for p in _prime_factors(m):
        k = m // p
        s = [s[j - k] - s[j] for j in range(m)]
    return not any(s)


def totient_candidates(d: int) -> list[int]:
    """All N >= 1 with phi(N) <= d, ascending.

    Depth-first over prime factorizations with the primes ascending:
    phi(p^e) = (p-1) p^(e-1), so only primes p <= d+1 occur, and a branch
    stops at the first prime whose factor p-1 would push phi past d.
    """
    if d < 1:
        raise ValueError("d must be positive")
    primes = [p for p in range(2, d + 2) if _prime_factors(p) == [p]]
    out = []

    def walk(start: int, n: int, phi: int) -> None:
        out.append(n)
        for i in range(start, len(primes)):
            p = primes[i]
            n_p, phi_p = n * p, phi * (p - 1)
            if phi_p > d:
                break
            while phi_p <= d:
                walk(i + 1, n_p, phi_p)
                n_p, phi_p = n_p * p, phi_p * p

    walk(0, 1, 1)
    return sorted(out)


# -- truncated rational power series ----------------------------------------


class RatSeries(Record):
    """Power-series prefix with exact rational coefficients.

    Stores exactly order+1 coefficients; zeros are kept.
    """

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        from fractions import Fraction

        object.__setattr__(
            self, "coeffs", tuple(Fraction(c) for c in self.coeffs))
        if not self.coeffs:
            raise ValueError("a series prefix needs at least the constant term")

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
    from fractions import Fraction

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
