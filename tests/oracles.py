"""Independent brute-force oracles shared by the test modules.

Everything here enumerates actual tuples or multisets, sieves, or
divides polynomials by schoolbook long division, deliberately avoiding
the recurrences and shortcuts used by the package, so agreement is
meaningful.
"""

from collections import Counter
from fractions import Fraction
from itertools import zip_longest
from math import factorial, gcd, isqrt, lcm, prod


def compositions_of(parts, n):
    """Yield every ordered tuple over `parts` summing to n."""
    parts = sorted(parts)
    stack = []

    def rec(remaining):
        if remaining == 0:
            yield tuple(stack)
            return
        for a in parts:
            if a > remaining:
                break
            stack.append(a)
            yield from rec(remaining - a)
            stack.pop()

    yield from rec(n)


def triangle_counts(parts, n) -> Counter:
    """Counter mapping part-count i to the number of compositions of n."""
    return Counter(len(c) for c in compositions_of(parts, n))


def triangle_counts_by_multiset(parts, n) -> Counter:
    """triangle_counts without listing the compositions one by one.

    A composition is an ordering of a multiset of parts: the multiset with
    m_a copies of each part a has i = sum m_a parts and i!/prod(m_a!)
    distinct orderings.  Enumerating the multisets keeps n in the hundreds
    cheap, where the tuples number far beyond 10^9.
    """
    parts = sorted(set(parts))
    if not parts:
        return Counter({0: 1}) if n == 0 else Counter()
    counts = Counter()

    def rec(k, remaining, mults):
        if k == len(parts) - 1:  # the last part takes what is left, if it can
            m, r = divmod(remaining, parts[k])
            if r == 0:
                mults = mults + [m]
                i = sum(mults)
                counts[i] += factorial(i) // prod(map(factorial, mults))
            return
        for m in range(remaining // parts[k] + 1):
            rec(k + 1, remaining - m * parts[k], mults + [m])

    rec(0, n, [])
    return counts


def partitions_of(parts, n, cap=None):
    """Yield every non-increasing tuple over `parts` summing to n."""
    if n == 0:
        yield ()
        return
    usable = sorted((p for p in parts if cap is None or p <= cap), reverse=True)
    for a in usable:
        if a <= n:
            for tail in partitions_of(parts, n - a, a):
                yield (a,) + tail


def partition_count(parts, n) -> int:
    return sum(1 for _ in partitions_of(parts, n))


def alt_moment_sum(parts, k, n, counts=triangle_counts) -> int:
    """Sum of (-1)^i * i^k over compositions grouped by part count i, as
    the part-count Counter `counts(parts, n)` gives them."""
    tri = counts(parts, n)
    return sum((-1) ** i * i**k * c for i, c in tri.items())


def schoolbook_product(a, b):
    """Coefficients of the product of two coefficient lists: entry n is
    the sum of a[i] * b[n - i] over every valid i."""
    return [sum(a[i] * b[n - i] for i in range(len(a)) if 0 <= n - i < len(b))
            for n in range(len(a) + len(b) - 1)]


def monic_divmod(a, b):
    """Quotient and remainder of the integer polynomial a by the monic b,
    both IntPoly, by schoolbook long division."""
    from compsigns.poly import IntPoly

    assert b.coeffs and b.coeffs[-1] == 1, "divisor must be monic"
    db = b.degree
    r = list(a.coeffs)
    q = [0] * max(len(r) - db, 0)
    for i in range(len(r) - 1 - db, -1, -1):
        c = q[i] = r[i + db]
        if c:
            for j, bj in enumerate(b.coeffs):
                r[i + j] -= c * bj
    return IntPoly(q), IntPoly(r[:db])


_CYCLO_BY_DIVISION = {}


def cyclotomic_by_division(n):
    """The n-th cyclotomic polynomial as x^n - 1 divided by every Phi_d
    with d a proper divisor of n (long division, cached)."""
    from compsigns.poly import IntPoly

    got = _CYCLO_BY_DIVISION.get(n)
    if got is not None:
        return got
    num = IntPoly((-1,) + (0,) * (n - 1) + (1,))
    for d in range(1, n):
        if n % d == 0:
            num, rem = monic_divmod(num, cyclotomic_by_division(d))
            assert rem.is_zero
    _CYCLO_BY_DIVISION[n] = num
    return num


def cyclotomic_divides_by_division(m, r):
    """True if the m-th cyclotomic polynomial divides r, by trial division."""
    return monic_divmod(r, cyclotomic_by_division(m))[1].is_zero


def _rational_trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _rational_divmod(a, b):
    """Quotient and remainder of Fraction coefficient lists over Q, by
    schoolbook long division; b must be nonzero."""
    r, db = list(a), len(b) - 1
    q = [Fraction(0)] * max(len(r) - db, 0)
    for i in range(len(q) - 1, -1, -1):
        c = q[i] = r[i + db] / b[-1]
        for j, bj in enumerate(b):
            r[i + j] -= c * bj
    return _rational_trim(q), _rational_trim(r[:db])


def _rational_gcd(a, b):
    """Monic gcd of Fraction coefficient lists by Euclid over Q;
    gcd(0, 0) = 0."""
    while b:
        a, b = b, _rational_divmod(a, b)[1]
    return [c / a[-1] for c in a]


def _monic_to_primitive(a):
    """The primitive integer polynomial with positive lead that is a
    rational multiple of the monic (or zero) Fraction list a."""
    from compsigns.poly import IntPoly

    den = lcm(*(c.denominator for c in a))
    ints = [int(c * den) for c in a]
    g = gcd(*ints)
    return IntPoly(tuple(c // g for c in ints))


def _rational_derivative(f):
    return [i * c for i, c in enumerate(f) if i]


def gcd_over_q(a, b):
    """poly_gcd reference: the monic gcd over Q by Euclid, scaled to the
    primitive integer polynomial with positive lead."""
    return _monic_to_primitive(_rational_gcd([Fraction(c) for c in a.coeffs],
                                             [Fraction(c) for c in b.coeffs]))


def squarefree_over_q(p):
    """yun_squarefree reference: Yun's steps over Q on monic gcds, with
    each factor scaled to the primitive integer polynomial; p nonzero."""
    f = [Fraction(c) for c in p.coeffs]
    g = _rational_gcd(f, _rational_derivative(f))
    w = _rational_divmod(f, g)[0]
    y = _rational_divmod(_rational_derivative(f), g)[0]
    out = []
    i = 1
    while len(w) > 1:
        z = _rational_trim([u - v for u, v in
                            zip_longest(y, _rational_derivative(w), fillvalue=0)])
        h = _rational_gcd(w, z)
        if len(h) > 1:
            out.append((_monic_to_primitive(h), i))
        w = _rational_divmod(w, h)[0]
        y = _rational_divmod(z, h)[0]
        i += 1
    return out


def totient_candidates_by_sieve(d):
    """All N >= 1 with phi(N) <= d, ascending, from a totient sieve.

    phi(N) >= sqrt(N/2) for every N, so sieving N <= 2*d^2 is complete.
    """
    limit = 2 * d * d
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:  # p prime
            for m in range(p, limit + 1, p):
                phi[m] -= phi[m] // p
    return [n for n in range(1, limit + 1) if phi[n] <= d]


def set_member_reference(kind, data, x):
    """Whether x lies in the part-set of this kind and data, read off the
    definition of each kind; a base-m repunit is a number whose base-m
    digits are all 1."""
    if x < 1:
        return False
    if kind == "explicit":
        return x in data
    if kind == "range":
        return x <= data[0]
    if kind == "cofinite":
        return x not in data
    m = data[0]
    while x:
        x, digit = divmod(x, m)
        if digit != 1:
            return False
    return True


def first_violation_reference(members, horizon):
    """Smallest n <= horizon where (-1)^n * S_0(n) < 0, or -1 if none: the
    plain recurrence over every member <= n at every n, with no window
    and no unrolled parity."""
    g = [1] + [0] * horizon
    for n in range(1, horizon + 1):
        s = 0
        for a in members:
            if a > n:
                break
            s += g[n - a]
        v = -s
        g[n] = v
        if (v if n % 2 == 0 else -v) < 0:
            return n
    return -1


def q_over_one_minus_x_d(members):
    """Coefficients 1 .. max(A) + d of q/(1 - x^d), where q = 1 + sum_a (-x)^a
    and d = min(A), by multiplying q by 1 + x^d + x^2d + ... term by term.
    Past max(A) each residue class mod d keeps its value, so these are all
    the values the series takes at n >= 1."""
    d, top = members[0], members[-1]
    q = [1] + [0] * top
    for a in members:
        q[a] = (-1) ** a
    geometric = [int(i % d == 0) for i in range(top + d + 1)]
    return schoolbook_product(q, geometric)[1:top + d + 1]


def unity_screen_reference(zeta, orders):
    """Least |zeta^n - 1| over the orders and the first order attaining it,
    computing zeta**n for every order at zeta's precision."""
    best, best_at = float("inf"), 0
    for n in orders:
        dist = abs(zeta**n - 1)
        if dist < best:
            best, best_at = dist, n
    return best, best_at


def pair_of(raw):
    """An mpmath.libmp raw real (sign, man, exp, bc) as the canonical
    bigfloat pair (man, exp) of the same value: man odd, or (0, 0), or
    (0, None) for +inf."""
    from mpmath import libmp

    if raw == libmp.finf:
        return 0, None
    sign, man, exp, _ = raw
    if not man:
        return 0, 0
    zeros = (man & -man).bit_length() - 1
    return (-1) ** sign * (man >> zeros), exp + zeros


def libmp_raw(pair):
    """A bigfloat pair (man, exp) as the mpmath.libmp raw real with the
    same mantissa and exponent, even mantissas kept as they are."""
    from mpmath import libmp

    man, exp = pair
    if exp is None:
        return libmp.finf
    return (int(man < 0), abs(man), exp if man else 0, abs(man).bit_length())


def as_mpmath(x):
    """A bigfloat Real or Complex as the mpmath number of the same value,
    rounded nowhere (a complex's raw value is a pair of pairs)."""
    import mpmath as mp

    if isinstance(x.raw[0], tuple):
        return mp.make_mpc(tuple(libmp_raw(p) for p in x.raw))
    return mp.make_mpf(libmp_raw(x.raw))


def _pow2(e):
    return Fraction(2) ** e


def round_fraction(x, prec, rnd):
    """The rational x rounded to prec significant bits: to nearest with
    ties to even ("n"), toward zero ("d") or away from zero ("u"), found
    by scaling |x| into [2^(prec-1), 2^prec) and rounding its integer part."""
    if not x:
        return Fraction(0)
    mag = abs(x)
    e = mag.numerator.bit_length() - mag.denominator.bit_length() - prec
    while mag / _pow2(e) >= 2**prec:
        e += 1
    while mag / _pow2(e) < 2 ** (prec - 1):
        e -= 1
    scaled = mag / _pow2(e)
    low = scaled.numerator // scaled.denominator
    rest = scaled - low
    if rnd == "d":
        up = False
    elif rnd == "u":
        up = rest > 0
    else:
        up = rest > Fraction(1, 2) or (rest == Fraction(1, 2) and low % 2 == 1)
    return (low + up) * _pow2(e) * (1 if x > 0 else -1)


def round_sqrt(x, prec, rnd):
    """sqrt(x) for a rational x >= 0, rounded as round_fraction rounds,
    bracketed by integer squares: with y = x * 4^k and r = isqrt(floor(y)),
    r <= sqrt(y) < r + 1, exact when r^2 = y, and past the midpoint when
    y > (r + 1/2)^2; k is chosen so that r has exactly prec bits."""
    if not x:
        return Fraction(0)
    k = prec - (x.numerator.bit_length() - x.denominator.bit_length()) // 2
    while True:
        y = x * Fraction(4) ** k
        r = isqrt(y.numerator // y.denominator)
        if r.bit_length() > prec:
            k -= 1
        elif r.bit_length() < prec:
            k += 1
        else:
            break
    mid = Fraction(2 * r + 1, 2) ** 2
    if rnd == "d":
        up = False
    elif rnd == "u":
        up = r * r != y
    else:
        up = y > mid or (y == mid and r % 2 == 1)
    return (r + up) / _pow2(k)
