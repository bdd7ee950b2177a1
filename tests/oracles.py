"""Independent brute-force oracles shared by the test modules.

Everything here enumerates actual tuples or multisets, sieves, or
divides polynomials by schoolbook long division, deliberately avoiding
the recurrences and shortcuts used by the package, so agreement is
meaningful.
"""

from collections import Counter
from math import factorial, prod


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


def total_count(parts, n) -> int:
    return sum(1 for _ in compositions_of(parts, n))


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
