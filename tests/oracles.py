"""Independent brute-force oracles shared by the test modules.

Everything here enumerates actual tuples, deliberately avoiding the
recurrences used by the package, so agreement is meaningful.
"""

from collections import Counter


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


def alt_moment_sum(parts, k, n) -> int:
    """Sum of (-1)^i * i^k over compositions grouped by part count i."""
    tri = triangle_counts(parts, n)
    return sum((-1) ** i * i**k * c for i, c in tri.items())


_CYCLO_BY_DIVISION = {}


def cyclotomic_by_division(n):
    """The n-th cyclotomic polynomial as x^n - 1 divided by every Phi_d
    with d a proper divisor of n (long division, cached)."""
    from compsigns.poly import IntPoly, monic_divmod

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
