"""The integer kernels against independent oracles.

Each kernel in compsigns._backend is compared with ground truth from
tests/oracles.py: products with the schoolbook product, count tables
with compositions counted per multiset of parts, S_k rows with the
alternating moment sums of those counts, and series inverses by
multiplying back to 1.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    alt_moment_sum,
    first_violation_reference,
    schoolbook_product,
    triangle_counts,
    triangle_counts_by_multiset,
)

from compsigns import _backend as kernels


def test_triangle_counts_by_multiset_matches_tuples():
    # the fast counting oracle below against listing every composition
    for parts in ([], [1], [4], [2, 5], [1, 2, 3], [1, 3, 4], [2, 3, 7, 8]):
        for n in range(16):
            assert triangle_counts_by_multiset(parts, n) == triangle_counts(parts, n)


def test_conv_matches_schoolbook_product():
    rng = random.Random(501)
    assert kernels.conv([], [1, 2]) == kernels.conv([3], []) == []
    for _ in range(40):
        a = [rng.randint(-9, 9) for _ in range(rng.randint(1, 12))]
        b = [rng.randint(-9, 9) for _ in range(rng.randint(1, 12))]
        full = schoolbook_product(a, b)
        assert kernels.conv(a, b) == full
        order = rng.randint(0, 15)
        assert kernels.conv_trunc(a, b, order) == (full + [0] * order)[:order + 1]


def test_tables_match_part_counts():
    rng = random.Random(502)
    for _ in range(25):
        members = sorted(rng.sample(range(1, 12), rng.randint(0, 5)))
        n_max = rng.randint(0, 30)
        counts = [triangle_counts_by_multiset(members, n) for n in range(n_max + 1)]
        rows = kernels.comp_poly_rows(members, n_max)
        assert len(rows) == n_max + 1
        for row, tri in zip(rows, counts):
            assert not row or row[-1]  # trailing zeros stripped
            assert {i: c for i, c in enumerate(row) if c} == tri
        for t in (-2, -1, 1, 3):
            vals = kernels.eval_table(members, n_max, t)
            assert vals == [sum(c * t**i for i, c in tri.items()) for tri in counts]
            assert (kernels.delta_eval_table(members, n_max, t, vals)
                    == [sum(i * c * t**i for i, c in tri.items()) for tri in counts])


def test_sk_rows_match_alt_moment_sums():
    rng = random.Random(503)
    for _ in range(15):
        members = sorted(rng.sample(range(1, 10), rng.randint(1, 4)))
        rows = kernels.sk_rows(members, 4, 40)
        assert rows == [[alt_moment_sum(members, k, n, counts=triangle_counts_by_multiset)
                         for n in range(41)] for k in range(5)]


def test_series_inverse_and_first_violation_match_oracles():
    rng = random.Random(504)
    for _ in range(25):
        coeffs = [1] + [rng.randint(-4, 4) for _ in range(rng.randint(0, 8))]
        order = rng.randint(0, 25)
        inv = kernels.series_inv_int(coeffs, order)
        assert len(inv) == order + 1
        assert schoolbook_product(coeffs, inv)[:order + 1] == [1] + [0] * order
        members = sorted(rng.sample(range(1, 9), rng.randint(0, 4)))
        top = max(members, default=0)
        for horizon in (0, top - 1, top, 60, 300):
            assert (kernels.first_violation(members, horizon)
                    == first_violation_reference(members, horizon))


@st.composite
def _members_and_horizon(draw):
    pool = draw(st.sampled_from([range(1, 21), range(2, 21, 2), range(1, 21, 2)]))
    members = sorted(draw(st.sets(st.sampled_from(pool), max_size=8)))
    top = max(members, default=0)
    horizon = draw(st.one_of(st.sampled_from([0, top - 1, top, top + 1]),
                             st.integers(0, 400)))
    return members, max(horizon, 0)


@settings(max_examples=300, deadline=None, database=None)
@given(_members_and_horizon())
def test_first_violation_matches_reference(case):
    # the pure-Python kernel against the plain recurrence, and at small
    # horizons against signed composition counts
    members, horizon = case
    got = kernels.first_violation(members, horizon)
    assert got == first_violation_reference(members, horizon)
    if horizon <= 30:
        want = next((n for n in range(horizon + 1)
                     if (-1) ** n * alt_moment_sum(members, 0, n) < 0), -1)
        assert got == want


def test_big_integer_counts():
    # counts grow fast; the kernels must stay on exact ints
    members = [1, 2, 3]
    big = kernels.eval_table(members, 300, 1)
    assert big == [sum(row) for row in kernels.comp_poly_rows(members, 300)]
    assert big[300] == sum(triangle_counts_by_multiset(members, 300).values())
    assert big[300] > 10**75  # growth rate ~1.839^n, far past float range
