"""The integer kernels against independent oracles.

Each kernel in compsigns._backend is compared with ground truth from
tests/oracles.py: products with the schoolbook product, count tables
with compositions counted per multiset of parts, the value rows D^k(f_n)
at several points t with the moment sums of those counts (at t = -1,
the alternating sums S_k), series inverses by
multiplying back to 1, and first_violation's test for all n by
multiplying q by 1/(1 - x^d) term by term.
"""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    alt_moment_sum,
    first_violation_reference,
    q_over_one_minus_x_d,
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


# points t for sk_rows: both signs, 0, and one past any machine word
T_POINTS = (-2, -1, 0, 1, 3, 2**70)


def _moment_values(counts, k_max, t):
    """D^k(f_n) at t from the part counts: sum_i i^k * c(i, n) * t^i."""
    return [[sum(i**k * c * t**i for i, c in tri.items()) for tri in counts]
            for k in range(k_max + 1)]


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
        k_max = rng.randint(0, 3)
        for t in T_POINTS:
            assert kernels.sk_rows(members, k_max, n_max, t) == \
                _moment_values(counts, k_max, t), (members, t)


def test_sk_rows_match_alt_moment_sums():
    rng = random.Random(503)
    for _ in range(15):
        members = sorted(rng.sample(range(1, 10), rng.randint(1, 4)))
        rows = kernels.sk_rows(members, 4, 40, -1)
        assert rows == [[alt_moment_sum(members, k, n, counts=triangle_counts_by_multiset)
                         for n in range(41)] for k in range(5)]


def test_comp_poly_rows_on_every_small_set():
    # every subset of {1..8}, the empty set included: the levels no part
    # reaches ({2} at odd n, {3,5} at n = 1, 2, 4, 7) hold no count and
    # are stored as [], every other row ends in its last non-zero count
    for mask in range(1 << 8):
        members = [a for a in range(1, 9) if mask >> (a - 1) & 1]
        assert kernels.comp_poly_rows(members, 0) == [[1]]
        for n, row in enumerate(kernels.comp_poly_rows(members, 24)):
            tri = triangle_counts_by_multiset(members, n)
            assert row == [tri[i] for i in range(max(tri, default=-1) + 1)], (members, n)


@pytest.mark.parametrize("members, k_max, n_max", [
    ([], 3, 12), ([], 0, 0), ([1, 2], 0, 40), ([4], 0, 0), ([2, 3, 7], 0, 25),
    ([5, 7], 2, 4), ([2, 9, 40], 3, 20), ([1, 30], 2, 12), ([3], 4, 2)])
def test_sk_rows_edge_cases(members, k_max, n_max):
    # the empty set, row 0 alone, and parts beyond the table size, at every
    # point; at t = -1 the rows are the sums S_k(n)
    assert kernels.sk_rows(members, k_max, n_max, -1) == [
        [alt_moment_sum(members, k, n, counts=triangle_counts_by_multiset)
         for n in range(n_max + 1)] for k in range(k_max + 1)]
    counts = [triangle_counts_by_multiset(members, n) for n in range(n_max + 1)]
    for t in T_POINTS:
        assert kernels.sk_rows(members, k_max, n_max, t) == _moment_values(counts, k_max, t)


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


def test_first_violation_matches_reference_on_every_small_set():
    # every subset of {1..10}, the empty set and each single part among
    # them, at the horizons where the zero-padded window starts and ends
    n = 10
    for mask in range(1 << n):
        members = [a for a in range(1, n + 1) if mask >> (a - 1) & 1]
        top = max(members, default=0)
        for horizon in (1, 2, 3, top - 1, 4 * n, 4 * n + 1):
            assert (kernels.first_violation(members, horizon)
                    == first_violation_reference(members, horizon)), (members, horizon)


def test_parts_above_the_horizon_change_nothing():
    # a part h + j reaches no n <= h, and it must not size the window:
    # one above a billion would ask for a window of that size
    rng = random.Random(505)
    for _ in range(200):
        members = sorted(rng.sample(range(1, 13), rng.randint(0, 5)))
        h = rng.randint(max(members, default=1), 40)
        for j in (1, 2, rng.randint(3, 50), 10**9):
            assert (kernels.first_violation(members + [h + j], h)
                    == kernels.first_violation(members, h)), (members, h, j)
    # one part left below the horizon: odd, so never a violation
    assert kernels.first_violation([3, 10**9], 100) == -1
    assert kernels.first_violation([2, 10**9], 100) == 2


class _WindowStarted(Exception):
    pass


def _window_started(*args, **kwargs):
    raise _WindowStarted


def _answer_from_parts(members, horizon=10**9):
    """first_violation's answer when its tests on A alone give one, None
    when it starts its window (patched here to raise): a -1 at a horizon
    it could never scan to is a proof for every n."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "deque", _window_started)
        try:
            return kernels.first_violation(members, horizon)
        except _WindowStarted:
            return None


def test_all_n_proof_is_exactly_its_lemma_and_is_sound():
    # every subset of {1..12}: first_violation proves a set for all n
    # exactly when its least part d is odd and q/(1 - x^d) = 1 - C with
    # C >= 0 (the empty set, 1/q = 1, too), and the plain recurrence finds
    # no violation to n = 400 in any set it proves; an even d is the first
    # violation, also found from A alone
    proved = []
    for mask in range(1 << 12):
        members = [a for a in range(1, 13) if mask >> (a - 1) & 1]
        want = not members or (members[0] % 2 == 1
                               and max(q_over_one_minus_x_d(members)) <= 0)
        got = _answer_from_parts(members)
        assert (got == -1) == want, members
        if members and members[0] % 2 == 0:  # 1/q = 1 - x^d + ...
            assert got == members[0], members
        if want:
            proved.append(members)
            assert first_violation_reference(members, 400) == -1, members
    # the empty set, the six odd single parts, and 529 sets of two or more
    assert len(proved) == 536
    assert sum(len(members) >= 2 for members in proved) == 529


def test_a_proved_set_needs_no_scan_to_any_horizon():
    # {1,3,4}: the class of 0 mod 1 reads +1 at 3 and 0 at 4
    assert _answer_from_parts([1, 3, 4], 10**7) == -1
    assert _answer_from_parts([1, 3, 4, 6]) is None  # fails at n = 9


@st.composite
def _mostly_odd_set(draw):
    # uniform subsets of {1..30} are proved about 1 time in 12; more odd
    # than even parts raises that to about 1 in 3
    odd = draw(st.sets(st.sampled_from(range(1, 31, 2)), min_size=1))
    even = draw(st.sets(st.sampled_from(range(2, 31, 2)), max_size=len(odd)))
    return odd | even


@settings(max_examples=200, deadline=None, database=None)
@given(st.one_of(_mostly_odd_set(), st.sets(st.integers(1, 30))))
def test_sets_proved_for_all_n_have_no_violation_to_600(members):
    members = sorted(members)
    assume(_answer_from_parts(members) == -1)
    assert first_violation_reference(members, 600) == -1


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


@st.composite
def _set_odd_part_and_horizon(draw):
    members = draw(st.sets(st.integers(1, 16), max_size=10))
    b = draw(st.sampled_from([b for b in range(1, 18, 2) if b not in members]))
    return sorted(members), b, draw(st.integers(1, 300))


@settings(max_examples=300, deadline=None, database=None)
@given(_set_odd_part_and_horizon())
def test_odd_part_keeps_a_pass_and_delays_a_failure(case):
    # with b odd, 1/(q_A - x^b) = sum_j x^(jb) (1/q_A)^(j+1): the word of
    # A + {b} up to n is built from the word of A up to n alone.  The
    # subset scan decides such supersets of passing sets without a run.
    members, b, horizon = case
    before = kernels.first_violation(members, horizon)
    after = kernels.first_violation(sorted(members + [b]), horizon)
    if before == -1:
        assert after == -1
    else:
        assert after == -1 or after >= before


@st.composite
def _set_even_part_and_horizon(draw):
    members = draw(st.sets(st.integers(1, 16), max_size=10))
    e = draw(st.sampled_from(range(2, 17, 2)))
    return sorted(members | {e}), e, draw(st.integers(1, 300))


@settings(max_examples=300, deadline=None, database=None)
@given(_set_even_part_and_horizon())
def test_even_part_removed_keeps_a_pass_and_delays_a_failure(case):
    # with e even, q_{A - {e}} = q_A - x^e, and 1/(q_A - x^e) =
    # sum_j x^(je) (1/q_A)^(j+1) as for an odd part added.  The subset
    # scan decides subsets of passing sets missing an even part this way.
    members, e, horizon = case
    before = kernels.first_violation(members, horizon)
    after = kernels.first_violation([a for a in members if a != e], horizon)
    if before == -1:
        assert after == -1
    else:
        assert after == -1 or after >= before


@st.composite
def _set_part_and_horizon(draw):
    members = draw(st.sets(st.integers(1, 16), max_size=10))
    return sorted(members), draw(st.integers(1, 17)), draw(st.integers(1, 300))


@settings(max_examples=300, deadline=None, database=None)
@given(_set_part_and_horizon())
def test_toggled_part_keeps_the_word_below_it(case):
    # the coefficient of x^n in 1/q_A involves only the parts <= n, so a
    # first violation below x carries to the set with x toggled
    members, x, horizon = case
    toggled = sorted(set(members) ^ {x})
    assert kernels.sk_rows(members, 0, horizon, -1)[0][:x] == \
        kernels.sk_rows(toggled, 0, horizon, -1)[0][:x]
    fv = kernels.first_violation(members, horizon)
    if 0 <= fv < x:
        assert kernels.first_violation(toggled, horizon) == fv


def test_big_integer_counts():
    # counts grow fast; the kernels must stay on exact ints
    members = [1, 2, 3]
    big = kernels.sk_rows(members, 0, 300, 1)[0]
    assert big == [sum(row) for row in kernels.comp_poly_rows(members, 300)]
    assert big[300] == sum(triangle_counts_by_multiset(members, 300).values())
    assert big[300] > 10**75  # growth rate ~1.839^n, far past float range
