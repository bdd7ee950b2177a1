"""Acceptance gate: every criterion at its stated tolerance.

Each criterion is one test emitting a single pass/fail line; run with
``pytest -v`` to see them (prints also appear under ``-s`` / ``-rA``).
All randomness is seeded; the whole file targets laptop-scale runtimes.
"""

import functools
import random

import mpmath as mp
import pytest

from oracles import as_mpmath, triangle_counts

from compsigns.compositions import comp_polys, verify_identities
from compsigns.explorer import (
    construct_distinct_subset_sums,
    enumerate_F,
    verify_cofinite_even_complement,
    verify_distinct_subset_sums,
)
from compsigns.nonperiodic import (
    INCONCLUSIVE,
    NOT_EVENTUALLY_PERIODIC,
    check_nonperiodic,
    denom_poly,
    roots_numeric,
)
from compsigns.poly import IntPoly
from compsigns.sets import COFINITE, SetSpec, SpecError, explicit, parse_spec
from compsigns.signs import (
    CONJECTURE_NOTE,
    CONSISTENT,
    NO_PERIOD,
    check_even_range_conjecture,
    check_odd_set,
    check_range_set_pattern,
    detect_period,
    sign_word,
)
from compsigns.sums import sk_direct, sk_fast, sk_via_conv, sk_via_q


def criterion(num, text):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:02d} FAIL: {text}")
                raise
            print(f"criterion {num:02d} PASS: {text}")
        return wrapper
    return deco


def _mixed_sets(count, seed, horizon):
    """Finite, cofinite and odd-only sets, deterministically seeded."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        kind = len(out) % 3
        if kind == 0:
            elems = sorted(rng.sample(range(1, 13), rng.randint(1, 5)))
            out.append(explicit(elems, horizon=horizon))
        elif kind == 1:
            removed = tuple(sorted(rng.sample(range(1, 11), rng.randint(0, 4))))
            out.append(SetSpec(COFINITE, removed, horizon))
        else:
            odds = sorted(rng.sample(range(1, 26, 2), rng.randint(1, 5)))
            out.append(explicit(odds, horizon=horizon))
    return out


SUITE_SETS = _mixed_sets(25, seed=20250825, horizon=80)


@criterion(1, "counting ground truth vs brute-force enumeration")
def test_c01_counting_ground_truth():
    table = comp_polys(parse_spec("{1,2,3}"), 4)
    assert table.count(4) == 7
    assert table.by_parts(2, 4) == 3
    assert table.by_parts(3, 4) == 3
    assert table.by_parts(4, 4) == 1
    for mask in range(1 << 6):
        members = [i + 1 for i in range(6) if mask >> i & 1]
        got = comp_polys(explicit(members, horizon=20), 18)
        for n in range(19):
            expect = triangle_counts(members, n)
            for i in range(n + 1):
                assert got.by_parts(i, n) == expect.get(i, 0)


@criterion(2, "structural identity suite, 25 mixed sets, zero tolerance")
def test_c02_identity_suite():
    for spec in SUITE_SETS:
        report = verify_identities(spec, 60)
        assert report.all_pass, (str(spec), report.summary_lines())


@criterion(3, "four route equality, K<=4 N<=60, integrality clean")
def test_c03_route_equivalence():
    for spec in SUITE_SETS:
        grids = [route(spec, 4, 60)
                 for route in (sk_direct, sk_fast, sk_via_q, sk_via_conv)]
        assert grids[0].values == grids[1].values == grids[2].values == grids[3].values, str(spec)


@criterion(4, "closed-form sign patterns for range sets, n<=200")
def test_c04_range_patterns():
    for m in (2, 3, 4, 5, 7, 8):
        chk = check_range_set_pattern(m, 200)
        assert chk.passed, (m, chk.first_mismatch)


@criterion(5, "odd sets: count identity and no -1, k<=4 n<=200")
def test_c05_odd_sets():
    rng = random.Random(31337)
    for _ in range(10):
        odds = sorted(rng.sample(range(1, 26, 2), rng.randint(1, 6)))
        chk = check_odd_set(explicit(odds, horizon=220), 200, k_max=4)
        assert chk.passed, (odds, chk)


@criterion(6, "full range set {1..300}: sums vanish past k+2")
def test_c06_full_range_vanishing():
    grid = sk_fast(parse_spec("1..300@320"), 5, 300)
    for n in range(2, 301):
        assert grid.value(0, n) == 0
    for k in range(6):
        for n in range(k + 3, 301):
            assert grid.value(k, n) == 0, (k, n)


@criterion(7, "cofinite even-complement identity and non-negativity")
def test_c07_cofinite_even_complement():
    for elems in ((), (2,), (2, 6), (4, 8, 10)):
        chk = verify_cofinite_even_complement(explicit(elems), 200, k_max=3)
        assert chk.passed, (elems, chk)


@criterion(8, "distinct-subset-sum sets: partition identity to n=300")
def test_c08_distinct_subset_sums():
    for base in ((1, 3), (1, 3, 5)):
        chk = verify_distinct_subset_sums(explicit(base), 300)
        assert chk.passed, (base, chk.mismatch_at)
    with pytest.raises(SpecError):
        construct_distinct_subset_sums(explicit([1, 3, 4]))


@criterion(9, "certifier: {2,3} and {1,4} certified, root anchors within tolerance")
def test_c09_certifier():
    p23 = denom_poly(parse_spec("{2,3}"))
    p14 = denom_poly(parse_spec("{1,4}"))

    roots = roots_numeric(p23)
    reals = [as_mpmath(r.value) for r in roots if r.value.imag == 0]
    uppers = [as_mpmath(r.value) for r in roots if r.value.imag > 0]
    assert len(reals) == 1 and len(uppers) == 1
    assert abs(reals[0] - mp.mpf("-1.4656")) < 5e-4
    assert abs(uppers[0].real - mp.mpf("0.2328")) < 5e-4
    assert abs(uppers[0].imag - mp.mpf("0.7926")) < 5e-4

    rep23 = check_nonperiodic(p23)
    rep14 = check_nonperiodic(p14)
    assert rep23.verdict == NOT_EVENTUALLY_PERIODIC
    assert rep14.verdict == NOT_EVENTUALLY_PERIODIC
    root = as_mpmath(rep23.dominant.root)
    zeta = mp.conj(root) / abs(root)
    assert abs(zeta**12 - mp.mpc("-0.95", "-0.28")) < 0.02

    assert check_nonperiodic(IntPoly((1, -1, -1))).verdict == INCONCLUSIVE

    for p, numeric in ((p23, rep23), (p14, rep14)):
        rep = check_nonperiodic(p, exact=True)
        assert rep.verdict == numeric.verdict
        assert rep.exact_test.divisor_order is None


@criterion(10, "10000-sign word of {2,3} shows no (100,500) period")
def test_c10_long_word_no_period():
    grid = sk_fast(parse_spec("{2,3}@10100"), 0, 10000)
    word = sign_word(grid, 0, normalized=True)
    assert len(word) == 10001
    finding = detect_period(word, 100, 500)
    assert finding.verdict == NO_PERIOD


@criterion(11, "subset scan: bound met, {1,2} fails at 3, odd subsets pass")
def test_c11_subset_scan():
    res = enumerate_F(10, 200)
    assert res.count >= 2**5
    assert res.first_violations[0b11] == 3  # {1,2} fails, first at n = 3
    odd_masks = [m for m in range(1, 1 << 10)
                 if all(m >> i & 1 == 0 for i in range(1, 10, 2))]
    assert len(odd_masks) == 31
    assert all(res.first_violations[m] is None for m in odd_masks)


@criterion(12, "even-range probe consistent at horizon (conjecture only)")
def test_c12_conjecture_probe():
    for k in (6, 7):
        chk = check_even_range_conjecture(2, k, 600)
        assert chk.consistent, (k, chk.finding)
        assert chk.finding.verdict == CONSISTENT
        assert chk.finding.period == 6
        base = (1, 1, 1, -1, -1, -1)
        doubled = base + base
        pat = tuple(chk.finding.pattern)
        assert any(doubled[i:i + 6] == pat for i in range(6))
        assert chk.note == CONJECTURE_NOTE
