"""Tests for the four S_k(n) routes and their exact cross-validation."""

import random

import pytest

from oracles import alt_moment_sum

from compsigns.sums import (
    IntegralityError,
    grid_csv,
    normalized_violation,
    sk_direct,
    sk_fast,
    sk_via_conv,
    sk_via_q,
)
from compsigns.sets import explicit, parse_spec


def test_anchors_123():
    grid = sk_direct(parse_spec("{1,2,3}"), 1, 4)
    assert grid.value(0, 4) == 1  # 3 - 3 + 1
    assert grid.value(1, 4) == 1  # 2*3 - 3*3 + 4*1
    assert grid.value(0, 0) == 1
    assert grid.value(1, 0) == 0


def test_anchor_12_row0():
    grid = sk_fast(parse_spec("{1,2}"), 0, 5)
    assert grid.row(0) == (1, -1, 0, 1, -1, 0)


def test_anchor_134():
    grid = sk_fast(parse_spec("{1,3,4}"), 0, 4)
    assert grid.row(0) == (1, -1, 1, -2, 2)


def test_single_part_one():
    # only one composition of n: n parts of size 1, so S_k(n) = (-1)^n n^k
    for route in (sk_direct, sk_fast, sk_via_q, sk_via_conv):
        grid = route(parse_spec("{1}"), 3, 12)
        for k in range(4):
            for n in range(13):
                assert grid.value(k, n) == (-1) ** n * n**k, (route, k, n)


def test_matches_brute_force():
    rng = random.Random(211)
    for _ in range(6):
        parts = sorted(rng.sample(range(1, 7), rng.randint(1, 4)))
        for route in (sk_direct, sk_fast):
            grid = route(explicit(parts), 3, 11)
            for k in range(4):
                for n in range(12):
                    assert grid.value(k, n) == alt_moment_sum(parts, k, n), route


def test_four_routes_agree():
    rng = random.Random(223)
    specs = [parse_spec(s) for s in ("{2,3}", "{1,3,5}", "N+\\{2,6}@80", "1..6")]
    for _ in range(6):
        specs.append(explicit(rng.sample(range(1, 14), rng.randint(1, 6)), horizon=80))
    for spec in specs:
        ref = sk_direct(spec, 4, 25)
        for route in (sk_fast, sk_via_q, sk_via_conv):
            assert route(spec, 4, 25).values == ref.values, (spec.render(), route)


def test_grid_past_the_horizon():
    # the default horizon is 1000, and a grid to n = 1500 needs no wider one
    want = sk_fast(parse_spec("{1,4,5}@2000"), 3, 1500).values
    assert sk_fast(parse_spec("{1,4,5}"), 3, 1500).values == want


def test_grid_invariants():
    grid = sk_fast(parse_spec("{2,5}"), 4, 30)
    for k in range(5):
        assert grid.value(k, 0) == (1 if k == 0 else 0)
    row0 = sk_direct(parse_spec("{2,5}"), 0, 30).row(0)
    assert grid.row(0) == row0


def test_via_q_empty_set_gives_row_0_then_zero_rows():
    # the empty set has no q-series; its only composition is the empty one
    # of n = 0, so S_0(0) = 1 and every other entry is zero
    grid = sk_via_q(parse_spec("{}"), 2, 5)
    assert grid.values == ((1, 0, 0, 0, 0, 0), (0,) * 6, (0,) * 6)
    assert grid == sk_fast(parse_spec("{}"), 2, 5)


def test_integrality_guard_fires_on_corrupt_base(monkeypatch):
    # sk_via_q trusts its k=0 row; feed it one no composition table could
    # produce so the q(0) = 1/2 term for {2} survives unreduced
    import compsigns.sums as sums_mod
    from compsigns.sums import SkGrid

    spec = parse_spec("{2}")
    fake = SkGrid(spec, 0, 3, ((1, 0, -1, 1),))  # true S_0(3) is 0, not 1
    monkeypatch.setattr(sums_mod, "sk_fast", lambda s, k, n: fake)
    with pytest.raises(IntegralityError):
        sums_mod.sk_via_q(spec, 1, 3)


@pytest.mark.parametrize("text", ["{1,2,3}", "{2}", "{2,3}", "{3,5,7}",
                                  "N+\\{1}@40", "N+\\{2,6}@50"])
def test_via_q_catches_perturbed_scaled_q(text, monkeypatch):
    import compsigns.sums as sums_mod
    from compsigns.compositions import q_series_scaled

    def perturbed(spec, order):
        m, q = q_series_scaled(spec, order)
        return m, q[:3] + [q[3] + 1] + q[4:]

    spec = parse_spec(text)
    monkeypatch.setattr(sums_mod, "q_series_scaled", perturbed)
    try:
        grid = sums_mod.sk_via_q(spec, 3, 25)
    except IntegralityError:
        return
    assert grid.values != sk_fast(spec, 3, 25).values


def test_validation():
    with pytest.raises(ValueError):
        sk_fast(parse_spec("{1}"), -1, 5)
    with pytest.raises(ValueError):
        sk_fast(parse_spec("{1}"), 0, -1)


def test_nonneg_propagation():
    # whenever row 0 is normalized-non-negative, all rows are
    rng = random.Random(227)
    seen_nonneg = 0
    for _ in range(12):
        spec = explicit(rng.sample(range(1, 12), rng.randint(1, 5)), horizon=60)
        grid = sk_fast(spec, 4, 40)
        row0_ok = all(
            (v if n % 2 == 0 else -v) >= 0 for n, v in enumerate(grid.row(0)))
        if row0_ok:
            seen_nonneg += 1
            assert normalized_violation(grid) is None, spec.render()
    assert seen_nonneg > 0  # the sample must exercise the property


def test_normalized_violation_coords():
    grid = sk_fast(parse_spec("{1,2}"), 0, 10)
    # row 0 is 1,-1,0,1,-1,... so normalized word is 1,1,0,-1,... -> n=3
    assert normalized_violation(grid) == (0, 3)
    odd = sk_fast(parse_spec("{1,3,5}"), 4, 40)
    assert normalized_violation(odd) is None


def test_grid_csv_and_summary():
    grid = sk_fast(parse_spec("{1,2,3}"), 1, 4)
    lines = grid_csv(grid).splitlines()
    assert lines[0] == "k,n,S"
    assert lines[1] == "0,0,1"
    assert lines[-1] == "1,4,1"
