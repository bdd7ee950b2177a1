"""Tests for exact polynomial and series arithmetic."""

import random
from fractions import Fraction
from math import comb

import pytest

from compsigns import InternalError
from compsigns.poly import (
    IntPoly,
    RatSeries,
    cyclotomic,
    delta_op,
    format_poly,
    monic_divides,
    monic_divmod,
    monic_from_power_sums,
    poly_gcd,
    power_sums,
    primitive,
    resultant,
    resultant_in_y,
    series_inverse,
    series_mul,
    totient_candidates,
    yun_squarefree,
)


def rand_poly(rng, max_deg=6, span=9):
    return IntPoly(tuple(rng.randint(-span, span) for _ in range(rng.randint(0, max_deg + 1))))


def test_normalization_and_degree():
    assert IntPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert IntPoly(()).degree == -1
    assert IntPoly((0,)).is_zero
    assert IntPoly((5,)).degree == 0
    with pytest.raises(ValueError):
        IntPoly().lead  # noqa: B018


def test_ring_ops_basics():
    one_plus_t = IntPoly((1, 1))
    one_minus_t = IntPoly((1, -1))
    assert one_plus_t * one_minus_t == IntPoly((1, 0, -1))
    p = IntPoly((3, 0, 2))
    assert IntPoly() + p == p
    assert IntPoly((1, 1, 1)) * IntPoly((1,)) == IntPoly((1, 1, 1))
    assert (p - p).is_zero


def test_ring_axioms_random():
    rng = random.Random(11)
    for _ in range(60):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)


def test_eval_horner():
    p = IntPoly((1, -2, 3))
    assert p(0) == 1
    assert p(2) == 1 - 4 + 12
    assert p(Fraction(1, 2)) == Fraction(3, 4)
    assert p(1j) == 1 - 2j - 3


def test_delta_op():
    p = IntPoly((1, 2, 3))
    assert delta_op(p, 1) == IntPoly((0, 2, 6))
    assert delta_op(p, 0) == p
    assert delta_op(IntPoly((0, 0, 0, 1)), 2) == IntPoly((0, 0, 0, 9))
    # D(p)(t) = t * p'(t)
    rng = random.Random(5)
    for _ in range(30):
        q = rand_poly(rng)
        shifted = IntPoly((0,) + q.derivative().coeffs)
        assert delta_op(q, 1) == shifted


def test_delta_product_rule():
    # D^k(pq) = sum_i C(k,i) D^i(p) D^(k-i)(q)
    rng = random.Random(17)
    for _ in range(25):
        p, q = rand_poly(rng, 5), rand_poly(rng, 5)
        for k in range(6):
            lhs = delta_op(p * q, k)
            rhs = IntPoly()
            for i in range(k + 1):
                rhs = rhs + (delta_op(p, i) * delta_op(q, k - i)).scale(comb(k, i))
            assert lhs == rhs


def test_delta_linear():
    rng = random.Random(23)
    for _ in range(25):
        p, q = rand_poly(rng), rand_poly(rng)
        c = rng.randint(-5, 5)
        for k in range(4):
            assert delta_op(p + q.scale(c), k) == delta_op(p, k) + delta_op(q, k).scale(c)


def test_monic_divmod():
    a = IntPoly((2, 0, -3, 1, 4))
    b = IntPoly((1, 2, 1))
    q, r = monic_divmod(a, b)
    assert b * q + r == a
    assert r.degree < b.degree
    with pytest.raises(ValueError):
        monic_divmod(a, IntPoly((1, 2)))
    assert monic_divides(IntPoly((-1, 1)), IntPoly((-1, 0, 0, 1)))
    assert not monic_divides(IntPoly((1, 1)), IntPoly((1, 0, 0, 1, 1)))


def test_primitive():
    assert primitive(IntPoly((2, 4, 6))) == IntPoly((1, 2, 3))
    assert primitive(IntPoly((2, 4, -6))) == IntPoly((-1, -2, 3))  # positive lead
    assert primitive(IntPoly((2, -4))) == IntPoly((-1, 2))
    assert primitive(IntPoly()).is_zero


def test_poly_gcd():
    a = IntPoly((-1, 0, 1))          # (t-1)(t+1)
    b = IntPoly((1, 2, 1))           # (t+1)^2
    assert poly_gcd(a, b) == IntPoly((1, 1))
    assert poly_gcd(a, IntPoly((1,))).degree == 0
    assert poly_gcd(IntPoly(), b) == primitive(b)
    rng = random.Random(31)
    for _ in range(30):
        p, q, g = rand_poly(rng, 3), rand_poly(rng, 3), rand_poly(rng, 2)
        if g.degree < 1 or p.is_zero or q.is_zero:
            continue
        d = poly_gcd(p * g, q * g)
        # the common factor g must divide the gcd
        assert poly_gcd(d, primitive(g)) == primitive(g)


def test_resultant_anchors():
    # convention: Res(a, b) = lc(b)^deg(a) * prod a(beta) over roots beta of b
    assert resultant(IntPoly((-2, 1)), IntPoly((-3, 1))) == 1
    assert resultant(IntPoly((-1, 1)), IntPoly((-1, 1))) == 0
    assert resultant(IntPoly((1, 0, 1)), IntPoly((-1, 0, 1))) == 4
    # constant cases: lc(b)^0 * prod over deg(b) roots of the constant
    assert resultant(IntPoly((5,)), IntPoly((-1, 0, 1))) == 25
    with pytest.raises(ValueError):
        resultant(IntPoly(), IntPoly((1, 1)))


def test_resultant_vanishes_iff_common_root():
    rng = random.Random(41)
    for _ in range(60):
        a, b = rand_poly(rng, 4, 5), rand_poly(rng, 4, 5)
        if a.is_zero or b.is_zero:
            continue
        r = resultant(a, b)
        share = poly_gcd(a, b).degree >= 1
        assert (r == 0) == share


def test_resultant_multiplicative_in_linear_factors():
    # Res(a, (t-u)(t-v)) = a(u) * a(v) for monic b
    rng = random.Random(43)
    for _ in range(40):
        a = rand_poly(rng, 4, 6)
        if a.is_zero:
            continue
        u, v = rng.randint(-6, 6), rng.randint(-6, 6)
        b = IntPoly((-u, 1)) * IntPoly((-v, 1))
        assert resultant(a, b) == a(u) * a(v)


def test_resultant_in_y_matches_specialization():
    # b(x, y) = a(x*y) for a few small a; check R(x0) = Res_y(a(y), a(x0*y))
    rng = random.Random(47)
    for _ in range(10):
        a = rand_poly(rng, 3, 4)
        if a.degree < 1 or a.coeffs[0] == 0:
            continue
        rows = [IntPoly((0,) * j + (c,)) for j, c in enumerate(a.coeffs)]
        big = resultant_in_y(a, rows)
        for x0 in (2, -1, 3):
            b_at = IntPoly(tuple(p(x0) for p in rows))
            assert big(x0) == resultant(a, b_at)


def test_power_sums_anchors():
    assert power_sums(IntPoly((-1, 0, 1)), 4) == [0, 2, 0, 2]   # roots +-1
    assert power_sums(IntPoly((1, 0, 1)), 4) == [0, -2, 0, 2]   # roots +-i
    assert power_sums(IntPoly((-6, 11, -6, 1)), 3) == [6, 14, 36]  # 1, 2, 3
    with pytest.raises(ValueError):
        power_sums(IntPoly((1, 2)), 3)


def test_power_sums_round_trip_random():
    rng = random.Random(53)
    for _ in range(30):
        d = rng.randint(1, 6)
        f = IntPoly(tuple(rng.randint(-7, 7) for _ in range(d)) + (1,))
        assert monic_from_power_sums(power_sums(f, d)) == f


def test_monic_from_power_sums_rejects_non_integer_sums():
    # P_1 = 1, P_2 = 0 needs e_2 = 1/2: no monic integer polynomial has them
    with pytest.raises(InternalError):
        monic_from_power_sums([1, 0])
    with pytest.raises(InternalError):
        monic_from_power_sums([0, 0, 1])


def test_yun_squarefree():
    tm1 = IntPoly((-1, 1))
    tp2 = IntPoly((2, 1))
    p = tm1 * tm1 * tp2
    assert yun_squarefree(p) == [(tp2, 1), (tm1, 2)]
    q = tm1 * tp2
    assert yun_squarefree(q) == [(primitive(q), 1)]
    cube = tm1 * tm1 * tm1
    assert yun_squarefree(cube.scale(-7)) == [(tm1, 3)]
    with pytest.raises(ValueError):
        yun_squarefree(IntPoly())


def test_yun_reconstructs_random_products():
    rng = random.Random(53)
    lin = [IntPoly((-2, 1)), IntPoly((1, 1)), IntPoly((3, 1)), IntPoly((0, 1))]
    for _ in range(25):
        mults = [rng.randint(0, 3) for _ in lin]
        if not any(mults):
            continue
        p = IntPoly((rng.choice([1, 2, -3]),))
        for f, m in zip(lin, mults):
            for _ in range(m):
                p = p * f
        got = yun_squarefree(p)
        rebuilt = IntPoly((1,))
        for f, m in got:
            for _ in range(m):
                rebuilt = rebuilt * f
        assert rebuilt == primitive(p)
        for f, m in got:
            assert poly_gcd(f, f.derivative()).degree == 0  # square-free parts


def test_cyclotomic():
    assert cyclotomic(1) == IntPoly((-1, 1))
    assert cyclotomic(2) == IntPoly((1, 1))
    assert cyclotomic(4) == IntPoly((1, 0, 1))
    assert cyclotomic(6) == IntPoly((1, -1, 1))
    assert cyclotomic(12) == IntPoly((1, 0, -1, 0, 1))
    # prod over divisors reconstructs x^n - 1
    for n in (1, 2, 6, 12, 30):
        prod = IntPoly((1,))
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic(d)
        assert prod == IntPoly((-1,) + (0,) * (n - 1) + (1,))


def test_totient_candidates():
    assert totient_candidates(2) == [1, 2, 3, 4, 6]
    cands = totient_candidates(12)
    assert cands == [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12,
                     13, 14, 15, 16, 18, 20, 21, 22, 24, 26, 28, 30, 36, 42]
    # completeness cross-check by brute totient over the sieve window
    def phi(n):
        return sum(1 for k in range(1, n + 1) if __import__("math").gcd(k, n) == 1)
    for n in range(1, 2 * 12 * 12 + 1):
        assert (n in cands) == (phi(n) <= 12)


def test_series_inverse():
    fib = series_inverse(RatSeries.from_ints([1, -1, -1], order=8))
    assert [c for c in fib.coeffs] == [1, 1, 2, 3, 5, 8, 13, 21, 34]
    unit = series_inverse(RatSeries.from_ints([1], order=4))
    assert list(unit.coeffs) == [1, 0, 0, 0, 0]
    g = series_inverse(RatSeries.from_ints([1, 2, 3], order=3))
    assert list(g.coeffs) == [1, -2, 1, 4]
    with pytest.raises(ValueError):
        series_inverse(RatSeries.from_ints([0, 1], order=3))


def test_series_inverse_roundtrip():
    rng = random.Random(59)
    for _ in range(25):
        coeffs = [Fraction(rng.randint(1, 5))] + [
            Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(6)]
        f = RatSeries(tuple(coeffs))
        g = series_inverse(f)
        prod = series_mul(f, g)
        assert list(prod.coeffs) == [1] + [0] * f.order


def test_format_poly():
    assert format_poly(IntPoly((1, 0, 1))) == "t^2 + 1"
    assert format_poly(IntPoly((-1, -1, 0, 2))) == "2t^3 - t - 1"
    assert format_poly(IntPoly(())) == "0"
    assert format_poly(IntPoly((0, 1))) == "t"
    assert format_poly(IntPoly((3,)), var="x") == "3"
