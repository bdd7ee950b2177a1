"""Tests for the dominant-root non-periodicity certifier."""

import json
import math
import random

import mpmath as mp
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (
    as_mpmath,
    cyclotomic_by_division,
    cyclotomic_divides_by_division,
    pair_of,
    totient_candidates_by_sieve,
    unity_screen_reference,
)

from compsigns import nonperiodic
from compsigns._backend import series_inv_int
from compsigns.bigfloat import Complex
from compsigns.nonperiodic import (
    INCONCLUSIVE,
    NOT_EVENTUALLY_PERIODIC,
    NOTE_EXACT_SKIPPED,
    REASON_CONVERGENCE,
    REASON_DOMINANT_AMBIGUOUS,
    REASON_DOMINANT_REAL,
    REASON_EXACT_DIVISOR,
    REASON_GAP,
    REASON_UNITY,
    RootConvergenceError,
    check_nonperiodic,
    check_set_nonperiodic,
    denom_poly,
    ratio_poly,
    roots_numeric,
)
from compsigns.poly import (
    IntPoly,
    primitive,
    resultant_in_y,
    totient_candidates,
    yun_squarefree,
)
from compsigns.sets import SpecError, explicit, parse_spec
from compsigns.signs import NO_PERIOD, SignWord, detect_period
from compsigns.sums import sk_fast

P23 = IntPoly((1, 0, 1, 1))
P14 = IntPoly((1, 1, 0, 0, 1))
PHI3_PHI4 = cyclotomic_by_division(3) * cyclotomic_by_division(4)


def test_denom_poly_anchors():
    assert denom_poly(parse_spec("{2,3}")) == P23
    assert denom_poly(parse_spec("{1,4}")) == P14
    assert denom_poly(explicit([])) == IntPoly((1,))
    assert denom_poly(parse_spec("1..3")) == IntPoly((1, 1, 1, 1))


def test_denom_poly_rejects_infinite():
    with pytest.raises(SpecError):
        denom_poly(parse_spec("N+\\{1}"))


def test_roots_linear():
    prof = roots_numeric(IntPoly((1, -1)))
    assert len(prof.roots) == 1
    root = prof.roots[0]
    assert root.value == 1
    assert root.multiplicity == 1
    assert root.residual == 0


def test_roots_pure_imaginary_pair():
    prof = roots_numeric(IntPoly((1, 0, 1)))
    vals = sorted((r.value for r in prof.roots), key=lambda z: z.imag)
    assert abs(as_mpmath(vals[0]) - mp.mpc(0, -1)) < mp.mpf(2) ** -100
    assert vals[0] == vals[1].conjugate()


def test_roots_p23_anchor_values():
    # real root near -1.4656, pair near 0.2328 +- 0.7926i
    prof = roots_numeric(P23)
    assert prof.degree == 3
    reals = [as_mpmath(r.value) for r in prof.roots if r.value.imag == 0]
    pairs = [as_mpmath(r.value) for r in prof.roots if r.value.imag > 0]
    assert len(reals) == 1 and len(pairs) == 1
    assert abs(reals[0] - mp.mpf("-1.4656")) < 5e-5
    assert abs(pairs[0].real - mp.mpf("0.2328")) < 5e-5
    assert abs(pairs[0].imag - mp.mpf("0.7926")) < 5e-5


def test_roots_multiplicity_from_square():
    prof = roots_numeric(P23 * P23)
    assert prof.degree == 6
    assert sorted(r.multiplicity for r in prof.roots) == [2, 2, 2]


def test_roots_residual_invariant_random():
    rng = random.Random(1123)
    for _ in range(12):
        deg = rng.randint(2, 6)
        coeffs = [1] + [rng.randint(-3, 3) for _ in range(deg)]
        while coeffs[-1] == 0:
            coeffs[-1] = rng.randint(-3, 3)
        p = IntPoly(tuple(coeffs))
        prof = roots_numeric(p)
        assert prof.degree == p.degree
        tol = mp.mpf(2) ** -128
        # conjugation must run at the profile precision: mpmath rounds
        # every operation, even negation, to the ambient precision
        with mp.workprec(prof.precision):
            values = [as_mpmath(r.value) for r in prof.roots]
            pairs = {(z.real, z.imag) for z in values}
            for r, z in zip(prof.roots, values):
                assert as_mpmath(r.residual) <= tol * (1 + abs(z)) ** p.degree
                assert (z.real, -z.imag) in pairs


def test_roots_rejects_bad_inputs():
    with pytest.raises(ValueError):
        roots_numeric(IntPoly((1,)))
    with pytest.raises(ValueError):
        roots_numeric(IntPoly((2, 1)))


def test_roots_budget_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(nonperiodic, "SWEEP_BUDGET", 0)
    with pytest.raises(RootConvergenceError):
        roots_numeric(P23)


def _check_roots(p, precision):
    """roots_numeric(p) counts deg p roots with multiplicity, is closed
    under conjugation, and lead * prod (x - r)^m rebuilds p.  The
    refinement stops once every correction is below 2^-(precision-16),
    taken here as the size of each root's error; an error e in one root
    moves each coefficient of the product by at most e * |lead| * prod
    over the other roots of (1 + |s|)^m, so the rebuild is held to
    deg p * 2^(16-precision) * |lead| * prod (1 + |r|)^m.
    """
    prof = roots_numeric(p, precision)
    assert prof.degree == p.degree
    values = [as_mpmath(r.value) for r in prof.roots]
    with mp.workprec(precision):
        seen = {(z.real, z.imag, r.multiplicity) for z, r in zip(values, prof.roots)}
        for z, r in zip(values, prof.roots):
            assert (z.real, -z.imag, r.multiplicity) in seen
    with mp.workprec(2 * precision):
        rebuilt = [mp.mpc(p.lead)]
        scale = mp.mpf(abs(p.lead))
        for z, r in zip(values, prof.roots):
            for _ in range(r.multiplicity):
                rebuilt = [b - z * a for a, b in zip(rebuilt + [0], [0] + rebuilt)]
                scale *= 1 + abs(z)
        bound = p.degree * mp.mpf(2) ** (16 - precision) * scale
        assert len(rebuilt) == len(p.coeffs)
        for got, want in zip(rebuilt, p.coeffs):
            assert abs(got - want) <= bound
    return prof


@settings(max_examples=200, deadline=None, database=None)
@given(st.lists(st.integers(-3, 3), min_size=1, max_size=29),
       st.integers(-3, 3).filter(bool),
       st.sampled_from([53, 64, 128, 256]))
def test_roots_rebuild_square_free_polys(middle, lead, precision):
    p = IntPoly((1, *middle, lead))  # degree 2..30, p(0) = 1
    assume(yun_squarefree(p) == [(p, 1)])
    _check_roots(p, precision)


def _record_passes(monkeypatch):
    """Log (number type, settled) of every refinement pass that finishes."""
    passes = []
    sweep = nonperiodic._sweep

    def spy(factor, roots, target):
        settled = sweep(factor, roots, target)
        passes.append((type(roots[0]), settled))
        return settled

    monkeypatch.setattr(nonperiodic, "_sweep", spy)
    return passes


def test_roots_cluster_too_tight_for_doubles(monkeypatch):
    # 1 - 2 x^12 (5 - x)^2 has two roots 9e-5 apart near x = 5: the double
    # pass cannot settle them, and the working-precision pass, started
    # from where the double pass ended, separates them
    passes = _record_passes(monkeypatch)
    p = IntPoly((1,) + (0,) * 11 + (-50, 20, -2))
    prof = _check_roots(p, 256)
    assert passes == [(complex, False), (Complex, True)]
    near = sorted((as_mpmath(r.value) for r in prof.roots), key=lambda z: abs(z - 5))[:2]
    assert 8e-5 < abs(near[0] - near[1]) < 1e-4


def test_roots_coefficient_too_large_for_a_double(monkeypatch):
    # no double holds 10^400, so the spiral seeds go straight to the
    # working-precision pass; the root -10^-400 needs the precision to
    # reach far below 10^-400
    passes = _record_passes(monkeypatch)
    p = IntPoly((1, 10**400)) * P23
    prof = _check_roots(p, 2048)
    assert passes == [(Complex, True)]
    with mp.workprec(2048):
        tiny = mp.mpf(10) ** -400
        assert any(abs(as_mpmath(r.value) + tiny) < tiny * 2.0**-1000 for r in prof.roots)
    # the seeds' radius may differ from mpmath's in its last bit on this
    # path; the roots, in the report's 32 digits, are mpmath's own
    with mp.workprec(2400):
        want = mp.polyroots(p.coeffs[::-1], maxsteps=200, extraprec=2400)
        want = [mp.chop(z, tol=mp.mpf(10) ** -1000) for z in want]
    want = sorted((mp.nstr(mp.re(z), 32), mp.nstr(mp.im(z), 32)) for z in want)
    got = sorted((r.value.real.nstr(32), r.value.imag.nstr(32)) for r in prof.roots)
    assert got == want


@pytest.mark.parametrize("coeffs", [
    (1, 10**400, 1, 1),
    (1, 10**200, 3 * 10**400),
    (1, 10**400, 2 * 10**800),
    (1, 5 * 10**310, 7 * 10**620, 2),
    tuple(a * 10 ** (52 * i) for i, a in enumerate((1, 1, 2, 1, 0, 0, 1))),
], ids=["10^400 x", "lead 3e400", "scaled 1+y+2y^2", "two past range", "scaled sextic"])
def test_certificates_past_the_double_range(coeffs):
    # no head start in doubles: at the working precision every one of these
    # ended for want of convergence on mpmath, and still does
    for exact in (False, True):
        rep = check_nonperiodic(IntPoly(coeffs), exact)
        assert (rep.verdict, rep.reasons) == (INCONCLUSIVE, (REASON_CONVERGENCE,))


def test_roots_far_inside_cauchy_bound():
    # 1 + 10^300 x^30: Cauchy's bound is 2, the roots have modulus 1e-10;
    # seeds on that scale (Fujiwara's bound) reach them within the budget
    prof = _check_roots(IntPoly((1,) + (0,) * 29 + (10**300,)), 256)
    with mp.workprec(256):
        for r in prof.roots:
            assert abs(abs(as_mpmath(r.value)) / mp.mpf("1e-10") - 1) < mp.mpf(2) ** -200


def test_certify_23():
    rep = check_nonperiodic(P23)
    assert rep.verdict == NOT_EVENTUALLY_PERIODIC
    assert rep.reasons == ()
    assert rep.dominant.root.imag > 0
    assert rep.zeta_test.degree_bound == 12
    assert as_mpmath(rep.zeta_test.min_distance) > mp.mpf(2) ** -20


def test_certify_23_zeta_power_anchor():
    rep = check_nonperiodic(P23)
    root = as_mpmath(rep.dominant.root)
    zeta = mp.conj(root) / abs(root)
    assert abs(zeta**12 - mp.mpc("-0.95", "-0.28")) < 0.02


def test_certify_14():
    rep = check_set_nonperiodic(parse_spec("{1,4}"))
    assert rep.verdict == NOT_EVENTUALLY_PERIODIC
    assert rep.reasons == ()


def test_golden_ratio_denominator_inconclusive():
    rep = check_nonperiodic(IntPoly((1, -1, -1)))
    assert rep.verdict == INCONCLUSIVE
    assert REASON_DOMINANT_REAL in rep.reasons


def test_unity_screen_rejects_quartic_roots_of_unity():
    # roots +-i: dominant pair fine, zeta^4 = 1
    rep = check_nonperiodic(IntPoly((1, 0, 1)))
    assert rep.verdict == INCONCLUSIVE
    assert REASON_UNITY in rep.reasons


def test_unity_screen_rejects_cube_roots_of_unity():
    rep = check_nonperiodic(IntPoly((1, 1, 1)))
    assert rep.verdict == INCONCLUSIVE
    assert REASON_UNITY in rep.reasons


@settings(max_examples=200, deadline=None, database=None)
@given(st.lists(st.integers(1, 12) | st.integers(1, 90), min_size=1, max_size=4),
       st.booleans())
@example([3], False)
def test_cyclotomic_products_are_never_certified(orders, exact):
    # every root of p is a root of unity, so 1/p is a sum of periodic
    # sequences times polynomials in n and its signs are eventually
    # periodic: neither configuration may certify otherwise.  Small orders
    # are drawn more often, because that is where a false certificate was
    # found (1 + x + x^2 at precisions of 8 and 16 bits)
    p = IntPoly((1,))
    for n in orders:
        if p.degree + len(cyclotomic_by_division(n).coeffs) - 1 <= 24:
            p = p * cyclotomic_by_division(n)
    assume(p.degree >= 2)
    if p.coeffs[0] == -1:  # an odd number of factors x - 1
        p = IntPoly(tuple(-c for c in p.coeffs))
    rep = check_nonperiodic(p, exact)
    assert rep.verdict == INCONCLUSIVE, rep.reasons


@pytest.fixture(scope="module")
def screen_cases():
    """(orders, upper root of least modulus) of roots of unity, near
    misses and random polynomials with p(0) = 1, as the certifier picks
    the root that zeta comes from."""
    rng = random.Random(1717)
    polys = [(1, 1, 1), (1, 0, 1), (1, -1, 1), (1, 0, 0, 1, 0, 0, 1), (1, 1, 0, 1)]
    polys += [(1, *(rng.randint(-3, 3) for _ in range(d - 1)), rng.choice([-2, -1, 1, 2]))
              for d in (2, 3, 4, 5, 6, 7, 8, 9, 10, 12) for _ in range(3)]
    cases = []
    for coeffs in polys:
        d = len(coeffs) - 1
        with mp.workprec(300):
            roots = mp.polyroots(coeffs[::-1], maxsteps=500, extraprec=300)
        upper = [r for r in roots if r.imag > 0]
        if upper:
            cases.append((totient_candidates(2 * d * (d - 1)), min(upper, key=abs)))
    return cases


@pytest.mark.parametrize("precision", [4, 8, 53, 256])
def test_unity_screen_matches_oracle_loop(precision, screen_cases):
    # the screen shortlists orders by angle before taking powers; it must
    # report what taking every power reports, noise digits included
    for orders, r in screen_cases:
        root = Complex(tuple(pair_of(part) for part in r._mpc_), precision)
        zeta = root.conjugate() / abs(root)
        assert nonperiodic._unity_screen(zeta, orders) == \
            unity_screen_reference(zeta, orders), r


def test_equal_modulus_pairs_ambiguous():
    # 1 + x^4: four roots on the unit circle, no single dominant pair
    rep = check_nonperiodic(IntPoly((1, 0, 0, 0, 1)))
    assert rep.verdict == INCONCLUSIVE
    assert REASON_DOMINANT_AMBIGUOUS in rep.reasons


def test_real_opposite_pair_reported_real():
    rep = check_nonperiodic(IntPoly((1, 0, -1)))
    assert rep.verdict == INCONCLUSIVE
    assert REASON_DOMINANT_REAL in rep.reasons


def test_gap_tolerance_is_honored():
    # two non-real pairs whose moduli differ by a relative 2^-41, under the
    # fixed gap of 2^-20
    p = IntPoly((1, 1, 2**40)) * IntPoly((1, 1, 2**40 + 1))
    rep = check_nonperiodic(p)
    assert rep.verdict == INCONCLUSIVE
    assert rep.reasons == (REASON_GAP,)
    assert 0 < rep.dominant.relative_gap < nonperiodic.MIN_GAP


def test_multiplicity_recorded_not_fatal():
    rep = check_nonperiodic(P23 * P23)
    assert rep.verdict == NOT_EVENTUALLY_PERIODIC
    assert rep.dominant.multiplicity == 2


@pytest.mark.parametrize("setting", [
    {"residual_tol": -1.0},
    {"residual_tol": math.nan},
    {"gap_tol": -(2.0**-20)},
    {"gap_tol": math.inf},
    {"unity_tol": -1.0},
    {"precision": 0},
    {"precision": 52},
    {"precision": 64},
    {"precision": math.inf},
    {"max_iterations": -1},
    {"exact_max_degree": -1},
], ids=lambda setting: "{}={}".format(*next(iter(setting.items()))))
def test_config_refuses_bad_settings(setting):
    # precisions of 8 and 16 bits granted 1 + x + x^2, whose signs have
    # period 3; the precision is now as fixed as every tolerance and
    # budget, so no value of any of them can reach the certifier
    with pytest.raises(TypeError):
        check_nonperiodic(P23, **setting)
    with pytest.raises(TypeError):
        check_set_nonperiodic(parse_spec("{2,3}"), **setting)


def test_nonconvergence_degrades_to_inconclusive(monkeypatch):
    monkeypatch.setattr(nonperiodic, "SWEEP_BUDGET", 0)
    rep = check_nonperiodic(P23)
    assert rep.verdict == INCONCLUSIVE
    assert rep.reasons == (REASON_CONVERGENCE,)


def test_precondition_errors():
    with pytest.raises(ValueError):
        check_nonperiodic(IntPoly((1, 1)))
    with pytest.raises(ValueError):
        check_nonperiodic(IntPoly((2, 0, 1)))


def test_exact_mode_agrees_on_certified_cases():
    for p in (P23, P14):
        rep = check_nonperiodic(p, exact=True)
        assert rep.verdict == NOT_EVENTUALLY_PERIODIC
        assert rep.exact_test is not None
        assert rep.exact_test.divisor_order is None


def test_exact_mode_ratio_degree():
    rep = check_nonperiodic(P23, exact=True)
    assert rep.exact_test.ratio_degree == 9


def test_exact_mode_finds_unity_divisor():
    # ratio i / -i = -1 puts the order-2 cyclotomic inside R
    rep = check_nonperiodic(IntPoly((1, 0, 1)), exact=True)
    assert REASON_EXACT_DIVISOR in rep.reasons
    assert rep.exact_test.divisor_order == 2


def test_exact_mode_degree_cap_skips_tier():
    # one degree past the cap; test_exact_tier_degree_12 runs the tier at it
    rep = check_set_nonperiodic(parse_spec("{2,13}"), exact=True)
    assert rep.poly.degree == nonperiodic.EXACT_DEGREE_CAP + 1
    assert rep.verdict == NOT_EVENTUALLY_PERIODIC
    assert rep.exact_test is None
    assert NOTE_EXACT_SKIPPED in rep.notes


def test_root_degree_cap_refuses_before_any_root_is_sought(monkeypatch):
    # a cap of 3 still certifies {2,3}; one degree past it no root is sought
    monkeypatch.setattr(nonperiodic, "ROOT_DEGREE_CAP", 3)
    assert check_set_nonperiodic(parse_spec("{2,3}")).verdict == NOT_EVENTUALLY_PERIODIC

    def unreachable(*args):
        raise AssertionError("root finding ran past the degree cap")

    monkeypatch.setattr(nonperiodic, "roots_numeric", unreachable)
    rep = check_set_nonperiodic(parse_spec("{1,4}"), exact=True)
    assert rep.verdict == INCONCLUSIVE
    assert rep.reasons == (nonperiodic.REASON_DEGREE,)
    assert rep.profile is None and rep.exact_test is None


def test_ratio_poly_vanishes_on_root_ratios():
    r = ratio_poly(P23)
    assert r(1) == 0
    prof = roots_numeric(P23)
    with mp.workprec(200):
        coeffs = [mp.mpc(c) for c in r.coeffs]
        for a in prof.roots:
            for b in prof.roots:
                x = as_mpmath(a.value) / as_mpmath(b.value)
                val = sum(c * x**i for i, c in enumerate(coeffs))
                assert abs(val) < mp.mpf(2) ** -80


def _resultant_ratio_poly(p):
    """Independent oracle: Res_y(p(y), p(x*y)) by Sylvester determinants and
    interpolation in x, reduced to its primitive part."""
    rows = [IntPoly((0,) * j + (c,)) for j, c in enumerate(p.coeffs)]
    return primitive(resultant_in_y(p, rows))


@pytest.mark.parametrize("p", [
    P23,
    P14,
    denom_poly(parse_spec("{2,3,8}")),
    denom_poly(parse_spec("{1,2,4,10}")),
    IntPoly((1, 0, 0, -2, 7)),                       # non-monic lead
    PHI3_PHI4,
    cyclotomic_by_division(2) * cyclotomic_by_division(6)
    * cyclotomic_by_division(6),                      # repeated roots
], ids=["{2,3}", "{1,4}", "{2,3,8}", "{1,2,4,10}", "p=1,0,0,-2,7",
        "Phi3*Phi4", "Phi2*Phi6^2"])
def test_ratio_poly_matches_resultant_oracle(p):
    r = ratio_poly(p)
    assert r == _resultant_ratio_poly(p)
    assert r.degree == p.degree ** 2


@settings(max_examples=25, deadline=None, database=None)
@given(st.lists(st.integers(-5, 5), min_size=1, max_size=4),
       st.integers(-5, 5).filter(bool))
def test_ratio_poly_matches_resultant_oracle_property(middle, lead):
    p = IntPoly((1, *middle, lead))  # degree 2..5, p(0) = 1
    r = ratio_poly(p)
    assert r == _resultant_ratio_poly(p)
    assert r.degree == p.degree ** 2
    assert r(1) == 0


def test_ratio_poly_preconditions():
    for bad in (IntPoly((1,)), IntPoly((2, 1)), IntPoly((0, 1, 1))):
        with pytest.raises(ValueError):
            ratio_poly(bad)


def test_exact_tier_degree_12():
    rep = check_set_nonperiodic(parse_spec("{1,2,4,12}"), exact=True)
    assert rep.verdict == NOT_EVENTUALLY_PERIODIC
    assert rep.exact_test.ratio_degree == 144
    assert rep.exact_test.divisor_order is None


def _oracle_unity_screen(p, degree_bound):
    """The exact unity screen by trial division: every order M >= 2 from
    the totient sieve, ascending, until the M-th cyclotomic built by long
    division divides R."""
    ratio = ratio_poly(p)
    checked = 0
    for m in totient_candidates_by_sieve(min(degree_bound, ratio.degree)):
        if m < 2:
            continue
        checked += 1
        if cyclotomic_divides_by_division(m, ratio):
            return (ratio.degree, checked, m)
    return (ratio.degree, checked, None)


@pytest.mark.parametrize("p, checked, divisor", [
    (denom_poly(parse_spec("{1,2,4,12}")), 289, None),
    (PHI3_PHI4, 1, 2),
    (IntPoly((1, 1, 1)), 2, 3),
    (IntPoly((1, 0, 1, 0, 1)), 1, 2),
    (IntPoly((1, 1, 2, 1, 1)), 1, 2),
    (denom_poly(parse_spec("{1,2,5,16}")), 504, None),
], ids=["{1,2,4,12}", "Phi3*Phi4", "1,1,1", "1,0,1,0,1", "1,1,2,1,1", "{1,2,5,16}"])
def test_exact_unity_screen_matches_oracle_screen(p, checked, divisor):
    bound = 2 * p.degree * (p.degree - 1)
    got = nonperiodic._exact_unity_screen(p, bound)
    assert (got.ratio_degree, got.orders_checked, got.divisor_order) \
        == _oracle_unity_screen(p, bound)
    assert (got.orders_checked, got.divisor_order) == (checked, divisor)


def _reciprocal_signs(p: IntPoly, order: int) -> SignWord:
    return SignWord(tuple((c > 0) - (c < 0) for c in series_inv_int(list(p.coeffs), order)))


def test_reciprocal_prefix_geometric():
    assert series_inv_int([1, -1], 6) == [1] * 7
    assert series_inv_int([1, 1], 5) == [1, -1, 1, -1, 1, -1]
    with pytest.raises(ValueError):
        series_inv_int([2, 1], 3)


def test_reciprocal_prefix_matches_sum_row():
    # coefficients of 1/(1 + f_A) are the k = 0 alternating sums
    spec = parse_spec("{2,3}")
    row = sk_fast(spec, 0, 40).row(0)
    assert series_inv_int(list(denom_poly(spec).coeffs), 40) == list(row)


def _rem_monic(a: IntPoly, m: IntPoly) -> tuple:
    """Coefficients of a mod m, for a monic m."""
    d = m.degree
    rem = list(a.coeffs) + [0] * d
    for top in range(len(rem) - 1, d - 1, -1):
        c = rem[top]
        if c:
            for i, mc in enumerate(m.coeffs):
                rem[top - d + i] -= c * mc
    return tuple(rem[:d])


def test_every_row_is_a_numerator_over_a_power_of_p():
    # the module docstring's step from k = 0 to every k: row k of S is
    # N_k / p^(k+1) with N_k a polynomial, N_k = k! (mod p)
    rng = random.Random(2616)
    horizon = 400
    for _ in range(60):
        spec = explicit(rng.sample(range(1, 13), rng.randint(1, 12)))
        p = denom_poly(spec)
        grid = sk_fast(spec, 4, horizon)
        power = IntPoly((1,))
        for k in range(5):
            power = power * p  # p^(k+1)
            numerator = (power * IntPoly(grid.row(k))).coeffs[:horizon + 1]
            top = (k + 1) * p.degree
            assert not any(numerator[top:]), (spec, k)
            residue = _rem_monic(IntPoly(numerator[:top]), p)
            assert residue == (math.factorial(k),) + (0,) * (p.degree - 1), (spec, k)


def test_bridge_no_short_period_when_certified():
    for p in (P23, P14):
        assert check_nonperiodic(p).verdict == NOT_EVENTUALLY_PERIODIC
        word = _reciprocal_signs(p, 2000)
        finding = detect_period(word, 50, 200)
        assert finding.verdict == NO_PERIOD


def test_all_odd_guard():
    with pytest.raises(SpecError):
        check_set_nonperiodic(parse_spec("{1,3}"))
    with pytest.raises(SpecError):
        check_set_nonperiodic(parse_spec("{1,3,5}"))
    with pytest.raises(SpecError):
        check_set_nonperiodic(explicit([]))  # degree 0 denominator


def test_report_json_round_trip():
    rep = check_nonperiodic(P23, exact=True)
    blob = json.loads(json.dumps(rep.to_json()))
    assert blob["verdict"] == NOT_EVENTUALLY_PERIODIC
    assert blob["poly"] == ["1", "0", "1", "1"]
    assert blob["config"]["precision"] == 256
    assert blob["config"]["residual_tol"] == 2.0**-128
    assert len(blob["roots"]) == 3
    assert all(isinstance(r["re"], str) for r in blob["roots"])
    assert blob["exact_test"]["divisor_order"] is None


def test_random_polys_never_crash_and_bridge_holds():
    rng = random.Random(40813)
    for _ in range(10):
        deg = rng.randint(2, 5)
        coeffs = [1] + [rng.randint(-2, 2) for _ in range(deg)]
        while coeffs[-1] == 0:
            coeffs[-1] = rng.randint(-2, 2)
        p = IntPoly(tuple(coeffs))
        rep = check_nonperiodic(p)
        json.dumps(rep.to_json())
        assert rep.verdict in (NOT_EVENTUALLY_PERIODIC, INCONCLUSIVE)
        if rep.verdict == NOT_EVENTUALLY_PERIODIC:
            word = _reciprocal_signs(p, 700)
            assert detect_period(word, 30, 100).verdict == NO_PERIOD
