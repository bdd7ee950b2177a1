"""Tests for the dominant-root non-periodicity certifier."""

import json
import random

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    CertConfig,
    RootConvergenceError,
    check_nonperiodic,
    check_set_nonperiodic,
    denom_poly,
    ratio_poly,
    reciprocal_prefix,
    reciprocal_sign_prefix,
    roots_numeric,
)
from compsigns.poly import IntPoly, cyclotomic, primitive, resultant_in_y
from compsigns.sets import SpecError, explicit, parse_spec
from compsigns.signs import NO_PERIOD, SignWord, detect_period
from compsigns.sums import sk_fast

P23 = IntPoly((1, 0, 1, 1))
P14 = IntPoly((1, 1, 0, 0, 1))


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
    assert abs(vals[0] - mp.mpc(0, -1)) < mp.mpf(2) ** -100
    assert vals[0] == mp.conj(vals[1])


def test_roots_p23_anchor_values():
    # real root near -1.4656, pair near 0.2328 +- 0.7926i
    prof = roots_numeric(P23)
    assert prof.degree == 3
    reals = [r.value for r in prof.roots if r.value.imag == 0]
    pairs = [r.value for r in prof.roots if r.value.imag > 0]
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
            pairs = {(r.value.real, r.value.imag) for r in prof.roots}
            for r in prof.roots:
                assert r.residual <= tol * (1 + abs(r.value)) ** p.degree
                assert (r.value.real, -r.value.imag) in pairs


def test_roots_rejects_bad_inputs():
    with pytest.raises(ValueError):
        roots_numeric(IntPoly((1,)))
    with pytest.raises(ValueError):
        roots_numeric(IntPoly((2, 1)))


def test_roots_budget_exhaustion_raises():
    with pytest.raises(RootConvergenceError):
        roots_numeric(P23, max_iterations=0)


def test_certify_23():
    rep = check_nonperiodic(P23)
    assert rep.verdict == NOT_EVENTUALLY_PERIODIC
    assert rep.reasons == ()
    assert rep.dominant.root.imag > 0
    assert rep.zeta_test.degree_bound == 12
    assert rep.zeta_test.min_distance > mp.mpf(2) ** -20


def test_certify_23_zeta_power_anchor():
    rep = check_nonperiodic(P23)
    zeta = mp.conj(rep.dominant.root) / abs(rep.dominant.root)
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
    rep = check_nonperiodic(P23, CertConfig(gap_tol=1.0))
    assert rep.verdict == INCONCLUSIVE
    assert REASON_GAP in rep.reasons


def test_multiplicity_recorded_not_fatal():
    rep = check_nonperiodic(P23 * P23)
    assert rep.verdict == NOT_EVENTUALLY_PERIODIC
    assert rep.dominant.multiplicity == 2


def test_nonconvergence_degrades_to_inconclusive():
    rep = check_nonperiodic(P23, CertConfig(max_iterations=0))
    assert rep.verdict == INCONCLUSIVE
    assert rep.reasons == (REASON_CONVERGENCE,)


def test_precondition_errors():
    with pytest.raises(ValueError):
        check_nonperiodic(IntPoly((1, 1)))
    with pytest.raises(ValueError):
        check_nonperiodic(IntPoly((2, 0, 1)))


def test_exact_mode_agrees_on_certified_cases():
    cfg = CertConfig(exact=True)
    for p in (P23, P14):
        rep = check_nonperiodic(p, cfg)
        assert rep.verdict == NOT_EVENTUALLY_PERIODIC
        assert rep.exact_test is not None
        assert rep.exact_test.divisor_order is None


def test_exact_mode_ratio_degree():
    rep = check_nonperiodic(P23, CertConfig(exact=True))
    assert rep.exact_test.ratio_degree == 9


def test_exact_mode_finds_unity_divisor():
    # ratio i / -i = -1 puts the order-2 cyclotomic inside R
    rep = check_nonperiodic(IntPoly((1, 0, 1)), CertConfig(exact=True))
    assert REASON_EXACT_DIVISOR in rep.reasons
    assert rep.exact_test.divisor_order == 2


def test_exact_mode_degree_cap_skips_tier():
    rep = check_nonperiodic(P23, CertConfig(exact=True, exact_max_degree=2))
    assert rep.verdict == NOT_EVENTUALLY_PERIODIC
    assert rep.exact_test is None
    assert NOTE_EXACT_SKIPPED in rep.notes


def test_ratio_poly_vanishes_on_root_ratios():
    r = ratio_poly(P23)
    assert r(1) == 0
    prof = roots_numeric(P23)
    with mp.workprec(200):
        coeffs = [mp.mpc(c) for c in r.coeffs]
        for a in prof.roots:
            for b in prof.roots:
                x = a.value / b.value
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
    cyclotomic(3) * cyclotomic(4),
    cyclotomic(2) * cyclotomic(6) * cyclotomic(6),   # repeated roots
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
    rep = check_set_nonperiodic(parse_spec("{1,2,4,12}"), CertConfig(exact=True))
    assert rep.verdict == NOT_EVENTUALLY_PERIODIC
    assert rep.exact_test.ratio_degree == 144
    assert rep.exact_test.divisor_order is None


def test_reciprocal_prefix_geometric():
    assert reciprocal_prefix(IntPoly((1, -1)), 6) == [1] * 7
    assert reciprocal_prefix(IntPoly((1, 1)), 5) == [1, -1, 1, -1, 1, -1]
    with pytest.raises(ValueError):
        reciprocal_prefix(IntPoly((2, 1)), 3)


def test_reciprocal_prefix_matches_sum_row():
    # coefficients of 1/(1 + f_A) are the k = 0 alternating sums
    spec = parse_spec("{2,3}")
    row = sk_fast(spec, 0, 40).row(0)
    assert reciprocal_prefix(denom_poly(spec), 40) == list(row)


def test_bridge_no_short_period_when_certified():
    for p in (P23, P14):
        assert check_nonperiodic(p).verdict == NOT_EVENTUALLY_PERIODIC
        word = SignWord(tuple(reciprocal_sign_prefix(p, 2000)))
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
    rep = check_nonperiodic(P23, CertConfig(exact=True))
    blob = json.loads(json.dumps(rep.to_json()))
    assert blob["verdict"] == NOT_EVENTUALLY_PERIODIC
    assert blob["poly"] == ["1", "0", "1", "1"]
    assert blob["config"]["precision"] == 256
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
            word = SignWord(tuple(reciprocal_sign_prefix(p, 700)))
            assert detect_period(word, 30, 100).verdict == NO_PERIOD
