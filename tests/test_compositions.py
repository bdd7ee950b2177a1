"""Tests for composition polynomials, counts, partitions, q-series, and
the identity verifier."""

import random
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import partition_count, triangle_counts

from compsigns import compositions
from compsigns.compositions import (
    CompPolyTable,
    IdentityFailure,
    _IdentityChecker,
    comp_counts,
    comp_polys,
    counts_csv,
    partition_counts,
    q_series,
    q_series_scaled,
    triangle_csv,
    verify_identities,
)
from compsigns.poly import IntPoly, delta_op
from compsigns.sets import SpecError, explicit, parse_spec


def test_anchor_123():
    table = comp_polys(parse_spec("{1,2,3}"), 4)
    assert table[0] == IntPoly((1,))
    assert table[4] == IntPoly((0, 0, 3, 3, 1))
    assert table.count(4) == 7
    assert table.by_parts(2, 4) == 3
    assert table.by_parts(3, 4) == 3
    assert table.by_parts(4, 4) == 1
    assert table.by_parts(7, 4) == 0


def test_anchor_even_part():
    table = comp_polys(parse_spec("{2}"), 5)
    assert table[5].is_zero
    assert table[4] == IntPoly((0, 0, 1))
    assert comp_counts(parse_spec("{2,3}"), 5)[5] == 2


def test_horizon_and_validation():
    # the horizon limits no query: a table past it is the table of a set
    # whose horizon covers it
    for text in ("{1}", "N+\\{2}", "repunit(3)"):
        assert (comp_polys(parse_spec(text + "@10"), 30).polys
                == comp_polys(parse_spec(text + "@30"), 30).polys)
    with pytest.raises(SpecError):
        comp_polys(parse_spec("{1}"), -1)
    with pytest.raises(ValueError):
        comp_polys(parse_spec("{1}"), 4).by_parts(-1, 4)


def test_counts_match_polys():
    rng = random.Random(101)
    for _ in range(10):
        spec = explicit(rng.sample(range(1, 9), rng.randint(1, 5)), horizon=40)
        table = comp_polys(spec, 30)
        counts = comp_counts(spec, 30)
        for n in range(31):
            assert counts[n] == table.count(n)
            assert all(c >= 0 for c in table[n].coeffs)
            assert table[n].degree <= n


def test_triangle_matches_brute_force():
    rng = random.Random(103)
    for _ in range(8):
        parts = sorted(rng.sample(range(1, 7), rng.randint(1, 4)))
        spec = explicit(parts)
        table = comp_polys(spec, 12)
        for n in range(13):
            tri = triangle_counts(parts, n)
            for i in range(n + 1):
                assert table.by_parts(i, n) == tri.get(i, 0)


def test_partition_counts():
    assert partition_counts(parse_spec("{1,3}"), 4)[4] == 2
    assert partition_counts(parse_spec("{1,3,5}"), 6)[6] == 4
    assert partition_counts(parse_spec("{2,5}"), 0) == [1]
    assert partition_counts(parse_spec("1..3"), 6)[6] == 7
    with pytest.raises(SpecError):
        partition_counts(parse_spec("N+"), 5)
    rng = random.Random(107)
    for _ in range(6):
        parts = sorted(rng.sample(range(1, 8), rng.randint(1, 4)))
        got = partition_counts(explicit(parts), 14)
        for n in range(15):
            assert got[n] == partition_count(parts, n)


def test_q_series_anchors():
    q = q_series(parse_spec("{1,2,3}"), 5)
    assert [q[n] for n in range(4)] == [1, -1, 0, 3]
    assert q_series(parse_spec("{1}"), 4).coeffs == (1, 0, 0, 0, 0)
    q2 = q_series(parse_spec("{2}"), 3)
    assert q2[0] == Fraction(1, 2)
    assert all(q2[n] == 0 for n in (1, 2, 3))
    # all positive integers: f/(xf') collapses to 1 - x
    qn = q_series(parse_spec("N+@100"), 6)
    assert [qn[n] for n in range(7)] == [1, -1, 0, 0, 0, 0, 0]
    with pytest.raises(SpecError):
        q_series(parse_spec("{}"), 3)


def test_q_series_infinite_truncation_consistency():
    # a cofinite set and its explicit finite stand-in agree up to the order
    cof = q_series(parse_spec("N+\\{2,6}@50"), 20)
    members = parse_spec("N+\\{2,6}@50").members_up_to(21)
    fin = q_series(explicit(members, horizon=50), 20)
    assert cof.coeffs == fin.coeffs


SCALED_Q_SETS = ["{1,2,3}", "{2}", "{2,3}", "{3,5,7}", "N+\\{1}@40",
                  "N+\\{2,6}@50"]


@pytest.mark.parametrize("text", SCALED_Q_SETS)
def test_q_series_scaled_matches_q_series(text):
    spec = parse_spec(text)
    q = q_series(spec, 30)
    m, scaled = q_series_scaled(spec, 30)
    assert m == spec.min_element()
    assert len(scaled) == 31
    assert all(scaled[n] == m ** (n + 1) * q[n] for n in range(31))


def test_q_series_scaled_validation():
    with pytest.raises(SpecError):
        q_series_scaled(parse_spec("{}"), 3)
    with pytest.raises(ValueError):
        q_series_scaled(parse_spec("{1,2}"), -1)


def _perturbed_scaled_q(at):
    def scaled(spec, order):
        m, q = q_series_scaled(spec, order)
        q = list(q)
        q[at] += 1
        return m, q
    return scaled


@pytest.mark.parametrize("text", ["{1,2,3}", "{2,3}", "{3,5,7}"])
def test_delta_q_catches_perturbed_scaled_q(text, monkeypatch):
    # one wrong Q entry first shows at n = at + m, in the t^1 coefficient
    # that f_m = t contributes
    spec = parse_spec(text)
    at = 4
    monkeypatch.setattr(compositions, "q_series_scaled", _perturbed_scaled_q(at))
    for method in ("eval", "coeff"):
        report = verify_identities(spec, 20, method=method)
        assert report.results["delta_q"] == IdentityFailure(
            "delta_q", at + spec.min_element(), 1)
        assert [name for name, fail in report.results.items() if fail] == ["delta_q"]


def test_q_weighted_delta_identity():
    # D(f_n) = sum_i i * q(n-i) * f_i, coefficient by coefficient
    for text in ("{1,2,3}", "{2,3}", "{2,4}", "N+\\{1}@40"):
        spec = parse_spec(text)
        table = comp_polys(spec, 25)
        q = q_series(spec, 25)
        for n in range(26):
            lhs = [Fraction(c) for c in delta_op(table[n]).coeffs]
            rhs = [Fraction(0)] * (n + 2)
            for i in range(1, n + 1):
                for j, c in enumerate(table[i].coeffs):
                    rhs[j] += i * q[n - i] * c
            for j in range(max(len(lhs), len(rhs))):
                a = lhs[j] if j < len(lhs) else 0
                b = rhs[j] if j < len(rhs) else 0
                assert a == b, (text, n, j)


def test_verify_identities_pass():
    for text in ("{1,2,3}", "{1,3,5}", "{2,3}", "N+\\{2,6}@80", "{}",
                 "repunit(2)@80", "1..5"):
        report = verify_identities(parse_spec(text), 40)
        assert report.all_pass, (text, report.results)
        assert all(line.endswith("pass") for line in report.summary_lines())


def test_verify_methods_agree():
    rng = random.Random(109)
    for _ in range(8):
        spec = explicit(rng.sample(range(1, 12), rng.randint(1, 6)), horizon=60)
        fast = verify_identities(spec, 18, method="eval")
        slow = verify_identities(spec, 18, method="coeff")
        assert fast.all_pass and slow.all_pass
    with pytest.raises(ValueError):
        verify_identities(parse_spec("{1}"), 5, method="magic")


@contextmanager
def _read_off(chk, polys, odd_polys=None):
    """Run chk on the polynomial tables polys (and odd_polys, if given):
    the coefficient checks read them, and check_eval's value tables are
    their values."""
    chk._table = CompPolyTable(chk.spec, chk.upto, tuple(polys))
    if odd_polys is not None:
        chk._odd_polys = tuple(odd_polys)
    real = compositions.sk_rows

    def values(members, k_max, n_max, t):
        if members is chk.members:
            table = polys
        elif odd_polys is not None and members is chk.odd_members:
            table = odd_polys
        else:
            return real(members, k_max, n_max, t)
        rows, fs = [], table[:n_max + 1]
        for _ in range(k_max + 1):  # row k holds the values of D^k(f_n)
            rows.append([f(t) for f in fs])
            fs = [delta_op(f) for f in fs]
        return rows

    with mock.patch.object(compositions, "sk_rows", values):
        yield chk


def _tamper(polys, edits):
    """Add amount * t^i to f_n for each (n, i, amount) in edits."""
    polys = list(polys)
    for n, i, amount in edits:
        polys[n] = polys[n] + IntPoly((0,) * i + (amount,))
    return polys


def test_verify_coeff_mode_reports_tampered_table():
    # coeff mode reads the cached polynomial table, so corrupt that
    spec = parse_spec("{1,2}")
    upto = 8
    polys = _tamper(comp_polys(spec, upto).polys, [(3, 2, 1)])
    chk = _IdentityChecker(spec, upto)
    with _read_off(chk, polys):
        failure = chk.check_coeff("reflection")
        assert isinstance(failure, IdentityFailure)
        assert 0 <= failure.n <= upto
        assert failure.coeff_index >= 0
        # the reported coefficient really differs at the reported n
        assert chk._coeff_reflection(failure.n) == failure.coeff_index
        # eval mode sees the same corruption when its value tables are read
        # off the tampered polynomials: it fails the same identities
        by_eval = chk.check_eval()
    by_coeff = {name: chk.check_coeff(name) for name in by_eval}
    failing = {name for name, f in by_eval.items() if f}
    assert failing == {name for name, f in by_coeff.items() if f}
    assert failing == {"reflection", "parity", "delta_self"}
    for name in failing:
        assert chk._failure(name, by_eval[name].n) == by_eval[name]


def test_eval_mode_places_all_odd_parity_failure_like_coeff_mode():
    # f_2 = t over {9}: f_2(-t) = f_2(t) fails at n = 2, while the
    # convolution comparison of parity first fails at n = 4
    spec = parse_spec("{9}")
    chk = _IdentityChecker(spec, 10)
    with _read_off(chk, _tamper(comp_polys(spec, 10).polys, [(2, 1, 1)])):
        by_eval = chk.check_eval()
    assert by_eval["parity"] == chk.check_coeff("parity") == IdentityFailure("parity", 2, 1)


SPECIAL_SPECS = ["{}", "N+\\{2,6}@80", "repunit(2)@80", "{1}", "{2}"]

specs = st.one_of(
    st.sampled_from(SPECIAL_SPECS).map(parse_spec),
    st.lists(st.integers(1, 12), min_size=1, max_size=5, unique=True).map(explicit),
    st.lists(st.sampled_from([1, 3, 5, 7, 9, 11]), min_size=1, max_size=4,
             unique=True).map(explicit))


@st.composite
def tampered_tables(draw, max_upto=18):
    """(spec, upto, polys): a composition table with non-negative edits."""
    spec = draw(specs)
    upto = draw(st.integers(0, max_upto))
    polys = comp_polys(spec, upto).polys
    if upto == 0:
        return spec, upto, list(polys)
    # f_0 = 1 is assumed by both modes alike, so edits start at n = 1
    edits = draw(st.lists(st.tuples(st.integers(1, upto), st.integers(0, upto + 1),
                                    st.integers(1, 3)), max_size=3))
    return spec, upto, _tamper(polys, [(n, min(i, n + 1), a) for n, i, a in edits])


@settings(max_examples=200, deadline=None, database=None)
@given(tampered_tables())
def test_eval_mode_reports_what_coeff_mode_reports(case):
    spec, upto, polys = case
    chk = _IdentityChecker(spec, upto)
    with _read_off(chk, polys):
        by_eval = chk.check_eval()
    assert by_eval == {name: chk.check_coeff(name) for name in by_eval}


def _comparisons(f, opolys, all_odd, n):
    """(lhs, rhs) coefficient lists of each comparison check_eval makes at
    level n of the table f: reflection, parity (and its all-odd
    comparison), delta_self."""
    neg = compositions._neg_coeffs

    def total(terms):
        return sum(terms, IntPoly()).coeffs

    sign = [1 if j % 2 == 0 else -1 for j in range(n + 1)]
    yield (f[n] + neg(f[n])).coeffs, total((neg(f[i]) * f[n - i]).scale(2)
                                             for i in range(n + 1))
    yield (total(neg(opolys[i]) * (neg(f[n - i]) + f[n - i].scale(sign[n - i]))
                 for i in range(n + 1)),
           total((f[i] * neg(f[n - i])).scale(2 * sign[i]) for i in range(n + 1)))
    if all_odd:
        yield neg(f[n]).coeffs, f[n].scale(sign[n]).coeffs
    yield delta_op(f[n]).coeffs, total(f[n - i] * f[i] for i in range(n))


@settings(max_examples=60, deadline=None, database=None)
@given(tampered_tables(max_upto=24))
def test_eval_point_exceeds_twice_every_difference(case):
    # |lhs_j| + |rhs_j| bounds |lhs_j - rhs_j| for every table whose
    # coefficients have these magnitudes
    spec, upto, polys = case
    chk = _IdentityChecker(spec, upto)
    with _read_off(chk, polys):
        half_square = 2 ** (2 * chk.eval_bits()) // 2
    for n in range(upto + 1):
        for lhs, rhs in _comparisons(polys, chk.odd_polys, chk.all_odd, n):
            for j in range(max(len(lhs), len(rhs))):
                a = lhs[j] if j < len(lhs) else 0
                b = rhs[j] if j < len(rhs) else 0
                assert abs(a) + abs(b) < half_square, (spec, n, j)


class _AtTwo(_IdentityChecker):
    """Evaluates at t = +-2 whatever the tables, so that a difference
    polynomial can vanish at +2 alone."""

    def eval_bits(self) -> int:
        return 1


def test_delta_self_needs_the_minus_t_pass():
    # f_3 += 16 + t^3 adds (j - 1) * t^j per term to delta_self's difference:
    # 2t^3 - 16 vanishes at t = 2, not at t = -2
    spec = parse_spec("{1,2}")
    chk = _AtTwo(spec, 8)
    with _read_off(chk, _tamper(comp_polys(spec, 8).polys, [(3, 0, 16), (3, 3, 1)])):
        by_eval = chk.check_eval()
    assert by_eval["delta_self"] == chk.check_coeff("delta_self")
    assert by_eval["delta_self"].n == 3


def test_parity_needs_the_minus_t_pass():
    # odd f_3 += 2 + t adds 2 * (2 - t) to parity's difference at n = 3,
    # and a multiple of 2 - t at every level above: all vanish at t = 2
    spec = parse_spec("{1,2}")
    chk = _AtTwo(spec, 8)
    odd = _tamper(chk.odd_polys, [(3, 0, 2), (3, 1, 1)])
    with _read_off(chk, comp_polys(spec, 8).polys, odd):
        by_eval = chk.check_eval()
    assert by_eval["parity"] == chk.check_coeff("parity")
    assert by_eval["parity"].n == 3


def test_verify_eval_mode_reports_wrong_odd_subset():
    # eval mode recomputes values from the member lists, so corrupt those
    spec = parse_spec("{1,2}")
    chk = _IdentityChecker(spec, 8)
    chk.odd_members = [2]
    failure = chk.check_eval()["parity"]
    assert isinstance(failure, IdentityFailure)
    assert failure.identity == "parity"
    assert chk._coeff_parity(failure.n) == failure.coeff_index
    # random wrong odd subsets: both modes fail the same identities, and
    # every eval-mode failure is placed at a real coefficient
    rng = random.Random(113)
    failed = 0
    for _ in range(12):
        spec = explicit(rng.sample(range(1, 10), rng.randint(1, 4)))
        chk = _IdentityChecker(spec, 12)
        chk.odd_members = sorted(rng.sample(range(1, 14), rng.randint(0, 4)))
        by_eval = chk.check_eval()
        by_coeff = {name: chk.check_coeff(name) for name in by_eval}
        assert ({name for name, f in by_eval.items() if f}
                == {name for name, f in by_coeff.items() if f}), chk.odd_members
        for fail in by_eval.values():
            if fail is not None:
                failed += 1
                assert fail.coeff_index >= 0
                assert chk._failure(fail.identity, fail.n) == fail
    assert failed >= 6


def test_csv_exports():
    spec = parse_spec("{1,2,3}")
    counts_text = counts_csv(spec, 4)
    assert counts_text.splitlines()[0] == "n,c_A(n)"
    assert counts_text.splitlines()[-1] == "4,7"
    tri_text = triangle_csv(comp_polys(spec, 4))
    lines = tri_text.splitlines()
    assert lines[0] == "n,i,c_A(i,n)"
    assert "4,2,3" in lines
    assert "4,4,1" in lines
    assert lines[1] == "0,0,1"
