"""Tests for the verification experiments and subset scans."""

import json
import random

import pytest

from oracles import (
    alt_moment_sum,
    compositions_of,
    first_violation_reference,
    partition_count,
)

from compsigns._backend import first_violation, series_inv_int
from compsigns.explorer import (
    HORIZON_NOTE,
    CofiniteCheck,
    EnumerationResult,
    construct_distinct_subset_sums,
    enumerate_F,
    enumeration_json,
    repunit_extension_experiment,
    union_relation_check,
    verdicts_csv,
    verify_cofinite_even_complement,
    verify_distinct_subset_sums,
)
from compsigns.poly import IntPoly
from compsigns.sets import SpecError, explicit, parse_spec


def test_cofinite_anchor_e2():
    # (-1)^5 S(5) = c_{{2,3}}(5) + c_{{2,3}}(4) = 2 + 1
    assert len(list(compositions_of([2, 3], 5))) == 2
    assert len(list(compositions_of([2, 3], 4))) == 1
    chk = verify_cofinite_even_complement(explicit([2]), 60)
    assert chk.passed


def test_cofinite_identity_against_oracle():
    # recompute both sides by brute force for small n
    e = [2, 6]
    eprime = [2, 3, 6, 7]
    members = [a for a in range(1, 26) if a not in e]
    for n in range(1, 22):
        lhs = (-1) ** n * alt_moment_sum(members, 0, n)
        rhs = len(list(compositions_of(eprime, n)))
        rhs += len(list(compositions_of(eprime, n - 1))) if n >= 1 else 0
        assert lhs == rhs
    assert verify_cofinite_even_complement(explicit(e), 60).passed


def test_cofinite_empty_and_larger_sets():
    assert verify_cofinite_even_complement(explicit([]), 50).passed
    assert verify_cofinite_even_complement(explicit([4, 8, 10]), 80).passed


def test_cofinite_rejects_odd_or_infinite():
    with pytest.raises(SpecError):
        verify_cofinite_even_complement(explicit([3]), 40)
    with pytest.raises(SpecError):
        verify_cofinite_even_complement(parse_spec("N+"), 40)


def test_subset_sum_construction_anchors():
    assert construct_distinct_subset_sums(explicit([1, 3])).data == (1, 3, 4)
    a = construct_distinct_subset_sums(explicit([1, 3, 5]))
    assert a.data == (1, 3, 4, 5, 6, 8, 9)
    assert len(a.data) == 2**3 - 1


def test_subset_sum_gate_rejections():
    with pytest.raises(SpecError):
        construct_distinct_subset_sums(explicit([1, 3, 4]))  # even element
    with pytest.raises(SpecError):
        construct_distinct_subset_sums(explicit([1, 3, 9, 13]))  # 1+3+9 = 13


def test_construction_contains_base_and_an_even_sum():
    rng = random.Random(77)
    for _ in range(6):
        base = sorted(rng.sample([1, 3, 5, 9, 17, 33, 65], rng.randint(2, 4)))
        try:
            a = construct_distinct_subset_sums(explicit(base))
        except SpecError:
            continue
        assert set(base) <= set(a.data)
        assert any(x % 2 == 0 for x in a.data)


def test_verify_subset_sums_floor_pattern():
    chk = verify_distinct_subset_sums(explicit([1, 3]), 300)
    assert chk.passed
    assert chk.constructed.data == (1, 3, 4)
    # p_{1,3}(n) = floor(n/3) + 1
    for n in range(0, 30):
        assert partition_count([1, 3], n) == n // 3 + 1


def test_verify_subset_sums_oracle():
    chk = verify_distinct_subset_sums(explicit([1, 3, 5]), 120)
    assert chk.passed
    members = list(chk.constructed.data)
    for n in range(0, 18):
        lhs = (-1) ** n * alt_moment_sum(members, 0, n)
        assert lhs == partition_count([1, 3, 5], n)


def test_enumerate_small_against_oracle():
    res = enumerate_F(4, 16)
    assert len(res.first_violations) == 16
    for mask, fv in enumerate(res.first_violations):
        members = [i + 1 for i in range(4) if mask >> i & 1]
        expect = None
        for n in range(17):
            if (-1) ** n * alt_moment_sum(members, 0, n) < 0:
                expect = n
                break
        assert fv == expect  # also None exactly when the oracle finds no failure


def test_enumerate_anchors():
    res = enumerate_F(6, 40)
    assert res.first_violations[0] is None  # empty set
    assert res.first_violations[0b11] == 3  # {1,2}
    assert res.count >= 2 ** ((6 + 1) // 2)
    assert res.note == HORIZON_NOTE


def test_enumerate_count_monotone_in_horizon():
    counts = [enumerate_F(6, h).count for h in (30, 60, 120)]
    assert counts[0] >= counts[1] >= counts[2]


def test_enumerate_guards():
    with pytest.raises(ValueError):
        enumerate_F(30, 200)
    with pytest.raises(ValueError, match=r"^n=23 exceeds the 2\^22-subset budget$"):
        enumerate_F(23, 200)
    with pytest.raises(ValueError):
        enumerate_F(8, 10)  # horizon < 4n


def _reference_scan(n, horizon):
    fvs = (first_violation_reference([i + 1 for i in range(n) if mask >> i & 1], horizon)
           for mask in range(1 << n))
    return tuple(None if fv < 0 else fv for fv in fvs)


@pytest.mark.parametrize("n, horizon", [(0, 0), (1, 4), (2, 8), (9, 36), (9, 200),
                                        (10, 40), (11, 44), (11, 200), (12, 200)])
def test_pruned_scan_matches_reference(n, horizon):
    # most masks are decided from other masks without the kernel, so check
    # every mask against the plain recurrence; the scan visits mask k ^ E
    # at step k, E the even elements, and E differs between odd and even n
    want = _reference_scan(n, horizon)
    res = enumerate_F(n, horizon)
    assert res.first_violations == want
    assert res.count == want.count(None)


def test_enumeration_json_and_csv():
    res = enumerate_F(3, 12)
    chunks = []
    enumeration_json(res, chunks.append, "compsigns/1")
    blob = json.loads("".join(chunks))
    assert blob["count"] == res.count
    assert blob["verdicts"][3]["members"] == [1, 2]
    assert blob["verdicts"][3]["first_violation"] == 3
    chunks = []
    verdicts_csv(res, chunks.append)
    csv = "".join(chunks)
    lines = csv.strip().split("\n")
    assert lines[0] == "mask,k0_ok,first_violation"
    assert lines[1] == "0,true,"
    assert lines[4] == "3,false,3"


def test_writers_stream_in_bounded_chunks():
    # neither document is ever handed to write whole
    res = enumerate_F(14, 56)
    sizes = []
    for writer, extra in ((enumeration_json, ("compsigns/1",)), (verdicts_csv, ())):
        before = len(sizes)
        writer(res, lambda text: sizes.append(len(text)), *extra)
        assert len(sizes) - before > 2
    assert max(sizes) <= 1 << 20


def test_union_relation_simple_and_infinite():
    assert union_relation_check(explicit([1]), explicit([2]), 30)
    assert union_relation_check(parse_spec("{1,3,5}"), parse_spec("{2,4,8}"), 50)
    # odd cofinite-style slices work through the member cap
    assert union_relation_check(parse_spec("{1,3,5,7,9,11}"), parse_spec("{2,4}"), 40)


def test_union_relation_random_disjoint_splits():
    rng = random.Random(4242)
    for _ in range(8):
        pool = rng.sample(range(1, 15), rng.randint(2, 8))
        left = [x for x in pool if rng.random() < 0.5]
        right = [x for x in pool if x not in left]
        if not left or not right:
            continue
        assert union_relation_check(explicit(left), explicit(right), 36)


def test_union_relation_rejects_overlap():
    with pytest.raises(SpecError):
        union_relation_check(explicit([1, 2]), explicit([2, 3]), 20)


def test_repunit_probe():
    r = repunit_extension_experiment(4, 2000)
    assert r.members[:3] == (1, 4, 5)
    assert r.passed and r.first_violation is None
    assert repunit_extension_experiment(6, 2000).passed


def test_repunit_probe_core_passes_for_all_n():
    # the argument for the probe at every n: for even m the core
    # C = {1, m, m+1} has q_C = (1 - x)(1 + x^m), whose reciprocal is 1
    # where floor(n/m) is even and 0 elsewhere; every other repunit is odd
    horizon = 3000
    for m in range(2, 51, 2):
        q = [1] + [0] * (m + 1)  # p_C(-x), the core's sums in the (-1)^n frame
        for a in (1, m, m + 1):
            q[a] += (-1) ** a
        assert IntPoly(tuple(q)) == IntPoly((1, -1)) * IntPoly((1,) + (0,) * (m - 1) + (1,))
        assert series_inv_int(q, horizon) == [int(n // m % 2 == 0) for n in range(horizon + 1)]
        assert first_violation([1, m, m + 1], horizon) == -1
        repunits = parse_spec(f"repunit({m})@{horizon}").members_up_to(horizon)
        assert repunits[:2] == [1, m + 1]
        assert all(r % 2 for r in repunits[2:]), m


def test_repunit_probe_guards():
    with pytest.raises(ValueError):
        repunit_extension_experiment(3, 100)
    with pytest.raises(ValueError):
        repunit_extension_experiment(5, 100)
