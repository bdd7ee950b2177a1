"""Tests for sign words, periodicity detection, and pattern checks."""

import random

import pytest

from compsigns.signs import (
    CONSISTENT,
    NO_PERIOD,
    ConjectureCheck,
    PeriodFinding,
    check_even_range_conjecture,
    check_odd_set,
    check_range_set_pattern,
    detect_period,
    range_block,
    render,
    sign_word,
)
from compsigns.sets import SpecError, parse_spec
from compsigns.sums import sk_fast


def word_of(text, k, upto, normalized=True):
    spec = parse_spec(text)
    return sign_word(sk_fast(spec, k, upto), k, normalized=normalized)


def test_sign_word_anchors():
    assert word_of("{1,2,3}", 0, 7) == (1, 1, 0, 0, 1, 1, 0, 0)
    assert word_of("{1,2}", 0, 5) == (1, 1, 0, -1, -1, 0)
    assert word_of("{1}", 0, 9) == (1,) * 10
    assert word_of("{1}", 0, 5, normalized=False) == (1, -1, 1, -1, 1, -1)


def test_sign_word_render_and_validation():
    assert render(word_of("{1,2}", 0, 5)) == "++0--0"
    with pytest.raises(ValueError):
        sign_word(sk_fast(parse_spec("{1}"), 1, 5), 2)


def test_detect_period_basics():
    const = (1,) * 20
    got = detect_period(const, 5, 5)
    assert (got.preperiod, got.period) == (0, 1)
    assert got.pattern == (1,)
    assert got.verdict == CONSISTENT
    word = word_of("{1,2,3}", 0, 40)
    got = detect_period(word, 10, 10)
    assert (got.preperiod, got.period) == (0, 4)
    assert got.pattern == (1, 1, 0, 0)


def test_detect_period_preperiod_and_tiebreak():
    # 1,0,-1,0,-1,... : period 2 after dropping the first symbol
    w = (1, 0, -1, 0, -1, 0, -1)
    got = detect_period(w, 1, 3)
    assert (got.preperiod, got.period) == (1, 2)
    assert got.pattern == (0, -1)
    # 1,1,0,1,0,1,0,1 : (1,2) beats any longer period at the same preperiod
    w2 = (1, 1, 0, 1, 0, 1, 0, 1)
    got2 = detect_period(w2, 3, 2)
    assert (got2.preperiod, got2.period) == (1, 2)
    # leading zero never repeated forces preperiod 1
    w3 = (0,) + (1,) * 30
    got3 = detect_period(w3, 4, 6)
    assert (got3.preperiod, got3.period) == (1, 1)


def test_detect_period_bounds_checking():
    w = (1, 0) * 10
    with pytest.raises(ValueError):
        detect_period(w, 11, 5)  # 11 + 10 > 20
    with pytest.raises(ValueError):
        detect_period(w, -1, 5)
    with pytest.raises(ValueError):
        detect_period(w, 0, 0)


def test_detect_period_no_period():
    # ones exactly at the squares: never eventually periodic
    length = 400
    syms = [0] * length
    i = 0
    while i * i < length:
        syms[i * i] = 1
        i += 1
    got = detect_period(tuple(syms), 40, 100)
    assert got.verdict == NO_PERIOD
    assert got.preperiod is None and got.period is None and got.pattern is None


def test_detect_period_recovers_synthesized():
    rng = random.Random(307)
    for _ in range(40):
        p = rng.randint(0, 6)
        t = rng.randint(1, 8)
        pattern = [rng.choice((-1, 0, 1)) for _ in range(t)]
        length = p + 4 * t + rng.randint(0, 5)
        syms = [rng.choice((-1, 0, 1)) for _ in range(p)]
        syms += [pattern[(n - p) % t] for n in range(p, length)]
        got = detect_period(tuple(syms), p, t)
        assert got.verdict == CONSISTENT
        assert got.preperiod <= p
        assert t % got.period == 0
        for n in range(got.preperiod, length):
            assert syms[n] == got.pattern[(n - got.preperiod) % got.period]


def test_period_finding_json():
    got = detect_period((1, 1, 0, -1) * 5, 0, 4).to_json()
    assert got == {"preperiod": 0, "period": 4, "pattern": "++0-",
                   "verdict": CONSISTENT}
    none = detect_period(tuple([0] * 9 + [1] + [0] * 30), 2, 3)
    assert none.to_json()["pattern"] is None


def test_range_block():
    assert range_block(3, 4) == (1, 1, 0, 0)
    assert range_block(2, 6) == (1, 1, 0, -1, -1, 0)
    assert range_block(1, 2) == (1, 1)
    assert range_block(4, 7) == (1, 1, 0, 0, 0, -1, -1)
    assert range_block(2, 100) == range_block(2, 6)
    with pytest.raises(ValueError):
        range_block(0, 1)


def test_check_range_set_pattern():
    for m in (1, 2, 3, 4, 5, 7, 8):
        res = check_range_set_pattern(m, 120)
        assert res.passed, (m, res.first_mismatch)
    # a large m builds the block only as far as the word reaches
    res = check_range_set_pattern(10**6, 10)
    assert res.passed and res.expected_block == (1, 1) + (0,) * 9
    # odd m: no -1 for higher k either
    for m in (3, 5):
        grid = sk_fast(parse_spec(f"1..{m}@100"), 4, 100)
        for k in range(5):
            assert -1 not in sign_word(grid, k)


def test_check_odd_set():
    res = check_odd_set(parse_spec("{1,3,5}"), 150)
    assert res.passed
    assert res.count_identity_mismatch is None
    assert res.negative_at is None
    res2 = check_odd_set(parse_spec("repunit(2)@200"), 150, k_max=3)
    assert res2.passed
    with pytest.raises(SpecError):
        check_odd_set(parse_spec("{1,2}"), 50)
    with pytest.raises(SpecError):  # the even member lies past the horizon
        check_odd_set(parse_spec("{1,12}@10"), 8)
    with pytest.raises(SpecError):  # 8, 10, ... lie past the horizon
        check_odd_set(parse_spec("N+\\{2,4,6}@7"), 7)


def test_check_even_range_conjecture():
    res = check_even_range_conjecture(2, 6, 600)
    assert isinstance(res, ConjectureCheck)
    assert res.finding.verdict == CONSISTENT
    assert res.finding.period == 6
    assert res.finding.pattern == (1, 1, 1, -1, -1, -1)
    assert res.consistent
    assert "consistency" in res.note
    # below the conjectured threshold the block is different
    low = check_even_range_conjecture(2, 0, 120)
    assert low.finding.period == 6
    assert low.finding.pattern == (1, 1, 0, -1, -1, 0)
    assert not low.consistent
    with pytest.raises(ValueError):
        check_even_range_conjecture(3, 6, 300)
    with pytest.raises(ValueError):
        check_even_range_conjecture(2, -1, 300)


def test_no_period_for_23():
    word = word_of("{2,3}@2000", 0, 2000)
    got = detect_period(word, 50, 100)
    assert got.verdict == NO_PERIOD
