"""Tests for the part-set descriptions and their mini-language."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import set_member_reference

from compsigns.sets import (
    DEFAULT_HORIZON,
    SetSpec,
    SpecError,
    e_prime,
    explicit,
    parse_spec,
)


def test_parse_explicit():
    s = parse_spec("{1,2,3}")
    assert s.kind == "explicit"
    assert s.data == (1, 2, 3)
    assert s.horizon == DEFAULT_HORIZON
    assert s.members_up_to(2) == [1, 2]
    assert s.members_up_to(10) == [1, 2, 3]


def test_parse_empty_set():
    s = parse_spec("{}")
    assert s.is_empty
    assert s.members_up_to(50) == []
    assert s.min_element() is None


def test_parse_range():
    s = parse_spec("1..4@50")
    assert s.kind == "range"
    assert s.horizon == 50
    assert s.members_up_to(3) == [1, 2, 3]
    assert s.members_up_to(50) == [1, 2, 3, 4]


def test_parse_cofinite():
    s = parse_spec("N+\\{2,6}@40")
    assert s.kind == "cofinite"
    assert s.members_up_to(8) == [1, 3, 4, 5, 7, 8]
    assert s.min_element() == 1
    full = parse_spec("N+@10")
    assert full.members_up_to(5) == [1, 2, 3, 4, 5]
    assert full.min_element() == 1


def test_cofinite_min_element_skips_prefix():
    s = parse_spec("N+\\{1,2,4}@30")
    assert s.min_element() == 3


def test_parse_repunit():
    s = parse_spec("repunit(2)@100")
    assert s.members_up_to(100) == [1, 3, 7, 15, 31, 63]
    t = parse_spec("repunit(3)@100")
    assert t.members_up_to(100) == [1, 4, 13, 40]
    assert t.min_element() == 1


def test_parse_horizon_suffix_and_argument():
    assert parse_spec("{1}", horizon=77).horizon == 77
    # the @H suffix wins over the argument
    assert parse_spec("{1}@9", horizon=77).horizon == 9


@pytest.mark.parametrize("bad", [
    "{1,1}", "{0}", "{3,2}", "1..0", "repunit(1)", "{1,2", "N-", "", "{a}",
    "{1}@x",
])
def test_parse_rejects(bad):
    with pytest.raises(SpecError):
        parse_spec(bad)


def test_queries_past_the_horizon_answer():
    s = parse_spec("{1,2}@10")
    assert s.members_up_to(11) == [1, 2]
    assert not s.contains(11)
    assert parse_spec("N+\\{2}@10").members_up_to(12)[-3:] == [10, 11, 12]
    assert parse_spec("repunit(3)@3").contains(40)
    assert parse_spec("repunit(3)@3").members_up_to(40) == [1, 4, 13, 40]
    with pytest.raises(SpecError):
        s.members_up_to(-1)
    with pytest.raises(SpecError):
        s.contains(-1)


def test_members_up_to_every_member():
    # with no bound, a finite set lists every element, past its horizon too
    assert parse_spec("{1,5,20}@10").members_up_to() == [1, 5, 20]
    assert parse_spec("{1,5,20}@10").members_up_to(19) == [1, 5]
    assert parse_spec("1..4@2").members_up_to() == [1, 2, 3, 4]
    assert parse_spec("1..4@2").members_up_to(3) == [1, 2, 3]
    assert parse_spec("{}").members_up_to() == []
    # an infinite set needs a bound
    assert parse_spec("N+\\{2}@10").members_up_to(4) == [1, 3, 4]
    with pytest.raises(SpecError, match=r"^repunit\(3\)@1000 is infinite; its members need a cap$"):
        parse_spec("repunit(3)").members_up_to()
    with pytest.raises(SpecError, match=r"is infinite; its members need a cap"):
        parse_spec("N+").members_up_to()


@st.composite
def _set_of_any_kind(draw):
    kind = draw(st.sampled_from(["explicit", "range", "cofinite", "repunit"]))
    if kind in ("explicit", "cofinite"):
        data = tuple(sorted(draw(st.sets(st.integers(1, 30), max_size=6))))
    elif kind == "range":
        data = (draw(st.integers(1, 30)),)
    else:
        data = (draw(st.integers(2, 6)),)
    return SetSpec(kind, data, draw(st.integers(1, 20)))


@settings(max_examples=200, deadline=None, database=None)
@given(_set_of_any_kind(), st.data())
def test_queries_match_the_oracle_to_ten_horizons(spec, data):
    top = 10 * spec.horizon
    want = [x for x in range(1, top + 1) if set_member_reference(spec.kind, spec.data, x)]
    for x in range(top + 1):
        assert spec.contains(x) == (x in want)
    for n in (0, 1, spec.horizon, spec.horizon + 1, top,
              data.draw(st.integers(0, top), label="n")):
        assert spec.members_up_to(n) == [x for x in want if x <= n]
    if spec.is_finite:  # every element is at most 30
        assert spec.members_up_to() == [
            x for x in range(1, 31) if set_member_reference(spec.kind, spec.data, x)]
    else:
        with pytest.raises(SpecError, match="is infinite; its members need a cap"):
            spec.members_up_to()


def test_contains():
    s = parse_spec("N+\\{2,6}@40")
    assert s.contains(1)
    assert not s.contains(2)
    assert s.contains(3)
    assert not s.contains(6)
    assert not s.contains(0)
    r = parse_spec("repunit(2)@40")
    assert r.contains(7)
    assert not r.contains(8)


def test_parity_split_and_all_odd():
    assert not parse_spec("{1,3,4,6}").all_odd()
    assert parse_spec("{1,3,9}").all_odd()
    assert not parse_spec("{1,12}@10").all_odd()  # a finite set is read in full
    assert parse_spec("repunit(2)@200").all_odd()
    assert not parse_spec("repunit(3)@200").all_odd()
    # infinite sets are decided in full, not up to their horizon
    assert not parse_spec("repunit(3)@3").all_odd()  # 4 is a member
    assert parse_spec("repunit(4)@3").all_odd()
    assert not parse_spec("N+\\{2,4}@4").all_odd()  # 6, 8, ... are members


def test_render_round_trip():
    rng = random.Random(20260825)
    texts = ["{1,2,3}@100", "1..4@50", "N+\\{2,6}@50", "repunit(3)@1000", "{}@5"]
    for _ in range(40):
        elems = sorted(rng.sample(range(1, 30), rng.randint(1, 6)))
        texts.append("{" + ",".join(map(str, elems)) + "}@%d" % rng.randint(1, 500))
    for text in texts:
        s = parse_spec(text)
        assert s.render() == text.replace(" ", "")
        again = parse_spec(s.render())
        assert again == s


def test_explicit_helper_sorts_and_dedups():
    s = explicit([4, 1, 4, 2], horizon=30)
    assert s.data == (1, 2, 4)
    assert s.horizon == 30


def test_members_match_contains():
    rng = random.Random(7)
    specs = [
        parse_spec("N+\\{2,6}@60"),
        parse_spec("repunit(2)@60"),
        parse_spec("1..5@60"),
        explicit(rng.sample(range(1, 40), 8), horizon=60),
    ]
    for s in specs:
        for n in (0, 1, 13, 60):
            members = s.members_up_to(n)
            assert members == [x for x in range(1, n + 1) if s.contains(x)]
            assert members == sorted(set(members))


def test_e_prime():
    assert e_prime(parse_spec("{2,6}")).data == (2, 3, 6, 7)
    assert e_prime(parse_spec("{4,8,10}")).data == (4, 5, 8, 9, 10, 11)
    assert e_prime(parse_spec("{}")).data == ()
    with pytest.raises(SpecError):
        e_prime(parse_spec("{2,5}"))
    with pytest.raises(SpecError):
        e_prime(parse_spec("N+\\{2}"))


def test_setspec_validation():
    with pytest.raises(SpecError):
        SetSpec("explicit", (2, 2))
    with pytest.raises(SpecError):
        SetSpec("range", (1, 2))
    with pytest.raises(SpecError):
        SetSpec("mystery", (1,))
    with pytest.raises(SpecError):
        SetSpec("explicit", (1,), horizon=0)
