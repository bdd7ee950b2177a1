"""The record contract shared by every compsigns record class: field order
and defaults, argument checking, __post_init__ checks, equality, hashing,
frozen-ness, repr, and the JSON data of to_json."""

from fractions import Fraction

import pytest

from compsigns import Record
from compsigns.bigfloat import Complex, Real
from compsigns.compositions import (
    CompPolyTable,
    IdentityFailure,
    IdentityReport,
)
from compsigns.explorer import (
    HORIZON_NOTE,
    CofiniteCheck,
    EnumerationResult,
    RepunitProbe,
    SubsetSumCheck,
)
from compsigns.nonperiodic import (
    DominantInfo,
    ExactUnityTest,
    NonPeriodicityReport,
    Root,
    ZetaTest,
)
from compsigns.poly import IntPoly, RatSeries
from compsigns.sets import SetSpec, SpecError
from compsigns.signs import (
    ConjectureCheck,
    OddSetCheck,
    PatternCheck,
    PeriodFinding,
)
from compsigns.sums import SkGrid

S = SetSpec("explicit", (1, 2), 50)
P = IntPoly((1, 1, 1))
F = PeriodFinding(0, 3, (1, 0, -1), "ConsistentAtHorizon")

# every field of every record class, in declaration order, with values
# that its __post_init__ (if any) keeps as they are
SAMPLES = {
    SetSpec: dict(kind="range", data=(4,), horizon=30),
    IntPoly: dict(coeffs=(1, -2, 3)),
    RatSeries: dict(coeffs=(Fraction(1), Fraction(-1, 2))),
    CompPolyTable: dict(polys=(IntPoly((1,)), IntPoly((0, 1)))),
    IdentityFailure: dict(identity="parity", n=4, coeff_index=2),
    IdentityReport: dict(results={"parity": None}),
    SkGrid: dict(K=0, N=2, values=((1, -1, 2),)),
    PeriodFinding: dict(preperiod=1, period=2, pattern=(1, 0), verdict="ConsistentAtHorizon"),
    PatternCheck: dict(m=3, upto=6, passed=True, first_mismatch=None,
                       expected_block=(1, 0, -1)),
    OddSetCheck: dict(set=S, upto=20, k_max=2, count_identity_mismatch=None,
                      negative_at=(1, 5), passed=False),
    ConjectureCheck: dict(m=4, k=1, upto=40, finding=F, consistent=True, note="n"),
    CofiniteCheck: dict(removed=S, upto=10, k_max=3, identity_mismatch=7, negative_at=None),
    SubsetSumCheck: dict(base=S, constructed=S, upto=12, mismatch_at=None),
    EnumerationResult: dict(n=2, horizon=8, count=3, first_violations=(None, 5, None, None),
                            note="x"),
    RepunitProbe: dict(m=4, horizon=100, members=(1, 4, 5), first_violation=None, note="z"),
    Root: dict(value=0.5 + 1j, multiplicity=1, residual_bound=1e-30),
    DominantInfo: dict(root=0.5 + 1j, modulus=1.25, multiplicity=1, relative_gap=0.1),
    ZetaTest: dict(degree_bound=4, orders_checked=9, min_distance=0.3, min_at_order=6),
    ExactUnityTest: dict(ratio_degree=4, orders_checked=9, divisor_order=None),
    NonPeriodicityReport: dict(poly=P, exact=True, verdict="Inconclusive", reasons=("r",),
                               roots=None, dominant=None, zeta_test=None,
                               exact_test=None, notes=("n",)),
}

DEFAULTS = {
    SetSpec: dict(horizon=1000),
    IntPoly: dict(coeffs=()),
    EnumerationResult: dict(note=HORIZON_NOTE),
    RepunitProbe: dict(note=HORIZON_NOTE),
    NonPeriodicityReport: dict(roots=None, dominant=None, zeta_test=None,
                               exact_test=None, notes=()),
}

# fields that make __post_init__ refuse, and what it raises
REFUSED = {
    SetSpec: (dict(kind="bogus"), SpecError),
    RatSeries: (dict(coeffs=()), ValueError),
}

# every record class in the package, so that a new one without a sample fails
RECORDS = sorted(Record.__subclasses__(), key=lambda c: c.__name__)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_record_contract(cls):
    sample = SAMPLES[cls]
    values = list(sample.values())

    # positional, keyword and default construction
    rec = cls(*values)
    assert rec == cls(**sample)
    assert [getattr(rec, name) for name in sample] == values
    defaults = DEFAULTS.get(cls, {})
    required = {k: v for k, v in sample.items() if k not in defaults}
    bare = cls(**required)
    assert {k: getattr(bare, k) for k in defaults} == defaults

    # a wrong argument raises TypeError
    with pytest.raises(TypeError):
        cls(*values, values[0])
    with pytest.raises(TypeError):
        cls(**sample, bogus=1)
    with pytest.raises(TypeError):
        cls(values[0], **sample)
    if required:
        with pytest.raises(TypeError):
            cls(**dict(list(required.items())[:-1]))

    # __post_init__ checks still run
    if cls in REFUSED:
        bad, error = REFUSED[cls]
        with pytest.raises(error):
            cls(**{**sample, **bad})

    # == holds only between instances of the same class
    twin = type("Twin", (cls,), {})
    assert twin(**sample) != rec and rec != twin(**sample)
    assert rec != tuple(values)

    # records refuse assignment and deletion, and hash by their values;
    # IdentityReport holds a dict, so it does not hash
    name = next(iter(sample))
    with pytest.raises(AttributeError):
        setattr(rec, name, values[0])
    with pytest.raises(AttributeError):
        delattr(rec, name)
    if cls is IdentityReport:
        with pytest.raises(TypeError):
            hash(rec)
    else:
        assert hash(rec) == hash(cls(**sample))

    shown = ", ".join(f"{k}={v!r}" for k, v in sample.items())
    assert repr(rec) == f"{cls.__name__}({shown})"


def test_to_json_maps_each_field_by_its_rules():
    # one key per field: a Real becomes its 32-digit string, a tuple a
    # list, a nested record its own to_json(), and None, bools, ints and
    # strings stay as they are
    tenth = Real.of(0.1, 256)
    assert ZetaTest(4, 9, tenth, 6).to_json() == {
        "degree_bound": 4, "orders_checked": 9,
        "min_distance": "0.10000000000000000555111512312578", "min_at_order": 6}
    assert ExactUnityTest(4, 9, None).to_json() == {
        "ratio_degree": 4, "orders_checked": 9, "divisor_order": None}
    assert RepunitProbe(4, 100, (1, 4, 5), None, "z").to_json() == {
        "m": 4, "horizon": 100, "members": [1, 4, 5], "first_violation": None, "note": "z"}
    assert OddSetCheck(S, 20, 2, None, (1, 5), False).to_json() == {
        "set": {"kind": "explicit", "data": [1, 2], "horizon": 50},
        "upto": 20, "k_max": 2, "count_identity_mismatch": None,
        "negative_at": [1, 5], "passed": False}
    assert SkGrid(0, 2, ((1, -1, 2),)).to_json()["values"] == [[1, -1, 2]]
    # the overrides: a Complex spreads into re and im, a pattern prints
    # as a word does
    root = Root(Complex.of(0.5 + 1j, 256), 2, tenth)
    half, one = Real.of(0.5, 256).nstr(32), Real.of(1, 256).nstr(32)
    assert root.to_json() == {"re": half, "im": one, "multiplicity": 2,
                              "residual_bound": tenth.nstr(32)}
    # the report's roots print through the generic path, a tuple of records
    assert NonPeriodicityReport(P, False, "Inconclusive", (), (root,)).to_json()["roots"] == [
        root.to_json()]
    assert NonPeriodicityReport(P, False, "Inconclusive", ()).to_json()["roots"] is None
    assert F.to_json() == {"preperiod": 0, "period": 3, "pattern": "+0-",
                           "verdict": "ConsistentAtHorizon"}
    assert PeriodFinding(None, None, None, "NoPeriodFound").to_json()["pattern"] is None
