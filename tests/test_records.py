"""The record contract shared by every compsigns record class: field order
and defaults, argument checking, __post_init__ checks, equality, hashing,
frozen-ness and repr."""

from fractions import Fraction

import pytest

from compsigns import Record
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
    RootProfile,
    ZetaTest,
)
from compsigns.poly import IntPoly, RatSeries
from compsigns.sets import SetSpec, SpecError
from compsigns.signs import (
    ConjectureCheck,
    OddSetCheck,
    PatternCheck,
    PeriodFinding,
    SignWord,
)
from compsigns.sums import SkGrid

S = SetSpec("explicit", (1, 2), 50)
P = IntPoly((1, 1, 1))
W = SignWord((1, 0, -1), S, 0, True)
F = PeriodFinding(0, 3, (1, 0, -1), "ConsistentAtHorizon")

# every field of every record class, in declaration order, with values
# that its __post_init__ (if any) keeps as they are
SAMPLES = {
    SetSpec: dict(kind="range", data=(4,), horizon=30),
    IntPoly: dict(coeffs=(1, -2, 3)),
    RatSeries: dict(coeffs=(Fraction(1), Fraction(-1, 2))),
    CompPolyTable: dict(set=S, upto=1, polys=(IntPoly((1,)), IntPoly((0, 1)))),
    IdentityFailure: dict(identity="parity", n=4, coeff_index=2),
    IdentityReport: dict(set=S, upto=9, method="eval", results={"parity": None}),
    SkGrid: dict(set=S, K=0, N=2, values=((1, -1, 2),)),
    SignWord: dict(symbols=(1, -1), set=S, k=2, normalized=False),
    PeriodFinding: dict(preperiod=1, period=2, pattern=(1, 0), verdict="ConsistentAtHorizon"),
    PatternCheck: dict(m=3, upto=6, passed=True, first_mismatch=None, word=W,
                       expected_block=(1, 0, -1)),
    OddSetCheck: dict(set=S, upto=20, k_max=2, count_identity_mismatch=None,
                      negative_at=(1, 5), passed=False),
    ConjectureCheck: dict(m=4, k=1, upto=40, finding=F, consistent=True, note="n"),
    CofiniteCheck: dict(removed=S, upto=10, k_max=3, identity_mismatch=7, negative_at=None),
    SubsetSumCheck: dict(base=S, constructed=S, upto=12, mismatch_at=None),
    EnumerationResult: dict(n=2, horizon=8, count=3, first_violations=(None, 5, None, None),
                            note="x"),
    RepunitProbe: dict(m=4, horizon=100, members=(1, 4, 5), first_violation=None, note="z"),
    Root: dict(value=0.5 + 1j, multiplicity=1, residual=1e-30),
    RootProfile: dict(poly=P, precision=64, roots=()),
    DominantInfo: dict(root=0.5 + 1j, modulus=1.25, multiplicity=1, relative_gap=0.1),
    ZetaTest: dict(degree_bound=4, orders_checked=9, min_distance=0.3, min_at_order=6),
    ExactUnityTest: dict(ratio_degree=4, orders_checked=9, divisor_order=None),
    NonPeriodicityReport: dict(poly=P, exact=True, verdict="Inconclusive", reasons=("r",),
                               profile=None, dominant=None, zeta_test=None,
                               exact_test=None, notes=("n",)),
}

DEFAULTS = {
    SetSpec: dict(horizon=1000),
    IntPoly: dict(coeffs=()),
    SignWord: dict(set=None, k=0, normalized=True),
    EnumerationResult: dict(note=HORIZON_NOTE),
    RepunitProbe: dict(note=HORIZON_NOTE),
    NonPeriodicityReport: dict(profile=None, dominant=None, zeta_test=None,
                               exact_test=None, notes=()),
}

# fields that make __post_init__ refuse, and what it raises
REFUSED = {
    SetSpec: (dict(kind="bogus"), SpecError),
    RatSeries: (dict(coeffs=()), ValueError),
    SignWord: (dict(symbols=()), ValueError),
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
