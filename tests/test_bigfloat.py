"""bigfloat against exact rationals and against mpmath, value for value.

The rational oracle (tests/oracles.py) is the ground truth the module's
design rests on: ``_round`` and the arithmetic primitives are correctly
rounded.  mpmath is a test-only oracle for everything else: every
function must return the value its mpmath.libmp counterpart returns, and
the Real and Complex operators the values mpmath's mpf and mpc operators
return, so that a certifier run rounds exactly as it did on mpmath.
"""

import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import libmp
from oracles import as_mpmath, libmp_raw, pair_of, round_fraction, round_sqrt

from compsigns import bigfloat as bf
from compsigns.bigfloat import INF, ZERO, Complex, Real
from compsigns.poly import IntPoly

PRECISIONS = st.integers(4, 300) | st.sampled_from([53, 64, 256, 1024, 2048])
ROUNDINGS = st.sampled_from(["n", "d", "u"])


@st.composite
def raws(draw, max_bits=600):
    """A raw real: zero, or a mantissa of up to max_bits bits (even ones
    too, as an exact product leaves them) at an exponent near 0 or far out."""
    if draw(st.integers(0, 15)) == 0:
        return ZERO
    man = draw(st.integers(1, (1 << draw(st.integers(1, max_bits))) - 1))
    exp = draw(st.integers(-80, 80) | st.integers(-6000, 6000))
    return (-man if draw(st.booleans()) else man, exp)


def odd(raw):
    """raw with its trailing zero bits stripped, as stored values are."""
    return pair_of(libmp_raw(raw))


def value(raw):
    man, exp = raw
    return man * Fraction(2) ** exp


def canonical(raw):
    return raw == ZERO or raw[0] & 1 == 1


@settings(max_examples=600, deadline=None, database=None)
@given(raws(), raws(), PRECISIONS, ROUNDINGS)
@example((1, 0), (1, -300), 53, "n")       # exponents far apart
@example((3, 0), (-3, 0), 53, "n")          # exact cancellation
@example((3, 0), (-1, -300), 4, "d")        # a sticky unit below the precision
def test_primitives_round_correctly(s, t, prec, rnd):
    # the claim the module rests on: one correct rounding of the exact
    # result, for any mantissa, even or wide, in every mode
    results = [(bf._round(*s, prec, rnd), round_fraction(value(s), prec, rnd)),
               (bf.mul(s, t, prec, rnd), round_fraction(value(s) * value(t), prec, rnd)),
               (bf.sqrt((abs(s[0]), s[1]), prec, rnd), round_sqrt(abs(value(s)), prec, rnd))]
    if t[0]:
        results.append((bf.div(s, t, prec, rnd), round_fraction(value(s) / value(t), prec, rnd)))
    # addition: exact on stored values (at most prec bits), and on any
    # operands whose exponents lie within 100 of each other
    a, b = bf._round(*s, prec), bf._round(*t, prec)
    results.append((bf.add(a, b, prec, rnd), round_fraction(value(a) + value(b), prec, rnd)))
    if abs(s[1] - t[1]) <= 100:
        results.append((bf.add(s, t, prec, rnd), round_fraction(value(s) + value(t), prec, rnd)))
    for got, want in results:
        assert canonical(got) and value(got) == want


@settings(max_examples=600, deadline=None, database=None)
@given(raws(), raws(), PRECISIONS, ROUNDINGS)
@example((1, 0), (1, -300), 53, "n")
@example((3, 0), (-3, 0), 53, "n")
def test_real_functions_match_libmp(s, t, prec, rnd):
    ls, lt = libmp_raw(s), libmp_raw(t)
    neg_t = (-t[0], t[1])
    for mine, theirs in [
        (bf._round(*s, prec, rnd), libmp.normalize(*ls, prec, rnd)),
        (bf.add(s, t, prec, rnd), libmp.mpf_add(ls, lt, prec, rnd)),
        (bf.add(s, neg_t, prec, rnd), libmp.mpf_sub(ls, lt, prec, rnd)),
        (bf.mul(s, t, prec, rnd), libmp.mpf_mul(ls, lt, prec, rnd)),
        (bf.mul(s, bf._operand(t[0]), prec, rnd), libmp.mpf_mul_int(ls, t[0], prec, rnd)),
        (bf.hypot(s, t, prec, rnd), libmp.mpf_hypot(ls, lt, prec, rnd)),
        (bf._operand(s[0] - t[0]), libmp.from_int(s[0] - t[0])),
        (bf.sqrt((abs(s[0]), s[1]), prec, rnd), libmp.mpf_sqrt(libmp.mpf_abs(ls), prec, rnd)),
    ]:
        assert canonical(mine) and mine == pair_of(theirs)
    if t[0]:
        assert bf.div(s, t, prec, rnd) == pair_of(libmp.mpf_div(ls, lt, prec, rnd))
    assert bf.cmp(s, t) == libmp.mpf_cmp(ls, lt)
    assert bf.cmp(odd(s), odd(t)) == libmp.mpf_cmp(libmp_raw(odd(s)), libmp_raw(odd(t)))
    assert bf.to_float(s) == libmp.to_float(ls, False, "n")


@settings(max_examples=300, deadline=None, database=None)
@given(raws(200), st.integers(-40, 40), PRECISIONS, ROUNDINGS)
def test_integer_powers_match_libmp(s, n, prec, rnd):
    if n < 0 and s == ZERO:
        n = -n
    want = libmp.mpf_pow_int(libmp_raw(s), n, prec, rnd)
    assert bf.pow_int(s, n, prec, rnd) == pair_of(want)


def mpc_pair(z):
    return tuple(pair_of(part) for part in z)


def libmp_mpc(z):
    return tuple(libmp_raw(part) for part in z)


@settings(max_examples=400, deadline=None, database=None)
@given(raws(), raws(), raws(), raws(), PRECISIONS, ROUNDINGS, st.integers(-9, 9))
def test_complex_functions_match_libmp(a, b, c, d, prec, rnd, n):
    z, w = (a, b), (c, d)
    lz, lw = libmp_mpc(z), libmp_mpc(w)
    assert bf.cmul(z, w, prec, rnd) == mpc_pair(libmp.mpc_mul(lz, lw, prec, rnd))
    assert bf.cmul(z, z, prec, rnd) == mpc_pair(libmp.mpc_square(lz, prec, rnd))
    if w != (ZERO, ZERO):
        assert bf.cdiv(z, w, prec, rnd) == mpc_pair(libmp.mpc_div(lz, lw, prec, rnd))
    z1 = odd(a), odd(b)
    lz1 = libmp_mpc(z1)
    assert Complex(z1, prec).conjugate().raw == mpc_pair(libmp.mpc_conjugate(lz1, prec, "n"))
    assert (Complex(z1, prec) * n).raw == mpc_pair(libmp.mpc_mul_int(lz1, n, prec, "n"))
    assert (Complex(z1, prec) + Real(c, prec)).raw == \
        mpc_pair(libmp.mpc_add_mpf(lz1, libmp_raw(c), prec, "n"))
    assert complex(Complex(z, prec)) == libmp.mpc_to_complex(lz, False, "n")


@st.composite
def powers(draw):
    """(z, n) with z of up to 300-bit parts whose exact power stays below
    the 10,000-bit size past which mpmath leaves exact powering."""
    a = odd(draw(raws(300)))
    b = odd(draw(raws(300)))
    if ZERO not in (a, b):
        a = (a[0], draw(st.integers(-40, 40)))
        b = (b[0], a[1] + draw(st.integers(-300, 300)))
    size = abs(a[1] - b[1]) + max(abs(a[0]).bit_length(), abs(b[0]).bit_length())
    return (a, b), draw(st.integers(0, max(2, 9999 // max(size, 1))))


@settings(max_examples=300, deadline=None, database=None)
@given(powers(), PRECISIONS, ROUNDINGS)
def test_exact_complex_powers_match_libmp(zn, prec, rnd):
    z, n = zn
    assert bf.cpow_int(z, n, prec, rnd) == mpc_pair(libmp.mpc_pow_int(libmp_mpc(z), n, prec, rnd))


@st.composite
def floats(draw):
    return draw(st.floats(allow_nan=False, allow_infinity=False))


def raw_of(x):
    """The canonical raw value of an mpmath number."""
    return mpc_pair(x._mpc_) if hasattr(x, "_mpc_") else pair_of(x._mpf_)


@settings(max_examples=300, deadline=None, database=None)
@given(st.lists(floats(), min_size=4, max_size=4), st.integers(-50, 50),
       PRECISIONS)
def test_operators_match_mpmath_operators(xs, n, prec):
    # the certifier's expressions, on both number types: each operator
    # must give what mpmath's gives, operand types included
    a, b, c, d = xs
    with mp.workprec(prec):
        mz, mw, mx = mp.mpc(a, b), mp.mpc(c, d), mp.mpf(c)
        z, w, x = Complex.of(complex(a, b), prec), Complex.of(complex(c, d), prec), Real.of(c, prec)
        assert (z.raw, w.raw, x.raw) == (raw_of(mz), raw_of(mw), raw_of(mx))
        pairs = [
            (z + w, mz + mw), (z - w, mz - mw), (z * w, mz * mw),
            (n * z, n * mz), (z * n, mz * n), (z + n, mz + n), (z - n, mz - n),
            (x * z, mx * mz), (z.conjugate(), mp.conj(mz)),
            (x + n, mx + n), (n + x, n + mx), (x - n, mx - n), (x - x, mx - mx),
            (x * n, mx * n), (n * x, n * mx), (x * x, mx * mx),
            (abs(x), abs(mx)), (abs(z), abs(mz)), (x ** abs(n), mx ** abs(n)),
            (z ** (abs(n) % 5), mz ** (abs(n) % 5)),  # exact at every double
        ]
        if w:
            pairs.append((z / w, mz / mw))
        if x:
            pairs += [(z / x, mz / mx), (x / x, mx / mx)]
        if n:
            pairs += [(x / n, mx / n), (z / n, mz / n)]
        for mine, theirs in pairs:
            assert mine.raw == raw_of(theirs)
        assert (x < abs(z), x <= n, x > 0.5, x >= x, x == n, z == w, z == n) == \
            (mx < abs(mz), mx <= n, mx > 0.5, mx >= mx, mx == n, mz == mw, mz == n)
        assert (complex(z), float(x), bool(z), bool(x)) == (complex(mz), float(mx), bool(mz), bool(mx))
        if x >= 0:
            assert x.sqrt().raw == raw_of(mp.sqrt(mx))
        poly = IntPoly((1, n, 0, -3, 7))
        assert poly(z).raw == raw_of(poly(mz))


@settings(max_examples=300, deadline=None, database=None)
@given(floats(), floats(), st.integers(-2**70, 2**70), PRECISIONS)
def test_equal_values_hash_equal(a, b, n, prec):
    # Real and Complex hash as the equal int, float or mpmath number does
    x, m = Real.of(a, prec), Real.of(n, prec)
    z = Complex.of(complex(a, b), prec)
    for mine in (x, m, Real.of(n, 2000)):
        assert hash(mine) == hash(as_mpmath(mine))
    assert hash(Complex.of(m, prec)) == hash(m) and Complex.of(m, prec) == m
    assert hash(z) == hash(Complex.of(complex(a, b), prec))
    assert hash(Real.of(a, 53)) == hash(a) and hash(Real.of(n, 2000)) == hash(n)
    assert hash(Real.of(1, 256)) == hash(1) and Real.of(1, 256) == 1
    assert hash(Real.of(0.5, 256)) == hash(0.5) and Real.of(0.5, 256) == 0.5
    assert hash(Complex.of(1, 256)) == hash(1) and Complex.of(1, 256) == 1
    assert hash(Real(INF, 8)) == hash(float("inf")) and hash(Real(ZERO, 8)) == hash(0)
    assert len({Real.of(3, 53), 3, 3.0, Complex.of(3, 8)}) == 1


@st.composite
def printable(draw):
    if draw(st.integers(0, 20)) == 0:
        return draw(st.sampled_from([ZERO, INF]))
    man = draw(st.integers(1, (1 << draw(st.integers(1, 400))) - 1)) | 1
    exp = draw(st.integers(-300, 300) | st.integers(-12000, 12000)
               | st.integers(-(2**40), 2**40))
    return (-man if draw(st.booleans()) else man, exp)


@settings(max_examples=500, deadline=None, database=None)
@given(printable(), st.sampled_from([32, 32, 8, 1, 3, 15, 50]))
@example((1, -3), 32)
@example((9999999999999999999999999999999999, 0), 32)  # rounds up to 1e+34
@example((1, 3501), 32)
def test_nstr_matches_mpmath(s, digits):
    want = mp.nstr(mp.make_mpf(libmp_raw(s)), digits)
    assert Real(s, 256).nstr(digits) == want
    assert bf.to_str(s, digits) == want


def _unit(rng, prec):
    """A random point of the unit circle at the given precision, as mpmath
    and as bigfloat."""
    with mp.workprec(prec):
        z = mp.expjpi(mp.mpf(rng.random()) * 2 - 1)
        z = mp.conj(z) / abs(z)
    return z, Complex(raw_of(z), prec)


def test_unit_circle_powers_match_mpmath_to_32_digits():
    # past the size limit mpmath takes exp(n log z) and bigfloat truncated
    # powering: both print the same 32 digits, of zeta^n and of the
    # distance the unity screen reports
    rng = random.Random(2801)
    for _ in range(60):
        mz, z = _unit(rng, 256)
        for n in (3, 38, 39, 40, 200, rng.randint(41, 60000)):
            with mp.workprec(256):
                theirs = mz**n
                theirs = (theirs.real, theirs.imag, abs(theirs - 1))
            mine = z**n
            mine = (mine.real, mine.imag, abs(mine - 1))
            assert [x.nstr(32) for x in mine] == [mp.nstr(x, 32) for x in theirs], n


@pytest.mark.parametrize("c", [1, 2, 3, 7, 10, 60, 10**30, 10**400])
def test_fractional_powers_round_once(c):
    # c^(1/k) with 1/k at the working precision: correctly rounded, so
    # equal to mpmath's value taken 300 bits wider and rounded once
    for prec in (53, 256):
        for k in (3, 4, 5, 7, 12, 64, 151):
            x = Real.of(c, prec)
            y = Real.of(1, prec) / k
            with mp.workprec(prec + 300):
                wide = as_mpmath(x) ** as_mpmath(y)
            assert (x**y).raw == pair_of(libmp.mpf_pos(wide._mpf_, prec, "n")), (c, k, prec)


def test_fractional_power_misround_is_rare():
    # mpmath's exp(y log x) misrounds c^(1/k) for few c <= 60, k <= 152;
    # the stdlib power agrees with it everywhere else
    differ = 0
    for c in range(2, 61):
        for k in range(3, 153, 3):
            with mp.workprec(256):
                theirs = mp.mpf(c) ** (mp.mpf(1) / k)
            differ += (Real.of(c, 256) ** (Real.of(1, 256) / k)).raw != pair_of(theirs._mpf_)
    assert differ <= 2


def test_specials():
    inf = Real(INF, 256)
    assert inf.nstr(32) == "+inf" and Real(ZERO, 256).nstr(32) == "0.0"
    assert inf > 10**400 and Real.of(1, 4) < inf and not inf < inf and inf == inf
    assert float(inf) == float("inf") and bool(inf)
    for op in (lambda: inf + 1, lambda: Real.of(1, 8) - inf, lambda: inf * 2, lambda: inf / 2,
               lambda: Real.of(2, 8) / inf, lambda: inf**3, lambda: inf.sqrt(),
               lambda: abs(Complex((INF, (1, 0)), 8))):
        with pytest.raises(ValueError):
            op()
    with pytest.raises(ZeroDivisionError):
        Real.of(1, 53) / 0
    with pytest.raises(ValueError):
        Real.of(-1, 53).sqrt()
