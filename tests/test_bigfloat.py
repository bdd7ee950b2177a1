"""bigfloat against mpmath, bit for bit.

mpmath is a test-only oracle here: every ported function must return the
raw value its mpmath.libmp namesake returns, and the Real and Complex
operators must pick the same functions as mpmath's mpf and mpc do, so
that a certifier run rounds exactly as it did on mpmath.
"""

import random

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import libmp

from compsigns import bigfloat as bf
from compsigns.bigfloat import INF, ZERO, Complex, Real
from compsigns.poly import IntPoly

PRECISIONS = st.integers(4, 300) | st.sampled_from([53, 64, 256, 1024, 2048])
ROUNDINGS = st.sampled_from(["n", "d"])


@st.composite
def raws(draw, max_bits=600):
    """A raw real: zero, or a mantissa of up to max_bits bits (even ones
    too, as an exact product leaves them) at an exponent near 0 or far out."""
    if draw(st.integers(0, 15)) == 0:
        return ZERO
    man = draw(st.integers(1, (1 << draw(st.integers(1, max_bits))) - 1))
    exp = draw(st.integers(-80, 80) | st.integers(-6000, 6000))
    return (draw(st.integers(0, 1)), man, exp, man.bit_length())


def odd(raw):
    """raw with its trailing zero bits stripped, as the functions that
    take a normalised operand want it."""
    return libmp.normalize(*raw, max(raw[3], 1), "n")


@settings(max_examples=600, deadline=None, database=None)
@given(raws(), raws(), PRECISIONS, ROUNDINGS)
@example((0, 1, 0, 1), (0, 1, -300, 1), 53, "n")       # exponents far apart
@example((0, 3, 0, 2), (1, 3, 0, 2), 53, "n")           # exact cancellation
def test_real_functions_match_libmp(s, t, prec, rnd):
    for name, args in [
        ("normalize", (*s, prec, rnd)),
        ("mpf_add", (s, t, prec, rnd)),
        ("mpf_add", (s, t)),
        ("mpf_sub", (s, t, prec, rnd)),
        ("mpf_mul", (s, t, prec, rnd)),
        ("mpf_mul", (s, t)),
        ("mpf_mul_int", (s, t[1] - t[3], prec, rnd)),
        ("mpf_hypot", (s, t, prec, rnd)),
        ("mpf_pos", (odd(s), prec, rnd)),
        ("mpf_neg", (odd(s), prec, rnd)),
        ("mpf_abs", (odd(s), prec, rnd)),
        ("mpf_cmp", (s, t)),
        ("mpf_cmp", (odd(s), odd(t))),
        ("from_man_exp", (s[1] - t[1], s[2], prec, rnd)),
        ("to_float", (s, False, "n")),
    ]:
        want = getattr(libmp, name)(*args)
        if name == "to_float":
            args = (s, "n")
        assert getattr(bf, name)(*args) == want, name
    s1 = odd(s)
    assert bf.normalize1(*s1, prec, rnd) == libmp.normalize1(*s1, prec, rnd)
    if t[1]:
        assert bf.mpf_div(s, t, prec, rnd) == libmp.mpf_div(s, t, prec, rnd)
    s_abs = (0, *s[1:])
    assert bf.mpf_sqrt(s_abs, prec, rnd) == libmp.mpf_sqrt(s_abs, prec, rnd)


@settings(max_examples=300, deadline=None, database=None)
@given(raws(200), st.integers(-40, 40), PRECISIONS, ROUNDINGS | st.just("u"))
def test_integer_powers_match_libmp(s, n, prec, rnd):
    if n < 0 and s == ZERO:
        n = -n
    assert bf.mpf_pow_int(s, n, prec, rnd) == libmp.mpf_pow_int(s, n, prec, rnd)


@settings(max_examples=400, deadline=None, database=None)
@given(raws(), raws(), raws(), raws(), PRECISIONS, ROUNDINGS, st.integers(-9, 9))
def test_complex_functions_match_libmp(a, b, c, d, prec, rnd, n):
    z, w = (a, b), (c, d)
    assert bf.mpc_mul(z, w, prec, rnd) == libmp.mpc_mul(z, w, prec, rnd)
    assert bf.mpc_square(z, prec, rnd) == libmp.mpc_square(z, prec, rnd)
    if w != (ZERO, ZERO):
        assert bf.mpc_div(z, w, prec, rnd) == libmp.mpc_div(z, w, prec, rnd)
    z1 = odd(a), odd(b)
    assert Complex(z1, prec).conjugate().raw == libmp.mpc_conjugate(z1, prec, "n")
    assert (Complex(z1, prec) * n).raw == libmp.mpc_mul_int(z1, n, prec, "n")
    assert (Complex(z1, prec) + Real(c, prec)).raw == libmp.mpc_add_mpf(z1, c, prec, "n")
    assert complex(Complex(z, prec)) == libmp.mpc_to_complex(z, False, "n")


@st.composite
def powers(draw):
    """(z, n) with z of up to 300-bit parts whose exact power stays below
    the 10,000-bit size past which mpmath leaves exact powering."""
    a = odd(draw(raws(300)))
    b = odd(draw(raws(300)))
    if ZERO not in (a, b):
        a = (a[0], a[1], draw(st.integers(-40, 40)), a[3])
        b = (b[0], b[1], a[2] + draw(st.integers(-300, 300)), b[3])
    size = abs(a[2] - b[2]) + max(a[3], b[3])
    return (a, b), draw(st.integers(0, max(2, 9999 // max(size, 1))))


@settings(max_examples=300, deadline=None, database=None)
@given(powers(), PRECISIONS, ROUNDINGS)
def test_exact_complex_powers_match_libmp(zn, prec, rnd):
    z, n = zn
    assert bf.mpc_pow_int(z, n, prec, rnd) == libmp.mpc_pow_int(z, n, prec, rnd)


@st.composite
def floats(draw):
    return draw(st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=300, deadline=None, database=None)
@given(st.lists(floats(), min_size=4, max_size=4), st.integers(-50, 50),
       PRECISIONS)
def test_operators_match_mpmath_operators(xs, n, prec):
    # the certifier's expressions, on both number types: each operator
    # must dispatch to the function mpmath's would, operand types included
    a, b, c, d = xs
    with mp.workprec(prec):
        mz, mw, mx = mp.mpc(a, b), mp.mpc(c, d), mp.mpf(c)
        z, w, x = Complex.of(complex(a, b), prec), Complex.of(complex(c, d), prec), Real.of(c, prec)
        assert (z.raw, w.raw, x.raw) == (mz._mpc_, mw._mpc_, mx._mpf_)
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
            assert mine.raw == (theirs._mpc_ if hasattr(theirs, "_mpc_") else theirs._mpf_)
        assert (x < abs(z), x <= n, x > 0.5, x >= x, x == n, z == w, z == n) == \
            (mx < abs(mz), mx <= n, mx > 0.5, mx >= mx, mx == n, mz == mw, mz == n)
        assert (complex(z), float(x), bool(z), bool(x)) == (complex(mz), float(mx), bool(mz), bool(mx))
        if x >= 0:
            assert x.sqrt().raw == mp.sqrt(mx)._mpf_
        poly = IntPoly((1, n, 0, -3, 7))
        assert poly(z).raw == poly(mz)._mpc_


@st.composite
def printable(draw):
    if draw(st.integers(0, 20)) == 0:
        return draw(st.sampled_from([ZERO, INF]))
    man = draw(st.integers(1, (1 << draw(st.integers(1, 400))) - 1)) | 1
    exp = draw(st.integers(-300, 300) | st.integers(-12000, 12000)
               | st.integers(-(2**40), 2**40))
    return (draw(st.integers(0, 1)), man, exp, man.bit_length())


@settings(max_examples=500, deadline=None, database=None)
@given(printable(), st.sampled_from([32, 32, 8, 1, 3, 15, 50]))
@example((0, 1, -3, 1), 32)
@example((0, 9999999999999999999999999999999999, 0, 113), 32)  # rounds up to 1e+34
@example((0, 1, 3501, 1), 32)
def test_nstr_matches_mpmath(s, digits):
    want = mp.nstr(mp.make_mpf(s), digits)
    assert Real(s, 256).nstr(digits) == want
    assert bf.to_str(s, digits) == want


def _unit(rng, prec):
    """A random point of the unit circle at the given precision, as mpmath
    and as bigfloat."""
    with mp.workprec(prec):
        z = mp.expjpi(mp.mpf(rng.random()) * 2 - 1)
        z = mp.conj(z) / abs(z)
    return z, Complex(z._mpc_, prec)


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
                wide = mp.make_mpf(x.raw) ** mp.make_mpf(y.raw)
            assert (x**y).raw == libmp.mpf_pos(wide._mpf_, prec, "n"), (c, k, prec)


def test_fractional_power_misround_is_rare():
    # mpmath's exp(y log x) misrounds c^(1/k) for few c <= 60, k <= 152;
    # the stdlib power agrees with it everywhere else
    differ = 0
    for c in range(2, 61):
        for k in range(3, 153, 3):
            with mp.workprec(256):
                theirs = mp.mpf(c) ** (mp.mpf(1) / k)
            differ += (Real.of(c, 256) ** (Real.of(1, 256) / k)).raw != theirs._mpf_
    assert differ <= 2


def test_specials():
    inf = Real(INF, 256)
    assert inf.nstr(32) == "+inf" and Real(ZERO, 256).nstr(32) == "0.0"
    assert inf > 10**400 and Real.of(1, 4) < inf and not inf < inf and inf == inf
    assert float(inf) == float("inf") and bool(inf)
    with pytest.raises(ValueError):
        inf + 1
    with pytest.raises(ZeroDivisionError):
        Real.of(1, 53) / 0
    with pytest.raises(ValueError):
        Real.of(-1, 53).sqrt()
