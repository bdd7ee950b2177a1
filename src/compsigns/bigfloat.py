"""Binary floating point on Python ints: the certifier's working numbers.

A raw real is a tuple ``(sign, man, exp, bc)`` worth (-1)^sign * man *
2^exp, bc being the bit length of man, and a raw complex is a pair of
them.  Zero is ``ZERO``; the one special value is ``INF``, which only
compares and prints.  ``Real`` holds a raw real and ``Complex`` a raw
complex, each with a precision in bits.  Every operation rounds its
result to nearest, ties to even, at the precision of its ``Real`` or
``Complex`` operand (the left one when both are).

The functions on raw values reproduce, bit for bit, the arithmetic of
the pure-Python backend of the multiprecision library that
tests/test_bigfloat.py runs as its oracle (version 1.3).  They port that
library's own algorithms, keep its function names, tuple layout and
rounding letters ("n" nearest, "d" toward zero, "u" away from zero), and
the tests hold each one to its counterpart.  Two steps are not ports:

  - x**y for 0 < y < 1 (``mpf_pow_frac``).  The library takes it as
    exp(y log x) and misrounds about once in 9,300 cases.  Here it is
    computed to more than prec + 64 bits, then rounded once.
  - z**n where the exact Gaussian-integer power would pass 10,000 bits.
    Below that size both compute it exactly and round once.  Above it the
    library switches to exp(n log z), while here the same powering cuts
    every product to a few bits past prec and rounds once
    (``mpc_pow_int``).
"""

from __future__ import annotations

import math
import operator

ZERO = (0, 0, 0, 0)
ONE = (0, 1, 0, 1)
TEN = (0, 5, 1, 3)
INF = (0, 0, -456, -2)

NEAREST, DOWN, UP = "n", "d", "u"
_RECIPROCAL = {NEAREST: NEAREST, DOWN: UP, UP: DOWN}

# floor(ln 2 * 2^160) and floor(ln 10 * 2^160), for printing exponents
# beyond 3500 bits
_LN2 = 0xB17217F7D1CF79ABC9E3B39803F2F6AF40F34326
_LN10 = 0x24D763776AAA2B05BA95B58AE0B4C28A38A3FB3E7


# -- raw reals ----------------------------------------------------------------


def normalize(sign, man, exp, bc, prec, rnd):
    """(-1)^sign * man * 2^exp, man >= 0 of exactly bc bits, rounded to
    prec bits with its trailing zero bits stripped."""
    if not man:
        return ZERO
    n = bc - prec
    if n > 0:
        if rnd == NEAREST:
            t = man >> (n - 1)
            if t & 1 and (t & 2 or man & ((1 << (n - 1)) - 1)):
                man = (t >> 1) + 1
            else:
                man = t >> 1
        elif rnd == DOWN:
            man >>= n
        else:
            man = -(-man >> n)
        exp += n
        bc = prec
    if not man & 1:
        t = (man & -man).bit_length() - 1
        man >>= t
        exp += t
        bc -= t
    if man == 1:
        bc = 1
    return sign, man, exp, bc


def normalize1(sign, man, exp, bc, prec, rnd):
    """normalize for an odd man, which needs no work within prec bits."""
    if bc <= prec:
        return (sign, man, exp, bc) if man else ZERO
    return normalize(sign, man, exp, bc, prec, rnd)


def _finite(*values):
    for sign, man, exp, bc in values:
        if not man and exp:
            raise ValueError("no arithmetic on infinity")


def from_man_exp(man, exp, prec=0, rnd=DOWN):
    """man * 2^exp for a signed int man, exact when prec is 0."""
    sign = 0
    if man < 0:
        sign, man = 1, -man
    bc = man.bit_length()
    return normalize(sign, man, exp, bc, prec or bc, rnd)


def from_int(n):
    return from_man_exp(n, 0)


def from_float(x):
    if x == math.inf:
        return INF
    m, e = math.frexp(x)  # a nan or -inf fails here, in int()
    return from_man_exp(int(m * (1 << 53)), e - 53)


def to_float(s, rnd=NEAREST):
    """The nearest double (for rnd "n"); inf past the double range."""
    sign, man, exp, bc = s
    if not man:
        return math.inf if s == INF else 0.0
    if bc > 53:
        sign, man, exp, bc = normalize1(sign, man, exp, bc, 53, rnd)
    if sign:
        man = -man
    try:
        return math.ldexp(man, exp)
    except OverflowError:
        return math.copysign(math.inf, man)


def to_int(s):
    """s rounded toward zero."""
    sign, man, exp, bc = s
    man = man << exp if exp >= 0 else man >> -exp
    return -man if sign else man


def mpf_pos(s, prec, rnd=DOWN):
    sign, man, exp, bc = s
    if not man and exp:
        return s
    return normalize1(sign, man, exp, bc, prec, rnd)


def mpf_neg(s, prec=0, rnd=DOWN):
    sign, man, exp, bc = s
    _finite(s)
    if not man:
        return s
    if not prec:
        return 1 - sign, man, exp, bc
    return normalize1(1 - sign, man, exp, bc, prec, rnd)


def mpf_abs(s, prec, rnd=DOWN):
    sign, man, exp, bc = s
    if not man and exp:
        return s
    return normalize1(0, man, exp, bc, prec, rnd)


def mpf_add(s, t, prec=0, rnd=DOWN, _sub=0):
    """s + t, exact when prec is 0.  When one term lies more than prec + 4
    bits below the other (and their exponents more than 100 apart), it is
    replaced by a sticky unit just below the precision."""
    ssign, sman, sexp, sbc = s
    tsign, tman, texp, tbc = t
    tsign ^= _sub
    if sman and tman:
        offset = sexp - texp
        if offset:
            if offset > 0:
                if offset > 100 and prec:
                    delta = sbc + sexp - tbc - texp
                    if delta > prec + 4:
                        offset = prec + 4
                        sman <<= offset
                        sman += 1 if tsign == ssign else -1
                        return normalize1(ssign, sman, sexp - offset,
                                          sman.bit_length(), prec, rnd)
                if ssign == tsign:
                    man = tman + (sman << offset)
                else:
                    man = tman - (sman << offset) if ssign else (sman << offset) - tman
                    ssign = 0
                    if man < 0:
                        man, ssign = -man, 1
                bc = man.bit_length()
                return normalize1(ssign, man, texp, bc, prec or bc, rnd)
            if offset < -100 and prec:
                delta = tbc + texp - sbc - sexp
                if delta > prec + 4:
                    offset = prec + 4
                    tman <<= offset
                    tman += 1 if ssign == tsign else -1
                    return normalize1(tsign, tman, texp - offset,
                                      tman.bit_length(), prec, rnd)
            if ssign == tsign:
                man = sman + (tman << -offset)
            else:
                man = sman - (tman << -offset) if tsign else (tman << -offset) - sman
                ssign = 0
                if man < 0:
                    man, ssign = -man, 1
            bc = man.bit_length()
            return normalize1(ssign, man, sexp, bc, prec or bc, rnd)
        if ssign == tsign:
            man = tman + sman
        else:
            man = tman - sman if ssign else sman - tman
            ssign = 0
            if man < 0:
                man, ssign = -man, 1
        bc = man.bit_length()
        return normalize(ssign, man, texp, bc, prec or bc, rnd)
    _finite(s, t)
    if tman:
        return normalize1(tsign, tman, texp, tbc, prec or tbc, rnd)
    if sman:
        return normalize1(ssign, sman, sexp, sbc, prec or sbc, rnd)
    return ZERO


def mpf_sub(s, t, prec=0, rnd=DOWN):
    return mpf_add(s, t, prec, rnd, 1)


def mpf_mul(s, t, prec=0, rnd=DOWN):
    """s * t: the exact product, rounded when prec is given."""
    ssign, sman, sexp, sbc = s
    tsign, tman, texp, tbc = t
    man = sman * tman
    if man:
        bc = sbc + tbc - 1
        bc += man >> bc
        if prec:
            return normalize1(ssign ^ tsign, man, sexp + texp, bc, prec, rnd)
        return ssign ^ tsign, man, sexp + texp, bc
    _finite(s, t)
    return ZERO


def mpf_mul_int(s, n, prec, rnd=DOWN):
    sign, man, exp, bc = s
    _finite(s)
    if not man or not n:
        return ZERO
    if n < 0:
        sign ^= 1
        n = -n
    man *= n
    bc += n.bit_length() - 1
    bc += man >> bc
    return normalize(sign, man, exp, bc, prec, rnd)


def mpf_div(s, t, prec, rnd=DOWN):
    """s / t: a quotient with at least 5 bits past prec and a sticky bit
    for a non-zero remainder, rounded once."""
    ssign, sman, sexp, sbc = s
    tsign, tman, texp, tbc = t
    _finite(s, t)
    if not tman:
        raise ZeroDivisionError
    if not sman:
        return ZERO
    sign = ssign ^ tsign
    if tman == 1:
        return normalize1(sign, sman, sexp - texp, sbc, prec, rnd)
    extra = max(prec - sbc + tbc + 5, 5)
    quot, rem = divmod(sman << extra, tman)
    if rem:
        quot = (quot << 1) + 1
        extra += 1
        return normalize1(sign, quot, sexp - texp - extra, quot.bit_length(), prec, rnd)
    return normalize(sign, quot, sexp - texp - extra, quot.bit_length(), prec, rnd)


def mpf_sqrt(s, prec, rnd=DOWN):
    """Square root by the integer root of a widened mantissa, with a
    sticky bit for a non-zero remainder (except toward zero)."""
    sign, man, exp, bc = s
    if sign:
        raise ValueError("square root of a negative number")
    if not man:
        return s
    if exp & 1:
        exp -= 1
        man <<= 1
        bc += 1
    elif man == 1:
        return normalize1(sign, man, exp // 2, bc, prec, rnd)
    shift = max(4, 2 * prec - bc + 4)
    shift += shift & 1
    man <<= shift
    root = math.isqrt(man)
    if rnd != DOWN and man != root * root:
        root = (root << 1) + 1
        shift += 2
    return from_man_exp(root, (exp - shift) // 2, prec, rnd)


def mpf_hypot(x, y, prec, rnd=DOWN):
    """sqrt(x^2 + y^2), the sum taken at prec + 4 bits toward zero."""
    if y == ZERO:
        return mpf_abs(x, prec, rnd)
    if x == ZERO:
        return mpf_abs(y, prec, rnd)
    return mpf_sqrt(mpf_add(mpf_mul(x, x), mpf_mul(y, y), prec + 4), prec, rnd)


def mpf_pow_int(s, n, prec, rnd=DOWN):
    """s**n: exact below 1000 bits, otherwise binary powering truncated
    to prec + 4 * bits(n) + 4 bits in the rounding's direction."""
    sign, man, exp, bc = s
    _finite(s)
    if n == 0:
        return ONE
    if n == 1:
        return mpf_pos(s, prec, rnd)
    if n == 2:
        if not man:
            return ZERO
        man *= man
        if man == 1:
            return 0, 1, exp + exp, 1
        bc = bc + bc - 2
        bc += (man >> bc).bit_length()
        return normalize1(0, man, exp + exp, bc, prec, rnd)
    if n == -1:
        return mpf_div(ONE, s, prec, rnd)
    if n < 0:
        inverse = mpf_pow_int(s, -n, prec + 5, _RECIPROCAL[rnd])
        return mpf_div(ONE, inverse, prec, rnd)
    result_sign = sign & n
    if man == 1:
        return result_sign, 1, exp * n, 1
    if bc * n < 1000:
        man **= n
        return normalize1(result_sign, man, exp * n, man.bit_length(), prec, rnd)
    rounds_down = rnd != UP
    workprec = prec + 4 * n.bit_length() + 4
    pm, pe, pbc = 1, 0, 1
    while True:
        if n & 1:
            pm *= man
            pe += exp
            pbc += bc - 2
            pbc += (pm >> pbc).bit_length()
            if pbc > workprec:
                pm = pm >> (pbc - workprec) if rounds_down else -(-pm >> (pbc - workprec))
                pe += pbc - workprec
                pbc = workprec
            n -= 1
            if not n:
                break
        man *= man
        exp += exp
        bc = bc + bc - 2
        bc += (man >> bc).bit_length()
        if bc > workprec:
            man = man >> (bc - workprec) if rounds_down else -(-man >> (bc - workprec))
            exp += bc - workprec
            bc = workprec
        n //= 2
    return normalize(result_sign, pm, pe, pbc, prec, rnd)


def mpf_pow_frac(x, y, prec, rnd=DOWN):
    """x**y for x >= 0 and 0 < y < 1.

    y = Y * 2^-k for an integer Y, so x**y is the product of x^(2^-j) over
    the j in 1..k whose bit is set in y, each root the square root of the
    one before.  Every root and product is cut to wp = prec + 72 + bits(k) bits;
    a truncated root inherits half its input's error, so the product is
    within k * 2^(3-wp) < 2^-(prec+69) relative below x**y, and one
    rounding (with a sticky bit for the truncated tail) ends it."""
    sign, man, exp, bc = x
    ysign, yman, yexp, ybc = y
    if sign or ysign or yexp >= 0 or yman >> -yexp:
        raise ValueError("mpf_pow_frac needs x >= 0 and 0 < y < 1")
    _finite(x)
    if not man:
        return ZERO
    steps = -yexp
    wp = prec + 72 + steps.bit_length()
    wp += wp & 1
    shift = wp - bc
    m, e = (man << shift if shift >= 0 else man >> -shift), exp - shift
    acc = None
    for j in range(steps - 1, -1, -1):
        if e & 1:
            m <<= 1
            e -= 1
        m = math.isqrt(m << wp)
        e = (e - wp) // 2
        if yman >> j & 1:
            if acc is None:
                acc, acc_e = m, e
            else:
                acc *= m
                cut = acc.bit_length() - wp
                acc >>= cut
                acc_e += e + cut
    acc = acc << 1 | 1
    return normalize(0, acc, acc_e - 1, acc.bit_length(), prec, rnd)


def mpf_pow(s, t, prec, rnd=DOWN):
    """s**t: integer powers and square roots by their own algorithms,
    other exponents (in (0, 1)) by mpf_pow_frac."""
    tsign, tman, texp, tbc = t
    if texp >= 0:
        return mpf_pow_int(s, -(tman << texp) if tsign else tman << texp, prec, rnd)
    if texp == -1 and tman == 1 and not tsign:
        return mpf_sqrt(s, prec, rnd)
    if s == ONE:  # exp(t log 1) is exact
        return ONE
    return mpf_pow_frac(s, t, prec, rnd)


def mpf_cmp(s, t):
    """-1, 0 or 1 as s <, = or > t."""
    ssign, sman, sexp, sbc = s
    tsign, tman, texp, tbc = t
    if not sman or not tman:
        if s == t:
            return 0
        if s == ZERO:
            return 1 if tsign else -1
        if t == ZERO:
            return -1 if ssign else 1
        return 1 if s == INF else -1
    if ssign != tsign:
        return -1 if ssign else 1
    if sexp == texp:
        if sman == tman:
            return 0
        return -1 if (sman > tman) == bool(ssign) else 1
    a = sbc + sexp
    b = tbc + texp
    if a != b:
        return -1 if (a < b) != bool(ssign) else 1
    return -1 if mpf_sub(s, t, 5)[0] else 1


# -- raw complex numbers --------------------------------------------------------


def mpc_mul(z, w, prec, rnd=DOWN):
    """Four exact products, then a rounded difference and sum."""
    a, b = z
    c, d = w
    return (mpf_sub(mpf_mul(a, c), mpf_mul(b, d), prec, rnd),
            mpf_add(mpf_mul(a, d), mpf_mul(b, c), prec, rnd))


def mpc_square(z, prec, rnd=DOWN):
    a, b = z
    re = mpf_sub(mpf_mul(a, a), mpf_mul(b, b), prec, rnd)
    sign, man, exp, bc = mpf_mul(a, b, prec, rnd)
    return re, ((sign, man, exp + 1, bc) if man else ZERO)


def mpc_div(z, w, prec, rnd=DOWN):
    """The numerators and |w|^2 at prec + 10 bits toward zero, then two
    rounded quotients."""
    a, b = z
    c, d = w
    wp = prec + 10
    mag = mpf_add(mpf_mul(c, c), mpf_mul(d, d), wp)
    t = mpf_add(mpf_mul(a, c), mpf_mul(b, d), wp)
    u = mpf_sub(mpf_mul(b, c), mpf_mul(a, d), wp)
    return mpf_div(t, mag, prec, rnd), mpf_div(u, mag, prec, rnd)


def _gauss_pow(a, b, e, n, cut):
    """((a + bi) * 2^e)^n for n >= 1 by squaring, as (re, im, exp) worth
    (re + im i) * 2^exp; exact, or with every product floored to ``cut``
    bits when cut is given."""
    re, im, exp = 1, 0, 0
    while True:
        if n & 1:
            re, im = re * a - im * b, im * a + re * b
            exp += e
            if cut:
                drop = max(abs(re).bit_length(), abs(im).bit_length()) - cut
                if drop > 0:
                    re, im, exp = re >> drop, im >> drop, exp + drop
        n >>= 1
        if not n:
            return re, im, exp
        a, b = a * a - b * b, 2 * a * b
        e += e
        if cut:
            drop = max(abs(a).bit_length(), abs(b).bit_length()) - cut
            if drop > 0:
                a, b, e = a >> drop, b >> drop, e + drop


def mpc_pow_int(z, n, prec, rnd=DOWN):
    """z**n for n >= 0: the Gaussian-integer power of the mantissas rounded
    once; exact up to a 10,000-bit power, past it with every
    product truncated to prec + 4 * bits(n) + 4 bits."""
    a, b = z
    if b == ZERO:
        return mpf_pow_int(a, n, prec, rnd), ZERO
    if a == ZERO:
        v = mpf_pow_int(b, n, prec, rnd)
        return ((v, ZERO), (ZERO, v), (mpf_neg(v), ZERO), (ZERO, mpf_neg(v)))[n % 4]
    if n == 0:
        return ONE, ZERO
    if n == 1:
        return mpf_pos(a, prec, rnd), mpf_pos(b, prec, rnd)
    if n == 2:
        return mpc_square(z, prec, rnd)
    if n < 0:
        raise ValueError("negative powers are not supported")
    asign, aman, aexp, abc = a
    bsign, bman, bexp, bbc = b
    if asign:
        aman = -aman
    if bsign:
        bman = -bman
    de = aexp - bexp
    exact = n * (abs(de) + max(abc, bbc)) < 10000
    if de > 0:
        aman <<= de
    else:
        bman <<= -de
    re, im, exp = _gauss_pow(aman, bman, min(aexp, bexp), n,
                             None if exact else prec + 4 * n.bit_length() + 4)
    return from_man_exp(re, exp, prec, rnd), from_man_exp(im, exp, prec, rnd)


# -- decimal strings ----------------------------------------------------------


def _ln_const(fixed, prec):
    """ln 2 or ln 10 to prec bits toward zero, from its 160-bit floor."""
    wp = prec + 20
    if wp > 160:
        raise ValueError("exponent too large to print")
    v = fixed >> (160 - wp)
    return normalize(0, v, -wp, v.bit_length(), prec, DOWN)


def _to_digits_exp(s, dps):
    """(sign, digits, exponent) of s, the digits (about dps of them)
    taken toward zero."""
    sign = ""
    if s[0]:
        sign = "-"
        s = mpf_neg(s)
    bitprec = int(dps * math.log(10, 2)) + 10
    exponent = 0
    _, man, exp, bc = s
    if abs(exp + bc) > 3500:
        expprec = abs(exp).bit_length() + 5
        tmp = mpf_mul(from_int(exp), _ln_const(_LN2, expprec))
        exponent = to_int(mpf_div(tmp, _ln_const(_LN10, expprec), expprec))
        s = mpf_div(s, mpf_pow_int(TEN, exponent, bitprec), bitprec)
        _, man, exp, bc = s
    fixprec = max(bitprec - exp - bc, 0)
    fixdps = int(fixprec / math.log(10, 2) + 0.5)
    offset = exp + fixprec
    fixed = man << offset if offset >= 0 else man >> -offset
    digits = str(fixed * 10**fixdps >> fixprec)
    return sign, digits, exponent + len(digits) - fixdps - 1


def to_str(s, dps):
    """s in dps significant digits: dps + 3 digits toward zero, rounded on the
    next one; fixed point when the leading digit sits at a power of ten
    strictly between min(-dps/3, -5) and dps, else scientific."""
    if not s[1]:
        return "+inf" if s == INF else "0.0"
    sign, digits, exponent = _to_digits_exp(s, dps + 3)
    if len(digits) > dps and digits[dps] in "56789":
        digits = digits[:dps].rstrip("9")
        if digits:
            digits = (digits[:-1] + str(int(digits[-1]) + 1)).ljust(dps, "0")
        else:
            digits = "1".ljust(dps, "0")
            exponent += 1
    else:
        digits = digits[:dps]
    split = 1
    if min(-(dps // 3), -5) < exponent < dps:
        if exponent < 0:
            digits = "0" * -exponent + digits
        else:
            split = exponent + 1
        exponent = 0
    digits = (digits[:split] + "." + digits[split:]).rstrip("0")
    if digits[-1] == ".":
        digits += "0"
    if exponent == 0:
        return sign + digits
    return f"{sign}{digits}e{exponent:+d}"


# -- numbers ------------------------------------------------------------------


def _operand(x):
    """The raw value of a Real, int or float operand, else None."""
    kind = type(x)
    if kind is Real:
        return x.raw
    if kind is int:
        return from_int(x)
    if kind is float:
        return from_float(x)
    return None


def _real_op(f):
    """The Real operator for f(raw, raw, prec, rnd)."""
    def op(self, other):
        t = _operand(other)
        if t is None:
            return NotImplemented
        return Real(f(self.raw, t, self.prec, NEAREST), self.prec)
    return op


def _real_cmp(test):
    def cmp(self, other):
        t = _operand(other)
        return NotImplemented if t is None else test(mpf_cmp(self.raw, t), 0)
    return cmp


def _complex_add(f):
    """The Complex operator for f = mpf_add or mpf_sub, part by part; a
    real operand meets the real part alone."""
    def op(self, other):
        prec = self.prec
        a, b = self.raw
        if type(other) is Complex:
            c, d = other.raw
            return Complex((f(a, c, prec, NEAREST), f(b, d, prec, NEAREST)), prec)
        t = _operand(other)
        if t is None:
            return NotImplemented
        return Complex((f(a, t, prec, NEAREST), b), prec)
    return op


class Real:
    """A raw real and the precision its operations round to."""

    __slots__ = ("raw", "prec")

    def __init__(self, raw, prec):
        self.raw = raw
        self.prec = prec

    @classmethod
    def of(cls, x, prec):
        """An int or a float rounded to prec bits."""
        return cls(mpf_pos(_operand(x), prec, NEAREST), prec)

    __add__ = __radd__ = _real_op(mpf_add)
    __sub__ = _real_op(mpf_sub)
    __truediv__ = _real_op(mpf_div)
    __lt__ = _real_cmp(operator.lt)
    __le__ = _real_cmp(operator.le)
    __gt__ = _real_cmp(operator.gt)
    __ge__ = _real_cmp(operator.ge)

    def __mul__(self, other):
        if type(other) is int:
            return Real(mpf_mul_int(self.raw, other, self.prec, NEAREST), self.prec)
        t = _operand(other)
        if t is None:
            return NotImplemented
        return Real(mpf_mul(self.raw, t, self.prec, NEAREST), self.prec)

    __rmul__ = __mul__

    def __pow__(self, other):
        if type(other) is int:
            return Real(mpf_pow_int(self.raw, other, self.prec, NEAREST), self.prec)
        if type(other) is Real:
            return Real(mpf_pow(self.raw, other.raw, self.prec, NEAREST), self.prec)
        return NotImplemented

    def __abs__(self):
        return Real(mpf_abs(self.raw, self.prec, NEAREST), self.prec)

    def sqrt(self):
        return Real(mpf_sqrt(self.raw, self.prec, NEAREST), self.prec)

    def __eq__(self, other):
        t = _operand(other)
        return NotImplemented if t is None else self.raw == t

    def __hash__(self):
        return hash(self.raw)

    def __bool__(self):
        return self.raw != ZERO

    def __float__(self):
        return to_float(self.raw)

    def nstr(self, digits):
        return to_str(self.raw, digits)

    def __repr__(self):
        return f"Real('{to_str(self.raw, 20)}', {self.prec})"


class Complex:
    """A pair of raw reals and the precision its operations round to."""

    __slots__ = ("raw", "prec")

    def __init__(self, raw, prec):
        self.raw = raw
        self.prec = prec

    @classmethod
    def of(cls, z, prec):
        """A Python complex, int, float or Real rounded part by part to
        prec bits."""
        if type(z) is Real:
            parts = z.raw, ZERO
        else:
            z = complex(z)
            parts = from_float(z.real), from_float(z.imag)
        return cls((mpf_pos(parts[0], prec, NEAREST), mpf_pos(parts[1], prec, NEAREST)), prec)

    @property
    def real(self):
        return Real(self.raw[0], self.prec)

    @property
    def imag(self):
        return Real(self.raw[1], self.prec)

    __add__ = __radd__ = _complex_add(mpf_add)
    __sub__ = _complex_add(mpf_sub)

    def __mul__(self, other):
        prec = self.prec
        if type(other) is Complex:
            return Complex(mpc_mul(self.raw, other.raw, prec, NEAREST), prec)
        a, b = self.raw
        if type(other) is int:
            return Complex((mpf_mul_int(a, other, prec, NEAREST),
                            mpf_mul_int(b, other, prec, NEAREST)), prec)
        t = _operand(other)
        if t is None:
            return NotImplemented
        return Complex((mpf_mul(a, t, prec, NEAREST), mpf_mul(b, t, prec, NEAREST)), prec)

    __rmul__ = __mul__

    def __truediv__(self, other):
        prec = self.prec
        if type(other) is Complex:
            return Complex(mpc_div(self.raw, other.raw, prec, NEAREST), prec)
        t = _operand(other)
        if t is None:
            return NotImplemented
        a, b = self.raw
        return Complex((mpf_div(a, t, prec, NEAREST), mpf_div(b, t, prec, NEAREST)), prec)

    def __pow__(self, n):
        if type(n) is not int:
            return NotImplemented
        return Complex(mpc_pow_int(self.raw, n, self.prec, NEAREST), self.prec)

    def __abs__(self):
        a, b = self.raw
        return Real(mpf_hypot(a, b, self.prec, NEAREST), self.prec)

    def conjugate(self):
        a, b = self.raw
        return Complex((a, mpf_neg(b, self.prec, NEAREST)), self.prec)

    def __eq__(self, other):
        if type(other) is Complex:
            return self.raw == other.raw
        t = _operand(other)
        return NotImplemented if t is None else self.raw == (t, ZERO)

    def __hash__(self):
        return hash(self.raw)

    def __bool__(self):
        return self.raw != (ZERO, ZERO)

    def __complex__(self):
        a, b = self.raw
        return complex(to_float(a), to_float(b))

    def __repr__(self):
        a, b = self.raw
        return f"Complex('{to_str(a, 20)}', '{to_str(b, 20)}', {self.prec})"
