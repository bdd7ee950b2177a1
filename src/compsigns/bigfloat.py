"""Binary floating point on Python ints: the certifier's working numbers.

A raw real is a pair ``(man, exp)`` of ints worth man * 2^exp, stored
canonical: man odd, or ``ZERO``.  ``INF`` only compares, hashes and
prints.  ``Real`` holds a raw real and ``Complex`` a pair of them, each
with a precision; every operation rounds to nearest, ties to even, at
the precision of its ``Real`` or ``Complex`` operand (the left one).

One function rounds: ``_round(man, exp, prec, rnd)`` takes any int man
to prec bits, to nearest ("n"), toward zero ("d") or away from zero
("u").  ``add``, ``mul``, ``div`` and ``sqrt`` form the exact result (a
quotient or root a few bits past prec, with a sticky bit for the
remainder) and round it once, so each is correctly rounded; and as a
correctly rounded result is unique, each returns the bits of the
multiprecision library (mpmath 1.3) that the tests hold this module to.
``add`` keeps that library's shortcut: a term more than prec + 4 bits
below the other, their exponents over 100 apart, becomes a sticky unit.

Where that library does not round once, its recipe is kept step for
step: ``hypot`` (x^2 + y^2 at prec + 4 bits toward zero), ``cdiv``
(prec + 10 bits toward zero), ``pow_int`` (truncated powering past 1,000
bits) and the digits of ``to_str``.  Two recipes are this module's own:
x**y for 0 < y < 1 (``pow_frac``), where the library's exp(y log x)
misrounds about once in 9,300 cases, is computed to over prec + 64 bits
and rounded once; and z**n past a 10,000-bit exact Gaussian-integer
power, where the library switches to exp(n log z), cuts every product of
the same powering to a few bits past prec (``cpow_int``).
"""

import math
import operator
import sys

ZERO = (0, 0)
ONE = (1, 0)
TEN = (5, 1)
INF = (0, None)

NEAREST, DOWN, UP = "n", "d", "u"
_RECIPROCAL = {NEAREST: NEAREST, DOWN: UP, UP: DOWN}

# floor(ln 2 * 2^160) and floor(ln 10 * 2^160), for printing exponents
# beyond 3500 bits
_LN2 = 0xB17217F7D1CF79ABC9E3B39803F2F6AF40F34326
_LN10 = 0x24D763776AAA2B05BA95B58AE0B4C28A38A3FB3E7

_HASH = sys.hash_info.modulus


def _no_inf(*values):
    if INF in values:
        raise ValueError("no arithmetic on infinity")


# -- raw reals ----------------------------------------------------------------


def _round(man, exp, prec, rnd=NEAREST):
    """man * 2^exp for any int man, rounded to prec bits and canonical."""
    m = -man if man < 0 else man
    n = m.bit_length() - prec
    if n > 0:
        if rnd == NEAREST:  # half up, less one, plus the kept lowest bit
            m = (m + (1 << (n - 1)) - 1 + (m >> n & 1)) >> n
        elif rnd == DOWN:
            m >>= n
        else:
            m = -(-m >> n)
        exp += n
    elif not m:
        return ZERO if exp is not None else INF
    if not m & 1:
        n = (m & -m).bit_length() - 1
        m >>= n
        exp += n
    return (-m if man < 0 else m), exp


def from_float(x):
    if x == math.inf:
        return INF
    m, e = math.frexp(x)  # a nan or -inf fails here, in int()
    return _round(int(m * (1 << 53)), e - 53, 53)


def to_float(s):
    """The nearest double; inf past the double range."""
    if s == INF:
        return math.inf
    man, exp = _round(*s, 53)
    try:
        return math.ldexp(man, exp)
    except OverflowError:
        return math.copysign(math.inf, man)


def to_int(s):
    """s rounded toward zero."""
    man, exp = s
    m = abs(man) << exp if exp >= 0 else abs(man) >> -exp
    return -m if man < 0 else m


def add(s, t, prec, rnd=NEAREST):
    """s + t, rounded once.  When one term lies more than prec + 4 bits
    below the other and their exponents more than 100 apart, it is
    replaced by a sticky unit just below the precision."""
    sman, sexp = s
    tman, texp = t
    if sman and tman:
        if sexp < texp:
            sman, sexp, tman, texp = tman, texp, sman, sexp
        offset = sexp - texp
        if offset > 100 and sman.bit_length() + offset - tman.bit_length() > prec + 4:
            return _round((sman << prec + 4) + (1 if tman > 0 else -1), sexp - prec - 4,
                          prec, rnd)
        return _round((sman << offset) + tman, texp, prec, rnd)
    _no_inf(s, t)
    return _round(sman, sexp, prec, rnd) if sman else _round(tman, texp, prec, rnd)


def mul(s, t, prec, rnd=NEAREST):
    """s * t: the exact product, rounded once."""
    man = s[0] * t[0]
    if man:
        return _round(man, s[1] + t[1], prec, rnd)
    _no_inf(s, t)
    return ZERO


def div(s, t, prec, rnd=NEAREST):
    """s / t: a quotient with at least 5 bits past prec and a sticky bit
    for a non-zero remainder, rounded once."""
    sman, sexp = s
    tman, texp = t
    if not sman or not tman:
        _no_inf(s, t)
        if not tman:
            raise ZeroDivisionError
        return ZERO
    extra = max(prec - sman.bit_length() + tman.bit_length() + 5, 5)
    quot, rem = divmod(abs(sman) << extra, abs(tman))
    quot = quot << 1 | (rem != 0)
    return _round(-quot if (sman < 0) != (tman < 0) else quot,
                  sexp - texp - extra - 1, prec, rnd)


def sqrt(s, prec, rnd=NEAREST):
    """Square root by the integer root of a widened mantissa, with a
    sticky bit for a non-zero remainder, rounded once."""
    man, exp = s
    if man < 0:
        raise ValueError("square root of a negative number")
    if not man:
        _no_inf(s)
        return ZERO
    if exp & 1:
        exp -= 1
        man <<= 1
    shift = max(4, 2 * prec - man.bit_length() + 4)
    shift += shift & 1
    man <<= shift
    root = math.isqrt(man)
    if man != root * root:
        root = (root << 1) + 1
        shift += 2
    return _round(root, (exp - shift) // 2, prec, rnd)


def hypot(x, y, prec, rnd=NEAREST):
    """sqrt(x^2 + y^2), the sum taken at prec + 4 bits toward zero."""
    (xm, xe), (ym, ye) = x, y
    if not xm or not ym:
        _no_inf(x, y)
        return _round(abs(xm or ym), xe if xm else ye, prec, rnd)
    return sqrt(add((xm * xm, xe + xe), (ym * ym, ye + ye), prec + 4, DOWN), prec, rnd)


def pow_int(s, n, prec, rnd=NEAREST):
    """s**n: exact below 1000 bits, otherwise binary powering truncated
    to prec + 4 * bits(n) + 4 bits in the rounding's direction."""
    man, exp = s
    if not man:
        _no_inf(s)
    if n == 1:
        return _round(man, exp, prec, rnd)
    if n == 2:
        return _round(man * man, exp + exp, prec, rnd)
    if n == -1:
        return div(ONE, s, prec, rnd)
    if n < 0:
        return div(ONE, pow_int(s, -n, prec + 5, _RECIPROCAL[rnd]), prec, rnd)
    if man.bit_length() * n < 1000:
        return _round(man**n, exp * n, prec, rnd)
    pm, _, pe = _gauss_pow(abs(man), 0, exp, n, prec + 4 * n.bit_length() + 4, rnd == UP)
    return _round(-pm if man < 0 and n & 1 else pm, pe, prec, rnd)


def pow_frac(x, y, prec, rnd=NEAREST):
    """x**y for x >= 0 and 0 < y < 1.

    y = Y * 2^-k for an integer Y, so x**y is the product of x^(2^-j) over
    the j in 1..k whose bit is set in y, each root the square root of the
    one before.  Every root and product is cut to wp = prec + 72 + bits(k) bits;
    a truncated root inherits half its input's error, so the product is
    within k * 2^(3-wp) < 2^-(prec+69) relative below x**y, and one
    rounding (with a sticky bit for the truncated tail) ends it."""
    man, exp = x
    yman, yexp = y
    if man < 0 or yman <= 0 or yexp >= 0 or yman >> -yexp:
        raise ValueError("pow_frac needs x >= 0 and 0 < y < 1")
    if not man:
        _no_inf(x)
        return ZERO
    steps = -yexp
    wp = prec + 72 + steps.bit_length()
    wp += wp & 1
    shift = wp - man.bit_length()
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
    return _round(acc << 1 | 1, acc_e - 1, prec, rnd)


def cmp(s, t):
    """-1, 0 or 1 as s <, = or > t: the sign of s - t, which rounding
    keeps."""
    if INF in (s, t):
        return (s == INF) - (t == INF)
    man = add(s, (-t[0], t[1]), 2)[0]
    return (man > 0) - (man < 0)


# -- raw complex numbers --------------------------------------------------------


def cmul(z, w, prec, rnd=NEAREST):
    """Four exact products, then a rounded difference and sum."""
    (am, ae), (bm, be) = z
    (cm, ce), (dm, de) = w
    return (add((am * cm, ae + ce), (-bm * dm, be + de), prec, rnd),
            add((am * dm, ae + de), (bm * cm, be + ce), prec, rnd))


def cdiv(z, w, prec, rnd=NEAREST):
    """The numerators and |w|^2 at prec + 10 bits toward zero, then two
    rounded quotients."""
    (am, ae), (bm, be) = z
    (cm, ce), (dm, de) = w
    wp = prec + 10
    mag = add((cm * cm, ce + ce), (dm * dm, de + de), wp, DOWN)
    t = add((am * cm, ae + ce), (bm * dm, be + de), wp, DOWN)
    u = add((bm * cm, be + ce), (-am * dm, ae + de), wp, DOWN)
    return div(t, mag, prec, rnd), div(u, mag, prec, rnd)


def _gauss_pow(a, b, e, n, cut=None, up=False):
    """((a + bi) * 2^e)^n for n >= 1 by squaring, as (re, im, exp) worth
    (re + im i) * 2^exp; exact, or with every product cut to ``cut`` bits,
    floored (ceiled when ``up``)."""
    def trim(x, y, e):
        drop = max(x.bit_length(), y.bit_length()) - cut
        if drop <= 0:
            return x, y, e
        if up:
            return -(-x >> drop), -(-y >> drop), e + drop
        return x >> drop, y >> drop, e + drop

    re, im, exp = 1, 0, 0
    while True:
        if n & 1:
            re, im, exp = re * a - im * b, im * a + re * b, exp + e
            if cut:
                re, im, exp = trim(re, im, exp)
        n >>= 1
        if not n:
            return re, im, exp
        a, b, e = a * a - b * b, 2 * a * b, e + e
        if cut:
            a, b, e = trim(a, b, e)


def cpow_int(z, n, prec, rnd=NEAREST):
    """z**n for n >= 0: the Gaussian-integer power of the mantissas rounded
    once; exact up to a 10,000-bit power, past it with every
    product truncated to prec + 4 * bits(n) + 4 bits."""
    a, b = z
    if b == ZERO:
        return pow_int(a, n, prec, rnd), ZERO
    if a == ZERO:
        v = pow_int(b, n, prec, rnd)
        neg = (-v[0], v[1])
        return ((v, ZERO), (ZERO, v), (neg, ZERO), (ZERO, neg))[n % 4]
    if n == 1:
        return _round(*a, prec, rnd), _round(*b, prec, rnd)
    if n == 2:
        return cmul(z, z, prec, rnd)
    if n < 0:
        raise ValueError("negative powers are not supported")
    (am, ae), (bm, be) = z
    shift = ae - be
    exact = n * (abs(shift) + max(am.bit_length(), bm.bit_length())) < 10000
    if shift > 0:
        am <<= shift
    else:
        bm <<= -shift
    re, im, exp = _gauss_pow(am, bm, min(ae, be), n,
                             None if exact else prec + 4 * n.bit_length() + 4)
    return _round(re, exp, prec, rnd), _round(im, exp, prec, rnd)


# -- decimal strings ----------------------------------------------------------


def _ln_const(fixed, prec):
    """ln 2 or ln 10 to prec bits toward zero, from its 160-bit floor."""
    wp = prec + 20
    if wp > 160:
        raise ValueError("exponent too large to print")
    return _round(fixed >> (160 - wp), -wp, prec, DOWN)


def _to_digits_exp(s, dps):
    """(sign, digits, exponent) of s, the digits (about dps of them)
    taken toward zero."""
    man, exp = s
    sign = "-" if man < 0 else ""
    man = abs(man)
    bitprec = int(dps * math.log(10, 2)) + 10
    exponent = 0
    if abs(exp + man.bit_length()) > 3500:
        expprec = exp.bit_length() + 5
        ln2 = _ln_const(_LN2, expprec)
        tmp = (exp * ln2[0], ln2[1])
        exponent = to_int(div(tmp, _ln_const(_LN10, expprec), expprec, DOWN))
        man, exp = div((man, exp), pow_int(TEN, exponent, bitprec, DOWN), bitprec, DOWN)
    fixprec = max(bitprec - exp - man.bit_length(), 0)
    fixdps = int(fixprec / math.log(10, 2) + 0.5)
    offset = exp + fixprec
    fixed = man << offset if offset >= 0 else man >> -offset
    digits = str(fixed * 10**fixdps >> fixprec)
    return sign, digits, exponent + len(digits) - fixdps - 1


def to_str(s, dps):
    """s in dps significant digits: dps + 3 digits toward zero, rounded on the
    next one; fixed point when the leading digit sits at a power of ten
    strictly between min(-dps/3, -5) and dps, else scientific."""
    if not s[0]:
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
    if kind is int:  # canonical, as add's shortcut reads the exponent
        return (x, 0) if x & 1 else _round(x, 0, x.bit_length() or 1)
    if kind is float:
        return from_float(x)
    return None


def _real_op(f, negate=False):
    """The Real operator for f(raw, raw, prec), on -other when negate."""
    def op(self, other):
        t = _operand(other)
        if t is None:
            return NotImplemented
        if negate:
            t = -t[0], t[1]
        return Real(f(self.raw, t, self.prec), self.prec)
    return op


def _real_cmp(test):
    def cmp_op(self, other):
        t = _operand(other)
        return NotImplemented if t is None else test(cmp(self.raw, t), 0)
    return cmp_op


def _complex_operand(x):
    """The raw value of a Complex, Real, int or float operand, else None."""
    if type(x) is Complex:
        return x.raw
    t = _operand(x)
    return None if t is None else (t, ZERO)


def _complex_add(negate):
    """The Complex operator for + or (when negate) -, part by part; a
    real operand meets the real part alone."""
    def op(self, other):
        (a, b), prec = self.raw, self.prec
        if type(other) is Complex:
            (cm, ce), (dm, de) = other.raw
            if negate:
                cm, dm = -cm, -dm
            return Complex((add(a, (cm, ce), prec), add(b, (dm, de), prec)), prec)
        t = _operand(other)
        if t is None:
            return NotImplemented
        return Complex((add(a, (-t[0], t[1]) if negate else t, prec), b), prec)
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
        return cls(_round(*_operand(x), prec), prec)

    __add__ = __radd__ = _real_op(add)
    __sub__ = _real_op(add, negate=True)
    __mul__ = __rmul__ = _real_op(mul)
    __truediv__ = _real_op(div)
    __lt__ = _real_cmp(operator.lt)
    __le__ = _real_cmp(operator.le)
    __gt__ = _real_cmp(operator.gt)
    __ge__ = _real_cmp(operator.ge)

    def __pow__(self, other):
        """Integer powers and square roots by their own algorithms, other
        exponents (in (0, 1)) by pow_frac."""
        s, prec = self.raw, self.prec
        if type(other) is int:
            return Real(pow_int(s, other, prec), prec)
        if type(other) is not Real:
            return NotImplemented
        tman, texp = t = other.raw
        if texp >= 0:
            return Real(pow_int(s, tman << texp, prec), prec)
        if t == (1, -1):
            return Real(sqrt(s, prec), prec)
        # 1**t is exact; pow_frac would take a square root per bit of t
        return Real(ONE if s == ONE else pow_frac(s, t, prec), prec)

    def __abs__(self):
        man, exp = self.raw
        return Real(_round(abs(man), exp, self.prec), self.prec)

    def sqrt(self):
        return Real(sqrt(self.raw, self.prec), self.prec)

    def __eq__(self, other):
        t = _operand(other)
        return NotImplemented if t is None else self.raw == t

    def __hash__(self):
        # int, float and Fraction hash a value m * 2^e alike: m * 2^e
        # modulo a prime
        man, exp = self.raw
        if exp is None:
            return hash(math.inf)
        h = abs(man) % _HASH * pow(2, exp, _HASH) % _HASH
        h = -h if man < 0 else h
        return -2 if h == -1 else h

    def __bool__(self):
        return self.raw != ZERO

    def __float__(self):
        return to_float(self.raw)

    def nstr(self, digits):
        return to_str(self.raw, digits)

    def to_json(self):
        """The 32-digit string every JSON output prints a real as."""
        return self.nstr(32)

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
        parts = _complex_operand(z) or (from_float(z.real), from_float(z.imag))
        return cls(tuple(_round(*p, prec) for p in parts), prec)

    @property
    def real(self):
        return Real(self.raw[0], self.prec)

    @property
    def imag(self):
        return Real(self.raw[1], self.prec)

    __add__ = __radd__ = _complex_add(False)
    __sub__ = _complex_add(True)

    def __mul__(self, other):
        w = _complex_operand(other)
        if w is None:
            return NotImplemented
        return Complex(cmul(self.raw, w, self.prec), self.prec)

    __rmul__ = __mul__

    def __truediv__(self, other):
        prec = self.prec
        if type(other) is Complex:
            return Complex(cdiv(self.raw, other.raw, prec), prec)
        t = _operand(other)
        if t is None:
            return NotImplemented
        a, b = self.raw
        return Complex((div(a, t, prec), div(b, t, prec)), prec)

    def __pow__(self, n):
        if type(n) is not int:
            return NotImplemented
        return Complex(cpow_int(self.raw, n, self.prec), self.prec)

    def __abs__(self):
        return Real(hypot(*self.raw, self.prec), self.prec)

    def conjugate(self):
        a, (bm, be) = self.raw
        return Complex((a, _round(-bm, be, self.prec)), self.prec)

    def __eq__(self, other):
        w = _complex_operand(other)
        return NotImplemented if w is None else self.raw == w

    def __hash__(self):
        # equal to no int, float or Real unless the imaginary part is 0
        a, b = self.raw
        return hash(self.real) if b == ZERO else hash(self.raw)

    def __bool__(self):
        return self.raw != (ZERO, ZERO)

    def __complex__(self):
        a, b = self.raw
        return complex(to_float(a), to_float(b))

    def to_json(self):
        return {"re": self.real.to_json(), "im": self.imag.to_json()}

    def __repr__(self):
        a, b = self.raw
        return f"Complex('{to_str(a, 20)}', '{to_str(b, 20)}', {self.prec})"
