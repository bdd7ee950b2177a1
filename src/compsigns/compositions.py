"""Composition polynomials and everything built directly on them.

A part-set A yields, for each n, the polynomial f_n whose coefficient of
t^i counts the compositions of n into exactly i parts from A (ordered
tuples).  This module builds those polynomial tables, the plain counts
c_A(n), partition counts, the q-series f(x)/(x f'(x)) as integers scaled
by powers of min(A) (q_series keeps its exact rational form as a test
reference), and an exact verifier for the identities tying them together.

Identity checks run in one of two modes.  The default "eval" mode
proves reflection, parity and delta_self from their values at the single
pair t = +-2^b, with b sized so that t^2 exceeds twice every coefficient
the differences can have: an integer polynomial whose coefficients are
that small vanishes at +-t only if it is zero (see check_eval).  That
takes a few calls of the integer kernels on large integers.  The
"coeff" mode compares coefficient vectors directly; it is slower but
localizes a mismatch, so "eval" falls back to it to report the exact
differing coefficient when a check fails.  An eval failure that the
coefficient check cannot place means the value and coefficient tables
disagree, which is a bug (InternalError), not a finding.
"""

from __future__ import annotations

from . import InternalError, Record
from ._backend import comp_poly_rows, conv_trunc, series_inv_int, sk_rows
from .poly import IntPoly, RatSeries, delta_op, series_inverse, series_mul
from .sets import SetSpec, SpecError

IDENTITY_NAMES = ("recurrence_weight", "reflection", "parity", "delta_q", "delta_self")


class CompPolyTable(Record):
    """Immutable table of composition polynomials f_0 .. f_upto."""

    set: SetSpec
    upto: int
    polys: tuple[IntPoly, ...]

    def __getitem__(self, n: int) -> IntPoly:
        return self.polys[n]

    def count(self, n: int) -> int:
        """Total number of compositions of n (all part counts)."""
        return self.polys[n](1)

    def by_parts(self, i: int, n: int) -> int:
        """Number of compositions of n into exactly i parts."""
        if i < 0:
            raise ValueError("part count must be non-negative")
        coeffs = self.polys[n].coeffs
        return coeffs[i] if i < len(coeffs) else 0


def comp_polys(spec: SetSpec, upto: int) -> CompPolyTable:
    """Build the composition-polynomial table for n = 0 .. upto."""
    members = spec.members_up_to(upto)
    rows = comp_poly_rows(members, upto)
    return CompPolyTable(spec, upto, tuple(IntPoly(tuple(r)) for r in rows))


def comp_counts(spec: SetSpec, upto: int) -> list[int]:
    """Counts c(n) for n = 0 .. upto, without building polynomials."""
    return sk_rows(spec.members_up_to(upto), 0, upto, 1)[0]


def partition_counts(spec: SetSpec, upto: int) -> list[int]:
    """Partition counts p(n) for n = 0 .. upto (order of parts ignored).

    Only finite part-sets are supported.
    """
    if not spec.is_finite:
        raise SpecError("partition counts need a finite part set")
    if upto < 0:
        raise ValueError("upto must be non-negative")
    table = [1] + [0] * upto
    for a in spec.members_up_to(upto):
        for n in range(a, upto + 1):
            table[n] += table[n - a]
    return table


# -- q-series ----------------------------------------------------------------


def q_series(spec: SetSpec, order: int) -> RatSeries:
    """Exact prefix of f(x)/(x f'(x)) up to x^order.

    Both f and x f' have lowest term at m = min(set); after shifting down
    by m the quotient is a unit series.  Coefficients up to x^order only
    involve parts <= order + m, so every set is truncated there.
    """
    m = spec.min_element()
    if m is None:
        raise SpecError("q-series needs a nonempty set")
    if order < 0:
        raise ValueError("order must be non-negative")
    from fractions import Fraction

    members = spec.members_up_to(order + m)
    num = [Fraction(0)] * (order + 1)
    den = [Fraction(0)] * (order + 1)
    for a in members:
        if a - m <= order:
            num[a - m] += 1
            den[a - m] += a
    return series_mul(RatSeries(tuple(num)), series_inverse(RatSeries(tuple(den))))


def q_series_scaled(spec: SetSpec, order: int) -> tuple[int, list[int]]:
    """(m, Q) with m = min(set) and Q[n] = m^(n+1) * q_n an integer for
    n <= order, where q_n are the coefficients of q_series(spec, order).

    With num_i, den_i the shifted coefficients of f and x f' (den_0 = m),
    the reciprocal of the denominator scales to the integer series
    I'_n = m^(n+1) * [x^n] 1/den, which obeys
    I'_n = -sum_{i>=1} den_i * m^(i-1) * I'_(n-i) with I'_0 = 1; then
    Q = sum_j num_j * m^j * I'_(n-j).  Same truncation rules as q_series.
    """
    m = spec.min_element()
    if m is None:
        raise SpecError("q-series needs a nonempty set")
    if order < 0:
        raise ValueError("order must be non-negative")
    num = [0] * (order + 1)   # num_i * m^i
    den = [1] + [0] * order   # den_i * m^(i-1), constant term den_0 / m
    for a in spec.members_up_to(order + m):
        i = a - m
        if i <= order:
            num[i] = m**i
            if i:
                den[i] = a * m ** (i - 1)
    return m, conv_trunc(num, series_inv_int(den, order), order)


# -- identity verification ---------------------------------------------------


class IdentityFailure(Record):
    identity: str
    n: int
    coeff_index: int


class IdentityReport(Record):
    set: SetSpec
    upto: int
    method: str
    results: dict[str, IdentityFailure | None]

    @property
    def all_pass(self) -> bool:
        return all(f is None for f in self.results.values())

    def summary_lines(self) -> list[str]:
        lines = []
        for name in IDENTITY_NAMES:
            fail = self.results[name]
            if fail is None:
                lines.append(f"{name}: pass")
            else:
                lines.append(
                    f"{name}: FAIL at n={fail.n}, coefficient {fail.coeff_index}")
        return lines


def _neg_coeffs(p: IntPoly) -> IntPoly:
    """p(-t) as a polynomial."""
    return IntPoly(tuple(-c if i % 2 else c for i, c in enumerate(p.coeffs)))


def _first_diff(a, b) -> int:
    top = max(len(a), len(b))
    for i in range(top):
        ca = a[i] if i < len(a) else 0
        cb = b[i] if i < len(b) else 0
        if ca != cb:
            return i
    return -1


class _IdentityChecker:
    """Shared state for one verification run."""

    def __init__(self, spec: SetSpec, upto: int):
        self.spec = spec
        self.upto = upto
        self.members = spec.members_up_to(upto)
        self.odd_members = [a for a in self.members if a % 2 == 1]
        self.all_odd = len(self.odd_members) == len(self.members)
        self.q = None if spec.is_empty else q_series_scaled(spec, upto)
        self._table: CompPolyTable | None = None
        self._odd_polys: tuple[IntPoly, ...] | None = None

    @property
    def table(self) -> CompPolyTable:
        if self._table is None:
            self._table = comp_polys(self.spec, self.upto)
        return self._table

    @property
    def odd_polys(self) -> tuple[IntPoly, ...]:
        """Part-count polynomials of the odd members, n = 0 .. upto."""
        if self._odd_polys is None:
            rows = comp_poly_rows(self.odd_members, self.upto)
            self._odd_polys = tuple(IntPoly(tuple(r)) for r in rows)
        return self._odd_polys

    # each _coeff_<name> method returns the coefficient index of the first
    # mismatch at level n, or -1 if the identity holds there

    def _coeff_recurrence_weight(self, n: int) -> int:
        polys = self.table.polys
        lhs = [0] * (n + 1)
        rhs = [0] * (n + 1)
        for a in self.members:
            if a > n:
                break
            for j, c in enumerate(polys[n - a].coeffs):
                if c:
                    lhs[j] += a * j * c  # a * (delta coefficient j)
                    rhs[j] += (n - a) * c
        return _first_diff(lhs, rhs)

    def _coeff_reflection(self, n: int) -> int:
        polys = self.table.polys
        lhs = polys[n] + _neg_coeffs(polys[n])
        rhs = IntPoly()
        for i in range(n + 1):
            rhs = rhs + _neg_coeffs(polys[i]) * polys[n - i]
        return _first_diff(lhs.coeffs, rhs.scale(2).coeffs)

    def _coeff_parity(self, n: int) -> int:
        polys = self.table.polys
        opolys = self.odd_polys
        lhs = IntPoly()
        rhs = IntPoly()
        for i in range(n + 1):
            o_neg = _neg_coeffs(opolys[i])
            inner = _neg_coeffs(polys[n - i])
            signed = polys[n - i] if (n - i) % 2 == 0 else -polys[n - i]
            lhs = lhs + o_neg * (inner + signed)
            term = polys[i] * _neg_coeffs(polys[n - i])
            rhs = rhs + (term if i % 2 == 0 else -term)
        idx = _first_diff(lhs.coeffs, rhs.scale(2).coeffs)
        if idx >= 0:
            return idx
        if self.all_odd:
            signed = polys[n] if n % 2 == 0 else -polys[n]
            return _first_diff(_neg_coeffs(polys[n]).coeffs, signed.coeffs)
        return -1

    def _coeff_delta_q(self, n: int) -> int:
        # D(f_n) = sum_i i * q(n-i) * f_i, times m^(n+1) on both sides so
        # that Q[n-i] = m^(n-i+1) * q(n-i) keeps everything integral
        if self.q is None:
            return -1
        m, Q = self.q
        polys = self.table.polys
        lhs = delta_op(polys[n]).scale(m ** (n + 1)).coeffs
        rhs: list[int] = []
        for i in range(1, n + 1):
            scale = i * m**i * Q[n - i]
            if not scale:
                continue
            row = polys[i].coeffs
            if len(rhs) < len(row):
                rhs.extend([0] * (len(row) - len(rhs)))
            for j, c in enumerate(row):
                if c:
                    rhs[j] += scale * c
        return _first_diff(lhs, rhs)

    def _coeff_delta_self(self, n: int) -> int:
        polys = self.table.polys
        lhs = delta_op(polys[n])
        rhs = IntPoly()
        for i in range(n):
            rhs = rhs + polys[n - i] * polys[i]
        return _first_diff(lhs.coeffs, rhs.coeffs)

    # -- whole-range checks ------------------------------------------------

    def _failure(self, name: str, n: int) -> IdentityFailure | None:
        idx = getattr(self, f"_coeff_{name}")(n)
        return None if idx < 0 else IdentityFailure(name, n, idx)

    def check_coeff(self, name: str) -> IdentityFailure | None:
        for n in range(self.upto + 1):
            fail = self._failure(name, n)
            if fail is not None:
                return fail
        return None

    def eval_bits(self) -> int:
        """Exponent b of the evaluation point 2^b of check_eval.

        Composition tables have non-negative coefficients, so the
        coefficients of f_n sum to c1[n] = f_n(1), and those of a product
        of two tables to the product of the sums.  With C and X the t = 1
        values of the self-convolution and of the odd-part convolution,
        each side of a comparison at level n has coefficients of absolute
        value at most 2*c1[n], 2*C[n] or 2*X[n] (reflection and parity;
        parity's all-odd comparison at most c1[n]) or n*c1[n] and C[n]
        (delta_self, where D multiplies the coefficient of t^i by i <= n).
        Each |coefficient| of lhs - rhs is at most the sum of two such
        sides, so at most B = 2 * max(4 * max C, 4 * max X, (N+1) * max c1).
        b is the least exponent with 2^(2b) > 2B.
        """
        n_max = self.upto
        c1 = sk_rows(self.members, 0, n_max, 1)[0]
        o1 = sk_rows(self.odd_members, 0, n_max, 1)[0]
        bound = 2 * max(4 * max(conv_trunc(c1, c1, n_max)),
                        4 * max(conv_trunc(o1, c1, n_max)), (n_max + 1) * max(c1))
        return (bound.bit_length() + 2) // 2

    def check_eval(self) -> dict[str, IdentityFailure | None]:
        """Point-evaluation check of reflection, parity and delta_self.

        Every comparison is evaluated at the pair t = +-2^b of eval_bits.
        That is a proof: the difference of the two sides at level n is an
        integer polynomial D(x) = E(x^2) + x*O(x^2) whose coefficients are
        below t^2/2 in absolute value.  D(t) = D(-t) = 0 gives
        E(t^2) = O(t^2) = 0, and since an integer whose base-t^2 digits
        all lie in (-t^2/2, t^2/2) has one such expansion only, E and O
        are zero.  parity and delta_self are compared at +t and at -t;
        the difference of reflection is even in x for any table, so +t
        alone proves it.  Parity's right side at -t is (-1)^n times its
        right side at +t for any two lists (swap j and n - j in the
        convolution sum), so it is not convolved a second time.  For each
        identity the smallest level n that differs at either point (or,
        for parity over all-odd sets, in either of its comparisons) is the
        first n the coefficient check fails, which then places the
        differing coefficient.
        """
        n_max = self.upto
        bits = self.eval_bits()
        t = 1 << bits
        v_pos, w_pos = sk_rows(self.members, 1, n_max, t)
        v_neg, w_neg = sk_rows(self.members, 1, n_max, -t)
        o_pos = sk_rows(self.odd_members, 0, n_max, t)[0]
        o_neg = sk_rows(self.odd_members, 0, n_max, -t)[0]
        rhs = conv_trunc(v_neg, v_pos, n_max)
        diffs = {"reflection": [_first_diff([a + b for a, b in zip(v_pos, v_neg)],
                                            [2 * c for c in rhs])],
                 "parity": [], "delta_self": []}
        for point, v, w, v_bar, o_bar in ((t, v_pos, w_pos, v_neg, o_neg),
                                          (-t, v_neg, w_neg, v_pos, o_pos)):
            alt = [c if j % 2 == 0 else -c for j, c in enumerate(v)]
            lhs = conv_trunc(o_bar, [a + b for a, b in zip(v_bar, alt)], n_max)
            if point > 0:
                par = conv_trunc(alt, v_bar, n_max)
            else:
                par = [c if n % 2 == 0 else -c for n, c in enumerate(par)]
            diffs["parity"].append(_first_diff(lhs, [2 * c for c in par]))
            if self.all_odd:
                diffs["parity"].append(_first_diff(v_bar, alt))
            sq = conv_trunc(v, v, n_max)
            diffs["delta_self"].append(_first_diff(w, [a - b for a, b in zip(sq, v)]))
        fails: dict[str, IdentityFailure | None] = {}
        for name, found in diffs.items():
            n = min((n for n in found if n >= 0), default=-1)
            fails[name] = None if n < 0 else self._failure(name, n)
            if n >= 0 and fails[name] is None:
                raise InternalError(
                    f"{name} fails at n={n}, t=±2^{bits} on the value tables, "
                    "but its coefficient check finds no differing coefficient")
        return fails


def verify_identities(spec: SetSpec, upto: int, method: str = "eval") -> IdentityReport:
    """Check the five structural identities for every n <= upto.

    Checks: (recurrence_weight) the part-weighted delta identity;
    (reflection) f_n(t) + f_n(-t) against twice the mixed self-convolution;
    (parity) the odd-part convolution identity, plus f_n(-t) = (-1)^n f_n(t)
    when every part is odd; (delta_q) D(f_n) as the q-weighted sum of
    lower polynomials, in integers scaled by m^(n+1) with m = min(set)
    (see q_series_scaled); (delta_self) D(f_n) as the
    truncated self-convolution.  All comparisons are exact; failures carry
    the first differing (n, coefficient) pair.  The empty set passes
    everything vacuously.  An eval-mode failure that the coefficient
    check cannot place raises InternalError.
    """
    if method not in ("eval", "coeff"):
        raise ValueError("method must be 'eval' or 'coeff'")
    chk = _IdentityChecker(spec, upto)
    results = {name: chk.check_coeff(name) for name in ("recurrence_weight", "delta_q")}
    if method == "eval":
        results.update(chk.check_eval())
    else:
        results.update((name, chk.check_coeff(name))
                       for name in ("reflection", "parity", "delta_self"))
    return IdentityReport(spec, upto, method, results)


# -- plain-text exports -------------------------------------------------------


def counts_csv(spec: SetSpec, upto: int) -> str:
    lines = ["n,c_A(n)"]
    for n, c in enumerate(comp_counts(spec, upto)):
        lines.append(f"{n},{c}")
    return "\n".join(lines) + "\n"


def triangle_csv(table: CompPolyTable) -> str:
    lines = ["n,i,c_A(i,n)"]
    for n, poly in enumerate(table.polys):
        row = poly.coeffs  # trailing zeros trimmed, but every i <= n gets a line
        lines.extend(f"{n},{i},{c}" for i, c in enumerate(row))
        lines.extend(f"{n},{i},0" for i in range(len(row), n + 1))
    return "\n".join(lines) + "\n"
