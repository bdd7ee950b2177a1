"""Composition polynomials and everything built directly on them.

A part-set A yields, for each n, the polynomial f_n whose coefficient of
t^i counts the compositions of n into exactly i parts from A (ordered
tuples).  This module builds those polynomial tables, the plain counts
c_A(n), partition counts, the rational q-series f(x)/(x f'(x)) (also as
integers scaled by powers of min(A)), and an exact verifier for the
algebraic identities tying them together.

Identity checks run in one of two modes.  The default "eval" mode
evaluates both sides at enough integer points to pin down polynomials of
the degrees involved (n+1 points determine a degree-n polynomial), which
keeps the inner loops on fast integer kernels and is still an exact
proof.  It is one pass over t = 1, 2, ...: the value tables at +t and -t
are built once per t and shared by the reflection, parity and delta_self
checks, and reflection, whose two sides are even in t, is evaluated at
+t only.  The "coeff" mode compares coefficient vectors directly; it is
slower but localizes a mismatch, so "eval" falls back to it to report
the exact differing coefficient when a check fails.  An eval failure
that the coefficient check cannot place means the value and coefficient
tables disagree, which is a bug (InternalError), not a finding.
"""

from __future__ import annotations

from fractions import Fraction

from . import InternalError, Record
from ._backend import (
    comp_poly_rows,
    conv_trunc,
    delta_eval_table,
    eval_table,
    series_inv_int,
)
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
    members = spec.members_up_to(upto)
    return eval_table(members, upto, 1)


def comp_by_parts(spec: SetSpec, i: int, n: int) -> int:
    """Number of compositions of n into exactly i parts of the set."""
    if i < 0:
        raise ValueError("part count must be non-negative")
    rows = comp_poly_rows(spec.members_up_to(n), n)
    row = rows[n]
    return row[i] if i < len(row) else 0


def partition_counts(spec: SetSpec, upto: int) -> list[int]:
    """Partition counts p(n) for n = 0 .. upto (order of parts ignored).

    Only finite part-sets are supported.
    """
    if not spec.is_finite:
        raise SpecError("partition counts need a finite part set")
    if upto < 0:
        raise ValueError("upto must be non-negative")
    table = [1] + [0] * upto
    for a in spec.members_capped(upto):
        for n in range(a, upto + 1):
            table[n] += table[n - a]
    return table


# -- q-series ----------------------------------------------------------------


class QSeries(Record):
    """Prefix of the expansion of f(x) / (x f'(x)) for a part-set."""

    set: SetSpec
    coeffs: RatSeries

    @property
    def order(self) -> int:
        return self.coeffs.order

    def __getitem__(self, n: int) -> Fraction:
        return self.coeffs[n]


def q_series(spec: SetSpec, order: int) -> QSeries:
    """Exact prefix of f(x)/(x f'(x)) up to x^order.

    Both f and x f' have lowest term at m = min(set); after shifting down
    by m the quotient is a unit series.  Coefficients up to x^order only
    involve parts <= order + m, so infinite sets are truncated there
    (which must lie within their horizon); finite sets always use every
    part they have.
    """
    m = spec.min_element()
    if m is None:
        raise SpecError("q-series needs a nonempty set")
    if order < 0:
        raise ValueError("order must be non-negative")
    members = spec.members_capped(order + m)
    num = [Fraction(0)] * (order + 1)
    den = [Fraction(0)] * (order + 1)
    for a in members:
        if a - m <= order:
            num[a - m] += 1
            den[a - m] += a
    series = series_mul(RatSeries(tuple(num)), series_inverse(RatSeries(tuple(den))))
    return QSeries(spec, series)


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
    for a in spec.members_capped(order + m):
        i = a - m
        if i <= order:
            num[i] = m**i
            if i:
                den[i] = a * m ** (i - 1)
    return m, conv_trunc(num, series_inv_int(den, order), order)


def qseries_to_json(q: QSeries) -> dict:
    """JSON-ready dict; numerators and denominators as base-10 strings."""
    return {
        "set": q.set.render(),
        "order": q.order,
        "coeffs": [
            {"numerator": str(c.numerator), "denominator": str(c.denominator)}
            for c in q.coeffs.coeffs
        ],
    }


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

    def check_eval(self) -> dict[str, IdentityFailure | None]:
        """Point-evaluation check of reflection, parity and delta_self.

        Both sides at level n are polynomials of degree <= upto in t, so
        agreement at upto+1 distinct points proves equality.  One pass over
        t = 1 .. (upto+2)//2 builds each value table at +t and -t once.
        parity and delta_self are checked at t, then at -t.  Both sides of
        reflection are even in t, so +t alone gives the upto/2+1 values of
        t^2 it needs.  An identity that has failed is not evaluated again;
        its report is the first failing n at its first failing point in
        the order 1, -1, 2, -2, ..., placed by the coefficient check.
        """
        n_max = self.upto
        fails: dict[str, IdentityFailure | None] = dict.fromkeys(
            ("reflection", "parity", "delta_self"))

        def compare(name: str, point: int, lhs: list[int], rhs: list[int]) -> None:
            n = _first_diff(lhs, rhs)
            if n >= 0:
                fails[name] = self._failure(name, n)
                if fails[name] is None:
                    raise InternalError(
                        f"{name} fails at n={n}, t={point} on the value tables, "
                        "but its coefficient check finds no differing coefficient")

        for t in range(1, (n_max + 2) // 2 + 1):
            v_pos = eval_table(self.members, n_max, t)
            v_neg = eval_table(self.members, n_max, -t)
            o_pos = eval_table(self.odd_members, n_max, t)
            o_neg = eval_table(self.odd_members, n_max, -t)
            if fails["reflection"] is None:
                rhs = conv_trunc(v_neg, v_pos, n_max)
                compare("reflection", t, [a + b for a, b in zip(v_pos, v_neg)],
                        [2 * c for c in rhs])
            for point, v, v_bar, o_bar in ((t, v_pos, v_neg, o_neg),
                                           (-t, v_neg, v_pos, o_pos)):
                if fails["parity"] is None:
                    alt = [c if j % 2 == 0 else -c for j, c in enumerate(v)]
                    lhs = conv_trunc(o_bar, [a + b for a, b in zip(v_bar, alt)], n_max)
                    rhs = conv_trunc(alt, v_bar, n_max)
                    compare("parity", point, lhs, [2 * c for c in rhs])
                    if fails["parity"] is None and self.all_odd:
                        compare("parity", point, v_bar, alt)
                if fails["delta_self"] is None:
                    w = delta_eval_table(self.members, n_max, point, v)
                    sq = conv_trunc(v, v, n_max)
                    compare("delta_self", point, w, [a - b for a, b in zip(sq, v)])
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
    for n in range(table.upto + 1):
        for i in range(n + 1):
            lines.append(f"{n},{i},{table.by_parts(i, n)}")
    return "\n".join(lines) + "\n"
