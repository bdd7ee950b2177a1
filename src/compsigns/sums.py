"""Alternating weighted part-count sums S_k(n), by four independent routes.

S_k(n) = sum over i of (-1)^i * i^k * c(i, n), where c(i, n) counts the
compositions of n into exactly i parts; equivalently D^k(f_n) at t = -1
for the delta operator D = t * d/dt.

The four routes share no interesting code, which is the point: they
cross-validate each other exactly.

* sk_direct: build the polynomial table and sum its coefficients
  weighted by (-1)^i * i^k.  Trusted reference, definitional.
* sk_fast: production path on a single integer recurrence
  (_backend.sk_rows); no polynomial storage.
* sk_via_q: lift row k to k+1 through the q-series f/(x f'), carried as
  integers scaled by powers of m = min(set); every lifted entry must
  divide back exactly.
* sk_via_conv: lift row k to k+1 through binomially weighted
  convolutions of the lower rows.
"""

from __future__ import annotations

from math import comb, gcd
from operator import mul

from . import InternalError, Record
from ._backend import conv_trunc, sk_rows
from .compositions import comp_polys, q_series_scaled
from .sets import SetSpec, SpecError


class IntegralityError(InternalError):
    """A rational route produced a non-integer value (always a bug)."""


class SkGrid(Record):
    """Immutable (K+1) x (N+1) table, row-major in k: values[k][n] = S_k(n)."""

    K: int
    N: int
    values: tuple[tuple[int, ...], ...]

    def row(self, k: int) -> tuple[int, ...]:
        return self.values[k]

    def value(self, k: int, n: int) -> int:
        return self.values[k][n]

    def normalized(self, k: int) -> tuple[int, ...]:
        """Row k in the (-1)^n frame: (-1)^n * S_k(n) for n = 0..N."""
        return tuple(v if n % 2 == 0 else -v for n, v in enumerate(self.values[k]))


def sk_direct(spec: SetSpec, k_max: int, n_max: int) -> SkGrid:
    """Reference route, the definition read off the coefficient table:
    S_k(n) = sum_i (-1)^i * i^k * c(i, n)."""
    _check_kn(k_max, n_max)
    table = comp_polys(spec, n_max)
    # terms[n][i] = (-1)^i * i^k * c(i, n), one more factor i per row k
    terms = [[-c if i % 2 else c for i, c in enumerate(f.coeffs)] for f in table.polys]
    rows = [tuple(map(sum, terms))]
    for _ in range(k_max):
        terms = [[i * c for i, c in enumerate(t)] for t in terms]
        rows.append(tuple(map(sum, terms)))
    return SkGrid(k_max, n_max, tuple(rows))


def sk_fast(spec: SetSpec, k_max: int, n_max: int) -> SkGrid:
    """Production route, one integer recurrence and no polynomials:
    rows 0..k_max of _backend.sk_rows at t = -1 (its docstring derives
    the recurrence).  Equality with sk_direct is enforced by the test
    suite on randomized sets.
    """
    _check_kn(k_max, n_max)
    members = spec.members_up_to(n_max)
    rows = sk_rows(members, k_max, n_max, -1)
    return SkGrid(k_max, n_max, tuple(tuple(r) for r in rows))


def sk_via_q(spec: SetSpec, k_max: int, n_max: int) -> SkGrid:
    """q-series route: S_{k+1}(n) = sum_i i * q(n-i) * S_k(i).

    The q-series is rational, but with m = min(set) the scaled
    coefficients Q[n] = m^(n+1) * q(n) are integers (q_series_scaled), so

        m^(n+1) * S_{k+1}(n) = sum_i i * m^i * S_k(i) * Q[n-i]

    is one integer convolution per row.  Every entry must then divide
    exactly by m^(n+1); a remainder raises IntegralityError rather than
    rounding.  The empty set has no q-series and no m; its only
    composition is the empty one of n = 0, so every row past 0 is zero.
    """
    _check_kn(k_max, n_max)
    base = sk_fast(spec, 0, n_max).row(0)
    if spec.is_empty:
        zero = (0,) * (n_max + 1)
        return SkGrid(k_max, n_max, (tuple(base),) + (zero,) * k_max)
    m, Q = q_series_scaled(spec, n_max)
    powers = [m**i for i in range(n_max + 2)]
    rows = [tuple(base)]
    prev = base
    for k in range(k_max):
        scaled = conv_trunc(
            [i * powers[i] * v for i, v in enumerate(prev)], Q, n_max)
        nxt = []
        for n, acc in enumerate(scaled):
            val, rem = divmod(acc, powers[n + 1])
            if rem:
                g = gcd(acc, powers[n + 1])
                raise IntegralityError(
                    f"S_{k + 1}({n}) came out {acc // g}/{powers[n + 1] // g} "
                    f"for {spec.render()}")
            nxt.append(val)
        rows.append(tuple(nxt))
        prev = nxt
    return SkGrid(k_max, n_max, tuple(rows))


def sk_via_conv(spec: SetSpec, k_max: int, n_max: int) -> SkGrid:
    """Convolution route:
    S_{k+1}(n) = sum_{i<n} sum_{j<=k} C(k,j) * S_j(n-i) * S_{k-j}(i)."""
    _check_kn(k_max, n_max)
    rows = [tuple(sk_fast(spec, 0, n_max).row(0))]
    for k in range(k_max):
        pairs = [(comb(k, j), rows[j], rows[k - j]) for j in range(k + 1)]
        # the inner sum over i < n as one dot product of S_j(n), ..., S_j(1)
        # with S_{k-j}(0), ..., S_{k-j}(n-1)
        rows.append(tuple(sum(c * sum(map(mul, u[n:0:-1], v[:n])) for c, u, v in pairs)
                          for n in range(n_max + 1)))
    return SkGrid(k_max, n_max, tuple(rows))


ROUTES = {
    "direct": sk_direct,
    "fast": sk_fast,
    "q": sk_via_q,
    "conv": sk_via_conv,
}


def _check_kn(k_max: int, n_max: int) -> None:
    if k_max < 0:
        raise SpecError("K must be non-negative")
    if n_max < 0:
        raise SpecError("N must be non-negative")


def normalized_violation(grid: SkGrid) -> tuple[int, int] | None:
    """First (k, n) with (-1)^n * S_k(n) < 0, or None if none exists."""
    for k in range(grid.K + 1):
        for n, v in enumerate(grid.normalized(k)):
            if v < 0:
                return (k, n)
    return None


def grid_csv(grid: SkGrid) -> str:
    lines = ["k,n,S"]
    for k in range(grid.K + 1):
        row = grid.values[k]
        for n in range(grid.N + 1):
            lines.append(f"{k},{n},{row[n]}")
    return "\n".join(lines) + "\n"

