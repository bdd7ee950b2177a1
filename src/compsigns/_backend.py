"""The exact integer inner loops every count, sum and scan is built on.

Everything here works on plain Python ints, so results are exact at any
size.  Every value table is a row of one recurrence: with f_0 = 1 and
f_n = t * sum_a f_{n-a}, ``sk_rows`` gives D^k(f_n) at a point t, where
D = t*d/dt.  The counts c_A(n) are f_n(1), the sums S_k(n) are D^k(f_n)
at t = -1, and the identity checks read f_n and D(f_n) at t = +-2^b.
``comp_poly_rows`` keeps the f_n as coefficient rows, gathering level n
from the rows of its predecessors n - a, one per part a.
``BACKEND`` names these kernels for callers that report which ones ran,
such as the probe of ``perfbench/run.py``.

``members`` arguments are ascending lists of distinct positive integers
(the part-set truncated at the table size).
"""

from __future__ import annotations

from collections import deque
from itertools import zip_longest
from math import comb
from operator import itemgetter, mul

BACKEND = "python"


def conv(a: list, b: list) -> list:
    """Full product of two coefficient lists: conv_trunc at the top degree."""
    return conv_trunc(a, b, len(a) + len(b) - 2) if a and b else []


def conv_trunc(a: list, b: list, order: int) -> list:
    """Product of two coefficient lists truncated at degree ``order``."""
    out = [0] * (order + 1)
    for i, ai in enumerate(a[:order + 1]):
        if ai:
            for j, bj in enumerate(b[:order + 1 - i]):
                if bj:
                    out[i + j] += ai * bj
    return out


def comp_poly_rows(members: list, n_max: int) -> list:
    """Coefficient rows of the part-count polynomials.

    rows[n][i] counts the compositions of n into exactly i parts from the
    set: rows[0] = [1], and rows[n] is the column sums of the rows[n-a]
    shifted up one part.  Sums of trimmed non-negative rows end non-zero,
    so only a level no part reaches, a lone [0], needs trimming, to [].
    """
    rows = [[1]]
    for n in range(1, n_max + 1):
        past = (rows[n - a] for a in members if a <= n)
        row = [0, *map(sum, zip_longest(*past, fillvalue=0))]
        rows.append(row if len(row) > 1 else [])
    return rows


def sk_rows(members: list, k_max: int, n_max: int, t) -> list:
    """Values g[k][n] = D^k(f_n) at the point t, 0 <= k <= k_max, 0 <= n <= n_max.

    f_0 = 1 and f_n = t * h_n with h_n = sum_a f_{n-a}.  D = t*d/dt is a
    derivation with D^j(t) = t for every j, so the binomial product rule
    gives D^k(f_n) = t * sum_{j<=k} C(k,j) D^j(h_n).  Row k is built left
    to right after the rows below it, which leave their sums
    h[j][n] = sum_a g[j][n-a]:

        g[k][n] = t * (sum_a g[k][n-a] + sum_{j<k} C(k,j) * h[j][n]).

    Row 0 at t = 1 holds the counts c_A(n); rows 0..K at t = -1 hold the
    sums S_k(n).
    """
    rows, sums = [], []
    for k in range(k_max + 1):
        binom = [comb(k, j) for j in range(k)]
        # row k starts as its lower-row terms, which are 0 at n = 0 (h[j][0] = 0)
        row = [sum(map(mul, binom, col)) for col in zip(*sums)] if k else [1] + [0] * n_max
        h = [0] * (n_max + 1)
        for n in range(1, n_max + 1):
            s = 0
            for a in members:
                if a > n:
                    break
                s += row[n - a]
            h[n] = s
            row[n] = t * (s + row[n])
        rows.append(row)
        sums.append(h)
    return rows


def eval_table(members: list, n_max: int, t) -> list:
    """Row 0 of sk_rows, kept under its old name for the benchmark's tracer."""
    return sk_rows(members, 0, n_max, t)[0]


def delta_eval_table(members: list, n_max: int, t, vals: list) -> list:
    """Row 1 of sk_rows, kept under its old name for the benchmark's tracer."""
    return sk_rows(members, 1, n_max, t)[1]


def series_inv_int(coeffs: list, order: int) -> list:
    """Reciprocal of an integer series with constant term 1, up to ``order``."""
    if not coeffs or coeffs[0] != 1:
        raise ValueError("series_inv_int needs constant term 1")
    top = len(coeffs) - 1
    inv = [1] + [0] * order
    for n in range(1, order + 1):
        s = 0
        for i in range(1, min(n, top) + 1):
            ci = coeffs[i]
            if ci:
                s += ci * inv[n - i]
        inv[n] = -s
    return inv


def first_violation(members: list, horizon: int) -> int:
    """Smallest n <= horizon where (-1)^n * S_0(n) < 0, or -1 if none.

    (-1)^n * S_0(n) is coefficient n of 1/q, q = 1 + sum_a (-x)^a.  If the
    least part d is even, q = 1 + x^d + ..., so 1/q first goes negative at
    n = d.  If d is odd and, walking the other parts upward with one balance
    per class mod d (+1 for an odd part, -1 for an even one), no balance
    goes negative, no n has a violation.  Proof: coefficient m >= 1 of
    q/(1 - x^d) is the class-(m mod d) sum of q's coefficients up to m, in
    which q_0 = 1 cancels q_d = -1: minus that class's balance.  So
    q/(1 - x^d) = 1 - C with C >= 0, and 1/q = sum_j x^(dj) sum_i C^i >= 0.

    Else S_0 is the k = 0 row of sk_rows at t = -1, computed with early
    exit: with s = sum_a S_0(n-a), S_0(n) = -s, so the test is s > 0 at
    even n and s < 0 at odd n.  The last max(A) values slide through a
    window read by one fixed itemgetter (A has two or more parts here, so
    it returns a tuple), padded with zeros at the start (S_0 is 0 below 0).
    Parts above the horizon touch no n <= horizon; they are dropped first,
    so that they never size the window.
    """
    if members and members[-1] > horizon:
        members = [a for a in members if a <= horizon]
    d = members[0] if members else 1
    if d % 2 == 0:
        return d
    balance = [0] * d
    for a in members[1:]:
        balance[a % d] += 1 if a % 2 else -1
        if balance[a % d] < 0:
            break
    else:
        return -1
    top = members[-1]
    window = deque([0] * (top - 1) + [1], maxlen=top)  # window[top - a] = S_0(n - a)
    get = itemgetter(*[top - a for a in members])
    push = window.append
    # one odd and one even step per turn
    for n in range(1, horizon, 2):
        s = sum(get(window))
        push(-s)
        if s < 0:
            return n
        s = sum(get(window))
        push(-s)
        if s > 0:
            return n + 1
    if horizon % 2 and sum(get(window)) < 0:
        return horizon
    return -1
