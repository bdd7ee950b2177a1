"""The exact integer inner loops every count, sum and scan is built on.

Everything here works on plain Python ints, so results are exact at any
size.  ``BACKEND`` names these kernels for callers that report which ones
ran, such as the probe of ``perfbench/run.py``.

``members`` arguments are ascending lists of distinct positive integers
(the part-set truncated at the table size).
"""

from __future__ import annotations

from collections import deque
from math import comb
from operator import itemgetter

BACKEND = "python"


def conv(a: list, b: list) -> list:
    """Full schoolbook product of two coefficient lists."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return out


def conv_trunc(a: list, b: list, order: int) -> list:
    """Product of two coefficient lists truncated at degree ``order``."""
    out = [0] * (order + 1)
    for i, ai in enumerate(a):
        if i > order:
            break
        if ai:
            top = min(len(b) - 1, order - i)
            for j in range(top + 1):
                bj = b[j]
                if bj:
                    out[i + j] += ai * bj
    return out


def comp_poly_rows(members: list, n_max: int) -> list:
    """Coefficient rows of the part-count polynomials.

    rows[n][i] counts the compositions of n into exactly i parts from the
    set; rows[0] = [1] and rows[n] comes from shifting each rows[n-a] up by
    one part.  Trailing zeros are stripped.
    """
    rows = [[1]]
    for n in range(1, n_max + 1):
        cur = [0] * (n + 1)
        for a in members:
            if a > n:
                break
            prev = rows[n - a]
            for i in range(len(prev)):
                c = prev[i]
                if c:
                    cur[i + 1] += c
        while cur and not cur[-1]:
            cur.pop()
        rows.append(cur)
    return rows


def eval_table(members: list, n_max: int, t) -> list:
    """Values of the part-count polynomials at the point t, by recurrence."""
    vals = [1] + [0] * n_max
    for n in range(1, n_max + 1):
        s = 0
        for a in members:
            if a > n:
                break
            s += vals[n - a]
        vals[n] = t * s
    return vals


def delta_eval_table(members: list, n_max: int, t, vals: list) -> list:
    """Values of D(f_n) at t, where D = t*d/dt and vals = eval_table(.., t).

    D applied to the table recurrence gives
    D(f_n)(t) = sum_a (t*f_{n-a}(t) + t*D(f_{n-a})(t)).
    """
    out = [0] * (n_max + 1)
    for n in range(1, n_max + 1):
        s = 0
        for a in members:
            if a > n:
                break
            s += vals[n - a] + out[n - a]
        out[n] = t * s
    return out


def sk_rows(members: list, k_max: int, n_max: int) -> list:
    """Alternating weighted sums S_k(n) for 0 <= k <= k_max, 0 <= n <= n_max.

    Recurrence: apply the k-fold product rule for D = t*d/dt to the table
    recurrence f_n = t * sum_a f_{n-a}; since D^(i)(t) = t for every i,
    evaluating at t = -1 gives

        g[k][n] = -sum_{j<=k} C(k,j) * sum_a g[j][n-a],   g[0][0] = 1.
    """
    g = [[0] * (n_max + 1) for _ in range(k_max + 1)]
    g[0][0] = 1
    binom = [[comb(k, j) for j in range(k + 1)] for k in range(k_max + 1)]
    h = [0] * (k_max + 1)  # h[j] = sum_a g[j][n-a] for the current n
    for n in range(1, n_max + 1):
        for j in range(k_max + 1):
            h[j] = 0
        for a in members:
            if a > n:
                break
            na = n - a
            for j in range(k_max + 1):
                h[j] += g[j][na]
        for k in range(k_max + 1):
            bk = binom[k]
            acc = 0
            for j in range(k + 1):
                hj = h[j]
                if hj:
                    acc += bk[j] * hj
            g[k][n] = -acc
    return g


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

    S_0 is the k = 0 row of sk_rows, computed incrementally with early exit.
    With s = sum_a S_0(n-a), S_0(n) = -s, so the test is s > 0 at even n
    and s < 0 at odd n.  Below the largest member only the members <= n
    contribute; from there on every member does, and the last max(A)
    values slide through a window read by one fixed itemgetter.
    """
    # a single member stays in the first loop to the end: an itemgetter of
    # one index returns the bare item, not a tuple
    top = members[-1] if len(members) > 1 else horizon + 1
    g = [1]
    for n in range(1, min(top, horizon + 1)):
        s = 0
        for a in members:
            if a > n:
                break
            s += g[n - a]
        g.append(-s)
        if (s > 0) if n % 2 == 0 else (s < 0):
            return n
    if top > horizon:
        return -1
    window = deque(g, maxlen=top)  # window[top - a] = S_0(n - a)
    get = itemgetter(*[top - a for a in members])
    push = window.append
    n = top
    if n % 2:
        s = sum(get(window))
        push(-s)
        if s < 0:
            return n
        n += 1
    # n even from here: one even and one odd step per turn
    for n in range(n, horizon, 2):
        s = sum(get(window))
        push(-s)
        if s > 0:
            return n
        s = sum(get(window))
        push(-s)
        if s < 0:
            return n + 1
    if horizon % 2 == 0 and sum(get(window)) > 0:
        return horizon
    return -1
