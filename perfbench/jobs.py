"""Seeded job lists, one per workload.

A job is one CLI invocation plus what the output check needs to know
about it.  Every workload has a fixed mix of job slots; the seed only
picks the inputs inside each slot (the parts of a set, a horizon), so
different seeds give different inputs with the same mix and about the
same amount of work.  Sizes keep one pass over a list near five seconds,
so that a run holds several passes.  The slot parameters were chosen so that
no job is refused: every part-set has gcd 1 (a set with gcd g > 1 is a
rescaled copy of a smaller one and runs several times faster), certify
never gets an all-odd set (the CLI refuses those with exit 3), and the
exact-tier certify slots only get polynomials whose smallest-modulus
roots are clearly one non-real conjugate pair, so the exact tier really
runs on them.
"""

from __future__ import annotations

import random
from math import gcd

WORKLOADS = ("identities", "certify", "scan")

# identities: (min element, lowest and highest other part, N); the seed
# draws the other two parts from that range.  Min elements 2 and 3 make
# the q-series rational.
SECTION2_SLOTS = ((1, 6, 12, 80), (2, 3, 9, 90), (3, 8, 14, 100))
# identities: (min element, lowest and highest other part, set size, K, N)
SK_SLOTS = ((1, 5, 10, 2, 4, 180), (2, 3, 9, 3, 3, 180))
# certify: largest part of the sets whose exact tier runs
EXACT_DEGREES = (7, 8, 9)
# certify: largest part of the numeric-only sets
NUMERIC_DEGREES = (5, 8, 11)
# certify: cyclotomic orders to draw products from; each has Phi_n(0) = 1
CYCLO_ORDERS = (2, 3, 4, 5, 6, 7, 8, 9, 10, 12)
# scan: the subset-scan size run twice, with antithetic horizons h and
# HORIZON_LO + HORIZON_HI - h so that the pair costs the same for every seed
ENUM_PAIRED = 13
# scan: the largest subset scan (6.8 MB of output), run once at the middle horizon
ENUM_LARGEST = 15
HORIZON_LO, HORIZON_HI = 300, 400


def _render(elems) -> str:
    return "{" + ",".join(str(e) for e in elems) + "}"


def _primitive_set(rng: random.Random, lo: int, a: int, b: int, size: int = 3) -> list[int]:
    """``lo`` plus ``size - 1`` distinct parts from [a, b], with gcd 1."""
    while True:
        elems = sorted({lo, *rng.sample(range(a, b + 1), size - 1)})
        if gcd(*elems) == 1:
            return elems


def _job(kind: str, argv: list[str], **params) -> dict:
    return {"kind": kind, "argv": argv, **params}


def _identities(rng: random.Random) -> list[dict]:
    out = []
    for lo, a, b, n in SECTION2_SLOTS:
        elems = _primitive_set(rng, lo, a, b)
        out.append(_job("section2", ["verify", "--suite", "section2", "-A", _render(elems),
                                     "-N", str(n)], set=elems, N=n))
    for lo, a, b, size, k, n in SK_SLOTS:
        elems = _primitive_set(rng, lo, a, b, size)
        out.append(_job("sk", ["sk", "-A", _render(elems), "-K", str(k), "-N", str(n),
                               "--route", "all"], set=elems, K=k, N=n))
    # quick suites, enough of them that the median job is a quick one
    a = _primitive_set(rng, 1, 2, 6, size=2)
    while True:
        b = sorted(rng.sample([x for x in range(2, 10) if x not in a], 2))
        if gcd(*b) == 1:
            break
    out.append(_job("union", ["verify", "--suite", "union", "-A", _render(a), "-B", _render(b),
                              "-N", "150"], N=150))
    base = sorted(rng.sample(range(1, 16, 2), 3))  # odd parts: subset sums all differ
    out.append(_job("thm36", ["verify", "--suite", "thm36", "-B", _render(base), "-N", "300"],
                    base=base, N=300))
    removed = sorted(rng.sample(range(2, 13, 2), 2))
    out.append(_job("thm34", ["verify", "--suite", "thm34", "-E", _render(removed), "-N", "200"],
                    removed=removed, N=200))
    m = rng.randint(2, 7)
    out.append(_job("prop33", ["verify", "--suite", "prop33", "-m", str(m), "-N", "300"],
                    m=m, N=300))
    for k in (0, 1):
        elems = _primitive_set(rng, 2, 3, 8)
        out.append(_job("signs", ["signs", "-A", _render(elems), "-k", str(k), "-N", "200",
                                  "--normalized", "--detect", "20,60"],
                        set=elems, k=k, N=200, pre=20, period=60))
    return out


def _dominant_pair_is_clear(elems: list[int]) -> bool:
    """True when the two smallest-modulus roots of 1 + sum x^a are one
    non-real conjugate pair, well separated from every other root."""
    import numpy as np

    coeffs = [0] * (max(elems) + 1)
    coeffs[0] = 1
    for a in elems:
        coeffs[a] += 1
    roots = sorted(np.roots(coeffs[::-1]), key=abs)
    r0, r1, r2 = roots[0], roots[1], roots[2]
    return (abs(r0.imag) > 1e-3 and abs(r0 - r1.conjugate()) < 1e-9
            and abs(r2) - abs(r0) > 1e-2 * abs(r0))


def _not_all_odd_set(rng: random.Random, top: int) -> list[int]:
    """A part-set with largest part ``top`` holding at least one even part."""
    while True:
        elems = sorted({top, *rng.sample(range(1, top), rng.randint(1, top - 1))})
        if any(e % 2 == 0 for e in elems):
            return elems


def cyclotomic(n: int) -> list[int]:
    """Coefficients (constant term first) of the n-th cyclotomic polynomial."""
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            num = _exact_div(num, cyclotomic(d))
    return num


def _exact_div(a: list[int], b: list[int]) -> list[int]:
    a = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for i in range(len(q) - 1, -1, -1):
        q[i] = a[i + len(b) - 1] // b[-1]
        for j, c in enumerate(b):
            a[i + j] -= q[i] * c
    if any(a):
        raise ArithmeticError("inexact polynomial division")
    return q


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _certify(rng: random.Random) -> list[dict]:
    out = []
    for top in EXACT_DEGREES:
        while True:
            elems = _not_all_odd_set(rng, top)
            if _dominant_pair_is_clear(elems):
                break
        out.append(_job("nonperiodic", ["nonperiodic", "-A", _render(elems), "--exact"],
                        set=elems, exact=True, expect_exact=True))
    for top in NUMERIC_DEGREES:
        elems = _not_all_odd_set(rng, top)
        out.append(_job("nonperiodic", ["nonperiodic", "-A", _render(elems)],
                        set=elems, exact=False, expect_exact=False))
    seen = set()
    for i in range(3):
        while True:
            orders = tuple(sorted(rng.sample(CYCLO_ORDERS, rng.randint(1, 3))))
            poly = [1]
            for n in orders:
                poly = poly_mul(poly, cyclotomic(n))
            if 2 <= len(poly) - 1 <= 12 and orders not in seen:
                seen.add(orders)
                break
        exact = i % 2 == 0
        argv = ["nonperiodic", "-p", ",".join(str(c) for c in poly)]
        argv += ["--exact"] if exact else []
        out.append(_job("cyclotomic", argv, poly=poly, exact=exact))
    return out


def _scan(rng: random.Random) -> list[dict]:
    def enumerate_job(n, horizon):
        return _job("enumerate", ["enumerate", "-N", str(n), "--horizon", str(horizon),
                                  "--jobs", "1"], N=n, horizon=horizon)

    h = rng.randint(HORIZON_LO, HORIZON_HI)
    out = [enumerate_job(ENUM_PAIRED, h),
           enumerate_job(ENUM_PAIRED, HORIZON_LO + HORIZON_HI - h),
           enumerate_job(ENUM_LARGEST, (HORIZON_LO + HORIZON_HI) // 2)]
    # bulk tables, enough of them that the median job is a table job
    for n in (160, 200):
        elems = _primitive_set(rng, 1, 2, 6)
        out.append(_job("polys", ["polys", "-A", _render(elems), "-N", str(n)], set=elems, N=n))
    for n in (1500, 2000):
        elems = _primitive_set(rng, 1, 2, 8)
        out.append(_job("counts", ["counts", "-A", _render(elems), "-N", str(n)],
                        set=elems, N=n))
    return out


_GENERATORS = {"identities": _identities, "certify": _certify, "scan": _scan}


def job_list(workload: str, seed: int) -> list[dict]:
    """The seeded job list of a workload, in run order, with ids."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = _GENERATORS[workload](rng)
    rng.shuffle(jobs)
    for i, job in enumerate(jobs):
        job["id"] = f"{workload}-{i:02d}"
    return jobs


# untimed jobs run once per process environment before measuring, so every
# module the workload imports lazily is already compiled into the bench's
# bytecode cache when timing starts
WARMUP = {
    "identities": [["verify", "--suite", "section2", "-A", "{1,2}", "-N", "6"],
                   ["sk", "-A", "{1,2}", "-K", "1", "-N", "6", "--route", "all"]],
    "certify": [["nonperiodic", "-A", "{2,3}", "--exact"]],
    "scan": [["enumerate", "-N", "3", "--horizon", "12", "--jobs", "1"]],
}
