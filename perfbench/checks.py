"""Output checks for benchmark jobs, against ground truth computed here.

Nothing in this module imports compsigns.  The references are:

* a brute-force composition enumerator, for every cell with n <= BRUTE_N;
* a parts-by-count table built here, checked against the enumerator on
  each use and then used to regenerate whole count, triangle, S_k-grid
  and sign-word outputs byte for byte;
* the normalized k = 0 recurrence h(n) = sum_a (-1)^(a+1) h(n-a),
  h(0) = 1, for every reported violation of a subset scan, for every
  reported pass up to n = EARLY_N and for a sample of passes up to the
  horizon;
* theorems: every section2 identity, the union relation, Proposition 3.3,
  Theorem 3.4 and the subset-sum partition identity hold, so those
  reports must say "pass";
* a polynomial that is a product of cyclotomic polynomials has an
  eventually periodic reciprocal sign sequence, so the certifier must
  never call it NotEventuallyPeriodic;
* numpy's roots, for the dominant pair of every certified polynomial.

``check(job, code, out)`` returns None for a correct result and a
one-line reason otherwise.
"""

from __future__ import annotations

import json
import random

SCHEMA = "compsigns/1"
SET_HORIZON = 1000  # default query horizon of the set mini-language
BRUTE_N = 14
IDENTITY_NAMES = ("recurrence_weight", "reflection", "parity", "delta_q", "delta_self")
HORIZON_NOTE = ("horizon-limited: non-negativity beyond the scanned range "
                "is unverified")
NEP = "NotEventuallyPeriodic"
INCONCLUSIVE = "Inconclusive"
SCAN_SAMPLES = 48
EARLY_N = 24


class CheckError(Exception):
    pass


def _expect(cond: bool, why: str) -> None:
    if not cond:
        raise CheckError(why)


def _render(elems, horizon: int = SET_HORIZON) -> str:
    return "{" + ",".join(str(e) for e in elems) + "}" + f"@{horizon}"


def _json_text(blob) -> str:
    return json.dumps(blob, indent=2, sort_keys=True) + "\n"


def _canonical_json(text: str) -> dict:
    blob = json.loads(text)
    _expect(_json_text(blob) == text, "JSON is not in canonical form")
    _expect(blob.get("schema") == SCHEMA, "wrong schema tag")
    return blob


# -- composition references ------------------------------------------------


def brute_compositions(n: int, parts: list[int]):
    """Every composition of n into the given parts, as tuples."""
    if n == 0:
        yield ()
        return
    for a in parts:
        if a > n:
            break
        for rest in brute_compositions(n - a, parts):
            yield (a,) + rest


def brute_by_parts(n: int, parts: list[int]) -> list[int]:
    """c(i, n) for i = 0 .. n, by enumeration."""
    row = [0] * (n + 1)
    for comp in brute_compositions(n, parts):
        row[len(comp)] += 1
    return row


def parts_table(parts: list[int], n_max: int) -> list[list[int]]:
    """rows[n][i] = c(i, n), checked against the enumerator for n <= BRUTE_N."""
    rows = [[1]]
    for n in range(1, n_max + 1):
        row = [0] * (n + 1)
        for a in parts:
            if a <= n:
                for i, c in enumerate(rows[n - a]):
                    row[i + 1] += c
        rows.append(row)
    for n in range(min(n_max, BRUTE_N) + 1):
        _expect(rows[n] == brute_by_parts(n, parts), f"reference table wrong at n={n}")
    return rows


def sk_value(row: list[int], k: int) -> int:
    return sum((-1) ** i * i**k * c for i, c in enumerate(row))


def first_violation(parts: list[int], horizon: int) -> int | None:
    """Smallest n <= horizon with (-1)^n S_0(n) < 0, via the normalized
    recurrence h(n) = sum_a (-1)^(a+1) h(n-a)."""
    h = [1] + [0] * horizon
    for n in range(1, horizon + 1):
        h[n] = sum(h[n - a] if a % 2 else -h[n - a] for a in parts if a <= n)
        if h[n] < 0:
            return n
    return None


# -- per-kind checks ---------------------------------------------------------


def _same(out: str, expected: str) -> None:
    _expect(out == expected, f"expected {expected!r}")


def _check_section2(job, out):
    _same(out, "".join(f"{name}: pass\n" for name in IDENTITY_NAMES))


def _check_union(job, out):
    _same(out, f"union relation n <= {job['N']}: pass\n")


def _check_prop33(job, out):
    _same(out, f"range set 1..{job['m']} n <= {job['N']}: pass\n")


def _check_thm36(job, out):
    base = job["base"]
    sums = sorted(sum(b for i, b in enumerate(base) if mask >> i & 1)
                  for mask in range(1, 1 << len(base)))
    _same(out, f"base {_render(base)} -> set {_render(sums)}\n"
               f"partition identity n <= {job['N']}: pass\n")


def _check_thm34(job, out):
    _same(out, f"removed even set {_render(job['removed'])} n <= {job['N']} k <= 3\n"
               "identity: pass\nnon-negativity: pass\n")


def _check_sk(job, out):
    rows = parts_table(job["set"], job["N"])
    lines = ["k,n,S"]
    for k in range(job["K"] + 1):
        lines += [f"{k},{n},{sk_value(rows[n], k)}" for n in range(job["N"] + 1)]
    _expect(out == "\n".join(lines) + "\n", "S_k grid differs from the reference")


def _period_finding(word: str, max_pre: int, max_t: int) -> dict:
    """Lexicographically smallest (preperiod, period) consistent with the
    whole word, by trying every pair in order."""
    for pre in range(max_pre + 1):
        for t in range(1, max_t + 1):
            if all(word[n] == word[n - t] for n in range(pre + t, len(word))):
                return {"preperiod": pre, "period": t, "pattern": word[pre:pre + t],
                        "verdict": "ConsistentAtHorizon"}
    return {"preperiod": None, "period": None, "pattern": None, "verdict": "NoPeriodFound"}


def _check_signs(job, out):
    rows = parts_table(job["set"], job["N"])
    word = ""
    for n in range(job["N"] + 1):
        v = (-1) ** n * sk_value(rows[n], job["k"])
        word += "+" if v > 0 else "-" if v < 0 else "0"
    head, sep, tail = out.partition("\n")
    _expect(sep and head == word, "sign word differs from the reference")
    finding = {"schema": SCHEMA, **_period_finding(word, job["pre"], job["period"])}
    _expect(tail == _json_text(finding), "period finding differs from the reference")


def _check_counts(job, out):
    parts, n_max = job["set"], job["N"]
    c = [1] + [0] * n_max
    for n in range(1, n_max + 1):
        c[n] = sum(c[n - a] for a in parts if a <= n)
    for n in range(min(n_max, BRUTE_N) + 1):
        _expect(c[n] == sum(brute_by_parts(n, parts)), f"reference count wrong at n={n}")
    lines = ["n,c_A(n)"] + [f"{n},{v}" for n, v in enumerate(c)]
    _expect(out == "\n".join(lines) + "\n", "count table differs from the reference")


def _check_polys(job, out):
    rows = parts_table(job["set"], job["N"])
    lines = ["n,i,c_A(i,n)"]
    for n, row in enumerate(rows):
        lines += [f"{n},{i},{c}" for i, c in enumerate(row)]
    _expect(out == "\n".join(lines) + "\n", "triangle differs from the reference")


def _check_enumerate(job, out):
    n, horizon = job["N"], job["horizon"]
    header = "mask,k0_ok,first_violation\n"
    cut = out.find("}\n" + header)
    _expect(cut >= 0, "no verdicts CSV after the JSON")
    blob = _canonical_json(out[:cut + 2])
    csv = out[cut + 2:]
    _expect(blob["n"] == n and blob["horizon"] == horizon, "wrong n or horizon")
    _expect(blob["note"] == HORIZON_NOTE, "missing horizon-limited label")
    verdicts = blob["verdicts"]
    _expect(len(verdicts) == 1 << n, "wrong number of verdicts")
    lines = [header.rstrip("\n")]
    for mask, v in enumerate(verdicts):
        _expect(v["mask"] == mask, f"verdict {mask} out of order")
        _expect(v["members"] == [i + 1 for i in range(n) if mask >> i & 1],
                f"wrong members for mask {mask}")
        fv = v["first_violation"]
        _expect(fv is None or 1 <= fv <= horizon, f"first violation {fv} outside the horizon")
        _expect(v["k0_ok"] is (fv is None), f"k0_ok disagrees with first_violation at {mask}")
        lines.append(f"{mask},{str(fv is None).lower()},{'' if fv is None else fv}")
    _expect(blob["count"] == sum(v["k0_ok"] for v in verdicts), "wrong pass count")
    _expect(csv == "\n".join(lines) + "\n", "verdicts CSV disagrees with the JSON")
    # a reported violation is cheap to confirm, so every one is; a pass is
    # confirmed up to EARLY_N for every mask and to the horizon for a sample
    passing = []
    for mask, v in enumerate(verdicts):
        fv = v["first_violation"]
        want = first_violation(v["members"], fv if fv is not None else min(horizon, EARLY_N))
        _expect(want == fv, f"mask {mask}: first violation {fv}, want {want}")
        if fv is None:
            passing.append(mask)
    rng = random.Random(f"{n}:{horizon}")
    for mask in rng.sample(passing, min(SCAN_SAMPLES, len(passing))):
        want = first_violation(verdicts[mask]["members"], horizon)
        _expect(want is None, f"mask {mask}: passes, but first violation is {want}")


def _check_report(job, out, poly):
    blob = _canonical_json(out)
    _expect(blob["poly"] == [str(c) for c in poly], "report is about another polynomial")
    _expect(blob["verdict"] in (NEP, INCONCLUSIVE), f"unknown verdict {blob['verdict']!r}")
    _expect(blob["config"]["exact"] is job["exact"], "wrong exact flag in the config")
    _expect(bool(blob["reasons"]) is (blob["verdict"] == INCONCLUSIVE),
            "reasons disagree with the verdict")
    exact = blob["exact_test"]
    _expect(exact is None or job["exact"], "exact tier ran without --exact")
    _expect(exact is not None or not job.get("expect_exact"), "exact tier did not run")
    if exact is not None and exact["divisor_order"] is not None:
        _expect(blob["verdict"] == INCONCLUSIVE, "certified despite a cyclotomic divisor")
    if blob["verdict"] == NEP:
        _check_dominant(poly, blob["dominant"])
    return blob


def _check_dominant(poly, dom) -> None:
    """The certified pair must be numpy's pair of smallest-modulus roots."""
    import numpy as np

    roots = sorted(np.roots(poly[::-1]), key=abs)
    r0, r1 = roots[0], roots[1]
    _expect(abs(r0 - r1.conjugate()) < 1e-6 * abs(r0) and abs(r0.imag) > 0,
            "numpy finds no non-real dominant pair")
    got = complex(float(dom["re"]), float(dom["im"]))
    want = r0 if r0.imag > 0 else r1
    _expect(abs(got - want) < 1e-6 * abs(want), f"dominant root {got}, numpy says {want}")
    _expect(abs(float(dom["modulus"]) - abs(want)) < 1e-6 * abs(want), "wrong dominant modulus")


def _denominator(parts):
    coeffs = [0] * (max(parts) + 1)
    coeffs[0] = 1
    for a in parts:
        coeffs[a] += 1
    return coeffs


def _check_nonperiodic(job, out):
    return _check_report(job, out, _denominator(job["set"]))


def _check_cyclotomic(job, out):
    blob = _check_report(job, out, job["poly"])
    _expect(blob["verdict"] != NEP, "cyclotomic product certified NotEventuallyPeriodic")
    return blob


CHECKS = {
    "section2": _check_section2,
    "union": _check_union,
    "prop33": _check_prop33,
    "thm36": _check_thm36,
    "thm34": _check_thm34,
    "sk": _check_sk,
    "signs": _check_signs,
    "counts": _check_counts,
    "polys": _check_polys,
    "enumerate": _check_enumerate,
    "nonperiodic": _check_nonperiodic,
    "cyclotomic": _check_cyclotomic,
}


def expected_codes(job) -> tuple[int, ...]:
    """Certifier runs exit 0 or 2 (certified or not); everything else 0."""
    return (0, 2) if job["kind"] in ("nonperiodic", "cyclotomic") else (0,)


def check(job: dict, code: int, out: bytes) -> str | None:
    """None if the job's exit code and stdout are right, else why not."""
    if code not in expected_codes(job):
        return f"exit code {code}"
    try:
        text = out.decode()
        blob = CHECKS[job["kind"]](job, text)
        if blob is not None and (code == 0) is not (blob["verdict"] == NEP):
            return f"exit code {code} disagrees with verdict {blob['verdict']}"
    except CheckError as exc:
        return str(exc)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
    return None

