"""Search and verification experiments around the sign results.

Four families live here:

* verify_cofinite_even_complement: for A = everything except a finite
  even set E, the normalized k = 0 sums equal a two-term count over
  E' = E union (E+1), and the low-k normalized rows stay non-negative.
* construct_distinct_subset_sums / verify_distinct_subset_sums: an odd
  set B with pairwise-distinct nonempty subset sums yields the part-set
  A of those sums, whose normalized k = 0 sums equal the partition
  counts of B.
* enumerate_F: scan every subset of {1..N} for non-negativity of the
  normalized k = 0 word up to a horizon.  Row 0 decides membership:
  non-negativity there propagates to every k by the weighted-moment
  identity, and k = 0 is itself one of the required rows.  A subset is
  decided in one of three ways (enumerate_F's docstring has the proofs):
  a pass or carry rule reads a subset decided before it; else the kernel
  proves it non-negative for every n from its parts alone; else the
  kernel runs its word up to the horizon.  The result keeps one datum per
  subset, indexed by its bit mask: the first failing n, or None for a pass.
* union_relation_check and repunit_extension_experiment: the
  reciprocal-series relation for disjoint unions and the
  repunit-plus-base probe.

Every horizon-limited answer is labelled as such: deciding
non-negativity for ALL n is the Positivity Problem for linear
recurrences, which no amount of scanning settles.
"""

from __future__ import annotations

import itertools

from . import SCHEMA, Record
from ._backend import first_violation, series_inv_int, sk_rows
from .sets import COFINITE, EXPLICIT, REPUNIT, SetSpec, SpecError, e_prime, explicit

MASK_BUDGET = 22  # enumerate_F scans at most 2^MASK_BUDGET subsets

HORIZON_NOTE = ("horizon-limited: non-negativity beyond the scanned range "
                "is unverified")


# -- cofinite sets missing a finite even set ----------------------------------


class CofiniteCheck(Record):
    removed: SetSpec           # E, the even parts missing from A
    upto: int
    k_max: int
    identity_mismatch: int | None  # first n where the two-term count fails
    negative_at: tuple[int, int] | None  # first (k, n) with a negative value

    @property
    def passed(self) -> bool:
        return self.identity_mismatch is None and self.negative_at is None


def verify_cofinite_even_complement(E: SetSpec, upto: int, k_max: int = 3) -> CofiniteCheck:
    """Check A = positive integers minus E (E finite, even elements only).

    Two claims: (-1)^n S_{A,0}(n) = c_{E'}(n) + c_{E'}(n-1) for
    1 <= n <= upto with E' = e_prime(E), and (-1)^n S_{A,k}(n) >= 0 for
    all k <= k_max.
    """
    from .compositions import comp_counts
    from .sums import normalized_violation, sk_fast

    if E.kind != EXPLICIT:
        raise SpecError("need a finite explicit set of even numbers")
    eprime = e_prime(E)  # rejects odd elements
    if upto < 1:
        raise SpecError("upto must be >= 1")
    grid = sk_fast(SetSpec(COFINITE, E.data), k_max, upto)
    counts = comp_counts(eprime, upto)

    mismatch = None
    row = grid.normalized(0)
    for n in range(1, upto + 1):
        if row[n] != counts[n] + counts[n - 1]:
            mismatch = n
            break

    return CofiniteCheck(E, upto, k_max, mismatch, normalized_violation(grid))


# -- odd sets with distinct subset sums ----------------------------------------


def _subset_sums(elems: tuple[int, ...]) -> list[int]:
    sums = []
    for r in range(1, len(elems) + 1):
        for combo in itertools.combinations(elems, r):
            sums.append(sum(combo))
    return sums


def construct_distinct_subset_sums(B: SetSpec) -> SetSpec:
    """A = all nonempty subset sums of B.

    B must be finite, odd-elements-only, with pairwise distinct subset
    sums (equivalently: prod over b of (1 + x^b), minus 1, has all
    coefficients 0 or 1).  Those are the hypotheses under which the
    normalized k = 0 sums of A become the partition counts of B.
    """
    if B.kind != EXPLICIT:
        raise SpecError("need a finite explicit set")
    for b in B.data:
        if b % 2 == 0:
            raise SpecError(f"element {b} is even; the construction needs odd parts")
    sums = _subset_sums(B.data)
    if len(set(sums)) != len(sums):
        dup = next(s for s in sums if sums.count(s) > 1)
        raise SpecError(f"subset sums collide (sum {dup} repeats)")
    return explicit(sums, horizon=B.horizon)


class SubsetSumCheck(Record):
    base: SetSpec              # B
    constructed: SetSpec       # A, the subset-sum set
    upto: int
    mismatch_at: int | None    # first n where (-1)^n S_0(n) != p_B(n)

    @property
    def passed(self) -> bool:
        return self.mismatch_at is None


def verify_distinct_subset_sums(B: SetSpec, upto: int) -> SubsetSumCheck:
    """(-1)^n S_{A,0}(n) = p_B(n) for n <= upto, A the subset-sum set."""
    from .compositions import partition_counts
    from .sums import sk_fast

    a_spec = construct_distinct_subset_sums(B)
    row = sk_fast(a_spec, 0, upto).normalized(0)
    parts = partition_counts(B, upto)
    mismatch = None
    for n, lhs in enumerate(row):
        if lhs != parts[n]:
            mismatch = n
            break
    return SubsetSumCheck(B, a_spec, upto, mismatch)


# -- F(N): subsets whose normalized word stays non-negative --------------------


class EnumerationResult(Record):
    n: int
    horizon: int
    count: int                     # subsets with no violation <= horizon
    # indexed by mask (bit i-1 set = element i present): the smallest
    # failing n, or None when the subset passes up to the horizon
    first_violations: tuple[int | None, ...]
    note: str = HORIZON_NOTE


def _mask_members(mask: int, n: int) -> list[int]:
    return [i + 1 for i in range(n) if mask >> i & 1]


def _sweep(n: int, horizon: int) -> tuple[int | None, ...]:
    """First violation of every subset of {1..n} by mask, None for a pass,
    decided in one process in key order by the rules in enumerate_F's
    docstring; the kernel runs on the masks no rule decides."""
    passed = horizon + 1  # a pass: above every first violation and, as horizon >= 4n, every part
    even = sum(1 << i for i in range(1, n, 2))  # bit i-1 is element i

    def kernel(key):
        fv = first_violation(_mask_members(key ^ even, n), horizon)
        return passed if fv < 0 else fv

    keyed = [kernel(0)]
    for t in range(n):
        # keys top + j, j < top, form one block.  Clearing bit t of a key
        # gives key j, decided already, and toggles part t + 1: j decides
        # the key if it passes or fails first at n0 <= t; 0 marks the rest
        top = 1 << t
        block = [v if v <= t or v == passed else 0 for v in keyed]
        for j, v in enumerate(block):
            if v:
                continue
            # ascending, so the other predecessors top + j - 2^i of the
            # key are decided too
            for i in range(t):
                if j >> i & 1:
                    v = block[j ^ 1 << i]
                    if v == passed or v <= i:  # clearing bit i toggles part i + 1
                        break
            else:
                v = kernel(top + j)
            block[j] = v
        keyed += block
    return tuple(None if v == passed else v
                 for v in map(keyed.__getitem__, map(even.__xor__, range(1 << n))))


def enumerate_F(n: int, horizon: int) -> EnumerationResult:
    """Scan all 2^n subsets of {1..n} (the empty set included).

    A subset passes when its normalized k = 0 word has no negative entry
    up to the horizon; the count is only a horizon-certified candidate
    for the true all-n quantity.

    Two rules decide most subsets without running the kernel, and the
    kernel proves some of the rest for every n without running its word.
    The word of A is the series 1/q_A with q_A(x) = 1 + sum over a in A
    of (-x)^a.

    * Pass: if 1/q has non-negative coefficients up to the horizon and h
      has non-negative coefficients, so has 1/(q - h) =
      sum_j h^j / q^(j+1), whose coefficients up to the horizon are sums
      of products of those of h and 1/q.  Adding an odd part b to A gives
      q_A - x^b, and removing an even part e gives q_A - x^e: either way
      a passing set stays passing.
    * Carry: the coefficient of x^m in 1/q depends only on those of q up
      to x^m, so A and A with part x toggled have the same word below x.
      A first violation n0 < x of one is the first violation of the other.
    * Proof: a set whose least part d is odd passes for every n when, its
      other parts counted upward, no residue class mod d ever holds more
      even parts than odd ones (``_backend.first_violation`` proves it).

    The scan visits key k = 0 .. 2^n - 1 as the mask k ^ E, E the bits of
    the even elements.  Clearing a set bit of a key either removes an odd
    part or adds an even part, so every predecessor of a key comes
    earlier.  A key passes if a predecessor passes, else it takes the
    first violation n0 of a predecessor that toggles a part x > n0, and
    only else goes to the kernel.  The scan runs in one process.
    """
    if n < 0:
        raise SpecError("n must be >= 0")
    if n > MASK_BUDGET:
        raise SpecError(f"n={n} exceeds the 2^{MASK_BUDGET}-subset budget")
    if horizon < 4 * n:
        raise SpecError(f"horizon {horizon} too short; need >= {4 * n}")
    first_violations = _sweep(n, horizon)
    return EnumerationResult(n, horizon, first_violations.count(None), first_violations)


# rows per write call of the two writers below: a few KB to a few tens of
# KB per call, whatever the scan size
_CHUNK_BITS = 8

# one verdict object as json.dumps(indent=2, sort_keys=True) prints it
# inside the top-level "verdicts" list, preceded by the list separator:
# _OPEN, the verdict, _MASK, the mask, _MEMBERS, the member list, _CLOSE
_OPEN = ',\n    {\n      "first_violation": '
_MASK = ',\n      "mask": '
_MEMBERS = ',\n      "members": '
_CLOSE = "\n    }"
_ITEM = ",\n        "


def enumeration_json(result: EnumerationResult, write) -> None:
    """Write enumerate.json through ``write``, byte for byte what
    ``json.dumps(blob, indent=2, sort_keys=True) + "\\n"`` prints for the
    scan's blob, one block of 2^_CHUNK_BITS masks per call."""
    import json

    header = {"count": result.count, "horizon": result.horizon, "n": result.n,
              "note": result.note, "schema": SCHEMA}
    write("{\n" + "".join(f"  {json.dumps(k)}: {json.dumps(v)},\n"
                           for k, v in sorted(header.items()))
          + '  "verdicts": [')
    fvs = result.first_violations
    # each distinct first violation, with the text from _OPEN to the mask
    verdict = {fv: _OPEN + ('null,\n      "k0_ok": true' if fv is None
                            else f'{fv},\n      "k0_ok": false') + _MASK
               for fv in set(fvs)}
    # a mask splits into its low _CHUNK_BITS bits, which index one row of a
    # block, and its high bits, which are the same for the whole block
    low = min(result.n, _CHUNK_BITS)
    low_items = [_ITEM.join(map(str, _mask_members(m, low))) for m in range(1 << low)]
    # the member list is opened by the low members, closed by the high ones
    opened = [_MEMBERS + "[\n        " + (items + _ITEM if items else "") for items in low_items]
    alone = [_MEMBERS + ("[\n        " + items + "\n      ]" if items else "[]") + _CLOSE
             for items in low_items]
    size = 1 << low
    for high in range(1 << (result.n - low)):
        base = high << low
        high_items = _ITEM.join(str(i + low) for i in _mask_members(high, result.n - low))
        if high_items:
            closing = high_items + "\n      ]" + _CLOSE
            tails = [t + closing for t in opened]
        else:
            tails = alone
        text = "".join([verdict[fv] + str(mask) + tail for fv, mask, tail in
                        zip(fvs[base:base + size], range(base, base + size), tails)])
        write(text[1:] if high == 0 else text)  # no separator before the first row
    write("\n  ]\n}\n")


def verdicts_csv(result: EnumerationResult, write) -> None:
    """Write verdicts.csv through ``write``, one block of 2^_CHUNK_BITS
    masks per call."""
    write("mask,k0_ok,first_violation\n")
    fvs = result.first_violations
    step = 1 << _CHUNK_BITS
    for lo in range(0, len(fvs), step):
        write("".join(f"{mask},true,\n" if fv is None else f"{mask},false,{fv}\n"
                      for mask, fv in enumerate(fvs[lo:lo + step], lo)))


# -- the reciprocal-series relation for disjoint unions ------------------------


def union_relation_check(A: SetSpec, B: SetSpec, upto: int) -> bool:
    """inv_A + inv_B - inv_{A u B} = 1 as series through order upto,
    where inv_X is the series inverse of sum over n of c_X(n) x^n; also
    checked for the alternating variant (counts weighted by parity of
    the part number).  A and B must be disjoint up to upto.
    """
    ma = set(A.members_up_to(upto))
    mb = set(B.members_up_to(upto))
    if ma & mb:
        raise SpecError(f"sets share {sorted(ma & mb)[:3]}; need disjoint sets")
    union = explicit(ma | mb)

    for t in (1, -1):
        inv = []
        for spec in (A, B, union):
            series = sk_rows(spec.members_up_to(upto), 0, upto, t)[0]
            inv.append(series_inv_int(series, upto))
        for n in range(upto + 1):
            want = 1 if n == 0 else 0
            if inv[0][n] + inv[1][n] - inv[2][n] != want:
                return False
    return True


# -- repunit-plus-base probe ----------------------------------------------------


class RepunitProbe(Record):
    m: int
    horizon: int
    members: tuple[int, ...]
    first_violation: int | None
    note: str = HORIZON_NOTE

    @property
    def passed(self) -> bool:
        return self.first_violation is None


def repunit_extension_experiment(m: int, horizon: int) -> RepunitProbe:
    """Probe A = {base-m repunits} u {m} for normalized non-negativity.

    The repunits are all odd, m even, m > 3; whether the union passes
    for every n is open, so this only reports the scan.
    """
    if m % 2 == 1 or m <= 3:
        raise SpecError("need even m > 3")
    members = sorted(set(SetSpec(REPUNIT, (m,)).members_up_to(horizon)) | {m})
    fv = first_violation(members, horizon)
    return RepunitProbe(m, horizon, tuple(members),
                        None if fv < 0 else fv)
