"""Sign words of the alternating sums and horizon-limited periodicity.

A sign word is a plain tuple over {-1, 0, +1}: the signs of one grid
row, usually normalized by (-1)^n (the natural frame in which the
closed-form patterns live).  render writes it over {+, 0, -}.
detect_period reports the lexicographically minimal (preperiod, period)
consistent with the observed word; it never claims more than consistency
at the horizon; certified non-periodicity lives in `nonperiodic`.

Built on top: the closed-form pattern check for the sets {1..m}, the
all-odd-set non-negativity check, and the even-m pattern probe whose
verdict is explicitly conjecture-consistency only.
"""

from __future__ import annotations


from . import Record, sets
from .compositions import comp_counts
from .sets import SetSpec, SpecError
from .sums import SkGrid, normalized_violation, sk_fast

CONSISTENT = "ConsistentAtHorizon"
NO_PERIOD = "NoPeriodFound"

_SIGN_CHARS = {1: "+", 0: "0", -1: "-"}

CONJECTURE_NOTE = (
    "conjecture-consistency only: the pattern matches at this horizon, "
    "which proves nothing beyond it")


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


def render(word: tuple[int, ...]) -> str:
    """A sign word as a string over {+, 0, -}, index n = symbol n."""
    return "".join(_SIGN_CHARS[s] for s in word)


def sign_word(grid: SkGrid, k: int, normalized: bool = True) -> tuple[int, ...]:
    """Sign word of row k: sign((-1)^n * S) if normalized, else sign(S)."""
    if not 0 <= k <= grid.K:
        raise ValueError(f"k={k} outside grid rows 0..{grid.K}")
    row = grid.normalized(k) if normalized else grid.row(k)
    return tuple(_sign(v) for v in row)


class PeriodFinding(Record):
    """Outcome of a horizon-limited periodicity scan.

    For ConsistentAtHorizon: word[n] = pattern[(n - preperiod) % period]
    for every observed n >= preperiod, and (preperiod, period) is the
    lexicographically smallest such pair within the scan bounds.  For
    NoPeriodFound all three data fields are None.
    """

    preperiod: int | None
    period: int | None
    pattern: tuple[int, ...] | None
    verdict: str

    def to_json(self) -> dict:
        """The fields, with the pattern written as render() writes a word."""
        data = super().to_json()
        if self.pattern is not None:
            data["pattern"] = render(self.pattern)
        return data


def detect_period(word: tuple[int, ...], max_pre: int, max_t: int) -> PeriodFinding:
    """Smallest (preperiod, period) consistent with the whole word.

    For each candidate period T the minimal feasible preperiod is
    1 + (position of the last n with word[n] != word[n-T]) - T, found by
    scanning from the end; the answer minimizes (preperiod, period)
    lexicographically.  Requires max_pre + 2*max_t <= len(word) so any
    reported pattern repeats at least twice beyond the preperiod.
    """
    if max_pre < 0 or max_t < 1:
        raise SpecError("need max_pre >= 0 and max_t >= 1")
    length = len(word)
    if max_pre + 2 * max_t > length:
        raise SpecError(
            f"word of length {length} too short for max_pre={max_pre}, "
            f"max_t={max_t} (need max_pre + 2*max_t <= length)")
    best: tuple[int, int] | None = None
    for t in range(1, max_t + 1):
        pre = 0
        for n in range(length - 1, t - 1, -1):
            if word[n] != word[n - t]:
                pre = n - t + 1
                break
        if pre <= max_pre and (best is None or (pre, t) < best):
            best = (pre, t)
    if best is None:
        return PeriodFinding(None, None, None, NO_PERIOD)
    pre, t = best
    return PeriodFinding(pre, t, word[pre:pre + t], CONSISTENT)


# -- closed-form pattern checks ----------------------------------------------


def range_block(m: int, length: int) -> tuple[int, ...]:
    """The first ``length`` symbols (at most the whole block) of the
    repeating block of the k=0 normalized word for the part-set {1..m}:
    (1, 1, 0_{m-1}) for odd m, (1, 1, 0_{m-1}, -1, -1, 0_{m-1}) for even m."""
    if m < 1:
        raise SpecError("m must be >= 1")
    size = min(length, (m + 1) * (2 - m % 2))
    # each run of m + 1 symbols opens with two signs: + in run 0, - in run 1
    return tuple(((1 if r <= m else -1) if r % (m + 1) < 2 else 0) for r in range(size))


class PatternCheck(Record):
    m: int
    upto: int
    passed: bool
    first_mismatch: int | None
    expected_block: tuple[int, ...]  # the block's first upto + 1 symbols at most


def check_range_set_pattern(m: int, upto: int) -> PatternCheck:
    """Compare the computed k=0 normalized word of {1..m} with its
    closed-form block, from n = 0 (no preperiod).  The block is built only
    as far as the word reaches, so that a large m costs nothing extra."""
    block = range_block(m, upto + 1)
    word = sign_word(sk_fast(SetSpec(sets.RANGE, (m,)), 0, upto), 0, normalized=True)
    mismatch = None
    for n, s in enumerate(word):
        if s != block[n % len(block)]:
            mismatch = n
            break
    return PatternCheck(m, upto, mismatch is None, mismatch, block)


class OddSetCheck(Record):
    set: SetSpec
    upto: int
    k_max: int
    count_identity_mismatch: int | None
    negative_at: tuple[int, int] | None
    passed: bool


def check_odd_set(spec: SetSpec, upto: int, k_max: int = 4) -> OddSetCheck:
    """For an all-odd part-set: (-1)^n S_0(n) must equal the plain count
    c(n), and no normalized word up to k_max may contain -1."""
    if not spec.all_odd():
        raise SpecError(f"{spec.render()} has an even member")
    grid = sk_fast(spec, k_max, upto)
    counts = comp_counts(spec, upto)
    identity_bad = None
    for n, v in enumerate(grid.normalized(0)):
        if v != counts[n]:
            identity_bad = n
            break
    negative_at = normalized_violation(grid)
    return OddSetCheck(spec, upto, k_max,
                       identity_bad, negative_at,
                       identity_bad is None and negative_at is None)


class ConjectureCheck(Record):
    m: int
    k: int
    upto: int
    finding: PeriodFinding
    consistent: bool
    note: str


def check_even_range_conjecture(
    m: int,
    k: int,
    upto: int,
    max_pre: int | None = None,
    max_t: int | None = None,
) -> ConjectureCheck:
    """Probe whether the k-th normalized word of {1..m} (m even) looks
    eventually periodic with block (1_{m+1}, (-1)_{m+1}).

    `consistent` means: detect_period found a period equal to 2(m+1) whose
    pattern is a cyclic rotation of that block.  This is a horizon
    observation, never a proof; the note says so.
    """
    if m < 2 or m % 2 == 1:
        raise ValueError("m must be even and >= 2")
    if k < 0:
        raise ValueError("k must be non-negative")
    word = sign_word(sk_fast(SetSpec(sets.RANGE, (m,)), k, upto), k, normalized=True)
    length = len(word)
    if max_pre is None:
        max_pre = length // 4
    if max_t is None:
        max_t = (length - max_pre) // 2
    finding = detect_period(word, max_pre, max_t)
    target = (1,) * (m + 1) + (-1,) * (m + 1)
    consistent = (
        finding.verdict == CONSISTENT
        and finding.period == len(target)
        and _is_rotation(finding.pattern, target)
    )
    return ConjectureCheck(m, k, upto, finding, consistent, CONJECTURE_NOTE)


def _is_rotation(a: tuple[int, ...] | None, b: tuple[int, ...]) -> bool:
    if a is None or len(a) != len(b):
        return False
    return any(a == b[i:] + b[:i] for i in range(len(b)))
