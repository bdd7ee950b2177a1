"""Part-set descriptions: finite lists, initial ranges, cofinite sets, repunits.

A part-set is an immutable description of a subset of the positive integers.
Every kind is described exactly by finite data, so membership and the
members up to any n are exact answers, for infinite families too.

A set also carries a horizon, which shows only in how it prints
(``render`` appends ``@H``); no query is limited by it.

Mini-language accepted by :func:`parse_spec`:

    {a,b,c}      explicit finite set (``{}`` is the empty set)
    1..m         the range {1, ..., m}
    N+\\{a,b}     all positive integers except a, b (``N+`` alone is all of them)
    repunit(m)   the family {(m^i - 1)/(m - 1) : i >= 1}, m >= 2

Any form takes an optional suffix ``@H`` setting the printed horizon
(default 1000).
"""

from __future__ import annotations

import re

from . import Record

DEFAULT_HORIZON = 1000

EXPLICIT = "explicit"
RANGE = "range"
COFINITE = "cofinite"
REPUNIT = "repunit"


class SpecError(ValueError):
    """Input refused: a malformed set or polynomial description, or a
    value outside what a computation accepts.  The CLI exits 3 on it; a
    broken invariant must raise anything else."""


def _check_elements(elems: tuple[int, ...], what: str) -> None:
    for e in elems:
        if not isinstance(e, int) or e < 1:
            raise SpecError(f"{what} must be positive integers, got {e!r}")
    for a, b in zip(elems, elems[1:]):
        if a == b:
            raise SpecError(f"duplicate {what[:-1]} {a}")
        if a > b:
            raise SpecError(f"{what} must be strictly increasing")


class SetSpec(Record):
    """Immutable description of a part-set; ``horizon`` shows only in
    ``render``."""

    kind: str
    data: tuple[int, ...]
    horizon: int = DEFAULT_HORIZON

    def __post_init__(self):
        if self.kind not in (EXPLICIT, RANGE, COFINITE, REPUNIT):
            raise SpecError(f"unknown set kind {self.kind!r}")
        if not isinstance(self.horizon, int) or self.horizon < 1:
            raise SpecError("horizon must be a positive integer")
        object.__setattr__(self, "data", tuple(self.data))
        if self.kind in (EXPLICIT, COFINITE):
            _check_elements(self.data, "elements")
        else:
            if len(self.data) != 1:
                raise SpecError(f"{self.kind} takes a single parameter")
            m = self.data[0]
            if self.kind == RANGE and m < 1:
                raise SpecError("range parameter must be >= 1")
            if self.kind == REPUNIT and m < 2:
                raise SpecError("repunit base must be >= 2")

    # -- basic queries ----------------------------------------------------

    @property
    def is_finite(self) -> bool:
        return self.kind in (EXPLICIT, RANGE)

    @property
    def is_empty(self) -> bool:
        return self.kind == EXPLICIT and not self.data

    def _check_n(self, n: int) -> None:
        if n < 0:
            raise SpecError("n must be non-negative")

    def contains(self, x: int) -> bool:
        self._check_n(x)
        if x < 1:
            return False
        if self.kind == EXPLICIT:
            return x in self.data
        if self.kind == RANGE:
            return x <= self.data[0]
        if self.kind == COFINITE:
            return x not in self.data
        return x in self._repunit_members(x)

    def _repunit_members(self, n: int) -> list[int]:
        m = self.data[0]
        out, v = [], 1
        while v <= n:
            out.append(v)
            v = v * m + 1  # (m^(i+1)-1)/(m-1) = m*(m^i-1)/(m-1) + 1
        return out

    def members_up_to(self, n: int | None = None) -> list[int]:
        """All elements of the set that are <= n, ascending; every element
        when n is None, which only a finite set has."""
        if n is None:
            if not self.is_finite:
                raise SpecError(f"{self.render()} is infinite; its members need a cap")
            n = max(self.data, default=0)
        self._check_n(n)
        if self.kind == EXPLICIT:
            return [a for a in self.data if a <= n]
        if self.kind == RANGE:
            return list(range(1, min(self.data[0], n) + 1))
        if self.kind == COFINITE:
            excluded = set(self.data)
            return [x for x in range(1, n + 1) if x not in excluded]
        return self._repunit_members(n)

    def min_element(self) -> int | None:
        """Smallest element, or None for the empty set."""
        if self.kind == EXPLICIT:
            return self.data[0] if self.data else None
        if self.kind in (RANGE, REPUNIT):
            return 1
        x = 1
        while x in self.data:
            x += 1
        return x

    def all_odd(self) -> bool:
        """True if every member is odd, decided for the whole set and not
        only up to the horizon: finite kinds read their members, a
        cofinite set holds even numbers, and repunit(m) is all odd iff m
        is even, since r_1 = 1 and r_(i+1) = m * r_i + 1."""
        if self.kind == COFINITE:
            return False
        if self.kind == REPUNIT:
            return self.data[0] % 2 == 0
        return all(a % 2 for a in self.members_up_to())

    # -- rendering --------------------------------------------------------

    def render(self) -> str:
        if self.kind == EXPLICIT:
            body = "{" + ",".join(str(a) for a in self.data) + "}"
        elif self.kind == RANGE:
            body = f"1..{self.data[0]}"
        elif self.kind == COFINITE:
            body = "N+\\{" + ",".join(str(a) for a in self.data) + "}"
        else:
            body = f"repunit({self.data[0]})"
        return f"{body}@{self.horizon}"

    def __str__(self) -> str:
        return self.render()


def explicit(elements, horizon: int = DEFAULT_HORIZON) -> SetSpec:
    return SetSpec(EXPLICIT, tuple(sorted(set(elements))), horizon)


_ELEMS = r"\{\s*((?:\d+\s*(?:,\s*\d+\s*)*)?)\}"
_RX_EXPLICIT = re.compile(r"^" + _ELEMS + r"$")
_RX_RANGE = re.compile(r"^1\.\.(\d+)$")
_RX_COFINITE = re.compile(r"^N\+(?:\\" + _ELEMS + r")?$")
_RX_REPUNIT = re.compile(r"^repunit\((\d+)\)$")


def _parse_elems(group: str) -> tuple[int, ...]:
    if not group.strip():
        return ()
    return tuple(int(tok) for tok in group.split(","))


def parse_spec(text: str, horizon: int | None = None) -> SetSpec:
    """Parse the set mini-language; ``@H`` suffix overrides ``horizon``."""
    body = text.strip()
    if "@" in body:
        body, _, tail = body.rpartition("@")
        body = body.strip()
        try:
            horizon = int(tail)
        except ValueError:
            raise SpecError(f"bad horizon suffix {tail!r} in {text!r}") from None
    if horizon is None:
        horizon = DEFAULT_HORIZON

    m = _RX_EXPLICIT.match(body)
    if m:
        return SetSpec(EXPLICIT, _parse_elems(m.group(1)), horizon)
    m = _RX_RANGE.match(body)
    if m:
        return SetSpec(RANGE, (int(m.group(1)),), horizon)
    m = _RX_COFINITE.match(body)
    if m:
        return SetSpec(COFINITE, _parse_elems(m.group(1) or ""), horizon)
    m = _RX_REPUNIT.match(body)
    if m:
        return SetSpec(REPUNIT, (int(m.group(1)),), horizon)
    raise SpecError(f"cannot parse set description {text!r}")


def e_prime(spec: SetSpec) -> SetSpec:
    """E union (E+1) for a finite explicit set E of even numbers.

    The parity precondition guarantees the two parts are disjoint, so the
    result has exactly 2*|E| elements.
    """
    if spec.kind != EXPLICIT:
        raise SpecError("e_prime needs a finite explicit set")
    for e in spec.data:
        if e % 2 == 1:
            raise SpecError(f"e_prime needs even elements only, got {e}")
    merged = sorted(set(spec.data) | {e + 1 for e in spec.data})
    return SetSpec(EXPLICIT, tuple(merged), spec.horizon)
