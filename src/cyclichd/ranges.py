"""Attainable cyclic window sums of bit-table columns, in closed form.

Fix column i (period p = 2^i, entries summing to p/2 per period) and a
window length N.  Write N = q*p + r.  Every window picks up q*p/2 ones
from full periods; the leftover r entries contribute between
max(r - p/2, 0) and min(r, p/2) ones depending on where the window
starts.  The attainable sums therefore form the closed integer interval

    [ q*p/2 + max(r - p/2, 0),  q*p/2 + min(r, p/2) ]

of size 1 + min(r, p - r), every value of which is attained.  range_of
and range_size evaluate this in O(1) big-integer operations; the oracle
module's attained_set recomputes the set by direct scan to test them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError


def _bounds(i: int, N: int) -> tuple[int, int]:
    # unvalidated closed-form [lo, hi]; hot path for the recognizer
    half = 1 << (i - 1)
    full, rest = divmod(N, half << 1)
    base = full * half
    lo = base + (rest - half if rest > half else 0)
    hi = base + (rest if rest < half else half)
    return lo, hi


@dataclass(frozen=True)
class SumRange:
    """Closed integer interval [lo, hi]; every integer in it is attained."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise DomainError(f"empty interval [{self.lo}, {self.hi}]")

    def __contains__(self, value: int) -> bool:
        return self.lo <= value <= self.hi

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1


def range_of(i: int, N: int, n: int) -> SumRange:
    """Attainable sums of length-N cyclic windows of column i, order n."""
    if n < 1:
        raise DomainError(f"table order must be >= 1, got {n}")
    if not 1 <= i <= n:
        raise DomainError(f"column index {i} outside [1, {n}]")
    # bit lengths, not 1 << n: n and i may be far too large to shift by
    if N < 1 or (N - 1).bit_length() > n:
        raise DomainError(f"window length {N} outside [1, 2^{n}]")
    if (N - 1).bit_length() < i:
        # N <= 2^(i-1): the window fits in one half period, every sum in [0, N]
        return SumRange(0, N)
    lo, hi = _bounds(i, N)
    return SumRange(lo, hi)


def range_size(i: int, N: int) -> int:
    """Number of distinct attainable sums: 1 + min(N mod 2^i, 2^i - N mod 2^i).

    Depends only on (i, N), so no table order is needed; agrees with
    range_of(i, N, n).size whenever N <= 2^n.
    """
    if i < 1:
        raise DomainError(f"column index must be >= 1, got {i}")
    if N < 1:
        raise DomainError(f"window length must be >= 1, got {N}")
    rest = N & ((1 << i) - 1)
    return 1 + min(rest, (1 << i) - rest)
