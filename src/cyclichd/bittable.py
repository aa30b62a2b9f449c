"""Implicit bit tables and column-wise cyclic shifts.

Column i (1-based) of the order-n bit table is the length-2^n list whose
entry at 1-based position j is bit i of j - 1.  Equivalently it is the
block pattern (0 repeated 2^(i-1), then 1 repeated 2^(i-1)) tiled 2^(n-i)
times.  Reading all n columns at row k spells out k in binary, so the
unshifted rows enumerate {0,1}^n; the point of this module is that the
rows stay pairwise distinct under *any* per-column cyclic shifts.

Everything is computed from the (i, n) description in O(1) big-integer
operations.  Nothing of size 2^n is allocated unless a caller explicitly
materializes rows, which is capped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence, TypeVar

from .errors import CapacityError, DomainError

if TYPE_CHECKING:
    import numpy as np

T = TypeVar("T")

# packed_rows stores 2^n row codes in an int64 array, so n is bounded by
# memory (this configurable cap) and, whatever the cap, by the 62-bit
# payload of an int64 row code.
MATERIALIZE_CAP = 24


@dataclass(frozen=True)
class BitColumn:
    """Column i of the order-n bit table, held implicitly as the pair (i, n).

    The column has period 2^i: one period is 2^(i-1) zeros followed by
    2^(i-1) ones, and 2^(n-i) periods tile the full length 2^n.
    """

    i: int
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DomainError(f"table order must be >= 1, got {self.n}")
        if not 1 <= self.i <= self.n:
            raise DomainError(f"column index {self.i} outside [1, {self.n}]")

    @property
    def length(self) -> int:
        return 1 << self.n

    @property
    def period(self) -> int:
        return 1 << self.i

    def bit_at(self, j: int) -> int:
        """Entry at 1-based position j, i.e. bit i of j - 1."""
        if not 1 <= j <= self.length:
            raise DomainError(f"position {j} outside [1, {self.length}]")
        return (j - 1) >> (self.i - 1) & 1

    def ones_prefix(self, t: int) -> int:
        """Number of ones among the first t entries of the periodic extension.

        t may exceed 2^n; since the period 2^i divides 2^n, the extension
        agrees with reading the column cyclically, which is what the
        wrap-around in contiguous_sum needs.
        """
        if t < 0:
            raise DomainError(f"prefix length must be >= 0, got {t}")
        half = 1 << (self.i - 1)
        full, rest = divmod(t, half << 1)
        return full * half + max(rest - half, 0)

    def contiguous_sum(self, start: int, length: int) -> int:
        """Sum of `length` consecutive entries from 0-based `start`, cyclically.

        Computed as a difference of two prefix counts, so a constant number
        of big-integer operations regardless of the window length.
        """
        if not 0 <= start < self.length:
            raise DomainError(f"start {start} outside [0, {self.length - 1}]")
        if not 0 <= length <= self.length:
            raise DomainError(f"window length {length} outside [0, {self.length}]")
        return self.ones_prefix(start + length) - self.ones_prefix(start)


def rotate(items: Sequence[T], k: int) -> list[T]:
    """Cyclic rotation: output position j holds input position (j + k) mod len.

    k may be any non-negative integer; it is reduced mod len(items).
    """
    if len(items) == 0:
        raise DomainError("cannot rotate an empty sequence")
    if k < 0:
        raise DomainError(f"rotation offset must be >= 0, got {k}")
    k %= len(items)
    return list(items[k:]) + list(items[:k])


@dataclass(frozen=True)
class ShiftVector:
    """Per-column cyclic offsets for the order-n table.

    Shifted column i reads original position (k + shifts[i-1]) mod 2^n at
    row k, matching rotate() applied to the materialized column.
    """

    n: int
    shifts: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DomainError(f"table order must be >= 1, got {self.n}")
        object.__setattr__(self, "shifts", tuple(self.shifts))
        if len(self.shifts) != self.n:
            raise DomainError(
                f"expected {self.n} shifts, got {len(self.shifts)}"
            )
        top = 1 << self.n
        for s in self.shifts:
            if not 0 <= s < top:
                raise DomainError(f"shift {s} outside [0, {top - 1}]")

    def row(self, k: int) -> tuple[int, ...]:
        """Row k (0-based) of the shifted table; entry i-1 is column i's bit."""
        if not 0 <= k < (1 << self.n):
            raise DomainError(f"row index {k} outside [0, {(1 << self.n) - 1}]")
        mask = (1 << self.n) - 1
        return tuple(
            ((k + s) & mask) >> b & 1 for b, s in enumerate(self.shifts)
        )


def packed_rows(shift: ShiftVector, max_order: int = MATERIALIZE_CAP) -> np.ndarray:
    """All 2^n rows of the shifted table, packed as integers.

    Row k is packed with column i's bit at position i - 1, so the unshifted
    table packs to 0, 1, ..., 2^n - 1.  Bit b of (k + s) mod 2^n *is*
    column b+1's shifted entry, already in place, so each column costs one
    vectorized add-and-mask.
    """
    n = shift.n
    limit = min(max_order, 62)
    if n > limit:
        raise CapacityError(f"order {n} exceeds materialization cap {limit}")
    import numpy as np

    mask = (1 << n) - 1
    k = np.arange(1 << n, dtype=np.int64)
    packed = np.zeros(1 << n, dtype=np.int64)
    for b, s in enumerate(shift.shifts):
        packed |= ((k + s) & mask) & (1 << b)
    return packed


def all_rows_distinct(shift: ShiftVector, max_order: int = MATERIALIZE_CAP) -> bool:
    """Whether the 2^n rows of the shifted table are pairwise distinct.

    Row codes live in [0, 2^n), so distinctness of 2^n of them is exactly
    surjectivity onto that range.
    """
    import numpy as np

    packed = packed_rows(shift, max_order)
    seen = np.zeros(packed.size, dtype=bool)
    seen[packed] = True
    return bool(seen.all())
