"""Counting cyclic hyper degrees: a superexponential lower bound.

One well-chosen window length already produces many sequences: take M with
binary expansion 1, 101, 10101, ... (alternating bits, sum of 4^j).  Then
M mod 2^i is never close to 0 or 2^i, so every column's attainable
interval stays wide: B_i = range_size(i, M) >= 2^(i-2) for i >= 2.  Any
combination of per-column values in those intervals, under any bijection,
is a cyclic hyper degree, so the count is at least prod_i B_i, which is at
least 2^((n-1)(n-2)/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .oracle import enumerate_chd
from .ranges import range_size


def lower_bound(n: int) -> int:
    """2^((n-1)(n-2)/2), exact."""
    if n < 1:
        raise DomainError(f"order must be >= 1, got {n}")
    return 1 << ((n - 1) * (n - 2) // 2)


def special_window_length(n: int) -> int:
    """M = sum of 4^j for j = 0..floor((n-1)/2): the alternating-bit integer
    0b...10101 with n or n-1 bits.  Always within [1, 2^n]."""
    if n < 1:
        raise DomainError(f"order must be >= 1, got {n}")
    return sum(1 << (2 * j) for j in range((n - 1) // 2 + 1))


@dataclass(frozen=True)
class LowerBoundReport:
    """Per-column interval sizes for the special window length and their
    product, compared against lower_bound(n)."""

    n: int
    M: int
    B: tuple[int, ...]
    product: int
    bound: int
    satisfied: bool


def lower_bound_report(n: int) -> LowerBoundReport:
    """Evaluate the lower-bound construction at order n (n >= 2)."""
    if n < 2:
        raise DomainError(f"report needs order >= 2, got {n}")
    M = special_window_length(n)
    B = tuple(range_size(i, M) for i in range(1, n + 1))
    prod = math.prod(B)
    bound = lower_bound(n)
    return LowerBoundReport(
        n=n, M=M, B=B, product=prod, bound=bound, satisfied=prod >= bound
    )


def product_digits(n: int) -> int:
    """Decimal digits of lower_bound_report(n).product, without building it.

    M mod 2^i is (4^ceil(i/2) - 1)/3, so B_i = (2^i + c_i)/3 with c_i = 2
    for even i and 4 for odd i, and the product's log10 is
    n(n+1)/2 log10 2 - n log10 3 + sum_i log10(1 + c_i 2^-i).  Terms past
    i = 64 are below 2^-62 and are left out.
    """
    if n < 1:
        raise DomainError(f"order must be >= 1, got {n}")
    tail = sum(math.log10(1 + (4 if i & 1 else 2) / 2**i)
               for i in range(1, min(n, 64) + 1))
    log10 = n * (n + 1) // 2 * math.log10(2) - n * math.log10(3) + tail
    return math.floor(log10) + 1


def exact_count(n: int) -> int:
    """Exact number of cyclic hyper degrees on n vertices (enumeration-backed,
    so subject to the enumeration cap)."""
    return len(enumerate_chd(n))
