"""Shared test helpers: pure-Python scan oracles and a planted generator.

The oracles here deliberately avoid the package's closed forms: columns are
built from their block definition and window sums by literal iteration, so
tests compare two independent computations.
"""

from __future__ import annotations

import random

from cyclichd import DegreeSequence, range_of


def column_list(i: int, n: int) -> list[int]:
    """Column i of the order-n table as a plain list, from the block shape."""
    half = 1 << (i - 1)
    block = [0] * half + [1] * half
    return block * (1 << (n - i))


def cyclic_window_sum(bits: list[int], start: int, length: int) -> int:
    """Sum of a cyclic window by literal iteration."""
    m = len(bits)
    return sum(bits[(start + t) % m] for t in range(length))


def planted_sequence(
    rng: random.Random, n: int, max_N: int | None = None
) -> DegreeSequence:
    """Random degree sequence with a hidden accepting assignment.

    Draws a window length (at most max_N when given), a bijection and one
    attainable value per column, so the result is a cyclic hyper degree by
    construction and the recognizer must accept it.
    """
    N = rng.randint(1, 1 << n if max_N is None else min(1 << n, max_N))
    perm = list(range(n))
    rng.shuffle(perm)
    w = [0] * n
    for b in range(n):
        r = range_of(b + 1, N, n)
        w[perm[b]] = rng.randint(r.lo, r.hi)
    return DegreeSequence(tuple(w))
