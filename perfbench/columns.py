"""Window sums of bit-table columns, derived from the column's block shape.

Column i (1-based) of the order-n table has period 2^i: 2^(i-1) zeros, then
2^(i-1) ones.  Everything here follows from that shape alone and shares no
code with cyclichd, so the checker can recheck the program's answers and
the generators can plant inputs without asking the program under test.
"""

from __future__ import annotations


def ones(i: int, t: int) -> int:
    """Ones among the first t entries of column i, read periodically."""
    half = 1 << (i - 1)
    rest = t & ((half << 1) - 1)
    return (t >> i) * half + (rest - half if rest > half else 0)


def window_sum(i: int, start: int, N: int) -> int:
    """Sum of the N entries of column i from 0-based `start`, cyclically.

    The period 2^i divides the table length 2^n, so reading past the end of
    the table is the same as reading the periodic extension.
    """
    return ones(i, start + N) - ones(i, start)


def interval(i: int, N: int) -> tuple[int, int]:
    """[min, max] of the length-N window sums of column i.

    Moving the start one step right adds bit(s + N) and drops bit(s), so
    the sum moves by at most one.  On starts in [0, 2^(i-1)] the dropped
    bit is 0, so the sum never falls; on [2^(i-1), 2^i] the dropped bit is
    1, so it never rises.  The minimum is therefore at start 0, the maximum
    at start 2^(i-1), and every value between is attained.
    """
    return window_sum(i, 0, N), window_sum(i, 1 << (i - 1), N)


def candidate_lengths(degrees: tuple[int, ...]) -> list[int]:
    """Window lengths that can realize `degrees`, ascending.

    Column 1 alternates 0,1, so its window sum is floor(N/2) or ceil(N/2);
    whichever coordinate it serves forces N into {2v - 1, 2v, 2v + 1}.
    """
    top = 1 << len(degrees)
    return sorted({N for v in degrees for N in (2 * v - 1, 2 * v, 2 * v + 1)
                   if 1 <= N <= top})
