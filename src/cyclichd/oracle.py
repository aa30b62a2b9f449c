"""Brute-force ground truth at small scale.

These functions re-decide everything the fast modules decide, using only
direct scans and exhaustive search, so the closed forms and the recognizer
can be tested against them:

  * column_bits, window_sums and attained_set scan one column of the bit
    table, through prefix sums over the doubled column;
  * chd_bruteforce tries every window length N in [1, 2^n] (not just the
    O(n) candidates) against one table of scanned window-sum sets per
    order (not the closed-form intervals), and looks for a system of
    distinct representatives by exhaustive search;
  * is_realizable decides exact simple-hypergraph realizability by dynamic
    programming over all 2^n distinct candidate edges;
  * enumerate_chd lists every cyclic hyper degree on n vertices.

Nothing here uses the recognizer's candidate lengths or matching.  Caps
are deliberate: each function is exponential by design.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations, product
from typing import TYPE_CHECKING, Sequence

from .errors import CapacityError, DomainError
from .recognizer import DegreeSequence

if TYPE_CHECKING:
    import numpy as np

BRUTEFORCE_CAP = 12
REALIZABLE_CAP = 5
ENUMERATE_CAP = 4
# a scan materializes two copies of a 2^n column; tests and oracles only
SCAN_CAP = 20


def column_bits(i: int, n: int, max_order: int = SCAN_CAP) -> np.ndarray:
    """Column i of the order-n table, materialized (uint8, length 2^n)."""
    import numpy as np

    if n < 1:
        raise DomainError(f"table order must be >= 1, got {n}")
    if not 1 <= i <= n:
        raise DomainError(f"column index {i} outside [1, {n}]")
    if n > max_order:
        raise CapacityError(f"order {n} exceeds scan cap {max_order}")
    return ((np.arange(1 << n, dtype=np.int64) >> (i - 1)) & 1).astype(np.uint8)


def _prefix(i: int, n: int, max_order: int) -> np.ndarray:
    # prefix sums over the doubled column: the length-N window starting at
    # 0-based s sums to prefix[s + N] - prefix[s]
    import numpy as np

    bits = column_bits(i, n, max_order)
    doubled = np.concatenate([bits, bits])
    return np.concatenate([[0], np.cumsum(doubled, dtype=np.int64)])


def window_sums(i: int, N: int, n: int, max_order: int = SCAN_CAP) -> np.ndarray:
    """All 2^n cyclic window sums of length N of column i, by direct scan;
    sums[s] is the window starting at 0-based s.  0 <= N <= 2^n."""
    prefix = _prefix(i, n, max_order)
    size = 1 << n
    if not 0 <= N <= size:
        raise DomainError(f"window length {N} outside [0, {size}]")
    return prefix[N:N + size] - prefix[:size]


def attained_set(i: int, N: int, n: int, max_order: int = SCAN_CAP) -> set[int]:
    """Exact set of attainable window sums, by direct scan.

    This is the ground truth the closed-form interval is tested against;
    the recognizer never calls it.
    """
    import numpy as np

    # bit lengths, not 1 << n: an order past the cap must fail at once
    if N < 1 or (N - 1).bit_length() > n:
        raise DomainError(f"window length {N} outside [1, 2^{n}]")
    return {int(v) for v in np.unique(window_sums(i, N, n, max_order))}


@lru_cache(maxsize=BRUTEFORCE_CAP)
def _scan_table(n: int) -> tuple[tuple[int, ...], ...]:
    """Every scanned window-sum set of order n <= BRUTEFORCE_CAP: entry
    [N-1][i-1] has bit v set iff some length-N cyclic window of column i
    sums to v.  One prefix sum per column, then one scatter per N."""
    import numpy as np

    size = 1 << n
    columns = []
    for i in range(1, n + 1):
        prefix = _prefix(i, n, BRUTEFORCE_CAP)
        head = prefix[:size]
        seen = np.empty(size // 2 + 1, dtype=bool)  # a column has 2^(n-1) ones
        masks = []
        for N in range(1, size + 1):
            seen[:] = False
            seen[prefix[N:N + size] - head] = True
            packed = np.packbits(seen, bitorder="little").tobytes()
            masks.append(int.from_bytes(packed, "little"))
        columns.append(masks)
    return tuple(zip(*columns))


def _has_sdr(candidates: Sequence[Sequence[int]]) -> bool:
    """Whether column k can take coordinate candidates[k] for every k with
    no coordinate taken twice.  Exhaustive: after column k, reach holds
    every set of coordinates (as a bitmask) that columns 1..k can occupy."""
    reach = {0}
    for column in candidates:
        reach = {m | 1 << j for m in reach for j in column if not m >> j & 1}
        if not reach:
            return False
    return True


def chd_bruteforce(w: DegreeSequence) -> bool:
    """Exhaustive cyclic-hyper-degree decision, independent of the closed
    forms and of the candidate-length pruning.

    For every N in [1, 2^n], read each column's scanned window-sum set and
    ask whether the columns can pick distinct coordinates whose degrees
    they contain.  An N is left at the first column that contains no degree;
    column 1's set is {floor(N/2), ceil(N/2)}, so at most 3n values of N
    get past it.
    """
    n = w.n
    if n > BRUTEFORCE_CAP:
        raise CapacityError(f"order {n} exceeds brute-force cap {BRUTEFORCE_CAP}")
    coords = list(enumerate(w.entries))
    for masks in _scan_table(n):
        candidates = []
        for mask in masks:
            column = [j for j, v in coords if mask >> v & 1]
            if not column:
                break
            candidates.append(column)
        else:
            if _has_sdr(candidates):
                return True
    return False


def is_realizable(w: DegreeSequence) -> bool:
    """Whether some simple hypergraph on n vertices has degree sequence w.

    Candidate edges are the 2^n distinct binary n-vectors (the empty edge
    included), each usable at most once.  A use-or-skip dynamic program
    tracks every reachable partial degree vector; vectors exceeding w in
    any coordinate can never reach it (degrees only grow) and are pruned.
    """
    n = w.n
    if n > REALIZABLE_CAP:
        raise CapacityError(f"order {n} exceeds realizability cap {REALIZABLE_CAP}")
    if not w.within_entry_bound():
        return False
    target = w.entries
    states: set[tuple[int, ...]] = {(0,) * n}
    for m in range(1 << n):
        vec = tuple((m >> b) & 1 for b in range(n))
        added = set()
        for st in states:
            nxt = tuple(a + b for a, b in zip(st, vec))
            if all(x <= t for x, t in zip(nxt, target)):
                added.add(nxt)
        states |= added
        if target in states:
            return True
    return target in states


def realizable_set(n: int) -> set[tuple[int, ...]]:
    """All realizable degree sequences on n vertices, by the full subset-sum
    sweep over the 2^n candidate edges (no target, so no pruning)."""
    if n < 1:
        raise CapacityError(f"order must be >= 1, got {n}")
    if n > ENUMERATE_CAP:
        raise CapacityError(f"order {n} exceeds enumeration cap {ENUMERATE_CAP}")
    states: set[tuple[int, ...]] = {(0,) * n}
    for m in range(1 << n):
        vec = tuple((m >> b) & 1 for b in range(n))
        states |= {tuple(a + b for a, b in zip(st, vec)) for st in states}
    return states


def enumerate_chd(n: int) -> list[tuple[int, ...]]:
    """Every cyclic hyper degree on n vertices, ascending lexicographic.

    Constructive sweep: for each window length N and each column-to-
    coordinate bijection, every combination of per-column scanned window
    sums is a cyclic hyper degree, and all of them arise this way.
    """
    if n < 1:
        raise CapacityError(f"order must be >= 1, got {n}")
    if n > ENUMERATE_CAP:
        raise CapacityError(f"order {n} exceeds enumeration cap {ENUMERATE_CAP}")
    out: set[tuple[int, ...]] = set()
    for masks in _scan_table(n):
        sets = [[v for v in range(m.bit_length()) if m >> v & 1] for m in masks]
        for perm in permutations(range(n)):
            for combo in product(*sets):
                t = [0] * n
                for b in range(n):
                    t[perm[b]] = combo[b]
                out.add(tuple(t))
    return sorted(out)
