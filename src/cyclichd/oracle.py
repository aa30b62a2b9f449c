"""Brute-force ground truth at small scale.

These functions re-decide everything the fast modules decide, using only
direct scans and exhaustive search, so the closed forms and the recognizer
can be tested against them:

  * chd_bruteforce tries every window length N in [1, 2^n] (not just the
    O(n) candidates) and uses scanned window-sum sets (not the closed-form
    intervals) to look for a system of distinct representatives;
  * is_realizable decides exact simple-hypergraph realizability by dynamic
    programming over all 2^n distinct candidate edges;
  * enumerate_chd lists every cyclic hyper degree on n vertices.

Caps are deliberate: each function is exponential by design.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations, product
from typing import Sequence

from .errors import CapacityError
from .ranges import attained_set
from .recognizer import DegreeSequence, perfect_matching

BRUTEFORCE_CAP = 12
BACKTRACK_CAP = 8  # above this, matching replaces exhaustive backtracking
REALIZABLE_CAP = 5
ENUMERATE_CAP = 4


@lru_cache(maxsize=8192)
def _attained(i: int, N: int, n: int) -> frozenset[int]:
    return frozenset(attained_set(i, N, n))


def _sdr_backtrack(candidates: Sequence[Sequence[int]], n: int) -> bool:
    # exhaustive search for a system of distinct representatives:
    # candidates[b] lists the coordinates usable by column b+1
    order = sorted(range(n), key=lambda b: len(candidates[b]))
    used = [False] * n

    def go(t: int) -> bool:
        if t == n:
            return True
        for j in candidates[order[t]]:
            if not used[j]:
                used[j] = True
                if go(t + 1):
                    return True
                used[j] = False
        return False

    return go(0)


def _scipy_has_perfect(candidates: Sequence[Sequence[int]], n: int) -> bool:
    import numpy as np
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    indptr = [0]
    indices: list[int] = []
    for b in range(n):
        indices.extend(candidates[b])
        indptr.append(len(indices))
    graph = csr_matrix(
        (np.ones(len(indices), dtype=np.int8), indices, indptr), shape=(n, n)
    )
    match = maximum_bipartite_matching(graph, perm_type="column")
    return bool((match >= 0).all())


def chd_bruteforce(w: DegreeSequence) -> bool:
    """Exhaustive cyclic-hyper-degree decision, independent of the closed
    forms and of the candidate-length pruning.

    For every N in [1, 2^n], build each column's scanned window-sum set and
    ask whether the columns can pick distinct coordinates whose degrees
    they contain.  Up to order 8 the distinct-representative search is pure
    backtracking; above that, two independent matching implementations
    (augmenting paths and scipy's) are both consulted and must agree.
    """
    n = w.n
    if n > BRUTEFORCE_CAP:
        raise CapacityError(f"order {n} exceeds brute-force cap {BRUTEFORCE_CAP}")
    for N in range(1, (1 << n) + 1):
        sets = [_attained(i, N, n) for i in range(1, n + 1)]
        candidates = [
            [j for j in range(n) if w.entries[j] in sets[b]] for b in range(n)
        ]
        if any(len(c) == 0 for c in candidates):
            continue
        if n <= BACKTRACK_CAP:
            if _sdr_backtrack(candidates, n):
                return True
        else:
            ours = perfect_matching(candidates, n) is not None
            theirs = _scipy_has_perfect(candidates, n)
            if ours != theirs:
                raise RuntimeError(
                    f"matching implementations disagree at N={N}: "
                    f"{ours} vs {theirs}"
                )
            if ours:
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
    for N in range(1, (1 << n) + 1):
        sets = [sorted(_attained(i, N, n)) for i in range(1, n + 1)]
        for perm in permutations(range(n)):
            for combo in product(*sets):
                t = [0] * n
                for b in range(n):
                    t[perm[b]] = combo[b]
                out.add(tuple(t))
    return sorted(out)
