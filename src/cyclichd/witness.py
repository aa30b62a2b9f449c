"""Explicit hypergraph certificates for accepted degree sequences.

An accepting (N, perm) assignment fixes only that each degree lies in its
column's attainable interval.  This module upgrades it to a concrete
witness by choosing, per column i, a start offset s_i whose length-N
window sums to the assigned degree.  Edge k (0 <= k < N) is then the row
vector read with those offsets: vertex perm[i-1]+1 belongs to edge k iff
column i has a one at position (k + s_i) mod 2^n.  Rows of a shifted bit
table are pairwise distinct, so the N edges form a simple hypergraph whose
degree sequence is exactly w.

verify_witness rechecks all of that from scratch (window sums by prefix
counts, and for materializable N also edge distinctness and per-vertex
degrees, from each column read as runs); it shares no code with
solve_start's closed form or with materialize_edges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bittable import BitColumn
from .errors import CapacityError, DomainError
from .ranges import _bounds
from .recognizer import Assignment, DegreeSequence

DEFAULT_EDGE_CAP = 1 << 20


@dataclass(frozen=True)
class Witness:
    """Certificate (n, N, perm, starts): column i, read cyclically from
    0-based offset starts[i-1] for N rows, sums to the degree of coordinate
    perm[i-1].

    Construction performs no checking: verify_witness is the validator, and
    it must be able to receive (and reject) malformed certificates.
    """

    n: int
    N: int
    perm: tuple[int, ...]
    starts: tuple[int, ...]


def solve_start(i: int, N: int, v: int, n: int) -> int:
    """Smallest start s in [0, 2^(i-1)] whose length-N window of column i
    sums to v; v must lie in the column's attainable interval.

    Write N = q*2^i + r and h = 2^(i-1).  Full periods give every window
    q*h ones; for s in [0, h] the leftover r entries from s hold
    max(0, min(s + r - h, h)) ones, which starts at max(0, r - h) and grows
    by one per step.  So with d = v - q*h the answer is 0 when d equals that
    starting count (always for r = 0) and d + h - r otherwise.
    """
    col = BitColumn(i, n)
    lo_v, hi_v = _bounds(i, N)
    if not 1 <= N <= col.length:
        raise DomainError(f"window length {N} outside [1, {col.length}]")
    if not lo_v <= v <= hi_v:
        raise DomainError(f"target {v} outside attainable interval [{lo_v}, {hi_v}]")
    half = 1 << (i - 1)
    q, r = divmod(N, half << 1)
    d = v - q * half
    return 0 if d == max(0, r - half) else d + half - r


def build_witness(w: DegreeSequence, assignment: Assignment) -> Witness:
    """Canonical witness for an accepting assignment: per-column smallest
    start offsets for the assigned degrees."""
    n = w.n
    starts = tuple(
        solve_start(b + 1, assignment.N, w.entries[assignment.perm[b]], n)
        for b in range(n)
    )
    return Witness(n=n, N=assignment.N, perm=assignment.perm, starts=starts)


def materialize_edges(wit: Witness, cap: int = DEFAULT_EDGE_CAP) -> list[int]:
    """The N hyperedges as vertex bitmasks (bit v-1 set iff vertex v is in
    the edge).  Edge k takes column i's bit at position (k + starts[i-1])
    mod 2^n and places it at vertex perm[i-1] + 1.

    Raises DomainError for a malformed witness and CapacityError for
    N > cap; the witness itself stays valid then, only the edge list is
    refused.
    """
    n, N = wit.n, wit.N
    if n < 1 or len(wit.perm) != n or len(wit.starts) != n:
        raise DomainError("witness fields are inconsistent")
    if not 1 <= N <= (1 << n):
        raise DomainError(f"window length {N} outside [1, {1 << n}]")
    if sorted(wit.perm) != list(range(n)) or any(
            not 0 <= s < (1 << n) for s in wit.starts):
        raise DomainError("perm is not a bijection or a start is out of range")
    if N > cap:
        raise CapacityError(f"{N} edges exceed the materialization cap {cap}")
    # Vertex v fills bit v % 64 of word array v // 64.  Column b's bit at
    # row k is bit b of k + t, t = s mod 2^(b+1).  Rows stay below 2^L, so
    # for b > L it is read at bit c = L instead: t's top bit moves to bit L
    # and its low part keeps its distance past 2^b - 2^L, clipped at 0, so
    # every sum fits in 64 bits.
    L = N.bit_length()
    k = np.arange(N, dtype=np.uint64)
    words = np.zeros(((n + 63) // 64, N), dtype=np.uint64)
    for b, s in enumerate(wit.starts):
        c = min(b, L)
        t = s % (2 << b)
        phase = (t >> b << c) + max(0, (t % (1 << b)) - (1 << b) + (1 << c))
        bits = (k + np.uint64(phase)) >> np.uint64(c) & np.uint64(1)
        v = wit.perm[b]
        words[v >> 6] |= bits << np.uint64(v & 63)
    edges = words[0].tolist()
    for j in range(1, len(words)):
        edges = [e | x << (64 * j) for e, x in zip(edges, words[j].tolist())]
    return edges


def edge_vertices(mask: int) -> list[int]:
    """Sorted 1-based vertex list of an edge bitmask."""
    out = []
    v = 1
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return out


def verify_witness(
    w: DegreeSequence, wit: Witness, cap: int = DEFAULT_EDGE_CAP
) -> bool:
    """Recheck a certificate from scratch; False on any defect, never raises.

    Checks: consistent shape, integer fields, N in [1, 2^n], perm a
    bijection, starts in range, and every column's window sum equal to its
    assigned degree.  When N <= cap the N rows are also rebuilt and
    required to be pairwise distinct with per-vertex counts exactly w.
    """
    n = w.n
    if wit.n != n:
        return False
    try:
        N, perm, starts = wit.N, tuple(wit.perm), tuple(wit.starts)
    except TypeError:
        return False
    if not all(isinstance(x, int) and not isinstance(x, bool)
               for x in (N, *perm, *starts)):
        return False
    if len(perm) != n or len(starts) != n or sorted(perm) != list(range(n)):
        return False
    if not 1 <= N <= (1 << n) or any(not 0 <= s < (1 << n) for s in starts):
        return False
    if any(BitColumn(b + 1, n).contiguous_sum(starts[b], N) != w.entries[perm[b]]
           for b in range(n)):
        return False
    if N > cap:
        return True
    # Recount apart from materialize_edges: read each column's N rows as
    # alternating runs of 2^b zeros and ones, one bit per vertex in bytes.
    planes = np.zeros(((n + 7) // 8, N), dtype=np.uint8)
    for b in range(n):
        run = 1 << b
        t = starts[b] % (run << 1)
        head = min(run - t % run, N)
        count = 1 - (head - N) // run
        lengths = np.full(count, min(run, N))
        lengths[0] = head
        values = ((np.arange(count) + (t >= run)) & 1).astype(np.uint8)
        column = np.repeat(values, lengths)[:N]
        if np.count_nonzero(column) != w.entries[perm[b]]:
            return False
        planes[perm[b] >> 3] |= column << np.uint8(perm[b] & 7)
    rows = np.ascontiguousarray(planes.T).view(np.dtype((np.void, len(planes))))
    return np.unique(rows).size == N
