"""The benchmark's own correctness checks.

Every operation ends in exactly one verdict: None when the program's
answer is right, otherwise a short reason.  A "yes" must carry a
certificate that this module rechecks with its own window-sum code; a
"no" is compared with a reference decision that uses a different matching
algorithm (greedy point-to-interval assignment) from the program's
augmenting-path search.  All of this runs outside the timed region.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import repeat

from columns import candidate_lengths, interval, window_sum


class Tally:
    """Counts operations attempted and failed, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: Counter[str] = Counter()

    def record(self, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.reasons[problem] += 1

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def _matchable(points: list[int], N: int) -> bool:
    """Whether the sorted degrees `points` can be assigned one per column so
    that each lies in its column's interval for window length N."""
    n = len(points)
    spans = []
    reached: set[int] = set()
    for i in range(1, n + 1):
        lo, hi = interval(i, N)
        a, c = bisect_left(points, lo), bisect_right(points, hi)
        if len(reached) < n:
            reached.update(range(a, c))
        # Hall: columns 1..i must between them reach at least i degrees
        if len(reached) < i:
            return False
        spans.append((lo, hi))
    spans.sort()
    open_his: list[int] = []
    j = 0
    for p in points:
        while j < n and spans[j][0] <= p:
            heapq.heappush(open_his, spans[j][1])
            j += 1
        # the open interval ending first takes p; one ending before p can
        # never be served, since later points are larger
        if not open_his or open_his[0] < p:
            return False
        heapq.heappop(open_his)
    return True


def reference_decision(degrees: tuple[int, ...]) -> bool:
    """Is `degrees` a cyclic hyper degree?  Independent of cyclichd."""
    if max(degrees) > 1 << (len(degrees) - 1):
        return False
    points = sorted(degrees)
    return any(_matchable(points, N) for N in candidate_lengths(degrees))


def check_assignment(degrees: tuple[int, ...], N, perm) -> str | None:
    """Window length in range, perm a bijection, every degree attainable."""
    n = len(degrees)
    if not isinstance(N, int) or isinstance(N, bool) or not 1 <= N <= 1 << n:
        return "window length out of range"
    perm = list(perm)
    if sorted(perm) != list(range(n)):
        return "permutation is not a bijection"
    for b, j in enumerate(perm):
        lo, hi = interval(b + 1, N)
        if not lo <= degrees[j] <= hi:
            return "degree outside its column's interval"
    return None


def check_witness(degrees: tuple[int, ...], N, perm, starts) -> str | None:
    """The assignment checks, plus each column's window from its start
    summing to the degree it serves."""
    problem = check_assignment(degrees, N, perm)
    if problem is not None:
        return problem
    n = len(degrees)
    starts = list(starts)
    if len(starts) != n:
        return "wrong number of starts"
    for b, (j, s) in enumerate(zip(perm, starts)):
        if not isinstance(s, int) or not 0 <= s < 1 << n:
            return "start out of range"
        if window_sum(b + 1, s, N) != degrees[j]:
            return "window sum differs from degree"
    return None


_BIT = [bytes(x >> b & 1 for x in range(256)) for b in range(8)]


def _vertex_degrees(masks: list[int], n: int) -> list[int]:
    # per vertex: slice out its byte of every edge, map the byte to its bit,
    # count the ones; all of it runs in C, which matters at 10^5 edges
    width = (n + 7) // 8
    buf = b"".join(map(int.to_bytes, masks, repeat(width), repeat("little")))
    columns = [buf[k::width] for k in range(width)]
    return [columns[v >> 3].translate(_BIT[v & 7]).count(1) for v in range(n)]


def check_edges(degrees: tuple[int, ...], N: int, masks: list[int]) -> str | None:
    """N distinct edges on n vertices whose vertex degrees are `degrees`;
    `masks` are Python ints, bit v - 1 for vertex v."""
    n = len(degrees)
    if len(masks) != N:
        return "edge count differs from N"
    if masks and (min(masks) < 0 or max(masks) >= 1 << n):
        return "edge is not a vertex subset"
    if len(set(masks)) != N:
        return "edges are not distinct"
    if _vertex_degrees(masks, n) != list(degrees):
        return "edge degrees differ from the sequence"
    return None


def check_decision(case, accepted: bool) -> str | None:
    """A planted input must be accepted; a "no" must match the reference.
    The caller checks the certificate behind a "yes"."""
    if accepted:
        return None
    if case.planted:
        return "planted sequence rejected"
    if reference_decision(case.degrees):
        return "rejected a cyclic hyper degree"
    return None


def check_cli_document(case, code: int, doc) -> str | None:
    """`cyclichd witness --json --edges` output and exit code."""
    n = len(case.degrees)
    if not isinstance(doc, dict) or doc.get("n") != n:
        return "malformed document"
    if doc.get("degrees") != [str(v) for v in case.degrees]:
        return "document degrees differ from input"
    accepted = doc.get("is_cyclic_hyper_degree")
    if not isinstance(accepted, bool):
        return "malformed document"
    if code != (0 if accepted else 1):
        return "unexpected exit code"
    problem = check_decision(case, accepted)
    if problem is not None or not accepted:
        return problem
    try:
        N = doc["N"]
        perm = [p - 1 for p in doc["permutation"]]
        starts = [int(s) for s in doc["starts"]]
        masks = []
        for verts in doc["edges"]:
            if verts != sorted(set(verts)) or any(not 1 <= v <= n for v in verts):
                return "edge vertex list malformed"
            masks.append(sum(1 << (v - 1) for v in verts))
        empty_flag = doc["includes_empty_edge"]
    except (KeyError, TypeError, ValueError):
        return "malformed certificate"
    problem = check_witness(case.degrees, N, perm, starts)
    if problem is None:
        problem = check_edges(case.degrees, N, masks)
    if problem is None and empty_flag != (0 in masks):
        return "empty-edge flag wrong"
    return problem
