"""Seeded input families.

Inputs come only from the benchmark's own column arithmetic (columns.py),
so the program under test never helps choose the inputs it is judged on.

  * planted:   a window length N, a bijection and one attainable value per
               column; a cyclic hyper degree by construction.
  * near_miss: a planted sequence with one coordinate pushed one step past
               its column's interval; this defeats early abort, and many
               are still accepted through another N or bijection.
  * uniform:   every degree uniform in [0, 2^(n-1)], the entry bound; almost
               all are rejected, after trying every candidate N.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from columns import interval


@dataclass(frozen=True)
class Case:
    family: str
    degrees: tuple[int, ...]

    @property
    def planted(self) -> bool:
        return self.family == "planted"


def _plant(rng: random.Random, n: int, N: int) -> tuple[list[int], list[int]]:
    perm = list(range(n))
    rng.shuffle(perm)
    w = [0] * n
    for b in range(n):
        lo, hi = interval(b + 1, N)
        w[perm[b]] = rng.randint(lo, hi)
    return w, perm


def planted(rng: random.Random, n: int, N: int | None = None) -> Case:
    if N is None:
        N = rng.randint(1, 1 << n)
    w, _ = _plant(rng, n, N)
    return Case("planted", tuple(w))


def near_miss(rng: random.Random, n: int) -> Case:
    N = rng.randint(1, 1 << n)
    w, perm = _plant(rng, n, N)
    cap = 1 << (n - 1)
    while True:
        b = rng.randrange(n)
        lo, hi = interval(b + 1, N)
        outside = [v for v in (lo - 1, hi + 1) if 0 <= v <= cap]
        if outside:
            w[perm[b]] = rng.choice(outside)
            return Case("near_miss", tuple(w))


def uniform(rng: random.Random, n: int) -> Case:
    cap = 1 << (n - 1)
    return Case("uniform", tuple(rng.randint(0, cap) for _ in range(n)))
