"""Self-verification suites behind the `verify` CLI command.

Each suite cross-checks a fast component against an independent slow one
and reports counts rather than raising, so a user can run a quick health
check on an installed copy.  Orders up to 4 are checked exhaustively;
5..12 by seeded sampling (the brute-force oracle is the limit); beyond 12
there is no oracle to compare against.  The samples are a third each
uniform, planted and near-miss sequences.  Planted ones come from the
oracle's own scanned window sums, not from the closed form, so the suite
also compares "yes" answers and verifies their witnesses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .bittable import ShiftVector, all_rows_distinct
from .errors import CapacityError
from .oracle import (
    BRUTEFORCE_CAP,
    ENUMERATE_CAP,
    _scan_table,
    chd_bruteforce,
    enumerate_chd,
    realizable_set,
)
from .recognizer import DegreeSequence, recognize
from .witness import build_witness, verify_witness


@dataclass
class SuiteResult:
    name: str
    checked: int
    failures: int
    notes: list[str] = field(default_factory=list)
    accepted: int | None = None  # "yes" answers, where the suite decides

    @property
    def ok(self) -> bool:
        return self.failures == 0


def _check_one(w: DegreeSequence, result: SuiteResult) -> None:
    expected = chd_bruteforce(w)
    assignment = recognize(w)
    result.checked += 1
    if (assignment is not None) != expected:
        result.failures += 1
        if len(result.notes) < 5:
            result.notes.append(
                f"disagreement at {w.entries}: recognizer "
                f"{assignment is not None}, brute force {expected}"
            )
        return
    if assignment is not None:
        result.accepted += 1
        wit = build_witness(w, assignment)
        if not verify_witness(w, wit):
            result.failures += 1
            if len(result.notes) < 5:
                result.notes.append(f"witness rejected for {w.entries}")


def _sample(rng: random.Random, n: int, k: int) -> DegreeSequence:
    # sample k: uniform, planted or near-miss in turn.  A planted sequence
    # takes one scanned sum per column at a random N and bijection; a near
    # miss moves one of them just outside its column's scanned set.
    cap = 1 << (n - 1)
    if k % 3 == 0:
        return DegreeSequence(tuple(rng.randint(0, cap) for _ in range(n)))
    masks = _scan_table(n)[rng.randrange(1 << n)]
    perm = list(range(n))
    rng.shuffle(perm)
    w = [0] * n
    for b, mask in enumerate(masks):
        sums = [v for v in range(mask.bit_length()) if mask >> v & 1]
        w[perm[b]] = rng.choice(sums)
    if k % 3 == 2:
        # one below the smallest or one above the largest scanned sum
        outside = [(b, v) for b, mask in enumerate(masks)
                   for v in ((mask & -mask).bit_length() - 2, mask.bit_length())
                   if 0 <= v <= cap]
        if outside:
            b, v = rng.choice(outside)
            w[perm[b]] = v
    return DegreeSequence(tuple(w))


def equivalence_suite(n: int, seed: int = 0, samples: int = 1000) -> SuiteResult:
    """recognize() vs chd_bruteforce(), plus witness verification on every
    accepted sequence.  Exhaustive over [0, 2^(n-1)]^n for n <= 4, sampled
    for 5 <= n <= 12."""
    if n > BRUTEFORCE_CAP:
        raise CapacityError(f"no brute-force oracle beyond order {BRUTEFORCE_CAP}")
    result = SuiteResult(name="equivalence", checked=0, failures=0, accepted=0)
    cap = 1 << (n - 1)
    if n <= 4:
        def sweep(prefix: list[int]) -> None:
            if len(prefix) == n:
                _check_one(DegreeSequence(tuple(prefix)), result)
                return
            for v in range(cap + 1):
                sweep(prefix + [v])

        sweep([])
    else:
        rng = random.Random(seed)
        for k in range(samples):
            _check_one(_sample(rng, n, k), result)
    return result


def sufficiency_suite(n: int) -> SuiteResult:
    """Every enumerated cyclic hyper degree must be realizable (n <= 4)."""
    if n > ENUMERATE_CAP:
        raise CapacityError(f"no enumeration beyond order {ENUMERATE_CAP}")
    realizable = realizable_set(n)
    result = SuiteResult(name="sufficiency", checked=0, failures=0)
    for t in enumerate_chd(n):
        result.checked += 1
        if t not in realizable:
            result.failures += 1
            if len(result.notes) < 5:
                result.notes.append(f"{t} enumerated but not realizable")
    return result


def distinctness_suite(n: int, seed: int = 0, samples: int = 1000) -> SuiteResult:
    """Rows of randomly shifted tables must be pairwise distinct.
    Exhaustive over all shift vectors for n <= 3, sampled otherwise."""
    result = SuiteResult(name="distinctness", checked=0, failures=0)
    top = 1 << n

    def check(shifts: tuple[int, ...]) -> None:
        result.checked += 1
        if not all_rows_distinct(ShiftVector(n, shifts)):
            result.failures += 1
            if len(result.notes) < 5:
                result.notes.append(f"repeated row under shifts {shifts}")

    if n <= 3:
        def sweep(prefix: tuple[int, ...]) -> None:
            if len(prefix) == n:
                check(prefix)
                return
            for s in range(top):
                sweep(prefix + (s,))

        sweep(())
    else:
        rng = random.Random(seed)
        for _ in range(samples):
            check(tuple(rng.randrange(top) for _ in range(n)))
    return result


def run_all(n: int, seed: int = 0, samples: int = 1000) -> list[SuiteResult]:
    """All suites applicable at order n."""
    results = [
        equivalence_suite(n, seed=seed, samples=samples),
        distinctness_suite(n, seed=seed, samples=samples),
    ]
    if n <= ENUMERATE_CAP:
        results.insert(1, sufficiency_suite(n))
    return results
