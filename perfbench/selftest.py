"""Self-test of the checker: each kind of wrong answer must raise error_rate.

    python3 perfbench/selftest.py

Builds a small certificate with the benchmark's own column code, then feeds
the checks a correct answer (no failure expected) and corrupted ones (a
failure expected each).  run.py calls self_test() before every run and
refuses to run with a checker that lets a wrong answer through.
"""

from __future__ import annotations

import random
import sys

import gen
from check import (
    Tally,
    check_assignment,
    check_cli_document,
    check_decision,
    check_edges,
    check_witness,
    reference_decision,
)
from columns import candidate_lengths, interval, window_sum

N_ORDER = 6


def _certificate(rng: random.Random):
    """A planted case with its (N, perm, starts) and edge masks, found by
    scanning every start; independent of the program under test."""
    n = N_ORDER
    N = rng.randint(2, (1 << n) - 1)  # some column then has two sums
    perm = list(range(n))
    rng.shuffle(perm)
    w = [0] * n
    for b in range(n):
        w[perm[b]] = rng.randint(*interval(b + 1, N))
    starts = [next(s for s in range(1 << n) if window_sum(b + 1, s, N) == w[perm[b]])
              for b in range(n)]
    mask = (1 << n) - 1
    edges = [sum((((k + s) & mask) >> b & 1) << perm[b] for b, s in enumerate(starts))
             for k in range(N)]
    return gen.Case("planted", tuple(w)), N, perm, starts, edges


def _document(case, N, perm, starts, edges) -> dict:
    return {
        "n": len(case.degrees),
        "degrees": [str(v) for v in case.degrees],
        "is_cyclic_hyper_degree": True,
        "N": N,
        "permutation": [p + 1 for p in perm],
        "starts": [str(s) for s in starts],
        "edges": [[v + 1 for v in range(len(case.degrees)) if e >> v & 1] for e in edges],
        "includes_empty_edge": 0 in edges,
    }


def _rejected_case(rng: random.Random):
    """A uniform case the reference rejects."""
    while True:
        case = gen.uniform(rng, N_ORDER)
        if not reference_decision(case.degrees):
            return case


def self_test(seed: int = 0) -> list[str]:
    """Names of the wrong answers the checker failed to catch (empty when
    it caught all) and of the right answers it wrongly failed."""
    rng = random.Random(seed)
    case, N, perm, starts, edges = _certificate(rng)
    w = case.degrees
    doc = _document(case, N, perm, starts, edges)
    swapped = [edges[1], edges[1]] + edges[2:]
    bad_start = list(starts)
    b, s = next((b, s) for b in range(N_ORDER) for s in range(1 << N_ORDER)
                if window_sum(b + 1, s, N) != w[perm[b]])
    bad_start[b] = s
    no_case = _rejected_case(rng)
    wrong_yes = check_assignment(no_case.degrees, candidate_lengths(no_case.degrees)[0],
                                 list(range(N_ORDER)))
    hidden_yes = gen.Case("near_miss", w)

    right = {
        "valid certificate": check_witness(w, N, perm, starts) or check_edges(w, N, edges),
        "valid CLI document": check_cli_document(case, 0, doc),
        "correct no": check_decision(no_case, False),
    }
    wrong = {
        "corrupted start": check_witness(w, N, perm, bad_start),
        "duplicated edge": check_edges(w, N, swapped),
        "non-bijective permutation": check_assignment(w, N, [perm[0]] * N_ORDER),
        "planted sequence rejected": check_decision(case, False),
        "cyclic hyper degree rejected": check_decision(hidden_yes, False),
        "unfounded yes": wrong_yes,
        "wrong exit code": check_cli_document(case, 1, doc),
        "capacity exit code": check_cli_document(case, 3, doc),
        "flipped CLI decision": check_cli_document(
            case, 1, {**doc, "is_cyclic_hyper_degree": False}),
    }
    missed = []
    for label, problem in right.items():
        tally = Tally()
        tally.record(problem)
        if tally.error_rate != 0:
            missed.append(f"{label} failed: {problem}")
    for label, problem in wrong.items():
        tally = Tally()
        tally.record(problem)
        if tally.error_rate == 0:
            missed.append(label)
    return missed


if __name__ == "__main__":
    missed = self_test()
    for label in missed:
        print(f"checker missed: {label}")
    print("checker self-test: " + ("FAILED" if missed else "every wrong answer raised error_rate"))
    sys.exit(1 if missed else 0)
