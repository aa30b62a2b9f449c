"""Brute-force oracles: frozen small-order values and mutual consistency."""

import os
import random
import subprocess
import sys
from itertools import permutations, product
from pathlib import Path

import pytest

from cyclichd import (
    CapacityError,
    DegreeSequence,
    chd_bruteforce,
    enumerate_chd,
    is_realizable,
    range_of,
    realizable_set,
    recognize,
)
from cyclichd.oracle import _has_sdr
from conftest import planted_sequence

SRC = Path(__file__).resolve().parents[1] / "src"


def test_bruteforce_examples():
    assert chd_bruteforce(DegreeSequence((1, 1, 1)))
    assert not chd_bruteforce(DegreeSequence((4, 1, 1, 1)))
    assert not chd_bruteforce(DegreeSequence((0, 2)))


def test_is_realizable_examples():
    assert is_realizable(DegreeSequence((4, 1, 1, 1)))
    assert is_realizable(DegreeSequence((0, 0)))
    assert not is_realizable(DegreeSequence((5, 0, 0)))


def test_explicit_hypergraph_for_4111():
    # {1}, {1,2}, {1,3}, {1,4} is a simple hypergraph with degrees (4,1,1,1)
    edges = [0b0001, 0b0011, 0b0101, 0b1001]
    assert len(set(edges)) == 4
    degrees = [sum((e >> v) & 1 for e in edges) for v in range(4)]
    assert degrees == [4, 1, 1, 1]


def test_realizable_set_order_two():
    assert realizable_set(2) == {
        (0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 1), (2, 2)
    }


def test_realizable_set_matches_pointwise_oracle():
    for n in (1, 2, 3):
        members = realizable_set(n)
        cap = 1 << (n - 1)
        for t in product(range(cap + 1), repeat=n):
            assert (t in members) == is_realizable(DegreeSequence(t)), t


def test_enumerate_examples():
    assert enumerate_chd(1) == [(0,), (1,)]
    assert enumerate_chd(2) == [
        (0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 1), (2, 2)
    ]
    assert (0, 2) not in enumerate_chd(2)


def test_enumerate_is_sorted_and_unique():
    for n in range(1, 5):
        out = enumerate_chd(n)
        assert out == sorted(set(out))


def test_enumerate_agrees_with_bruteforce_at_tiny_orders():
    for n in (1, 2, 3):
        members = set(enumerate_chd(n))
        cap = 1 << (n - 1)
        for t in product(range(cap + 1), repeat=n):
            assert (t in members) == chd_bruteforce(DegreeSequence(t)), t


def test_enumerated_sequences_are_realizable():
    for n in range(1, 4):
        realizable = realizable_set(n)
        for t in enumerate_chd(n):
            assert t in realizable


def test_frozen_counts():
    assert len(enumerate_chd(1)) == 2
    assert len(enumerate_chd(2)) == 7
    assert len(enumerate_chd(3)) == 59
    assert len(enumerate_chd(4)) == 1297
    assert len(realizable_set(3)) == 59
    assert len(realizable_set(4)) == 1611


def test_recognition_is_exact_at_order_three():
    # with three vertices the cyclic condition captures all of realizability
    assert set(enumerate_chd(3)) == realizable_set(3)


def test_realizable_count_within_global_bound():
    # the 2^(n(n-1)) cardinality bound only kicks in from order 3 up:
    # the sweep itself shows 2 > 2^0 at order 1 and 7 > 2^2 at order 2
    for n in (1, 2):
        assert len(realizable_set(n)) > 1 << (n * (n - 1))
    for n in (3, 4):
        assert len(realizable_set(n)) <= 1 << (n * (n - 1))


def test_bruteforce_matching_path_at_order_ten():
    # the oracle's exhaustive matcher against the recognizer's own matching
    rng = random.Random(5)
    for _ in range(5):
        w = planted_sequence(rng, 10)
        assert recognize(w) is not None
        assert chd_bruteforce(w)
    for _ in range(4):
        w = DegreeSequence(tuple(rng.randint(0, 512) for _ in range(10)))
        assert chd_bruteforce(w) == (recognize(w) is not None)


def test_bruteforce_rejects_oversized_entries_naturally():
    assert not chd_bruteforce(DegreeSequence((5, 0, 0)))


def test_capacity_limits():
    with pytest.raises(CapacityError):
        chd_bruteforce(DegreeSequence((0,) * 13))
    with pytest.raises(CapacityError):
        is_realizable(DegreeSequence((0,) * 6))
    with pytest.raises(CapacityError):
        enumerate_chd(5)
    with pytest.raises(CapacityError):
        realizable_set(5)
    with pytest.raises(CapacityError):
        realizable_set(0)


def sdr_by_permutations(candidates):
    """Reference: some bijection gives column k a coordinate in candidates[k]."""
    n = len(candidates)
    return any(all(p[k] in candidates[k] for k in range(n))
               for p in permutations(range(n)))


def test_matcher_agrees_with_permutation_reference():
    rng = random.Random(11)
    outcomes = set()
    for n in range(1, 8):
        for _ in range(60 if n < 7 else 25):
            density = rng.choice([0.2, 0.4, 0.7])
            candidates = []
            for _ in range(n):
                kind = rng.random()
                if kind < 0.05:
                    candidates.append([])
                elif kind < 0.2:
                    candidates.append(list(range(n)))
                else:
                    candidates.append(
                        [j for j in range(n) if rng.random() < density])
            expected = sdr_by_permutations(candidates)
            assert _has_sdr(candidates) == expected, candidates
            outcomes.add(expected)
    assert outcomes == {True, False}


def test_bruteforce_agrees_with_recognizer_at_order_twelve():
    n, cap = 12, 1 << 11
    rng = random.Random(12)
    for _ in range(3):
        w = planted_sequence(rng, n)
        assert recognize(w) is not None
        assert chd_bruteforce(w)
    for _ in range(3):
        # near miss: one planted degree just outside its column's interval
        N = rng.randint(1, 1 << n)
        perm = list(range(n))
        rng.shuffle(perm)
        degrees = [0] * n
        for b in range(n):
            r = range_of(b + 1, N, n)
            degrees[perm[b]] = rng.randint(r.lo, r.hi)
        b = rng.randrange(n - 1)  # only column n can span all of [0, cap]
        r = range_of(b + 1, N, n)
        degrees[perm[b]] = r.hi + 1 if r.hi < cap else r.lo - 1
        w = DegreeSequence(tuple(degrees))
        assert chd_bruteforce(w) == (recognize(w) is not None)
    for _ in range(3):
        w = DegreeSequence(tuple(rng.randint(0, cap) for _ in range(n)))
        assert chd_bruteforce(w) == (recognize(w) is not None)


def test_oracle_runs_without_scipy():
    code = """
import sys
sys.modules["scipy"] = None
from cyclichd import DegreeSequence, chd_bruteforce
from cyclichd.cli import main
w = DegreeSequence((243, 244, 247, 247, 249, 244, 244, 249, 244, 327))
assert chd_bruteforce(w)
assert not chd_bruteforce(
    DegreeSequence((55, 420, 66, 305, 494, 92, 332, 500, 325, 347)))
sys.exit(main(["verify", "--n", "9", "--samples", "12"]))
"""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, env=env, timeout=300)
    assert r.returncode == 0, r.stdout + r.stderr
    assert "equivalence: PASS" in r.stdout
