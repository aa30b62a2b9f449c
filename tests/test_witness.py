"""Witness construction, canonical starts, and from-scratch verification."""

import random

import numpy as np
import pytest

from cyclichd import (
    BitColumn,
    CapacityError,
    DegreeSequence,
    DomainError,
    ShiftVector,
    Witness,
    build_witness,
    edge_vertices,
    materialize_edges,
    range_of,
    recognize,
    solve_start,
    verify_witness,
    window_sums,
)
from conftest import planted_sequence


def test_solve_start_examples():
    assert solve_start(3, 5, 1, 3) == 0
    assert solve_start(2, 8, 4, 3) == 0
    s = solve_start(3, 5, 4, 3)
    assert s == 3
    assert BitColumn(3, 3).contiguous_sum(s, 5) == 4


def test_solve_start_exhaustive_with_canonicality():
    for n in range(1, 7):
        for i in range(1, n + 1):
            col = BitColumn(i, n)
            half = 1 << (i - 1)
            for N in range(1, (1 << n) + 1):
                r = range_of(i, N, n)
                for v in range(r.lo, r.hi + 1):
                    s = solve_start(i, N, v, n)
                    assert 0 <= s <= half
                    assert col.contiguous_sum(s, N) == v
                    for smaller in range(s):
                        assert col.contiguous_sum(smaller, N) != v


def test_solve_start_validity_mid_orders():
    for n in (7, 8):
        for i in range(1, n + 1):
            col = BitColumn(i, n)
            half = 1 << (i - 1)
            for N in range(1, (1 << n) + 1):
                r = range_of(i, N, n)
                for v in range(r.lo, r.hi + 1):
                    s = solve_start(i, N, v, n)
                    assert 0 <= s <= half
                    assert col.contiguous_sum(s, N) == v


def test_window_sum_nondecreasing_on_first_half_period():
    # the step-by-one growth that solve_start's closed form is derived from
    for n in range(1, 11):
        for i in range(1, n + 1):
            half = 1 << (i - 1)
            for N in range(1, (1 << n) + 1):
                if N & ((half << 1) - 1) == 0:
                    continue
                sums = window_sums(i, N, n)
                assert (np.diff(sums[: half + 1]) >= 0).all(), (n, i, N)


def test_solve_start_validation():
    with pytest.raises(DomainError):
        solve_start(2, 3, 3, 3)
    with pytest.raises(DomainError):
        solve_start(2, 3, 0, 3)
    with pytest.raises(DomainError):
        solve_start(2, 0, 0, 3)
    with pytest.raises(DomainError):
        solve_start(2, 9, 1, 3)


def test_build_witness_example():
    w = DegreeSequence((1, 1, 1))
    wit = build_witness(w, recognize(w))
    assert wit.N == 1
    assert sorted(wit.perm) == [0, 1, 2]
    # every column's first one sits at position 2^(i-1), whatever the perm
    assert wit.starts == (1, 2, 4)
    assert verify_witness(w, wit)
    edges = materialize_edges(wit)
    assert edges == [0b111]
    assert [edge_vertices(e) for e in edges] == [[1, 2, 3]]


def test_witness_for_all_zero_sequence_uses_empty_edge():
    w = DegreeSequence((0, 0, 0))
    wit = build_witness(w, recognize(w))
    assert wit.N == 1
    assert wit.starts == (0, 0, 0)
    edges = materialize_edges(wit)
    assert edges == [0]
    assert edge_vertices(0) == []
    assert verify_witness(w, wit)


def test_round_trip_on_planted_sequences():
    rng = random.Random(21)
    for _ in range(200):
        n = rng.randint(1, 12)
        w = planted_sequence(rng, n)
        wit = build_witness(w, recognize(w))
        assert verify_witness(w, wit)


def test_verify_rejects_tampered_start():
    w = DegreeSequence((2, 2, 2))
    wit = build_witness(w, recognize(w))
    assert verify_witness(w, wit)
    bumped = (wit.starts[2] + 1) % 8
    bad = Witness(n=wit.n, N=wit.N, perm=wit.perm,
                  starts=wit.starts[:2] + (bumped,))
    assert not verify_witness(w, bad)


def test_verify_rejects_malformed_fields():
    w = DegreeSequence((1, 1, 1))
    wit = build_witness(w, recognize(w))
    assert not verify_witness(w, Witness(n=2, N=wit.N, perm=wit.perm, starts=wit.starts))
    assert not verify_witness(w, Witness(n=3, N=0, perm=wit.perm, starts=wit.starts))
    assert not verify_witness(w, Witness(n=3, N=9, perm=wit.perm, starts=wit.starts))
    assert not verify_witness(w, Witness(n=3, N=wit.N, perm=(0, 0, 2), starts=wit.starts))
    assert not verify_witness(w, Witness(n=3, N=wit.N, perm=wit.perm, starts=(0, 0, 8)))
    assert not verify_witness(w, Witness(n=3, N=wit.N, perm=wit.perm, starts=(0, 0)))
    # wrongly typed fields are rejected, not raised on
    assert not verify_witness(w, Witness(n=3, N=wit.N, perm=(0, None, 2), starts=wit.starts))
    assert not verify_witness(w, Witness(n=3, N=wit.N, perm=(0, 1, 2.0), starts=wit.starts))
    assert not verify_witness(w, Witness(n=3, N=wit.N, perm=wit.perm, starts=(1, 2, "4")))
    assert not verify_witness(w, Witness(n=3, N=True, perm=wit.perm, starts=wit.starts))
    assert not verify_witness(w, Witness(n=3, N=wit.N, perm=(0, True, 2), starts=wit.starts))


def test_edges_match_shifted_rows():
    # edge k is row k of the shifted table, relabelled through perm; the
    # orders 63-65 and 128 put vertices on both sides of 64-bit word limits
    rng = random.Random(3)
    orders = [rng.randint(1, 10) for _ in range(50)] + [63, 64, 65, 128] * 3
    for n in orders:
        w = planted_sequence(rng, n, max_N=4096)
        wit = build_witness(w, recognize(w))
        sv = ShiftVector(n, wit.starts)
        edges = materialize_edges(wit)
        for k in {0, len(edges) // 2, len(edges) - 1}:
            bits = sv.row(k)
            mask = 0
            for b in range(n):
                mask |= bits[b] << wit.perm[b]
            assert mask == edges[k]


def test_edge_distinctness_and_degree_counts_explicitly():
    rng = random.Random(8)
    orders = [rng.randint(1, 10) for _ in range(60)] + [63, 64, 65, 128] * 2
    for n in orders:
        w = planted_sequence(rng, n, max_N=4096)
        wit = build_witness(w, recognize(w))
        edges = materialize_edges(wit)
        assert len(edges) == wit.N
        assert len(set(edges)) == wit.N
        for v in range(n):
            assert sum((e >> v) & 1 for e in edges) == w.entries[v]


def test_materialize_edges_cap():
    wit = Witness(n=8, N=200, perm=tuple(range(8)), starts=(0,) * 8)
    with pytest.raises(CapacityError):
        materialize_edges(wit, cap=100)
    assert len(materialize_edges(wit, cap=200)) == 200


def test_materialize_edges_validation():
    with pytest.raises(DomainError):
        materialize_edges(Witness(n=3, N=0, perm=(0, 1, 2), starts=(0, 0, 0)))
    with pytest.raises(DomainError):
        materialize_edges(Witness(n=3, N=9, perm=(0, 1, 2), starts=(0, 0, 0)))
    with pytest.raises(DomainError):
        materialize_edges(Witness(n=3, N=1, perm=(0, 1), starts=(0, 0, 0)))
    with pytest.raises(DomainError):
        materialize_edges(Witness(n=3, N=1, perm=(0, 1, 5), starts=(0, 0, 0)))
    with pytest.raises(DomainError):
        materialize_edges(Witness(n=3, N=1, perm=(0, 0, 0), starts=(0, 0, 0)))
    with pytest.raises(DomainError):
        materialize_edges(Witness(n=3, N=1, perm=(0, 1, 2), starts=(0, 0, 99)))


def test_big_order_uses_big_integer_fallback():
    # edges above 64 vertices span several machine words, and the edge
    # masks must come out as exact Python integers
    n = 70
    w = DegreeSequence((1,) * n)
    wit = build_witness(w, recognize(w))
    assert wit.N == 1
    edges = materialize_edges(wit)
    assert edges == [(1 << n) - 1]
    assert verify_witness(w, wit)


def test_solve_start_sampled_across_word_size():
    # closed-form starts at order 200, for columns below and above bit 64
    rng = random.Random(17)
    n = 200
    for i in [1, 2, 31, 63, 64, 65, 66, 100, 199, 200] * 10:
        col = BitColumn(i, n)
        half = 1 << (i - 1)
        N = rng.choice([rng.randint(1, 1 << n), rng.randint(1, 1 << 20),
                        rng.randint(1, 1 << i)])
        r = range_of(i, N, n)
        v = rng.randint(r.lo, r.hi)
        s = solve_start(i, N, v, n)
        assert 0 <= s <= half
        assert col.contiguous_sum(s, N) == v


def test_verify_sums_checked_even_above_edge_cap():
    rng = random.Random(14)
    while True:
        w = planted_sequence(rng, 14)
        wit = build_witness(w, recognize(w))
        if wit.N > 4:
            break
    # cap below N skips edge materialization but keeps the sum checks
    assert verify_witness(w, wit, cap=4)
    entries = list(w.entries)
    entries[wit.perm[0]] += 1
    assert not verify_witness(DegreeSequence(tuple(entries)), wit, cap=4)
