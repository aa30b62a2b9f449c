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


def arbitrary_witness(rng, n, N):
    """Witness with a random perm and starts drawn from all of [0, 2^n),
    and the degree sequence those starts give, counted by BitColumn."""
    perm = list(range(n))
    rng.shuffle(perm)
    starts = tuple(rng.randrange(1 << n) for _ in range(n))
    w = [0] * n
    for b in range(n):
        w[perm[b]] = BitColumn(b + 1, n).contiguous_sum(starts[b], N)
    return DegreeSequence(tuple(w)), Witness(n, N, tuple(perm), starts)


def window_lengths_around_powers(rng, n):
    # N next to 2^b is where a column's runs start or stop covering the
    # window; one random N per order besides
    lengths = {rng.randint(1, min(1 << n, 3000))}
    for b in {1, 2, 5, 9, n - 1, n}:
        for N in ((1 << b) - 1, 1 << b, (1 << b) + 1):
            if 1 <= N <= min(1 << n, 1025):
                lengths.add(N)
    return sorted(lengths)


def test_every_edge_matches_shifted_rows_for_arbitrary_starts():
    # canonical starts keep t = s mod 2^(b+1) at most 2^b; arbitrary ones also
    # reach columns whose window starts inside a run of ones
    rng = random.Random(29)
    for n in (5, 12, 63, 64, 65, 130):
        for N in window_lengths_around_powers(rng, n):
            _, wit = arbitrary_witness(rng, n, N)
            sv = ShiftVector(n, wit.starts)
            expected = []
            for k in range(N):
                bits = sv.row(k)
                expected.append(sum(bits[b] << wit.perm[b] for b in range(n)))
            assert materialize_edges(wit) == expected, (n, N)


def test_every_edge_matches_row_formula_across_many_flip_periods():
    # N up to about 10^4 lets columns up to 2^13 flip several times in the
    # window, and N beside 2^9, 2^10 and 2^12 lands on and off the end of a
    # repeating block of flips; each edge is rebuilt from bit b of k + s_b
    rng = random.Random(41)
    lengths = [511, 512, 513, 1023, 1024, 1025, 4097, rng.randint(5000, 10000)]
    for n in (14, 48, 96):
        for N in lengths:
            _, wit = arbitrary_witness(rng, n, N)
            cols = list(zip(wit.starts, wit.perm))
            expected = [
                sum(((k + s) >> b & 1) << v for b, (s, v) in enumerate(cols))
                for k in range(N)
            ]
            assert materialize_edges(wit) == expected, (n, N)


def test_verify_accepts_arbitrary_witnesses_and_rejects_bumped_degrees():
    # n <= 64 packs each row into one key word, n > 64 into several
    rng = random.Random(31)
    for n in (5, 12, 63, 64, 65, 130):
        for N in window_lengths_around_powers(rng, n):
            w, wit = arbitrary_witness(rng, n, N)
            assert verify_witness(w, wit), (n, N)
            entries = list(w.entries)
            v = rng.randrange(n)
            entries[v] += 1
            assert not verify_witness(DegreeSequence(tuple(entries)), wit)


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


def test_edge_vertices_matches_bit_by_bit_reference():
    rng = random.Random(43)
    for n in range(1, 301):
        masks = [0, (1 << n) - 1, 1 << (n - 1), rng.getrandbits(n)]
        for mask in masks:
            expected = [v + 1 for v in range(n) if mask >> v & 1]
            assert edge_vertices(mask) == expected, (n, mask)


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
    for n, N, perm, starts in [
        (3, 4, (0, None, 2), (0, 0, 0)),
        (3, 4, (0, 1, 2.0), (0, 0, 0)),
        (3, 4, (0, True, 2), (0, 0, 0)),
        (3, 4, (0, 1, 2), (0, 0, "4")),
        (3, 4.0, (0, 1, 2), (0, 0, 0)),
        (3, True, (0, 1, 2), (0, 0, 0)),
        (3, 4, None, (0, 0, 0)),
    ]:
        with pytest.raises(DomainError):
            materialize_edges(Witness(n=n, N=N, perm=perm, starts=starts))


def test_big_order_uses_big_integer_fallback():
    # edges above 64 vertices are masks wider than 64 bits, and they must
    # come out as exact Python integers
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


def test_duplicate_keys_found_when_not_neighbours():
    # no witness that passes the window-sum checks has repeated rows, so the
    # sorted-key comparison is tested on keys with planted duplicates
    from cyclichd.witness import _keys_distinct

    one = np.array([[5, 3, 9, 5, 1]], dtype=np.uint64)
    assert not _keys_distinct(one.copy())
    assert _keys_distinct(np.array([[5, 3, 9, 7, 1]], dtype=np.uint64))
    # columns 0 and 3 are equal; column 1 shares their first word and column
    # 4 their last two, so a partial comparison would also miss or misfire
    three = np.array([[4, 4, 0, 4, 9],
                      [7, 1, 2, 7, 7],
                      [2, 2, 5, 2, 2]], dtype=np.uint64)
    assert not _keys_distinct(three.copy())
    three[2, 3] = 6
    assert _keys_distinct(three.copy())
    assert _keys_distinct(np.array([[1]], dtype=np.uint64))
    assert _keys_distinct(np.array([[1], [2], [3]], dtype=np.uint64))
