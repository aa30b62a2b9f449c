"""Bit-table columns, shifted rows and distinctness, against plain lists."""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclichd import (
    BitColumn,
    CapacityError,
    DomainError,
    ShiftVector,
    all_rows_distinct,
    packed_rows,
    rotate,
)
from conftest import column_list, cyclic_window_sum


def test_bit_at_small_table_examples():
    assert BitColumn(1, 3).bit_at(2) == 1
    assert BitColumn(3, 3).bit_at(1) == 0
    assert BitColumn(2, 3).bit_at(7) == 1


def test_bit_at_matches_block_pattern():
    for n in range(1, 9):
        for i in range(1, n + 1):
            col = BitColumn(i, n)
            bits = column_list(i, n)
            assert [col.bit_at(j) for j in range(1, col.length + 1)] == bits


def test_length_and_period():
    col = BitColumn(3, 5)
    assert col.length == 32
    assert col.period == 8


def test_bit_at_rejects_out_of_range_position():
    col = BitColumn(2, 3)
    with pytest.raises(DomainError):
        col.bit_at(0)
    with pytest.raises(DomainError):
        col.bit_at(9)


def test_column_rejects_bad_indices():
    with pytest.raises(DomainError):
        BitColumn(0, 3)
    with pytest.raises(DomainError):
        BitColumn(4, 3)
    with pytest.raises(DomainError):
        BitColumn(1, 0)


def test_ones_prefix_examples():
    assert BitColumn(2, 3).ones_prefix(5) == 2
    assert BitColumn(1, 4).ones_prefix(0) == 0
    assert BitColumn(3, 3).ones_prefix(8) == 4


def test_ones_prefix_matches_scan_beyond_one_cycle():
    for n in range(1, 7):
        for i in range(1, n + 1):
            col = BitColumn(i, n)
            bits = column_list(i, n)
            m = len(bits)
            running = 0
            for t in range(2 * m + 1):
                assert col.ones_prefix(t) == running
                running += bits[t % m]


def test_ones_prefix_rejects_negative():
    with pytest.raises(DomainError):
        BitColumn(1, 3).ones_prefix(-1)


def test_contiguous_sum_examples():
    assert BitColumn(2, 3).contiguous_sum(2, 3) == 2
    assert BitColumn(3, 3).contiguous_sum(4, 5) == 4
    assert BitColumn(1, 4).contiguous_sum(0, 16) == 8


def test_contiguous_sum_zero_window():
    for s in range(8):
        assert BitColumn(2, 3).contiguous_sum(s, 0) == 0


def test_full_window_always_sums_to_half_length():
    for n in range(1, 7):
        for i in range(1, n + 1):
            col = BitColumn(i, n)
            for s in range(col.length):
                assert col.contiguous_sum(s, col.length) == col.length // 2


def test_contiguous_sum_random_against_scan():
    rng = random.Random(7)
    cols: dict[tuple[int, int], list[int]] = {}
    for _ in range(2000):
        n = rng.randint(1, 12)
        i = rng.randint(1, n)
        if (i, n) not in cols:
            cols[(i, n)] = column_list(i, n)
        bits = cols[(i, n)]
        s = rng.randrange(1 << n)
        N = rng.randint(0, 1 << n)
        assert BitColumn(i, n).contiguous_sum(s, N) == cyclic_window_sum(bits, s, N)


def test_contiguous_sum_validation():
    col = BitColumn(2, 3)
    with pytest.raises(DomainError):
        col.contiguous_sum(-1, 1)
    with pytest.raises(DomainError):
        col.contiguous_sum(8, 1)
    with pytest.raises(DomainError):
        col.contiguous_sum(0, 9)
    with pytest.raises(DomainError):
        col.contiguous_sum(0, -1)


def test_rotate_examples():
    assert rotate([1, 2, 3, 4], 1) == [2, 3, 4, 1]
    assert rotate([1, 2], 2) == [1, 2]
    assert rotate([0, 1], 5) == [1, 0]


def test_rotate_validation():
    with pytest.raises(DomainError):
        rotate([], 1)
    with pytest.raises(DomainError):
        rotate([1, 2], -1)


@settings(max_examples=150)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=64), st.integers(0, 300))
def test_rotate_matches_index_formula(xs, k):
    out = rotate(xs, k)
    m = len(xs)
    assert all(out[j] == xs[(j + k) % m] for j in range(m))


@settings(max_examples=150)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=48), st.integers(0, 200))
def test_rotating_a_doubled_list_rotates_both_halves(xs, k):
    m = len(xs)
    half = rotate(xs, k % m)
    assert rotate(xs + xs, k) == half + half


def test_row_examples():
    sv = ShiftVector(3, (0, 0, 0))
    assert sv.row(5) == (1, 0, 1)
    assert sv.row(0) == (0, 0, 0)
    assert ShiftVector(2, (1, 0)).row(0) == (1, 0)


def test_unshifted_rows_enumerate_binary_words():
    sv = ShiftVector(4, (0, 0, 0, 0))
    for k in range(16):
        assert sum(bit << b for b, bit in enumerate(sv.row(k))) == k


def test_row_matches_rotated_columns():
    rng = random.Random(3)
    for n in range(1, 7):
        top = 1 << n
        for _ in range(15):
            shifts = tuple(rng.randrange(top) for _ in range(n))
            sv = ShiftVector(n, shifts)
            rotated = [
                rotate(column_list(i, n), shifts[i - 1]) for i in range(1, n + 1)
            ]
            for k in range(top):
                assert sv.row(k) == tuple(rotated[b][k] for b in range(n))


def test_shift_vector_validation():
    with pytest.raises(DomainError):
        ShiftVector(2, (0,))
    with pytest.raises(DomainError):
        ShiftVector(2, (0, 4))
    with pytest.raises(DomainError):
        ShiftVector(2, (-1, 0))
    with pytest.raises(DomainError):
        ShiftVector(0, ())
    with pytest.raises(DomainError):
        ShiftVector(3, (0, 0, 0)).row(8)


def test_packed_rows_agree_with_row():
    rng = random.Random(5)
    for n in (1, 2, 5, 8):
        top = 1 << n
        shifts = tuple(rng.randrange(top) for _ in range(n))
        sv = ShiftVector(n, shifts)
        packed = packed_rows(sv)
        step = max(1, top // 64)
        for k in range(0, top, step):
            assert int(packed[k]) == sum(
                bit << b for b, bit in enumerate(sv.row(k))
            )


def test_all_rows_distinct_exhaustive_tiny_orders():
    for n in (1, 2, 3):
        top = 1 << n
        for shifts in product(range(top), repeat=n):
            assert all_rows_distinct(ShiftVector(n, shifts))


def test_all_rows_distinct_random_midsize_orders():
    rng = random.Random(11)
    for n in range(4, 13):
        top = 1 << n
        for _ in range(10_000):
            shifts = tuple(rng.randrange(top) for _ in range(n))
            assert all_rows_distinct(ShiftVector(n, shifts))


def test_materialization_cap():
    with pytest.raises(CapacityError):
        all_rows_distinct(ShiftVector(25, tuple([0] * 25)))
    assert all_rows_distinct(ShiftVector(10, tuple([5] * 10)), max_order=10)
    with pytest.raises(CapacityError):
        packed_rows(ShiftVector(12, tuple([0] * 12)), max_order=11)
    # 2^63 int64 row codes are refused whatever the cap, before allocation
    with pytest.raises(CapacityError):
        packed_rows(ShiftVector(63, tuple([0] * 63)), max_order=100)
