"""Closed-form window-sum intervals against direct scans."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclichd import (
    CapacityError,
    DomainError,
    SumRange,
    attained_set,
    column_bits,
    range_of,
    range_size,
    window_sums,
)
from conftest import column_list, cyclic_window_sum


def test_range_of_examples():
    r = range_of(2, 3, 3)
    assert (r.lo, r.hi) == (1, 2)
    r = range_of(2, 8, 3)
    assert (r.lo, r.hi) == (4, 4)
    r = range_of(3, 2, 3)
    assert (r.lo, r.hi) == (0, 2)
    r = range_of(2, 6, 3)
    assert (r.lo, r.hi) == (2, 4)


def test_range_size_examples():
    assert range_size(2, 6) == 3
    assert range_size(3, 8) == 1
    assert range_size(1, 7) == 2


def test_attained_set_examples():
    assert attained_set(2, 3, 3) == {1, 2}
    assert attained_set(1, 2, 2) == {1}
    assert attained_set(3, 5, 3) == {1, 2, 3, 4}


def test_interval_matches_scan_exhaustively():
    for n in range(1, 8):
        for i in range(1, n + 1):
            for N in range(1, (1 << n) + 1):
                r = range_of(i, N, n)
                assert attained_set(i, N, n) == set(range(r.lo, r.hi + 1))
                assert range_size(i, N) == r.size


def test_complement_symmetry():
    for n in range(1, 10):
        for i in range(1, n + 1):
            for N in range(1, (1 << n) + 1):
                r = range_of(i, N, n)
                assert r.hi == N - r.lo


def test_power_of_two_windows():
    # N = 2^j: full interval [0, N] when the window is shorter than a run
    # of equal bits, a single point N/2 once it covers whole periods
    for n in range(1, 11):
        for i in range(1, n + 1):
            for j in range(0, n + 1):
                N = 1 << j
                r = range_of(i, N, n)
                if j <= i - 1:
                    assert (r.lo, r.hi) == (0, N)
                else:
                    assert (r.lo, r.hi) == (N // 2, N // 2)


def test_window_sums_matches_pure_python_scan():
    rng = random.Random(2)
    for _ in range(150):
        n = rng.randint(1, 7)
        i = rng.randint(1, n)
        N = rng.randint(0, 1 << n)
        bits = column_list(i, n)
        sums = window_sums(i, N, n)
        for s in range(1 << n):
            assert sums[s] == cyclic_window_sum(bits, s, N)


def test_column_bits_matches_block_pattern():
    for n in range(1, 9):
        for i in range(1, n + 1):
            assert column_bits(i, n).tolist() == column_list(i, n)


@settings(max_examples=200)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.tuples(
            st.just(n), st.integers(1, n), st.integers(1, 2**n)
        )
    )
)
def test_interval_matches_scan_property(args):
    n, i, N = args
    r = range_of(i, N, n)
    assert attained_set(i, N, n) == set(range(r.lo, r.hi + 1))


def test_sum_range_membership_and_size():
    r = SumRange(2, 5)
    assert 2 in r
    assert 5 in r
    assert 1 not in r
    assert 6 not in r
    assert r.size == 4
    with pytest.raises(DomainError):
        SumRange(3, 2)


def test_range_of_validation():
    with pytest.raises(DomainError):
        range_of(0, 1, 3)
    with pytest.raises(DomainError):
        range_of(4, 1, 3)
    with pytest.raises(DomainError):
        range_of(1, 0, 3)
    with pytest.raises(DomainError):
        range_of(1, 9, 3)
    with pytest.raises(DomainError):
        range_size(1, 0)
    with pytest.raises(DomainError):
        range_size(0, 1)


def test_scan_cap():
    with pytest.raises(CapacityError):
        attained_set(1, 1, 21)
    with pytest.raises(CapacityError):
        column_bits(1, 25)
    # 2^n is never built, so a huge order is refused at once
    with pytest.raises(CapacityError):
        attained_set(1, 5, 10**12)


def test_closed_form_handles_big_integers():
    n = 200
    N = (1 << 199) + 12345
    r = range_of(n, N, n)
    assert r.lo == 12345
    assert r.hi == 1 << 199
    assert range_size(n, N) == r.size
    assert r.hi == N - r.lo


def test_range_of_huge_order_needs_no_power_of_two():
    # the bound 2^n is checked by bit length, never built
    r = range_of(1, 5, 10**12)
    assert (r.lo, r.hi) == (2, 3)
    r = range_of(10**12, 5, 10**12)
    assert (r.lo, r.hi) == (0, 5)
    with pytest.raises(DomainError, match=r"2\^3"):
        range_of(1, 9, 3)
