"""Lower-bound construction and exact counts."""

import math

import pytest

from cyclichd import (
    DomainError,
    attained_set,
    exact_count,
    lower_bound,
    lower_bound_report,
    realizable_set,
    special_window_length,
)
from cyclichd.analysis import product_digits


def test_lower_bound_values():
    assert [lower_bound(n) for n in (1, 2, 3, 4, 5, 8)] == [
        1, 1, 2, 8, 64, 2097152
    ]
    with pytest.raises(DomainError):
        lower_bound(0)


def test_special_window_length_values():
    assert [special_window_length(n) for n in range(1, 7)] == [1, 1, 5, 5, 21, 21]


def test_special_window_length_is_alternating_bits():
    for n in range(1, 40):
        M = special_window_length(n)
        assert 1 <= M <= 1 << n
        b = bin(M)[2:]
        assert set(b[0::2]) == {"1"}
        assert len(b) == 1 or set(b[1::2]) == {"0"}


def test_report_at_order_four():
    rep = lower_bound_report(4)
    assert rep.M == 5
    assert rep.B == (2, 2, 4, 6)
    assert rep.product == 96
    assert rep.bound == 8
    assert rep.satisfied


def test_report_interval_sizes_match_scans():
    for n in range(2, 7):
        rep = lower_bound_report(n)
        for i in range(1, n + 1):
            assert rep.B[i - 1] == len(attained_set(i, rep.M, n))


def test_report_holds_up_to_order_sixtyfour():
    for n in range(3, 65):
        rep = lower_bound_report(n)
        assert rep.satisfied
        assert rep.product == math.prod(rep.B)
        for i in range(2, n + 1):
            assert rep.B[i - 1] >= 1 << (i - 2)


def test_report_requires_order_two():
    with pytest.raises(DomainError):
        lower_bound_report(1)


def test_exact_counts_frozen():
    assert exact_count(1) == 2
    assert exact_count(2) == 7
    assert exact_count(3) == 59
    assert exact_count(4) == 1297


def test_exact_count_sits_between_bound_and_realizable_count():
    for n in range(1, 5):
        c = exact_count(n)
        assert c >= lower_bound(n)
        assert c <= len(realizable_set(n))


def test_product_digits_matches_the_built_product():
    for n in range(2, 320):
        product = lower_bound_report(n).product
        digits = product_digits(n)
        assert 10 ** (digits - 1) <= product < 10 ** digits, n
