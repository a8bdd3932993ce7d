"""Triangle structure tests.

Row totals, compilation rules and diagonal sums are each checked against
literal additions done here, independent of the closed forms under test.
"""

from __future__ import annotations

import pytest

from hypersolids import (
    RangeError,
    build_triangle,
    compile_row,
    diagonal_sum,
    hypersolid,
    pascal_entry_check,
    recurrence_sequence,
    row_sum,
)


def fib(k: int) -> int:
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


# ----------------------------------------------------------- construction


def test_rows_for_difference_one():
    tri = build_triangle(1, 4)
    assert tri.rows == ((0,), (0, 0), (1, 1, 0), (1, 2, 1, 0), (1, 3, 3, 1, 0))


def test_rows_for_difference_zero_are_padded_pascal():
    tri = build_triangle(0, 4)
    assert tri.row(4) == (0, 1, 2, 1, 0)
    assert tri.row(2) == (0, 1, 0)


def test_row_shape_and_trailing_zero():
    tri = build_triangle(3, 12)
    for c in range(13):
        assert len(tri.row(c)) == c + 1
        assert tri.row(c)[-1] == 0  # rank 0 entry
        for v in range(c + 1):
            assert tri.entry(c, v) == hypersolid(v, 3, c - v)


@pytest.mark.parametrize("d", [0, 1, 2, 7, 20])
@pytest.mark.parametrize("c_max", [0, 1, 2, 3, 4, 60])
def test_triangle_matches_closed_form_cell_by_cell(d, c_max):
    tri = build_triangle(d, c_max)
    assert tri.rows == tuple(
        tuple(hypersolid(v, d, c - v) for v in range(c + 1)) for c in range(c_max + 1)
    )


def test_entry_bounds():
    tri = build_triangle(2, 5)
    with pytest.raises(RangeError):
        tri.row(6)
    with pytest.raises(RangeError):
        tri.entry(3, 4)


# -------------------------------------------------------------- row sums


def test_row_sum_examples():
    assert row_sum(3, 2) == 4
    assert row_sum(5, 0) == 0
    assert row_sum(5, 1) == 0
    assert row_sum(0, 10) == 256


@pytest.mark.parametrize("d", range(9))
def test_row_sum_matches_literal_addition(d):
    tri = build_triangle(d, 24)
    for c in range(25):
        assert row_sum(d, c) == sum(tri.row(c))


def test_row_sums_double_and_accumulate():
    for d in range(9):
        for c in range(3, 25):
            assert row_sum(d, c) == 2 * row_sum(d, c - 1)
            assert row_sum(d, c) - (d + 1) == sum(row_sum(d, j) for j in range(2, c))


# ----------------------------------------------------------- adjacency


def test_adjacent_pairs_generate_next_row():
    # Scalars only: build_triangle itself uses this rule, so it cannot witness it.
    for d in range(9):
        for c in range(3, 25):
            for v in range(1, c):
                assert hypersolid(v, d, c - v) == (
                    hypersolid(v, d, c - 1 - v) + hypersolid(v - 1, d, c - v)
                )


def test_adjacency_does_not_extend_to_row_two():
    tri = build_triangle(4, 2)
    # the unit at (c=2, v=1) is not the sum of its (all zero) upper pair
    assert tri.entry(2, 1) == 1
    assert tri.entry(1, 0) + tri.entry(1, 1) == 0


# ---------------------------------------------------------- compilation


def test_column_prefix_sums_give_next_column():
    for d in range(9):
        for v in range(2, 9):
            acc = 0
            for n in range(13):
                acc += hypersolid(v - 1, d, n)
                assert hypersolid(v, d, n) == acc


def test_compile_row_examples():
    assert compile_row(1, 2, 2) == 6
    assert compile_row(2, 3, 3) == 30 == hypersolid(3, 2, 4)
    assert compile_row(7, 5, 0) == hypersolid(0, 7, 5)


def test_compile_row_advances_rank_for_rank_at_least_two():
    for d in range(9):
        for n in range(2, 13):
            for v in range(9):
                assert compile_row(d, n, v) == hypersolid(v, d, n + 1)


def test_compile_row_is_just_a_sum_below_rank_two():
    # at ranks 0 and 1 the rank-advance reading fails for d >= 1; the
    # returned sum is still the literal one
    assert compile_row(1, 1, 1) == 1
    assert hypersolid(1, 1, 2) == 2
    assert compile_row(3, 0, 5) == 0
    assert hypersolid(5, 3, 1) == 1


# ------------------------------------------------------------- diagonals


def test_diagonal_sum_examples():
    assert diagonal_sum(2, 2, 5) == 8
    assert diagonal_sum(0, 2, 8) == 8  # Fibonacci at difference 0
    for d in range(7):
        assert diagonal_sum(d, 2, 2) == d


def test_diagonal_sum_matches_literal_enumeration():
    for d in range(7):
        for m in (2, 3, 4):
            for k in range(2, 31):
                literal = sum(
                    hypersolid(v, d, n)
                    for v in range(k + 1)
                    for n in range(k + 1)
                    if m * v + n == k
                )
                assert diagonal_sum(d, m, k) == literal


@pytest.mark.parametrize("m", [2, 3, 4, 7, 50])
@pytest.mark.parametrize("count", [2, 3, 9, 60])
def test_recurrence_sequence_matches_literal_enumeration(m, count):
    for d in (0, 1, 5):
        literal = [
            sum(hypersolid(v, d, n) for v in range(k + 1) for n in range(k + 1) if m * v + n == k)
            for k in range(2, count + 2)
        ]
        assert recurrence_sequence(d, m, count) == literal


def test_recurrence_sequence_seeds_and_examples():
    assert recurrence_sequence(1, 2, 6) == [1, 2, 3, 5, 8, 13]
    assert recurrence_sequence(0, 2, 7) == [0, 1, 1, 2, 3, 5, 8]
    assert recurrence_sequence(0, 3, 9) == [0, 0, 1, 1, 1, 2, 3, 4, 6]


def test_slope_half_diagonals_have_fibonacci_coefficients():
    for d in range(7):
        seq = recurrence_sequence(d, 2, 29)
        for k, value in enumerate(seq):
            assert value == fib(k + 1) * d + fib(k)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_diagonal_recurrence(m):
    for d in range(7):
        for k in range(m + 2, 31):
            assert diagonal_sum(d, m, k) == diagonal_sum(d, m, k - 1) + diagonal_sum(d, m, k - m)


def test_diagonal_preconditions():
    with pytest.raises(RangeError):
        diagonal_sum(1, 1, 5)
    with pytest.raises(RangeError):
        diagonal_sum(1, 2, 1)
    with pytest.raises(RangeError):
        recurrence_sequence(1, 2, 1)


# ------------------------------------------------------ Pascal reduction


def test_pascal_entry_check_sweep():
    for c in range(23):
        for v in range(c + 1):
            assert pascal_entry_check(c, v)


def test_pascal_entry_check_examples():
    assert pascal_entry_check(10, 5)   # C(8, 4) = 70 both ways
    assert pascal_entry_check(6, 0)    # zero border
    assert pascal_entry_check(3, 7)    # past the row: 0 = 0
