"""Fixed-difference triangular arrangements and their structural rules.

Fix the common difference d and lay out every ``hypersolid(v, d, n)`` with
v + n = c as row c, position v.  The resulting triangle reduces to a
zero-padded Pascal's triangle at d = 0, and for every d it obeys the same
kind of regularities Pascal's does:

* adjacent-pair sums reproduce the next row (rows c >= 3);
* prefix sums down a fixed-dimension column give the next column;
* prefix sums across the first v positions of a rank level give the next
  rank level (rank >= 2);
* row totals are (d + 1) * 2**(c - 2) for c >= 2, so they double row to row;
* totals along slope-1/m diagonals obey the Fibonacci-style recurrence
  a(k) = a(k - 1) + a(k - m).

The helpers here build the triangle and expose the quantities those rules
talk about; the exhaustive sweeps live in :mod:`hypersolids.verify`.

Rows are built by the first of those rules: rows 0-2 are the seeds (0),
(0, 0) and (d, 1, 0), and every later row comes from adjacent-pair sums of
the one above, so rows 0..c cost O(c**2) big-int additions and no
closed-form call.  ``_diagonals`` is the one reader of diagonal totals: it
adds up the rows it passes on, those ``recurrence_sequence`` builds cut to
the cells its diagonals reach and those ``triangle --diagonals`` prints,
in the one pass that prints them.  The rule itself is witnessed only by
scalar closed-form values (the ``adjacency`` verify cases and the
adjacency test compare ``hypersolid`` against ``hypersolid``), never by a
triangle built with it.
"""

from __future__ import annotations

from collections import deque
from itertools import repeat
from typing import Iterable, Iterator

from .kernel import (
    RangeError, _check, _closed, _exact_int, _Record, _triangle_rows, binomial,
    hypersolid,
)


class Triangle(_Record):
    """Immutable triangle for one common difference.

    ``rows[c][v]`` holds ``hypersolid(v, d, c - v)``; row c has c + 1
    entries and always ends in 0 (the rank-0 value).  Instances are plain
    data and safe to share between threads.
    """

    __slots__ = ("d", "c_max", "rows")
    d: int
    c_max: int
    rows: tuple[tuple[int, ...], ...]

    def __init__(self, d: int, c_max: int, rows: tuple[tuple[int, ...], ...]) -> None:
        set_d, set_c_max, set_rows = Triangle._setters
        set_d(self, d)
        set_c_max(self, c_max)
        set_rows(self, rows)

    def row(self, c: int) -> tuple[int, ...]:
        c = _exact_int("row index", c)
        if not 0 <= c <= self.c_max:
            raise RangeError(f"row index must be in [0, {self.c_max}], got {c}")
        return self.rows[c]

    def entry(self, c: int, v: int) -> int:
        row = self.row(c)
        v = _exact_int("position", v)
        if not 0 <= v < len(row):
            raise RangeError(f"position must be in [0, {len(row) - 1}], got {v}")
        return row[v]


def build_triangle(d: int, c_max: int) -> Triangle:
    """Rows 0..c_max of the arrangement for one common difference."""
    d = _check("d", d)
    c_max = _check("c_max", c_max)
    return Triangle(d=d, c_max=c_max, rows=tuple(_triangle_rows(d, c_max)))


def row_sum(d: int, c: int) -> int:
    """Total of row c: 0 for c < 2, else (d + 1) * 2**(c - 2).

    Equals the literal sum of ``build_triangle(d, c).row(c)``; the doubling
    row to row is what the verification suite checks.
    """
    d = _check("d", d)
    c = _check("c", c)
    if c < 2:
        return 0
    return (d + 1) * 2 ** (c - 2)


def compile_row(d: int, n: int, v: int) -> int:
    """Sum of the first v + 1 entries along rank level n.

    Returns sum(hypersolid(r, d, n) for r = 0..v).  For n >= 2 this equals
    ``hypersolid(v, d, n + 1)``: summing across dimensions advances the
    rank by one.
    """
    d = _check("d", d)
    n = _check("n", n)
    v = _check("v", v)
    # every term has r <= v, so the checks above cover it
    return sum(map(_closed, range(v + 1), repeat(d), repeat(n)))


def diagonal_sum(d: int, m: int, k: int) -> int:
    """Total along the slope-1/m diagonal m*v + n = k (m >= 2, k >= 2).

    Only finitely many terms are nonzero (v can be at most k // m).  As k
    grows these totals satisfy a(k) = a(k - 1) + a(k - m); for m = 2 that
    is the Fibonacci recurrence seeded by d and d + 1.
    """
    d = _check("d", d)
    m = _check("m", m, 2)
    k = _check("k", k, 2)
    # term v has rank k - m * v, which runs from k down to k % m >= 0
    return sum(map(_closed, range(k // m + 1), repeat(d), range(k, -1, -m)))


def recurrence_sequence(d: int, m: int, count: int) -> list[int]:
    """First ``count`` slope-1/m diagonal totals, starting at diagonal 2.

    For m = 2 the result begins d, d + 1, 2d + 1, 3d + 2, 5d + 3, ... with
    Fibonacci-weighted coefficients; every m obeys a(k) = a(k-1) + a(k-m).
    """
    d = _check("d", d)
    m = _check("m", m, 2)
    count = _check("count", count, 2)
    # diagonals k = 2..count + 1; cell (c, v) lies on k = c + (m - 1) * v, so
    # only the first (count + 1 - c) // (m - 1) + 1 positions of row c count
    totals = [0] * (count + 2)
    rows = _triangle_rows(d, count + 1, width=lambda c: (count + 1 - c) // (m - 1) + 1)
    deque(_diagonals(rows, m, totals), 0)
    return totals[2:]


def _diagonals(rows: Iterable[tuple], m: int, totals: list[int]) -> Iterator[tuple]:
    """Yield ``rows``, rows 0, 1, ... of a triangle, each after adding its
    cells into ``totals[k]``, the slope-1/m diagonal k = c + (m - 1) * v.

    Cells on a diagonal past ``len(totals) - 1`` are skipped, so the rows
    may be whole or cut.  ``totals`` is complete once the last row is read.
    """
    for c, row in enumerate(rows):
        for k, value in zip(range(c, len(totals), m - 1), row):
            totals[k] += value
        yield row


def pascal_entry_check(c: int, v: int) -> bool:
    """True iff entry (c, v) of the d = 0 triangle equals C(c - 2, v - 1).

    The d = 0 triangle is Pascal's triangle padded with a zero border two
    cells deep; positions past the end of a row count as 0, which is also
    what the zero-extended binomial gives there.
    """
    c = _check("c", c)
    v = _check("v", v)
    entry = hypersolid(v, 0, c - v) if v <= c else 0
    return entry == binomial(c - 2, v - 1)
