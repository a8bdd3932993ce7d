"""Sums of figurate numbers over the simplex v + d + n = s.

For a fixed coordinate total s there are C(s + 2, 2) coordinate triples.
Closed forms exist for the sum of the values over that whole simplex and
over its slices with one coordinate pinned, except at a few degenerate
corners (difference pinned to s - 1 or s, rank pinned to s, totals with
s < 2).  Every query here returns a :class:`SumReport` holding the closed
form (or ``None`` where none applies) next to an exhaustive enumeration of
the same triples, so the two can be compared exactly.

Every value here is C(m, v - 1) + d * C(m, v) with m = v + n - 2, so the
cells of a slice lie along one line of Pascal's triangle, which is the d = 0
triangle: with the difference pinned they share m and read one row, with
the dimension or the rank pinned m runs down two columns.  A slice query
computes its O(s) values in one pass of maps, with the v = 0, rank 0 and
rank 1 corners written out, and calls no Python function per cell.  The
binomials come from one fixed table (:func:`_pascal`), built once, on first
use, by the adjacent-pair rule: the d = 0 triangle's rows c = 0..PASCAL_M + 1,
Pascal's rows 0..127 with their 8,256 nonzero entries, their columns, each
row's tally parts, and each column's running sums once and twice.
:func:`_weighted_columns` gives C(m, a) + (s - 2 - m) * C(m, b) down two
columns, from the table up to s = 129 (s - 2 < :data:`PASCAL_M`) and by
``math.comb`` maps above: a pinned dimension reads columns (v - 1, v), a
pinned rank (n - 1, n - 2), as C(m, v) = C(m, n - 2) there.  Without a
listing, a pinned dimension v >= 1 or rank n >= 2 up to s = 129 builds no
cell: :func:`_column_tally` adds up the same cells as a few differences of
the two columns' running sums.  A pinned difference reads its one row
c = s - d (:func:`_pascal_row`) from the table whenever c <= 129, at any
total, and by a ``math.comb`` map above.  The closed forms keep
``math.comb``, so from the table the enumerated side shares no binomial with
its judge.

The difference gnomon S(v, d, n) = S(v, 0, n) + d * S(v + 1, 0, n - 1) lifts
row c to the difference d = s - c, and one helper, :func:`_row_parts`,
tallies a lifted row without building it: four parts of the row that do
not depend on d give the lift's sum and nonzero count at every d.  The
table holds them for its rows, so :func:`sum_fixed_s` up to s = 129 is a
few reductions over slices of the table's parts and makes no Python call
per row; above, it takes the parts of each row of ``kernel._triangle_rows``.
:func:`sum_fixed_sd` reads its one row's parts from the table whenever
c <= 129 and takes them from the ``math.comb`` row above.  Nothing here keeps
a result between calls: the one state is the Pascal table, whose size is
fixed, so a query's cost depends only on its arguments, past that one
bounded build.

A listing needs every cell's value next to its coordinates, so only a
listing builds coordinates, and every listing comes from one generator,
:func:`_listing`, as plain ``(v, d, n, value)`` tuples of its nonzero cells
in lexicographic order.  A slice pairs its O(s) values
(:func:`_slice_values`, where a pinned difference lifts its row cell by
cell with :func:`_with_difference`) with coordinate ranges.  The whole
simplex (:func:`_simplex_cells`) walks v = 0..s holding only two columns of
Pascal's triangle, C(m, v - 1) and C(m, v) over m = 0..s - 2, each the
running sums of the one before; it reads neither the table nor
:func:`_weighted_columns`, whose ``math.comb`` maps above s = 129 would
cost two calls per cell.  ``include_triples=True`` and
:func:`enumerate_triples` keep the generator's cells as IndexTriple pairs.
The CLI writes them as they come, after the bare report of the same query
has given the verdict; a listed slice tallies and lists one list of its
values (:func:`_slice_listing`), and the whole simplex is walked after its
bare total.  A report without a listing holds the values' total and
nonzero count and nothing more.

The binomial and permutation identities the closed forms rest on are
catalogued in :data:`LEMMAS` and individually checkable via
:func:`lemma_check`.
"""

from __future__ import annotations

import math
from itertools import accumulate, chain, count, islice, repeat
from math import comb, perm
from operator import add, itemgetter, mul
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

from .kernel import (
    COORD_LIMIT, IndexTriple, RangeError, _check, _Record, _triangle_rows, binomial,
)

Pairs = tuple[tuple[IndexTriple, int], ...]
Grid = tuple[tuple[int, ...], ...]
Cell = tuple[int, int, int, int]  # one listed cell: (v, d, n, value)


def _with_difference(row: Sequence[int], d: int) -> list[int]:
    """Row c of the difference-d triangle from row c of the d = 0 one.

    ``row[v] = S(v, 0, c - v)``.  The result holds S(v, d, c - v) for
    v = 0..c by the difference gnomon
    S(v, d, n) = S(v, 0, n) + d * S(v + 1, 0, n - 1), then the rank-0 zero.
    """
    return [*map(add, row, map(d.__mul__, row[1:])), 0]


def _row_parts(row: Sequence[int]) -> tuple[int, int, int, int]:
    """The tally of ``_with_difference(row, d)`` in four parts free of d.

    ``row`` is not empty and holds values >= 0.  Its lift holds
    row[v] + d * row[v + 1] for v < c = len(row) - 1, then a zero, so the
    lift sums to a + d * b with a = P - row[c], b = P - row[0] and
    P = sum(row).  A lifted cell v < c is zero exactly when row[v] is and,
    for d > 0, row[v + 1] is too, so the lift has z0 nonzero cells at d = 0
    and zp at every d > 0.  The result is ``(a, b, z0, zp)``, and the lift
    to d tallies as ``(a + d * b, z0 if d == 0 else zp)``.  A row holds few
    zeros, so ``index`` finds them, and its scan stops before the last cell,
    whose own zero lifts to nothing.
    """
    total = sum(row)
    c = len(row) - 1
    z0 = zp = c
    v = -1
    for _ in range(row.count(0) - (row[c] == 0)):
        v = row.index(0, v + 1, c)
        z0 -= 1
        zp -= row[v + 1] == 0
    return total - row[c], total - row[0], z0, zp


def _simplex_cells(s: int) -> Iterator[Cell]:
    """Every cell on the simplex v + d + n = s, zeros included, lexicographic.

    The walk goes v = 0..s and holds two columns of Pascal's triangle over
    m = 0..s - 2: ``low[m] = C(m, v - 1)`` and ``high[m] = C(m, v)``.  Cell
    (v, d) has m = s - d - 2 and the value low[m] + d * high[m]; the cells
    with m < 0, at d = s - 1 and s, are zeros.  Column 0 is all ones and
    column v + 1 the running sums of column v, C(m, v + 1) = the sum of
    C(j, v) over j < m, so the walk holds O(s) values, not the simplex.
    """
    low = [0] * max(s - 1, 0)
    high = [1] * len(low)
    for v in range(s + 1):
        values = map(add, reversed(low), map(mul, count(), reversed(high)))
        yield from zip(repeat(v), range(s - v + 1), range(s - v, -1, -1), chain(values, (0, 0)))
        low, high = high, list(accumulate(high, initial=0))
        high.pop()


def _listing(
    s: int, fixed: tuple[str, int] | None = None, values: list[int] | None = None
) -> Iterator[Cell]:
    """The nonzero cells of one query, ``(v, d, n, value)``, lexicographic.

    ``fixed`` is None for the whole simplex, else the pinned coordinate's
    name and value; the arguments are those of a query that has already
    checked them.  A slice lists its O(s) values, ``values`` when the caller
    has tallied them, else those of :func:`_slice_values`, and the whole
    simplex walks two Pascal columns (:func:`_simplex_cells`), so a listing
    holds O(s) values whatever its length.  The CLI writes a listing from here cell by cell,
    and ``include_triples=True`` keeps it.
    """
    if fixed is None:
        return filter(itemgetter(3), _simplex_cells(s))
    name, k = fixed
    if values is None:
        values = _slice_values(s, name, k)
    free, rest, pinned = range(s - k + 1), range(s - k, -1, -1), repeat(k)
    coordinates = {"v": (pinned, free, rest), "d": (free, pinned, rest), "n": (free, rest, pinned)}
    return filter(itemgetter(3), zip(*coordinates[name], values))


def enumerate_triples(s: int) -> list[tuple[IndexTriple, int]]:
    """All (v, d, n) with v + d + n == s, lexicographic, with their values."""
    s = _check("s", s)
    return [(IndexTriple(v, d, n), value) for v, d, n, value in _simplex_cells(s)]


class SumReport(_Record):
    """Closed form versus enumeration for one fixed-total query.

    ``formula_sum`` and ``formula_multitude`` are ``None`` when no closed
    form covers the queried corner; the enumerated fields always hold.  The
    multitude counts the triples with nonzero value, and ``triples`` (when
    requested) lists exactly those.  ``consistent`` is True only when the
    closed forms are present and match the enumeration.
    """

    __slots__ = ("formula_sum", "enumerated_sum", "formula_multitude",
                 "enumerated_multitude", "triples", "consistent")
    formula_sum: int | None
    enumerated_sum: int
    formula_multitude: int | None
    enumerated_multitude: int
    triples: Pairs | None
    consistent: bool

    def __init__(
        self,
        formula_sum: int | None,
        enumerated_sum: int,
        formula_multitude: int | None,
        enumerated_multitude: int,
        triples: Pairs | None,
        consistent: bool,
    ) -> None:
        set_fs, set_es, set_fm, set_em, set_triples, set_consistent = SumReport._setters
        set_fs(self, formula_sum)
        set_es(self, enumerated_sum)
        set_fm(self, formula_multitude)
        set_em(self, enumerated_multitude)
        set_triples(self, triples)
        set_consistent(self, consistent)

    @property
    def formula_applies(self) -> bool:
        return self.formula_sum is not None


def _report(
    formula_sum: int | None,
    formula_multitude: int | None,
    totals: tuple[int, int],
    triples: Pairs | None = None,
) -> SumReport:
    """The closed form against ``totals``, the enumerated sum and nonzero
    count of one query, with the query's listing when it asked for one."""
    enum_sum, multitude = totals
    consistent = (formula_sum is not None and formula_sum == enum_sum
                  and formula_multitude == multitude)
    return SumReport(formula_sum, enum_sum, formula_multitude, multitude, triples, consistent)


def _listed(s: int, fixed: tuple[str, int] | None = None) -> tuple[tuple[int, int], Pairs]:
    """The totals of a query's listing, tallied from its cells, and the cells
    as (IndexTriple, value) pairs."""
    triples = tuple((IndexTriple(v, d, n), value) for v, d, n, value in _listing(s, fixed))
    return (sum(value for _, value in triples), len(triples)), triples


#: The table holds rows c = 0..PASCAL_M + 1 of the d = 0 triangle, Pascal's
#: rows m = c - 2 < PASCAL_M.  A read whose last row has c - 2 < PASCAL_M
#: takes it, the rest call ``math.comb`` or build the rows.  The largest
#: entry, C(127, 63), is below 2**124.
PASCAL_M = 128

#: ``(rows, columns, parts, once, twice)`` once built.  rows[c] is row c of
#: the d = 0 triangle, 0, C(c - 2, 0..c - 2), 0, for c = 0..PASCAL_M + 1, and
#: columns are the rows zero-padded to width PASCAL_M + 3 and transposed, so
#: columns[k + 1][m + 2] = C(m, k), zero for k > m.  parts is the four tuples
#: a, b, z0, zp of :func:`_row_parts`, each indexed by c.  once[j][i] is the
#: sum of columns[j][:i], for i = 0..PASCAL_M + 2, and twice[j][i] the sum of
#: once[j][:i], for i = 0..PASCAL_M + 3.  One tuple, so a reader in another
#: thread never pairs new rows with old columns, parts or sums.
_pascal_table: tuple[Grid, Grid, Grid, Grid, Grid] | None = None


def _pascal() -> tuple[Grid, Grid, Grid, Grid, Grid]:
    """The table of Pascal's triangle the small totals read, built on first use.

    The rows are those of ``_triangle_rows``, made by the adjacent-pair rule
    and not by ``math.comb``, which the closed forms keep; their tallies'
    parts come from the rows, and each column's running sums from that
    column's own cells.  A running sum of column j is column j + 1 by the
    hockey stick, but it is never read off that column: a total read from
    it would be the closed form evaluated from the table.
    """
    global _pascal_table
    table = _pascal_table
    if table is None:
        rows = tuple(_triangle_rows(0, PASCAL_M + 1))
        width = PASCAL_M + 3
        columns = tuple(zip(*(row + (0,) * (width - len(row)) for row in rows)))
        once = tuple(tuple(accumulate(column, initial=0)) for column in columns)
        twice = tuple(tuple(accumulate(run, initial=0)) for run in once)
        table = _pascal_table = rows, columns, tuple(zip(*map(_row_parts, rows))), once, twice
    return table


def _column_tally(s: int, a: int, b: int, m_low: int) -> tuple[int, int]:
    """The sum and nonzero count of ``_weighted_columns(s, a, b, m_low)``,
    from the table's running sums, for s - 2 < PASCAL_M.

    The cells are columns[a + 1][i] + (hi - 1 - i) * columns[b + 1][i] for
    i in [lo, hi) = [m_low + 2, s + 1).  With P and R the running sums once
    and twice of a column, the first terms add up to P_a[hi] - P_a[lo]; the
    second adds column b's cell i once for each t in (i, hi), so it is the
    sum of P_b[t] - P_b[lo] over t in [lo, hi).  A cell is zero exactly
    where its C(m, a) is: a pinned dimension has b = a + 1, and C(m, a + 1)
    is zero wherever C(m, a) is (m < a); a pinned rank has m >= a = n - 1,
    where C(m, a) is never zero, and the weights are >= 0.
    """
    _, columns, _, once, twice = _pascal()
    lo, hi = m_low + 2, s + 1
    run_a, run_b, run2_b = once[a + 1], once[b + 1], twice[b + 1]
    total = run_a[hi] - run_a[lo] + run2_b[hi] - run2_b[lo] - (hi - lo) * run_b[lo]
    return total, hi - lo - columns[a + 1][lo:hi].count(0)


def _weighted_columns(s: int, a: int, b: int, m_low: int) -> Iterator[int]:
    """C(m, a) + (s - 2 - m) * C(m, b) for m = m_low..s - 2, with a, b >= 0.

    Two columns of Pascal's triangle, read from the table up to s = 129 and
    by ``math.comb`` maps above.  With m = v + n - 2 and d = s - 2 - m, a
    pinned dimension's cells are (a, b) = (v - 1, v) and a pinned rank's
    (n - 1, n - 2).
    """
    if s - 2 < PASCAL_M:
        columns = _pascal()[1]
        low = columns[a + 1][m_low + 2 : s + 1]
        high = columns[b + 1][m_low + 2 : s + 1]
    else:
        ms = range(m_low, s - 1)
        low = map(comb, ms, repeat(a))
        high = map(comb, ms, repeat(b))
    return map(add, low, map(mul, range(s - 2 - m_low, -1, -1), high))


def _pinned(s: int, name: str, k: int) -> tuple[int, int]:
    """The total s and the coordinate ``name`` pinned to k, checked, with k <= s.

    The slices admit exact ints with 0 <= k <= s < COORD_LIMIT with one test
    and call this for anything else, which it converts or rejects.
    """
    s = _check("s", s)
    k = _check(name, k)
    if k > s:
        raise RangeError(f"fixed coordinate must not exceed the total: {name}={k} > s={s}")
    return s, k


def _pascal_row(c: int) -> Sequence[int]:
    """Row c of the d = 0 triangle, 0, C(c - 2, 0..c - 2), 0: from the table
    whenever c - 2 < PASCAL_M, at any total, and by a ``math.comb`` map above."""
    if c - 2 < PASCAL_M:
        return _pascal()[0][c]
    return (0, *map(comb, repeat(c - 2), range(c - 1)), 0)


def _slice_values(s: int, name: str, k: int) -> list[int]:
    """The values of the slice with coordinate ``name`` pinned to k,
    lexicographic: its first free coordinate runs 0..s - k, the other down."""
    if name == "v":
        # Two columns of Pascal's triangle: m = s - d - 2 runs down as d runs up.
        if k == 0:
            return [*range(s - 1), 0, 0][: s + 1]  # d while n >= 2, then n = 1, 0
        values = list(_weighted_columns(s, k - 1, k, max(k - 2, 0)))  # the cells with m >= 0
        values.reverse()
        if k == 1:
            values.append(0)  # n = 0: m = -1
        return values
    if name == "n":
        # Two columns of Pascal's triangle: m = v + n - 2 climbs with v, and
        # C(m, v - 1) = C(m, n - 1), C(m, v) = C(m, n - 2).  The v = 0 cell
        # holds d when m >= 0; rank 0 is all zeros, and rank 1 holds
        # C(m, m) = 1 from v = 1 on.
        if k >= 2:
            return [s - k, *_weighted_columns(s, k - 1, k - 2, k - 1)]
        if k == 1:
            return [0, *repeat(1, s - 1)]
        return [0] * (s + 1)
    # A row of Pascal's triangle, every cell with m = s - d - 2: row c = s - d
    # of the d = 0 triangle, lifted to d by the difference gnomon.
    return _with_difference(_pascal_row(s - k), k)


def _closed_sv(s: int, v: int) -> tuple[int, int]:
    """:func:`sum_fixed_sv`'s closed sum and nonzero count, at checked arguments."""
    # math.comb(k, j) is 0 for j > k >= 0, and only s = 0 makes k negative
    if v == 0:
        return (math.comb(s - 1, 2) if s else 0), max(s - 2, 0)
    return math.comb(s - 1, v) + math.comb(s - 1, v + 2), s - v


def _closed_sd(s: int, d: int) -> tuple[int | None, int | None]:
    """:func:`sum_fixed_sd`'s closed sum and nonzero count, at checked arguments."""
    if d <= s - 2:
        return (d + 1) * 2 ** (s - d - 2), s - 1 if d == 0 else s - d
    return None, None


def _closed_sn(s: int, n: int) -> tuple[int | None, int | None]:
    """:func:`sum_fixed_sn`'s closed sum and nonzero count, at checked arguments."""
    if n == 0:
        return 0, 0
    if n == 1:
        return s - 1, s - 1
    if n < s:
        return 2 * math.comb(s - 1, n), s - n + 1
    return None, None


def _tally(values: list[int]) -> tuple[int, int]:
    """The sum and the nonzero count of a slice's values."""
    return sum(values), len(values) - values.count(0)


def _slice_listing(s: int, name: str, k: int) -> tuple[SumReport, Iterator[Cell]]:
    """The bare report of the slice with ``name`` pinned to k, and its listing.

    Both read one list of the slice's values, so the report's verdict judges
    the tally of the cells the listing yields.  The arguments are checked
    before anything is built; the listing is lazy, as :func:`_listing`'s.
    """
    s, k = _pinned(s, name, k)
    values = _slice_values(s, name, k)
    closed = {"v": _closed_sv, "d": _closed_sd, "n": _closed_sn}[name](s, k)
    return _report(*closed, _tally(values)), _listing(s, (name, k), values)


def sum_fixed_sv(s: int, v: int, include_triples: bool = False) -> SumReport:
    """Sum over all triples with total s and dimension pinned to v.

    Closed form: C(s-1, 2) for v = 0, else C(s-1, v) + C(s-1, v+2); the
    nonzero count is s - 2 (floored at 0) for v = 0, else s - v.  Without a
    listing, v >= 1 up to s = 129 tallies its cells from the table's running
    sums of columns v and v + 1 (:func:`_column_tally`); v = 0 and every
    larger total tally the slice's values.
    """
    if not (type(s) is type(v) is int and 0 <= v <= s < COORD_LIMIT):
        s, v = _pinned(s, "v", v)
    if include_triples:
        return _report(*_closed_sv(s, v), *_listed(s, ("v", v)))
    if v and s - 2 < PASCAL_M:
        return _report(*_closed_sv(s, v), _column_tally(s, v - 1, v, max(v - 2, 0)))
    return _report(*_closed_sv(s, v), _tally(_slice_values(s, "v", v)))


def sum_fixed_sd(s: int, d: int, include_triples: bool = False) -> SumReport:
    """Sum over all triples with total s and difference pinned to d.

    Closed form (d + 1) * 2**(s - d - 2) applies for d <= s - 2, with
    nonzero count s - 1 when d = 0 and s - d otherwise.  For d in
    {s - 1, s} every candidate value is zero and no closed form applies.
    Without a listing the Pascal row c = s - d is tallied, not lifted: its
    :func:`_row_parts` come from the table whenever c - 2 < PASCAL_M, at any
    total, and from the row's ``math.comb`` map above.
    """
    if not (type(s) is type(d) is int and 0 <= d <= s < COORD_LIMIT):
        s, d = _pinned(s, "d", d)
    if include_triples:
        return _report(*_closed_sd(s, d), *_listed(s, ("d", d)))
    c = s - d
    if c - 2 < PASCAL_M:
        a, b, z0, zp = map(itemgetter(c), _pascal()[2])
    else:
        a, b, z0, zp = _row_parts(_pascal_row(c))
    return _report(*_closed_sd(s, d), (a + d * b, zp if d else z0))


def sum_fixed_sn(s: int, n: int, include_triples: bool = False) -> SumReport:
    """Sum over all triples with total s and rank pinned to n.

    Closed forms: 0 at n = 0, s - 1 at n = 1 and 2 * C(s-1, n) for
    2 <= n < s; the nonzero count is s - n at n = 1 and s - n + 1 for
    2 <= n < s.  At n = s the single candidate is zero and no closed form
    applies.  Without a listing, n >= 2 up to s = 129 tallies its cells from
    the table's running sums of columns n and n - 1 (:func:`_column_tally`)
    and adds the v = 0 cell, s - n; n <= 1 and every larger total tally the
    slice's values.
    """
    if not (type(s) is type(n) is int and 0 <= n <= s < COORD_LIMIT):
        s, n = _pinned(s, "n", n)
    if include_triples:
        return _report(*_closed_sn(s, n), *_listed(s, ("n", n)))
    if n >= 2 and s - 2 < PASCAL_M:
        total, nonzero = _column_tally(s, n - 1, n - 2, n - 1)
        # the v = 0 cell holds d = s - n
        return _report(*_closed_sn(s, n), (total + s - n, nonzero + (n < s)))
    return _report(*_closed_sn(s, n), _tally(_slice_values(s, "n", n)))


def sum_fixed_s(s: int, include_triples: bool = False) -> SumReport:
    """Sum over every triple with coordinate total s.

    Closed forms 2**s - (s + 1) and C(s+1, 2) - 2 apply for s >= 2; for
    smaller totals only the enumeration stands.  The enumeration reads rows
    c = 0..s of Pascal's triangle, the d = 0 triangle, each lifted to the
    difference d = s - c by the difference gnomon.  Without a listing no
    lifted cell is built: row c adds a[c] + d * b[c] to the sum, and z0[c]
    (d = 0) or zp[c] (d > 0) to the nonzero count, from its
    :func:`_row_parts`.  Up to s = 129 the parts are the table's, so the
    total is a few reductions over slices of them and makes no Python call
    per row; above, each row of ``_triangle_rows`` gives its parts.  A
    listing tallies its own cells, which :func:`_simplex_cells` makes from
    two Pascal columns at a time.
    """
    s = _check("s", s)
    if s >= 2:
        formula_sum = 2**s - (s + 1)
        formula_multitude = (s + 1) * s // 2 - 2
    else:
        formula_sum = None
        formula_multitude = None
    if include_triples:
        return _report(formula_sum, formula_multitude, *_listed(s))
    if s - 2 < PASCAL_M:
        a, b, z0, zp = _pascal()[2]
    else:
        a, b, z0, zp = zip(*map(_row_parts, _triangle_rows(0, s)))
    # row c = s is lifted to d = 0, rows c < s to d = s - c > 0
    total = sum(a[: s + 1]) + sum(map(mul, range(s, 0, -1), b[:s]))
    return _report(formula_sum, formula_multitude, (total, sum(zp[:s]) + z0[s]))


class _Lemma(NamedTuple):
    """One identity ``lhs == rhs`` over the integer parameters ``params`` in ``domain``.

    A lemma whose literal sum gains one term as one parameter grows names
    that parameter ``along``.  ``running`` takes the other parameters, in
    order, and returns the first value of ``along`` in the domain with an
    iterator of the partial sums from there on, one per value.  The sides of
    such a lemma take the partial sum at their parameters as one more
    argument; without ``along`` they take the parameters alone.
    """

    params: tuple[str, ...]
    domain: Callable[..., bool]
    lhs: Callable[..., int]
    rhs: Callable[..., int]
    along: str | None = None
    running: Callable[..., tuple[int, Iterator[int]]] | None = None


#: The identities the closed forms are built from, each stated as an
#: exactly evaluable left side and right side, one of them a literal sum and
#: the other its closed form.  Keys are stable tags usable from the command
#: line and tests.  Every literal sum that extends a shorter one is stated
#: once, as a running sum: ``accumulate`` over a ``map`` of its terms along
#: the parameter that extends it, so a sweep reads every partial sum of one
#: pass and one case reads one element.  ``weighted_stick``'s sum is the
#: running sum of the hockey stick's partial sums.  Only ``row_power``
#: changes every term with its parameter, so each of its cases sums its own
#: ``map``.  The terms call ``math.comb`` and ``math.perm`` directly: the
#: stated domains keep 0 <= k <= n in every term, and the ladder's m = 0
#: terms P(j, -1), zero by extension, are a running sum of zeros.  The
#: closed forms keep ``binomial``.
LEMMAS: dict[str, _Lemma] = {
    "sum_r": _Lemma(
        ("n",),
        lambda n: n >= 0,
        lambda n, total: total,
        lambda n, total: n * (n + 1) // 2,
        "n",
        lambda: (0, accumulate(count())),
    ),
    "sum_r2": _Lemma(
        ("n",),
        lambda n: n >= 0,
        lambda n, total: total,
        lambda n, total: n * (n + 1) * (2 * n + 1) // 6,
        "n",
        lambda: (0, accumulate(map(mul, count(), count()))),
    ),
    "sum_r3": _Lemma(
        ("n",),
        lambda n: n >= 0,
        lambda n, total: total,
        lambda n, total: (n * (n + 1) // 2) ** 2,
        "n",
        lambda: (0, accumulate(map(pow, count(), repeat(3)))),
    ),
    "hockey_stick": _Lemma(
        ("M", "m"),
        lambda M, m: 0 <= m <= M,
        lambda M, m, total: total,
        lambda M, m, total: binomial(M + 1, m + 1),
        "M",
        lambda m: (m, accumulate(map(comb, count(m), repeat(m)))),
    ),
    "diagonal_stick": _Lemma(
        ("M", "m"),
        lambda M, m: M >= 0 and m >= 0,
        lambda M, m, total: total,
        lambda M, m, total: binomial(M + m + 1, m),
        "m",
        lambda M: (0, accumulate(map(comb, count(M), count()))),
    ),
    "row_power": _Lemma(
        ("M",),
        lambda M: M >= 0,
        lambda M: sum(map(comb, repeat(M), range(M + 1))),
        lambda M: 2**M,
    ),
    "weighted_stick": _Lemma(
        ("M", "m"),
        lambda M, m: 0 <= m < M,
        lambda M, m, total: total,
        lambda M, m, total: binomial(M + 1, m + 2),
        "M",
        # j * C(M - j, m) for j = 1..M - m, regrouped: C(i, m) is added M - i
        # times, once in each hockey-stick partial sum from i on
        lambda m: (m + 1, accumulate(accumulate(map(comb, count(m), repeat(m))))),
    ),
    "permutation_ladder": _Lemma(
        ("M", "m"),
        lambda M, m: 0 <= m <= M,
        lambda M, m, total: perm(M + 1, m),
        lambda M, m, total: math.factorial(m) + m * total,
        "M",
        lambda m: (m, accumulate(map(perm, count(m), repeat(m - 1))) if m else repeat(0)),
    ),
    "geometric": _Lemma(
        ("R",),
        lambda R: R >= 0,
        lambda R, total: total,
        lambda R, total: 2 ** (R + 1) - 1,
        "R",
        lambda: (0, accumulate(map(pow, repeat(2), count()))),
    ),
    "weighted_geometric": _Lemma(
        ("R",),
        lambda R: R >= 0,
        lambda R, total: total,
        lambda R, total: 2 + (R - 1) * 2 ** (R + 1),
        "R",
        lambda: (0, accumulate(map(mul, count(), map(pow, repeat(2), count())))),
    ),
}


def _sides(lemma: _Lemma, args: Sequence[int]) -> tuple[int, int]:
    """Both sides of ``lemma`` at ``args``, which lie in its domain.

    A running sum is read at one element: the one for ``args``' value of
    the parameter it runs along.
    """
    if lemma.along is None:
        return lemma.lhs(*args), lemma.rhs(*args)
    i = lemma.params.index(lemma.along)
    first, partials = lemma.running(*args[:i], *args[i + 1:])
    total = next(islice(partials, args[i] - first, None))
    return lemma.lhs(*args, total), lemma.rhs(*args, total)


def lemma_check(tag: str, params: Mapping[str, int]) -> bool:
    """Evaluate both sides of one catalogued identity exactly.

    ``params`` maps the identity's bound variables (see ``LEMMAS[tag].params``)
    to integer values.  Returns True iff the two sides agree.  A parameter
    that is not an exact integer (bool and float included) or lies outside
    [0, 2**32) raises the :class:`RangeError` every coordinate raises; one
    outside the identity's stated domain raises :class:`RangeError` too.
    """
    try:
        lemma = LEMMAS[tag]
    except KeyError:
        raise ValueError(f"unknown lemma tag {tag!r}; known: {sorted(LEMMAS)}") from None
    missing = [p for p in lemma.params if p not in params]
    extra = [p for p in params if p not in lemma.params]
    if missing or extra:
        raise ValueError(
            f"lemma {tag!r} takes parameters {lemma.params}; "
            f"missing {missing}, unexpected {extra}"
        )
    args = [_check(p, params[p]) for p in lemma.params]
    if not lemma.domain(*args):
        raise RangeError(f"parameters out of domain for lemma {tag!r}: {dict(params)}")
    lhs, rhs = _sides(lemma, args)
    return lhs == rhs
