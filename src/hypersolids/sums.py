"""Sums of figurate numbers over the simplex v + d + n = s.

For a fixed coordinate total s there are C(s + 2, 2) coordinate triples.
Closed forms exist for the sum of the values over that whole simplex and
over its slices with one coordinate pinned, except at a few degenerate
corners (difference pinned to s - 1 or s, rank pinned to s, totals with
s < 2).  Every query here returns a :class:`SumReport` holding the closed
form (or ``None`` where none applies) next to an exhaustive enumeration of
the same triples, so the two can be compared exactly.

Every value here is C(m, v - 1) + d * C(m, v) with m = v + n - 2, so the
cells of a slice lie along one line of Pascal's triangle: with the
difference pinned they share m and read one row, with the dimension pinned
m runs down a column, and with the rank pinned m and v climb a diagonal.  A
slice query computes its O(s) values in one pass of maps, with the v = 0 and
m < 0 corners written out, and calls no Python function per cell.  For
totals with s - 2 < :data:`PASCAL_M`, that is up to s = 129, the maps read
their binomials from one fixed table of Pascal's rows m < PASCAL_M and their
columns (:func:`_pascal`), built once, on first use, by the adjacent-pair
rule: a pinned difference reads a row, a pinned dimension two columns and
a pinned rank two columns too, as C(m, v) = C(m, n - 2) there.  Larger
totals map ``math.comb`` over ranges.  The closed forms keep ``math.comb``,
so below the bound the enumerated side shares no binomial with its judge.
The whole simplex is read row by row from the d = 0 triangle, Pascal's:
below the same bound a bare total reads its rows from the same table, and
larger totals and every listing build them with ``kernel._triangle_rows``,
like every triangle.
The difference gnomon S(v, d, n) = S(v, 0, n) + d * S(v + 1, 0, n - 1) lifts
row c to the difference d = s - c, and a lifted row's sum is
(P - row[c]) + d * (P - row[0]) with P = sum(row), so :func:`sum_fixed_s`
adds up one row total and one product per row (:func:`_lifted_tally`) and
never builds a lifted cell.  Nothing here keeps a result between calls: the
one state is the Pascal table, whose size is fixed, so a query's cost depends
only on its arguments, past that one bounded build.  :func:`sum_fixed_sd`
tallies its one Pascal row the same way.
A listing needs every cell's value next to its coordinates, so only a
listing builds coordinates and only a listing lifts: a slice makes its
coordinate iterators only when ``include_triples=True``, a fixed-difference
listing lifts its row cell by cell with :func:`_with_difference`, and the
whole-simplex listing (:func:`enumerate_triples`,
``sum_fixed_s(s, include_triples=True)``) lifts every row with
:func:`_simplex_rows`.  A report without a listing holds the values' total
and nonzero count and nothing more.

The binomial and permutation identities the closed forms rest on are
catalogued in :data:`LEMMAS` and individually checkable via
:func:`lemma_check`.
"""

from __future__ import annotations

import math
from itertools import accumulate, count, islice, repeat, starmap
from math import comb, perm
from operator import add, mul
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .kernel import (
    COORD_LIMIT, IndexTriple, RangeError, _check, _Record, _triangle_rows, binomial,
)

Pairs = tuple[tuple[IndexTriple, int], ...]
Grid = tuple[tuple[int, ...], ...]


def _with_difference(row: Sequence[int], d: int) -> list[int]:
    """Row c of the difference-d triangle from row c of the d = 0 one.

    ``row[v] = S(v, 0, c - v)``.  The result holds S(v, d, c - v) for
    v = 0..c by the difference gnomon
    S(v, d, n) = S(v, 0, n) + d * S(v + 1, 0, n - 1), then the rank-0 zero.
    """
    return [*map(add, row, map(d.__mul__, row[1:])), 0]


def _lifted_tally(row: Sequence[int], d: int) -> tuple[int, int]:
    """The sum and the nonzero count of ``_with_difference(row, d)``, not built.

    ``row`` is not empty and holds values >= 0.  Its lift holds
    row[v] + d * row[v + 1] for v < c = len(row) - 1, then a zero, so the
    lift sums to (P - row[c]) + d * (P - row[0]) with P = sum(row), and a
    lifted cell v < c is zero exactly when row[v] is and, for d > 0,
    row[v + 1] is too.  A row holds few zeros, so ``index`` finds them, and
    its scan stops before the last cell, whose own zero lifts to nothing.
    :func:`sum_fixed_s` tallies every row of the simplex with it and
    :func:`sum_fixed_sd` its one Pascal row.
    """
    total = sum(row)
    c = len(row) - 1
    nonzero = c
    v = -1
    for _ in range(row.count(0) - (row[c] == 0)):
        v = row.index(0, v + 1, c)
        if d == 0 or row[v + 1] == 0:
            nonzero -= 1
    return total - row[c] + d * (total - row[0]), nonzero


def _simplex_rows(s: int) -> Iterator[list[int]]:
    """The values on the simplex v + d + n = s, one list per difference.

    The list for difference d holds S(v, d, s - d - v) for v = 0..s - d;
    the lists come for d = s, s - 1, ..., 0.  They are the rows c = s - d of
    the d = 0 triangle, which is Pascal's, each lifted to its difference by
    :func:`_with_difference`.  Only listings read them (:func:`_triples`).
    """
    return map(_with_difference, _triangle_rows(0, s), range(s, -1, -1))


def _triples(s: int) -> tuple[list[int], list[tuple[int, int, int]]]:
    """The values on the simplex v + d + n = s and their coordinates, lexicographic."""
    by_d = list(_simplex_rows(s))[::-1]
    cells = [(v, d, s - v - d) for v in range(s + 1) for d in range(s - v + 1)]
    return [by_d[d][v] for v, d, _ in cells], cells


def enumerate_triples(s: int) -> list[tuple[IndexTriple, int]]:
    """All (v, d, n) with v + d + n == s, lexicographic, with their values."""
    s = _check("s", s)
    values, cells = _triples(s)
    return list(zip(starmap(IndexTriple, cells), values))


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
    values: Sequence[int],
    formula_sum: int | None,
    formula_multitude: int | None,
    cells: Iterable[tuple[int, int, int]] | None = None,
    totals: tuple[int, int] | None = None,
) -> SumReport:
    """The closed form against the enumerated cells of one query.

    ``values`` holds the cells' values.  ``cells``, given only for a
    listing, holds their coordinates in the same order, and the report then
    lists the nonzero cells as IndexTriples.  ``totals``, when given, is the
    enumerated sum and nonzero count worked out without the cells, and
    stands in for the tally of ``values``.
    """
    if totals is None:
        totals = sum(values), len(values) - values.count(0)
    enum_sum, multitude = totals
    triples = None
    if cells is not None:
        pairs = zip(starmap(IndexTriple, cells), values)
        triples = tuple((t, value) for t, value in pairs if value)
    consistent = (formula_sum is not None and formula_sum == enum_sum
                  and formula_multitude == multitude)
    return SumReport(formula_sum, enum_sum, formula_multitude, multitude, triples, consistent)


#: The slices of totals s with s - 2 < PASCAL_M read their binomials from one
#: table of Pascal's rows m < PASCAL_M, and a bare whole-simplex total its
#: rows; larger totals call ``math.comb`` or build the rows.  The largest
#: entry, C(127, 63), is below 2**124.
PASCAL_M = 128

#: ``(rows, columns)`` once built, with rows[m][k] = columns[k][m] = C(m, k)
#: for m < PASCAL_M and k < PASCAL_M + 2, zero for k > m.  The two columns
#: past the last row's end hold only zeros, so columns[-1] and columns[-2]
#: read as C(m, -1) and C(m, -2).  One tuple, so a reader in another thread
#: never pairs new rows with old columns.
_pascal_table: tuple[Grid, Grid] | None = None


def _pascal() -> tuple[Grid, Grid]:
    """The table of Pascal's triangle the small totals read, built on first use.

    Row c of the d = 0 triangle holds 0, C(c - 2, 0..c - 2), 0, so the rows
    come from ``_triangle_rows`` by the adjacent-pair rule and not from
    ``math.comb``, which the closed forms keep.
    """
    global _pascal_table
    table = _pascal_table
    if table is None:
        width = PASCAL_M + 2
        rows = tuple(
            row[1:-1] + (0,) * (width + 2 - len(row))
            for row in islice(_triangle_rows(0, PASCAL_M + 1), 2, None)
        )
        table = _pascal_table = rows, tuple(zip(*rows))
    return table


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


def sum_fixed_sv(s: int, v: int, include_triples: bool = False) -> SumReport:
    """Sum over all triples with total s and dimension pinned to v.

    Closed form: C(s-1, 2) for v = 0, else C(s-1, v) + C(s-1, v+2); the
    nonzero count is s - 2 (floored at 0) for v = 0, else s - v.
    """
    if not (type(s) is type(v) is int and 0 <= v <= s < COORD_LIMIT):
        s, v = _pinned(s, "v", v)
    # A column of Pascal's triangle: m = s - d - 2 runs down as d runs up.
    if v == 0:
        values = [*range(s - 1), 0, 0][: s + 1]  # d while n >= 2, then n = 1, 0
    else:
        # the cells with m >= 0, d = 0, 1, ...: m = s - 2 down to m_low
        m_low = max(v - 2, 0)
        if s - 2 < PASCAL_M:
            _, columns = _pascal()
            low = reversed(columns[v - 1][m_low:s - 1])
            high = reversed(columns[v][m_low:s - 1])
        else:
            ms = range(s - 2, m_low - 1, -1)
            low = map(comb, ms, repeat(v - 1))
            high = map(comb, ms, repeat(v))
        values = list(map(add, low, map(mul, count(), high)))
        if v == 1:
            values.append(0)  # n = 0: m = -1
    cells = zip(repeat(v), range(s - v + 1), range(s - v, -1, -1)) if include_triples else None
    # math.comb(k, j) is 0 for j > k >= 0, and only s = 0 makes k negative
    if v == 0:
        formula_sum = math.comb(s - 1, 2) if s else 0
        formula_multitude = max(s - 2, 0)
    else:
        formula_sum = math.comb(s - 1, v) + math.comb(s - 1, v + 2)
        formula_multitude = s - v
    return _report(values, formula_sum, formula_multitude, cells)


def sum_fixed_sd(s: int, d: int, include_triples: bool = False) -> SumReport:
    """Sum over all triples with total s and difference pinned to d.

    Closed form (d + 1) * 2**(s - d - 2) applies for d <= s - 2, with
    nonzero count s - 1 when d = 0 and s - d otherwise.  For d in
    {s - 1, s} every candidate value is zero and no closed form applies.
    """
    if not (type(s) is type(d) is int and 0 <= d <= s < COORD_LIMIT):
        s, d = _pinned(s, "d", d)
    # A row of Pascal's triangle, every cell with m = s - d - 2: row c = s - d
    # of the d = 0 triangle, lifted to d by the difference gnomon.  Without a
    # listing the lift is tallied, not built.
    m = s - d - 2
    if m < 0:
        row = [0] * (s - d + 1)
    elif s - 2 < PASCAL_M:
        row = [0, *_pascal()[0][m][: m + 1], 0]
    else:
        row = [0, *map(comb, repeat(m), range(m + 1)), 0]
    if d <= s - 2:
        formula_sum = (d + 1) * 2 ** (s - d - 2)
        formula_multitude = s - 1 if d == 0 else s - d
    else:
        formula_sum = None
        formula_multitude = None
    if include_triples:
        cells = zip(range(s - d + 1), repeat(d), range(s - d, -1, -1))
        return _report(_with_difference(row, d), formula_sum, formula_multitude, cells)
    return _report((), formula_sum, formula_multitude, totals=_lifted_tally(row, d))


def sum_fixed_sn(s: int, n: int, include_triples: bool = False) -> SumReport:
    """Sum over all triples with total s and rank pinned to n.

    Closed forms: 0 at n = 0, s - 1 at n = 1 and 2 * C(s-1, n) for
    2 <= n < s; the nonzero count is s - n at n = 1 and s - n + 1 for
    2 <= n < s.  At n = s the single candidate is zero and no closed form
    applies.
    """
    if not (type(s) is type(n) is int and 0 <= n <= s < COORD_LIMIT):
        s, n = _pinned(s, "n", n)
    # A diagonal of Pascal's triangle: m = v + n - 2 climbs with v.  The
    # v = 0 cell holds d when m >= 0; at n = 0 the v = 1 cell has m < 0 too.
    lead = [s - n] if n >= 2 else [0] * min(2 - n, s - n + 1)
    v0 = len(lead)
    m_low = v0 + n - 2  # m for v = v0..s - n runs m_low..s - 2
    ds = range(s - n - v0, -1, -1)
    if s - 2 < PASCAL_M:
        # C(m, v - 1) = C(m, n - 1) and C(m, v) = C(m, n - 2) for n >= 2, so m
        # climbs two columns.  At n = 1 the cells read C(m, m) = C(m, 0) and
        # C(m, m + 1) = 0, at n = 0 two zeros: columns -1 and -2 are the
        # table's last two, which hold only zeros.
        _, columns = _pascal()
        low = columns[n - 1][m_low:s - 1]
        high = columns[n - 2][m_low:s - 1]
    else:
        ms = range(m_low, s - 1)
        low = map(comb, ms, count(v0 - 1))
        high = map(comb, ms, count(v0))
    values = [*lead, *map(add, low, map(mul, ds, high))]
    cells = zip(range(s - n + 1), range(s - n, -1, -1), repeat(n)) if include_triples else None
    if n == 0:
        formula_sum, formula_multitude = 0, 0
    elif n == 1:
        formula_sum, formula_multitude = s - 1, s - 1
    elif n < s:
        formula_sum = 2 * math.comb(s - 1, n)
        formula_multitude = s - n + 1
    else:
        formula_sum = None
        formula_multitude = None
    return _report(values, formula_sum, formula_multitude, cells)


def sum_fixed_s(s: int, include_triples: bool = False) -> SumReport:
    """Sum over every triple with coordinate total s.

    Closed forms 2**s - (s + 1) and C(s+1, 2) - 2 apply for s >= 2; for
    smaller totals only the enumeration stands.  The enumeration reads rows
    c = 0..s of Pascal's triangle, the d = 0 triangle, and lifts row c to the
    difference d = s - c by the difference gnomon.  Without a listing each
    row adds its lifted sum, (P - row[c]) + d * (P - row[0]) with
    P = sum(row), and its lifted nonzero count from where the row's own
    zeros lie, so no lifted cell is built.  Up to s = 129 (s - 2 <
    :data:`PASCAL_M`) those rows, 0, C(c - 2, 0..c - 2), 0, are read from the
    table the slices read; larger totals build them with ``_triangle_rows``.
    A listing pairs every cell's value with its coordinates, so only it
    lifts the rows cell by cell, from ``_triangle_rows`` at every total.
    """
    s = _check("s", s)
    if s >= 2:
        formula_sum = 2**s - (s + 1)
        formula_multitude = (s + 1) * s // 2 - 2
    else:
        formula_sum = None
        formula_multitude = None
    if include_triples:
        values, cells = _triples(s)
        return _report(values, formula_sum, formula_multitude, cells)
    if s - 2 < PASCAL_M:
        # row c = m + 2 of the d = 0 triangle is 0, C(m, 0..m), 0, and rows 0
        # and 1 hold only zeros; map stops at d = 0, so s < 2 reads just its own
        table = _pascal()[0]
        rows = [(0,), (0, 0), *[(0, *table[m][: m + 1], 0) for m in range(s - 1)]]
    else:
        rows = _triangle_rows(0, s)
    row_sums, row_nonzeros = zip(*map(_lifted_tally, rows, range(s, -1, -1)))
    totals = sum(row_sums), sum(row_nonzeros)
    return _report((), formula_sum, formula_multitude, totals=totals)


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
