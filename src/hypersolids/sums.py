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
slice query computes its O(s) values in one pass of ``math.comb`` maps over
ranges, with the v = 0 and m < 0 corners written out, and calls no Python
function per cell.  The whole simplex is read row by row from the d = 0
triangle, Pascal's, built by ``kernel._triangle_rows`` like every triangle.
The difference gnomon S(v, d, n) = S(v, 0, n) + d * S(v + 1, 0, n - 1) lifts
row c to the difference d = s - c, and a lifted row's sum is
(P - row[c]) + d * (P - row[0]) with P = sum(row), so :func:`sum_fixed_s`
adds up one row total and one product per row (:func:`_lifted_tally`) and
never builds a lifted cell; its cost depends only on s and not on what was
asked before.  A listing needs every cell's value next to its coordinates,
so only it lifts each row cell by cell (:func:`_simplex_rows`) and builds
coordinate triples (:func:`enumerate_triples`, ``include_triples=True``).

The binomial and permutation identities the closed forms rest on are
catalogued in :data:`LEMMAS` and individually checkable via
:func:`lemma_check`.
"""

from __future__ import annotations

import math
from itertools import count, repeat, starmap
from math import comb
from operator import add, mul
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .kernel import (
    IndexTriple, RangeError, _check, _exact_int, _Record, _set_field, _triangle_rows, binomial,
    permutation,
)

Pairs = tuple[tuple[IndexTriple, int], ...]


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
    row[v + 1] is too.  A row holds few zeros, so ``index`` finds them.
    """
    total = sum(row)
    c = len(row) - 1
    nonzero = c
    v = -1
    for _ in range(row.count(0)):
        v = row.index(0, v + 1)
        if v < c and (d == 0 or row[v + 1] == 0):
            nonzero -= 1
    return total - row[c] + d * (total - row[0]), nonzero


def _simplex_rows(s: int) -> Iterator[list[int]]:
    """The values on the simplex v + d + n = s, one list per difference.

    The list for difference d holds S(v, d, s - d - v) for v = 0..s - d;
    the lists come for d = s, s - 1, ..., 0.  They are the rows c = s - d of
    the d = 0 triangle, which is Pascal's, each lifted to its difference by
    :func:`_with_difference`.
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
        _set_field(self, "formula_sum", formula_sum)
        _set_field(self, "enumerated_sum", enumerated_sum)
        _set_field(self, "formula_multitude", formula_multitude)
        _set_field(self, "enumerated_multitude", enumerated_multitude)
        _set_field(self, "triples", triples)
        _set_field(self, "consistent", consistent)

    @property
    def formula_applies(self) -> bool:
        return self.formula_sum is not None


def _report(
    values: Sequence[int],
    cells: Iterable[tuple[int, int, int]],
    formula_sum: int | None,
    formula_multitude: int | None,
    include_triples: bool,
    totals: tuple[int, int] | None = None,
) -> SumReport:
    """The closed form against the enumerated cells of one query.

    ``values`` holds the cells' values in the order of the coordinates in
    ``cells``.  Only a listing reads ``cells`` and turns coordinates into
    IndexTriples.  ``totals``, when given, is the enumerated sum and nonzero
    count worked out without the cells, and stands in for the tally of
    ``values``.
    """
    if totals is None:
        totals = sum(values), len(values) - values.count(0)
    enum_sum, multitude = totals
    triples = None
    if include_triples:
        pairs = zip(starmap(IndexTriple, cells), values)
        triples = tuple((t, value) for t, value in pairs if value)
    consistent = (formula_sum is not None and formula_sum == enum_sum
                  and formula_multitude == multitude)
    return SumReport(formula_sum, enum_sum, formula_multitude, multitude, triples, consistent)


def _pinned(s: int, name: str, k: int) -> tuple[int, int]:
    """The total s and the coordinate ``name`` pinned to k, checked, with k <= s."""
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
    s, v = _pinned(s, "v", v)
    # A column of Pascal's triangle: m = s - d - 2 runs down as d runs up.
    if v == 0:
        values = [*range(s - 1), 0, 0][: s + 1]  # d while n >= 2, then n = 1, 0
    else:
        ds = range(min(s - v, s - 2) + 1)  # the cells with m >= 0
        ms = range(s - 2, s - 2 - len(ds), -1)
        values = [
            *map(add, map(comb, ms, repeat(v - 1)), map(mul, ds, map(comb, ms, repeat(v)))),
            *[0] * (s - v + 1 - len(ds)),  # v = 1, n = 0: m = -1
        ]
    cells = zip(repeat(v), range(s - v + 1), range(s - v, -1, -1))
    if v == 0:
        formula_sum = binomial(s - 1, 2)
        formula_multitude = max(s - 2, 0)
    else:
        formula_sum = binomial(s - 1, v) + binomial(s - 1, v + 2)
        formula_multitude = s - v
    return _report(values, cells, formula_sum, formula_multitude, include_triples)


def sum_fixed_sd(s: int, d: int, include_triples: bool = False) -> SumReport:
    """Sum over all triples with total s and difference pinned to d.

    Closed form (d + 1) * 2**(s - d - 2) applies for d <= s - 2, with
    nonzero count s - 1 when d = 0 and s - d otherwise.  For d in
    {s - 1, s} every candidate value is zero and no closed form applies.
    """
    s, d = _pinned(s, "d", d)
    # A row of Pascal's triangle: every cell has m = s - d - 2.
    m = s - d - 2
    if m < 0:
        values = [0] * (s - d + 1)
    else:
        values = _with_difference([0, *map(comb, repeat(m), range(m + 1)), 0], d)
    cells = zip(range(s - d + 1), repeat(d), range(s - d, -1, -1))
    if d <= s - 2:
        formula_sum = (d + 1) * 2 ** (s - d - 2)
        formula_multitude = s - 1 if d == 0 else s - d
    else:
        formula_sum = None
        formula_multitude = None
    return _report(values, cells, formula_sum, formula_multitude, include_triples)


def sum_fixed_sn(s: int, n: int, include_triples: bool = False) -> SumReport:
    """Sum over all triples with total s and rank pinned to n.

    Closed forms: 0 at n = 0, s - 1 at n = 1 and 2 * C(s-1, n) for
    2 <= n < s; the nonzero count is s - n at n = 1 and s - n + 1 for
    2 <= n < s.  At n = s the single candidate is zero and no closed form
    applies.
    """
    s, n = _pinned(s, "n", n)
    # A diagonal of Pascal's triangle: m = v + n - 2 climbs with v.  The
    # v = 0 cell holds d when m >= 0; at n = 0 the v = 1 cell has m < 0 too.
    lead = [s - n] if n >= 2 else [0] * min(2 - n, s - n + 1)
    v0 = len(lead)
    ms = range(v0 + n - 2, s - 1)  # m for v = v0..s - n
    ds = range(s - n - v0, -1, -1)
    values = [
        *lead,
        *map(add, map(comb, ms, count(v0 - 1)), map(mul, ds, map(comb, ms, count(v0)))),
    ]
    cells = zip(range(s - n + 1), range(s - n, -1, -1), repeat(n))
    if n == 0:
        formula_sum, formula_multitude = 0, 0
    elif n == 1:
        formula_sum, formula_multitude = s - 1, s - 1
    elif n < s:
        formula_sum = 2 * binomial(s - 1, n)
        formula_multitude = s - n + 1
    else:
        formula_sum = None
        formula_multitude = None
    return _report(values, cells, formula_sum, formula_multitude, include_triples)


def sum_fixed_s(s: int, include_triples: bool = False) -> SumReport:
    """Sum over every triple with coordinate total s.

    Closed forms 2**s - (s + 1) and C(s+1, 2) - 2 apply for s >= 2; for
    smaller totals only the enumeration stands.  The enumeration reads rows
    c = 0..s of Pascal's triangle, the d = 0 triangle, and lifts row c to the
    difference d = s - c by the difference gnomon.  Without a listing each
    row adds its lifted sum, (P - row[c]) + d * (P - row[0]) with
    P = sum(row), and its lifted nonzero count from where the row's own
    zeros lie, so no lifted cell is built.  A listing pairs every cell's
    value with its coordinates, so only it lifts the rows cell by cell.
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
        return _report(values, cells, formula_sum, formula_multitude, include_triples)
    row_sums, row_nonzeros = zip(*map(_lifted_tally, _triangle_rows(0, s), range(s, -1, -1)))
    totals = sum(row_sums), sum(row_nonzeros)
    return _report((), (), formula_sum, formula_multitude, False, totals=totals)


class _Lemma(NamedTuple):
    params: tuple[str, ...]
    domain: Callable[..., bool]
    lhs: Callable[..., int]
    rhs: Callable[..., int]


#: The identities the closed forms are built from, each stated as an
#: exactly evaluable left side (a literal sum) and right side (its closed
#: form).  Keys are stable tags usable from the command line and tests.
#: The binomial sums call ``math.comb`` directly: their stated domains keep
#: 0 <= k <= n in every term, so they need no zero extension.  The right
#: sides keep ``binomial``, and ``permutation_ladder`` keeps ``permutation``,
#: whose m = 0 case reads P(j, -1) = 0.
LEMMAS: dict[str, _Lemma] = {
    "sum_r": _Lemma(
        ("n",),
        lambda n: n >= 0,
        lambda n: sum(range(1, n + 1)),
        lambda n: n * (n + 1) // 2,
    ),
    "sum_r2": _Lemma(
        ("n",),
        lambda n: n >= 0,
        lambda n: sum(r * r for r in range(1, n + 1)),
        lambda n: n * (n + 1) * (2 * n + 1) // 6,
    ),
    "sum_r3": _Lemma(
        ("n",),
        lambda n: n >= 0,
        lambda n: sum(r**3 for r in range(1, n + 1)),
        lambda n: (n * (n + 1) // 2) ** 2,
    ),
    "hockey_stick": _Lemma(
        ("M", "m"),
        lambda M, m: 0 <= m <= M,
        lambda M, m: sum(map(comb, range(m, M + 1), repeat(m))),
        lambda M, m: binomial(M + 1, m + 1),
    ),
    "diagonal_stick": _Lemma(
        ("M", "m"),
        lambda M, m: M >= 0 and m >= 0,
        lambda M, m: sum(map(comb, range(M, M + m + 1), range(m + 1))),
        lambda M, m: binomial(M + m + 1, m),
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
        lambda M, m: sum(j * comb(M - j, m) for j in range(1, M - m + 1)),
        lambda M, m: binomial(M + 1, m + 2),
    ),
    "permutation_ladder": _Lemma(
        ("M", "m"),
        lambda M, m: 0 <= m <= M,
        lambda M, m: permutation(M + 1, m),
        lambda M, m: math.factorial(m)
        + m * sum(permutation(j, m - 1) for j in range(m, M + 1)),
    ),
    "geometric": _Lemma(
        ("R",),
        lambda R: R >= 0,
        lambda R: sum(2**r for r in range(R + 1)),
        lambda R: 2 ** (R + 1) - 1,
    ),
    "weighted_geometric": _Lemma(
        ("R",),
        lambda R: R >= 0,
        lambda R: sum(r * 2**r for r in range(R + 1)),
        lambda R: 2 + (R - 1) * 2 ** (R + 1),
    ),
}


def lemma_check(tag: str, params: Mapping[str, int]) -> bool:
    """Evaluate both sides of one catalogued identity exactly.

    ``params`` maps the identity's bound variables (see ``LEMMAS[tag].params``)
    to integer values.  Returns True iff the two sides agree; a parameter
    that is not an exact integer (bool and float included) or lies outside
    the identity's stated domain raises :class:`RangeError`.
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
    args = [_exact_int(p, params[p]) for p in lemma.params]
    if not lemma.domain(*args):
        raise RangeError(f"parameters out of domain for lemma {tag!r}: {dict(params)}")
    return lemma.lhs(*args) == lemma.rhs(*args)
