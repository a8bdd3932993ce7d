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
function per cell.  The whole simplex is read row by row from Pascal's
triangle (:func:`_simplex_rows`), one addition per cell: :func:`sum_fixed_s`
sums those rows, so its cost depends only on s and not on what was asked
before.  Coordinate triples are built only when the cells are listed
(:func:`enumerate_triples`, ``include_triples=True``).

The binomial and permutation identities the closed forms rest on are
catalogued in :data:`LEMMAS` and individually checkable via
:func:`lemma_check`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count, repeat, starmap
from math import comb
from operator import add, mul
from typing import Callable, Iterable, Iterator, Mapping

from .kernel import IndexTriple, RangeError, _check, binomial, permutation

Pairs = tuple[tuple[IndexTriple, int], ...]


def _pascal_values(pascal: list[int], d: int) -> list[int]:
    """C(m, v - 1) + d * C(m, v) for v = 0..m + 2, given pascal[v] = C(m, v - 1).

    ``pascal`` is row m of Pascal's triangle with one zero in front and two
    behind, so the v = 0 value comes out as d and the last two as zero.
    """
    return list(map(add, pascal, map(d.__mul__, pascal[1:])))


def _simplex_rows(s: int) -> Iterator[list[int]]:
    """The values on the simplex v + d + n = s, one list per difference.

    The list for difference d holds S(v, d, s - d - v) for v = 0..s - d;
    the lists come for d = s, s - 1, ..., 0.  The cells of one list share
    m = v + n - 2 = s - d - 2, so their values C(m, v - 1) + d * C(m, v)
    are read from row m of Pascal's triangle, and each row is the
    adjacent-pair sums of the one before.  For m < 0 every value is zero.
    """
    for d in range(s, max(s - 2, -1), -1):
        yield [0] * (s - d + 1)
    pascal = [0, 1, 0, 0]  # pascal[v] = C(m, v - 1) for v = 0..m + 3, here m = 0
    for d in range(s - 2, -1, -1):
        yield _pascal_values(pascal, d)
        pascal = [0, *map(add, pascal, pascal[1:]), 0]


def _triples(s: int) -> Pairs:
    by_d = list(_simplex_rows(s))[::-1]
    cells = [(v, d) for v in range(s + 1) for d in range(s - v + 1)]
    return tuple([(IndexTriple(v, d, s - v - d), by_d[d][v]) for v, d in cells])


def enumerate_triples(s: int) -> list[tuple[IndexTriple, int]]:
    """All (v, d, n) with v + d + n == s, lexicographic, with their values."""
    s = _check("s", s)
    return list(_triples(s))


@dataclass(frozen=True)
class SumReport:
    """Closed form versus enumeration for one fixed-total query.

    ``formula_sum`` and ``formula_multitude`` are ``None`` when no closed
    form covers the queried corner; the enumerated fields always hold.  The
    multitude counts the triples with nonzero value, and ``triples`` (when
    requested) lists exactly those.  ``consistent`` is True only when the
    closed forms are present and match the enumeration.
    """

    formula_sum: int | None
    enumerated_sum: int
    formula_multitude: int | None
    enumerated_multitude: int
    triples: Pairs | None
    consistent: bool

    @property
    def formula_applies(self) -> bool:
        return self.formula_sum is not None


def _report(
    candidates: Iterable[tuple[IndexTriple, int]],
    formula_sum: int | None,
    formula_multitude: int | None,
    include_triples: bool,
) -> SumReport:
    nonzero = [(t, value) for t, value in candidates if value]
    return _tally(
        sum(value for _, value in nonzero),
        len(nonzero),
        formula_sum,
        formula_multitude,
        tuple(nonzero) if include_triples else None,
    )


def _slice_report(
    values: list[int],
    cells: Iterable[tuple[int, int, int]],
    formula_sum: int | None,
    formula_multitude: int | None,
    include_triples: bool,
) -> SumReport:
    # values[i] belongs to the i-th coordinates in cells; only a listing
    # turns those coordinates into IndexTriples
    if include_triples:
        pairs = zip(starmap(IndexTriple, cells), values)
        return _report(pairs, formula_sum, formula_multitude, include_triples)
    return _tally(sum(values), len(values) - values.count(0), formula_sum, formula_multitude)


def _tally(
    enum_sum: int,
    multitude: int,
    formula_sum: int | None,
    formula_multitude: int | None,
    triples: Pairs | None = None,
) -> SumReport:
    return SumReport(
        formula_sum=formula_sum,
        enumerated_sum=enum_sum,
        formula_multitude=formula_multitude,
        enumerated_multitude=multitude,
        triples=triples,
        consistent=(
            formula_sum is not None
            and formula_sum == enum_sum
            and formula_multitude == multitude
        ),
    )


def sum_fixed_sv(s: int, v: int, include_triples: bool = False) -> SumReport:
    """Sum over all triples with total s and dimension pinned to v.

    Closed form: C(s-1, 2) for v = 0, else C(s-1, v) + C(s-1, v+2); the
    nonzero count is s - 2 (floored at 0) for v = 0, else s - v.
    """
    s = _check("s", s)
    v = _check("v", v)
    if v > s:
        raise RangeError(f"fixed coordinate must not exceed the total: v={v} > s={s}")
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
    return _slice_report(values, cells, formula_sum, formula_multitude, include_triples)


def sum_fixed_sd(s: int, d: int, include_triples: bool = False) -> SumReport:
    """Sum over all triples with total s and difference pinned to d.

    Closed form (d + 1) * 2**(s - d - 2) applies for d <= s - 2, with
    nonzero count s - 1 when d = 0 and s - d otherwise.  For d in
    {s - 1, s} every candidate value is zero and no closed form applies.
    """
    s = _check("s", s)
    d = _check("d", d)
    if d > s:
        raise RangeError(f"fixed coordinate must not exceed the total: d={d} > s={s}")
    # A row of Pascal's triangle: every cell has m = s - d - 2.
    m = s - d - 2
    if m < 0:
        values = [0] * (s - d + 1)
    else:
        values = _pascal_values([0, *map(comb, repeat(m), range(m + 1)), 0, 0], d)
    cells = zip(range(s - d + 1), repeat(d), range(s - d, -1, -1))
    if d <= s - 2:
        formula_sum = (d + 1) * 2 ** (s - d - 2)
        formula_multitude = s - 1 if d == 0 else s - d
    else:
        formula_sum = None
        formula_multitude = None
    return _slice_report(values, cells, formula_sum, formula_multitude, include_triples)


def sum_fixed_sn(s: int, n: int, include_triples: bool = False) -> SumReport:
    """Sum over all triples with total s and rank pinned to n.

    Closed forms: 0 at n = 0, s - 1 at n = 1 and 2 * C(s-1, n) for
    2 <= n < s; the nonzero count is s - n at n = 1 and s - n + 1 for
    2 <= n < s.  At n = s the single candidate is zero and no closed form
    applies.
    """
    s = _check("s", s)
    n = _check("n", n)
    if n > s:
        raise RangeError(f"fixed coordinate must not exceed the total: n={n} > s={s}")
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
    return _slice_report(values, cells, formula_sum, formula_multitude, include_triples)


def sum_fixed_s(s: int, include_triples: bool = False) -> SumReport:
    """Sum over every triple with coordinate total s.

    Closed forms 2**s - (s + 1) and C(s+1, 2) - 2 apply for s >= 2; for
    smaller totals only the enumeration stands.
    """
    s = _check("s", s)
    if s >= 2:
        formula_sum = 2**s - (s + 1)
        formula_multitude = (s + 1) * s // 2 - 2
    else:
        formula_sum = None
        formula_multitude = None
    if include_triples:
        return _report(_triples(s), formula_sum, formula_multitude, include_triples)
    enum_sum = multitude = 0
    for row in _simplex_rows(s):
        enum_sum += sum(row)
        multitude += len(row) - row.count(0)
    return _tally(enum_sum, multitude, formula_sum, formula_multitude)


@dataclass(frozen=True)
class _Lemma:
    params: tuple[str, ...]
    domain: Callable[..., bool]
    lhs: Callable[..., int]
    rhs: Callable[..., int]


#: The identities the closed forms are built from, each stated as an
#: exactly evaluable left side (a literal sum) and right side (its closed
#: form).  Keys are stable tags usable from the command line and tests.
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
        lambda M, m: sum(binomial(j, m) for j in range(m, M + 1)),
        lambda M, m: binomial(M + 1, m + 1),
    ),
    "diagonal_stick": _Lemma(
        ("M", "m"),
        lambda M, m: M >= 0 and m >= 0,
        lambda M, m: sum(binomial(M + j, j) for j in range(m + 1)),
        lambda M, m: binomial(M + m + 1, m),
    ),
    "row_power": _Lemma(
        ("M",),
        lambda M: M >= 0,
        lambda M: sum(binomial(M, j) for j in range(M + 1)),
        lambda M: 2**M,
    ),
    "weighted_stick": _Lemma(
        ("M", "m"),
        lambda M, m: 0 <= m < M,
        lambda M, m: sum(j * binomial(M - j, m) for j in range(1, M - m + 1)),
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
    to values.  Returns True iff the two sides agree; parameters outside the
    identity's stated domain raise :class:`RangeError`.
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
    args = [params[p] for p in lemma.params]
    if not lemma.domain(*args):
        raise RangeError(f"parameters out of domain for lemma {tag!r}: {dict(params)}")
    return lemma.lhs(*args) == lemma.rhs(*args)
