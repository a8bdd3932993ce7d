"""Sums of figurate numbers over the simplex v + d + n = s.

For a fixed coordinate total s there are C(s + 2, 2) coordinate triples.
Closed forms exist for the sum of the values over that whole simplex and
over its slices with one coordinate pinned, except at a few degenerate
corners (difference pinned to s - 1 or s, rank pinned to s, totals with
s < 2).  Every query here returns a :class:`SumReport` holding the closed
form (or ``None`` where none applies) next to an exhaustive enumeration of
the same triples, so the two can be compared exactly.

A slice query builds only its own O(s) cells, one closed form per cell.
The whole simplex is read row by row from Pascal's triangle
(:func:`_simplex_rows`), with no binomial per cell: :func:`sum_fixed_s`
sums those rows without building a coordinate triple, so its cost depends
only on s and not on what was asked before.  The cells with their
coordinates are built only when they are listed (:func:`enumerate_triples`,
``include_triples=True``), and the last two such simplexes are cached.

The binomial and permutation identities the closed forms rest on are
catalogued in :data:`LEMMAS` and individually checkable via
:func:`lemma_check`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import add
from typing import Callable, Iterable, Iterator, Mapping

from .kernel import IndexTriple, RangeError, _check, _closed, binomial, permutation

Pairs = tuple[tuple[IndexTriple, int], ...]


def _cell(v: int, d: int, n: int) -> tuple[IndexTriple, int]:
    return IndexTriple(v, d, n), _closed(v, d, n)


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
        yield list(map(add, pascal, map(d.__mul__, pascal[1:])))
        pascal = [0, *map(add, pascal, pascal[1:]), 0]


@lru_cache(maxsize=2)
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
    candidates = [_cell(v, d, s - v - d) for d in range(s - v + 1)]
    if v == 0:
        formula_sum = binomial(s - 1, 2)
        formula_multitude = max(s - 2, 0)
    else:
        formula_sum = binomial(s - 1, v) + binomial(s - 1, v + 2)
        formula_multitude = s - v
    return _report(candidates, formula_sum, formula_multitude, include_triples)


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
    candidates = [_cell(v, d, s - v - d) for v in range(s - d + 1)]
    if d <= s - 2:
        formula_sum = (d + 1) * 2 ** (s - d - 2)
        formula_multitude = s - 1 if d == 0 else s - d
    else:
        formula_sum = None
        formula_multitude = None
    return _report(candidates, formula_sum, formula_multitude, include_triples)


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
    candidates = [_cell(v, s - v - n, n) for v in range(s - n + 1)]
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
    return _report(candidates, formula_sum, formula_multitude, include_triples)


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
