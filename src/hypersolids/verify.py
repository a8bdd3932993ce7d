"""Exhaustive verification sweeps behind the ``verify`` subcommand.

Each suite replays a family of exact identities over a finite grid and
records every violation as (case, expected, actual).  A suite is a
generator that computes each case where it is listed, in one thread.  A
value several cases read is evaluated once, and a sum that extends a
shorter one is read off one running sum: the oracle suite reads every
rank of a (v, d) sequence off one summation pass, ``_summation_ranks(v, d,
n_max)``, so a sequence costs about v * n_max additions, not
v * n_max**2 / 2, and judges each by a scalar closed-form call; the gnomons
suite evaluates each S(v, d, n) of its grid once; the corollaries suite
evaluates its values once per difference and reads the row compilations of
one rank level, S(0, d, n) + ... + S(v, d, n) for v = 0..v_max, as the
prefixes of one pass of scalar closed-form terms (at c_max 34, v_max 12,
n_max 18 that is 18,175 closed-form evaluations, 385 ``row_sum`` and 957
``diagonal_sum`` calls, where each case evaluating its own values took
60,162, 7,249 and 2,574); and the lemmas suite reads each literal sum that
extends a shorter one, the weighted stick's double sum included, from one
running sum, so such a lemma costs O(m_max**2) terms, not O(m_max**3).
``row_power``, whose terms all change with its parameter, and the four
two-parameter lemmas do most of that suite's work, ``diagonal_stick`` the
largest share.  The theorems suite reads every fixed-total slice once per
total, through this module's names ``sum_fixed_sv``, ``sum_fixed_sd`` and
``sum_fixed_sn``; its cross-partition and zero-census cases add up the
enumerated sums and nonzero counts of those same reports, one total per
axis, and build no cell of their own.
A case's key is a format template and its arguments, as one tuple such as
``("adjacency d={} c={} v={}", d, c, v)``; it is formatted into the case's
name only when the case fails, so a passing case builds no string.
Failures are sorted by that name, so the report does not depend on the
order the cases were produced in.
"""

from __future__ import annotations

from itertools import accumulate, product, repeat
from typing import Callable, Iterable, Iterator

from .kernel import (
    DEFAULT_BOUNDS, SUITES, _check, _closed, _Record, _summation_ranks, _triangle_rows, d_gnomon,
    hypersolid, n_gnomon, v_gnomon,
)
from .sums import LEMMAS, sum_fixed_s, sum_fixed_sd, sum_fixed_sn, sum_fixed_sv
from .triangle import diagonal_sum, pascal_entry_check, recurrence_sequence, row_sum


class GridBounds(_Record):
    """Upper ends of the sweep grids (all lower ends are 0 or the domain minimum).

    Every bound is an exact int in [0, 2**32); anything else raises
    :class:`~hypersolids.kernel.RangeError`.  ``m_max`` bounds the lemma
    parameter grid.
    """

    __slots__ = ("v_max", "d_max", "n_max", "c_max", "s_max", "m_max")
    v_max: int
    d_max: int
    n_max: int
    c_max: int
    s_max: int
    m_max: int

    def __init__(
        self,
        v_max: int = DEFAULT_BOUNDS["v_max"],
        d_max: int = DEFAULT_BOUNDS["d_max"],
        n_max: int = DEFAULT_BOUNDS["n_max"],
        c_max: int = DEFAULT_BOUNDS["c_max"],
        s_max: int = DEFAULT_BOUNDS["s_max"],
        m_max: int = DEFAULT_BOUNDS["m_max"],
    ) -> None:
        set_v, set_d, set_n, set_c, set_s, set_m = GridBounds._setters
        set_v(self, _check("v_max", v_max))
        set_d(self, _check("d_max", d_max))
        set_n(self, _check("n_max", n_max))
        set_c(self, _check("c_max", c_max))
        set_s(self, _check("s_max", s_max))
        set_m(self, _check("m_max", m_max))


class VerifyOutcome(_Record):
    """One suite's case count and its failures, each (case, expected, actual)."""

    __slots__ = ("suite", "cases_run", "failures")
    suite: str
    cases_run: int
    failures: tuple[tuple[str, str, str], ...]

    def __init__(self, suite: str, cases_run: int,
                 failures: tuple[tuple[str, str, str], ...]) -> None:
        set_suite, set_cases_run, set_failures = VerifyOutcome._setters
        set_suite(self, suite)
        set_cases_run(self, cases_run)
        set_failures(self, failures)

    @property
    def ok(self) -> bool:
        return not self.failures


def _run_cases(suite: str, results: Iterable[tuple[str | tuple, object, object]]) -> VerifyOutcome:
    cases_run = 0
    failures = []
    for key, expected, actual in results:
        cases_run += 1
        if expected != actual:
            name = key if type(key) is str else key[0].format(*key[1:])
            failures.append((name, str(expected), str(actual)))
    failures.sort(key=lambda failure: failure[0])
    return VerifyOutcome(suite=suite, cases_run=cases_run, failures=tuple(failures))


# ---------------------------------------------------------------- oracle


def _oracle_cases(b: GridBounds) -> Iterator[tuple[tuple, object, object]]:
    # one summation pass per (v, d) holds every rank up to n_max; each rank
    # is judged by its own scalar closed-form call
    for v in range(b.v_max + 1):
        for d in range(b.d_max + 1):
            for n, summed in enumerate(_summation_ranks(v, d, b.n_max)):
                yield ("eval v={} d={} n={}", v, d, n), hypersolid(v, d, n), summed


# --------------------------------------------------------------- gnomons


def _gnomon_cases(b: GridBounds) -> Iterator[tuple[tuple, object, object]]:
    # Each decomposition needs rank >= 1 plus its own stepped coordinate
    # >= 1, and all three hold exactly on v + n >= 3 (at v = n = 1 the
    # rank/dimension steps break, at v = 0, n = 2 the difference step does).
    # Each S(v, d, n) of the grid is evaluated once, a dimension at a time,
    # and read by every step case that names it; the gnomons are what the
    # cases judge, so each case calls its own.
    ds, ns = range(b.d_max + 1), range(b.n_max + 1)
    below: list[list[int]] = []  # closed[d][n] of dimension v - 1
    for v in range(b.v_max + 1):
        closed = [[hypersolid(v, d, n) for n in ns] for d in ds]
        for d in ds:
            row = closed[d]
            for n in range(max(1, 3 - v), b.n_max + 1):
                value = row[n]
                if v >= 1:
                    yield (("rank-step v={} d={} n={}", v, d, n), value,
                           row[n - 1] + n_gnomon(v, d, n))
                    yield (("dimension-step v={} d={} n={}", v, d, n),
                           value - below[d][n], v_gnomon(v, d, n))
                if d >= 1:
                    yield (("difference-step v={} d={} n={}", v, d, n), value,
                           closed[d - 1][n] + d_gnomon(v, d, n))
        below = closed


# ----------------------------------------------------------- corollaries


def _corollary_cases(b: GridBounds) -> Iterator[tuple[tuple, object, object]]:
    # Each closed value, row total and diagonal total is evaluated once per
    # difference and read by every case that names it.  The values are
    # scalar hypersolid calls, never triangle rows: triangles are built by
    # the adjacency rule these cases judge.  Only the row-total cases sum
    # triangle rows, and the closed-form row_sum judges them.
    for d in range(b.d_max + 1):
        # closed[v][n] = S(v, d, n) for what adjacency (n <= c_max - v) and
        # the column and row compilations (v <= v_max, n <= n_max + 1) read
        closed = [
            [hypersolid(v, d, n) for n in range(max(b.c_max - v, b.n_max + 1) + 1)]
            for v in range(max(b.c_max, b.v_max + 1))
        ]
        for c in range(3, b.c_max + 1):
            for v in range(1, c):
                yield (("adjacency d={} c={} v={}", d, c, v), closed[v][c - v],
                       closed[v][c - 1 - v] + closed[v - 1][c - v])
        for v in range(2, b.v_max + 1):
            column = tuple(closed[v][: b.n_max + 1])
            below = accumulate(closed[v - 1][: b.n_max + 1])
            yield ("column-compilation d={} v={}", d, v), column, tuple(below)
        # the row compilations of rank level n are the running sums of one
        # pass of scalar closed-form terms, r = 0..v_max, not read from the
        # table above, whose values are the cases' expected sides
        for n in range(2, b.n_max + 1):
            compiled = accumulate(map(_closed, range(b.v_max + 1), repeat(d), repeat(n)))
            for v, total in enumerate(compiled):
                yield ("row-compilation d={} n={} v={}", d, n, v), closed[v][n + 1], total
        totals = [row_sum(d, c) for c in range(b.c_max + 1)]
        for c, row in enumerate(_triangle_rows(d, b.c_max)):
            yield ("row-total d={} c={}", d, c), sum(row), totals[c]
            if c >= 3:
                yield ("row-doubling d={} c={}", d, c), totals[c], 2 * totals[c - 1]
                yield (("row-cumulative d={} c={}", d, c), totals[c] - (d + 1),
                       sum(totals[2:c]))
        seeded = [d, d + 1]
        while len(seeded) < 29:
            seeded.append(seeded[-1] + seeded[-2])
        yield (("diagonal-seeded d={} m=2", d), tuple(seeded),
               tuple(recurrence_sequence(d, 2, 29)))
        for m in (2, 3, 4):
            a = [0, 0, *(diagonal_sum(d, m, k) for k in range(2, 31))]  # a[k], k >= 2
            for k in range(m + 2, 31):
                yield ("diagonal-recurrence d={} m={} k={}", d, m, k), a[k], a[k - 1] + a[k - m]
    for c in range(b.c_max + 1):
        for v in range(c + 1):
            yield ("pascal-reduction c={} v={}", c, v), True, pascal_entry_check(c, v)


# -------------------------------------------------------------- theorems


def _theorem_cases(b: GridBounds) -> Iterator[tuple[tuple, object, object]]:
    for s in range(2, b.s_max + 1):
        total = sum_fixed_s(s)
        # (case name, pinned coordinate, its slices k = 0..s, first degenerate k)
        axes = (
            ("fixed-dimension", "v", [sum_fixed_sv(s, k) for k in range(s + 1)], s + 1),
            ("fixed-difference", "d", [sum_fixed_sd(s, k) for k in range(s + 1)], s - 1),
            ("fixed-rank", "n", [sum_fixed_sn(s, k) for k in range(s + 1)], s),
        )
        for name, coord, reports, degenerate in axes:
            for k, report in enumerate(reports):
                if k < degenerate:
                    yield ("{} s={} {}={}", name, s, coord, k), True, report.consistent
                    continue
                # a degenerate slice: no closed form, and every cell in it is zero
                actual = (report.formula_sum, report.enumerated_sum,
                          report.formula_multitude, report.enumerated_multitude)
                yield ("{}-degenerate s={} {}={}", name, s, coord, k), (None, 0, None, 0), actual
        yield ("simplex-total s={}", s), True, total.consistent
        partition = tuple(sum(r.enumerated_sum for r in slices) for _, _, slices, _ in axes)
        yield ("cross-partition s={}", s), (total.enumerated_sum,) * 3, partition
        # each axis's slices partition the simplex's C(s + 2, 2) cells, so
        # each axis counts all of its zeros
        cells = (s + 1) * (s + 2) // 2
        census = tuple(cells - sum(r.enumerated_multitude for r in slices)
                       for _, _, slices, _ in axes)
        yield ("zero-census s={}", s), (s + 3,) * 3, census


# --------------------------------------------------------------- lemmas


def _lemma_cases(b: GridBounds) -> Iterator[tuple[tuple, object, object]]:
    # The grid is walked in product order, so a lemma with a running sum
    # meets the parameter it runs along in rising order from the first value
    # in its domain, whatever the others hold: each case takes the next
    # partial sum of one pass per value of the other parameters.  The passes
    # are held side by side, one running sum each, never as a table.
    grid = range(b.m_max + 1)
    for tag, lemma in LEMMAS.items():
        template = " ".join([tag, *(f"{p}={{}}" for p in lemma.params)])
        if lemma.along is None:
            for args in product(grid, repeat=len(lemma.params)):
                if lemma.domain(*args):
                    yield (template, *args), True, lemma.lhs(*args) == lemma.rhs(*args)
            continue
        i = lemma.params.index(lemma.along)
        passes: dict[tuple[int, ...], Iterator[int]] = {}
        for args in product(grid, repeat=len(lemma.params)):
            if lemma.domain(*args):
                others = args[:i] + args[i + 1:]
                partials = passes.get(others)
                if partials is None:
                    partials = passes[others] = lemma.running(*others)[1]
                total = next(partials)
                holds = lemma.lhs(*args, total) == lemma.rhs(*args, total)
                yield (template, *args), True, holds


_SUITE_BUILDERS: dict[str, Callable[[GridBounds], Iterator[tuple[tuple, object, object]]]] = {
    "oracle": _oracle_cases,
    "gnomons": _gnomon_cases,
    "corollaries": _corollary_cases,
    "theorems": _theorem_cases,
    "lemmas": _lemma_cases,
}


def _check_suite(name: str) -> None:
    if name not in _SUITE_BUILDERS:
        raise ValueError(f"unknown suite {name!r}; expected one of {SUITES}")


def run_suite(name: str, bounds: GridBounds | None = None, jobs: int = 1) -> VerifyOutcome:
    """Run one named suite and return its outcome.

    Suites run in one thread; ``jobs`` is accepted for compatibility and
    does not change the work or the outcome.
    """
    _check_suite(name)
    b = bounds or GridBounds()
    return _run_cases(name, _SUITE_BUILDERS[name](b))


def run_suites(
    names: Iterable[str] | str = "all", bounds: GridBounds | None = None, jobs: int = 1
) -> list[VerifyOutcome]:
    """Run several suites (or ``"all"``) in canonical order; ``jobs`` as in :func:`run_suite`."""
    if names == "all":
        selected = list(SUITES)
    elif isinstance(names, str):
        selected = [names]
    else:
        selected = list(names)
    for name in selected:  # every name before any suite runs
        _check_suite(name)
    return [run_suite(name, bounds=bounds, jobs=jobs) for name in selected]
