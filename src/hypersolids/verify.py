"""Exhaustive verification sweeps behind the ``verify`` subcommand.

Each suite replays a family of exact identities over a finite grid and
records every violation as (case, expected, actual).  A suite is a
generator that computes each case where it is listed, in one thread (the
corollaries suite first evaluates, once per difference, the values its
cases share); failures are sorted by case key, so the report does not
depend on the order the cases were produced in.
"""

from __future__ import annotations

from itertools import accumulate, product
from typing import Callable, Iterable, Iterator

from .kernel import (
    DEFAULT_BOUNDS, SUITES, _check, _Record, _set_field, d_gnomon, hypersolid, n_gnomon, v_gnomon,
)
from .sums import (
    LEMMAS,
    _simplex_rows,
    lemma_check,
    sum_fixed_s,
    sum_fixed_sd,
    sum_fixed_sn,
    sum_fixed_sv,
)
from .triangle import (
    build_triangle,
    compile_row,
    diagonal_sum,
    pascal_entry_check,
    recurrence_sequence,
    row_sum,
)


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
        _set_field(self, "v_max", _check("v_max", v_max))
        _set_field(self, "d_max", _check("d_max", d_max))
        _set_field(self, "n_max", _check("n_max", n_max))
        _set_field(self, "c_max", _check("c_max", c_max))
        _set_field(self, "s_max", _check("s_max", s_max))
        _set_field(self, "m_max", _check("m_max", m_max))


class VerifyOutcome(_Record):
    """One suite's case count and its failures, each (case, expected, actual)."""

    __slots__ = ("suite", "cases_run", "failures")
    suite: str
    cases_run: int
    failures: tuple[tuple[str, str, str], ...]

    def __init__(self, suite: str, cases_run: int,
                 failures: tuple[tuple[str, str, str], ...]) -> None:
        _set_field(self, "suite", suite)
        _set_field(self, "cases_run", cases_run)
        _set_field(self, "failures", failures)

    @property
    def ok(self) -> bool:
        return not self.failures


def _run_cases(suite: str, results: Iterable[tuple[str, object, object]]) -> VerifyOutcome:
    cases_run = 0
    failures = []
    for key, expected, actual in results:
        cases_run += 1
        if expected != actual:
            failures.append((key, str(expected), str(actual)))
    failures.sort(key=lambda failure: failure[0])
    return VerifyOutcome(suite=suite, cases_run=cases_run, failures=tuple(failures))


# ---------------------------------------------------------------- oracle


def _oracle_cases(b: GridBounds) -> Iterator[tuple[str, object, object]]:
    for v in range(b.v_max + 1):
        for d in range(b.d_max + 1):
            for n in range(b.n_max + 1):
                closed, summed = hypersolid(v, d, n, "closed"), hypersolid(v, d, n, "summation")
                yield f"eval v={v} d={d} n={n}", closed, summed


# --------------------------------------------------------------- gnomons


def _gnomon_cases(b: GridBounds) -> Iterator[tuple[str, object, object]]:
    # Each decomposition needs rank >= 1 plus its own stepped coordinate
    # >= 1, and all three hold exactly on v + n >= 3 (at v = n = 1 the
    # rank/dimension steps break, at v = 0, n = 2 the difference step does).
    for v in range(b.v_max + 1):
        for d in range(b.d_max + 1):
            for n in range(1, b.n_max + 1):
                if v + n < 3:
                    continue
                if v >= 1:
                    yield (f"rank-step v={v} d={d} n={n}", hypersolid(v, d, n),
                           hypersolid(v, d, n - 1) + n_gnomon(v, d, n))
                    yield (f"dimension-step v={v} d={d} n={n}",
                           hypersolid(v, d, n) - hypersolid(v - 1, d, n), v_gnomon(v, d, n))
                if d >= 1:
                    yield (f"difference-step v={v} d={d} n={n}", hypersolid(v, d, n),
                           hypersolid(v, d - 1, n) + d_gnomon(v, d, n))


# ----------------------------------------------------------- corollaries


def _corollary_cases(b: GridBounds) -> Iterator[tuple[str, object, object]]:
    # Each closed value, row total and diagonal total is evaluated once per
    # difference and read by every case that names it.  The values are
    # scalar hypersolid calls, never triangle rows: triangles are built by
    # the adjacency rule these cases judge.
    for d in range(b.d_max + 1):
        # closed[v][n] = S(v, d, n) for what adjacency (n <= c_max - v) and
        # the column and row compilations (v <= v_max, n <= n_max + 1) read
        closed = [
            [hypersolid(v, d, n) for n in range(max(b.c_max - v, b.n_max + 1) + 1)]
            for v in range(max(b.c_max, b.v_max + 1))
        ]
        for c in range(3, b.c_max + 1):
            for v in range(1, c):
                yield (f"adjacency d={d} c={c} v={v}", closed[v][c - v],
                       closed[v][c - 1 - v] + closed[v - 1][c - v])
        for v in range(2, b.v_max + 1):
            column = tuple(closed[v][: b.n_max + 1])
            below = accumulate(closed[v - 1][: b.n_max + 1])
            yield f"column-compilation d={d} v={v}", column, tuple(below)
        for n in range(2, b.n_max + 1):
            for v in range(b.v_max + 1):
                yield (f"row-compilation d={d} n={n} v={v}",
                       closed[v][n + 1], compile_row(d, n, v))
        triangle = build_triangle(d, b.c_max)
        totals = [row_sum(d, c) for c in range(b.c_max + 1)]
        for c in range(b.c_max + 1):
            yield f"row-total d={d} c={c}", sum(triangle.row(c)), totals[c]
            if c >= 3:
                yield f"row-doubling d={d} c={c}", totals[c], 2 * totals[c - 1]
                yield (f"row-cumulative d={d} c={c}", totals[c] - (d + 1),
                       sum(totals[2:c]))
        seeded = [d, d + 1]
        while len(seeded) < 29:
            seeded.append(seeded[-1] + seeded[-2])
        yield f"diagonal-seeded d={d} m=2", tuple(seeded), tuple(recurrence_sequence(d, 2, 29))
        for m in (2, 3, 4):
            a = [0, 0, *(diagonal_sum(d, m, k) for k in range(2, 31))]  # a[k], k >= 2
            for k in range(m + 2, 31):
                yield f"diagonal-recurrence d={d} m={m} k={k}", a[k], a[k - 1] + a[k - m]
    for c in range(b.c_max + 1):
        for v in range(c + 1):
            yield f"pascal-reduction c={c} v={v}", True, pascal_entry_check(c, v)


# -------------------------------------------------------------- theorems


def _theorem_cases(b: GridBounds) -> Iterator[tuple[str, object, object]]:
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
                    yield f"{name} s={s} {coord}={k}", True, report.consistent
                    continue
                # a degenerate slice: no closed form, and every cell in it is zero
                actual = (report.formula_sum, report.enumerated_sum,
                          report.formula_multitude, report.enumerated_multitude)
                yield f"{name}-degenerate s={s} {coord}={k}", (None, 0, None, 0), actual
        yield f"simplex-total s={s}", True, total.consistent
        partition = tuple(sum(r.enumerated_sum for r in slices) for _, _, slices, _ in axes)
        yield f"cross-partition s={s}", (total.enumerated_sum,) * 3, partition
        yield f"zero-census s={s}", s + 3, sum(row.count(0) for row in _simplex_rows(s))


# --------------------------------------------------------------- lemmas


def _lemma_cases(b: GridBounds) -> Iterator[tuple[str, object, object]]:
    for tag, lemma in LEMMAS.items():
        for values in product(range(b.m_max + 1), repeat=len(lemma.params)):
            if lemma.domain(*values):
                params = dict(zip(lemma.params, values))
                key = f"{tag} " + " ".join(f"{p}={x}" for p, x in params.items())
                yield key, True, lemma_check(tag, params)


_SUITE_BUILDERS: dict[str, Callable[[GridBounds], Iterator[tuple[str, object, object]]]] = {
    "oracle": _oracle_cases,
    "gnomons": _gnomon_cases,
    "corollaries": _corollary_cases,
    "theorems": _theorem_cases,
    "lemmas": _lemma_cases,
}


def run_suite(name: str, bounds: GridBounds | None = None, jobs: int = 1) -> VerifyOutcome:
    """Run one named suite and return its outcome.

    Suites run in one thread; ``jobs`` is accepted for compatibility and
    does not change the work or the outcome.
    """
    if name not in _SUITE_BUILDERS:
        raise ValueError(f"unknown suite {name!r}; expected one of {SUITES + ('all',)}")
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
    return [run_suite(name, bounds=bounds, jobs=jobs) for name in selected]
