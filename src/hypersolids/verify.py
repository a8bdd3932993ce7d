"""Exhaustive verification sweeps behind the ``verify`` subcommand.

Each suite replays a family of exact identities over a finite grid and
records every violation as (case, expected, actual).  A suite is a
generator that computes each case where it is listed, in one thread;
failures are sorted by case key, so the report does not depend on the
order the cases were produced in.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import accumulate, product
from typing import Callable, Iterable, Iterator

from .kernel import _check, d_gnomon, hypersolid, n_gnomon, v_gnomon
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

SUITES = ("oracle", "gnomons", "corollaries", "theorems", "lemmas")


@dataclass(frozen=True)
class GridBounds:
    """Upper ends of the sweep grids (all lower ends are 0 or the domain minimum).

    Every bound is an exact int in [0, 2**32); anything else raises
    :class:`~hypersolids.kernel.RangeError`.
    """

    v_max: int = 8
    d_max: int = 10
    n_max: int = 12
    c_max: int = 24
    s_max: int = 40
    m_max: int = 30  # lemma parameter grid

    def __post_init__(self) -> None:
        for field in fields(self):
            object.__setattr__(self, field.name, _check(field.name, getattr(self, field.name)))


@dataclass(frozen=True)
class VerifyOutcome:
    suite: str
    cases_run: int
    failures: tuple[tuple[str, str, str], ...]  # (case, expected, actual)

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
    for d in range(b.d_max + 1):
        for c in range(3, b.c_max + 1):
            for v in range(1, c):
                # Scalars on both sides: triangles are built by this very rule.
                yield (f"adjacency d={d} c={c} v={v}", hypersolid(v, d, c - v),
                       hypersolid(v, d, c - 1 - v) + hypersolid(v - 1, d, c - v))
        for v in range(2, b.v_max + 1):
            column = tuple(hypersolid(v, d, n) for n in range(b.n_max + 1))
            below = accumulate(hypersolid(v - 1, d, n) for n in range(b.n_max + 1))
            yield f"column-compilation d={d} v={v}", column, tuple(below)
        for n in range(2, b.n_max + 1):
            for v in range(b.v_max + 1):
                yield (f"row-compilation d={d} n={n} v={v}",
                       hypersolid(v, d, n + 1), compile_row(d, n, v))
        for c in range(b.c_max + 1):
            yield f"row-total d={d} c={c}", sum(build_triangle(d, c).row(c)), row_sum(d, c)
            if c >= 3:
                yield f"row-doubling d={d} c={c}", row_sum(d, c), 2 * row_sum(d, c - 1)
                yield (f"row-cumulative d={d} c={c}", row_sum(d, c) - (d + 1),
                       sum(row_sum(d, j) for j in range(2, c)))
        seeded = [d, d + 1]
        while len(seeded) < 29:
            seeded.append(seeded[-1] + seeded[-2])
        yield f"diagonal-seeded d={d} m=2", tuple(seeded), tuple(recurrence_sequence(d, 2, 29))
        for m in (2, 3, 4):
            for k in range(m + 2, 31):
                yield (f"diagonal-recurrence d={d} m={m} k={k}", diagonal_sum(d, m, k),
                       diagonal_sum(d, m, k - 1) + diagonal_sum(d, m, k - m))
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
