"""Exhaustive verification sweeps behind the ``verify`` subcommand.

Each suite replays a family of exact identities over a finite grid and
records every violation as (case, expected, actual).  Checks are pure
functions of their coordinates, so a sweep can be sharded over worker
threads; failures are merged and sorted by case key, making the report
independent of scheduling.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import accumulate
from typing import Callable, Iterable

from .kernel import d_gnomon, hypersolid, n_gnomon, v_gnomon
from .sums import (
    LEMMAS,
    SumReport,
    enumerate_triples,
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

Check = Callable[[], tuple[object, object]]
Case = tuple[str, Check]


@dataclass(frozen=True)
class GridBounds:
    """Upper ends of the sweep grids (all lower ends are 0 or the domain minimum)."""

    v_max: int = 8
    d_max: int = 10
    n_max: int = 12
    c_max: int = 24
    s_max: int = 40
    m_max: int = 30  # lemma parameter grid


@dataclass(frozen=True)
class VerifyOutcome:
    suite: str
    cases_run: int
    failures: tuple[tuple[str, str, str], ...]  # (case, expected, actual)

    @property
    def ok(self) -> bool:
        return not self.failures


def _run_cases(suite: str, cases: list[Case], jobs: int = 1) -> VerifyOutcome:
    if jobs <= 1:
        results = [(key, check()) for key, check in cases]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(lambda case: case[1](), cases, chunksize=64))
        results = [(key, outcome) for (key, _), outcome in zip(cases, outcomes)]
    failures = tuple(
        (key, str(expected), str(actual))
        for key, (expected, actual) in sorted(results, key=lambda item: item[0])
        if expected != actual
    )
    return VerifyOutcome(suite=suite, cases_run=len(results), failures=failures)


# ---------------------------------------------------------------- oracle


def _eval_both(v: int, d: int, n: int) -> tuple[int, int]:
    return hypersolid(v, d, n, "closed"), hypersolid(v, d, n, "summation")


def _oracle_cases(b: GridBounds) -> list[Case]:
    return [
        (f"eval v={v} d={d} n={n}", partial(_eval_both, v, d, n))
        for v in range(b.v_max + 1)
        for d in range(b.d_max + 1)
        for n in range(b.n_max + 1)
    ]


# --------------------------------------------------------------- gnomons


def _rank_step(v: int, d: int, n: int) -> tuple[int, int]:
    return hypersolid(v, d, n), hypersolid(v, d, n - 1) + n_gnomon(v, d, n)


def _diff_step(v: int, d: int, n: int) -> tuple[int, int]:
    return hypersolid(v, d, n), hypersolid(v, d - 1, n) + d_gnomon(v, d, n)


def _dim_step(v: int, d: int, n: int) -> tuple[int, int]:
    return hypersolid(v, d, n) - hypersolid(v - 1, d, n), v_gnomon(v, d, n)


def _gnomon_cases(b: GridBounds) -> list[Case]:
    # Each decomposition needs rank >= 1 plus its own stepped coordinate
    # >= 1, and all three hold exactly on v + n >= 3 (at v = n = 1 the
    # rank/dimension steps break, at v = 0, n = 2 the difference step does).
    cases: list[Case] = []
    for v in range(b.v_max + 1):
        for d in range(b.d_max + 1):
            for n in range(1, b.n_max + 1):
                if v + n < 3:
                    continue
                if v >= 1:
                    cases.append((f"rank-step v={v} d={d} n={n}", partial(_rank_step, v, d, n)))
                    cases.append((f"dimension-step v={v} d={d} n={n}", partial(_dim_step, v, d, n)))
                if d >= 1:
                    cases.append((f"difference-step v={v} d={d} n={n}", partial(_diff_step, v, d, n)))
    return cases


# ----------------------------------------------------------- corollaries


def _adjacency(d: int, c: int, v: int) -> tuple[int, int]:
    # Scalars on both sides: triangles are built by this very rule.
    return hypersolid(v, d, c - v), hypersolid(v, d, c - 1 - v) + hypersolid(v - 1, d, c - v)


def _column_compilation(d: int, v: int, n_max: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    column = tuple(hypersolid(v, d, n) for n in range(n_max + 1))
    below = [hypersolid(v - 1, d, n) for n in range(n_max + 1)]
    return column, tuple(accumulate(below))


def _row_compilation(d: int, n: int, v: int) -> tuple[int, int]:
    return hypersolid(v, d, n + 1), compile_row(d, n, v)


def _row_total(d: int, c: int) -> tuple[int, int]:
    return sum(build_triangle(d, c).row(c)), row_sum(d, c)


def _row_doubling(d: int, c: int) -> tuple[int, int]:
    return row_sum(d, c), 2 * row_sum(d, c - 1)


def _row_cumulative(d: int, c: int) -> tuple[int, int]:
    return row_sum(d, c) - (d + 1), sum(row_sum(d, j) for j in range(2, c))


def _diagonal_seeded(d: int, count: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    expected = [d, d + 1]
    while len(expected) < count:
        expected.append(expected[-1] + expected[-2])
    return tuple(expected), tuple(recurrence_sequence(d, 2, count))


def _diagonal_recurrence(d: int, m: int, k: int) -> tuple[int, int]:
    return diagonal_sum(d, m, k), diagonal_sum(d, m, k - 1) + diagonal_sum(d, m, k - m)


def _pascal(c: int, v: int) -> tuple[bool, bool]:
    return True, pascal_entry_check(c, v)


def _corollary_cases(b: GridBounds) -> list[Case]:
    cases: list[Case] = []
    for d in range(b.d_max + 1):
        for c in range(3, b.c_max + 1):
            for v in range(1, c):
                cases.append((f"adjacency d={d} c={c} v={v}", partial(_adjacency, d, c, v)))
        for v in range(2, b.v_max + 1):
            cases.append(
                (f"column-compilation d={d} v={v}", partial(_column_compilation, d, v, b.n_max))
            )
        for n in range(2, b.n_max + 1):
            for v in range(b.v_max + 1):
                cases.append(
                    (f"row-compilation d={d} n={n} v={v}", partial(_row_compilation, d, n, v))
                )
        for c in range(b.c_max + 1):
            cases.append((f"row-total d={d} c={c}", partial(_row_total, d, c)))
            if c >= 3:
                cases.append((f"row-doubling d={d} c={c}", partial(_row_doubling, d, c)))
                cases.append((f"row-cumulative d={d} c={c}", partial(_row_cumulative, d, c)))
        cases.append((f"diagonal-seeded d={d} m=2", partial(_diagonal_seeded, d, 29)))
        for m in (2, 3, 4):
            for k in range(m + 2, 31):
                cases.append(
                    (f"diagonal-recurrence d={d} m={m} k={k}", partial(_diagonal_recurrence, d, m, k))
                )
    for c in range(b.c_max + 1):
        for v in range(c + 1):
            cases.append((f"pascal-reduction c={c} v={v}", partial(_pascal, c, v)))
    return cases


# -------------------------------------------------------------- theorems


def _consistent(query: Callable[..., SumReport], *args: int) -> tuple[bool, bool]:
    return True, query(*args).consistent


def _marker(query: Callable[[int, int], SumReport], s: int, k: int) -> tuple[tuple, tuple]:
    # a degenerate slice: no closed form, and every cell in it is zero
    report = query(s, k)
    actual = (report.formula_sum, report.enumerated_sum,
              report.formula_multitude, report.enumerated_multitude)
    return (None, 0, None, 0), actual


def _cross_partition(s: int) -> tuple[tuple[int, int], tuple]:
    total = sum_fixed_s(s)
    by_v = sum(sum_fixed_sv(s, v).enumerated_sum for v in range(s + 1))
    by_d = sum(sum_fixed_sd(s, d).enumerated_sum for d in range(s + 1))
    by_n = sum(sum_fixed_sn(s, n).enumerated_sum for n in range(s + 1))
    expected = (total.enumerated_sum,) * 3
    return expected, (by_v, by_d, by_n)


def _zero_census(s: int) -> tuple[int, int]:
    zeros = sum(1 for _, value in enumerate_triples(s) if value == 0)
    return s + 3, zeros


def _theorem_cases(b: GridBounds) -> list[Case]:
    cases: list[Case] = []
    for s in range(2, b.s_max + 1):
        for v in range(s + 1):
            cases.append(
                (f"fixed-dimension s={s} v={v}", partial(_consistent, sum_fixed_sv, s, v))
            )
        for d in range(s + 1):
            if d <= s - 2:
                key, check = f"fixed-difference s={s} d={d}", _consistent
            else:
                key, check = f"fixed-difference-degenerate s={s} d={d}", _marker
            cases.append((key, partial(check, sum_fixed_sd, s, d)))
        for n in range(s + 1):
            if n < s:
                key, check = f"fixed-rank s={s} n={n}", _consistent
            else:
                key, check = f"fixed-rank-degenerate s={s} n={n}", _marker
            cases.append((key, partial(check, sum_fixed_sn, s, n)))
        cases.append((f"simplex-total s={s}", partial(_consistent, sum_fixed_s, s)))
        cases.append((f"cross-partition s={s}", partial(_cross_partition, s)))
        cases.append((f"zero-census s={s}", partial(_zero_census, s)))
    return cases


# --------------------------------------------------------------- lemmas


def _lemma(tag: str, params: dict) -> tuple[bool, bool]:
    return True, lemma_check(tag, params)


def _lemma_cases(b: GridBounds) -> list[Case]:
    cases: list[Case] = []
    top = b.m_max
    for tag in ("sum_r", "sum_r2", "sum_r3"):
        for n in range(top + 1):
            cases.append((f"{tag} n={n}", partial(_lemma, tag, {"n": n})))
    for tag in ("geometric", "weighted_geometric"):
        for r in range(top + 1):
            cases.append((f"{tag} R={r}", partial(_lemma, tag, {"R": r})))
    for big in range(top + 1):
        cases.append((f"row_power M={big}", partial(_lemma, "row_power", {"M": big})))
        for small in range(big + 1):
            cases.append(
                (f"hockey_stick M={big} m={small}",
                 partial(_lemma, "hockey_stick", {"M": big, "m": small}))
            )
            cases.append(
                (f"permutation_ladder M={big} m={small}",
                 partial(_lemma, "permutation_ladder", {"M": big, "m": small}))
            )
            if small < big:
                cases.append(
                    (f"weighted_stick M={big} m={small}",
                     partial(_lemma, "weighted_stick", {"M": big, "m": small}))
                )
        for small in range(top + 1):
            cases.append(
                (f"diagonal_stick M={big} m={small}",
                 partial(_lemma, "diagonal_stick", {"M": big, "m": small}))
            )
    assert set(LEMMAS) == {
        "sum_r", "sum_r2", "sum_r3", "hockey_stick", "diagonal_stick",
        "row_power", "weighted_stick", "permutation_ladder",
        "geometric", "weighted_geometric",
    }
    return cases


_SUITE_BUILDERS: dict[str, Callable[[GridBounds], list[Case]]] = {
    "oracle": _oracle_cases,
    "gnomons": _gnomon_cases,
    "corollaries": _corollary_cases,
    "theorems": _theorem_cases,
    "lemmas": _lemma_cases,
}


def run_suite(name: str, bounds: GridBounds | None = None, jobs: int = 1) -> VerifyOutcome:
    """Run one named suite and return its outcome."""
    if name not in _SUITE_BUILDERS:
        raise ValueError(f"unknown suite {name!r}; expected one of {SUITES + ('all',)}")
    b = bounds or GridBounds()
    return _run_cases(name, _SUITE_BUILDERS[name](b), jobs=jobs)


def run_suites(
    names: Iterable[str] | str = "all", bounds: GridBounds | None = None, jobs: int = 1
) -> list[VerifyOutcome]:
    """Run several suites (or ``"all"``) in canonical order."""
    if names == "all":
        selected = list(SUITES)
    elif isinstance(names, str):
        selected = [names]
    else:
        selected = list(names)
    return [run_suite(name, bounds=bounds, jobs=jobs) for name in selected]
