"""Verification-sweep harness tests.

The suites replay identities that are mathematically true, so a healthy
run never fails; these tests pin the harness mechanics — case counts,
ordering, bounds checking — and use doctored cases to prove the failure
path actually reports.
"""

from __future__ import annotations

import copy
import pickle
from itertools import accumulate

import pytest

from hypersolids import (LEMMAS, GridBounds, RangeError, SumReport, Triangle, run_suite, run_suites,
                         sums, verify)
from hypersolids.kernel import DEFAULT_BOUNDS
from hypersolids.verify import SUITES, VerifyOutcome, _run_cases

SMALL = GridBounds(v_max=3, d_max=3, n_max=4, c_max=8, s_max=10, m_max=8)
ENLARGED = GridBounds(v_max=12, d_max=10, n_max=18, c_max=34, s_max=60, m_max=45)


def naive_corollary_cases(b):
    """The corollaries sweep as it was before its values were shared: every
    case evaluates what it reads itself.  It reads through the names the
    shipped sweep uses, so a value patched there reaches this judge too."""
    for d in range(b.d_max + 1):
        for c in range(3, b.c_max + 1):
            for v in range(1, c):
                yield (f"adjacency d={d} c={c} v={v}", verify.hypersolid(v, d, c - v),
                       verify.hypersolid(v, d, c - 1 - v) + verify.hypersolid(v - 1, d, c - v))
        for v in range(2, b.v_max + 1):
            column = tuple(verify.hypersolid(v, d, n) for n in range(b.n_max + 1))
            below = accumulate(verify.hypersolid(v - 1, d, n) for n in range(b.n_max + 1))
            yield f"column-compilation d={d} v={v}", column, tuple(below)
        for n in range(2, b.n_max + 1):
            for v in range(b.v_max + 1):
                yield (f"row-compilation d={d} n={n} v={v}",
                       verify.hypersolid(v, d, n + 1), verify.compile_row(d, n, v))
        triangle = verify.build_triangle(d, b.c_max)
        for c in range(b.c_max + 1):
            yield f"row-total d={d} c={c}", sum(triangle.row(c)), verify.row_sum(d, c)
            if c >= 3:
                yield (f"row-doubling d={d} c={c}", verify.row_sum(d, c),
                       2 * verify.row_sum(d, c - 1))
                yield (f"row-cumulative d={d} c={c}", verify.row_sum(d, c) - (d + 1),
                       sum(verify.row_sum(d, j) for j in range(2, c)))
        seeded = [d, d + 1]
        while len(seeded) < 29:
            seeded.append(seeded[-1] + seeded[-2])
        yield (f"diagonal-seeded d={d} m=2", tuple(seeded),
               tuple(verify.recurrence_sequence(d, 2, 29)))
        for m in (2, 3, 4):
            for k in range(m + 2, 31):
                yield (f"diagonal-recurrence d={d} m={m} k={k}", verify.diagonal_sum(d, m, k),
                       verify.diagonal_sum(d, m, k - 1) + verify.diagonal_sum(d, m, k - m))
    for c in range(b.c_max + 1):
        for v in range(c + 1):
            yield f"pascal-reduction c={c} v={v}", True, verify.pascal_entry_check(c, v)


def test_oracle_counts_cases_exactly():
    outcome = run_suite("oracle", bounds=GridBounds(v_max=2, d_max=3, n_max=4))
    assert outcome.suite == "oracle"
    assert outcome.cases_run == 3 * 4 * 5
    assert outcome.failures == ()
    assert outcome.ok


@pytest.mark.parametrize("suite", SUITES)
def test_every_suite_is_clean_on_small_bounds(suite):
    outcome = run_suite(suite, bounds=SMALL)
    assert outcome.ok, outcome.failures[:3]
    assert outcome.cases_run > 0


def test_default_bounds_oracle_case_count():
    # (v_max+1) * (d_max+1) * (n_max+1) with the documented defaults
    outcome = run_suite("oracle")
    assert outcome.cases_run == 9 * 11 * 13 == 1287
    assert outcome.ok


@pytest.mark.parametrize(
    ("bounds", "counts"),
    [
        (GridBounds(), (1287, 3140, 6144, 2691, 2604)),
        (ENLARGED, (2717, 7040, 11300, 5841, 5589)),
    ],
    ids=["default", "enlarged"],
)
def test_case_counts_of_every_suite(bounds, counts):
    outcomes = run_suites("all", bounds=bounds)
    assert [(o.suite, o.cases_run) for o in outcomes] == list(zip(SUITES, counts))
    assert all(o.ok for o in outcomes)


def test_lemma_sweep_covers_every_catalogued_identity():
    tags = {key.split()[0] for key, _, _ in verify._lemma_cases(SMALL)}
    assert tags == set(LEMMAS)


@pytest.mark.parametrize(
    ("query", "name", "axis"),
    [("sum_fixed_sv", "fixed-dimension s=7 v=2", 0),
     ("sum_fixed_sd", "fixed-difference s=7 d=2", 1),
     ("sum_fixed_sn", "fixed-rank s=7 n=2", 2)],
)
def test_a_wrong_slice_fails_its_own_case_and_the_cross_partition(monkeypatch, query, name, axis):
    honest = getattr(verify, query)

    def off_by_one(s, k):
        report = honest(s, k)
        if (s, k) != (7, 2):
            return report
        return SumReport(report.formula_sum, report.enumerated_sum + 1,
                         report.formula_multitude, report.enumerated_multitude, None, False)

    monkeypatch.setattr(verify, query, off_by_one)
    outcome = run_suite("theorems", bounds=SMALL)
    total = sums.sum_fixed_s(7).enumerated_sum
    partition = [total] * 3
    partition[axis] += 1
    assert outcome.failures == (
        ("cross-partition s=7", str((total,) * 3), str(tuple(partition))),
        (name, "True", "False"),
    )
    assert outcome.cases_run == run_suite("theorems", bounds=SMALL).cases_run


@pytest.mark.parametrize("field", GridBounds.__slots__)
@pytest.mark.parametrize("bad", [-1, 2**32, True, 3.0, "3"])
def test_grid_bounds_reject_values_outside_the_domain(field, bad):
    with pytest.raises(RangeError, match=field):
        GridBounds(**{field: bad})


def test_grid_bounds_accept_the_whole_domain_as_exact_ints():
    class Index:
        def __index__(self):
            return 3

    top = GridBounds(**{field: 2**32 - 1 for field in GridBounds.__slots__})
    assert top.v_max == top.m_max == 2**32 - 1
    converted = GridBounds(v_max=Index())
    assert type(converted.v_max) is int
    assert converted == GridBounds(v_max=3)


def test_grid_bounds_is_an_immutable_value():
    bounds = GridBounds()
    assert GridBounds.__slots__ == ("v_max", "d_max", "n_max", "c_max", "s_max", "m_max")
    assert repr(bounds) == "GridBounds(v_max=8, d_max=10, n_max=12, c_max=24, s_max=40, m_max=30)"
    assert bounds == GridBounds(8, 10, 12, 24, 40, 30) == GridBounds(**DEFAULT_BOUNDS)
    assert GridBounds(3, 3, 4, 8, 10, 8) == SMALL
    assert GridBounds(3, 3, m_max=8, n_max=4, s_max=10, c_max=8) == SMALL
    # the hash of the frozen dataclass these records replace: the field tuple's
    assert hash(bounds) == hash((8, 10, 12, 24, 40, 30)) == hash(GridBounds())
    assert bounds != GridBounds(m_max=31) and bounds != SMALL

    class Other(GridBounds):
        pass

    # equal only within the same class
    assert bounds != (8, 10, 12, 24, 40, 30) and bounds != Other() and Other() != bounds
    assert Other() == Other() != Other(m_max=31)

    class Slotted(GridBounds):
        __slots__ = ()

    # a subclass that declares no slots of its own keeps every field
    slotted = Slotted(m_max=31)
    assert slotted == Slotted(m_max=31) != Slotted() and slotted != GridBounds(m_max=31)
    assert hash(slotted) == hash((8, 10, 12, 24, 40, 31))
    assert repr(slotted).endswith(
        ".Slotted(v_max=8, d_max=10, n_max=12, c_max=24, s_max=40, m_max=31)"
    )
    assert copy.copy(slotted) == slotted and copy.copy(slotted).m_max == 31
    for name in ("v_max", "m_max", "other"):
        with pytest.raises(AttributeError):
            setattr(bounds, name, 3)
    for name in ("v_max", "m_max"):
        with pytest.raises(AttributeError):
            delattr(bounds, name)
    assert bounds == GridBounds()
    assert copy.copy(bounds) == copy.deepcopy(bounds) == bounds
    assert pickle.loads(pickle.dumps(bounds)) == bounds
    with pytest.raises(TypeError):
        GridBounds(1, 2, 3, 4, 5, 6, 7)
    with pytest.raises(TypeError):
        GridBounds(w_max=3)


def test_verify_outcome_is_an_immutable_value():
    failures = (("lemma-1 m=2", "3", "4"),)
    outcome = VerifyOutcome("lemmas", 2, failures)
    assert repr(outcome) == (
        "VerifyOutcome(suite='lemmas', cases_run=2, failures=(('lemma-1 m=2', '3', '4'),))"
    )
    assert outcome == VerifyOutcome(suite="lemmas", cases_run=2, failures=failures)
    assert hash(outcome) == hash(("lemmas", 2, failures))
    assert outcome != ("lemmas", 2, failures) and outcome != VerifyOutcome("lemmas", 2, ())
    assert not outcome.ok and VerifyOutcome("oracle", 0, ()).ok
    assert (outcome.suite, outcome.cases_run, outcome.failures) == ("lemmas", 2, failures)
    for name in ("suite", "failures", "other"):
        with pytest.raises(AttributeError):
            setattr(outcome, name, ())
    for name in ("suite", "cases_run"):
        with pytest.raises(AttributeError):
            delattr(outcome, name)
    assert copy.copy(outcome) == pickle.loads(pickle.dumps(outcome)) == outcome
    assert run_suite("oracle", bounds=GridBounds(v_max=2, d_max=3, n_max=4)) == VerifyOutcome(
        "oracle", 60, ()
    )


def test_run_suites_all_order_and_selection():
    outcomes = run_suites("all", bounds=SMALL)
    assert [o.suite for o in outcomes] == list(SUITES)
    solo = run_suites("lemmas", bounds=SMALL)
    assert [o.suite for o in solo] == ["lemmas"]
    pair = run_suites(["theorems", "oracle"], bounds=SMALL)
    assert [o.suite for o in pair] == ["theorems", "oracle"]


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("everything")


def test_jobs_produce_identical_outcomes():
    for suite in SUITES:
        serial = run_suite(suite, bounds=SMALL, jobs=1)
        fanned = run_suite(suite, bounds=SMALL, jobs=4)
        assert serial == fanned


def test_failure_path_reports_sorted_by_case_key():
    cases = [
        ("z-case", 1, 2),
        ("a-case", 3, 3),
        ("m-case", "yes", "no"),
    ]
    outcome = _run_cases("doctored", iter(cases))
    assert not outcome.ok
    assert outcome.cases_run == 3
    assert outcome.failures == (("m-case", "yes", "no"), ("z-case", "1", "2"))
    # identical report whatever order the cases come in
    assert _run_cases("doctored", reversed(cases)) == outcome


@pytest.mark.parametrize(
    "bounds",
    [
        SMALL,
        GridBounds(),
        ENLARGED,
        GridBounds(v_max=4, d_max=2, n_max=12, c_max=6),  # c_max < n_max + 1
        GridBounds(v_max=9, d_max=2, n_max=3, c_max=5),  # v_max > c_max
        GridBounds(v_max=12, d_max=1, n_max=14, c_max=3),  # both
        GridBounds(v_max=3, d_max=2, n_max=4, c_max=0),
        GridBounds(v_max=3, d_max=2, n_max=4, c_max=1),
        GridBounds(v_max=3, d_max=2, n_max=4, c_max=2),
        GridBounds(v_max=3, d_max=2, n_max=4, c_max=3),
        GridBounds(0, 0, 0, 0, 0, 0),
    ],
    ids=["small", "default", "enlarged", "short-rows", "tall-columns", "both", "c0", "c1", "c2",
         "c3", "zero"],
)
def test_corollary_stream_equals_the_naive_sweep(bounds):
    assert list(verify._corollary_cases(bounds)) == list(naive_corollary_cases(bounds))


def _off_by_one_at(monkeypatch, name, at):
    honest = getattr(verify, name)

    def doctored(*args):
        return honest(*args) + (args == at)

    monkeypatch.setattr(verify, name, doctored)


@pytest.mark.parametrize(
    ("name", "at", "keys"),
    [
        ("hypersolid", (2, 1, 3), [
            "adjacency d=1 c=5 v=2", "adjacency d=1 c=6 v=2", "adjacency d=1 c=6 v=3",
            "column-compilation d=1 v=2", "column-compilation d=1 v=3",
            "row-compilation d=1 n=2 v=2",
        ]),
        ("hypersolid", (0, 3, 7), ["adjacency d=3 c=8 v=1"]),
        # the last value both adjacency and the row compilations read
        ("hypersolid", (3, 2, 5), ["adjacency d=2 c=8 v=3", "row-compilation d=2 n=4 v=3"]),
        ("row_sum", (1, 5), [
            "row-cumulative d=1 c=5", "row-cumulative d=1 c=6", "row-cumulative d=1 c=7",
            "row-cumulative d=1 c=8", "row-doubling d=1 c=5", "row-doubling d=1 c=6",
            "row-total d=1 c=5",
        ]),
        ("diagonal_sum", (2, 3, 10), [
            "diagonal-recurrence d=2 m=3 k=10", "diagonal-recurrence d=2 m=3 k=11",
            "diagonal-recurrence d=2 m=3 k=13",
        ]),
        # k + m past 30 reads the wrong total in two cases only
        ("diagonal_sum", (0, 4, 28), [
            "diagonal-recurrence d=0 m=4 k=28", "diagonal-recurrence d=0 m=4 k=29",
        ]),
    ],
    ids=["closed", "closed-dimension-0", "closed-corner", "row-total", "diagonal", "diagonal-late"],
)
def test_a_wrong_value_fails_exactly_the_cases_that_read_it(monkeypatch, name, at, keys):
    cases_run = run_suite("corollaries", bounds=SMALL).cases_run
    _off_by_one_at(monkeypatch, name, at)
    outcome = run_suite("corollaries", bounds=SMALL)
    assert [key for key, _, _ in outcome.failures] == keys
    assert outcome.cases_run == cases_run
    # the expected and actual sides are those of a sweep that evaluates each case alone
    assert outcome == _run_cases("corollaries", naive_corollary_cases(SMALL))


def test_a_wrong_triangle_cell_fails_only_its_row_total(monkeypatch):
    # the adjacency cases judge the rule triangles are built by, so they read
    # scalar closed-form values and never a triangle
    honest = verify.build_triangle

    def doctored(d, c_max):
        triangle = honest(d, c_max)
        if d != 1:
            return triangle
        rows = [list(row) for row in triangle.rows]
        rows[6][2] += 1
        return Triangle(d, c_max, tuple(map(tuple, rows)))

    monkeypatch.setattr(verify, "build_triangle", doctored)
    outcome = run_suite("corollaries", bounds=SMALL)
    assert [key for key, _, _ in outcome.failures] == ["row-total d=1 c=6"]
