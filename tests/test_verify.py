"""Verification-sweep harness tests.

The suites replay identities that are mathematically true, so a healthy
run never fails; these tests pin the harness mechanics — case counts,
ordering, bounds checking — and use doctored cases to prove the failure
path actually reports.
"""

from __future__ import annotations

import copy
import pickle
import re
from itertools import accumulate, product

import pytest

from hypersolids import (LEMMAS, GridBounds, RangeError, SumReport, build_triangle, run_suite,
                         run_suites, compile_row, kernel, sums, verify)
from hypersolids.kernel import DEFAULT_BOUNDS
from hypersolids.verify import SUITES, VerifyOutcome, _run_cases

SMALL = GridBounds(v_max=3, d_max=3, n_max=4, c_max=8, s_max=10, m_max=8)
ENLARGED = GridBounds(v_max=12, d_max=10, n_max=18, c_max=34, s_max=60, m_max=45)


def named(cases):
    """The stream with every key formatted as a failure names it; each key
    must be a (template, *args) tuple, so a passing case builds no string."""
    out = []
    for key, expected, actual in cases:
        assert type(key) is tuple, key
        out.append((key[0].format(*key[1:]), expected, actual))
    return out


def naive_oracle_cases(b):
    """The oracle sweep with its keys built by f-strings, reading both routes
    through the name the shipped sweep uses."""
    for v in range(b.v_max + 1):
        for d in range(b.d_max + 1):
            for n in range(b.n_max + 1):
                yield (f"eval v={v} d={d} n={n}", verify.hypersolid(v, d, n, "closed"),
                       verify.hypersolid(v, d, n, "summation"))


def naive_theorem_cases(b):
    """The theorems sweep with its keys built by f-strings, reading every
    slice through the names the shipped sweep uses."""
    for s in range(2, b.s_max + 1):
        total = verify.sum_fixed_s(s)
        axes = (
            ("fixed-dimension", "v", [verify.sum_fixed_sv(s, k) for k in range(s + 1)], s + 1),
            ("fixed-difference", "d", [verify.sum_fixed_sd(s, k) for k in range(s + 1)], s - 1),
            ("fixed-rank", "n", [verify.sum_fixed_sn(s, k) for k in range(s + 1)], s),
        )
        for name, coord, reports, degenerate in axes:
            for k, report in enumerate(reports):
                if k < degenerate:
                    yield f"{name} s={s} {coord}={k}", True, report.consistent
                else:
                    actual = (report.formula_sum, report.enumerated_sum,
                              report.formula_multitude, report.enumerated_multitude)
                    yield f"{name}-degenerate s={s} {coord}={k}", (None, 0, None, 0), actual
        yield f"simplex-total s={s}", True, total.consistent
        partition = tuple(sum(r.enumerated_sum for r in slices) for _, _, slices, _ in axes)
        yield f"cross-partition s={s}", (total.enumerated_sum,) * 3, partition
        cells = (s + 1) * (s + 2) // 2
        census = tuple(cells - sum(r.enumerated_multitude for r in slices)
                       for _, _, slices, _ in axes)
        yield f"zero-census s={s}", (s + 3,) * 3, census


def naive_lemma_cases(b):
    """The lemmas sweep as it was before its literal sums were shared: one
    ``lemma_check`` per case, with the key built by ``join``."""
    for tag, lemma in LEMMAS.items():
        for values in product(range(b.m_max + 1), repeat=len(lemma.params)):
            if lemma.domain(*values):
                params = dict(zip(lemma.params, values))
                key = f"{tag} " + " ".join(f"{p}={x}" for p, x in params.items())
                yield key, True, sums.lemma_check(tag, params)


def naive_gnomon_cases(b):
    """The gnomons sweep as it was before its values were shared: every case
    evaluates what it reads, through the names the shipped sweep uses."""
    for v in range(b.v_max + 1):
        for d in range(b.d_max + 1):
            for n in range(1, b.n_max + 1):
                if v + n < 3:
                    continue
                if v >= 1:
                    yield (f"rank-step v={v} d={d} n={n}", verify.hypersolid(v, d, n),
                           verify.hypersolid(v, d, n - 1) + verify.n_gnomon(v, d, n))
                    yield (f"dimension-step v={v} d={d} n={n}",
                           verify.hypersolid(v, d, n) - verify.hypersolid(v - 1, d, n),
                           verify.v_gnomon(v, d, n))
                if d >= 1:
                    yield (f"difference-step v={v} d={d} n={n}", verify.hypersolid(v, d, n),
                           verify.hypersolid(v, d - 1, n) + verify.d_gnomon(v, d, n))


def naive_corollary_cases(b):
    """The corollaries sweep as it was before its values were shared: every
    case evaluates what it reads itself.  It reads through the names the
    shipped sweep uses, so a value patched there reaches this judge too; each
    row compilation is ``compile_row``, which sums its own closed-form terms,
    where the sweep reads the prefixes of one running sum, and each row total
    sums a row of the public ``build_triangle``."""
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
                       verify.hypersolid(v, d, n + 1), compile_row(d, n, v))
        triangle = build_triangle(d, b.c_max)
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
        (GridBounds(m_max=60), (1287, 3140, 6144, 2691, 9699)),
    ],
    ids=["default", "enlarged", "m60"],
)
def test_case_counts_of_every_suite(bounds, counts):
    outcomes = run_suites("all", bounds=bounds)
    assert [(o.suite, o.cases_run) for o in outcomes] == list(zip(SUITES, counts))
    assert all(o.ok for o in outcomes)


def test_lemma_sweep_covers_every_catalogued_identity():
    tags = {key.split()[0] for key, _, _ in named(verify._lemma_cases(SMALL))}
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


@pytest.mark.parametrize(
    ("query", "name", "axis"),
    [("sum_fixed_sv", "fixed-dimension s=7 v=2", 0),
     ("sum_fixed_sd", "fixed-difference s=7 d=2", 1),
     ("sum_fixed_sn", "fixed-rank s=7 n=2", 2)],
)
def test_a_wrong_nonzero_count_fails_its_own_case_and_the_zero_census(
    monkeypatch, query, name, axis
):
    honest = getattr(verify, query)

    def one_more_nonzero(s, k):
        report = honest(s, k)
        if (s, k) != (7, 2):
            return report
        return SumReport(report.formula_sum, report.enumerated_sum, report.formula_multitude,
                         report.enumerated_multitude + 1, None, False)

    monkeypatch.setattr(verify, query, one_more_nonzero)
    outcome = run_suite("theorems", bounds=SMALL)
    # the simplex s = 7 holds 7 + 3 zero cells; this axis now counts one fewer
    census = [10] * 3
    census[axis] -= 1
    assert outcome.failures == (
        (name, "True", "False"),
        ("zero-census s=7", str((10,) * 3), str(tuple(census))),
    )
    assert outcome.cases_run == run_suite("theorems", bounds=SMALL).cases_run


def test_the_zero_census_of_every_axis_counts_the_zeros_of_the_lifted_rows():
    # the slices' nonzero counts against the rows of the whole simplex,
    # lifted from Pascal's triangle cell by cell
    for s in range(2, 61):
        zeros = sum(row.count(0) for row in sums._simplex_rows(s))
        cells = (s + 1) * (s + 2) // 2
        for query in (sums.sum_fixed_sv, sums.sum_fixed_sd, sums.sum_fixed_sn):
            nonzero = sum(query(s, k).enumerated_multitude for k in range(s + 1))
            assert cells - nonzero == zeros == s + 3, (s, query.__name__)


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


@pytest.mark.parametrize("name", ["all", "everything"])
def test_an_unknown_suite_is_named_against_the_suites_only(name):
    # "all" selects every suite in run_suites only, so the message offers
    # exactly the names run_suite takes
    message = f"unknown suite {name!r}; expected one of {SUITES}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_suite(name)


def test_run_suites_checks_every_name_before_any_suite_runs(monkeypatch):
    called = []

    def spy(bounds):
        called.append(bounds)
        return iter(())

    monkeypatch.setitem(verify._SUITE_BUILDERS, "oracle", spy)
    message = f"unknown suite 'bogus'; expected one of {SUITES}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_suites(["oracle", "bogus"], bounds=SMALL)
    with pytest.raises(ValueError, match="'all'"):
        run_suites(["oracle", "all"], bounds=SMALL)
    assert called == []
    # the spy is the oracle suite while the names are good
    assert run_suites(["oracle"], bounds=SMALL) == [VerifyOutcome("oracle", 0, ())]
    assert called == [SMALL]


def test_a_failing_tuple_key_is_named_by_its_template():
    cases = [
        (("z-case v={} d={}", 3, 12), 1, 2),
        (("a-case v={}", 1), 3, 3),
        ("m-case", "yes", "no"),
        (("m-case v={} n={}", 10, 2), 4, 5),
    ]
    outcome = _run_cases("doctored", iter(cases))
    assert outcome.cases_run == 4
    assert outcome.failures == (
        ("m-case", "yes", "no"), ("m-case v=10 n=2", "4", "5"), ("z-case v=3 d=12", "1", "2"),
    )


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
    assert named(verify._corollary_cases(bounds)) == list(naive_corollary_cases(bounds))


def _off_by_one_at(monkeypatch, name, at, module=verify):
    honest = getattr(module, name)

    def doctored(*args):
        return honest(*args) + (args == at)

    monkeypatch.setattr(module, name, doctored)


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


@pytest.mark.parametrize("at", [(1, 2, 3), (0, 1, 2), (3, 3, 4)], ids=["inner", "first", "last"])
def test_a_wrong_row_compilation_term_fails_the_compilations_that_add_it(monkeypatch, at):
    # the row compilations of one rank level are the prefixes of one running
    # sum of scalar terms, read through verify._closed and never from the
    # table the adjacency and column cases read, so a wrong term S(r, d, n)
    # fails the compilations with v >= r of that level and nothing else
    cases_run = run_suite("corollaries", bounds=SMALL).cases_run
    _off_by_one_at(monkeypatch, "_closed", at)
    outcome = run_suite("corollaries", bounds=SMALL)
    r, d, n = at
    assert [key for key, _, _ in outcome.failures] == [
        f"row-compilation d={d} n={n} v={v}" for v in range(r, SMALL.v_max + 1)
    ]
    assert outcome.cases_run == cases_run


def test_corollary_evaluations_grow_linearly_in_the_dimension_bound(closed_calls):
    # per difference: the shared table's scalar values, one running pass of
    # v_max + 1 terms per rank level n = 2..n_max, rows 0-2 of the triangle
    # and of the diagonal rows, and the diagonal totals; then the Pascal
    # checks.  Summing each row compilation alone would cost
    # (v_max + 1)(v_max + 2)/2 terms per rank level, 22,072 and 50,540
    # evaluations at these bounds.
    counts = []
    for v_max in (12, 24):
        closed_calls.clear()
        assert run_suite("corollaries", bounds=GridBounds(v_max=v_max)).ok
        counts.append(len(closed_calls))
    assert counts == [12634, 14240]
    # 12 more terms in each of the 11 * 11 passes, and one more dimension,
    # v = 24, of 14 values per difference in the shared table
    assert counts[1] - counts[0] == 11 * (11 * 12 + 14)


def test_a_wrong_triangle_cell_fails_only_its_row_total(monkeypatch):
    # the adjacency cases judge the rule triangles are built by, so they read
    # scalar closed-form values and never a triangle row
    honest = verify._triangle_rows

    def doctored(d, c_max, width=None):
        for c, row in enumerate(honest(d, c_max, width)):
            yield row[:2] + (row[2] + 1,) + row[3:] if (d, c) == (1, 6) else row

    monkeypatch.setattr(verify, "_triangle_rows", doctored)
    outcome = run_suite("corollaries", bounds=SMALL)
    assert [key for key, _, _ in outcome.failures] == ["row-total d=1 c=6"]


@pytest.mark.parametrize("m_max", [0, 1, 2, 3, 8, 30, 45, 60])
def test_lemma_stream_equals_the_naive_sweep(m_max):
    bounds = GridBounds(m_max=m_max)
    assert named(verify._lemma_cases(bounds)) == list(naive_lemma_cases(bounds))


@pytest.mark.parametrize(
    ("name", "at", "keys"),
    [
        # C(5, 2) is a term of the hockey stick with m = 2 from M = 5 on, of
        # the diagonal stick with M = 3 from m = 2 on, of row 5 and of the
        # weighted stick with m = 2 from M = 6 on
        ("comb", (5, 2), [
            *(f"diagonal_stick M=3 m={m}" for m in range(2, 9)),
            *(f"hockey_stick M={M} m=2" for M in range(5, 9)),
            "row_power M=5",
            *(f"weighted_stick M={M} m=2" for M in range(6, 9)),
        ]),
        # P(4, 2) is the ladder's left side at M = 3, m = 2 and a term of its
        # running sum with m = 3 from M = 4 on
        ("perm", (4, 2), [
            "permutation_ladder M=3 m=2",
            *(f"permutation_ladder M={M} m=3" for M in range(4, 9)),
        ]),
    ],
    ids=["comb", "perm"],
)
def test_a_wrong_lemma_term_fails_exactly_the_partial_sums_that_hold_it(
        monkeypatch, name, at, keys):
    cases_run = run_suite("lemmas", bounds=SMALL).cases_run
    _off_by_one_at(monkeypatch, name, at, module=sums)
    outcome = run_suite("lemmas", bounds=SMALL)
    assert [key for key, _, _ in outcome.failures] == sorted(keys)
    assert outcome.cases_run == cases_run
    assert outcome == _run_cases("lemmas", naive_lemma_cases(SMALL))


@pytest.mark.parametrize(
    "bounds",
    [
        SMALL,
        GridBounds(),
        ENLARGED,
        GridBounds(0, 0, 0, 0, 0, 0),
        GridBounds(v_max=0),
        GridBounds(n_max=0),
        GridBounds(n_max=1),
        GridBounds(n_max=2),
    ],
    ids=["small", "default", "enlarged", "zero", "v0", "n0", "n1", "n2"],
)
def test_gnomon_stream_equals_the_naive_sweep(bounds):
    assert named(verify._gnomon_cases(bounds)) == list(naive_gnomon_cases(bounds))


@pytest.mark.parametrize("bounds", [SMALL, GridBounds(), ENLARGED, GridBounds(0, 0, 0, 0, 0, 0)],
                         ids=["small", "default", "enlarged", "zero"])
def test_oracle_stream_equals_the_naive_sweep(bounds):
    assert named(verify._oracle_cases(bounds)) == list(naive_oracle_cases(bounds))


@pytest.mark.parametrize(("bounds", "columns"), [(GridBounds(), 99), (ENLARGED, 143)],
                         ids=["default", "enlarged"])
def test_the_oracle_opens_one_summation_pass_per_column(monkeypatch, bounds, columns):
    # each (v, d) column reads all of its ranks off one pass to n_max, so the
    # sweep adds O(v * n_max) terms per column, not O(v * n_max**2); the
    # scalar summation route, one pass per cell, is never called
    opened = []
    ranks = kernel._summation_ranks

    def spy(v, d, n):
        opened.append((v, d, n))
        return ranks(v, d, n)

    def scalar(v, d, n):
        raise AssertionError(f"scalar summation of {(v, d, n)}")

    monkeypatch.setattr(verify, "_summation_ranks", spy)
    monkeypatch.setattr(kernel, "_by_summation", scalar)
    outcome = run_suite("oracle", bounds=bounds)
    assert (outcome.ok, outcome.cases_run) == (True, columns * (bounds.n_max + 1))
    assert len(opened) == columns
    assert opened == [(v, d, bounds.n_max)
                      for v in range(bounds.v_max + 1) for d in range(bounds.d_max + 1)]


@pytest.mark.parametrize("bounds", [SMALL, GridBounds(), ENLARGED, GridBounds(0, 0, 0, 0, 0, 0)],
                         ids=["small", "default", "enlarged", "zero"])
def test_theorem_stream_equals_the_naive_sweep(bounds):
    assert named(verify._theorem_cases(bounds)) == list(naive_theorem_cases(bounds))


@pytest.mark.parametrize(
    ("at", "keys"),
    [
        ((2, 1, 3), [
            "difference-step v=2 d=1 n=3", "difference-step v=2 d=2 n=3",
            "dimension-step v=2 d=1 n=3", "dimension-step v=3 d=1 n=3",
            "rank-step v=2 d=1 n=3", "rank-step v=2 d=1 n=4",
        ]),
        # dimension 0 has only difference steps, and dimension 1 reads it
        ((0, 2, 4), [
            "difference-step v=0 d=2 n=4", "difference-step v=0 d=3 n=4",
            "dimension-step v=1 d=2 n=4",
        ]),
        # the last value of the grid is read only by its own three steps
        ((3, 3, 4), [
            "difference-step v=3 d=3 n=4", "dimension-step v=3 d=3 n=4", "rank-step v=3 d=3 n=4",
        ]),
        # rank 0 of dimension 1 is evaluated with the grid but read by no case
        ((1, 2, 0), []),
    ],
    ids=["inner", "dimension-0", "corner", "unread"],
)
def test_a_wrong_value_fails_exactly_the_gnomon_steps_that_read_it(monkeypatch, at, keys):
    cases_run = run_suite("gnomons", bounds=SMALL).cases_run
    _off_by_one_at(monkeypatch, "hypersolid", at)
    outcome = run_suite("gnomons", bounds=SMALL)
    assert [key for key, _, _ in outcome.failures] == keys
    assert outcome.cases_run == cases_run
    assert outcome == _run_cases("gnomons", naive_gnomon_cases(SMALL))
