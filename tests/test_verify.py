"""Verification-sweep harness tests.

The suites replay identities that are mathematically true, so a healthy
run never fails; these tests pin the harness mechanics — case counts,
ordering, bounds checking — and use doctored cases to prove the failure
path actually reports.
"""

from __future__ import annotations

from dataclasses import fields

import pytest

from hypersolids import LEMMAS, GridBounds, RangeError, run_suite, run_suites, sums, verify
from hypersolids.verify import SUITES, _run_cases

SMALL = GridBounds(v_max=3, d_max=3, n_max=4, c_max=8, s_max=10, m_max=8)
ENLARGED = GridBounds(v_max=12, d_max=10, n_max=18, c_max=34, s_max=60, m_max=45)


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
        return sums._tally(report.enumerated_sum + 1, report.enumerated_multitude,
                           report.formula_sum, report.formula_multitude)

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


@pytest.mark.parametrize("field", [f.name for f in fields(GridBounds)])
@pytest.mark.parametrize("bad", [-1, 2**32, True, 3.0, "3"])
def test_grid_bounds_reject_values_outside_the_domain(field, bad):
    with pytest.raises(RangeError, match=field):
        GridBounds(**{field: bad})


def test_grid_bounds_accept_the_whole_domain_as_exact_ints():
    class Index:
        def __index__(self):
            return 3

    top = GridBounds(**{f.name: 2**32 - 1 for f in fields(GridBounds)})
    assert top.v_max == top.m_max == 2**32 - 1
    converted = GridBounds(v_max=Index())
    assert type(converted.v_max) is int
    assert converted == GridBounds(v_max=3)


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
