"""Verification-sweep harness tests.

The suites replay identities that are mathematically true, so a healthy
run never fails; these tests pin the harness mechanics — case counts,
ordering, bounds checking — and use doctored cases to prove the failure
path actually reports.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from hypersolids import (LEMMAS, GridBounds, RangeError, SumReport, run_suite, run_suites, sums,
                         verify)
from hypersolids.kernel import DEFAULT_BOUNDS
from hypersolids.verify import SUITES, VerifyOutcome, _run_cases

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
