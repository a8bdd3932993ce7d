"""Fixed-sum partition tests.

The frozen census of index triples with coordinate sum 6 below was worked
out by hand from the product formulas and is the anchor for every report
in this module: each theorem's enumerated side must reduce to sub-sums of
this dictionary before the formula side is trusted.
"""

from __future__ import annotations

import math

import pytest

from hypersolids import sums
from hypersolids import (
    LEMMAS,
    RangeError,
    enumerate_triples,
    hypersolid,
    lemma_check,
    sum_fixed_s,
    sum_fixed_sd,
    sum_fixed_sn,
    sum_fixed_sv,
)

# Every nonzero value S(v, d, n) with v + d + n == 6, keyed by (v, d, n).
CENSUS_S6 = {
    (0, 1, 5): 1,
    (0, 2, 4): 2,
    (0, 3, 3): 3,
    (0, 4, 2): 4,
    (1, 0, 5): 1,
    (1, 1, 4): 4,
    (1, 2, 3): 5,
    (1, 3, 2): 4,
    (1, 4, 1): 1,
    (2, 0, 4): 4,
    (2, 1, 3): 6,
    (2, 2, 2): 4,
    (2, 3, 1): 1,
    (3, 0, 3): 6,
    (3, 1, 2): 4,
    (3, 2, 1): 1,
    (4, 0, 2): 4,
    (4, 1, 1): 1,
    (5, 0, 1): 1,
}


# ----------------------------------------------------------- enumeration


def test_enumerate_triples_matches_hand_census():
    # enumerate_triples lists every cell on the simplex; the census keeps
    # only the nonzero ones
    got = {tuple(t): value for t, value in enumerate_triples(6) if value}
    assert got == CENSUS_S6


def test_enumerate_triples_covers_the_whole_simplex():
    pairs = enumerate_triples(9)
    triples = [tuple(t) for t, _ in pairs]
    assert len(pairs) == 10 * 11 // 2  # C(s + 2, 2) cells
    assert triples == sorted(triples)
    assert all(sum(t) == 9 for t in triples)
    for t, value in pairs:
        assert value == hypersolid(*t)


def test_zero_census():
    # number of zero-valued cells on the simplex v + d + n = s
    for s in range(2, 25):
        total_cells = (s + 1) * (s + 2) // 2
        nonzero = sum(1 for _, value in enumerate_triples(s) if value)
        assert total_cells - nonzero == s + 3


# -------------------------------------------------- fixed rank (s with v)


def test_fixed_rank_slices_sum_to_census():
    for v in range(7):
        expected = sum(val for (tv, _, _), val in CENSUS_S6.items() if tv == v)
        count = sum(1 for (tv, _, _), _ in CENSUS_S6.items() if tv == v)
        report = sum_fixed_sv(6, v)
        assert report.enumerated_sum == expected
        assert report.enumerated_multitude == count
        assert report.consistent


@pytest.mark.parametrize(
    "s, v, total, multitude",
    [
        (10, 2, 162, 8),
        (11, 2, 255, 9),
        (12, 3, 627, 9),
        (6, 0, 10, 4),
        (6, 1, 15, 5),
        (2, 2, 0, 0),  # the v = s slice holds only the zero cell (s, 0, 0)
    ],
)
def test_fixed_rank_spot_values(s, v, total, multitude):
    report = sum_fixed_sv(s, v)
    assert report.formula_sum == total
    assert report.formula_multitude == multitude
    assert report.consistent


def test_fixed_rank_formulas():
    for s in range(2, 41):
        zero = sum_fixed_sv(s, 0)
        assert zero.formula_sum == math.comb(s - 1, 2)
        assert zero.formula_multitude == max(s - 2, 0)
        for v in range(1, s + 1):
            rep = sum_fixed_sv(s, v)
            assert rep.formula_sum == math.comb(s - 1, v) + math.comb(s - 1, v + 2)
            assert rep.formula_multitude == s - v
            assert rep.consistent


def test_fixed_rank_out_of_simplex():
    with pytest.raises(RangeError):
        sum_fixed_sv(5, 6)


# -------------------------------------------- fixed difference (s with d)


def test_fixed_difference_slices_sum_to_census():
    for d in range(5):
        expected = sum(val for (_, td, _), val in CENSUS_S6.items() if td == d)
        report = sum_fixed_sd(6, d)
        assert report.enumerated_sum == expected
        assert report.consistent


def test_fixed_difference_formulas_and_multitudes():
    for s in range(2, 41):
        for d in range(s - 1):
            rep = sum_fixed_sd(s, d)
            assert rep.formula_sum == (d + 1) * 2 ** (s - d - 2)
            assert rep.formula_multitude == (s - 1 if d == 0 else s - d)
            assert rep.consistent


def test_fixed_difference_markers():
    # the top two difference slices carry no closed form; the report says so
    for s in range(2, 12):
        for d in (s - 1, s):
            rep = sum_fixed_sd(s, d)
            assert rep.formula_sum is None
            assert rep.formula_multitude is None
            assert not rep.consistent
            assert not rep.formula_applies
    # and those slices really are degenerate: every cell in them is zero
    assert sum_fixed_sd(6, 5).enumerated_sum == 0
    assert sum_fixed_sd(6, 6).enumerated_sum == 0


def test_fixed_difference_example():
    rep = sum_fixed_sd(6, 0)
    assert rep.formula_sum == 16
    assert rep.enumerated_sum == 16
    assert rep.formula_multitude == 5


# -------------------------------------------------- fixed extent (s with n)


def test_fixed_extent_slices_sum_to_census():
    for n in range(6):
        expected = sum(val for (_, _, tn), val in CENSUS_S6.items() if tn == n)
        count = sum(1 for (_, _, tn), _ in CENSUS_S6.items() if tn == n)
        report = sum_fixed_sn(6, n)
        assert report.enumerated_sum == expected
        assert report.enumerated_multitude == count


def test_fixed_extent_branches():
    for s in range(2, 41):
        assert sum_fixed_sn(s, 0).formula_sum == 0
        assert sum_fixed_sn(s, 0).formula_multitude == 0
        one = sum_fixed_sn(s, 1)
        assert one.formula_sum == s - 1
        assert one.formula_multitude == s - 1
        for n in range(2, s):
            rep = sum_fixed_sn(s, n)
            assert rep.formula_sum == 2 * math.comb(s - 1, n)
            assert rep.formula_multitude == s - n + 1
            assert rep.consistent
        top = sum_fixed_sn(s, s)
        assert top.formula_sum is None
        assert not top.consistent


@pytest.mark.parametrize(
    "s, n, total",
    [(6, 2, 20), (9, 4, 140), (6, 3, 20), (10, 5, 252)],
)
def test_fixed_extent_spot_values(s, n, total):
    rep = sum_fixed_sn(s, n)
    assert rep.formula_sum == total
    assert rep.enumerated_sum == total


# ----------------------------------------------------- whole-simplex total


def test_simplex_total_example():
    rep = sum_fixed_s(6)
    assert rep.formula_sum == 57
    assert rep.enumerated_sum == 57
    assert rep.formula_multitude == 19
    assert rep.enumerated_multitude == 19
    assert rep.consistent
    assert sum(CENSUS_S6.values()) == 57
    assert len(CENSUS_S6) == 19


def test_simplex_total_formulas():
    for s in range(2, 41):
        rep = sum_fixed_s(s)
        assert rep.formula_sum == 2**s - (s + 1)
        assert rep.formula_multitude == (s + 1) * s // 2 - 2
        assert rep.consistent


def test_simplex_total_below_two_is_marked():
    for s in (0, 1):
        rep = sum_fixed_s(s)
        assert rep.formula_sum is None
        assert rep.enumerated_sum == 0
        assert not rep.consistent


# -------------------------------------------------- partition consistency


def test_partitions_agree_with_each_other():
    for s in range(2, 31):
        total = sum_fixed_s(s).enumerated_sum
        by_rank = sum(sum_fixed_sv(s, v).enumerated_sum for v in range(s + 1))
        by_diff = sum(sum_fixed_sd(s, d).enumerated_sum for d in range(s + 1))
        by_extent = sum(sum_fixed_sn(s, n).enumerated_sum for n in range(s + 1))
        assert total == by_rank == by_diff == by_extent


def test_reports_carry_their_triples_on_request():
    rep = sum_fixed_sv(6, 2, include_triples=True)
    assert rep.triples is not None
    assert {tuple(t): val for t, val in rep.triples} == {
        (2, 0, 4): 4,
        (2, 1, 3): 6,
        (2, 2, 2): 4,
        (2, 3, 1): 1,
    }
    # and omit them by default
    assert sum_fixed_sv(6, 2).triples is None


@pytest.mark.parametrize(
    "query,axis",
    [(sum_fixed_sv, 0), (sum_fixed_sd, 1), (sum_fixed_sn, 2)],
    ids=["v", "d", "n"],
)
def test_slices_list_the_nonzero_cells_of_the_whole_simplex(query, axis):
    # each slice is built on its own; it must hold exactly the simplex's
    # nonzero cells with that coordinate pinned, in the simplex's order
    for s in range(31):
        pairs = enumerate_triples(s)
        for k in range(s + 1):
            want = tuple((t, value) for t, value in pairs if t[axis] == k and value)
            assert query(s, k, include_triples=True).triples == want, (s, k)


def test_slices_never_build_the_whole_simplex(monkeypatch):
    def whole_simplex(s):
        raise AssertionError(f"slice query built the whole simplex for s={s}")

    monkeypatch.setattr(sums, "_triples", whole_simplex)
    for query in (sum_fixed_sv, sum_fixed_sd, sum_fixed_sn):
        assert query(12, 3).consistent


@pytest.mark.parametrize(
    "query,axis",
    [(sum_fixed_sv, 0), (sum_fixed_sd, 1), (sum_fixed_sn, 2)],
    ids=["v", "d", "n"],
)
def test_slices_match_scalar_hypersolid_cell_by_cell(query, axis):
    # the slice maps must never be their own witness: every cell of every
    # slice is evaluated again by the scalar closed form
    for s in range(41):
        for k in range(s + 1):
            want = []
            for other in range(s - k + 1):
                cell = [other, s - k - other]
                cell.insert(axis, k)
                value = hypersolid(*cell)
                if value:
                    want.append((tuple(cell), value))
            listed = query(s, k, include_triples=True)
            bare = query(s, k)
            assert [(tuple(t), value) for t, value in listed.triples] == want, (s, k)
            for report in (listed, bare):
                assert report.enumerated_sum == sum(value for _, value in want), (s, k)
                assert report.enumerated_multitude == len(want), (s, k)
            assert bare.triples is None


def test_slices_without_listing_build_no_triples(monkeypatch):
    def no_triple(*coordinates):
        raise AssertionError(f"slice query built a triple {coordinates}")

    monkeypatch.setattr(sums, "IndexTriple", no_triple)
    for query in (sum_fixed_sv, sum_fixed_sd, sum_fixed_sn):
        for k in range(13):
            assert query(12, k).enumerated_sum >= 0


def test_simplex_rows_match_the_closed_form_cell_by_cell():
    for s in range(41):
        rows = list(sums._simplex_rows(s))
        assert [len(row) for row in rows] == list(range(1, s + 2)), s
        for d, row in zip(range(s, -1, -1), rows):
            assert row == [hypersolid(v, d, s - d - v) for v in range(s - d + 1)], (s, d)


def test_enumerate_triples_matches_the_closed_form_cell_by_cell():
    for s in range(31):
        want = [
            ((v, d, s - v - d), hypersolid(v, d, s - v - d))
            for v in range(s + 1)
            for d in range(s - v + 1)
        ]
        assert [(tuple(t), value) for t, value in enumerate_triples(s)] == want, s


def test_simplex_total_by_rows_equals_the_listed_cells():
    for s in range(41):
        by_rows = sum_fixed_s(s)
        listed = sum_fixed_s(s, include_triples=True)
        assert by_rows.triples is None
        assert (by_rows.enumerated_sum, by_rows.enumerated_multitude, by_rows.consistent) == (
            listed.enumerated_sum,
            listed.enumerated_multitude,
            listed.consistent,
        ), s


def test_simplex_total_without_listing_never_builds_the_cells(monkeypatch):
    def whole_simplex(s):
        raise AssertionError(f"sum_fixed_s built the listed simplex for s={s}")

    monkeypatch.setattr(sums, "_triples", whole_simplex)
    assert sum_fixed_s(12).consistent
    assert sum_fixed_s(1).enumerated_sum == 0


# ----------------------------------------------------------------- lemmas


def quadratic_pyramid(m: int) -> int:
    return sum(r * r for r in range(m + 1))


def cubes(m: int) -> int:
    return sum(r**3 for r in range(m + 1))


def test_lemma_tags_are_exactly_the_ten():
    assert set(LEMMAS) == {
        "sum_r",
        "sum_r2",
        "sum_r3",
        "hockey_stick",
        "diagonal_stick",
        "row_power",
        "weighted_stick",
        "permutation_ladder",
        "geometric",
        "weighted_geometric",
    }


def test_power_sum_lemmas_against_literal_sums():
    for n in range(0, 40):
        assert lemma_check("sum_r", {"n": n})
        assert lemma_check("sum_r2", {"n": n})
        assert lemma_check("sum_r3", {"n": n})
    # anchor three of them numerically
    assert sum(range(11)) == 55
    assert quadratic_pyramid(10) == 385
    assert cubes(10) == 3025


def test_binomial_lemmas():
    for M in range(31):
        for m in range(M + 1):
            assert lemma_check("hockey_stick", {"M": M, "m": m})
            assert lemma_check("diagonal_stick", {"M": M, "m": m})
        assert lemma_check("row_power", {"M": M})
        for m in range(M):
            assert lemma_check("weighted_stick", {"M": M, "m": m})
            assert lemma_check("permutation_ladder", {"M": M, "m": m + 1})


def test_geometric_lemmas():
    for R in range(0, 31):
        assert lemma_check("geometric", {"R": R})
        assert lemma_check("weighted_geometric", {"R": R})
    # spot: sum of j * 2**j for j = 1..4 is 2 + (4 - 1) * 2**5 = 98
    assert sum(j * 2**j for j in range(1, 5)) == 98


def test_lemma_check_validation():
    with pytest.raises(ValueError):
        lemma_check("no_such_lemma", {"m": 3})
    with pytest.raises(ValueError):
        lemma_check("sum_r", {"wrong": 3})
    with pytest.raises(RangeError):
        lemma_check("weighted_stick", {"M": 3, "m": 3})  # needs m < M
    with pytest.raises(RangeError):
        lemma_check("hockey_stick", {"M": 2, "m": 5})  # needs m <= M
    with pytest.raises(RangeError):
        lemma_check("sum_r", {"n": -1})
