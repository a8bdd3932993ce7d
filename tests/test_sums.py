"""Fixed-sum partition tests.

The frozen census of index triples with coordinate sum 6 below was worked
out by hand from the product formulas and is the anchor for every report
in this module: each theorem's enumerated side must reduce to sub-sums of
this dictionary before the formula side is trusted.
"""

from __future__ import annotations

import copy
import math
import pickle
from itertools import product, repeat
from operator import add, mul

import pytest

from hypersolids import sums
from hypersolids import (
    LEMMAS,
    RangeError,
    SumReport,
    enumerate_triples,
    hypersolid,
    lemma_check,
    sum_fixed_s,
    sum_fixed_sd,
    sum_fixed_sn,
    sum_fixed_sv,
)
from hypersolids.kernel import _triangle_rows, binomial, permutation

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


@pytest.mark.parametrize(
    "query, name", [(sum_fixed_sv, "v"), (sum_fixed_sd, "d"), (sum_fixed_sn, "n")]
)
def test_pinned_slices_check_their_arguments_alike(query, name):
    with pytest.raises(RangeError) as err:
        query(5, 6)
    assert str(err.value) == f"fixed coordinate must not exceed the total: {name}=6 > s=5"
    with pytest.raises(RangeError) as err:
        query(5, -1)
    assert str(err.value) == f"{name} must be in [0, 2**32), got -1"
    with pytest.raises(RangeError) as err:
        query(2**32, 0)
    assert str(err.value) == "s must be in [0, 2**32), got 4294967296"
    with pytest.raises(RangeError) as err:
        query(5, True)
    assert str(err.value) == f"{name} must be an integer, got True"
    assert query(5, 5).enumerated_sum == 0


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


def test_sum_report_is_an_immutable_value():
    listed = sum_fixed_sv(3, 1, include_triples=True)
    fields = (2, 2, 2, 2, listed.triples, True)
    report = SumReport(*fields)
    assert report == listed == SumReport(
        formula_sum=2, enumerated_sum=2, formula_multitude=2, enumerated_multitude=2,
        triples=listed.triples, consistent=True,
    )
    assert hash(report) == hash(SumReport(*fields))
    assert report != SumReport(2, 2, 2, 2, None, True)
    assert report != fields
    assert repr(report) == (
        "SumReport(formula_sum=2, enumerated_sum=2, formula_multitude=2, "
        "enumerated_multitude=2, triples=((IndexTriple(v=1, d=0, n=2), 1), "
        "(IndexTriple(v=1, d=1, n=1), 1)), consistent=True)"
    )
    assert report.formula_applies and not SumReport(None, 0, None, 0, None, False).formula_applies
    for name in ("consistent", "triples", "other"):
        with pytest.raises(AttributeError):
            setattr(report, name, None)
    for name in ("consistent", "formula_sum"):
        with pytest.raises(AttributeError):
            delattr(report, name)
    assert report == SumReport(*fields)
    assert copy.copy(report) == pickle.loads(pickle.dumps(report)) == report


class NotedReport(SumReport):
    """A record subclass that adds one slot of its own (module level, so it pickles)."""

    __slots__ = ("note",)

    def __init__(self, *fields):
        super().__init__(*fields[:-1])
        NotedReport._setters[-1](self, fields[-1])


def test_a_subclass_of_sum_report_adds_the_slot_it_declares():
    fields = (2, 2, 2, 2, None, True)
    noted = NotedReport(*fields, "first")
    assert NotedReport._fields == (*SumReport._fields, "note")
    assert (noted.formula_sum, noted.consistent, noted.note) == (2, True, "first")
    assert noted == NotedReport(*fields, "first") != NotedReport(*fields, "second")
    assert noted != SumReport(*fields) and SumReport(*fields) != noted
    assert hash(noted) == hash((*fields, "first"))
    assert repr(noted) == (
        "NotedReport(formula_sum=2, enumerated_sum=2, formula_multitude=2, "
        "enumerated_multitude=2, triples=None, consistent=True, note='first')"
    )
    assert copy.copy(noted) == copy.deepcopy(noted) == pickle.loads(pickle.dumps(noted)) == noted
    assert pickle.loads(pickle.dumps(noted)).note == "first"
    for name in ("note", "consistent", "other"):
        with pytest.raises(AttributeError):
            setattr(noted, name, None)
    for name in ("note", "formula_sum"):
        with pytest.raises(AttributeError):
            delattr(noted, name)
    assert noted == NotedReport(*fields, "first")
    # the parent record is untouched by its subclass
    assert SumReport._fields == (
        "formula_sum", "enumerated_sum", "formula_multitude", "enumerated_multitude",
        "triples", "consistent",
    )
    assert SumReport(*fields) == SumReport(*fields)


@pytest.mark.parametrize("slots", [("__x",), "__x", ("note", "__x_")])
def test_a_record_subclass_refuses_a_private_slot_name(slots):
    # CPython stores a slot named __x as _Name__x, so no field could be read
    # back under the name it was declared with
    with pytest.raises(TypeError, match="PrivateReport.*'__x_?'"):
        type("PrivateReport", (SumReport,), {"__slots__": slots})
    assert SumReport._fields[-1] == "consistent"  # the parent is untouched


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

    monkeypatch.setattr(sums, "_simplex_cells", whole_simplex)
    for query in (sum_fixed_sv, sum_fixed_sd, sum_fixed_sn):
        assert query(12, 3).consistent
        assert query(12, 3, include_triples=True).consistent


@pytest.mark.parametrize(
    "query,axis",
    [(sum_fixed_sv, 0), (sum_fixed_sd, 1), (sum_fixed_sn, 2)],
    ids=["v", "d", "n"],
)
def test_slices_match_scalar_hypersolid_cell_by_cell(query, axis):
    # the slice maps must never be their own witness: every cell of every
    # slice is evaluated again by the scalar closed form, on both sides of
    # the Pascal table's bound
    for s in [*range(41), *range(sums.PASCAL_M, sums.PASCAL_M + 4)]:
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


def test_the_pascal_table_holds_every_binomial_below_its_bound():
    # rows c = 0..PASCAL_M + 1 of the d = 0 triangle, row[v] = C(c - 2, v - 1)
    # zero-extended, beside them the rows padded and transposed, the four
    # tallies' parts of each row, indexed by c, and each column's running
    # sums once and twice
    rows, columns, parts, once, twice = sums._pascal()
    top = sums.PASCAL_M + 1
    assert rows == tuple(_triangle_rows(0, top))
    for c, row in enumerate(rows):
        assert row == tuple(comb0(c - 2, v - 1) for v in range(c + 1)), c
    width = sums.PASCAL_M + 3
    assert columns == tuple(zip(*(row + (0,) * (width - len(row)) for row in rows)))
    assert len(columns) == width and {len(column) for column in columns} == {top + 1}
    assert set(columns[0]) == {0}
    for k in range(width - 1):
        for m in range(-2, sums.PASCAL_M):
            assert columns[k + 1][m + 2] == comb0(m, k), (m, k)
    assert max(map(max, rows)) == math.comb(sums.PASCAL_M - 1, (sums.PASCAL_M - 1) // 2)
    assert len(parts) == 4 and {len(part) for part in parts} == {top + 1}
    for c, row in enumerate(rows):
        assert tuple(part[c] for part in parts) == sums._row_parts(row), c
    assert len(once) == len(twice) == width
    for j, column in enumerate(columns):
        assert once[j] == tuple(sum(column[:i]) for i in range(top + 2)), j
        assert twice[j] == tuple(sum(once[j][:i]) for i in range(top + 3)), j


def test_bare_pinned_dimensions_and_ranks_below_the_table_bound_read_its_running_sums(
        monkeypatch):
    # a bare pinned dimension v >= 1 or rank n >= 2 up to s = 129 tallies its
    # cells from the table's running sums: no slice of values, no column map
    # and no comb call.  At s = 130 each makes exactly one _slice_values call
    sums._pascal()
    calls = []

    def counting(name):
        real = getattr(sums, name)

        def call(*args):
            calls.append((name, *args))
            return real(*args)
        return call

    for name in ("_slice_values", "_weighted_columns", "comb"):
        monkeypatch.setattr(sums, name, counting(name))
    top = sums.PASCAL_M + 1
    for s in range(top + 1):
        for k in range(1, s + 1):
            assert sum_fixed_sv(s, k).consistent, (s, k)
        for k in range(2, s + 1):
            assert sum_fixed_sn(s, k).consistent is (k < s), (s, k)
    assert calls == []
    s = top + 1
    for name, query, first in (("v", sum_fixed_sv, 1), ("n", sum_fixed_sn, 2)):
        for k in range(first, s + 1):
            calls.clear()
            assert query(s, k).consistent is (name == "v" or k < s), (name, k)
            assert [call for call in calls if call[0] == "_slice_values"] == [
                ("_slice_values", s, name, k)], (name, k)


def test_bare_pinned_dimensions_and_ranks_tally_their_slice_values():
    # every bare dimension and rank slice, on both sides of the table's
    # bound, against the sum and nonzero count of its own values
    for s in range(sums.PASCAL_M + 4):
        for k in range(s + 1):
            for name, query in (("v", sum_fixed_sv), ("n", sum_fixed_sn)):
                report = query(s, k)
                assert (report.enumerated_sum, report.enumerated_multitude) == sums._tally(
                    sums._slice_values(s, name, k)), (name, s, k)


@pytest.mark.parametrize("c0,v0", [(60, 20), (2, 1), (129, 1), (129, 64), (129, 129), (40, 40)])
def test_a_changed_table_cell_fails_exactly_the_slices_that_read_it(monkeypatch, c0, v0):
    # one cell of row c0 is one more than C(c0 - 2, v0 - 1), and no later row
    # carries the change.  A bare dimension or rank slice up to s = 129 is a
    # sum of C(m, v - 1) + d * C(m, v), m = v + n - 2 and d = s - 2 - m, so
    # exactly the slices that hold the changed binomial with a weight > 0
    # come out inconsistent: totals read off a neighbouring column would not
    real = sums._triangle_rows

    def changed(d, c_max, width=None):
        for c, row in enumerate(real(d, c_max, width)):
            yield row if c != c0 else (*row[:v0], row[v0] + 1, *row[v0 + 1:])

    monkeypatch.setattr(sums, "_pascal_table", None)
    monkeypatch.setattr(sums, "_triangle_rows", changed)
    assert sums._pascal()[0][c0][v0] == comb0(c0 - 2, v0 - 1) + 1
    m0, k0 = c0 - 2, v0 - 1
    failing, want = set(), set()
    for s in range(sums.PASCAL_M + 2):
        for v in range(1, s + 1):  # cells m = max(v - 2, 0)..s - 2
            if not sum_fixed_sv(s, v).consistent:
                failing.add(("v", s, v))
            if max(v - 2, 0) <= m0 <= s - 2 and (k0 == v - 1 or (k0 == v and m0 < s - 2)):
                want.add(("v", s, v))
        for n in range(2, s):  # cells m = n - 1..s - 2, C(m, n - 1) + d * C(m, n - 2)
            if not sum_fixed_sn(s, n).consistent:
                failing.add(("n", s, n))
            if n - 1 <= m0 <= s - 2 and (k0 == n - 1 or (k0 == n - 2 and m0 < s - 2)):
                want.add(("n", s, n))
    assert want and failing == want


def test_slices_below_the_table_bound_call_no_comb(monkeypatch):
    # the small slices read the table, which the adjacent-pair rule builds;
    # only the closed forms still call math.comb, and not through this name.
    # Their listings read the same table
    def no_comb(m, k):
        raise AssertionError(f"a slice below the table bound called comb({m}, {k})")

    monkeypatch.setattr(sums, "comb", no_comb)
    monkeypatch.setattr(sums, "_pascal_table", None)  # built under the patch too
    for s in range(sums.PASCAL_M + 2):
        for k in range(s + 1):
            for query in (sum_fixed_sv, sum_fixed_sd, sum_fixed_sn):
                report = query(s, k)
                assert report.consistent is report.formula_applies, (query.__name__, s, k)
    for s in (0, 1, 2, 40, sums.PASCAL_M + 1):
        for k in range(s + 1):
            for query in (sum_fixed_sv, sum_fixed_sd, sum_fixed_sn):
                report = query(s, k, include_triples=True)
                assert report.consistent is report.formula_applies, (query.__name__, s, k)


def test_a_pinned_difference_reads_its_row_from_the_table_at_any_total(monkeypatch):
    # row c = s - d is in the table whenever c - 2 < PASCAL_M, whatever the
    # total; only rows c >= 130 call math.comb, and c = 130 is the first
    def no_comb(m, k):
        raise AssertionError(f"a pinned difference called comb({m}, {k})")

    sums._pascal()
    monkeypatch.setattr(sums, "comb", no_comb)
    first = sums.PASCAL_M + 2
    for s in (130, 200, 300):
        for d in range(s - first + 1, s + 1):
            for listed in (False, True):
                report = sum_fixed_sd(s, d, include_triples=listed)
                assert report.consistent is (d <= s - 2), (s, d)
                assert report.enumerated_sum == ((d + 1) * 2 ** (s - d - 2) if d <= s - 2 else 0)
        with pytest.raises(AssertionError, match="called comb"):
            sum_fixed_sd(s, s - first)


def test_slices_above_the_table_bound_pay_their_comb_calls_by_a_fixed_rule(monkeypatch):
    # At total s every pinned dimension and pinned rank pays 2 calls per cell
    # with m >= 0 once s >= 130, and a pinned difference c - 1 calls for its
    # row c = s - d once c >= 130:
    #   dimension v >= 1: m = max(v - 2, 0)..s - 2, so v = 1 has s - 1 cells
    #     and v = 2..s have s + 1 - v, in all (s - 1) + s(s - 1)/2 cells;
    #   rank n >= 2: m = n - 1..s - 2, s - n cells, in all (s - 2)(s - 1)/2;
    #   difference: the sum of c - 1 over c = 130..s.
    # s = 130: 2 * (129 + 8385) = 17028, 2 * 8256 = 16512, 129.
    # s = 160: 2 * (159 + 12720) = 25758, 2 * 12561 = 25122, 129 + ... + 159 = 4464.
    sums._pascal()
    real = sums.comb
    calls = {}

    def counting(m, k):
        calls[axis] += 1
        return real(m, k)

    monkeypatch.setattr(sums, "comb", counting)
    want = {129: (0, 0, 0), 130: (17028, 129, 16512), 160: (25758, 4464, 25122)}
    for s, counts in want.items():
        for axis, query in enumerate((sum_fixed_sv, sum_fixed_sd, sum_fixed_sn)):
            calls[axis] = 0
            for k in range(s + 1):
                query(s, k)
        assert (calls[0], calls[1], calls[2]) == counts, s


def test_fixed_difference_totals_lift_no_cell(monkeypatch):
    # a bare fixed-difference slice tallies its Pascal row; only the listing
    # lifts the row cell by cell, so it is built before the lift is broken
    want, listed = {}, {}
    for s in range(15):
        for d in range(s + 1):
            cells = [hypersolid(v, d, s - d - v) for v in range(s - d + 1)]
            want[s, d] = (sum(cells), len(cells) - cells.count(0))
            listed[s, d] = sum_fixed_sd(s, d, include_triples=True)

    def lift(row, d):
        raise AssertionError(f"a bare slice lifted the row {row} to d={d}")

    monkeypatch.setattr(sums, "_with_difference", lift)
    for (s, d), totals in want.items():
        bare = sum_fixed_sd(s, d)
        assert (bare.enumerated_sum, bare.enumerated_multitude) == totals, (s, d)
        report = listed[s, d]
        assert (report.enumerated_sum, report.enumerated_multitude) == totals, (s, d)
        assert bare.consistent is report.consistent is (d <= s - 2), (s, d)


def test_slices_without_listing_build_no_triples(monkeypatch):
    def no_triple(*coordinates):
        raise AssertionError(f"slice query built a triple {coordinates}")

    monkeypatch.setattr(sums, "IndexTriple", no_triple)
    for query in (sum_fixed_sv, sum_fixed_sd, sum_fixed_sn):
        for k in range(13):
            assert query(12, k).enumerated_sum >= 0


def test_simplex_cells_match_the_closed_form_cell_by_cell():
    for s in range(41):
        cells = list(sums._simplex_cells(s))
        assert len(cells) == (s + 1) * (s + 2) // 2, s
        for v, d, n, value in cells:
            assert value == hypersolid(v, d, n), (s, v, d)
        assert [cell[:3] for cell in cells] == [
            (v, d, s - v - d) for v in range(s + 1) for d in range(s - v + 1)], s


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


def test_simplex_totals_below_the_table_bound_build_no_triangle_rows(monkeypatch):
    # a bare total up to s = 129 reads Pascal's rows from the table the slices
    # read, and only a larger bare total still builds them row by row; a
    # listing of the whole simplex walks two Pascal columns and builds none
    sums._pascal()
    top = sums.PASCAL_M + 1

    def no_rows(d, c_max, width=None):
        raise AssertionError(f"sum_fixed_s built triangle rows 0..{c_max}")

    monkeypatch.setattr(sums, "_triangle_rows", no_rows)
    bare = {s: sum_fixed_s(s) for s in range(top + 1)}
    assert all(bare[s].consistent is (s >= 2) for s in bare)
    listed = {s: sum_fixed_s(s, include_triples=True) for s in (top - 1, top)}
    assert len(enumerate_triples(top)) == (top + 1) * (top + 2) // 2
    monkeypatch.undo()
    bare.update((s, sum_fixed_s(s)) for s in range(top + 1, top + 3))
    listed.update((s, sum_fixed_s(s, include_triples=True)) for s in range(top + 1, top + 3))
    for s, report in listed.items():
        values = [value for _, value in report.triples]
        assert (bare[s].enumerated_sum, bare[s].enumerated_multitude) == (
            sum(values), len(values)), s
        assert (bare[s].formula_sum, bare[s].formula_multitude) == (
            2**s - (s + 1), math.comb(s + 1, 2) - 2), s
        assert bare[s].consistent and report.consistent, s


def test_simplex_total_without_listing_never_builds_the_cells(monkeypatch):
    def whole_simplex(s):
        raise AssertionError(f"sum_fixed_s built the listed simplex for s={s}")

    monkeypatch.setattr(sums, "_simplex_cells", whole_simplex)
    assert sum_fixed_s(12).consistent
    assert sum_fixed_s(1).enumerated_sum == 0


def comb0(m: int, k: int) -> int:
    """C(m, k), zero-extended to negative arguments."""
    return math.comb(m, k) if m >= 0 and k >= 0 else 0


def pascal_rows(top: int) -> list[list[int]]:
    """Rows 0..top of Pascal's triangle, each the sums of neighbours in the
    row before; it shares no code with ``sums`` or ``kernel``."""
    rows = [[1]]
    for _ in range(top):
        rows.append([1, *map(add, rows[-1], rows[-1][1:]), 1])
    return rows


def simplex_cells(s: int, pascal: list[list[int]]) -> list[int]:
    """Every cell S(v, d, n) = C(m, v - 1) + d * C(m, v), m = v + n - 2, of
    total s: along a difference d the cells v = 0..c, c = s - d, read Pascal
    row c - 2, zero-extended on both sides, or are 0 where c < 2."""
    values = []
    for d in range(s + 1):
        c = s - d
        if c < 2:
            values += [0] * (c + 1)
        else:
            row = pascal[c - 2]
            values += map(add, [0, *row, 0], map(mul, [*row, 0, 0], repeat(d)))
    return values


def test_simplex_total_by_row_totals_equals_the_listing_and_every_cell():
    # the bare report adds one lifted total per Pascal row; the listing lifts
    # every cell, and the oracle evaluates every cell from test-local Pascal rows
    pascal = pascal_rows(198)
    for s in range(31):  # where two binomials per cell are cheap, they judge the oracle
        assert simplex_cells(s, pascal) == [comb0(s - d - 2, v - 1) + d * comb0(s - d - 2, v)
                                            for d in range(s + 1) for v in range(s - d + 1)], s
    for s in range(201):
        values = simplex_cells(s, pascal)
        want = (sum(values), len(values) - values.count(0))
        bare = sum_fixed_s(s)
        listed = sum_fixed_s(s, include_triples=True)
        assert (bare.enumerated_sum, bare.enumerated_multitude) == want, s
        assert (listed.enumerated_sum, listed.enumerated_multitude) == want, s


def test_the_simplex_walk_equals_the_pascal_rows_oracle_cell_by_cell(monkeypatch):
    # the walk that lists the whole simplex holds two Pascal columns and reads
    # neither the table nor math.comb; every cell it makes, on both sides of
    # the table's bound, against the oracle's rows, reordered by v then d
    def refuse(*args):
        raise AssertionError(f"the simplex walk read a binomial or the table: {args}")

    monkeypatch.setattr(sums, "comb", refuse)
    monkeypatch.setattr(sums, "_pascal", refuse)
    pascal = pascal_rows(198)
    for s in (*range(12), 127, 128, 129, 130, 131, 200):
        values = iter(simplex_cells(s, pascal))
        by_d = [[next(values) for _ in range(s - d + 1)] for d in range(s + 1)]
        want = [(v, d, s - v - d, by_d[d][v]) for v in range(s + 1) for d in range(s - v + 1)]
        assert list(sums._simplex_cells(s)) == want, s
        assert list(sums._listing(s)) == [cell for cell in want if cell[3]], s


@pytest.mark.parametrize(
    "s,total,multitude", [(0, 0, 0), (1, 0, 0), (2, 1, 1), (3, 4, 4)]
)
def test_simplex_total_corners(s, total, multitude):
    # rows 0-2 of the triangle are the seeds _triangle_rows writes as literals,
    # and the pair rule builds no row below 3
    rep = sum_fixed_s(s)
    assert (rep.enumerated_sum, rep.enumerated_multitude) == (total, multitude)
    assert rep.formula_sum == (total if s >= 2 else None)
    assert rep.formula_multitude == (multitude if s >= 2 else None)
    assert rep.consistent is (s >= 2)
    assert rep.triples is None


def test_row_parts_tally_the_lifted_row_for_any_row():
    # rows unlike Pascal's: nonzero ends, runs of zeros, one cell
    rows = [(0,), (5,), (0, 0), (3, 0), (0, 3), (4, 0, 0, 7), (0, 2, 0, 0, 1, 0), (1, 1, 1)]
    rows += [
        tuple((0, 0, 1, 9, 10**30)[(7 * i + 3 * j * j) % 5] for j in range(i % 11 + 1))
        for i in range(200)
    ]
    # a slice passes a list, the simplex a tuple
    for row in rows + [list(row) for row in rows]:
        for d in (0, 1, 2, 7, 10**20):
            lifted = [row[v] + d * row[v + 1] for v in range(len(row) - 1)] + [0]
            want = (sum(lifted), len(lifted) - lifted.count(0))
            a, b, z0, zp = sums._row_parts(row)
            assert (a + d * b, z0 if d == 0 else zp) == want, (row, d)


def test_totals_below_the_table_bound_tally_no_row(monkeypatch):
    # a bare total up to s = 129, and a pinned difference whose row c = s - d
    # has c <= 129 at any total, read the table's parts and tally no row per
    # call; a larger total tallies each of its rows once, and a pinned
    # difference with c >= 130 its one row
    sums._pascal()
    real = sums._row_parts
    calls = []

    def counting(row):
        calls.append(len(row) - 1)
        return real(row)

    monkeypatch.setattr(sums, "_row_parts", counting)
    top = sums.PASCAL_M + 1
    for s in range(top + 1):
        assert sum_fixed_s(s).consistent is (s >= 2), s
    for s in (0, 1, 2, 40, top - 1, top, top + 1, 200, 300):
        for d in range(max(s - top, 0), s + 1):
            assert sum_fixed_sd(s, d).consistent is (d <= s - 2), (s, d)
    assert calls == []
    assert sum_fixed_s(top + 1).consistent
    assert calls == list(range(top + 2))
    calls.clear()
    for s in (top + 1, 200):
        assert sum_fixed_sd(s, s - top - 1).consistent
    assert calls == [top + 1, top + 1]


def test_a_pinned_difference_totals_its_lifted_oracle_row_at_every_d():
    # every d, on both sides of the table's bound, against the test-local
    # Pascal rows lifted cell by cell: row c = s - d is 0, C(c - 2, ...), 0
    pascal = pascal_rows(198)
    for s in (129, 130, 131, 200):
        for d in range(s + 1):
            c = s - d
            row = [0, *pascal[c - 2], 0] if c >= 2 else [0] * (c + 1)
            lifted = [row[v] + d * row[v + 1] for v in range(c)] + [0]
            report = sum_fixed_sd(s, d)
            assert (report.enumerated_sum, report.enumerated_multitude) == (
                sum(lifted), len(lifted) - lifted.count(0)), (s, d)
            assert report.consistent is (d <= s - 2), (s, d)


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


class Index:
    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


#: Each lemma's two sides as they were written before the literal sums
#: became running sums: every case adds up its own terms.
OLD_LEMMA_SIDES = {
    "sum_r": (lambda n: sum(range(1, n + 1)), lambda n: n * (n + 1) // 2),
    "sum_r2": (lambda n: sum(r * r for r in range(1, n + 1)),
               lambda n: n * (n + 1) * (2 * n + 1) // 6),
    "sum_r3": (lambda n: sum(r**3 for r in range(1, n + 1)),
               lambda n: (n * (n + 1) // 2) ** 2),
    "hockey_stick": (lambda M, m: sum(map(math.comb, range(m, M + 1), repeat(m))),
                     lambda M, m: binomial(M + 1, m + 1)),
    "diagonal_stick": (lambda M, m: sum(map(math.comb, range(M, M + m + 1), range(m + 1))),
                       lambda M, m: binomial(M + m + 1, m)),
    "row_power": (lambda M: sum(map(math.comb, repeat(M), range(M + 1))), lambda M: 2**M),
    "weighted_stick": (lambda M, m: sum(j * math.comb(M - j, m) for j in range(1, M - m + 1)),
                       lambda M, m: binomial(M + 1, m + 2)),
    "permutation_ladder": (
        lambda M, m: permutation(M + 1, m),
        lambda M, m: math.factorial(m) + m * sum(permutation(j, m - 1) for j in range(m, M + 1)),
    ),
    "geometric": (lambda R: sum(2**r for r in range(R + 1)), lambda R: 2 ** (R + 1) - 1),
    "weighted_geometric": (lambda R: sum(r * 2**r for r in range(R + 1)),
                           lambda R: 2 + (R - 1) * 2 ** (R + 1)),
}


@pytest.mark.parametrize("tag", sorted(OLD_LEMMA_SIDES))
def test_lemma_sides_equal_the_literal_sums_term_by_term(tag):
    lemma = LEMMAS[tag]
    old_lhs, old_rhs = OLD_LEMMA_SIDES[tag]
    cases = [args for args in product(range(41), repeat=len(lemma.params)) if lemma.domain(*args)]
    assert cases
    for args in cases:
        assert sums._sides(lemma, args) == (old_lhs(*args), old_rhs(*args)), args


@pytest.mark.parametrize("tag", [tag for tag, lemma in LEMMAS.items() if lemma.along])
def test_a_running_sum_starts_at_the_first_value_in_the_domain(tag):
    lemma = LEMMAS[tag]
    i = lemma.params.index(lemma.along)
    for others in product(range(8), repeat=len(lemma.params) - 1):
        inside = [k for k in range(20) if lemma.domain(*others[:i], k, *others[i:])]
        first, _ = lemma.running(*others)
        assert first == inside[0] and inside == list(range(first, 20)), others


@pytest.mark.parametrize("bad", [2.5, 3.0, "3", True, False, None])
def test_lemma_parameters_must_be_exact_integers(bad):
    with pytest.raises(RangeError) as err:
        lemma_check("sum_r", {"n": bad})
    assert str(err.value) == f"n must be an integer, got {bad!r}"
    with pytest.raises(RangeError) as err:
        lemma_check("hockey_stick", {"M": 4, "m": bad})
    assert str(err.value) == f"m must be an integer, got {bad!r}"


@pytest.mark.parametrize("bad", [2**32, 2**40, -1])
def test_lemma_parameters_must_lie_in_the_coordinate_domain(bad):
    # checked before any term is added: at 2**40 the literal sum alone
    # would be about 10**12 additions
    with pytest.raises(RangeError) as err:
        lemma_check("sum_r", {"n": bad})
    assert str(err.value) == f"n must be in [0, 2**32), got {bad}"
    with pytest.raises(RangeError) as err:
        lemma_check("hockey_stick", {"M": bad, "m": 2})
    assert str(err.value) == f"M must be in [0, 2**32), got {bad}"
    with pytest.raises(RangeError) as err:
        lemma_check("permutation_ladder", {"M": 4, "m": bad})
    assert str(err.value) == f"m must be in [0, 2**32), got {bad}"


def test_lemma_parameters_take_integer_like_objects():
    assert lemma_check("sum_r", {"n": Index(5)})
    assert lemma_check("hockey_stick", {"M": Index(6), "m": Index(2)})
    with pytest.raises(RangeError):
        lemma_check("sum_r", {"n": Index(-1)})
