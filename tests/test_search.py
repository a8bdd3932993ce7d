"""Inverse-lookup tests.

``naive_hits`` below is a deliberately dumb scan over the box using the
plain product formulas (no shared code with the package's closed form);
``representations`` must agree with it exactly.
"""

from __future__ import annotations

import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersolids import (
    IndexTriple,
    RangeError,
    hypersolid,
    rank_of,
    representations,
    sequence_slice,
)


def naive_value(v: int, d: int, n: int) -> int:
    """Independent evaluation: binomials from factorials, no zero-extension."""
    if n == 0:
        return 0
    if v == 0:
        return 0 if n == 1 else d
    a = v + n - 2
    first = math.factorial(a) // (math.factorial(v - 1) * math.factorial(a - v + 1))
    second = 0 if a < v else math.factorial(a) // (math.factorial(v) * math.factorial(a - v))
    return first + d * second


def naive_hits(target, v_lo, v_hi, d_lo, d_hi, n_min, n_max):
    out = []
    for v in range(v_lo, v_hi + 1):
        for d in range(d_lo, d_hi + 1):
            for n in range(n_min, n_max + 1):
                if naive_value(v, d, n) == target:
                    out.append((v, d, n))
    return out


# ------------------------------------------------------------- rank_of


def test_rank_of_examples():
    assert rank_of(36, 2, 1) == 8     # 36 is the 8th triangular number
    assert rank_of(37, 2, 1) is None
    assert rank_of(1, 2, 1) == 1
    assert rank_of(35, 3, 1) == 5  # tetrahedral 35
    assert rank_of(715, 4, 1) == 10
    assert rank_of(9, 1, 2) == 5      # 1 + 2 * 4


def test_rank_of_agrees_with_linear_scan():
    for v in range(2, 7):
        for d in range(11):
            table = {}
            n = 1
            while True:
                value = hypersolid(v, d, n)
                if value > 5000:
                    break
                table[value] = n
                n += 1
            for value in range(1, 5001):
                assert rank_of(value, v, d) == table.get(value)


class Index:
    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


@pytest.mark.parametrize("bad", [36.0, True, "36"], ids=["float", "bool", "str"])
def test_targets_and_values_must_be_exact_integers(bad):
    with pytest.raises(RangeError, match="must be an integer"):
        representations(bad, v_range=(2, 3))
    with pytest.raises(RangeError, match="must be an integer"):
        rank_of(bad, 2, 1)


def test_integer_like_targets_and_values_are_converted():
    hits = representations(Index(36), v_range=(2, 3))
    assert hits == representations(36, v_range=(2, 3))
    assert all(type(hit.value) is int for hit in hits)
    assert rank_of(Index(36), 2, 1) == 8


def test_rank_of_preconditions():
    with pytest.raises(RangeError):
        rank_of(10, 1, 0)   # constant-1 sequence is not invertible
    with pytest.raises(RangeError):
        rank_of(10, 0, 3)
    with pytest.raises(RangeError):
        rank_of(0, 2, 1)


@settings(max_examples=60)
@given(
    v=st.integers(min_value=2, max_value=10),
    d=st.integers(min_value=0, max_value=50),
    n=st.integers(min_value=1, max_value=200),
)
def test_rank_of_round_trip(v, d, n):
    assert rank_of(hypersolid(v, d, n), v, d) == n


# ------------------------------------------------------ representations


HITS_120_BOX = [
    (2, 1, 15),
    (2, 4, 8),
    (2, 39, 3),
    (3, 0, 15),
    (3, 1, 8),
    (3, 11, 4),
    (4, 0, 8),
    (4, 22, 3),
]


def test_box_for_target_120():
    hits = representations(120, v_range=(2, 4), d_range=(0, 45), n_min=3, n_max=20)
    assert [tuple(h.triple) for h in hits] == HITS_120_BOX
    assert all(h.value == 120 for h in hits)
    assert all(hypersolid(*h.triple) == 120 for h in hits)
    assert naive_hits(120, 2, 4, 0, 45, 3, 20) == HITS_120_BOX


def test_default_box_for_120_adds_three_hits():
    # the wider default box reaches higher dimensions — S(7,1,4) and
    # S(8,0,4) — and the v = 2, d = 0 column (the natural numbers
    # themselves), which hits every target at rank = target
    hits = representations(120, v_range=(2, 8), n_min=3)
    extra = [(2, 0, 120), (7, 1, 4), (8, 0, 4)]
    assert [tuple(h.triple) for h in hits] == sorted(HITS_120_BOX + extra)


def test_representations_match_naive_scan():
    # small targets, full cross-check against the dumb factorial-based scan
    for target in (1, 2, 6, 10, 36, 81, 120, 210, 225):
        got = [tuple(h.triple) for h in representations(target, v_range=(2, 8), n_min=3)]
        # the default box caps n implicitly; the naive scan needs an explicit,
        # generous cap: past n = target + 2 the d = 0 value exceeds the target
        want = naive_hits(target, 2, 8, 0, target, 3, target + 2)
        assert got == sorted(want)


def test_representations_respect_explicit_bounds():
    full = {tuple(h.triple) for h in representations(120, v_range=(2, 8), n_min=3)}
    narrowed = {
        tuple(h.triple)
        for h in representations(120, v_range=(3, 4), d_range=(0, 11), n_min=3)
    }
    assert narrowed == {t for t in full if 3 <= t[0] <= 4 and t[1] <= 11}
    raised_floor = representations(120, v_range=(2, 8), n_min=9)
    assert [tuple(h.triple) for h in raised_floor] == [(2, 0, 120), (2, 1, 15), (3, 0, 15)]


def test_low_dimensions_need_a_rank_cap():
    with pytest.raises(RangeError):
        representations(9, v_range=(1, 3), n_min=3)
    hits = representations(9, v_range=(1, 1), n_min=3, n_max=10)
    assert [tuple(h.triple) for h in hits] == [(1, 1, 9), (1, 2, 5), (1, 4, 3)]


def test_constant_rank_cells_expand_over_the_difference_range():
    # at n = 1 every dimension >= 1 gives value 1 regardless of d, so the
    # whole difference range comes back; n = 2 gives 2 + d, never 1
    hits = representations(1, v_range=(2, 2), d_range=(0, 3), n_min=1, n_max=2)
    assert [tuple(h.triple) for h in hits] == [
        (2, 0, 1),
        (2, 1, 1),
        (2, 2, 1),
        (2, 3, 1),
    ]


def test_representation_preconditions():
    with pytest.raises(RangeError):
        representations(0)
    with pytest.raises(RangeError):
        representations(10, v_range=(5, 2))
    with pytest.raises(RangeError):
        representations(10, d_range=(3, 1))
    with pytest.raises(RangeError):
        representations(10, d_range=(0, 2**32))
    with pytest.raises(RangeError):
        representations(10, d_range=(-1, 3))
    with pytest.raises(RangeError):
        representations(10, n_max=2**32)


@settings(max_examples=80, deadline=None)
@given(
    target=st.integers(min_value=1, max_value=250),
    v_lo=st.integers(min_value=0, max_value=5),
    v_span=st.integers(min_value=0, max_value=2),
    d_lo=st.integers(min_value=0, max_value=3),
    d_span=st.integers(min_value=0, max_value=30),
    n_min=st.integers(min_value=0, max_value=4),
    n_max=st.none() | st.integers(min_value=0, max_value=40),
)
def test_representations_match_naive_scan_on_random_boxes(
    target, v_lo, v_span, d_lo, d_span, n_min, n_max
):
    v_hi, d_hi = v_lo + v_span, d_lo + d_span
    if v_lo < 2 and n_max is None:
        n_max = 40  # dimensions below 2 need an explicit rank cap
    hits = representations(target, (v_lo, v_hi), (d_lo, d_hi), n_min, n_max)
    # with no cap the box reaches every rank, but past n = target + 2 even
    # the d = 0 value of a dimension >= 2 exceeds the target
    n_cap = target + 2 if n_max is None else n_max
    want = naive_hits(target, v_lo, v_hi, d_lo, d_hi, n_min, n_cap)
    assert [tuple(h.triple) for h in hits] == sorted(want)


def test_large_target_stays_in_the_coordinate_domain():
    # the v = 2, d = 0 hit would sit at rank 10**10, outside the domain;
    # the walk covers about sqrt(2 * 10**10) ranks, not 10**10
    target = 10**10
    start = time.perf_counter()
    hits = representations(target)
    assert time.perf_counter() - start < 1.0
    assert hits
    for hit in hits:
        assert hit.value == target
        assert hypersolid(*hit.triple) == target
    # S(2, 2**32, 3) = 3 + 3 * 2**32 lies just past the default difference cap
    target = 3 + 3 * 2**32
    assert all(hypersolid(*h.triple) == target for h in representations(target))


def test_d0_hits_far_past_the_walk_are_found():
    # S(3, 0, n) = C(n + 1, 2): the rank walk stops near n = 2 * 10**4 at
    # v = 3, so the hit at rank 5 * 10**4 must come from the binary search,
    # as must the natural-number hit S(2, 0, target) = target
    target = hypersolid(3, 0, 50_000)
    found = {tuple(h.triple) for h in representations(target, v_range=(2, 3))}
    assert {(2, 0, target), (3, 0, 50_000)} <= found
    capped = {tuple(h.triple) for h in representations(target, v_range=(3, 3), n_max=49_999)}
    assert (3, 0, 50_000) not in capped


@settings(max_examples=40, deadline=None)
@given(
    v=st.integers(min_value=2, max_value=6),
    d=st.integers(min_value=0, max_value=30),
    n=st.integers(min_value=3, max_value=40),
)
def test_every_value_is_found_in_its_own_box(v, d, n):
    # cap the rank so the v = 2 column (linear in n) stays cheap to walk
    target = hypersolid(v, d, n)
    hits = representations(target, v_range=(2, 8), n_min=3, n_max=n + 5)
    assert (IndexTriple(v, d, n), target) in hits


# ------------------------------------------------------- sequence_slice


def test_sequence_slice():
    assert sequence_slice(2, 1, 1, 10) == [1, 3, 6, 10, 15, 21, 28, 36, 45, 55]
    assert sequence_slice(2, 3, 1, 5) == [1, 5, 12, 22, 35]
    assert sequence_slice(4, 10, 1, 3) == [1, 14, 60]
    assert sequence_slice(3, 3, 0, 5) == [0, 1, 6, 18, 40, 75]
    assert sequence_slice(4, 2, 7, 7) == [hypersolid(4, 2, 7)]
    with pytest.raises(RangeError):
        sequence_slice(2, 1, 5, 4)
