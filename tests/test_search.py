"""Inverse-lookup tests.

``naive_hits`` below is a deliberately dumb scan over the box: each (v, d)
column of ranks is the progression 1, 1 + d, 1 + 2d, ... summed v - 1 times
by ``naive_column`` (no shared code with the package's closed form, its
search or its summation route), and ``naive_value``, plain factorials,
judges that column builder.  ``representations`` must agree with the scan
exactly.  ``walk_representations`` is the rank walk the search ran before
it listed divisors: it reaches targets too large for the naive scan, at
about sqrt(2 * target) ranks.  ``rank_walk`` is the walk the dimensions
v <= 1 ran before they were solved in closed form: one exact division per
rank up to ``n_max``.
"""

from __future__ import annotations

import math
import random
import re
import time
from itertools import accumulate, repeat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersolids import (
    COORD_LIMIT,
    IndexTriple,
    RangeError,
    binomial,
    hypersolid,
    rank_of,
    representations,
    sequence_slice,
)
from hypersolids import _primes, kernel, search
from hypersolids.kernel import _PRIME_ROUTE_SIDE


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


def naive_column(v: int, d: int, n_max: int) -> list[int]:
    """S(v, d, n) for n = 0..n_max, by prefix sums.

    Rank n >= 1 of dimension 1 is 1 + d(n - 1), and each higher dimension is
    the running sum of the one below; dimension 0 holds d from rank 2 on.
    """
    if v == 0:
        return [0, 0, *repeat(d, n_max - 1)][: n_max + 1]
    column = [0, *(1 + d * k for k in range(n_max))]
    for _ in range(v - 1):
        column = list(accumulate(column))
    return column


def naive_hits(target, v_lo, v_hi, d_lo, d_hi, n_min, n_max):
    out = []
    for v in range(v_lo, v_hi + 1):
        for d in range(d_lo, d_hi + 1):
            column = naive_column(v, d, n_max)
            for n in range(n_min, n_max + 1):
                if column[n] == target:
                    out.append((v, d, n))
    return out


def test_the_column_builder_matches_factorials():
    for v in range(12):
        for d in range(10):
            assert naive_column(v, d, 30) == [naive_value(v, d, n) for n in range(31)], (v, d)
    assert naive_column(0, 3, 0) == [0] and naive_column(0, 3, 1) == [0, 0]
    assert naive_column(4, 2, 0) == [0]


def box_representations(target, **box):
    """``representations(target, **box)``, or [] for a box with no rank.

    A box whose ``n_min`` exceeds its ``n_max`` holds no cell, so it must be
    refused like an empty dimension or difference range; the naive scans
    return [] for it.
    """
    n_min, n_max = box.get("n_min", 3), box.get("n_max")
    if n_max is not None and n_min > n_max:
        with pytest.raises(RangeError, match=re.escape(f"empty rank range: ({n_min}, {n_max})")):
            representations(target, **box)
        return []
    return representations(target, **box)


def least_rank_reaching(v: int, d: int, value: int) -> int:
    """Least rank n >= 1 with hypersolid(v, d, n) >= value, or COORD_LIMIT if none.

    Doubling, then bisection: the judge's own search, not ``search._least_rank``.
    """
    hi = 1
    while hypersolid(v, d, hi) < value:
        if hi == COORD_LIMIT - 1:
            return COORD_LIMIT
        hi = min(2 * hi, COORD_LIMIT - 1)
    lo = 1
    while lo < hi:
        mid = (lo + hi) // 2
        if hypersolid(v, d, mid) < value:
            lo = mid + 1
        else:
            hi = mid
    return lo


def walk_representations(target, v_range=(2, 8), d_range=None, n_min=3, n_max=None):
    """The (v, d, n) hits of the box, for dimensions v >= 2, by walking the ranks.

    Each dimension walks every rank up to the first where the smallest
    nonzero difference of the box overshoots, and then checks the one later
    rank that can still hold a d = 0 hit.  It has no dimension stop test, so
    keep the dimension range narrow.
    """
    v_lo, v_hi = v_range
    d_lo, d_hi = (0, min(target, COORD_LIMIT - 1)) if d_range is None else d_range
    n_max = COORD_LIMIT - 1 if n_max is None else n_max
    out = []
    for v in range(max(v_lo, 2), v_hi + 1):
        stop = min(max(least_rank_reaching(v, max(d_lo, 1), target + 1), n_min), n_max + 1)
        for n in range(n_min, stop):
            base, slope = binomial(v + n - 2, v - 1), binomial(v + n - 2, v)
            if slope == 0:
                if base == target:
                    out += [(v, d, n) for d in range(d_lo, d_hi + 1)]
            else:
                d, leftover = divmod(target - base, slope)
                if leftover == 0 and d_lo <= d <= d_hi:
                    out.append((v, d, n))
        n = least_rank_reaching(v, 0, target)
        if d_lo == 0 and stop <= n <= n_max and hypersolid(v, 0, n) == target:
            out.append((v, 0, n))
    return sorted(out)


def rank_walk(v, target, d_range, n_min, n_max):
    """The (v, d, n) hits of dimension v <= 1, one rank at a time from n_min to n_max."""
    d_lo, d_hi = d_range
    out = []
    for n in range(n_min, n_max + 1):
        base, slope = binomial(v + n - 2, v - 1), binomial(v + n - 2, v)
        if slope == 0:
            if base == target:
                out += [(v, d, n) for d in range(d_lo, d_hi + 1)]
        else:
            d, leftover = divmod(target - base, slope)
            if leftover == 0 and d_lo <= d <= d_hi:
                out.append((v, d, n))
    return sorted(out)


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


@pytest.mark.parametrize("seed", range(3))
def test_the_rank_search_matches_a_plain_bisection(seed):
    # guesses from floats may be far off for large dimensions, huge values or
    # differences near the top of the domain; the answer must not depend on it
    rng = random.Random(seed)
    for _ in range(300):
        v = rng.choice((1, 2, 3, 5, 8, 40, 700, rng.randint(1, COORD_LIMIT - 1)))
        d = rng.choice((0, 1, 7, rng.randint(0, COORD_LIMIT - 1)))
        if v == 1 and d == 0:
            d = 1  # the constant sequence 1, 1, ...
        if rng.random() < 0.5:
            n = rng.randint(1, 50 if v > 700 else rng.choice((100, 10**6, COORD_LIMIT - 1)))
            value = max(hypersolid(v, d, n) + rng.choice((-1, 0, 1)), 1)
        else:
            value = int(10 ** rng.uniform(0, rng.choice((4, 12, 40))))
        assert search._least_rank(v, d, value) == least_rank_reaching(v, d, value), (v, d, value)


@pytest.mark.parametrize("guess", [
    lambda answer: 1,
    lambda answer: min(64 * answer, COORD_LIMIT - 1),
    lambda answer: COORD_LIMIT - 1,
], ids=["rank-1", "64-times", "last-rank"])
def test_the_rank_search_gallops_from_any_guess(monkeypatch, guess):
    # a guess below the answer gallops up, one above it gallops down; the step
    # doubles either way, so a search costs about 2 log2(2**32) evaluations.
    # The count is checked on every call, so a gallop that stops doubling
    # fails at once instead of walking the domain
    calls = []
    scalar = search._closed

    def counted(v, d, n):
        calls.append(n)
        assert len(calls) <= 4 * 32, "the rank search is not logarithmic"
        return scalar(v, d, n)

    monkeypatch.setattr(search, "_closed", counted)
    for v, d, value in [(1, 1, 10**6), (2, 0, 12345), (2, 3, 10**9), (3, 1, 2), (2, 1, 1),
                        (5, 7, 10**15), (2, 0, 2**33)]:
        want = least_rank_reaching(v, d, value)
        hit = want < COORD_LIMIT and hypersolid(v, d, want) == value
        monkeypatch.setattr(search, "_rank_guess", lambda v, d, value: guess(want))
        calls.clear()
        assert search._least_rank(v, d, value) == want, (v, d, value)
        calls.clear()
        assert rank_of(value, v, d) == (want if hit else None), (v, d, value)


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


@pytest.mark.parametrize("v,d", [(1, 1), (2, 1), (3, 5)])
def test_rank_of_stays_inside_the_coordinate_domain(v, d):
    top = COORD_LIMIT - 1
    last = binomial(v + top - 2, v - 1) + d * binomial(v + top - 2, v)  # S(v, d, 2**32 - 1)
    assert rank_of(last, v, d) == top
    # the next integer would need a rank outside the domain
    assert rank_of(last + 1, v, d) is None
    assert rank_of(2**40 * last, v, d) is None


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


def test_an_empty_rank_range_is_refused_like_the_other_empty_ranges():
    # every cell of a box has n_min <= n <= n_max, so n_min > n_max is no box
    for box in ({"n_min": 5, "n_max": 2}, {"v_range": (0, 1), "n_min": 1, "n_max": 0},
                {"v_range": (3, 3), "d_range": (0, 0), "n_min": 2**32 - 1, "n_max": 0}):
        n_min, n_max = box["n_min"], box["n_max"]
        with pytest.raises(RangeError, match=re.escape(f"empty rank range: ({n_min}, {n_max})")):
            representations(10, **box)
    # one rank is a box
    hits = representations(10, n_min=4, n_max=4)
    assert [tuple(h.triple) for h in hits] == [(2, 1, 4), (3, 0, 4)]
    # the bounds are checked first
    with pytest.raises(RangeError, match="n_max must be in"):
        representations(10, n_min=5, n_max=-1)


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
    hits = box_representations(
        target, v_range=(v_lo, v_hi), d_range=(d_lo, d_hi), n_min=n_min, n_max=n_max
    )
    # with no cap the box reaches every rank, but past n = target + 2 even
    # the d = 0 value of a dimension >= 2 exceeds the target
    n_cap = target + 2 if n_max is None else n_max
    want = naive_hits(target, v_lo, v_hi, d_lo, d_hi, n_min, n_cap)
    assert [tuple(h.triple) for h in hits] == sorted(want)


@settings(max_examples=40, deadline=None)
@given(
    target=st.integers(min_value=1, max_value=60),
    v_lo=st.integers(min_value=0, max_value=4),
    v_hi=st.integers(min_value=4, max_value=60),
    d_lo=st.integers(min_value=0, max_value=3),
    d_span=st.integers(min_value=0, max_value=6),
    n_min=st.integers(min_value=0, max_value=4),
    n_max=st.none() | st.integers(min_value=0, max_value=20),
)
def test_wide_dimension_ranges_match_naive_scan(target, v_lo, v_hi, d_lo, d_span, n_min, n_max):
    # the dimension loop stops at the first v past the target; the judge
    # scans every dimension in the box
    d_hi = d_lo + d_span
    if v_lo < 2 and n_max is None:
        n_max = 20
    hits = box_representations(
        target, v_range=(v_lo, v_hi), d_range=(d_lo, d_hi), n_min=n_min, n_max=n_max
    )
    n_cap = target + 2 if n_max is None else n_max
    want = naive_hits(target, v_lo, v_hi, d_lo, d_hi, n_min, n_cap)
    assert [tuple(h.triple) for h in hits] == sorted(want)


def test_rank_one_hits_reach_the_last_dimension():
    # rank 1 holds 1 in every dimension >= 1, so with rank 1 in the box the
    # target 1 has a hit in each dimension and the loop must not stop early
    got = [tuple(h.triple) for h in representations(1, (0, 40), (0, 0), 0, 1)]
    assert got == naive_hits(1, 0, 40, 0, 0, 0, 1) == [(v, 0, 1) for v in range(1, 41)]


def test_a_target_of_1_at_rank_1_hits_every_dimension_of_a_wide_range():
    # each of the 199999 dimensions holds 1 at rank 1; no dimension is searched
    hits = representations(1, v_range=(2, 200000), d_range=(0, 0), n_min=1, n_max=1)
    assert [tuple(h.triple) for h in hits] == [(v, 0, 1) for v in range(2, 200001)]
    assert all(h.value == 1 for h in hits)


def test_a_target_of_1_past_rank_1_has_no_hits_from_dimension_2_on():
    # from rank 2 on S(v, d, n) >= v + d >= 2 for v >= 2: the whole dimension
    # domain answers at once
    assert representations(1, v_range=(2, 2**32 - 1), n_min=2) == []


def test_a_wide_dimension_range_stops_at_the_last_dimension_that_can_hit(closed_calls):
    # S(v, 0, 3) = v(v + 1)/2 passes 10 at v = 5, so no later dimension is
    # visited; the loop used to walk all 2**32 - 2 of them (hours)
    hits = representations(10, v_range=(2, 2**32 - 1))
    assert [tuple(h.triple) for h in hits] == [
        (2, 0, 10), (2, 1, 4), (3, 0, 4), (3, 1, 3), (4, 0, 3),
    ]
    assert max(v for v, _, _ in closed_calls) == 5
    assert len(closed_calls) < 50


@pytest.mark.parametrize("corner", [10**7, 2**32 - 1])
def test_the_dimension_stop_test_stays_small_at_large_ranks(closed_calls, corner):
    # S(v, 0, n_min) at v = n_min = 2**32 - 1 has about 2.6e9 digits; the
    # stop test bounds the box by rank 3 instead and answers at once
    assert representations(10, (corner, corner), n_min=corner) == []
    assert closed_calls and max(n for _, _, n in closed_calls) <= 3


def test_rank_2_in_a_wide_box_costs_only_the_dimensions_of_rank_3(closed_calls):
    # S(v, d, 2) = v + d hits once in every dimension up to t, in closed form;
    # the rank checks start at rank 3 and stop where S(v, 0, 3) = v(v + 1)/2
    # passes t, about sqrt(2t) dimensions (the loop used to visit all t of them)
    target = 10**5
    hits = representations(target, v_range=(2, COORD_LIMIT - 1), n_min=2)
    assert len(closed_calls) <= 10 * (math.isqrt(2 * target - 1) + 1)
    assert len(hits) == 100008
    triples = [tuple(h.triple) for h in hits]
    assert [t for t in triples if t[2] == 2] == [(v, target - v, 2) for v in range(2, target + 1)]
    assert all(hypersolid(*t) == target for t in triples if t[2] > 2)


def test_a_box_of_ranks_up_to_2_makes_no_evaluation(closed_calls):
    target = 10**5
    hits = representations(target, v_range=(2, COORD_LIMIT - 1), n_min=0, n_max=2)
    assert closed_calls == []
    assert [tuple(h.triple) for h in hits] == [(v, target - v, 2) for v in range(2, target + 1)]


@pytest.mark.parametrize("target, want", [
    (2**33 - 2, (2**32 - 1, 2**32 - 1, 2)),
    (2**33 - 1, (1, 2**32 - 1, 3)),
])
def test_the_domain_corner_with_rank_2_answers_at_once(target, want):
    # S(v, 2**32 - 1, 2) = v + 2**32 - 1 is at most 2**33 - 2 in every
    # dimension, so a stop test at rank 2 visited all 2**32 of them
    top = COORD_LIMIT - 1
    hits = representations(target, v_range=(0, top), d_range=(top, top), n_min=2, n_max=top)
    assert [tuple(h.triple) for h in hits] == [want]
    assert hypersolid(*want) == target


def test_large_target_stays_in_the_coordinate_domain():
    # the v = 2, d = 0 hit would sit at rank 10**10, outside the domain;
    # the search checks the divisors of v! * 10**10 below 2**32, not the ranks
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
    # S(3, 0, n) = C(n + 1, 2): the d >= 1 checks stop near n = 2 * 10**4
    # at v = 3, so the hit at rank 5 * 10**4 must come from the rank search's
    # last rank, as must the natural-number hit S(2, 0, target) = target
    target = hypersolid(3, 0, 50_000)
    found = {tuple(h.triple) for h in representations(target, v_range=(2, 3))}
    assert {(2, 0, target), (3, 0, 50_000)} <= found
    capped = {tuple(h.triple) for h in representations(target, v_range=(3, 3), n_max=49_999)}
    assert (3, 0, 50_000) not in capped


def first_rank_past(v: int, d: int, target: int) -> int:
    """Least rank n >= 0 with naive_value(v, d, n) > target, by a plain scan."""
    n = 0
    while naive_value(v, d, n) <= target:
        n += 1
    return n


@pytest.mark.parametrize("v", range(2, 7))
def test_d0_hits_next_to_the_end_of_the_walk(v):
    # plant S(v, 0, n) and set n_min and n_max to n - 1, n and n + 1: n_min
    # moves the end of the d >= 1 walk to just before, at or just after the
    # planted rank, and n_max cuts the box on either side of it
    offsets = set()
    for n in range(1, 25):
        target = naive_value(v, 0, n)
        walk_end = first_rank_past(v, 1, target)
        for n_min in (n - 1, n, n + 1):
            for n_max in (n - 1, n, n + 1):
                offsets.add(n - min(max(walk_end, n_min), n_max + 1))
                hits = box_representations(
                    target, v_range=(v, v), d_range=(0, 40), n_min=n_min, n_max=n_max
                )
                got = [tuple(h.triple) for h in hits]
                assert got == naive_hits(target, v, v, 0, 40, n_min, n_max), (n, n_min, n_max)
                assert got.count((v, 0, n)) == (n_min <= n <= n_max)
    assert {-1, 0, 1} <= offsets


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


@pytest.mark.parametrize("box", [
    {"v_range": (2,)}, {"v_range": 5}, {"v_range": (2, 3, 4)},
    {"d_range": (1,)}, {"d_range": 7}, {"d_range": (0, 1, 2)},
], ids=["v-one", "v-int", "v-three", "d-one", "d-int", "d-three"])
def test_ranges_must_be_low_high_pairs(box):
    name = next(iter(box))
    with pytest.raises(RangeError, match=f"{name} must be a \\(low, high\\) pair"):
        representations(10, **box)


# ------------------------------------------- divisor search against the walk


@pytest.fixture
def both_routes(monkeypatch):
    """``representations`` as shipped, and with every dimension on the divisor route."""

    def run(target, **box):
        shipped = [tuple(h.triple) for h in box_representations(target, **box)]
        with monkeypatch.context() as patch:
            patch.setattr(search, "_DIRECT_RANKS", 0)
            divisors_only = [tuple(h.triple) for h in box_representations(target, **box)]
        return shipped, divisors_only

    return run


@pytest.mark.parametrize("seed", range(3))
def test_random_targets_match_the_walk(both_routes, seed):
    rng = random.Random(seed)
    for _ in range(25):
        target = int(10 ** rng.uniform(0, 9))
        want = walk_representations(target)
        assert both_routes(target) == (want, want), target


@pytest.mark.parametrize("target", [
    720720, 7207200, 72072000, 720720000, 735134400, 223092870, 479001600, 2**29, 3**18,
    6**11,
])
def test_highly_composite_targets_match_the_walk(both_routes, target):
    want = walk_representations(target)
    assert both_routes(target) == (want, want)


@pytest.mark.parametrize("seed", range(2))
def test_planted_large_difference_hits(both_routes, seed):
    # differences near the top of the domain put the hits at small ranks of
    # targets up to ~1e16, far past the walk; the cap n_max = 2000 keeps the
    # walk cheap and still leaves the divisor route its ranks at v = 2 and 3
    rng = random.Random(seed)
    for _ in range(8):
        v, d, n = rng.randint(2, 6), rng.randint(2**31, COORD_LIMIT - 1), rng.randint(3, 40)
        target = naive_value(v, d, n)
        hits = representations(target)
        assert IndexTriple(v, d, n) in [h.triple for h in hits]
        assert all(naive_value(*h.triple) == target for h in hits)
        want = walk_representations(target, n_max=2000)
        assert both_routes(target, n_max=2000) == (want, want), (v, d, n)


@pytest.mark.parametrize("seed", range(3))
def test_boxes_with_a_difference_floor_and_rank_floors_match_the_walk(both_routes, seed):
    rng = random.Random(seed)
    for _ in range(30):
        target = int(10 ** rng.uniform(0.3, 7))
        d_lo = rng.choice((0, 1, 2, rng.randint(3, 1000)))
        box = {
            "v_range": (2, rng.randint(2, 10)),
            "d_range": (d_lo, d_lo + rng.randint(0, 10**7)),
            "n_min": rng.choice((0, 1, 2, 3, 4, 10, 100, 300, 1000)),
            "n_max": rng.choice((None, None, rng.randint(1, 5000))),
        }
        want = walk_representations(target, **box)
        assert both_routes(target, **box) == (want, want), (target, box)


def test_a_target_of_1e30_answers_at_once():
    start = time.perf_counter()
    hits = representations(10**30, v_range=(2, 3))
    assert time.perf_counter() - start < 1.0
    assert all(naive_value(*h.triple) == 10**30 for h in hits)


# --------------------------------------------- dimensions 0 and 1 in closed form


@pytest.mark.parametrize("seed", range(3))
def test_low_dimensions_match_the_rank_walk(both_routes, seed):
    # every box's hits, on the walk or the divisor route, are the rank walk's
    rng = random.Random(seed)
    for _ in range(40):
        v = rng.randint(0, 1)
        target = rng.choice((1, 2, rng.randint(3, 60), rng.randint(61, 10**6)))
        d_lo = rng.choice((0, 1, rng.randint(2, 100)))
        d_span = rng.choice((0, 5, 3000) if target == 1 else (0, 5, 3000, 10**6))
        n_min = rng.choice((0, 1, 2, 3, rng.randint(4, 500)))
        box = {"v_range": (v, v), "d_range": (d_lo, d_lo + d_span),
               "n_min": n_min, "n_max": rng.randint(0, 3000)}
        want = rank_walk(v, target, box["d_range"], n_min, box["n_max"])
        assert both_routes(target, **box) == (want, want), (target, box)


@pytest.mark.parametrize("target", [
    2, 721, 5041, 55441, 720721, 1441441, 2**12 + 1, 3**8 + 1, 2 * 3 * 5 * 7 * 11 * 13 + 1,
])
def test_targets_one_past_a_highly_composite_number_match_the_rank_walk(both_routes, target):
    # t - 1 has many divisors, so dimension 1 holds many hits
    for box in ({"n_min": 0, "n_max": 3000},
                {"d_range": (2, 400), "n_min": 5, "n_max": 2500},
                {"d_range": (target // 7, target), "n_min": 1, "n_max": 50}):
        want = rank_walk(0, target, box.get("d_range", (0, target)), box["n_min"], box["n_max"])
        want += rank_walk(1, target, box.get("d_range", (0, target)), box["n_min"], box["n_max"])
        assert both_routes(target, v_range=(0, 1), **box) == (want, want), box


def test_dimension_one_answers_for_the_whole_rank_domain_at_once():
    top = COORD_LIMIT - 1
    start = time.perf_counter()
    single = representations(1000, v_range=(1, 1), d_range=(1, 1), n_min=3, n_max=top)
    # the hits of v = 1 are the divisors q of 10**12 = 2**12 * 5**12 with
    # n = q + 1 and d = 10**12 / q in the domain; no difference of the
    # domain reaches the v = 0 value
    wide = representations(10**12 + 1, v_range=(0, 1), n_min=0, n_max=top)
    assert time.perf_counter() - start < 1.0
    assert [tuple(h.triple) for h in single] == [(1, 1, 1000)]
    divisors = sorted(2**i * 5**j for i in range(13) for j in range(13))
    want = [(1, 10**12 // q, q + 1) for q in divisors if 10**12 // q <= top and q + 1 <= top]
    assert [tuple(h.triple) for h in wide] == sorted(want)
    assert all(h.value == hypersolid(*h.triple) == 10**12 + 1 for h in wide)


def test_dimension_one_factors_t_minus_one_by_pollard_brent(both_routes):
    # t - 1 is the product of two primes past TRIAL_LIMIT, so trial division
    # leaves it whole and Pollard-Brent splits it; the ranks run from about
    # 2**18 to the top of the domain, far past a walk
    p, q = 1048583, 1073741827
    target = p * q + 1
    assert target == 1125907426181142
    assert _primes.factor(p * q) == {p: 1, q: 1}
    want = [(1, p, q + 1), (1, q, p + 1)]
    # S(1, d, n) = 1 + d(n - 1); naive_value's factorials are out of reach at
    # rank 2**30
    assert all(1 + d * (n - 1) == target for _, d, n in want)
    assert both_routes(target, v_range=(1, 1), n_max=COORD_LIMIT - 1) == (want, want)


def test_dimension_zero_is_decided_at_once():
    top = COORD_LIMIT - 1
    assert representations(5, v_range=(0, 0), d_range=(0, 4), n_min=0, n_max=top) == []
    assert representations(5, v_range=(0, 0), d_range=(6, 9), n_min=0, n_max=top) == []
    hits = representations(5, v_range=(0, 0), d_range=(5, 5), n_min=top - 2, n_max=top)
    assert [tuple(h.triple) for h in hits] == [(0, 5, top - 2), (0, 5, top - 1), (0, 5, top)]


def test_the_one_hit_box_runs_from_the_command_line(run_cli):
    code, out, err = run_cli("represent", "--value", "1000", "--vmin", "1", "--vmax", "1",
                             "--dmin", "1", "--dmax", "1", "--nmax", str(COORD_LIMIT - 1),
                             "--format", "csv")
    assert (code, out, err) == (0, "v,d,n,value\n1,1,1000,1000\n", "")


# --------------------------------------------------------- factoring budget

#: S(2, 1000004, 250) = 250 * 124500499, and the prime 124500499 lies past
#: TRIAL_LIMIT**2, so factoring HARD costs a primality test, charged before
#: it runs; these units, one per bit (27) and witness (13), are short of it
HARD = 250 * 124500499
HARD_TEST_UNITS = 27 * 13


def test_a_failed_factorisation_walks_the_ranks_it_can_afford(monkeypatch):
    assert naive_value(2, 1000004, 250) == HARD
    want = [tuple(h.triple) for h in representations(HARD, n_max=300)]
    assert (2, 1000004, 250) in want
    monkeypatch.setattr(_primes, "FACTOR_BUDGET", HARD_TEST_UNITS - 1)
    assert _primes.factor(HARD) is None
    # the dimensions up to v = 5 have about 298 ranks up to n_max = 300: more
    # than _DIRECT_RANKS, so they would list divisors, and within the
    # budget as a walk
    got = [tuple(h.triple) for h in representations(HARD, n_max=300)]
    assert got == want == walk_representations(HARD, n_max=300)
    # 398 ranks are not
    with pytest.raises(RangeError, match="would take 398 ranks"):
        representations(HARD, n_max=400)


def test_a_failed_factorisation_with_too_many_ranks_raises(monkeypatch, run_cli):
    monkeypatch.setattr(_primes, "FACTOR_BUDGET", HARD_TEST_UNITS - 1)
    with pytest.raises(RangeError, match="does not factor within 350 steps"):
        representations(HARD)
    code, out, err = run_cli("represent", "--value", str(HARD))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "does not factor" in err


def test_dimension_one_walks_the_ranks_it_can_afford_when_factoring_fails(monkeypatch):
    # t - 1 = HARD; differences below 2**32 leave q = n - 1 from 8 up
    target = HARD + 1
    want = rank_walk(1, target, (0, 2**32 - 1), 3, 300)
    assert want == sorted((1, HARD // q, q + 1) for q in (10, 25, 50, 125, 250))
    monkeypatch.setattr(_primes, "FACTOR_BUDGET", HARD_TEST_UNITS - 1)
    assert _primes.factor(HARD) is None
    # ranks 9..300: 292 ranks, more than _DIRECT_RANKS and within the budget
    got = representations(target, v_range=(1, 1), n_max=300)
    assert [tuple(h.triple) for h in got] == want
    message = ("the target (35 bits) does not factor within 350 steps, "
               "and walking dimension 1 instead would take 392 ranks")
    with pytest.raises(RangeError, match=f"^{re.escape(message)}$"):
        representations(target, v_range=(1, 1), n_max=400)


def test_the_candidate_ranks_of_a_dimension_are_held_to_the_budget(monkeypatch):
    # 720720 factors by trial division alone, but 2 * 720720 has more than
    # 50 divisors below 720720
    monkeypatch.setattr(_primes, "FACTOR_BUDGET", 50)
    assert _primes.factor(720720) == {2: 4, 3: 2, 5: 1, 7: 1, 11: 1, 13: 1}
    with pytest.raises(RangeError, match="more than 50 candidate ranks in dimension 2"):
        representations(720720)


# ------------------------------------------------------- sequence_slice


def test_sequence_slice():
    assert sequence_slice(2, 1, 1, 10) == [1, 3, 6, 10, 15, 21, 28, 36, 45, 55]
    assert sequence_slice(2, 3, 1, 5) == [1, 5, 12, 22, 35]
    assert sequence_slice(4, 10, 1, 3) == [1, 14, 60]
    assert sequence_slice(3, 3, 0, 5) == [0, 1, 6, 18, 40, 75]
    assert sequence_slice(4, 2, 7, 7) == [hypersolid(4, 2, 7)]
    with pytest.raises(RangeError):
        sequence_slice(2, 1, 5, 4)


def zero_extended(v: int, d: int, n: int) -> int:
    """The two-binomial closed form, both binomials extended by zero."""
    return binomial(v + n - 2, v - 1) + d * binomial(v + n - 2, v)


def test_sequence_slices_match_the_two_binomial_form():
    for v in range(10):
        for d in (0, 1, 7):
            for n_from in range(4):
                for length in range(1, 41):
                    n_to = n_from + length - 1
                    want = [zero_extended(v, d, n) for n in range(n_from, n_to + 1)]
                    assert sequence_slice(v, d, n_from, n_to) == want, (v, d, n_from, n_to)


def test_sequence_slices_match_the_summation_route():
    for v in range(10):
        for d in (0, 1, 7):
            want = [kernel._by_summation(v, d, n) for n in range(45)]
            for n_from in range(4):
                assert sequence_slice(v, d, n_from, 44) == want[n_from:]


@pytest.mark.parametrize("v", [_PRIME_ROUTE_SIDE, _PRIME_ROUTE_SIDE + 1])
def test_sequence_slices_across_the_prime_route_boundary(v):
    # at v = 701 the ranks past 700 are big balanced cells; the judge is math.comb
    for d in (0, 3):
        want = [math.comb(v + n - 2, v - 1) + d * math.comb(v + n - 2, v) for n in range(699, 704)]
        assert sequence_slice(v, d, 699, 703) == want


def test_sequence_slice_reaches_the_last_rank_of_the_domain():
    top = COORD_LIMIT - 1
    for v, d in [(0, 4), (1, 3), (2, 1), (5, 7)]:
        want = [zero_extended(v, d, n) for n in range(top - 3, top + 1)]
        assert sequence_slice(v, d, top - 3, top) == want
    with pytest.raises(RangeError):
        sequence_slice(2, 1, top - 3, top + 1)


def test_a_slice_decides_the_route_once(closed_calls):
    # no cell of a slice at or below the threshold can take the prime route,
    # so the slice is built with no per-rank call
    for v in (0, 1, 2, 8, _PRIME_ROUTE_SIDE):
        sequence_slice(v, 3, 0, 50)
    assert closed_calls == []
    # above it each rank is a scalar call, so big balanced cells keep their route
    v = _PRIME_ROUTE_SIDE + 1
    sequence_slice(v, 3, 699, 703)
    assert closed_calls == [(v, 3, n) for n in range(699, 704)]
