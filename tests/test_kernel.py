"""Kernel tests.

Every closed form is checked against an independently written oracle:
binomials against the additive recurrence, permutations against factorials,
and the figurate values against literal repeated prefix summation coded
here from scratch.
"""

from __future__ import annotations

import math
import tracemalloc
from itertools import islice, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersolids import (
    COORD_LIMIT,
    RangeError,
    binomial,
    d_gnomon,
    gnomon_term,
    hyper4,
    hypersolid,
    n_gnomon,
    permutation,
    polygonal,
    pyramidal,
    run_suite,
    v_gnomon,
)
from hypersolids import _primes, kernel
from hypersolids.kernel import _closed

# ------------------------------------------------------------- oracles


def pascal_rows(limit: int) -> list[list[int]]:
    """Rows 0..limit of Pascal's triangle via the additive recurrence only."""
    rows = [[1]]
    for _ in range(limit):
        prev = rows[-1]
        rows.append([1] + [prev[i] + prev[i + 1] for i in range(len(prev) - 1)] + [1])
    return rows


def factorial(n: int) -> int:
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def prefix_summation_oracle(v: int, d: int, n: int) -> int:
    """Literal construction: v - 1 rounds of prefix sums over 1, 1+d, 1+2d, ..."""
    if v == 0:
        return d if n >= 2 else 0
    row = [0] + [1 + d * (r - 1) for r in range(1, n + 1)]
    for _ in range(v - 1):
        acc = 0
        summed = []
        for x in row:
            acc += x
            summed.append(acc)
        row = summed
    return row[n] if row else 0


PASCAL = pascal_rows(40)


# ------------------------------------------------- binomial / permutation


def test_binomial_matches_pascal_recurrence():
    for n in range(41):
        for k in range(n + 1):
            assert binomial(n, k) == PASCAL[n][k]


@pytest.mark.parametrize(
    "n,k,expected",
    [(7, 2, 21), (5, 5, 1), (3, 5, 0), (-1, 0, 0), (6, -2, 0), (0, 0, 1), (-4, -4, 0)],
)
def test_binomial_zero_extension(n, k, expected):
    assert binomial(n, k) == expected


def test_permutation_against_factorials():
    for n in range(13):
        for k in range(n + 1):
            assert permutation(n, k) == factorial(n) // factorial(n - k)


@pytest.mark.parametrize("n,k,expected", [(4, 2, 12), (9, 0, 1), (3, 1, 3), (2, 5, 0), (-1, 1, 0)])
def test_permutation_values(n, k, expected):
    assert permutation(n, k) == expected


@given(n=st.integers(1, 60), k=st.integers(-3, 63))
def test_binomial_additive_recurrence_property(n, k):
    # holds for every k once n >= 1; the zero extension only breaks it at n = k = 0
    assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


# ------------------------------------------------------------ gnomon_term


@pytest.mark.parametrize("d,r,expected", [(3, 5, 13), (8, 10, 73), (0, 7, 1), (5, 1, 1)])
def test_gnomon_term(d, r, expected):
    assert gnomon_term(d, r) == expected


def test_gnomon_term_rejects_rank_zero():
    with pytest.raises(RangeError):
        gnomon_term(3, 0)


# -------------------------------------------------------- specializations


@pytest.mark.parametrize("d,n,expected", [(3, 5, 35), (1, 9, 45), (10, 10, 460), (7, 0, 0), (0, 6, 6)])
def test_polygonal_values(d, n, expected):
    assert polygonal(d, n) == expected


@pytest.mark.parametrize("d,n,expected", [(2, 5, 55), (4, 6, 161), (1, 10, 220), (3, 0, 0)])
def test_pyramidal_values(d, n, expected):
    assert pyramidal(d, n) == expected


@pytest.mark.parametrize("d,n,expected", [(1, 5, 70), (5, 5, 210), (10, 3, 60), (2, 0, 0)])
def test_hyper4_values(d, n, expected):
    assert hyper4(d, n) == expected


def test_specializations_agree_with_general_evaluator():
    for d in range(11):
        for n in range(13):
            assert hypersolid(2, d, n) == polygonal(d, n)
            assert hypersolid(3, d, n) == pyramidal(d, n)
            assert hypersolid(4, d, n) == hyper4(d, n)
            assert hypersolid(1, d, n) == (0 if n == 0 else 1 + d * (n - 1))


@given(d=st.integers(0, 50), n=st.integers(0, 200))
def test_specialization_products_divide_exactly(d, n):
    assert n * (2 + (n - 1) * d) % 2 == 0
    assert n * (n + 1) * (3 + (n - 1) * d) % 6 == 0
    assert n * (n + 1) * (n + 2) * (4 + (n - 1) * d) % 24 == 0


# ------------------------------------------------------------- evaluator


@pytest.mark.parametrize(
    "v,d,n,expected",
    [
        (2, 3, 5, 35),
        (3, 2, 5, 55),
        (4, 1, 10, 715),
        (0, 7, 9, 7),
        (5, 0, 0, 0),
        (6, 2, 3, 35),  # value confirmed by prefix_summation_oracle below
        (1, 4, 7, 25),
    ],
)
def test_hypersolid_values(v, d, n, expected):
    assert hypersolid(v, d, n) == expected
    assert hypersolid(v, d, n, "summation") == expected


def test_derived_value_from_independent_summation():
    assert prefix_summation_oracle(6, 2, 3) == 35


def test_closed_matches_independent_summation_on_grid():
    for v in range(9):
        for d in range(11):
            for n in range(13):
                assert hypersolid(v, d, n) == prefix_summation_oracle(v, d, n), (v, d, n)


@given(v=st.integers(0, 12), d=st.integers(0, 20), n=st.integers(0, 40))
def test_closed_matches_summation_method(v, d, n):
    assert hypersolid(v, d, n, "closed") == hypersolid(v, d, n, "summation")


def two_binomial(v: int, d: int, n: int) -> int:
    """C(m, v - 1) + d * C(m, v) with m = v + n - 2, zero-extended, from math.comb."""
    m = v + n - 2
    return sum(w * math.comb(m, k) for w, k in ((1, v - 1), (d, v)) if 0 <= k <= m)


def test_summation_route_matches_the_two_binomial_form():
    for v in range(1, 13):
        for d in range(7):
            for n in range(26):
                assert hypersolid(v, d, n, "summation") == two_binomial(v, d, n), (v, d, n)
    # the v = 0 sequence is 0, 0, d, d, ...: C(n - 2, -1) is zero and C(n - 2, 0) is 1
    for d in range(7):
        for n in range(26):
            assert hypersolid(0, d, n, "summation") == (d * (n >= 2)) == two_binomial(0, d, n)


@pytest.mark.parametrize(("v", "d", "n"), [
    (60, 0, 400), (60, 3, 400), (57, 10, 389), (20, 7, 100), (1, 9, 400), (61, 1, 1),
])
def test_summation_route_matches_the_two_binomial_form_on_big_cells(v, d, n):
    assert hypersolid(v, d, n, "summation") == two_binomial(v, d, n)


def test_summation_route_cuts_long_chains_of_rounds(monkeypatch):
    # past _CHAIN_ROUNDS rounds the route stores a round in a list; a
    # chain of 2 * 10**5 iterator rounds overflowed the C stack
    assert hypersolid(2500, 3, 4, "summation") == two_binomial(2500, 3, 4)
    monkeypatch.setattr(kernel, "_CHAIN_ROUNDS", 3)
    for v, d, n in product(range(13), range(4), range(12)):
        assert hypersolid(v, d, n, "summation") == two_binomial(v, d, n), (v, d, n)


@pytest.mark.parametrize("rounds", [kernel._CHAIN_ROUNDS, 3], ids=["chained", "cut"])
def test_one_summation_pass_holds_every_rank(monkeypatch, rounds):
    # the oracle sweep reads a whole column off one pass, so every prefix of
    # the pass, rank 0 included, must be the value at its rank
    monkeypatch.setattr(kernel, "_CHAIN_ROUNDS", rounds)
    for v, d, n in product(range(13), range(7), range(26)):
        assert list(kernel._summation_ranks(v, d, n)) == [
            two_binomial(v, d, k) for k in range(n + 1)
        ], (v, d, n)


def test_the_zero_dimensional_pass_is_lazy_at_the_domain_edge():
    top = COORD_LIMIT - 1
    assert hypersolid(0, 7, top, "summation") == 7  # the O(1) rule, no pass
    tracemalloc.start()
    try:
        ranks = kernel._summation_ranks(0, 7, top)
        head = list(islice(ranks, 5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert head == [0, 0, 7, 7, 7]
    assert peak < 10_000  # a materialised pass would need 2**32 slots


def test_boundary_ladder():
    for d in range(11):
        for n in range(13):
            assert hypersolid(0, d, n) == (d if n >= 2 else 0)
        for v in range(9):
            assert hypersolid(v, d, 0) == 0
            assert hypersolid(v, d, 1) == (0 if v == 0 else 1)
    for v in range(9):
        for n in range(13):
            assert hypersolid(v, 0, n) == binomial(v + n - 2, v - 1)


@given(
    v=st.integers(1, 8),
    d=st.integers(0, 20),
    n=st.integers(1, 40),
)
def test_strictly_increasing_in_rank(v, d, n):
    if v >= 2 or d >= 1:
        assert hypersolid(v, d, n) < hypersolid(v, d, n + 1)


def test_method_validation():
    with pytest.raises(ValueError):
        hypersolid(1, 1, 1, "magic")


@pytest.mark.parametrize("v,d,n", [(-1, 0, 0), (0, -2, 0), (0, 0, -3), (2**32, 0, 1)])
def test_coordinates_out_of_range(v, d, n):
    with pytest.raises(RangeError):
        hypersolid(v, d, n)


@pytest.mark.parametrize("v,d,n", [(True, 1, 3), (2, False, 3), (2.0, 1, 3), (2, 1, 3.5), (2, "1", 3)])
def test_coordinates_must_be_integers(v, d, n):
    # bool is an int subclass and floats have no exact index: both are rejected
    with pytest.raises(RangeError, match="must be an integer"):
        hypersolid(v, d, n)


class Index:
    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_coordinates_accept_integer_like_objects():
    assert hypersolid(Index(2), Index(1), Index(3)) == 6
    with pytest.raises(RangeError):
        hypersolid(Index(2**32), 1, 3)


def test_closed_form_corners_match_the_zero_extended_binomials():
    # the closed form spells out its corners (m = v + n - 2 < 0, v = 0) and
    # folds the two binomials into one; the two-binomial form is the judge.
    # The large cells sit on both sides of the prime-power route's predicate
    # (v - 1 and n - 1 both >= 700, the smaller >= m / 10): on it are
    # (701, 701), (3000, 4000), (5000, 5000), (5000, 701) and (2001, 18001),
    # whose smaller side is exactly m / 10; off it are (200, 300), (700, 5000),
    # (5000, 700) and (2000, 18002), whose smaller side is just under m / 10
    sides = ((200, 300), (3000, 4000), (5000, 5000), (701, 701), (700, 5000), (5000, 701),
             (5000, 700), (2001, 18001), (2000, 18002))
    small = [(v, d, n) for v in range(9) for d in range(6) for n in range(9)]
    large = [(v, d, n) for v, n in sides for d in (0, 7)]
    for v, d, n in small + large:
        want = binomial(v + n - 2, v - 1) + d * binomial(v + n - 2, v)
        assert _closed(v, d, n) == want, (v, d, n)


@pytest.fixture
def prime_route_everywhere(monkeypatch):
    # with the threshold at 0 every balanced cell with v, n >= 1 takes the
    # prime-power binomial, so the small grids below exercise it; the list
    # records the (m, k) of each call
    calls = []
    real = _primes.comb
    monkeypatch.setattr(_primes, "comb", lambda m, k: calls.append((m, k)) or real(m, k))
    monkeypatch.setattr(kernel, "_PRIME_ROUTE_SIDE", 0)
    return calls


def test_prime_route_matches_summation_on_grid(prime_route_everywhere):
    for v in range(13):
        for d in range(11):
            for n in range(15):
                assert hypersolid(v, d, n) == hypersolid(v, d, n, "summation"), (v, d, n)
    assert len(set(prime_route_everywhere)) > 60


@pytest.mark.parametrize("suite,cases", [("oracle", 1287), ("gnomons", 3140)])
def test_prime_route_passes_the_value_suites(prime_route_everywhere, suite, cases):
    outcome = run_suite(suite)
    assert outcome.ok, outcome.failures[:3]
    assert outcome.cases_run == cases
    assert len(prime_route_everywhere) > cases // 4


@pytest.mark.parametrize(
    "fn,minimums",
    [(hypersolid, (0, 0, 0)), (n_gnomon, (1, 0, 1)), (d_gnomon, (0, 1, 1)), (v_gnomon, (1, 0, 1))],
    ids=["hypersolid", "n_gnomon", "d_gnomon", "v_gnomon"],
)
@pytest.mark.parametrize("axis", [0, 1, 2], ids=["v", "d", "n"])
def test_one_test_admission_keeps_every_boundary(fn, minimums, axis):
    # the int fast path and the per-coordinate fallback must draw the same
    # line at both ends of each coordinate and give the same messages
    name, minimum = "vdn"[axis], minimums[axis]

    def call(value):
        args = [2, 1, 3]
        args[axis] = value
        return fn(*args)

    top = COORD_LIMIT - 1
    assert call(top) == call(Index(top))
    assert call(minimum) == call(Index(minimum))
    assert call(Index(5)) == call(5)
    for bad in (COORD_LIMIT, -1, minimum - 1):
        with pytest.raises(RangeError) as caught:
            call(bad)
        assert str(caught.value) == f"{name} must be in [{minimum}, 2**32), got {bad}"
    for bad in (True, False, 3.0):
        with pytest.raises(RangeError) as caught:
            call(bad)
        assert str(caught.value) == f"{name} must be an integer, got {bad!r}"


def test_fast_path_values_at_the_top_of_the_domain():
    top = COORD_LIMIT - 1
    assert hypersolid(top, 1, 3) == (top + 1) * top // 2 + top + 1  # C(m, 2) + C(m, 1)
    assert hypersolid(2, top, 3) == 3 + 3 * top
    assert hypersolid(2, 1, top) == top * (top + 1) // 2


# --------------------------------------------------------------- gnomons


@pytest.mark.parametrize(
    "fn,v,d,n,expected",
    [
        (n_gnomon, 3, 3, 5, 35),
        (n_gnomon, 2, 3, 5, 13),
        (d_gnomon, 2, 3, 5, 10),
        (d_gnomon, 3, 2, 5, 20),
        (v_gnomon, 4, 2, 5, 50),
        (n_gnomon, 5, 7, 1, 1),
    ],
)
def test_gnomon_values(fn, v, d, n, expected):
    assert fn(v, d, n) == expected


def test_gnomon_identities_on_grid():
    # all three decompositions hold wherever v + n >= 3 (plus their own
    # coordinate minimums); the corners below this line are checked separately
    for v in range(9):
        for d in range(11):
            for n in range(1, 13):
                if v + n < 3:
                    continue
                if v >= 1:
                    assert hypersolid(v, d, n) == hypersolid(v, d, n - 1) + n_gnomon(v, d, n)
                    assert hypersolid(v, d, n) - hypersolid(v - 1, d, n) == v_gnomon(v, d, n)
                if d >= 1:
                    assert hypersolid(v, d, n) == hypersolid(v, d - 1, n) + d_gnomon(v, d, n)


def test_gnomon_identities_fail_below_the_boundary():
    # the decompositions genuinely do not extend to v + n < 3: the unit at
    # (1, d, 1) has no rank-0 or dimension-0 part, and the difference step
    # at (0, d, 2) misses the first nonzero term
    assert hypersolid(1, 5, 1) == 1
    assert hypersolid(1, 5, 0) + n_gnomon(1, 5, 1) == 0
    assert hypersolid(0, 5, 2) == 5
    assert hypersolid(0, 4, 2) + d_gnomon(0, 5, 2) == 4


@pytest.mark.parametrize(
    "fn,v,d,n",
    [
        (n_gnomon, 0, 3, 5),
        (n_gnomon, 2, 3, 0),
        (d_gnomon, 2, 0, 5),
        (d_gnomon, 2, 3, 0),
        (v_gnomon, 0, 3, 5),
        (v_gnomon, 2, 3, 0),
    ],
)
def test_gnomon_preconditions(fn, v, d, n):
    with pytest.raises(RangeError):
        fn(v, d, n)


# --------------------------------------------------------- big arguments


@settings(max_examples=25)
@given(v=st.integers(2, 30), d=st.integers(0, 100), n=st.integers(1, 300))
def test_gnomon_sum_reassembles_value(v, d, n):
    # summing the rank gnomons from 1..n rebuilds the value, v >= 2
    assert hypersolid(v, d, n) == sum(n_gnomon(v, d, r) for r in range(1, n + 1))


def test_values_exceed_machine_words():
    value = hypersolid(50, 7, 1000)
    assert value > 2**64
    assert value == hypersolid(50, 7, 1000, "summation")
