"""The prime-power binomial against ``math.comb``, and the target factoring.

``hypersolids._primes.comb`` builds C(m, k) from a sieve's primes; the judge
here is ``math.comb``, which shares none of that code.  ``factor`` and
``factorial_divisors`` are judged by plain trial division and a scan.  The sieve is a
process-wide cache, so tests that need it in a given state set ``_sieved``
with monkeypatch, which puts the cache back afterwards.
"""

from __future__ import annotations

import math
import random
from array import array

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypersolids import _primes, kernel

SIDE = kernel._PRIME_ROUTE_SIDE


def _fresh_sieve(monkeypatch) -> None:
    monkeypatch.setattr(_primes, "_sieved", (0, array("l")))


def _mirrored(m: int, small: st.SearchStrategy) -> st.SearchStrategy:
    """(m, k) with min(k, m - k) drawn from ``small``, on either side of m / 2."""
    return st.tuples(small, st.booleans()).map(lambda t: (m, m - t[0] if t[1] else t[0]))


# m up to a few thousand; "inside" is where _closed takes the prime route:
# both sides at least SIDE and the smaller at least m / 10
inside = st.integers(2 * SIDE, 4000).flatmap(
    lambda m: _mirrored(m, st.integers(max(SIDE, -(-m // 10)), m // 2)))
outside = st.integers(0, 4000).flatmap(
    lambda m: _mirrored(m, st.integers(0, min(SIDE - 1, m // 2))))


@given(mk=inside)
def test_matches_math_comb_where_the_kernel_uses_it(mk):
    m, k = mk
    assert _primes.comb(m, k) == math.comb(m, k)


@given(mk=outside)
def test_matches_math_comb_below_the_kernel_threshold(mk):
    m, k = mk
    assert _primes.comb(m, k) == math.comb(m, k)


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4, 5, 97, 1000, 4099])
def test_edge_columns(m):
    for k in {k for k in (0, 1, m - 1, m) if 0 <= k <= m}:
        assert _primes.comb(m, k) == math.comb(m, k), (m, k)


# m prime; m = p**2, where p is the last prime Legendre's loop sums over;
# m = p**2 - 1, where p is the first prime with at most one carry
@pytest.mark.parametrize("m", [1009, 7919, 31**2, 97**2, 31**2 - 1, 97**2 - 1, 2**2, 3**2 - 1])
def test_around_the_square_root_split(m):
    for k in sorted({2, 3, m // 10, m // 3, m // 2, m - m // 3, m - 2}):
        assert _primes.comb(m, k) == math.comb(m, k), (m, k)


def test_a_larger_m_grows_the_sieve(monkeypatch):
    _fresh_sieve(monkeypatch)
    assert _primes.comb(3000, 1500) == math.comb(3000, 1500)
    top = _primes._sieved[0]
    assert top == 4096  # 1024 doubled until it passed m
    assert _primes.comb(top, top // 2) == math.comb(top, top // 2)
    top, primes = _primes._sieved
    assert top == 2 * 4096
    trial_division = [p for p in range(2, top)
                      if all(p % q for q in range(2, math.isqrt(p) + 1))]
    assert list(primes) == trial_division


def test_at_and_above_the_cap(monkeypatch):
    _fresh_sieve(monkeypatch)
    cap = _primes.SIEVE_CAP
    for k in (2, 777):
        assert _primes.comb(cap, k) == math.comb(cap, k), k
    assert _primes._sieved[0] == cap + 1
    assert _primes.comb(cap + 1, 777) == math.comb(cap + 1, 777)
    assert _primes._sieved[0] == cap + 1


def test_the_cap_bounds_the_sieve_and_hands_bigger_m_to_math_comb(monkeypatch):
    _fresh_sieve(monkeypatch)
    monkeypatch.setattr(_primes, "SIEVE_CAP", 3000)
    assert _primes.comb(2500, 1250) == math.comb(2500, 1250)
    assert _primes._sieved[0] == 3001  # doubling stopped at the cap
    assert _primes._sieved[1][-1] == 2999
    v, d, n = 2000, 7, 2000  # m = 3998: on the kernel's route, above the cap
    m = v + n - 2
    assert kernel._closed(v, d, n) == math.comb(m, v - 1) + d * math.comb(m, v)
    assert _primes._sieved[0] == 3001



# ------------------------------------------------------------ factoring


def trial_division(t: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= t:
        while t % p == 0:
            out[p] = out.get(p, 0) + 1
            t //= p
        p += 1
    if t > 1:
        out[t] = out.get(t, 0) + 1
    return out


def test_factor_matches_trial_division():
    rng = random.Random(7)
    numbers = [*range(1, 300), *(rng.randint(1, 10**9) for _ in range(60)),
               1021 * 1031, 1031**2, 1048573, 2**30, 720720 * 10**3]
    for t in numbers:
        assert _primes.factor(t) == trial_division(t), t


@pytest.mark.parametrize("factors", [
    {10**9 + 7: 1, 10**9 + 9: 1},
    {2**31 - 1: 1, 2**61 - 1: 1},
    {998244353: 1, 1000003: 1, 1000033: 1},
    {1000003: 2},
    {3: 40, 2**61 - 1: 1},
    {2**89 - 1: 1},
    # strong pseudoprimes: 3215031751 to the bases 2, 3, 5 and 7, and
    # 3825123056546413051 to every prime base up to 23
    {151: 1, 751: 1, 28351: 1},
    {149491: 1, 747451: 1, 34233211: 1},
], ids=lambda f: "*".join(map(str, f)))
def test_factor_splits_products_of_known_primes(factors):
    t = math.prod(p**e for p, e in factors.items())
    assert _primes.factor(t) == factors


def test_factor_gives_up_at_its_budget(monkeypatch):
    t = (2**31 - 1) * (2**61 - 1)
    monkeypatch.setattr(_primes, "FACTOR_BUDGET", 10**4)
    assert _primes.factor(t) is None
    # a smooth number needs trial division only: one unit per division
    # while it is below 2**256
    assert _primes.factor(2**100 * 3**50) == {2: 100, 3: 50}


def test_trial_division_is_charged_by_the_size_of_the_target(monkeypatch):
    # each division of a 5001-bit number costs 20 units: 49 of them fit in
    # 1000, not the 5000 that 2**5000 needs
    assert _primes.factor(2**5000) == {2: 5000}
    monkeypatch.setattr(_primes, "FACTOR_BUDGET", 1000)
    assert _primes.factor(2**5000) is None
    assert _primes.factor(2**40) == {2: 40}


def test_factor_gives_up_when_its_trial_divisions_overrun(monkeypatch):
    # the prime 1000003 lies below TRIAL_LIMIT**2, so its only cost is one
    # unit per trial division by the 168 primes up to 1000; one unit short,
    # the last trial division is refused before it runs
    t = 1000003
    monkeypatch.setattr(_primes, "FACTOR_BUDGET", 168)
    assert _primes.factor(t) == {t: 1}
    monkeypatch.setattr(_primes, "FACTOR_BUDGET", 167)
    assert _primes.factor(t) is None


def test_a_primality_test_is_charged_for_its_witnesses_and_its_lucas_steps(monkeypatch):
    # the prime 124500499 lies past TRIAL_LIMIT**2: 172 trial divisions, then
    # one unit per bit (27) for each of the 13 witnesses and two for the
    # strong Lucas test, all charged before the test runs
    t = 124500499
    monkeypatch.setattr(_primes, "FACTOR_BUDGET", 172 + 27 * (13 + 2))
    assert _primes.factor(t) == {t: 1}
    monkeypatch.setattr(_primes, "FACTOR_BUDGET", 172 + 27 * (13 + 2) - 1)
    assert _primes.factor(t) is None


def test_trial_division_stops_when_its_budget_runs_out(monkeypatch):
    # 1000003 * 1000033 has no prime factor below TRIAL_LIMIT, so each trial
    # prime costs one division and one unit; at a budget of 10 the 11th
    # prime is charged, found over budget and never divided by
    drawn = []
    trial_primes = _primes._primes_upto

    def counted(m):
        for p in trial_primes(m):
            drawn.append(p)
            yield p

    monkeypatch.setattr(_primes, "_primes_upto", counted)
    monkeypatch.setattr(_primes, "FACTOR_BUDGET", 10)
    assert _primes.factor(1000003 * 1000033) is None
    assert drawn == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


def test_factorial_divisors_refuse_primes_past_the_sieve_cap(monkeypatch):
    # a divisor up to hi needs the primes of v! up to min(v, hi); past the
    # cap the sieve does not hold them
    _fresh_sieve(monkeypatch)
    monkeypatch.setattr(_primes, "SIEVE_CAP", 3000)
    message = "a rank past 3000 in a dimension past 3000 needs more primes than the sieve keeps"
    with pytest.raises(kernel.RangeError, match=f"^{message}$"):
        _primes.factorial_divisors(3001, {}, 1, 3001)
    # at the cap the sieve holds the primes it needs; every n <= 3000 divides 3001!
    assert _primes.factorial_divisors(3001, {}, 1, 3000) == list(range(1, 3001))


def test_the_primality_test_agrees_with_trial_division_below_a_million():
    # an odd m in (1024, 10**6) is prime iff no prime up to 1000 divides it,
    # that is, iff it is coprime to their product
    primorial = math.prod(p for p in range(2, 1001) if trial_division(p) == {p: 1})
    for m in range(1025, 10**6, 2):
        assert _primes._is_probable_prime(m) == (math.gcd(m, primorial) == 1), m


#: The strong Lucas pseudoprimes with Selfridge's parameters below 10**5
#: (OEIS A217255): odd composites that the Lucas half alone passes
STRONG_LUCAS_PSEUDOPRIMES = [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309,
                             58519, 75077, 97439]


def test_the_lucas_half_passes_exactly_its_known_pseudoprimes():
    passed = [m for m in range(3, 10**5, 2) if _primes._is_strong_lucas_probable_prime(m)]
    composites = [m for m in passed if trial_division(m) != {m: 1}]
    assert composites == STRONG_LUCAS_PSEUDOPRIMES
    for m in composites[:3]:
        assert not _primes._is_probable_prime(m)


@pytest.mark.parametrize("p", [1093, 3511, 1000003, 2**61 - 1])
def test_a_perfect_square_is_rejected_before_the_search_for_d(monkeypatch, p):
    # 1093**2 and 3511**2 are strong pseudoprimes to base 2.  No D has
    # (D / p**2) = -1, so the search would run on until |D| = p
    assert not _primes._is_probable_prime(p * p)

    def no_search(a, m):
        raise AssertionError(f"the search for D ran on a square at D = {a}")

    monkeypatch.setattr(_primes, "_jacobi", no_search)
    assert not _primes._is_strong_lucas_probable_prime(p * p)


def test_the_least_pseudoprime_to_every_witness_is_not_taken_as_prime(monkeypatch):
    # the least strong pseudoprime to all thirteen Miller-Rabin bases
    m = 3317044064679887385961981
    assert m == 1287836182261 * 2575672364521
    assert all(pow(a, m - 1, m) == 1 for a in _primes._WITNESSES)
    assert not _primes._is_probable_prime(m)
    # Pollard-Brent needs 1833854 steps to split it, past the default budget
    assert _primes.factor(m) is None
    monkeypatch.setattr(_primes, "FACTOR_BUDGET", 1 << 22)
    assert _primes.factor(m) == {1287836182261: 1, 2575672364521: 1}


def test_brent_stops_before_a_batch_it_cannot_afford():
    # the walk for 1000003 * 1000033 splits it at step 1022, in the second
    # 128-step batch of the cycle of length 256, whose advance ends at step 766
    m = 1000003 * 1000033
    assert _primes._brent(m, 1022) == (1000033, 1022)
    assert _primes._brent(m, 765) == (None, 510)  # the advance does not fit
    assert _primes._brent(m, 830) == (None, 766)  # the advance fits, its first batch not
    assert _primes._brent(m, 1021) == (None, 894)  # the second batch does not fit


@pytest.mark.parametrize("v", [2, 3, 5, 8, 13])
def test_factorial_divisors_match_a_scan(v):
    rng = random.Random(v)
    for _ in range(20):
        t = rng.randint(1, 10**6)
        lo = rng.randint(0, 50)
        hi = lo + rng.randint(0, 3000)
        scaled = math.factorial(v) * t
        want = [n for n in range(max(lo, 1), hi + 1) if scaled % n == 0]
        assert _primes.factorial_divisors(v, trial_division(t), lo, hi) == want, (t, lo, hi)
