"""Large binomial coefficients as products of prime powers.

``math.comb`` on CPython 3.10/3.11 divides big integers exactly on its way
to C(m, k), and CPython's long division is quadratic in the digits.  For
large, balanced arguments the same value is cheaper as
∏ p^e over the primes p <= m, where by Kummer's theorem e is the number of
carries when k and m - k are added in base p (Legendre's formula counts
them).  The factors are multiplied by a balanced pairwise product tree, so
the work is big-int multiplication only.

The primes come from a bytearray sieve that is run on first use, is run
again at double the size when a larger m arrives, and never covers more
than ``SIEVE_CAP``; above the cap :func:`comb` hands the call to
``math.comb``.  Only the ascending primes it found are kept.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from itertools import compress
from operator import mul

#: Largest m whose primes the sieve will hold: it runs on a 1 MB bytearray
#: and keeps the 82025 primes it finds in a 656 KB array.
SIEVE_CAP = 1 << 20

#: ``(top, primes)``: the sieve has covered the numbers below ``top``, and
#: ``primes`` holds the primes among them in ascending order.  It is one
#: tuple so that a reader in another thread never pairs a new top with an
#: old table.
_sieved = (0, array("l"))


def _primes_upto(m: int) -> array:
    """The ascending primes below a top past m; the top grows by doubling.

    Callers keep m <= SIEVE_CAP.
    """
    global _sieved
    top, primes = _sieved
    if m < top:
        return primes
    size = max(top, 1024)
    while size <= m:
        size *= 2
    size = min(size, SIEVE_CAP + 1)
    sieve = bytearray([1]) * size
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(size - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, size, p)))
    primes = array("l", compress(range(size), sieve))
    _sieved = size, primes
    return primes


def _product(factors: list[int]) -> int:
    """The product of ``factors``, multiplied pairwise level by level."""
    while len(factors) > 1:
        paired = list(map(mul, factors[::2], factors[1::2]))
        if len(factors) % 2:
            paired.append(factors[-1])
        factors = paired
    return factors[0] if factors else 1


def comb(m: int, k: int) -> int:
    """C(m, k) for 0 <= k <= m, equal to ``math.comb(m, k)``."""
    if m > SIEVE_CAP:
        return math.comb(m, k)
    k = min(k, m - k)
    primes = _primes_upto(m)
    # isqrt(m) <= m // 2 <= m - k whenever m >= 2 (below that there are no
    # primes), so the three ranges below are disjoint and in order
    root = bisect_right(primes, math.isqrt(m))
    half = bisect_right(primes, m // 2)
    low = bisect_right(primes, m - k)
    end = bisect_right(primes, m)
    factors = []
    # p <= sqrt(m): Legendre's sum over the powers of p
    for p in primes[:root]:
        e, q = 0, p
        while q <= m:
            e += m // q - k // q - (m - k) // q
            q *= p
        if e:
            factors.append(p**e)
    # sqrt(m) < p <= m / 2: at most one carry, which happens iff m % p < k % p.
    # Primes in (m / 2, m - k] give none: m // p = (m - k) // p = 1, k // p = 0.
    factors += [p for p in primes[root:half] if m % p < k % p]
    # m - k < p <= m: each divides the numerator once and k! not at all
    factors += primes[low:end]
    return _product(factors)
