"""Primes for the package: big binomials and the factoring of search targets.

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

:func:`factor` splits an inverse-search target into primes: trial division
by the sieve's primes below ``TRIAL_LIMIT``, then Baillie-PSW (Miller-Rabin
and a strong Lucas test) and Pollard-Brent on what is left, within
``FACTOR_BUDGET``.  Only :mod:`hypersolids.search` calls it.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from itertools import compress
from operator import mul

from .kernel import RangeError

#: Largest m whose primes the sieve will hold: it runs on a 1 MB bytearray
#: and keeps the 82025 primes it finds in a 656 KB array.
SIEVE_CAP = 1 << 20

#: ``(top, primes)``: the sieve has covered the numbers below ``top``, and
#: ``primes`` holds the primes among them in ascending order.  It is one
#: tuple so that a reader in another thread never pairs a new top with an
#: old table.
_sieved = (0, array("l"))

#: :func:`factor` divides out the primes below this first; a cofactor left
#: below its square has no smaller prime factor and so is prime.
TRIAL_LIMIT = 1024

#: Miller-Rabin bases.  Together they decide primality exactly below 3.3e24;
#: a cofactor that passes all of them must pass a strong Lucas test too
#: (Baillie-PSW, with no known counterexample) to be taken as prime.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

#: The work one :func:`factor` call may do, in Pollard-Brent steps modulo a
#: number below 2**256; a step modulo a number of k such 256-bit words
#: counts k**2 (measured: a step at 1024 bits costs 16 at 64 bits), and a
#: trial division of such a number k.
#: At full budget Pollard-Brent takes about 0.5 s and splits every cofactor
#: whose second-largest prime factor is below about 1e11.  The inverse
#: search holds the ranks it lists or walks in one dimension to the same
#: count.
FACTOR_BUDGET = 1 << 20


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


def factor(t: int) -> dict[int, int] | None:
    """{prime: exponent} of t >= 1, or None if that costs more than FACTOR_BUDGET.

    Each trial division is charged one unit per 256-bit word of t, each
    cofactor past TRIAL_LIMIT**2 the worst case of its primality test, and
    a composite one the Pollard-Brent steps it takes, each before the work
    runs, so the budget is never overrun.
    """
    factors: dict[int, int] = {}
    budget = FACTOR_BUDGET
    cost = t.bit_length() // 256 + 1  # of one trial division
    for p in _primes_upto(TRIAL_LIMIT):
        if p >= TRIAL_LIMIT or p * p > t:
            break
        budget -= cost
        if budget < 0:
            return None
        while t % p == 0:
            t //= p
            factors[p] = factors.get(p, 0) + 1
            budget -= cost
            if budget < 0:
                return None
    pending = [t] if t > 1 else []
    while pending:
        m = pending.pop()
        if m >= TRIAL_LIMIT**2:  # below that, m has no smaller prime factor
            weight = (m.bit_length() // 256 + 1) ** 2
            # one step per bit for each witness, and two for the Lucas test
            # (measured: 0.7-2 Pollard-Brent steps per bit at 82-127 bits)
            budget -= weight * m.bit_length() * (len(_WITNESSES) + 2)
            if budget < 0:
                return None
            if not _is_probable_prime(m):
                f, spent = _brent(m, budget // weight)
                budget -= weight * spent
                if f is None:
                    return None
                pending += [f, m // f]
                continue
        factors[m] = factors.get(m, 0) + 1
    return factors


def factorial_divisors(v: int, t_factors: dict[int, int], lo: int, hi: int) -> list[int]:
    """The divisors of v! * t in [lo, hi], ascending, from the factorisation of t.

    A divisor up to hi has no prime factor past hi, so only the primes of
    v! up to min(v, hi) are counted (by Legendre's formula).
    """
    top = min(v, hi)
    if top > SIEVE_CAP:
        raise RangeError(f"a rank past {SIEVE_CAP} in a dimension past {SIEVE_CAP} "
                         "needs more primes than the sieve keeps")
    exponents = dict(t_factors)
    for p in _primes_upto(top):
        if p > top:
            break
        e, q = 0, p
        while q <= v:
            e += v // q
            q *= p
        exponents[p] = exponents.get(p, 0) + e
    divisors = [1]  # kept sorted
    for p, e in exponents.items():
        powers = []
        q = p
        while q <= hi and len(powers) < e:
            powers.append(q)
            q *= p
        ends = [bisect_right(divisors, hi // q) for q in powers]
        if len(divisors) + sum(ends) > FACTOR_BUDGET:
            raise RangeError(f"more than {FACTOR_BUDGET} candidate ranks in dimension {v}")
        divisors += [n * q for q, end in zip(powers, ends) for n in divisors[:end]]
        divisors.sort()
    return divisors[bisect_left(divisors, lo):]


def _is_probable_prime(m: int) -> bool:
    """Baillie-PSW for odd m > TRIAL_LIMIT: Miller-Rabin to the bases
    ``_WITNESSES``, then a strong Lucas test."""
    s = ((m - 1) & (1 - m)).bit_length() - 1  # m - 1 = 2**s * odd
    odd = (m - 1) >> s
    for a in _WITNESSES:
        x = pow(a, odd, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return _is_strong_lucas_probable_prime(m)


def _jacobi(a: int, m: int) -> int:
    """The Jacobi symbol (a / m) for odd m > 0."""
    a %= m
    sign = 1
    while a:
        while not a & 1:
            a >>= 1
            if m & 7 in (3, 5):
                sign = -sign
        a, m = m, a
        if a & 3 == 3 and m & 3 == 3:
            sign = -sign
        a %= m
    return sign if m == 1 else 0


def _is_strong_lucas_probable_prime(m: int) -> bool:
    """The strong Lucas test with Selfridge's parameters, for odd m > 1.

    D is the first of 5, -7, 9, -11, ... with (D / m) = -1, P = 1 and
    Q = (1 - D) / 4.  With m + 1 = 2**s * odd, m passes if U(odd) = 0 or
    V(odd * 2**r) = 0 mod m for some r < s.  A perfect square has no such D,
    so it is rejected first.
    """
    if math.isqrt(m) ** 2 == m:
        return False
    D = 5
    while (j := _jacobi(D, m)) != -1:
        if j == 0 and math.gcd(D, m) != m:  # a proper factor of m
            return False
        D = 2 - D if D < 0 else -D - 2
    Q = (1 - D) // 4
    s = ((m + 1) & -(m + 1)).bit_length() - 1  # m + 1 = 2**s * odd
    odd = (m + 1) >> s
    # U(k), V(k) and Q**k mod m for k running up the bits of odd, from k = 1
    u, v, qk = 1, 1, Q % m
    for bit in bin(odd)[3:]:
        u, v, qk = u * v % m, (v * v - 2 * qk) % m, qk * qk % m  # k -> 2k
        if bit == "1":  # k -> k + 1, halving mod m by making the sum even
            u, v = u + v, D * u + v
            u = (u + m if u & 1 else u) >> 1
            v = (v + m if v & 1 else v) >> 1
            u, v, qk = u % m, v % m, qk * Q % m
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % m, qk * qk % m
        if v == 0:
            return True
    return False


def _brent(m: int, steps: int) -> tuple[int | None, int]:
    """(a proper factor of the odd composite m or None, steps spent).

    Pollard's rho with Brent's cycle search and gcds batched 128 steps at a
    time.  The walks x -> x**2 + c start at 2 with c = 1, 2, ... in turn, so
    the answer repeats from run to run; None means ``steps`` ran out first.
    """
    spent, c = 0, 0
    while True:
        c += 1
        y, q, g, r = 2, 1, 1, 1
        while g == 1:
            x = y
            if spent + r > steps:
                return None, spent
            spent += r
            for _ in range(r):
                y = (y * y + c) % m
            k = 0
            while k < r and g == 1:
                saved, batch = y, min(128, r - k)
                if spent + batch > steps:
                    return None, spent
                spent += batch
                for _ in range(batch):
                    y = (y * y + c) % m
                    q = q * abs(x - y) % m
                g = math.gcd(q, m)
                k += batch
            r *= 2
        if g == m:  # the batch overshot: redo it one gcd at a time
            g = 1
            while g == 1:
                saved = (saved * saved + c) % m
                g = math.gcd(abs(x - saved), m)
        if g != m:
            return g, spent
