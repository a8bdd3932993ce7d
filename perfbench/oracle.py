"""Expected outputs computed without the code under test.

Every figurate value the benchmark checks comes from ``value`` below, the
closed form C(v+n-2, v-1) + d*C(v+n-2, v) evaluated with ``math.comb``
(never ``hypersolids.binomial``).  Gnomons are checked as differences of
that closed form, which is how the paper states them, not as the kernel's
own shortcut formulas.
"""

from __future__ import annotations

import math

# Pinned ``cases_run`` per verify suite.  The default-bound counts are part
# of the repository's contract; the enlarged-bound counts were recorded at
# the commit that introduced this benchmark and must not change either.
DEFAULT_CASES = {
    "oracle": 1287,
    "gnomons": 3140,
    "corollaries": 6144,
    "theorems": 2691,
    "lemmas": 2604,
}
ENLARGED_BOUNDS = dict(v_max=12, d_max=10, n_max=18, c_max=34, s_max=60, m_max=45)
ENLARGED_CASES = {
    "oracle": 2717,
    "gnomons": 7040,
    "corollaries": 11300,
    "theorems": 5841,
    "lemmas": 5589,
}


def comb(a: int, b: int) -> int:
    """Zero-extended binomial coefficient."""
    return math.comb(a, b) if 0 <= b <= a else 0


def value(v: int, d: int, n: int) -> int:
    return comb(v + n - 2, v - 1) + d * comb(v + n - 2, v)


def n_gnomon(v: int, d: int, n: int) -> int:
    return value(v, d, n) - value(v, d, n - 1)


def d_gnomon(v: int, d: int, n: int) -> int:
    return value(v, d, n) - value(v, d - 1, n)


def v_gnomon(v: int, d: int, n: int) -> int:
    return value(v, d, n) - value(v - 1, d, n)


def triangle_rows(d: int, c_max: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(value(v, d, c - v) for v in range(c + 1)) for c in range(c_max + 1))


def diagonal(d: int, m: int, k: int) -> int:
    return sum(value(v, d, k - m * v) for v in range(k // m + 1))


def sequence(v: int, d: int, n_from: int, n_to: int) -> list[int]:
    return [value(v, d, n) for n in range(n_from, n_to + 1)]


def slice_totals(s: int, pinned: str | None, k: int = 0) -> tuple[int, int]:
    """(sum, nonzero count) of the values on the simplex v + d + n = s.

    ``pinned`` names the coordinate held at ``k``; None means the whole
    simplex.
    """
    if pinned is None:
        triples = [(v, d, s - v - d) for v in range(s + 1) for d in range(s - v + 1)]
    elif pinned == "v":
        triples = [(k, d, s - k - d) for d in range(s - k + 1)]
    elif pinned == "d":
        triples = [(v, k, s - k - v) for v in range(s - k + 1)]
    else:
        triples = [(v, s - k - v, k) for v in range(s - k + 1)]
    values = [value(*t) for t in triples]
    return sum(values), sum(1 for x in values if x)
