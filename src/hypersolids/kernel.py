"""Exact evaluation of multidimensional figurate numbers.

A figurate number counts the units in a regular pattern grown from the
arithmetic progression 1, 1 + d, 1 + 2d, ...: summing the progression gives
the plane polygonal numbers (triangular, square, pentagonal, ... as d runs
over 0, 1, 2, ...), summing those gives the pyramidal numbers, and every
further round of prefix sums lifts the pattern into one more dimension.
``hypersolid(v, d, n)`` is the nth such number in ``v`` dimensions.

Two independent evaluation routes are provided and agree everywhere:

* ``closed`` - a two-binomial closed form,
  ``C(v + n - 2, v - 1) + d * C(v + n - 2, v)``, using the zero-extended
  binomial so that a single expression covers every corner of the domain;
* ``summation`` - the literal construction: start from the one-dimensional
  progression and apply ``v - 1`` rounds of prefix summation.

All arithmetic is exact; values grow combinatorially and are returned as
plain ``int`` with no overflow or rounding anywhere.
"""

from __future__ import annotations

import math
import operator
from itertools import accumulate
from math import comb
from operator import add
from typing import Callable, Iterator, NamedTuple

#: Evaluation routes accepted by :func:`hypersolid`.
METHODS = ("closed", "summation")

#: Coordinates live in machine range; the values they index need not.
COORD_LIMIT = 2**32


class RangeError(ValueError):
    """An argument lies outside the domain of the requested operation."""


class IndexTriple(NamedTuple):
    """Coordinates of one figurate number.

    ``v`` is the dimension, ``d`` the common difference of the generating
    progression, ``n`` the rank (term index, counted from 0) within the
    sequence.
    """

    v: int
    d: int
    n: int


def _exact_int(name: str, value: object) -> int:
    """``value`` as an exact int, else RangeError.

    bool is refused although it is an int subclass; other integer-like
    objects (those with ``__index__``) are converted, floats are refused.
    """
    if type(value) is int:
        return value
    if isinstance(value, bool):
        raise RangeError(f"{name} must be an integer, got {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise RangeError(f"{name} must be an integer, got {value!r}") from None


def _check(name: str, value: int, minimum: int = 0) -> int:
    """``value`` as an exact int in [minimum, COORD_LIMIT), else RangeError."""
    if type(value) is not int:  # the common case costs this one test
        value = _exact_int(name, value)
    if value < minimum or value >= COORD_LIMIT:
        raise RangeError(f"{name} must be in [{minimum}, 2**32), got {value}")
    return value


def binomial(n: int, k: int) -> int:
    """C(n, k), extended by zero: 0 whenever k < 0, k > n, or n < 0.

    The zero extension is what lets the closed form of :func:`hypersolid`
    be one total expression with no case analysis at the boundaries.
    """
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


def permutation(n: int, k: int) -> int:
    """n! / (n - k)! with the same zero extension as :func:`binomial`."""
    if k < 0 or n < 0 or k > n:
        return 0
    return math.perm(n, k)


def gnomon_term(d: int, r: int) -> int:
    """The rth term, counted from 1, of the progression 1, 1+d, 1+2d, ...

    These are the pieces whose running total builds the polygonal numbers.
    """
    d = _check("d", d)
    r = _check("r", r, 1)
    return 1 + (r - 1) * d


def polygonal(d: int, n: int) -> int:
    """The nth polygonal number with common difference d.

    d = 0, 1, 2, 3 give the natural, triangular, square and pentagonal
    numbers.  The product n(2 + (n-1)d) is always even, so the division
    below is exact.
    """
    d = _check("d", d)
    n = _check("n", n)
    return n * (2 + (n - 1) * d) // 2


def pyramidal(d: int, n: int) -> int:
    """The nth pyramidal number with common difference d (exact, /6 divides)."""
    d = _check("d", d)
    n = _check("n", n)
    return n * (n + 1) * (3 + (n - 1) * d) // 6


def hyper4(d: int, n: int) -> int:
    """The nth four-dimensional figurate number (exact, /24 divides)."""
    d = _check("d", d)
    n = _check("n", n)
    return n * (n + 1) * (n + 2) * (4 + (n - 1) * d) // 24


def _closed(v: int, d: int, n: int) -> int:
    # The zero-extended closed form with its corners spelled out, so that a
    # cell costs two math.comb calls and no Python binomial frame: m < 0
    # (v + n < 2) zeroes both binomials, v = 0 leaves d * C(m, 0), and
    # math.comb itself returns 0 when its k exceeds m.
    m = v + n - 2
    if m < 0:
        return 0
    if v == 0:
        return d
    return comb(m, v - 1) + d * comb(m, v)


def _triangle_rows(
    d: int, c_max: int, width: Callable[[int], int] | None = None
) -> Iterator[tuple[int, ...]]:
    """Yield rows 0..c_max of the difference-d triangle, ``row[v] = S(v, d, c - v)``.

    Rows 0-2 come from the closed form.  From row 3 on each row is built by
    the adjacent-pair rule: ``d`` (the dimension-0 value), then the sums of
    adjacent pairs of the row above, then the rank-0 zero.  That is one
    big-int addition per cell instead of two binomials.

    ``width(c)``, when given, keeps only the first ``width(c)`` positions of
    row c.  It must be at least 1 and must not grow with c, so that every
    pair a kept cell needs is still present in the truncated row above.
    """
    prev: tuple[int, ...] = ()
    for c in range(c_max + 1):
        w = c + 1 if width is None else min(c + 1, width(c))
        if c < 3:
            row = tuple(_closed(v, d, c - v) for v in range(w))
        elif w > c:
            row = (d, *map(add, prev[1:], prev), 0)
        else:
            row = (d, *map(add, prev[1:w], prev))
        yield row
        prev = row


def _by_summation(v: int, d: int, n: int) -> int:
    if v == 0:
        # The zero-dimensional sequence is not a valid summation source
        # (its prefix sums would drop the leading unit), so it keeps its
        # own rule: 0, 0, d, d, d, ...
        return d if n >= 2 else 0
    row = [0] + [1 + d * (r - 1) for r in range(1, n + 1)]
    for _ in range(v - 1):
        row = list(accumulate(row))
    return row[n]


def hypersolid(v: int, d: int, n: int, method: str = "closed") -> int:
    """Value of the nth figurate number in v dimensions with difference d.

    ``method`` selects the evaluation route (see module docstring); the two
    routes agree on every triple, which the verification suites sweep.
    """
    # One test admits the common case; _check converts or rejects the rest
    # with its per-coordinate message.  The gnomons below do the same.
    if not (
        type(v) is type(d) is type(n) is int
        and 0 <= v < COORD_LIMIT and 0 <= d < COORD_LIMIT and 0 <= n < COORD_LIMIT
    ):
        v, d, n = _check("v", v), _check("d", d), _check("n", n)
    if method == "closed":
        return _closed(v, d, n)
    if method == "summation":
        return _by_summation(v, d, n)
    raise ValueError(f"unknown evaluation method {method!r}; expected one of {METHODS}")


def n_gnomon(v: int, d: int, n: int) -> int:
    """What rank n adds on top of rank n - 1: the same number one dimension down.

    Satisfies hypersolid(v, d, n) == hypersolid(v, d, n - 1) + n_gnomon(v, d, n)
    whenever v >= 1, n >= 1 and v + n >= 3.
    """
    if not (
        type(v) is type(d) is type(n) is int
        and 1 <= v < COORD_LIMIT and 0 <= d < COORD_LIMIT and 1 <= n < COORD_LIMIT
    ):
        v, d, n = _check("v", v, 1), _check("d", d), _check("n", n, 1)
    return _closed(v - 1, d, n)


def d_gnomon(v: int, d: int, n: int) -> int:
    """What difference d adds on top of d - 1: the d = 1 number of rank n - 1.

    Satisfies hypersolid(v, d, n) == hypersolid(v, d - 1, n) + d_gnomon(v, d, n)
    whenever d >= 1, n >= 1 and v + n >= 3.
    """
    if not (
        type(v) is type(d) is type(n) is int
        and 0 <= v < COORD_LIMIT and 1 <= d < COORD_LIMIT and 1 <= n < COORD_LIMIT
    ):
        v, d, n = _check("v", v), _check("d", d, 1), _check("n", n, 1)
    return _closed(v, 1, n - 1)


def v_gnomon(v: int, d: int, n: int) -> int:
    """What dimension v adds on top of v - 1: the same sequence one rank back.

    Satisfies hypersolid(v, d, n) - hypersolid(v - 1, d, n) == v_gnomon(v, d, n)
    whenever v >= 1, n >= 1 and v + n >= 3.
    """
    if not (
        type(v) is type(d) is type(n) is int
        and 1 <= v < COORD_LIMIT and 0 <= d < COORD_LIMIT and 1 <= n < COORD_LIMIT
    ):
        v, d, n = _check("v", v, 1), _check("d", d), _check("n", n, 1)
    return _closed(v, d, n - 1)
