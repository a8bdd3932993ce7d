"""Exact evaluation of multidimensional figurate numbers.

A figurate number counts the units in a regular pattern grown from the
arithmetic progression 1, 1 + d, 1 + 2d, ...: summing the progression gives
the plane polygonal numbers (triangular, square, pentagonal, ... as d runs
over 0, 1, 2, ...), summing those gives the pyramidal numbers, and every
further round of prefix sums lifts the pattern into one more dimension.
``hypersolid(v, d, n)`` is the nth such number in ``v`` dimensions.

Two independent evaluation routes are provided and agree everywhere:

* ``closed`` - the closed form ``C(v + n - 2, v - 1) + d * C(v + n - 2, v)``,
  evaluated with one binomial as ``C(v + n - 2, v - 1) * (v + d(n - 1)) / v``
  (the division is exact) and with the corners of the zero-extended
  binomial written out, so that it covers the whole domain.  That binomial
  is ``math.comb``, except when both of its sides are at least
  ``_PRIME_ROUTE_SIDE`` (700) and neither is under a tenth of the top: there
  it is a product of prime powers from :mod:`hypersolids._primes`, which
  needs none of the big-integer divisions that make ``math.comb`` slow
  there.  The public ``binomial``, the ``sums`` formulas and the summation
  route never take this path, so nothing that checks it uses it;
* ``summation`` - the literal construction: start from the one-dimensional
  progression and apply ``v - 1`` rounds of prefix summation.  The rounds
  are ``itertools.accumulate`` iterators chained over the progression, so
  every prefix of every round is still added, but no finished round is
  kept.  The last round starts from 0, so one pass is a lazy iterator of
  ranks 0..n (``_summation_ranks``): the scalar route reads its last
  element, and the ``verify`` oracle reads a whole sequence off one pass.
  A chain longer than ``_CHAIN_ROUNDS`` rounds is cut by storing one round
  in a list.

A whole sequence slice (fixed v and d, consecutive ranks) is the same closed
form over one Pascal column: ``sequence_slice`` builds it as ``math.comb``
maps, with no Python call per rank, and decides the binomial route once per
slice from v alone.  The command-line ``table`` builds its rows with it.

All arithmetic is exact; values grow combinatorially and are returned as
plain ``int`` with no overflow or rounding anywhere.
"""

from __future__ import annotations

import math
import operator
from collections import deque
from itertools import accumulate, chain, repeat
from math import comb
from operator import add, floordiv, mul
from typing import Callable, Iterable, Iterator, NamedTuple

#: Evaluation routes accepted by :func:`hypersolid`.
METHODS = ("closed", "summation")

#: Coordinates live in machine range; the values they index need not.
COORD_LIMIT = 2**32

#: Names of the ``verify`` sweeps, in the order ``verify --suite all`` runs them.
SUITES = ("oracle", "gnomons", "corollaries", "theorems", "lemmas")

#: Default upper ends of the ``verify`` sweep grids, by ``GridBounds`` field.
#: They live here so that the command line can show them without importing
#: the sweeps.
DEFAULT_BOUNDS = {"v_max": 8, "d_max": 10, "n_max": 12, "c_max": 24, "s_max": 40, "m_max": 30}


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


class _Record:
    """Base of the four immutable records: ``Triangle``, ``SumReport``,
    ``GridBounds`` and ``VerifyOutcome``.

    A subclass names its fields in ``__slots__`` and sets each one in its
    own ``__init__`` through ``Name._setters``: each slot's member-descriptor
    ``__set__`` in ``_fields`` order, bound once per class.  The records'
    own ``__setattr__`` refuses assignment, and a bound setter skips the
    slot lookup ``object.__setattr__`` makes on every call (the theorems
    sweep builds thousands of ``SumReport``s).  A subclass of a record keeps
    the fields and setters it inherits and adds the slots it declares; a
    private slot name such as ``__x`` is refused with ``TypeError``.
    Records compare equal only to records of the same class with equal
    fields, hash as the tuple of their fields, print as
    ``Name(field=value, ...)``, pickle and copy, and refuse assignment and
    deletion with ``AttributeError``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _setters: tuple[Callable[[object, object], None], ...] = ()

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        # collected once per class: ``__slots__`` holds only the names a class
        # declares itself, so ``__slots__ = ()`` in a subclass would hide them
        own = cls.__dict__.get("__slots__", ())
        own = (own,) if isinstance(own, str) else tuple(own)
        for name in own:
            if name.startswith("__") and not name.endswith("__"):
                # CPython stores such a slot under its mangled name, _Name__x
                raise TypeError(f"{cls.__name__}: a record field cannot be the private "
                                f"name {name!r}")
        cls._fields += own
        cls._setters += tuple([cls.__dict__[name].__set__ for name in own])

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._values()


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
    be one total expression with no case analysis at the boundaries.  An
    argument that is not an exact int (bool, float and str included) raises
    :class:`RangeError`; an ``__index__`` object is converted.
    """
    if not (type(n) is type(k) is int):  # the common case costs this one test
        n, k = _exact_int("n", n), _exact_int("k", k)
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


def permutation(n: int, k: int) -> int:
    """n! / (n - k)! with the same zero extension and checks as :func:`binomial`."""
    if not (type(n) is type(k) is int):
        n, k = _exact_int("n", n), _exact_int("k", k)
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


#: ``_closed`` takes C(m, k), k = v - 1, from :func:`hypersolids._primes.comb`
#: when both k and m - k = n - 1 are at least this (it must stay >= 0, which
#: keeps n >= 1 and so k <= m) and the smaller of them is at least m / 10.
#: Below either line ``math.comb`` was as fast or faster, measured on Python
#: 3.11; above ``_primes.SIEVE_CAP`` the helper itself calls ``math.comb``.
_PRIME_ROUTE_SIDE = 700


def _closed(v: int, d: int, n: int) -> int:
    # C(m, v - 1) + d * C(m, v) with its corners spelled out, so that a cell
    # costs one math.comb call and no Python binomial frame: m < 0
    # (v + n < 2) zeroes both binomials and v = 0 leaves d * C(m, 0).  For
    # v >= 1, C(m, v) = C(m, v - 1) * (n - 1) / v, so the sum is
    # C(m, v - 1) * (v + d(n - 1)) / v, and v divides that product exactly.
    # At n = 0 (m = v - 2) math.comb gives 0 and so does the product.
    # A big balanced binomial (see _PRIME_ROUTE_SIDE) is a product of prime
    # powers instead, with no big division.  A cell with v at or below the
    # threshold pays one comparison for that test (a sequence_slice pays
    # it once), and _primes is first imported by the first big cell.
    m = v + n - 2
    if m < 0:
        return 0
    if v == 0:
        return d
    if v > _PRIME_ROUTE_SIDE and n > _PRIME_ROUTE_SIDE and 10 * (min(v, n) - 1) >= m:
        from hypersolids._primes import comb as prime_comb

        return prime_comb(m, v - 1) * (v + d * (n - 1)) // v
    return comb(m, v - 1) * (v + d * (n - 1)) // v


def sequence_slice(v: int, d: int, n_from: int, n_to: int) -> list[int]:
    """Values at ranks n_from..n_to (inclusive) of one sequence.

    A fixed (v, d) sequence is one column of Pascal's triangle, C(m, v - 1)
    for m = v + n - 2, times the progression v + d(n - 1), floor-divided by
    v: three chained maps with no Python frame per cell.  The route is
    decided here once: no cell of a slice with v <= _PRIME_ROUTE_SIDE can
    take the prime-power binomial, and a slice above it calls ``_closed``
    per cell so that its big balanced cells still do.
    """
    v = _check("v", v)
    d = _check("d", d)
    n_from = _check("n_from", n_from)
    n_to = _check("n_to", n_to)
    if n_from > n_to:
        raise RangeError(f"empty rank range: [{n_from}, {n_to}]")
    if v > _PRIME_ROUTE_SIDE:
        return [_closed(v, d, n) for n in range(n_from, n_to + 1)]
    if v == 0:  # 0 at ranks 0 and 1 (m < 0), d from rank 2 on
        zeros = min(max(2 - n_from, 0), n_to - n_from + 1)
        return [0] * zeros + [d] * (n_to - n_from + 1 - zeros)
    lo = max(n_from, 2 - v)  # v = 1 has m < 0 at rank 0
    column = map(comb, range(v + lo - 2, v + n_to - 1), repeat(v - 1))
    if d == 0:  # the factor is v itself
        values = list(column)
    else:
        factors = range(v + d * (lo - 1), v + d * (n_to - 1) + 1, d)
        values = list(map(floordiv, map(mul, column, factors), repeat(v)))
    if lo > n_from:
        values.insert(0, 0)
    return values


def _triangle_rows(
    d: int, c_max: int, width: Callable[[int], int] | None = None
) -> Iterator[tuple[int, ...]]:
    """Yield rows 0..c_max of the difference-d triangle, ``row[v] = S(v, d, c - v)``.

    Rows 0-2 are the seeds (0), (0, 0) and (d, 1, 0), the values of S at
    v + n <= 2.  From row 3 on each row is built by the adjacent-pair rule:
    ``d`` (the dimension-0 value), then the sums of adjacent pairs of the
    row above, then the rank-0 zero.  That is one big-int addition per cell
    instead of two binomials, and no row comes from the closed form, which
    the rows' readers judge them by.

    ``width(c)``, when given, keeps only the first ``width(c)`` positions of
    row c.  It must be at least 1 and must not grow with c, so that every
    pair a kept cell needs is still present in the truncated row above.
    """
    prev: tuple[int, ...] = ()
    for c in range(c_max + 1):
        w = c + 1 if width is None else min(c + 1, width(c))
        if c < 3:
            row = ((0,), (0, 0), (d, 1, 0))[c][:w]
        elif w > c:
            row = (d, *map(add, prev[1:], prev), 0)
        else:
            row = (d, *map(add, prev[1:w], prev))
        yield row
        prev = row


#: Rounds of prefix sums the summation route chains as iterators before it
#: stores one round in a list.  Each link of a chain of C iterators takes C
#: stack, and a chain of 2 * 10**5 links overflowed an 8 MB stack.
_CHAIN_ROUNDS = 1000


def _summation_ranks(v: int, d: int, n: int) -> Iterator[int]:
    """Iterate S(v, d, 0), ..., S(v, d, n), the ranks of one summation pass.

    The progression 1, 1 + d, ..., 1 + d(n - 1) runs through v - 1 chained
    ``accumulate`` rounds, and the last round starts from ``initial=0``, so
    rank 0 costs no iterator layer of its own.  Nothing is added before the
    first value is read, except that a chain longer than ``_CHAIN_ROUNDS``
    rounds stores one round in a list.
    """
    if v == 0:
        # The zero-dimensional sequence is not a valid summation source
        # (its prefix sums would drop the leading unit), so it keeps its
        # own rule: 0, 0, d, d, d, ...
        return chain(repeat(0, min(n + 1, 2)), repeat(d, n - 1))
    # the progression 1, 1 + d, ..., 1 + d(n - 1); a range cannot step by 0
    row: Iterable[int] = range(1, d * n + 1, d) if d else repeat(1, n)
    if v == 1:
        return chain((0,), row)
    rounds = v - 2  # before the last one
    while rounds > _CHAIN_ROUNDS:
        for _ in range(_CHAIN_ROUNDS):
            row = accumulate(row)
        row = list(row)
        rounds -= _CHAIN_ROUNDS
    for _ in range(rounds):
        row = accumulate(row)
    return accumulate(row, initial=0)


def _by_summation(v: int, d: int, n: int) -> int:
    if v < 2:
        # v = 0 keeps its own rule, and v = 1 adds no round: its value is
        # the progression's nth term, read without walking the progression
        if v:
            return 1 + d * (n - 1) if n else 0
        return d if n >= 2 else 0
    # maxlen 1 by position: that skips the keyword parse, about 0.1 us a
    # call, which the last round's initial=0 pays
    return deque(_summation_ranks(v, d, n), 1)[0]


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
