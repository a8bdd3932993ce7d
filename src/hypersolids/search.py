"""Inverse lookups: which coordinates produce a given value.

``rank_of`` inverts one sequence (fixed dimension and difference) by the one
rank search here, ``_least_rank``: a floating-point guess from the closed
form, then galloping and bisection over exact values.

``representations`` finds every coordinate triple in a box whose value
equals a target t.  For a fixed dimension v and rank n the value is affine
in the difference, ``base(n) + d * slope(n)`` with base(n) = C(v+n-2, v-1)
and slope(n) = C(v+n-2, v), so each (v, n) cell is decided by one exact
division rather than a scan over d.  For v >= 2 the value never decreases
in n or d, so no rank past the least one where S(v, d_lo, n) reaches t can
hit, and the rank search finds that one.  Up to it, the closed form
S = C(v+n-2, v-1) * (v + d(n-1)) / v gives

    v! * S(v, d, n) = n (n+1) ... (n+v-2) * (v + d(n-1)),

so the rank of every hit divides v! * t; at v = 2 this is the polygonal
test n(2 + (n-1)d) = 2t.  ``_primes.factor`` factors t once per call, and
each dimension checks only the divisors of v! * t among its ranks, or every
rank where there are few.  The work is the factoring plus a few divisors
per dimension, where a walk over the ranks takes about sqrt(2t) of them at
v = 2.  Factoring has one work budget, ``_primes.FACTOR_BUDGET``; past it a
dimension walks its ranks if they fit the same budget, and otherwise
``RangeError`` is raised.  The dimension loop ends at the first v where
S(v, d_lo, min(max(n_min, 2), 3)), a lower bound on every cell of rank
>= 2 in the box, exceeds the target.  By default the box is clipped to the
coordinate domain: ranks and differences below ``COORD_LIMIT``.
"""

from __future__ import annotations

import math
from math import comb
from typing import Iterable, Iterator, NamedTuple

from .kernel import (
    COORD_LIMIT, IndexTriple, RangeError, _check, _closed, _exact_int, _sequence, binomial,
)


class RepresentationHit(NamedTuple):
    triple: IndexTriple
    value: int


#: A dimension with at most this many ranks to search checks each of them
#: (its checks stop well before the last); one with more checks only the
#: divisors of v! * t among them.  On targets from 1e4 to 1e9, 128 to 512
#: cost the same within noise; 32 cost about 13 % more, and 1024 about 10 %
#: more on the targets past 1e6.
_DIRECT_RANKS = 256


def rank_of(value: int, v: int, d: int) -> int | None:
    """Rank n >= 1 with hypersolid(v, d, n) == value, or None if value is skipped.

    Defined only where the sequence is strictly increasing in the rank:
    v >= 2, or v == 1 with d >= 1.  ``value`` must be an int >= 1 (not bool).
    Ranks stay inside the coordinate domain: when even rank
    ``COORD_LIMIT - 1`` falls short of ``value``, the answer is None.
    """
    v = _check("v", v)
    d = _check("d", d)
    if not (v >= 2 or (v == 1 and d >= 1)):
        raise RangeError(
            "rank lookup needs a strictly increasing sequence: v >= 2, or v == 1 with d >= 1"
        )
    value = _exact_int("value", value)
    if value < 1:
        raise RangeError(f"value must be >= 1, got {value}")
    n = _least_rank(v, d, value)
    return n if n < COORD_LIMIT and _closed(v, d, n) == value else None


def _least_rank(v: int, d: int, value: int) -> int:
    """Least rank n >= 1 with S(v, d, n) >= value, or COORD_LIMIT if none.

    Needs v >= 1, where S(v, d, n) never decreases from rank 1 on (and
    S(v, d, 0) = 0), and value >= 1.  The search gallops from
    ``_rank_guess`` to a bracket and bisects it, so a guess k ranks off
    costs about 2 log2(k) evaluations, and no guess costs more than
    bisecting the whole domain twice.
    """
    top = COORD_LIMIT - 1
    n = _rank_guess(v, d, value)
    step = 1
    if _closed(v, d, n) >= value:  # S(lo) < value <= S(hi) from here on
        hi = n
        while True:
            lo = max(hi - step, 0)
            if lo == 0 or _closed(v, d, lo) < value:
                break
            hi, step = lo, 2 * step
    else:
        lo = n
        while True:
            if lo == top:
                return COORD_LIMIT
            hi = min(lo + step, top)
            if _closed(v, d, hi) >= value:
                break
            lo, step = hi, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _closed(v, d, mid) < value:
            lo = mid
        else:
            hi = mid
    return hi


def _rank_guess(v: int, d: int, value: int) -> int:
    """A rank in [1, COORD_LIMIT - 1] near the least n with S(v, d, n) >= value.

    S(v, d, n) = C(n+v-2, v-1) * (v + d(n-1)) / v is at least each of its
    two terms, C(n+v-2, v-1) and about d * C(n+v-2, v), and C(n+v-2, k)
    is about (n + (v-2)/2)**k / k!.  Setting either term to the value gives
    a rank at or past the answer, up to that approximation; the guess is
    the smaller of the two.
    """
    log_value, shift = math.log(value), (v - 2) / 2
    guess = COORD_LIMIT - 1.0
    if v > 1:  # C(n+v-2, v-1) = value
        guess = min(guess, math.exp(min((log_value + math.lgamma(v)) / (v - 1), 23.0)) - shift)
    if d:  # d * C(n+v-2, v) = value
        log_rank = (log_value + math.lgamma(v + 1) - math.log(d)) / v
        guess = min(guess, math.exp(min(log_rank, 23.0)) - shift)
    return max(int(guess), 1)


def _rank_hits(
    v: int, ranks: Iterable[int], top: int, target: int, d_lo: int, d_hi: int
) -> Iterator[RepresentationHit]:
    """The hits (v, d, n) with n in ``ranks`` (ascending) and d in [d_lo, d_hi].

    Needs v >= 2.  From the first rank where even the smallest nonzero
    difference of the box overshoots, only a d = 0 hit is left, and S(v, 0, n)
    is strictly increasing, so its one candidate is ``top``, the least rank
    where S(v, d_lo, n) reaches the target: the ranks after that first one
    are skipped and ``top`` is checked in their place.
    """
    d_step = max(d_lo, 1)
    for n in ranks:
        base = comb(v + n - 2, v - 1)  # value at d = 0
        slope = base * (n - 1) // v  # C(v+n-2, v), the increment per unit of d
        if slope == 0:
            # rank 0 or 1: value is constant in d
            if base == target:
                yield from (
                    RepresentationHit(IndexTriple(v, d, n), target)
                    for d in range(d_lo, d_hi + 1)
                )
            continue
        d, leftover = divmod(target - base, slope)
        if leftover == 0 and d_lo <= d <= d_hi:
            yield RepresentationHit(IndexTriple(v, d, n), target)
        if d < d_step:
            if d_lo == 0 and top > n and _closed(v, 0, top) == target:
                yield RepresentationHit(IndexTriple(v, 0, top), target)
            return


def _rank_walk(
    v: int, n_min: int, n_max: int, target: int, d_lo: int, d_hi: int
) -> Iterator[RepresentationHit]:
    """The hits of dimension v <= 1, rank by rank from n_min to n_max."""
    for n in range(n_min, n_max + 1):
        base = binomial(v + n - 2, v - 1)  # value at d = 0
        slope = binomial(v + n - 2, v)  # increment per unit of d
        if slope == 0:
            if base == target:
                yield from (
                    RepresentationHit(IndexTriple(v, d, n), target)
                    for d in range(d_lo, d_hi + 1)
                )
        else:
            d, leftover = divmod(target - base, slope)
            if leftover == 0 and d_lo <= d <= d_hi:
                yield RepresentationHit(IndexTriple(v, d, n), target)


def _range_of(name: str, pair: object) -> tuple[int, int]:
    """``pair`` as (low, high) coordinates, else RangeError."""
    try:
        lo, hi = pair  # type: ignore[misc]
    except (TypeError, ValueError):
        raise RangeError(f"{name} must be a (low, high) pair, got {pair!r}") from None
    return _check(f"{name} low", lo), _check(f"{name} high", hi)


def representations(
    target: int,
    v_range: tuple[int, int] = (2, 8),
    d_range: tuple[int, int] | None = None,
    n_min: int = 3,
    n_max: int | None = None,
) -> list[RepresentationHit]:
    """Every triple in the box whose value equals ``target``, in (v, d, n) order.

    The box is v in ``v_range``, d in ``d_range`` (default
    [0, min(target, COORD_LIMIT - 1)]) and n from ``n_min`` (default 3, past
    the trivial rank-1/rank-2 hits) up to ``n_max`` (default
    COORD_LIMIT - 1).  Complete relative to the box: a triple is returned
    iff it lies inside and its value is exactly ``target``, which must be an
    int >= 1 (not bool).

    For v >= 2 no rank past the least n with S(v, d_lo, n) >= target can
    hit, d_lo the low end of the difference range; the rank search behind
    ``rank_of`` finds that rank.  Up to it, the rank of every hit divides
    v! * target, so the target is factored once (when the first dimension
    needs it) and a dimension checks only those divisors, each by one exact
    division, or all its ranks when there are at most ``_DIRECT_RANKS``.
    The checks stop at the first rank where even d = max(d_lo, 1)
    overshoots; after it only the last rank can hold a (d = 0) hit.  When
    factoring would cost more than ``_primes.FACTOR_BUDGET`` steps, a
    dimension walks its ranks instead if the walk (about sqrt(2 * target)
    ranks at v = 2) fits the same budget, and otherwise ``RangeError`` is
    raised.

    For v <= 1 the d = 0 value stops growing with the rank, so those
    dimensions admit arbitrarily large ranks and require an explicit
    ``n_max``; their ranks are walked one by one up to it.

    The dimension loop stops at the first v where S(v, d_lo, n_low)
    exceeds the target, with n_low = min(max(n_min, 2), 3): S never
    decreases in v, d or n from rank 1 on, ranks 0 and 1 hold only 0 and
    1, and every other rank of the box is at least n_low.  Rank 3 caps the
    test so that it costs one small binomial however large n_min is.  So
    a wide dimension range costs only the dimensions that can still hit:
    about sqrt(2 * target) of them at the default ``n_min`` of 3.  Only a
    target of 1 with rank 1 in the box walks every dimension, and it has a
    hit in each.
    """
    target = _exact_int("target", target)
    if target < 1:
        raise RangeError(f"target must be >= 1, got {target}")
    v_lo, v_hi = _range_of("v_range", v_range)
    if v_lo > v_hi:
        raise RangeError(f"empty dimension range: {v_range}")
    if d_range is None:
        d_lo, d_hi = 0, min(target, COORD_LIMIT - 1)
    else:
        d_lo, d_hi = _range_of("d_range", d_range)
        if d_lo > d_hi:
            raise RangeError(f"bad difference range: ({d_lo}, {d_hi})")
    n_min = _check("n_min", n_min)
    if n_max is not None:
        n_max = _check("n_max", n_max)
    elif v_lo < 2:
        raise RangeError("v < 2 admits arbitrarily large ranks; pass an explicit n_max")
    else:
        n_max = COORD_LIMIT - 1
    # ranks 0 and 1 hold only 0 and 1; every other cell of the box is at
    # least S(v, d_lo, n_low), which never decreases in v.  Any rank from 2
    # to max(n_min, 2) bounds it; rank 3 keeps the binomial small.
    n_low = min(max(n_min, 2), 3)
    bounded = target > 1 or n_min >= 2
    factored, t_factors = False, None  # the target's primes, once a dimension needs them

    hits: list[RepresentationHit] = []
    for v in range(v_lo, v_hi + 1):
        if bounded and _closed(v, d_lo, n_low) > target:
            break  # this and every later dimension overshoot
        if v < 2:
            hits += _rank_walk(v, n_min, n_max, target, d_lo, d_hi)
            continue
        # S never decreases in n or d: past the least rank where
        # S(v, d_lo, n) reaches the target, every cell overshoots
        top = min(_least_rank(v, d_lo, target), n_max)
        ranks: Iterable[int] = range(n_min, top + 1)
        if top - n_min >= _DIRECT_RANKS:
            from ._primes import factor, factorial_divisors

            if not factored:
                factored, t_factors = True, factor(target)
            if t_factors is not None:
                ranks = factorial_divisors(v, t_factors, n_min, top)
            else:
                _check_walk(v, target, d_lo, n_min, top)
        hits += _rank_hits(v, ranks, top, target, d_lo, d_hi)
    hits.sort(key=lambda hit: hit.triple)
    return hits


def _check_walk(v: int, target: int, d_lo: int, n_min: int, top: int) -> None:
    """RangeError unless dimension v can walk its ranks within ``FACTOR_BUDGET``.

    The walk ends at the first rank where even d = max(d_lo, 1) overshoots,
    about sqrt(2 * target) ranks at v = 2 (see ``_rank_hits``).
    """
    from ._primes import FACTOR_BUDGET

    stop = min(_least_rank(v, max(d_lo, 1), target + 1), top + 1)
    if stop - n_min > FACTOR_BUDGET:
        raise RangeError(
            f"the target ({target.bit_length()} bits) does not factor within "
            f"{FACTOR_BUDGET} steps, and walking dimension {v} instead would take "
            f"{stop - n_min} ranks"
        )


def sequence_slice(v: int, d: int, n_from: int, n_to: int) -> list[int]:
    """Values at ranks n_from..n_to (inclusive) of one sequence.

    The slice is one Pascal column times an arithmetic progression, built
    by ``kernel._sequence`` as ``math.comb`` maps with no Python call per
    rank.  That helper decides the binomial route once for the whole slice:
    only v > ``_PRIME_ROUTE_SIDE`` evaluates rank by rank, so that big
    balanced cells still take the prime-power binomial.
    """
    v = _check("v", v)
    d = _check("d", d)
    n_from = _check("n_from", n_from)
    n_to = _check("n_to", n_to)
    if n_from > n_to:
        raise RangeError(f"empty rank range: [{n_from}, {n_to}]")
    return _sequence(v, d, n_from, n_to)
